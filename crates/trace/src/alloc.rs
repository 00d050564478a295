//! A counting global allocator for measuring solver-path allocations.
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and counts every
//! allocation (calls and bytes) in process-global atomics. It is *opt-in*:
//! a binary or test installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: parfem_trace::alloc::CountingAlloc =
//!     parfem_trace::alloc::CountingAlloc;
//! ```
//!
//! and the rest of the stack can then read [`stats`] deltas around a solve.
//! When the allocator is *not* installed, [`is_counting`] stays `false` and
//! the solve drivers skip emitting `alloc_bytes` / `alloc_count` fields, so
//! traces never carry misleading zeros.
//!
//! Every allocation is also counted in const-initialized thread-local cells,
//! read through [`thread_stats`]. A region measured with [`thread_stats`]
//! sees only its own thread's traffic, so concurrent tests (the default
//! parallel harness) cannot leak counts into each other. Use [`stats`] when
//! the region spawns threads whose allocations must count too.
//!
//! Deallocations are deliberately not subtracted: the counters measure
//! allocator *traffic* (how often the hot path hits `malloc`), which is the
//! quantity the zero-allocation Krylov workspace is designed to eliminate.
// The one unsafe impl in the crate: forwarding `GlobalAlloc` to `System`
// around two atomic bumps. Kept to this module; see lib.rs.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialized and drop-free: reaching them never allocates and
    // registers no destructor, so the allocator can touch them re-entrantly.
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A `#[global_allocator]` that counts allocations into process globals.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System`, which upholds the `GlobalAlloc`
// contract; the additional atomic counter updates have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow/shrink is new allocator traffic of the new size.
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[inline]
fn note_alloc(bytes: usize) {
    if !INSTALLED.load(Ordering::Relaxed) {
        INSTALLED.store(true, Ordering::Relaxed);
    }
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // `try_with` fails only after the thread's TLS is torn down; an
    // allocation that late is simply not attributed to the thread.
    let _ = THREAD_CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// Cumulative allocation counters at one instant; subtract two snapshots to
/// measure a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Number of allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub count: u64,
    /// Total bytes requested by those calls.
    pub bytes: u64,
}

impl AllocStats {
    /// Counters accumulated since the (earlier) snapshot `start`.
    #[must_use]
    pub fn since(self, start: AllocStats) -> AllocStats {
        AllocStats {
            count: self.count.saturating_sub(start.count),
            bytes: self.bytes.saturating_sub(start.bytes),
        }
    }
}

/// Current cumulative counters (zeros unless [`CountingAlloc`] is installed).
pub fn stats() -> AllocStats {
    AllocStats {
        count: ALLOC_CALLS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// Current cumulative counters of the calling thread alone (zeros unless
/// [`CountingAlloc`] is installed). Allocations made by other threads —
/// including threads the caller spawns — never appear here.
pub fn thread_stats() -> AllocStats {
    AllocStats {
        count: THREAD_CALLS.with(Cell::get),
        bytes: THREAD_BYTES.with(Cell::get),
    }
}

/// Whether a [`CountingAlloc`] is installed in this process (detected on its
/// first allocation, which in practice precedes any solve).
pub fn is_counting() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_and_saturates() {
        let a = AllocStats {
            count: 10,
            bytes: 100,
        };
        let b = AllocStats {
            count: 4,
            bytes: 40,
        };
        assert_eq!(
            a.since(b),
            AllocStats {
                count: 6,
                bytes: 60
            }
        );
        assert_eq!(b.since(a), AllocStats::default());
    }

    #[test]
    fn stats_without_installation_stay_zero_or_monotone() {
        // This test binary does not install the allocator, so counters can
        // only be zero; if another harness installs it, they are monotone.
        let s1 = stats();
        let _v = vec![0u8; 1024];
        let s2 = stats();
        assert!(s2.count >= s1.count);
        assert!(s2.bytes >= s1.bytes);
    }
}
