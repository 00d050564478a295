//! Counting-allocator regression test: after a workspace is warm, the
//! FGMRES restart/iteration loop performs zero heap allocation. The only
//! per-solve allocations left are the result vectors (`x` clone and the
//! residual history), whose count does not depend on how many iterations
//! run — which is exactly what this test pins down.

use parfem_krylov::gmres::{fgmres_with, GmresConfig};
use parfem_krylov::KrylovWorkspace;
use parfem_precond::{GlsPrecond, IdentityPrecond, Preconditioner};
use parfem_sparse::{scaling, variant, CooMatrix, CsrMatrix, KernelPolicy, LinearOperator};
use parfem_trace::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A deterministic diagonally dominant SPD test matrix (1-D Laplacian plus
/// a strong diagonal shift).
fn laplacian(n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0).unwrap();
        if i + 1 < n {
            coo.push(i, i + 1, -1.0).unwrap();
            coo.push(i + 1, i, -1.0).unwrap();
        }
    }
    coo.to_csr()
}

/// Runs one solve and returns the allocation-call delta it caused.
///
/// The counters are the calling thread's own ([`alloc::thread_stats`]), so
/// tests running concurrently under the parallel harness cannot leak counts
/// into each other. Lazy one-time initialization on this thread can still
/// land inside the first window; noise only ever *adds* counts, so the
/// minimum over a few repeats recovers the deterministic per-solve cost —
/// while a genuine per-iteration allocation would inflate every repeat
/// alike.
fn alloc_delta<Op, P>(
    op: &Op,
    precond: &P,
    b: &[f64],
    cfg: &GmresConfig,
    ws: &mut KrylovWorkspace,
) -> u64
where
    Op: LinearOperator + ?Sized,
    P: Preconditioner<Op> + ?Sized,
{
    let x0 = vec![0.0; b.len()];
    (0..3)
        .map(|_| {
            let start = alloc::thread_stats();
            let res = fgmres_with(op, precond, b, &x0, cfg, ws);
            let delta = alloc::thread_stats().since(start);
            assert!(res.x.iter().all(|v| v.is_finite()));
            delta.count
        })
        .min()
        .unwrap()
}

/// The per-thread counters are what make the tests below safe under the
/// parallel harness: another thread's allocations reach the process-wide
/// counters but never the calling thread's.
#[test]
fn thread_stats_exclude_other_threads() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    let (p0, t0) = (alloc::stats(), alloc::thread_stats());
    std::thread::spawn(|| std::hint::black_box(vec![0u8; 1 << 20]))
        .join()
        .unwrap();
    let (p1, t1) = (alloc::stats(), alloc::thread_stats());
    assert!(
        p1.since(p0).bytes >= 1 << 20,
        "process-wide counters missed it"
    );
    assert!(
        t1.since(t0).bytes < 1 << 20,
        "spawned thread's allocation leaked into this thread: {:?}",
        t1.since(t0)
    );
}

#[test]
fn warm_workspace_alloc_count_is_independent_of_iteration_count() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    let n = 64;
    let a = laplacian(n);
    let b = vec![1.0; n];

    // tol = 0 forces the solver to run out the full iteration budget, so
    // the two runs below differ only in how many iterations execute.
    let short = GmresConfig {
        restart: 10,
        max_iters: 5,
        tol: 0.0,
        ..Default::default()
    };
    let long = GmresConfig {
        max_iters: 80,
        ..short
    };

    let mut ws = KrylovWorkspace::new();
    // Warm-up: sizes the basis, Hessenberg, and residual buffers.
    alloc_delta(&a, &IdentityPrecond, &b, &long, &mut ws);

    let d_short = alloc_delta(&a, &IdentityPrecond, &b, &short, &mut ws);
    let d_long = alloc_delta(&a, &IdentityPrecond, &b, &long, &mut ws);
    assert_eq!(
        d_short, d_long,
        "iteration loop allocated: 5 iters cost {d_short} calls, 80 iters cost {d_long}"
    );
}

#[test]
fn warm_workspace_alloc_count_is_iteration_free_with_polynomial_precond() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    let n = 48;
    let a = laplacian(n);
    let f = vec![1.0; n];
    // GLS preconditioning assumes the system is scaled into (0, 1).
    let (scaled, b, _) = scaling::scale_system(&a, &f).unwrap();
    let gls = GlsPrecond::for_scaled_system(7);

    let short = GmresConfig {
        restart: 8,
        max_iters: 4,
        tol: 0.0,
        ..Default::default()
    };
    let long = GmresConfig {
        max_iters: 64,
        ..short
    };

    let mut ws = KrylovWorkspace::new();
    alloc_delta(&scaled, &gls, &b, &long, &mut ws);

    let d_short = alloc_delta(&scaled, &gls, &b, &short, &mut ws);
    let d_long = alloc_delta(&scaled, &gls, &b, &long, &mut ws);
    assert_eq!(
        d_short, d_long,
        "preconditioned loop allocated: 4 iters cost {d_short} calls, 64 iters cost {d_long}"
    );
}

#[test]
fn every_kernel_variant_is_iteration_free() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    let n = 64; // even, so the 2x2 block format is admissible
    let a = laplacian(n);
    let b = vec![1.0; n];

    for policy in [
        KernelPolicy::Scalar,
        KernelPolicy::Simd,
        KernelPolicy::SellCSigma,
        KernelPolicy::Bcsr2x2,
        KernelPolicy::Auto,
    ] {
        // The selection itself may allocate (format conversion, probe
        // buffers); once selected, the iteration loop must not.
        let op = variant::select(&a, policy);
        let short = GmresConfig {
            restart: 10,
            max_iters: 5,
            tol: 0.0,
            kernels: policy,
            ..Default::default()
        };
        let long = GmresConfig {
            max_iters: 80,
            ..short
        };

        let mut ws = KrylovWorkspace::new();
        alloc_delta(&op, &IdentityPrecond, &b, &long, &mut ws);

        let d_short = alloc_delta(&op, &IdentityPrecond, &b, &short, &mut ws);
        let d_long = alloc_delta(&op, &IdentityPrecond, &b, &long, &mut ws);
        assert_eq!(
            d_short,
            d_long,
            "{policy:?} ({}) allocated in the loop: 5 iters cost {d_short} calls, \
             80 iters cost {d_long}",
            op.choice().label(),
        );
    }
}
