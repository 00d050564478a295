//! Time-to-solution benchmark of `parfem`.
//!
//! One command runs a fixed workload through the public
//! [`parfem::dd::SolveSession`] API, checks every solution against the
//! assembled global system, and prints the end-to-end metrics (tracing
//! off) or, in a separate traced run, the per-layer metrics. The per-layer
//! numbers come from spans this crate records around calls into each
//! library crate's public functions; nothing inside the library is
//! instrumented for the benchmark. See `README.md` for the workloads and
//! the map from each per-layer metric to the end-to-end metric it moves.

pub mod gate;
pub mod host;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod spans;
pub mod workload;

/// Median of `xs` (mean of the middle pair for even lengths); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    })
}

/// SplitMix64: the deterministic generator behind the seeded inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream depends only on `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[-1, 1)`.
    pub fn symmetric(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn rng_is_seeded_and_bounded() {
        let (mut r1, mut r2) = (Rng::new(7), Rng::new(7));
        let a: Vec<f64> = (0..100).map(|_| r1.symmetric()).collect();
        let b: Vec<f64> = (0..100).map(|_| r2.symmetric()).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|x| (-1.0..1.0).contains(x)));
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }
}
