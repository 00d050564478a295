//! Skyline (profile) LDLᵀ factorization with pivot tolerance.
//!
//! The two-level preconditioner's Galerkin coarse operator `A_c = Zᵀ A Z`
//! is symmetric, small (modes × parts rows) and — for structured
//! partitions — tightly banded: a part's modes couple only to the modes of
//! parts it shares mesh nodes with. Skyline storage keeps each row from its
//! first structural nonzero to the diagonal, which is exactly the region
//! LDLᵀ fill can reach, so the factorization is dense-exact at banded cost:
//! `O(Σ rowᵢ²)` instead of `O(n³)`.
//!
//! Near-zero pivots are **skipped**, not fatal: a coarse mode from a
//! fully-constrained part restricts to (numerically) nothing, producing a
//! zero row/column in `A_c`. The factorization zeroes that mode's pivot and
//! the solve annihilates its component — the pseudo-inverse on the
//! orthogonal complement — so a rank-deficient coarse block (1-element
//! subdomain, fully clamped part) yields a well-posed coarse solve where
//! ILU(0) on the same geometry fails with a zero pivot (the paper's Eq. 45
//! failure mode).

use crate::csr::CsrMatrix;

/// A symmetric matrix factored as `L D Lᵀ` in skyline (profile) storage.
///
/// Build with [`SkylineLdlt::factor`] (dense row-major input) or
/// [`SkylineLdlt::factor_csr`] (symmetric sparse input). Solve in place
/// with [`SkylineLdlt::solve_in_place`].
#[derive(Debug, Clone)]
pub struct SkylineLdlt {
    n: usize,
    /// First stored column of each row (the profile).
    start: Vec<usize>,
    /// Row offsets into `vals`: row `i` is `vals[offset[i]..offset[i + 1]]`,
    /// covering columns `start[i]..=i`. After factorization the strictly
    /// lower part holds `L` and the last entry of each row holds `D`.
    offset: Vec<usize>,
    vals: Vec<f64>,
    /// Modes whose pivot fell under the tolerance (annihilated by solves).
    skipped: Vec<bool>,
    /// Largest diagonal magnitude of the input — the natural stiffness
    /// scale, recorded for [`SkylineLdlt::set_null_shift`] callers.
    diag_scale: f64,
    /// Pivot-shift fallback: when positive, solves replace each skipped
    /// pivot with this value instead of annihilating its component. Zero
    /// (the default) keeps the pseudo-inverse.
    null_shift: f64,
}

/// Relative pivot tolerance of [`SkylineLdlt::factor`]: a diagonal pivot
/// whose magnitude falls below `tol × max |a_ii|` is treated as a zero
/// mode and skipped.
pub const DEFAULT_PIVOT_TOL: f64 = 1e-12;

impl SkylineLdlt {
    /// Factors the symmetric `n × n` row-major matrix `a` (only the lower
    /// triangle is read). `pivot_tol` is relative to the largest diagonal
    /// magnitude; pivots under it are skipped (see the module docs).
    ///
    /// # Panics
    /// Panics when `a.len() != n * n`.
    pub fn factor(a: &[f64], n: usize, pivot_tol: f64) -> Self {
        let mut fact = Self::dense_profile(a, n);
        fact.factor_in_place(pivot_tol);
        fact
    }

    /// The unfactored profile of the dense row-major `a`: each row from its
    /// first nonzero to the diagonal. Symmetry makes column profiles match
    /// row profiles.
    fn dense_profile(a: &[f64], n: usize) -> Self {
        assert_eq!(a.len(), n * n, "SkylineLdlt::factor: matrix shape");
        let start: Vec<usize> = (0..n)
            .map(|i| (0..=i).find(|&j| a[i * n + j] != 0.0).unwrap_or(i))
            .collect();
        let mut fact = Self::with_profile(start);
        for i in 0..n {
            let si = fact.start[i];
            fact.row_mut(i).copy_from_slice(&a[i * n + si..=i * n + i]);
        }
        fact
    }

    /// Factors a symmetric sparse matrix given in CSR form (both triangles
    /// stored, as assembly produces). Equivalent to densifying and calling
    /// [`SkylineLdlt::factor`], at profile cost.
    ///
    /// # Panics
    /// Panics on a non-square input.
    pub fn factor_csr(a: &CsrMatrix, pivot_tol: f64) -> Self {
        let n = a.n_rows();
        assert_eq!(n, a.n_cols(), "SkylineLdlt::factor_csr: square input");
        let start: Vec<usize> = (0..n)
            .map(|i| {
                let (cols, _) = a.row(i);
                cols.first().map_or(i, |&c| c.min(i))
            })
            .collect();
        let mut fact = Self::with_profile(start);
        for i in 0..n {
            let (cols, vals) = a.row(i);
            fact.scatter_row(i, cols.iter().copied().zip(vals.iter().copied()));
        }
        fact.factor_in_place(pivot_tol);
        fact
    }

    /// A zeroed profile whose row `i` covers columns `start[i]..=i`. Fill
    /// it with [`SkylineLdlt::scatter_row`], then call
    /// [`SkylineLdlt::factor_in_place`].
    pub(crate) fn with_profile(start: Vec<usize>) -> Self {
        let n = start.len();
        let mut offset = Vec::with_capacity(n + 1);
        offset.push(0usize);
        for (i, &si) in start.iter().enumerate() {
            assert!(si <= i, "SkylineLdlt: row {i} starts right of its diagonal");
            offset.push(offset[i] + (i - si + 1));
        }
        SkylineLdlt {
            n,
            start,
            vals: vec![0.0; offset[n]],
            offset,
            skipped: vec![false; n],
            diag_scale: 0.0,
            null_shift: 0.0,
        }
    }

    /// The profile (`start` per row) and the row-major stored values.
    #[cfg(test)]
    pub(crate) fn profile(&self) -> (&[usize], &[f64]) {
        (&self.start, &self.vals)
    }

    /// Row `i` of the profile, columns `start[i]..=i`.
    fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.vals[self.offset[i]..self.offset[i + 1]]
    }

    /// Writes the `(column, value)` entries of row `i` that lie on or left
    /// of the diagonal into the profile; entries right of it are dropped
    /// (symmetry supplies them). Each column must lie in the profile and
    /// appear at most once.
    pub(crate) fn scatter_row(
        &mut self,
        i: usize,
        entries: impl IntoIterator<Item = (usize, f64)>,
    ) {
        let si = self.start[i];
        let row = self.row_mut(i);
        for (j, v) in entries {
            if j <= i {
                row[j - si] = v;
            }
        }
    }

    /// In-place LDLᵀ within the profile: for each row `i`,
    /// `l_ij = (a_ij − Σ_k l_ik d_k l_jk) / d_j`, `d_i = a_ii − Σ l_ik² d_k`.
    /// Skipped pivots set `d = 0` and their `L` column to zero.
    ///
    /// Bit-identical to the textbook triple loop (kept as the test oracle):
    /// every sum starts from `a_ij` and subtracts its terms in ascending
    /// `k`, each term rounded as `(l_ik·d_k)·l_jk`. The row buffer `w`
    /// caches `l_ik·d_k` as soon as `l_ik` is final, which is exactly that
    /// first product, so the inner loop is one multiply-subtract over two
    /// contiguous slices. Columns are taken four at a time (see
    /// [`column_block`]) so four independent subtract chains overlap their
    /// latencies; each chain still adds its own terms in ascending `k`.
    pub(crate) fn factor_in_place(&mut self, pivot_tol: f64) {
        let n = self.n;
        // d_k: the input diagonal until row k is factored, then the pivot.
        let mut diag: Vec<f64> = (0..n).map(|i| self.vals[self.offset[i + 1] - 1]).collect();
        let diag_scale = diag.iter().fold(0.0f64, |m, d| m.max(d.abs()));
        self.diag_scale = diag_scale;
        let threshold = pivot_tol * diag_scale.max(1e-300);
        let mut w = vec![0.0; n];
        let start = &self.start;
        let offset = &self.offset;
        for i in 0..n {
            let si = start[i];
            let (done, rest) = self.vals.split_at_mut(offset[i]);
            let row = &mut rest[..offset[i + 1] - offset[i]];
            let factored = |j: usize| &done[offset[j]..offset[j + 1]];
            let mut j = si;
            while j < i {
                if j + 4 <= i {
                    let chains = [0, 1, 2, 3].map(|c| Chain {
                        lo: si.max(start[j + c]),
                        start: start[j + c],
                        row: factored(j + c),
                    });
                    let shared = chains.iter().map(|c| c.lo).max().unwrap_or(j);
                    if shared <= j {
                        let init = [0, 1, 2, 3].map(|c| row[j + c - si]);
                        let l = column_block(&mut w, &diag, &chains, init, shared, j);
                        row[j - si..j - si + 4].copy_from_slice(&l);
                        j += 4;
                        continue;
                    }
                }
                // Single chain: a tail column, or a block one of whose
                // chains starts past `j`.
                let (sj, rj) = (start[j], factored(j));
                let lo = si.max(sj);
                let mut sum = row[j - si];
                for (wk, ljk) in w[lo..j].iter().zip(&rj[lo - sj..j - sj]) {
                    sum -= wk * ljk;
                }
                let lij = column_entry(sum, diag[j]);
                row[j - si] = lij;
                w[j] = lij * diag[j];
                j += 1;
            }
            let (lrow, dslot) = row.split_at_mut(i - si);
            let mut d = dslot[0];
            for (lik, dk) in lrow.iter().zip(&diag[si..i]) {
                d -= lik * lik * dk;
            }
            if d.abs() <= threshold {
                self.skipped[i] = true;
                d = 0.0;
            }
            dslot[0] = d;
            diag[i] = d;
        }
    }

    /// The system size.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Indices whose pivot was skipped (rank-deficient modes).
    pub fn skipped_modes(&self) -> Vec<usize> {
        self.skipped
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of skipped (annihilated) pivots.
    pub fn n_skipped(&self) -> usize {
        self.skipped.iter().filter(|&&s| s).count()
    }

    /// Largest diagonal magnitude of the factored matrix — the natural
    /// pivot-shift scale for [`SkylineLdlt::set_null_shift`].
    pub fn diag_scale(&self) -> f64 {
        self.diag_scale
    }

    /// Enables the pivot-shift fallback: subsequent solves substitute
    /// `delta` for each skipped pivot instead of annihilating its
    /// component, turning the pseudo-inverse `A⁺` into the *nonsingular*
    /// `A⁺ + δ⁻¹ Z Zᵀ` (with `Z = L⁻ᵀ e_skipped` spanning the detected
    /// near-null space). A singular preconditioner stalls Krylov methods on
    /// floating subdomains — their rigid modes are simply erased every
    /// application — while the shifted form passes them through at the
    /// stiffness scale and restores convergence. Pass `0.0` to return to
    /// pseudo-inverse solves; the consistency tests rely on that exactness.
    ///
    /// # Panics
    /// Panics on a negative or non-finite `delta`.
    pub fn set_null_shift(&mut self, delta: f64) {
        assert!(
            delta.is_finite() && delta >= 0.0,
            "SkylineLdlt::set_null_shift: delta must be finite and >= 0"
        );
        self.null_shift = delta;
    }

    /// Solves `L D Lᵀ x = b` in place. Components of skipped modes are
    /// zeroed (pseudo-inverse on the factorable complement) unless a
    /// pivot-shift fallback is armed via [`SkylineLdlt::set_null_shift`].
    /// Performs no heap allocation.
    ///
    /// # Panics
    /// Panics when `b.len() != dim()`.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n, "SkylineLdlt::solve_in_place: rhs length");
        // Forward: L y = b.
        for i in 0..self.n {
            let (si, l) = self.strict_row(i);
            let mut sum = b[i];
            for (lij, bj) in l.iter().zip(&b[si..i]) {
                sum -= lij * bj;
            }
            b[i] = sum;
        }
        // Diagonal: z = D⁻¹ y. Skipped modes are annihilated
        // (pseudo-inverse) or, under the pivot-shift fallback, divided by
        // the substitute pivot.
        for i in 0..self.n {
            let d = self.vals[self.offset[i + 1] - 1];
            b[i] = if self.skipped[i] || d == 0.0 {
                if self.null_shift > 0.0 {
                    b[i] / self.null_shift
                } else {
                    0.0
                }
            } else {
                b[i] / d
            };
        }
        // Backward: Lᵀ x = z (column sweep).
        for i in (0..self.n).rev() {
            let (si, l) = self.strict_row(i);
            let (head, tail) = b.split_at_mut(i);
            let xi = tail[0];
            for (bj, lij) in head[si..].iter_mut().zip(l) {
                *bj -= lij * xi;
            }
        }
    }

    /// The first column and the strictly lower entries `l_{i, start..i}` of
    /// factor row `i`.
    fn strict_row(&self, i: usize) -> (usize, &[f64]) {
        (
            self.start[i],
            &self.vals[self.offset[i]..self.offset[i + 1] - 1],
        )
    }

    /// Flops of one [`SkylineLdlt::solve_in_place`] (forward + diagonal +
    /// backward sweeps over the profile) — used by the virtual-time model.
    pub fn solve_flops(&self) -> u64 {
        let profile: u64 = (0..self.n).map(|i| (i - self.start[i]) as u64).sum();
        4 * profile + self.n as u64
    }
}

/// `l_ij` from its finished sum and the pivot `d_j`. A skipped pivot is
/// stored as exactly zero, so the zero test also covers skipped columns.
#[inline]
fn column_entry(sum: f64, dj: f64) -> f64 {
    if dj == 0.0 {
        0.0
    } else {
        sum / dj
    }
}

/// One column chain of a [`column_block`]: the factored row `j + c`, which
/// covers columns `start..`, and the first column `lo` both it and row `i`
/// store.
struct Chain<'a> {
    lo: usize,
    start: usize,
    row: &'a [f64],
}

/// Entries `l_{i,j..j+4}` of one factor row, from their input values
/// `init`. Each chain `c` subtracts its private prefix `[lo_c, shared)`,
/// then all four run the shared range `[shared, j)` in one fused loop, then
/// chain `c` adds its in-block terms `k = j..j+c` (whose `w[k]` the earlier
/// chains have just produced) and divides. Every chain thus subtracts in
/// ascending `k`, as the single-chain loop does. Requires `shared <= j`.
#[inline(always)]
fn column_block(
    w: &mut [f64],
    diag: &[f64],
    chains: &[Chain<'_>; 4],
    init: [f64; 4],
    shared: usize,
    j: usize,
) -> [f64; 4] {
    let mut sums = init;
    for (sum, ch) in sums.iter_mut().zip(chains) {
        for (wk, ljk) in w[ch.lo..shared].iter().zip(&ch.row[ch.lo - ch.start..]) {
            *sum -= wk * ljk;
        }
    }
    let [mut s0, mut s1, mut s2, mut s3] = sums;
    let len = j - shared;
    let ws = &w[shared..j];
    let [r0, r1, r2, r3] = chains
        .each_ref()
        .map(|ch| &ch.row[shared - ch.start..][..len]);
    for t in 0..len {
        let wk = ws[t];
        s0 -= wk * r0[t];
        s1 -= wk * r1[t];
        s2 -= wk * r2[t];
        s3 -= wk * r3[t];
    }
    let mut l = [0.0; 4];
    for (c, (sum, ch)) in [s0, s1, s2, s3].into_iter().zip(chains).enumerate() {
        let mut sum = sum;
        for k in j..j + c {
            sum -= w[k] * ch.row[k - ch.start];
        }
        l[c] = column_entry(sum, diag[j + c]);
        w[j + c] = l[c] * diag[j + c];
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::dense::solve_dense;

    fn spd_banded(n: usize) -> Vec<f64> {
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 4.0 + (i as f64) * 0.01;
            if i + 1 < n {
                a[i * n + i + 1] = -1.0;
                a[(i + 1) * n + i] = -1.0;
            }
        }
        a
    }

    #[test]
    fn matches_dense_lu_on_spd_tridiagonal() {
        let n = 12;
        let a = spd_banded(n);
        let f = SkylineLdlt::factor(&a, n, DEFAULT_PIVOT_TOL);
        assert_eq!(f.n_skipped(), 0);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        let want = solve_dense(n, &mut a.clone(), &b);
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-10, "{xi} vs {wi}");
        }
    }

    #[test]
    fn csr_and_dense_paths_agree_bit_for_bit() {
        let n = 8;
        let a = spd_banded(n);
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if a[i * n + j] != 0.0 {
                    coo.push(i, j, a[i * n + j]).unwrap();
                }
            }
        }
        let csr = coo.to_csr();
        let fd = SkylineLdlt::factor(&a, n, DEFAULT_PIVOT_TOL);
        let fs = SkylineLdlt::factor_csr(&csr, DEFAULT_PIVOT_TOL);
        let mut xd: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut xs = xd.clone();
        fd.solve_in_place(&mut xd);
        fs.solve_in_place(&mut xs);
        assert_eq!(xd, xs);
    }

    #[test]
    fn zero_row_is_skipped_not_fatal() {
        // Mode 1 is entirely zero (a fully-constrained part's coarse mode).
        let a = [2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0];
        let f = SkylineLdlt::factor(&a, 3, DEFAULT_PIVOT_TOL);
        assert_eq!(f.skipped_modes(), vec![1]);
        let mut x = vec![4.0, 5.0, 6.0];
        f.solve_in_place(&mut x);
        assert_eq!(x, vec![2.0, 0.0, 2.0]);
    }

    #[test]
    fn rank_deficient_dependent_rows_are_pivoted_out() {
        // Row 2 = row 0 (rank 2 matrix): the dependent pivot cancels to ~0
        // and must be skipped, leaving a consistent solve on the rest.
        let a = [
            2.0, 1.0, 2.0, //
            1.0, 3.0, 1.0, //
            2.0, 1.0, 2.0,
        ];
        let f = SkylineLdlt::factor(&a, 3, DEFAULT_PIVOT_TOL);
        assert_eq!(f.skipped_modes(), vec![2]);
        // b in the range: A [1, 1, 0]ᵀ = [3, 4, 3]ᵀ.
        let mut x = vec![3.0, 4.0, 3.0];
        f.solve_in_place(&mut x);
        // Check A x = b on the factorable components.
        let ax: Vec<f64> = (0..3)
            .map(|i| (0..3).map(|j| a[i * 3 + j] * x[j]).sum())
            .collect();
        for (got, want) in ax.iter().zip([3.0, 4.0, 3.0]) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn profile_solve_is_allocation_free_shape() {
        // Structural check: solve_flops reflects the banded profile, far
        // below the dense n² count.
        let n = 64;
        let f = SkylineLdlt::factor(&spd_banded(n), n, DEFAULT_PIVOT_TOL);
        assert!(f.solve_flops() < (n * n) as u64);
    }

    /// Entry `(i, j)` of the stored profile, zero left of it.
    fn at(f: &SkylineLdlt, i: usize, j: usize) -> f64 {
        if j < f.start[i] {
            0.0
        } else {
            f.vals[f.offset[i] + (j - f.start[i])]
        }
    }

    /// The textbook profile LDLᵀ the blocked kernel replaced: every read
    /// through `at()`, one subtract chain per entry. The bit-identity
    /// oracle for [`SkylineLdlt::factor_in_place`].
    fn reference_factor(mut f: SkylineLdlt, pivot_tol: f64) -> SkylineLdlt {
        let n = f.n;
        let mut diag_scale = 0.0f64;
        for i in 0..n {
            diag_scale = diag_scale.max(at(&f, i, i).abs());
        }
        f.diag_scale = diag_scale;
        let threshold = pivot_tol * diag_scale.max(1e-300);
        for i in 0..n {
            let si = f.start[i];
            for j in si..i {
                let lo = si.max(f.start[j]);
                let mut sum = at(&f, i, j);
                for k in lo..j {
                    let lik = at(&f, i, k);
                    let ljk = at(&f, j, k);
                    let dk = at(&f, k, k);
                    sum -= lik * dk * ljk;
                }
                let dj = at(&f, j, j);
                let lij = if f.skipped[j] || dj == 0.0 {
                    0.0
                } else {
                    sum / dj
                };
                f.vals[f.offset[i] + (j - si)] = lij;
            }
            let mut d = at(&f, i, i);
            for k in si..i {
                let lik = at(&f, i, k);
                d -= lik * lik * at(&f, k, k);
            }
            if d.abs() <= threshold {
                f.skipped[i] = true;
                d = 0.0;
            }
            f.vals[f.offset[i + 1] - 1] = d;
        }
        f
    }

    /// The `at()`-based triangular solves, the oracle for
    /// [`SkylineLdlt::solve_in_place`].
    fn reference_solve(f: &SkylineLdlt, b: &mut [f64]) {
        for i in 0..f.n {
            let mut sum = b[i];
            for j in f.start[i]..i {
                sum -= at(f, i, j) * b[j];
            }
            b[i] = sum;
        }
        for i in 0..f.n {
            let d = at(f, i, i);
            b[i] = if f.skipped[i] || d == 0.0 {
                if f.null_shift > 0.0 {
                    b[i] / f.null_shift
                } else {
                    0.0
                }
            } else {
                b[i] / d
            };
        }
        for i in (0..f.n).rev() {
            let xi = b[i];
            for j in f.start[i]..i {
                b[j] -= at(f, i, j) * xi;
            }
        }
    }

    /// Deterministic splitmix64 stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, m: usize) -> usize {
            (self.next() % m as u64) as usize
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Defect {
        None,
        /// A few rows and their columns zeroed: exact zero pivots.
        ZeroRows,
        /// A later row and column copied from an earlier one: a pivot that
        /// cancels to rounding level.
        DependentRows,
    }

    /// A dense symmetric matrix whose row `i` first couples at a random
    /// column (so row starts are non-monotone), diagonally dominant, with
    /// every fourth diagonal negated to make it indefinite, then `defect`.
    fn random_symmetric(n: usize, seed: u64, defect: Defect) -> Vec<f64> {
        let mut rng = Rng(seed);
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            let first = i - rng.below(i + 1);
            for j in first..i {
                if j == first || rng.below(3) != 0 {
                    let v = rng.unit();
                    a[i * n + j] = v;
                    a[j * n + i] = v;
                }
            }
        }
        for i in 0..n {
            let off: f64 = (0..n).filter(|&j| j != i).map(|j| a[i * n + j].abs()).sum();
            let d = 1.0 + off + rng.unit().abs();
            a[i * n + i] = if i % 4 == 3 { -d } else { d };
        }
        match defect {
            Defect::None => {}
            Defect::ZeroRows => {
                for _ in 0..n.div_ceil(8) {
                    let r = rng.below(n);
                    for j in 0..n {
                        a[r * n + j] = 0.0;
                        a[j * n + r] = 0.0;
                    }
                }
            }
            Defect::DependentRows if n >= 2 => {
                let s = 1 + rng.below(n - 1);
                let r = rng.below(s);
                for j in 0..n {
                    a[s * n + j] = a[r * n + j];
                }
                for j in 0..n {
                    a[j * n + s] = a[j * n + r];
                }
                a[s * n + s] = a[r * n + r];
            }
            Defect::DependentRows => {}
        }
        a
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Factors `a` with the kernel and with the oracle and asserts the
    /// factor values, the skipped set, the pivot scale and three solves —
    /// pseudo-inverse and null-shifted — agree bit for bit. Returns the
    /// kernel's factor.
    fn assert_matches_oracle(a: &[f64], n: usize, label: &str) -> SkylineLdlt {
        let unfactored = SkylineLdlt::dense_profile(a, n);
        let want = reference_factor(unfactored.clone(), DEFAULT_PIVOT_TOL);
        let mut got = unfactored;
        got.factor_in_place(DEFAULT_PIVOT_TOL);
        assert_eq!(bits(&got.vals), bits(&want.vals), "{label}: factor bits");
        assert_eq!(got.skipped, want.skipped, "{label}: skipped pivots");
        assert_eq!(
            got.diag_scale.to_bits(),
            want.diag_scale.to_bits(),
            "{label}"
        );
        let (mut got_shift, mut want_shift) = (got.clone(), want.clone());
        got_shift.set_null_shift(got.diag_scale());
        want_shift.set_null_shift(want.diag_scale());
        for rhs in 0..3 {
            let b: Vec<f64> = (0..n).map(|i| ((i * 7 + rhs * 13) as f64).sin()).collect();
            for (g, w, mode) in [
                (&got, &want, "pseudo"),
                (&got_shift, &want_shift, "shifted"),
            ] {
                let (mut x, mut y) = (b.clone(), b.clone());
                g.solve_in_place(&mut x);
                reference_solve(w, &mut y);
                assert_eq!(bits(&x), bits(&y), "{label}: {mode} solve {rhs}");
            }
        }
        got
    }

    #[test]
    fn blocked_kernel_matches_the_reference_loop_bit_for_bit() {
        let mut non_monotone = false;
        for n in [1, 2, 3, 4, 5, 7, 64] {
            for seed in 0..12u64 {
                for defect in [Defect::None, Defect::ZeroRows, Defect::DependentRows] {
                    let a = random_symmetric(n, seed * 31 + n as u64, defect);
                    let label = format!("n={n} seed={seed} {defect:?}");
                    let f = assert_matches_oracle(&a, n, &label);
                    non_monotone |= f.start.windows(2).any(|w| w[1] < w[0]);
                    if matches!(defect, Defect::ZeroRows) {
                        assert!(f.n_skipped() > 0, "{label}: zero rows must skip");
                    }
                    if matches!(defect, Defect::DependentRows) && n >= 2 {
                        assert!(f.n_skipped() > 0, "{label}: dependent row must skip");
                    }
                }
            }
        }
        assert!(
            non_monotone,
            "the random profiles must include non-monotone starts"
        );
    }

    #[test]
    fn block_with_a_chain_past_its_first_column_falls_back_bit_for_bit() {
        // Row 7 couples to every column, row 1 starts at itself: the first
        // four-column block of row 7 (columns 0..4) has chain 1 starting at
        // column 1, past the block's first column, so the kernel must take
        // the single-chain path there and the blocked path further right.
        let n = 8;
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 10.0 + i as f64;
        }
        let mut couple = |i: usize, j: usize, v: f64| {
            a[i * n + j] = v;
            a[j * n + i] = v;
        };
        for j in 0..7 {
            couple(7, j, 0.5 + 0.1 * j as f64);
        }
        couple(2, 0, -0.3);
        couple(3, 1, 0.7);
        couple(4, 2, -0.2);
        couple(5, 1, 0.4);
        couple(6, 3, 0.9);
        let f = assert_matches_oracle(&a, n, "fallback block");
        assert_eq!((f.start[1], f.start[7]), (1, 0));
    }
}
