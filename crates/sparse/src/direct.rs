//! A general sparse direct subdomain solver: fill-reducing ordering plus
//! the pivot-tolerant profile LDLᵀ of [`crate::skyline`].
//!
//! This is the exact subdomain solve the domain-decomposition layer
//! registers as the `direct` preconditioner — the comparator the sparse
//! direct-solver literature (PAPERS.md) demands next to any iterative DD
//! result. Subdomain stiffness matrices are symmetric but **not**
//! necessarily definite: a floating subdomain (no Dirichlet support)
//! carries the full rigid-body null space, which kills ILU(0) with a zero
//! pivot (paper Eq. 45). Here the near-null pivots are *skipped* instead,
//! yielding the pseudo-inverse on the factorable complement — an exact
//! solve on the regular part of the operator and a well-defined
//! preconditioner everywhere.
//!
//! The ordering is a deterministic reverse Cuthill–McKee: since the
//! factorization backend stores rows by *profile*, the fill-reducing
//! objective is profile/bandwidth minimization (what AMD does for general
//! sparse backends, RCM does for skyline ones). Ties are broken by the
//! smallest node index, and disconnected components are seeded in index
//! order, so the permutation — and therefore every factor bit — is
//! reproducible across runs and platforms.

use crate::csr::CsrMatrix;
use crate::skyline::SkylineLdlt;

/// A sparse symmetric matrix factored as `P A Pᵀ = L D Lᵀ` with a
/// fill-reducing permutation `P` and profile (skyline) storage.
#[derive(Debug, Clone)]
pub struct SparseDirect {
    /// `perm[new] = old`: position `new` of the reordered matrix holds
    /// original index `old`.
    perm: Vec<usize>,
    /// `iperm[old] = new`.
    iperm: Vec<usize>,
    factor: SkylineLdlt,
}

/// Deterministic reverse Cuthill–McKee ordering of a symmetric sparsity
/// pattern. Returns `perm` with `perm[new] = old`. Components are seeded
/// from their minimum-degree node (smallest index on ties) in index order;
/// neighbours are visited in `(degree, index)` order.
pub fn rcm_ordering(a: &CsrMatrix) -> Vec<usize> {
    let n = a.n_rows();
    // Symmetrized adjacency (exclude the diagonal).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        let (cols, _) = a.row(i);
        for &j in cols {
            if j != i {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for l in adj.iter_mut() {
        l.sort_unstable();
        l.dedup();
    }
    let degree: Vec<usize> = adj.iter().map(|l| l.len()).collect();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut nbrs: Vec<usize> = Vec::new();
    for seed0 in 0..n {
        if visited[seed0] {
            continue;
        }
        // Component seed: the minimum-degree unvisited node of the
        // component containing seed0 (found by a scouting BFS).
        let mut comp = vec![seed0];
        visited[seed0] = true;
        let mut head = 0;
        while head < comp.len() {
            let u = comp[head];
            head += 1;
            for &v in &adj[u] {
                if !visited[v] {
                    visited[v] = true;
                    comp.push(v);
                }
            }
        }
        let &seed = comp
            .iter()
            .min_by_key(|&&u| (degree[u], u))
            .expect("component is non-empty");
        for &u in &comp {
            visited[u] = false;
        }
        // Cuthill–McKee BFS from the seed.
        visited[seed] = true;
        let first = order.len();
        order.push(seed);
        let mut head = first;
        while head < order.len() {
            let u = order[head];
            head += 1;
            nbrs.clear();
            nbrs.extend(adj[u].iter().copied().filter(|&v| !visited[v]));
            nbrs.sort_unstable_by_key(|&v| (degree[v], v));
            for &v in &nbrs {
                visited[v] = true;
                order.push(v);
            }
        }
        // Reverse within the component (the "R" of RCM).
        order[first..].reverse();
    }
    order
}

/// The unfactored profile of `P A Pᵀ`: row `new` starts at the smallest
/// permuted column among its structural neighbours, and is filled by
/// scattering CSR row `perm[new]` through `iperm` — `O(nnz)` on top of the
/// zeroed profile.
fn permuted_profile(a: &CsrMatrix, perm: &[usize], iperm: &[usize]) -> SkylineLdlt {
    let start: Vec<usize> = perm
        .iter()
        .enumerate()
        .map(|(new, &old)| {
            let (cols, _) = a.row(old);
            cols.iter()
                .map(|&j| iperm[j])
                .filter(|&pj| pj <= new)
                .min()
                .unwrap_or(new)
        })
        .collect();
    let mut profile = SkylineLdlt::with_profile(start);
    for (new, &old) in perm.iter().enumerate() {
        let (cols, vals) = a.row(old);
        profile.scatter_row(
            new,
            cols.iter().map(|&j| iperm[j]).zip(vals.iter().copied()),
        );
    }
    profile
}

impl SparseDirect {
    /// Orders and factors a symmetric sparse matrix. Near-zero pivots
    /// (relative to the largest diagonal magnitude, see
    /// [`crate::skyline::DEFAULT_PIVOT_TOL`]) are skipped, so singular
    /// floating-subdomain matrices factor into a pseudo-inverse instead of
    /// failing.
    ///
    /// # Panics
    /// Panics on a non-square input.
    pub fn factorize(a: &CsrMatrix, pivot_tol: f64) -> Self {
        let n = a.n_rows();
        assert_eq!(n, a.n_cols(), "SparseDirect::factorize: square input");
        let perm = rcm_ordering(a);
        let mut iperm = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            iperm[old] = new;
        }
        let mut factor = permuted_profile(a, &perm, &iperm);
        factor.factor_in_place(pivot_tol);
        SparseDirect {
            perm,
            iperm,
            factor,
        }
    }

    /// The system size.
    pub fn dim(&self) -> usize {
        self.factor.dim()
    }

    /// Number of skipped (near-null) pivots — the detected rank deficiency.
    pub fn n_skipped(&self) -> usize {
        self.factor.n_skipped()
    }

    /// Largest diagonal magnitude of the factored matrix — the natural
    /// scale for [`SparseDirect::set_null_shift`].
    pub fn diag_scale(&self) -> f64 {
        self.factor.diag_scale()
    }

    /// Arms the pivot-shift fallback (see [`SkylineLdlt::set_null_shift`]):
    /// solves substitute `delta` for skipped pivots instead of annihilating
    /// their components, making the operator nonsingular — what a Krylov
    /// *preconditioner* over floating subdomains needs, where the exact
    /// pseudo-inverse (`delta = 0`, the default) erases the rigid modes
    /// every application and stalls.
    ///
    /// # Panics
    /// Panics on a negative or non-finite `delta`.
    pub fn set_null_shift(&mut self, delta: f64) {
        self.factor.set_null_shift(delta);
    }

    /// The fill-reducing permutation, `perm[new] = old`.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Solves `A x = b` in place (pseudo-inverse on the factorable
    /// complement when pivots were skipped), using `scratch` for the
    /// permuted right-hand side — no allocation.
    ///
    /// # Panics
    /// Panics when `b` or `scratch` does not match [`SparseDirect::dim`].
    pub fn solve_in_place_with(&self, b: &mut [f64], scratch: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "SparseDirect::solve_in_place_with: rhs length");
        assert_eq!(
            scratch.len(),
            n,
            "SparseDirect::solve_in_place_with: scratch length"
        );
        for new in 0..n {
            scratch[new] = b[self.perm[new]];
        }
        self.factor.solve_in_place(scratch);
        for old in 0..n {
            b[old] = scratch[self.iperm[old]];
        }
    }

    /// Allocating convenience wrapper around
    /// [`SparseDirect::solve_in_place_with`].
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let mut scratch = vec![0.0; self.dim()];
        self.solve_in_place_with(b, &mut scratch);
    }

    /// Flops of one solve (both permutation sweeps cost no flops).
    pub fn solve_flops(&self) -> u64 {
        self.factor.solve_flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::dense::solve_dense;
    use crate::skyline::DEFAULT_PIVOT_TOL;

    /// 5-point grid Laplacian with Dirichlet-eliminated boundary (SPD).
    fn grid_laplacian(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let mut coo = CooMatrix::new(n, n);
        for j in 0..ny {
            for i in 0..nx {
                let r = j * nx + i;
                coo.push(r, r, 4.0).unwrap();
                if i + 1 < nx {
                    coo.push(r, r + 1, -1.0).unwrap();
                    coo.push(r + 1, r, -1.0).unwrap();
                }
                if j + 1 < ny {
                    coo.push(r, r + nx, -1.0).unwrap();
                    coo.push(r + nx, r, -1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn matches_dense_lu_on_grid_laplacian() {
        let a = grid_laplacian(5, 4);
        let n = a.n_rows();
        let f = SparseDirect::factorize(&a, DEFAULT_PIVOT_TOL);
        assert_eq!(f.n_skipped(), 0);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        let want = solve_dense(n, &mut a.to_dense(), &b);
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-12, "{xi} vs {wi}");
        }
    }

    #[test]
    fn rcm_is_a_permutation_and_deterministic() {
        let a = grid_laplacian(6, 3);
        let p1 = rcm_ordering(&a);
        let p2 = rcm_ordering(&a);
        assert_eq!(p1, p2);
        let mut seen = p1.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..a.n_rows()).collect::<Vec<_>>());
    }

    #[test]
    fn ordering_shrinks_the_profile_on_a_wide_grid() {
        // Natural row-major ordering of a tall-narrow grid numbered along
        // the long axis has bandwidth nx; RCM renumbers across the short
        // axis. Compare profile flops against the unpermuted skyline.
        let a = grid_laplacian(24, 3);
        let natural = SkylineLdlt::factor_csr(&a, DEFAULT_PIVOT_TOL);
        let ordered = SparseDirect::factorize(&a, DEFAULT_PIVOT_TOL);
        assert!(
            ordered.solve_flops() < natural.solve_flops(),
            "ordered {} vs natural {}",
            ordered.solve_flops(),
            natural.solve_flops()
        );
    }

    #[test]
    fn singular_matrix_gets_a_consistent_pseudo_solve() {
        // A graph Laplacian (no Dirichlet row) is singular with the
        // constant null vector; the solve must still satisfy A x = b for b
        // in the range.
        let n = 6;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let next = (i + 1) % n;
            coo.push(i, i, 2.0).unwrap();
            coo.push(i, next, -1.0).unwrap();
            coo.push(next, i, -1.0).unwrap();
        }
        let a = coo.to_csr();
        let f = SparseDirect::factorize(&a, DEFAULT_PIVOT_TOL);
        assert_eq!(f.n_skipped(), 1);
        // b = A y for y = (0, 1, 2, 0, 1, 2) is in the range.
        let y: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let b = a.spmv(&y);
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        let ax = a.spmv(&x);
        for (got, want) in ax.iter().zip(&b) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn disconnected_components_are_all_ordered() {
        // Two disjoint chains plus an isolated node.
        let n = 7;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        for &(i, j) in &[(0, 1), (1, 2), (4, 5), (5, 6)] {
            coo.push(i, j, -1.0).unwrap();
            coo.push(j, i, -1.0).unwrap();
        }
        let a = coo.to_csr();
        let f = SparseDirect::factorize(&a, DEFAULT_PIVOT_TOL);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        let want = solve_dense(n, &mut a.to_dense(), &b);
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-12);
        }
    }

    #[test]
    fn scratch_solve_matches_allocating_solve() {
        let a = grid_laplacian(4, 4);
        let f = SparseDirect::factorize(&a, DEFAULT_PIVOT_TOL);
        let b: Vec<f64> = (0..a.n_rows()).map(|i| (i as f64).sin()).collect();
        let mut x1 = b.clone();
        f.solve_in_place(&mut x1);
        let mut x2 = b;
        let mut scratch = vec![0.0; f.dim()];
        f.solve_in_place_with(&mut x2, &mut scratch);
        assert_eq!(x1, x2);
    }

    /// Plane-stress bilinear-quad elasticity stiffness of an `nx × ny`
    /// grid of unit squares (E = 1, ν = 0.3, 2×2 Gauss), two dofs per
    /// node, no supports — the shape of an assembled floating subdomain.
    fn quad4_elasticity(nx: usize, ny: usize) -> CsrMatrix {
        let nu = 0.3;
        let c = 1.0 / (1.0 - nu * nu);
        let d = [
            [c, c * nu, 0.0],
            [c * nu, c, 0.0],
            [0.0, 0.0, c * (1.0 - nu) / 2.0],
        ];
        let corners = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)];
        let g = 1.0 / 3f64.sqrt();
        let mut ke = [[0.0; 8]; 8];
        for (xi, eta) in [(-g, -g), (g, -g), (g, g), (-g, g)] {
            // dN/dx = 2 dN/dξ on a unit square; det J = 1/4.
            let mut b = [[0.0; 8]; 3];
            for (a, &(xa, ya)) in corners.iter().enumerate() {
                let dx = 0.5 * xa * (1.0 + ya * eta);
                let dy = 0.5 * ya * (1.0 + xa * xi);
                b[0][2 * a] = dx;
                b[1][2 * a + 1] = dy;
                b[2][2 * a] = dy;
                b[2][2 * a + 1] = dx;
            }
            for p in 0..8 {
                for q in 0..8 {
                    let mut sum = 0.0;
                    for r in 0..3 {
                        for t in 0..3 {
                            sum += b[r][p] * d[r][t] * b[t][q];
                        }
                    }
                    ke[p][q] += 0.25 * sum;
                }
            }
        }
        let node = |i: usize, j: usize| j * (nx + 1) + i;
        let n = 2 * (nx + 1) * (ny + 1);
        let mut coo = CooMatrix::new(n, n);
        for ey in 0..ny {
            for ex in 0..nx {
                let nodes = [
                    node(ex, ey),
                    node(ex + 1, ey),
                    node(ex + 1, ey + 1),
                    node(ex, ey + 1),
                ];
                let dofs: Vec<usize> = nodes.iter().flat_map(|&v| [2 * v, 2 * v + 1]).collect();
                for p in 0..8 {
                    for q in 0..8 {
                        coo.push(dofs[p], dofs[q], ke[p][q]).unwrap();
                    }
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn scatter_fill_matches_the_lookup_fill_on_elasticity() {
        let a = quad4_elasticity(9, 4);
        let n = a.n_rows();
        let perm = rcm_ordering(&a);
        let mut iperm = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            iperm[old] = new;
        }
        let scattered = permuted_profile(&a, &perm, &iperm);
        let (start, vals) = scattered.profile();
        // The fill the scatter replaced: one binary search per profile
        // entry, row by row.
        let mut looked_up = Vec::with_capacity(vals.len());
        for (i, &si) in start.iter().enumerate() {
            looked_up.extend((si..=i).map(|j| a.get(perm[i], perm[j])));
        }
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(vals), bits(&looked_up));
        assert!(
            vals.len() > a.nnz() / 2,
            "profile covers the lower triangle"
        );
        // Unsupported plane elasticity: the three rigid-body pivots skip.
        assert_eq!(
            SparseDirect::factorize(&a, DEFAULT_PIVOT_TOL).n_skipped(),
            3
        );
    }
}
