//! Two-level preconditioning: a per-subdomain coarse space composed with
//! the polynomial smoothers.
//!
//! One-level polynomial preconditioners act locally — information moves one
//! subdomain per application, so FGMRES iteration counts grow with the part
//! count `P`. The classical fix (Nicolaides coarse spaces; the FETI-DP and
//! GenEO families; the low-rank Schur corrections of Li & Saad,
//! arXiv:1505.04341) is a **coarse space**: a few vectors per part spanning
//! the near-null space of the operator, with a direct solve on the Galerkin
//! coarse operator `A_c = Zᵀ A Z` propagating global information every
//! application. This module provides:
//!
//! - [`CoarseSpec`] — which per-part modes to use: partition-of-unity
//!   constants ([`CoarseSpec::Const`]), rigid-body modes
//!   ([`CoarseSpec::Rbm`]), or eigenvalue-selected low-rank local modes
//!   ([`CoarseSpec::LowRank`]),
//! - [`build_coarse_basis`] — deterministic construction of the global
//!   coarse basis `Ẑ` (in post-scaling space) and the factored Galerkin
//!   operator, from plain per-part geometry slices (no mesh dependency),
//! - [`CoarseSolver`] — the runtime object: sparse restriction
//!   `y = Ẑᵀ v`, a cross-rank [`CoarseReduce::coarse_reduce`] sum, a
//!   redundant skyline-LDLᵀ solve, and sparse prolongation `z += Ẑ y`,
//!   allocation-free after construction,
//! - [`TwoLevelPrecond`] — the composition `z = M_s v + Ẑ A_c⁻¹ Ẑᵀ v`
//!   (additive) or `z_c = Ẑ A_c⁻¹ Ẑᵀ v; z = z_c + M_s (v − A z_c)`
//!   (multiplicative) around any existing smoother,
//! - [`SpecPrecond`] — the registry's concrete built form covering both
//!   one-level and two-level specs.
//!
//! ## Scaled-space convention
//!
//! The solvers work on the norm-1 scaled operator `A = D K D` with
//! `D = diag(d)`. A geometric near-null vector `z` of `K` (e.g. a rigid
//! body mode) maps to `Ẑ = D⁻¹ z`, i.e. `Ẑ[g] = z[g] / d[g]`, and the
//! Galerkin operator `Ẑᵀ A Ẑ = zᵀ K z` is exactly the unscaled one — so
//! building in scaled space loses nothing.
//!
//! ## Determinism
//!
//! Mode numbering is `part · modes_per_part + k`, entry lists are sorted,
//! the coarse reduce is the deterministic tree sum every rank already uses
//! for dot products, and the redundant coarse solve runs bit-identically on
//! every rank — so interface values of the prolonged correction agree bit
//! for bit across ranks, preserving every existing bit-identity invariant.

use crate::registry::BuiltPrecond;
use crate::{InterfaceConsistency, Preconditioner};
use parfem_sparse::dense::{norm2, sym_eigen_jacobi};
use parfem_sparse::skyline::SkylineLdlt;
use parfem_sparse::{CooMatrix, CsrMatrix, LinearOperator};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Which coarse space a two-level preconditioner uses, per part.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoarseSpec {
    /// Partition-of-unity constants: one mode per displacement component
    /// per part (a scalar problem gets one, 2-D elasticity two).
    Const,
    /// Rigid-body modes: the translations of [`CoarseSpec::Const`] plus the
    /// part-centered rotations — the single in-plane rotation
    /// `(−(y − ȳ_p), x − x̄_p)` for 2-component problems, the three axis
    /// rotations for 3-component problems (`d(d+1)/2` modes per part in
    /// total). Falls back to [`CoarseSpec::Const`] on scalar (1-component)
    /// problems, where no rotation exists.
    Rbm,
    /// The `k` lowest eigenvectors of each part's principal submatrix of
    /// the scaled operator, partition-of-unity weighted — the
    /// eigenvalue-selected low-rank correction in the style of Li & Saad.
    LowRank(usize),
    /// A base coarse space whose modes get `k` damped-Jacobi smoothing
    /// passes `ẑ ← (I − ω D_A⁻¹ A) ẑ` before the Galerkin assembly — the
    /// smoothed-aggregation prolongator of Vaněk, Mandel & Brezina. The
    /// damping `ω = 4/(3 λ̂)` uses a deterministic power-iteration estimate
    /// `λ̂ ≈ λ_max(D_A⁻¹ A)`. Plain aggregation modes keep elasticity
    /// iteration counts growing slowly with the part count; smoothing the
    /// prolongator is what flattens them (token: `<base>.sK`, e.g.
    /// `rbm.s3`). The inner spec is never itself `Smoothed`.
    Smoothed(Box<CoarseSpec>, usize),
}

impl CoarseSpec {
    /// The CLI token: `const`, `rbm`, `lowrank-K`, each optionally
    /// suffixed `.sK` for `K` prolongator-smoothing passes.
    pub fn token(&self) -> String {
        match self {
            CoarseSpec::Const => "const".into(),
            CoarseSpec::Rbm => "rbm".into(),
            CoarseSpec::LowRank(k) => format!("lowrank-{k}"),
            CoarseSpec::Smoothed(base, k) => format!("{}.s{k}", base.token()),
        }
    }

    /// Parses a CLI token; `None` for anything outside the grammar
    /// (the registry wraps this in its typed error).
    pub fn parse(tok: &str) -> Option<CoarseSpec> {
        if let Some((base_tok, s)) = tok.split_once(".s") {
            let passes: usize = s.parse().ok()?;
            let base = CoarseSpec::parse(base_tok)?;
            return if passes == 0 || matches!(base, CoarseSpec::Smoothed(..)) {
                None
            } else {
                Some(CoarseSpec::Smoothed(Box::new(base), passes))
            };
        }
        match tok {
            "const" => Some(CoarseSpec::Const),
            "rbm" => Some(CoarseSpec::Rbm),
            _ => {
                let k: usize = tok.strip_prefix("lowrank-")?.parse().ok()?;
                if k == 0 {
                    None
                } else {
                    Some(CoarseSpec::LowRank(k))
                }
            }
        }
    }

    /// Modes per part for a problem with `n_comp` displacement components.
    pub fn modes_per_part(&self, n_comp: usize) -> usize {
        match self {
            CoarseSpec::Const => n_comp,
            // Translations plus rotations: d(d+1)/2 rigid modes in d
            // dimensions (1 scalar, 3 in 2-D, 6 in 3-D).
            CoarseSpec::Rbm => n_comp * (n_comp + 1) / 2,
            CoarseSpec::LowRank(k) => *k,
            CoarseSpec::Smoothed(base, _) => base.modes_per_part(n_comp),
        }
    }

    /// The underlying mode family, with any smoothing wrapper stripped.
    pub fn base(&self) -> &CoarseSpec {
        match self {
            CoarseSpec::Smoothed(base, _) => base,
            other => other,
        }
    }

    /// Number of prolongator-smoothing passes (0 for unsmoothed specs).
    pub fn smoothing_passes(&self) -> usize {
        match self {
            CoarseSpec::Smoothed(_, k) => *k,
            _ => 0,
        }
    }
}

impl fmt::Display for CoarseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.token())
    }
}

/// How the coarse correction composes with the smoother.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Composition {
    /// `z = z_c + M_s (v − A z_c)`: coarse first, smoother on the coarse
    /// residual. One extra operator application per preconditioner apply;
    /// the default, and the stronger composition.
    Multiplicative,
    /// `z = M_s v + Ẑ A_c⁻¹ Ẑᵀ v`: both corrections from the same input.
    /// No extra operator application.
    Additive,
}

/// The cross-rank hook the coarse solve needs from an operator: summing the
/// per-rank partial restriction into the (replicated) global coarse
/// right-hand side.
///
/// Sequential operators are already coherent — [`CsrMatrix`]'s impl is a
/// no-op. Distributed operators implement this with the same deterministic
/// tree `allreduce` their dot products use, so the reduced vector is
/// bit-identical on every rank and the redundant coarse solves stay in
/// lock step.
pub trait CoarseReduce {
    /// Sums `buf` element-wise across all ranks, leaving the identical
    /// total on every rank. No-op for sequential operators.
    fn coarse_reduce(&self, buf: &mut [f64]);

    /// Accounts `flops` of purely local coarse-solve work to the
    /// operator's virtual-time model. No-op by default.
    fn coarse_work(&self, flops: u64) {
        let _ = flops;
    }
}

impl CoarseReduce for CsrMatrix {
    fn coarse_reduce(&self, _buf: &mut [f64]) {}
}

/// Geometry of one part, in plain slices so any consumer (mesh pipeline,
/// raw-systems pipeline, test fixture) can describe its partition without
/// this crate depending on the mesh layer. All four vectors run over the
/// same entries: the part's global dofs.
#[derive(Debug, Clone, Default)]
pub struct CoarsePartGeometry {
    /// Global dof ids of this part, ascending.
    pub dofs: Vec<usize>,
    /// Node position of each dof (`z = 0` for 2-D problems).
    pub pos: Vec<[f64; 3]>,
    /// Displacement component of each dof (`0` = x, `1` = y, `2` = z; all
    /// `0` for scalar problems).
    pub comp: Vec<usize>,
    /// Whether each dof carries a Dirichlet constraint (coarse modes are
    /// zeroed there so corrections never perturb constrained values).
    pub constrained: Vec<bool>,
}

/// A built global coarse basis: the scaled-space modes `Ẑ` and the factored
/// Galerkin operator `A_c = Ẑᵀ A Ẑ`.
#[derive(Debug, Clone)]
pub struct CoarseBasis {
    /// Mode `m`'s sparse column: sorted `(global dof, Ẑ[dof, m])` pairs.
    /// Mode numbering is `part · modes_per_part + k`, with empty columns
    /// kept (the skyline factorization pivots them out) so numbering never
    /// depends on which parts happen to be constrained away.
    pub modes: Vec<Vec<(usize, f64)>>,
    /// Owning part of each mode.
    pub part_of_mode: Vec<usize>,
    /// The factored Galerkin coarse operator, shared by every rank's
    /// [`CoarseSolver`].
    pub factor: Arc<SkylineLdlt>,
}

impl CoarseBasis {
    /// Number of coarse modes (including pivoted-out empty ones).
    pub fn n_modes(&self) -> usize {
        self.modes.len()
    }

    /// Builds the sequential [`CoarseSolver`] over the global dof space:
    /// restriction and prolongation are the exact transpose pair
    /// `R = Ẑᵀ`, entry list for entry list.
    pub fn solver(&self) -> CoarseSolver {
        let mut restrict = Vec::new();
        for (m, col) in self.modes.iter().enumerate() {
            for &(g, v) in col {
                restrict.push((g, m, v));
            }
        }
        let mut prolong = restrict.clone();
        prolong.sort_by_key(|&(g, m, _)| (g, m));
        CoarseSolver::new(self.n_modes(), restrict, prolong, Arc::clone(&self.factor))
    }
}

/// Builds the global coarse basis and its factored Galerkin operator.
///
/// Inputs: per-part geometry, the global dof multiplicity `mult` (how many
/// parts share each dof — the partition-of-unity denominator; `1.0`
/// everywhere for disjoint row partitions), the scaling diagonal `d` of
/// `A = D K D`, and the scaled assembled operator `a_scaled` itself.
///
/// Deterministic: fixed mode numbering, sorted entry lists, sequential
/// Galerkin assembly in ascending mode order. Rank-deficient mode blocks
/// (fully-constrained parts, 1-element parts, duplicated modes) survive —
/// the skyline factorization pivots them out rather than failing, which is
/// exactly where ILU(0) broke down on floating subdomains (the paper's
/// Eq. 45 path).
///
/// # Panics
/// Panics when a part's geometry vectors disagree in length or a dof index
/// is out of range of `mult`/`d`/`a_scaled`.
pub fn build_coarse_basis(
    spec: &CoarseSpec,
    parts: &[CoarsePartGeometry],
    mult: &[f64],
    d: &[f64],
    a_scaled: &CsrMatrix,
    pivot_tol: f64,
) -> CoarseBasis {
    let n_comp = parts
        .iter()
        .flat_map(|p| p.comp.iter().copied())
        .max()
        .map_or(1, |c| c + 1);
    let mpp = spec.modes_per_part(n_comp);
    let n_modes = mpp * parts.len();
    let mut modes: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_modes];
    let mut part_of_mode = vec![0usize; n_modes];
    for (p, geo) in parts.iter().enumerate() {
        assert_eq!(geo.dofs.len(), geo.pos.len(), "part {p}: pos length");
        assert_eq!(geo.dofs.len(), geo.comp.len(), "part {p}: comp length");
        assert_eq!(
            geo.dofs.len(),
            geo.constrained.len(),
            "part {p}: constrained length"
        );
        for k in 0..mpp {
            part_of_mode[p * mpp + k] = p;
        }
        match spec.base() {
            CoarseSpec::Const | CoarseSpec::Rbm => {
                geometric_modes(spec.base(), p, geo, mult, d, mpp, n_comp, &mut modes)
            }
            CoarseSpec::LowRank(k) => lowrank_modes(p, geo, mult, a_scaled, *k, &mut modes),
            CoarseSpec::Smoothed(..) => unreachable!("base() strips smoothing"),
        }
    }
    if spec.smoothing_passes() > 0 {
        smooth_prolongator(&mut modes, a_scaled, spec.smoothing_passes());
    }
    for col in &mut modes {
        col.sort_by_key(|&(g, _)| g);
    }
    let a_c = galerkin_matrix(a_scaled, &modes);
    let factor = Arc::new(SkylineLdlt::factor_csr(&a_c, pivot_tol));
    CoarseBasis {
        modes,
        part_of_mode,
        factor,
    }
}

/// Partition-of-unity translations (and, for [`CoarseSpec::Rbm`], the
/// centered rotations) of one part, transformed to scaled space:
/// `Ẑ[g] = geom(g) / (mult[g] · d[g])`.
#[allow(clippy::too_many_arguments)]
fn geometric_modes(
    spec: &CoarseSpec,
    p: usize,
    geo: &CoarsePartGeometry,
    mult: &[f64],
    d: &[f64],
    mpp: usize,
    n_comp: usize,
    modes: &mut [Vec<(usize, f64)>],
) {
    let n = geo.dofs.len();
    // Per-part centroid over all entries (constrained included — fixed,
    // purely geometric, deterministic).
    let (mut cx, mut cy, mut cz) = (0.0, 0.0, 0.0);
    for q in &geo.pos {
        cx += q[0];
        cy += q[1];
        cz += q[2];
    }
    if n > 0 {
        cx /= n as f64;
        cy /= n as f64;
        cz /= n as f64;
    }
    for e in 0..n {
        if geo.constrained[e] {
            continue;
        }
        let g = geo.dofs[e];
        let w = 1.0 / (mult[g] * d[g]);
        let c = geo.comp[e];
        // Translation mode of this dof's component.
        modes[p * mpp + c].push((g, w));
        if matches!(spec, CoarseSpec::Rbm) && n_comp >= 2 {
            // Rotation about e_z: (−(y − ȳ), x − x̄, 0) — the single 2-D
            // rotation, kept in the historical mode slot.
            let rot_z = match c {
                0 => -(geo.pos[e][1] - cy),
                1 => geo.pos[e][0] - cx,
                _ => 0.0,
            };
            if rot_z != 0.0 {
                modes[p * mpp + n_comp].push((g, rot_z * w));
            }
            if n_comp >= 3 {
                // Rotations about e_x: (0, −(z − z̄), y − ȳ) and
                // e_y: (z − z̄, 0, −(x − x̄)).
                let rot_x = match c {
                    1 => -(geo.pos[e][2] - cz),
                    2 => geo.pos[e][1] - cy,
                    _ => 0.0,
                };
                let rot_y = match c {
                    0 => geo.pos[e][2] - cz,
                    2 => -(geo.pos[e][0] - cx),
                    _ => 0.0,
                };
                if rot_x != 0.0 {
                    modes[p * mpp + n_comp + 1].push((g, rot_x * w));
                }
                if rot_y != 0.0 {
                    modes[p * mpp + n_comp + 2].push((g, rot_y * w));
                }
            }
        }
    }
}

/// The `k` lowest eigenvectors of the part's unconstrained principal block
/// of the scaled operator, partition-of-unity weighted (`Ẑ[g] = v[g] /
/// mult[g]`; no `d` division — the eigenproblem already lives in scaled
/// space). Parts smaller than `k` keep empty trailing modes, pivoted out
/// by the coarse factorization.
fn lowrank_modes(
    p: usize,
    geo: &CoarsePartGeometry,
    mult: &[f64],
    a_scaled: &CsrMatrix,
    k: usize,
    modes: &mut [Vec<(usize, f64)>],
) {
    let free: Vec<usize> = (0..geo.dofs.len())
        .filter(|&e| !geo.constrained[e])
        .collect();
    let n = free.len();
    if n == 0 {
        return;
    }
    let mut block = vec![0.0; n * n];
    for (i, &ei) in free.iter().enumerate() {
        for (j, &ej) in free.iter().enumerate() {
            block[i * n + j] = a_scaled.get(geo.dofs[ei], geo.dofs[ej]);
        }
    }
    let (_vals, vecs) = sym_eigen_jacobi(n, &block);
    for m in 0..k.min(n) {
        let col = &mut modes[p * k + m];
        for (i, &ei) in free.iter().enumerate() {
            let g = geo.dofs[ei];
            let v = vecs[m * n + i] / mult[g];
            if v != 0.0 {
                col.push((g, v));
            }
        }
    }
}

/// Applies `passes` damped-Jacobi smoothing steps `ẑ ← (I − ω D_A⁻¹ A) ẑ`
/// to every coarse mode (the smoothed-aggregation prolongator). Each pass
/// widens a mode's support by one stencil layer, which is exactly what
/// repairs the energy boundedness plain aggregation lacks on elasticity.
///
/// The damping is the standard `ω = 4/(3 λ̂)` with `λ̂` a power-iteration
/// estimate of `λ_max(D_A⁻¹ A)` from a fixed start vector — deterministic,
/// and accurate enough that overshoot (which would *amplify* the high end)
/// cannot happen for the mild spectra produced by norm-1 scaling.
///
/// Cost: per mode and pass, one row walk over the frontier (the rows the
/// previous pass added — the neighbours of older rows are already in the
/// support) plus one row dot product per support row, i.e. O(footprint ×
/// stencil width), and one sort of the final support. Each `y_r` is the
/// same sequential CSR row sum and each `z_r` update is independent of the
/// others, so the result does not depend on the order rows are visited.
fn smooth_prolongator(modes: &mut [Vec<(usize, f64)>], a_scaled: &CsrMatrix, passes: usize) {
    let n = a_scaled.n_rows();
    let inv_diag = inverse_diagonal(a_scaled);
    let omega = smoothing_damping(a_scaled, &inv_diag);
    // Dense mode values `z`, a membership marker and the support list are
    // shared by all modes and reset over the support after each one.
    let mut z = vec![0.0; n];
    let mut in_supp = vec![false; n];
    let mut supp: Vec<usize> = Vec::new();
    let mut y: Vec<f64> = Vec::new();
    for col in modes.iter_mut() {
        if col.is_empty() {
            continue;
        }
        for &(g, val) in col.iter() {
            if !in_supp[g] {
                in_supp[g] = true;
                supp.push(g);
            }
            z[g] = val;
        }
        let mut frontier = 0;
        for _ in 0..passes {
            let old_len = supp.len();
            for k in frontier..old_len {
                let (cols, _) = a_scaled.row(supp[k]);
                for &j in cols {
                    if !in_supp[j] {
                        in_supp[j] = true;
                        supp.push(j);
                    }
                }
            }
            frontier = old_len;
            y.clear();
            for &r in &supp {
                let (cols, vals) = a_scaled.row(r);
                let mut acc = 0.0;
                for (&j, &a_rj) in cols.iter().zip(vals) {
                    acc += a_rj * z[j];
                }
                y.push(acc);
            }
            for (&r, &yr) in supp.iter().zip(&y) {
                z[r] -= omega * yr * inv_diag[r];
            }
        }
        supp.sort_unstable();
        col.clear();
        for &g in &supp {
            if z[g] != 0.0 {
                col.push((g, z[g]));
            }
            z[g] = 0.0;
            in_supp[g] = false;
        }
        supp.clear();
    }
}

/// `D_A⁻¹` of the smoothing step, with zero where the diagonal is zero.
fn inverse_diagonal(a: &CsrMatrix) -> Vec<f64> {
    a.diagonal()
        .iter()
        .map(|&q| if q != 0.0 { 1.0 / q } else { 0.0 })
        .collect()
}

/// The smoothing damping `ω = 4/(3 λ̂)`, with `λ̂ ≈ λ_max(D_A⁻¹ A)` from 12
/// power-iteration steps on the diagonally preconditioned operator, started
/// from the all-ones vector (two reused buffers, no per-step allocation).
fn smoothing_damping(a: &CsrMatrix, inv_diag: &[f64]) -> f64 {
    let n = a.n_rows();
    let mut v = vec![1.0; n];
    let mut w = vec![0.0; n];
    let mut lambda = 1.0;
    for _ in 0..12 {
        a.spmv_into(&v, &mut w);
        for (wi, &qi) in w.iter_mut().zip(inv_diag) {
            *wi *= qi;
        }
        let norm = norm2(&w);
        if norm <= 0.0 {
            break;
        }
        lambda = norm / norm2(&v).max(f64::MIN_POSITIVE);
        let inv = 1.0 / norm;
        for (vi, wi) in v.iter_mut().zip(&w) {
            *vi = wi * inv;
        }
    }
    4.0 / (3.0 * lambda.max(f64::MIN_POSITIVE))
}

/// Assembles the Galerkin coarse operator `A_c = Ẑᵀ A Ẑ` as a sparse
/// symmetric matrix, without ever materializing a dense `n_modes²` block:
/// for each mode, `y = A ẑ_m` is scattered through the touched rows, and
/// only modes sharing support (found through a dof → modes incidence list)
/// receive entries. The lower triangle is computed and mirrored exactly,
/// so the result is symmetric bit for bit.
pub fn galerkin_matrix(a: &CsrMatrix, modes: &[Vec<(usize, f64)>]) -> CsrMatrix {
    let n = a.n_rows();
    let n_m = modes.len();
    let mut incidence: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (m, col) in modes.iter().enumerate() {
        for &(g, _) in col {
            incidence[g].push(m as u32);
        }
    }
    let mut y = vec![0.0; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut seen = vec![false; n_m];
    let mut coo = CooMatrix::new(n_m, n_m);
    for m in 0..n_m {
        // y = A ẑ_m over the structurally reachable rows.
        for &(c, v) in &modes[m] {
            let (cols, vals) = a.row(c);
            for (j, &col) in cols.iter().enumerate() {
                if y[col] == 0.0 {
                    touched.push(col);
                }
                y[col] += vals[j] * v;
            }
        }
        // Candidate partners: modes incident to a touched row, m2 ≤ m.
        let mut partners: Vec<u32> = Vec::new();
        for &t in &touched {
            for &m2 in &incidence[t] {
                if (m2 as usize) <= m && !seen[m2 as usize] {
                    seen[m2 as usize] = true;
                    partners.push(m2);
                }
            }
        }
        partners.sort_unstable();
        for &m2 in &partners {
            seen[m2 as usize] = false;
            let mut acc = 0.0;
            for &(g, v) in &modes[m2 as usize] {
                acc += v * y[g];
            }
            coo.push(m, m2 as usize, acc)
                .expect("coarse entry in range");
            if (m2 as usize) != m {
                coo.push(m2 as usize, m, acc)
                    .expect("coarse entry in range");
            }
        }
        for &t in &touched {
            y[t] = 0.0;
        }
        touched.clear();
    }
    coo.to_csr()
}

/// The runtime coarse correction `z (+)= Ẑ A_c⁻¹ Ẑᵀ v` of one rank (or of
/// the whole problem, sequentially).
///
/// Restriction and prolongation are sparse triplet sweeps over
/// caller-chosen local entry lists; the factored coarse operator is shared
/// (`Arc`) and solved redundantly on every rank after the deterministic
/// [`CoarseReduce::coarse_reduce`], so no second communication round is
/// needed and interface values agree bit for bit. Application is
/// allocation-free: the coarse-vector buffer is preallocated (behind an
/// uncontended `Mutex`, so host-built per-rank solvers can be handed
/// across the rank threads).
#[derive(Debug)]
pub struct CoarseSolver {
    n_modes: usize,
    /// `(local row, mode, weight)`: `y[mode] += weight · v[row]`, sorted by
    /// `(mode, row)`. Weights fold in the consumer's partition-of-unity
    /// (e.g. `1/mult` on element partitions, `1` on owned-row partitions).
    restrict: Vec<(usize, usize, f64)>,
    /// `(local row, mode, value)`: `z[row] += value · y[mode]`, sorted by
    /// `(row, mode)` so shared dofs accumulate in identical order on every
    /// rank that holds them.
    prolong: Vec<(usize, usize, f64)>,
    factor: Arc<SkylineLdlt>,
    y: Mutex<Vec<f64>>,
}

impl Clone for CoarseSolver {
    fn clone(&self) -> Self {
        CoarseSolver {
            n_modes: self.n_modes,
            restrict: self.restrict.clone(),
            prolong: self.prolong.clone(),
            factor: Arc::clone(&self.factor),
            y: Mutex::new(vec![0.0; self.n_modes]),
        }
    }
}

impl CoarseSolver {
    /// Builds a solver from raw triplet lists (sorted internally) and the
    /// shared coarse factorization.
    pub fn new(
        n_modes: usize,
        mut restrict: Vec<(usize, usize, f64)>,
        mut prolong: Vec<(usize, usize, f64)>,
        factor: Arc<SkylineLdlt>,
    ) -> Self {
        assert_eq!(factor.dim(), n_modes, "coarse factor dimension");
        restrict.sort_by_key(|&(r, m, _)| (m, r));
        prolong.sort_by_key(|&(r, m, _)| (r, m));
        CoarseSolver {
            n_modes,
            restrict,
            prolong,
            factor,
            y: Mutex::new(vec![0.0; n_modes]),
        }
    }

    /// Number of global coarse modes.
    pub fn n_modes(&self) -> usize {
        self.n_modes
    }

    /// Modes the coarse factorization pivoted out (rank-deficient blocks).
    pub fn skipped_modes(&self) -> Vec<usize> {
        self.factor.skipped_modes()
    }

    /// The restriction triplets `(local row, mode, weight)`, sorted by
    /// `(mode, row)` — exposed so tests can verify transpose consistency
    /// against the prolongation.
    pub fn restrict_entries(&self) -> &[(usize, usize, f64)] {
        &self.restrict
    }

    /// The prolongation triplets `(local row, mode, value)`, sorted by
    /// `(row, mode)`.
    pub fn prolong_entries(&self) -> &[(usize, usize, f64)] {
        &self.prolong
    }

    /// Local flops of one application, for the virtual-time model.
    pub fn flops(&self) -> u64 {
        2 * (self.restrict.len() + self.prolong.len()) as u64 + self.factor.solve_flops()
    }

    /// `z = Ẑ A_c⁻¹ Ẑᵀ v` (overwriting `z`).
    pub fn apply_overwrite<Op: CoarseReduce + ?Sized>(&self, op: &Op, v: &[f64], z: &mut [f64]) {
        self.apply_impl(op, v, z, false)
    }

    /// `z += Ẑ A_c⁻¹ Ẑᵀ v`.
    pub fn apply_add<Op: CoarseReduce + ?Sized>(&self, op: &Op, v: &[f64], z: &mut [f64]) {
        self.apply_impl(op, v, z, true)
    }

    fn apply_impl<Op: CoarseReduce + ?Sized>(&self, op: &Op, v: &[f64], z: &mut [f64], add: bool) {
        let mut y = self.y.lock().expect("coarse scratch lock");
        for e in y.iter_mut() {
            *e = 0.0;
        }
        for &(r, m, w) in &self.restrict {
            y[m] += w * v[r];
        }
        op.coarse_reduce(&mut y);
        self.factor.solve_in_place(&mut y);
        if !add {
            for e in z.iter_mut() {
                *e = 0.0;
            }
        }
        for &(r, m, w) in &self.prolong {
            z[r] += w * y[m];
        }
        op.coarse_work(self.flops());
    }
}

/// A two-level preconditioner: a [`CoarseSolver`] composed with a smoother
/// `S` (any existing [`Preconditioner`]).
///
/// Works over any operator that is both a [`LinearOperator`] (the
/// multiplicative residual needs `A z_c`) and [`CoarseReduce`] (the coarse
/// right-hand side needs the cross-rank sum) — which covers the sequential
/// CSR operator and both distributed operators.
pub struct TwoLevelPrecond<S> {
    smoother: S,
    coarse: CoarseSolver,
    composition: Composition,
    label: String,
}

impl<S> TwoLevelPrecond<S> {
    /// Composes `smoother` with `coarse`. `label` becomes the
    /// [`Preconditioner::name`], conventionally the registry spec string.
    pub fn new(smoother: S, coarse: CoarseSolver, composition: Composition, label: String) -> Self {
        TwoLevelPrecond {
            smoother,
            coarse,
            composition,
            label,
        }
    }

    /// The coarse correction.
    pub fn coarse(&self) -> &CoarseSolver {
        &self.coarse
    }

    /// The smoother.
    pub fn smoother(&self) -> &S {
        &self.smoother
    }

    /// The composition mode.
    pub fn composition(&self) -> Composition {
        self.composition
    }
}

impl<Op, S> Preconditioner<Op> for TwoLevelPrecond<S>
where
    Op: LinearOperator + CoarseReduce + ?Sized,
    S: Preconditioner<Op>,
{
    fn apply_into(&self, op: &Op, v: &[f64], z: &mut [f64]) {
        // Route through the scratch path with freshly allocated scratch so
        // the two entry points are bit-identical by construction.
        let mut scratch = vec![vec![0.0; v.len()]; Preconditioner::<Op>::scratch_vectors(self)];
        self.apply_scratch(op, v, z, &mut scratch);
    }

    fn scratch_vectors(&self) -> usize {
        self.smoother.scratch_vectors()
            + match self.composition {
                Composition::Multiplicative => 2,
                Composition::Additive => 0,
            }
    }

    fn apply_scratch(&self, op: &Op, v: &[f64], z: &mut [f64], scratch: &mut [Vec<f64>]) {
        match self.composition {
            Composition::Additive => {
                self.smoother.apply_scratch(op, v, z, scratch);
                self.coarse.apply_add(op, v, z);
            }
            Composition::Multiplicative => {
                let (ours, sm_scratch) = scratch.split_at_mut(2);
                let (r_slot, s_slot) = ours.split_at_mut(1);
                let r = &mut r_slot[0];
                let s = &mut s_slot[0];
                // z_c = coarse(v); r = v − A z_c; z = z_c + M_s r.
                self.coarse.apply_overwrite(op, v, z);
                op.apply_into(z, r);
                for i in 0..r.len() {
                    r[i] = v[i] - r[i];
                }
                self.smoother.apply_scratch(op, r, s, sm_scratch);
                for i in 0..z.len() {
                    z[i] += s[i];
                }
            }
        }
    }

    fn operator_applications(&self) -> usize {
        self.smoother.operator_applications()
            + match self.composition {
                Composition::Multiplicative => 1,
                Composition::Additive => 0,
            }
    }

    fn current_operator_applications(&self) -> usize {
        self.smoother.current_operator_applications()
            + match self.composition {
                Composition::Multiplicative => 1,
                Composition::Additive => 0,
            }
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

/// A registry-built preconditioner covering both one-level and two-level
/// specs, as one concrete value.
///
/// Like [`BuiltPrecond`] it names no operator type, so one instance serves
/// a loop of solves whose operator borrows differ per iteration; unlike
/// [`BuiltPrecond`] its [`Preconditioner`] impl requires
/// [`CoarseReduce`] of the operator (trivially satisfied sequentially,
/// implemented by both distributed operators).
pub enum SpecPrecond {
    /// A one-level spec — delegates method-for-method to [`BuiltPrecond`],
    /// so results are bit-identical to the historical path.
    Plain(BuiltPrecond),
    /// A two-level spec with its coarse solver attached.
    TwoLevel(TwoLevelPrecond<BuiltPrecond>),
}

impl<Op: LinearOperator + CoarseReduce + InterfaceConsistency + ?Sized> Preconditioner<Op>
    for SpecPrecond
{
    fn apply_into(&self, op: &Op, v: &[f64], z: &mut [f64]) {
        match self {
            SpecPrecond::Plain(p) => p.apply_into(op, v, z),
            SpecPrecond::TwoLevel(p) => p.apply_into(op, v, z),
        }
    }

    fn scratch_vectors(&self) -> usize {
        match self {
            SpecPrecond::Plain(p) => Preconditioner::<Op>::scratch_vectors(p),
            SpecPrecond::TwoLevel(p) => Preconditioner::<Op>::scratch_vectors(p),
        }
    }

    fn apply_scratch(&self, op: &Op, v: &[f64], z: &mut [f64], scratch: &mut [Vec<f64>]) {
        match self {
            SpecPrecond::Plain(p) => p.apply_scratch(op, v, z, scratch),
            SpecPrecond::TwoLevel(p) => p.apply_scratch(op, v, z, scratch),
        }
    }

    fn operator_applications(&self) -> usize {
        match self {
            SpecPrecond::Plain(p) => Preconditioner::<Op>::operator_applications(p),
            SpecPrecond::TwoLevel(p) => Preconditioner::<Op>::operator_applications(p),
        }
    }

    fn current_operator_applications(&self) -> usize {
        match self {
            SpecPrecond::Plain(p) => Preconditioner::<Op>::current_operator_applications(p),
            SpecPrecond::TwoLevel(p) => Preconditioner::<Op>::current_operator_applications(p),
        }
    }

    fn name(&self) -> String {
        match self {
            SpecPrecond::Plain(p) => Preconditioner::<Op>::name(p),
            SpecPrecond::TwoLevel(p) => Preconditioner::<Op>::name(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JacobiPrecond;

    /// 1-D scaled Laplacian chain with the two end dofs constrained
    /// (identity rows), plus a strip partition into `n_parts`.
    fn chain_fixture(n: usize, n_parts: usize) -> (CsrMatrix, Vec<CoarsePartGeometry>, Vec<f64>) {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            if i == 0 || i == n - 1 {
                coo.push(i, i, 1.0).unwrap();
                continue;
            }
            coo.push(i, i, 2.0).unwrap();
            for j in [i - 1, i + 1] {
                if j != 0 && j != n - 1 {
                    coo.push(i, j, -1.0).unwrap();
                }
            }
        }
        let a = coo.to_csr();
        let per = n / n_parts;
        let parts: Vec<CoarsePartGeometry> = (0..n_parts)
            .map(|p| {
                let dofs: Vec<usize> =
                    (p * per..if p + 1 == n_parts { n } else { (p + 1) * per }).collect();
                CoarsePartGeometry {
                    pos: dofs.iter().map(|&g| [g as f64, 0.0, 0.0]).collect(),
                    comp: vec![0; dofs.len()],
                    constrained: dofs.iter().map(|&g| g == 0 || g == n - 1).collect(),
                    dofs,
                }
            })
            .collect();
        let mult = vec![1.0; n];
        (a, parts, mult)
    }

    /// The paper's 2-D cantilever (16x4, left edge clamped, so clamped dofs
    /// are identity rows), norm-1 scaled, with the unsmoothed rigid-body
    /// modes of four vertical node strips. Also returns the clamp mask.
    fn elasticity_fixture() -> (CsrMatrix, CoarseBasis, Vec<bool>) {
        use parfem_fem::{assembly, Material};
        use parfem_mesh::{DofMap, Edge, QuadMesh};
        let mesh = QuadMesh::cantilever(16, 4);
        let mut dm = DofMap::new(mesh.n_nodes());
        dm.clamp_edge(&mesh, Edge::Left);
        let loads = vec![0.0; dm.n_dofs()];
        let sys = assembly::build_static(&mesh, &dm, &Material::unit(), &loads);
        let (a, _, sc) = parfem_sparse::scaling::scale_system(&sys.stiffness, &sys.rhs).unwrap();
        let n_parts = 4;
        let mut parts = vec![CoarsePartGeometry::default(); n_parts];
        for node in 0..mesh.n_nodes() {
            let column = node % (mesh.nx() + 1);
            let geo = &mut parts[column * n_parts / (mesh.nx() + 1)];
            let [x, y] = mesh.node_coords(node);
            for c in 0..2 {
                let g = dm.dof(node, c);
                geo.dofs.push(g);
                geo.pos.push([x, y, 0.0]);
                geo.comp.push(c);
                geo.constrained.push(dm.is_fixed(g));
            }
        }
        let mult = vec![1.0; a.n_rows()];
        let plain = build_coarse_basis(&CoarseSpec::Rbm, &parts, &mult, sc.diagonal(), &a, 1e-12);
        let fixed = (0..a.n_rows()).map(|g| dm.is_fixed(g)).collect();
        (a, plain, fixed)
    }

    /// After `k` passes a mode's support is exactly the `k`-layer graph
    /// neighbourhood of its unsmoothed support in `A`, minus the entries
    /// that come out exactly zero — checked against full-length Jacobi
    /// passes over every row, value for value and bit for bit, so the
    /// frontier-only walk can neither miss a row nor add one.
    #[test]
    fn smoothing_widens_support_by_graph_layers_on_elasticity() {
        let (a, basis, fixed) = elasticity_fixture();
        let plain = basis.modes;
        let n = a.n_rows();
        let inv_diag = inverse_diagonal(&a);
        let omega = smoothing_damping(&a, &inv_diag);
        let mut prev_len: Vec<usize> = plain.iter().map(Vec::len).collect();
        for passes in 1..=3 {
            let mut smoothed = plain.clone();
            smooth_prolongator(&mut smoothed, &a, passes);
            for (m, (sm, pl)) in smoothed.iter().zip(&plain).enumerate() {
                let mut layer = vec![false; n];
                for &(g, _) in pl {
                    layer[g] = true;
                }
                for _ in 0..passes {
                    let inner = layer.clone();
                    for r in (0..n).filter(|&r| inner[r]) {
                        for &j in a.row(r).0 {
                            layer[j] = true;
                        }
                    }
                }
                let mut z = vec![0.0; n];
                for &(g, v) in pl {
                    z[g] = v;
                }
                for _ in 0..passes {
                    let y: Vec<f64> = (0..n)
                        .map(|r| {
                            let (cols, vals) = a.row(r);
                            cols.iter()
                                .zip(vals)
                                .fold(0.0, |acc, (&j, &a_rj)| acc + a_rj * z[j])
                        })
                        .collect();
                    for r in 0..n {
                        z[r] -= omega * y[r] * inv_diag[r];
                    }
                }
                assert!(
                    (0..n).all(|r| layer[r] || z[r] == 0.0),
                    "mode {m}, {passes} passes: reference reached past {passes} layers"
                );
                let want: Vec<(usize, f64)> = (0..n)
                    .filter(|&r| layer[r] && z[r] != 0.0)
                    .map(|r| (r, z[r]))
                    .collect();
                assert_eq!(sm, &want, "mode {m}, {passes} passes: support or values");
                assert!(
                    sm.iter().all(|&(g, _)| !fixed[g]),
                    "mode {m}: a clamped dof entered the support"
                );
                assert!(
                    sm.len() > prev_len[m],
                    "mode {m}: pass {passes} must widen the support"
                );
                prev_len[m] = sm.len();
            }
        }
    }

    #[test]
    fn galerkin_matrix_matches_dense_reference() {
        let (a, parts, mult) = chain_fixture(16, 4);
        let d = vec![1.0; 16];
        let basis = build_coarse_basis(&CoarseSpec::Const, &parts, &mult, &d, &a, 1e-12);
        let ac = galerkin_matrix(&a, &basis.modes);
        let m = basis.n_modes();
        for i in 0..m {
            for j in 0..m {
                let mut want = 0.0;
                for &(g1, v1) in &basis.modes[i] {
                    for &(g2, v2) in &basis.modes[j] {
                        want += v1 * a.get(g1, g2) * v2;
                    }
                }
                assert!(
                    (ac.get(i, j) - want).abs() < 1e-12,
                    "A_c[{i},{j}] = {} want {want}",
                    ac.get(i, j)
                );
                // Exact symmetry by construction.
                assert_eq!(ac.get(i, j), ac.get(j, i));
            }
        }
    }

    #[test]
    fn coarse_correction_is_exact_on_the_coarse_space() {
        // For v = A Ẑ y, the coarse correction must reproduce the coarse
        // component: Ẑ A_c⁻¹ Ẑᵀ A Ẑ y = Ẑ y.
        let (a, parts, mult) = chain_fixture(24, 4);
        let d = vec![1.0; 24];
        let basis = build_coarse_basis(&CoarseSpec::Const, &parts, &mult, &d, &a, 1e-12);
        let solver = basis.solver();
        let y = [1.0, -2.0, 0.5, 3.0];
        let mut zy = vec![0.0; 24];
        for (m, col) in basis.modes.iter().enumerate() {
            for &(g, v) in col {
                zy[g] += v * y[m];
            }
        }
        let v = a.apply(&zy);
        let mut z = vec![0.0; 24];
        solver.apply_overwrite(&a, &v, &mut z);
        for (got, want) in z.iter().zip(&zy) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn additive_and_multiplicative_both_apply_and_differ() {
        let (a, parts, mult) = chain_fixture(24, 4);
        let d = vec![1.0; 24];
        let basis = build_coarse_basis(&CoarseSpec::Const, &parts, &mult, &d, &a, 1e-12);
        let v: Vec<f64> = (0..24).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let mk = |comp| {
            TwoLevelPrecond::new(
                JacobiPrecond::from_diagonal(&a.diagonal()),
                basis.solver(),
                comp,
                "t".into(),
            )
        };
        let add = mk(Composition::Additive).apply(&a, &v);
        let mult_z = mk(Composition::Multiplicative).apply(&a, &v);
        assert!(add.iter().all(|x| x.is_finite()));
        assert!(mult_z.iter().all(|x| x.is_finite()));
        assert!(add.iter().zip(&mult_z).any(|(x, y)| x != y));
    }

    #[test]
    fn scratch_and_allocating_paths_are_bit_identical() {
        let (a, parts, mult) = chain_fixture(24, 4);
        let d = vec![1.0; 24];
        let basis = build_coarse_basis(&CoarseSpec::Rbm, &parts, &mult, &d, &a, 1e-12);
        for comp in [Composition::Additive, Composition::Multiplicative] {
            let pc = TwoLevelPrecond::new(
                JacobiPrecond::from_diagonal(&a.diagonal()),
                basis.solver(),
                comp,
                "t".into(),
            );
            let v: Vec<f64> = (0..24).map(|i| (i as f64).sin()).collect();
            let mut z1 = vec![0.0; 24];
            pc.apply_into(&a, &v, &mut z1);
            let mut z2 = vec![0.0; 24];
            let mut scratch =
                vec![vec![0.0; 24]; Preconditioner::<CsrMatrix>::scratch_vectors(&pc)];
            pc.apply_scratch(&a, &v, &mut z2, &mut scratch);
            assert_eq!(z1, z2);
        }
    }

    #[test]
    fn rbm_mode_counts_follow_the_physics() {
        // d(d+1)/2 rigid modes: 1 scalar, 3 in 2-D, 6 in 3-D.
        assert_eq!(CoarseSpec::Rbm.modes_per_part(1), 1);
        assert_eq!(CoarseSpec::Rbm.modes_per_part(2), 3);
        assert_eq!(CoarseSpec::Rbm.modes_per_part(3), 6);
        assert_eq!(CoarseSpec::Const.modes_per_part(3), 3);
    }

    #[test]
    fn three_d_rbm_modes_span_the_six_rigid_motions() {
        // One unconstrained part of 4 non-coplanar nodes with 3 components
        // per node; the geometric modes must be the 3 translations and the
        // 3 axis rotations about the centroid, in that order.
        let nodes = [
            [0.0, 0.0, 0.0],
            [2.0, 0.0, 0.0],
            [0.0, 3.0, 0.0],
            [0.0, 0.0, 4.0],
        ];
        let n_dofs = 12;
        let geo = CoarsePartGeometry {
            dofs: (0..n_dofs).collect(),
            pos: (0..n_dofs).map(|g| nodes[g / 3]).collect(),
            comp: (0..n_dofs).map(|g| g % 3).collect(),
            constrained: vec![false; n_dofs],
        };
        let mult = vec![1.0; n_dofs];
        let d = vec![1.0; n_dofs];
        let mut modes: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 6];
        geometric_modes(&CoarseSpec::Rbm, 0, &geo, &mult, &d, 6, 3, &mut modes);
        // Dense expansion for checking.
        let dense: Vec<Vec<f64>> = modes
            .iter()
            .map(|col| {
                let mut v = vec![0.0; n_dofs];
                for &(g, val) in col {
                    v[g] = val;
                }
                v
            })
            .collect();
        let (cx, cy, cz) = (0.5, 0.75, 1.0);
        for (nd, q) in nodes.iter().enumerate() {
            let (x, y, z) = (q[0] - cx, q[1] - cy, q[2] - cz);
            // Translations.
            for c in 0..3 {
                for c2 in 0..3 {
                    let want = if c == c2 { 1.0 } else { 0.0 };
                    assert_eq!(dense[c][3 * nd + c2], want);
                }
            }
            // Rotations about e_z, e_x, e_y.
            for (m, want) in [(3, [-y, x, 0.0]), (4, [0.0, -z, y]), (5, [z, 0.0, -x])] {
                for c in 0..3 {
                    assert!(
                        (dense[m][3 * nd + c] - want[c]).abs() < 1e-14,
                        "mode {m} node {nd} comp {c}: {} vs {}",
                        dense[m][3 * nd + c],
                        want[c]
                    );
                }
            }
        }
    }

    #[test]
    fn coarse_spec_tokens_round_trip() {
        for spec in [CoarseSpec::Const, CoarseSpec::Rbm, CoarseSpec::LowRank(8)] {
            assert_eq!(CoarseSpec::parse(&spec.token()), Some(spec));
        }
        assert_eq!(CoarseSpec::parse("lowrank-0"), None);
        assert_eq!(CoarseSpec::parse("lowrank-x"), None);
        assert_eq!(CoarseSpec::parse("fine"), None);
    }
}
