//! Two-level coarse-space construction for the distributed solvers.
//!
//! The generic machinery — mode construction, Galerkin assembly, the
//! skyline-factored coarse solve — lives in [`parfem_precond::twolevel`];
//! this module supplies the *domain-decomposition* half:
//!
//! - extracting per-part [`CoarsePartGeometry`] from EDD subdomain systems
//!   (element partition, shared interface dofs, multiplicity weights) and
//!   from RDD node partitions (disjoint block rows),
//! - assembling the **global scaled operator** `A = D K D` on the host —
//!   the Galerkin product `Ẑᵀ A Ẑ` must be built from the fully assembled
//!   matrix so every rank factors the identical coarse operator,
//! - restricting the global coarse basis to per-rank [`CoarseSolver`]s
//!   whose restriction lists carry the partition-of-unity weights
//!   (`1/mult` in EDD, where interface entries are replicated; unit in
//!   RDD, where rows are disjoint),
//! - implementing [`CoarseReduce`] for [`EddOperator`] / [`RddOperator`]
//!   so the coarse residual sum runs through the deterministic
//!   [`Communicator::allreduce_sum_into`] (fault-latched like every other
//!   collective).
//!
//! Everything here is deterministic: geometry follows the systems' own
//! dof ordering, the Galerkin operator is assembled sequentially on the
//! host, and each rank's entry lists are sorted by [`CoarseSolver::new`].

use crate::edd::EddOperator;
use crate::rdd::{RddOperator, RddSystem};
use crate::scaling::edd_scaling_reference;
use parfem_fem::SubdomainSystem;
use parfem_mesh::{DofMap, NodePartition};
use parfem_msg::Communicator;
use parfem_precond::twolevel::{
    build_coarse_basis, CoarseBasis, CoarsePartGeometry, CoarseReduce, CoarseSolver, CoarseSpec,
};
use parfem_sparse::{CooMatrix, CsrMatrix};
use std::sync::Arc;

impl<'a, C: Communicator> CoarseReduce for EddOperator<'a, C> {
    fn coarse_reduce(&self, buf: &mut [f64]) {
        self.comm.allreduce_sum_into(buf);
    }

    fn coarse_work(&self, flops: u64) {
        self.comm.work(flops);
    }
}

impl<'a, C: Communicator> CoarseReduce for RddOperator<'a, C> {
    fn coarse_reduce(&self, buf: &mut [f64]) {
        self.comm.allreduce_sum_into(buf);
    }

    fn coarse_work(&self, flops: u64) {
        self.comm.work(flops);
    }
}

/// Assembles the global scaled operator `A = D K D` from EDD subdomain
/// systems, together with the scaling diagonal `d`. Identical (bit for
/// bit) to scaling the globally assembled stiffness: the norm-1 row sums
/// distribute over the element partition, and the coordinate accumulator
/// sums duplicate interface entries on conversion.
pub fn edd_scaled_matrix(systems: &[SubdomainSystem], n_dofs: usize) -> (CsrMatrix, Vec<f64>) {
    let d = edd_scaling_reference(systems, n_dofs).diagonal().to_vec();
    let mut coo = CooMatrix::new(n_dofs, n_dofs);
    for sys in systems {
        let k = &sys.k_local;
        for l1 in 0..k.n_rows() {
            let g1 = sys.global_dofs[l1];
            let (cols, vals) = k.row(l1);
            for (&l2, &v) in cols.iter().zip(vals) {
                let g2 = sys.global_dofs[l2];
                coo.push(g1, g2, d[g1] * v * d[g2])
                    .expect("subdomain dof within global range");
            }
        }
    }
    (coo.to_csr(), d)
}

/// Per-part coarse geometry of an EDD element partition: one part per
/// subdomain system, dofs in the system's own local order.
///
/// Constrained dofs are detected structurally: `build_from_elements`
/// stores a Dirichlet row as a single diagonal entry, so a row whose only
/// entry is its own diagonal carries no stiffness coupling and is excluded
/// from the coarse modes. (A floating interior dof whose every in-part
/// neighbour is constrained matches too — harmless, it merely leaves that
/// dof to the smoother.)
///
/// `coords` are the mesh node positions (`z = 0` for 2-D meshes); pass
/// `None` for raw prebuilt systems, in which case positions are zero and
/// only geometry-free coarse spaces ([`CoarseSpec::Const`],
/// [`CoarseSpec::LowRank`]) remain valid. `dofs_per_node` is the physics'
/// DOF count per node (1 scalar, 2 plane elasticity, 3 solid) — it decodes
/// the interleaved global numbering `dof = dofs_per_node * node + comp`.
pub fn edd_part_geometry(
    systems: &[SubdomainSystem],
    coords: Option<&[[f64; 3]]>,
    dofs_per_node: usize,
) -> Vec<CoarsePartGeometry> {
    assert!(dofs_per_node > 0, "need at least one DOF per node");
    systems
        .iter()
        .map(|sys| {
            let n = sys.global_dofs.len();
            let mut geo = CoarsePartGeometry {
                dofs: sys.global_dofs.clone(),
                pos: Vec::with_capacity(n),
                comp: Vec::with_capacity(n),
                constrained: Vec::with_capacity(n),
            };
            for (l, &g) in sys.global_dofs.iter().enumerate() {
                geo.comp.push(g % dofs_per_node);
                geo.pos
                    .push(coords.map_or([0.0; 3], |c| c[g / dofs_per_node]));
                let (cols, _) = sys.k_local.row(l);
                geo.constrained.push(cols.len() == 1 && cols[0] == l);
            }
            geo
        })
        .collect()
}

/// Builds the global coarse basis for an EDD element partition: part
/// geometry from the systems, multiplicity from the systems' own weights,
/// and the Galerkin operator from the host-assembled scaled matrix.
///
/// # Panics
/// Panics when `spec` is [`CoarseSpec::Rbm`] (plain or smoothed) and
/// `coords` is `None`:
/// rigid-body modes need node positions, which prebuilt raw systems do not
/// carry — build the session from a mesh, or use `twolevel:const:*` /
/// `twolevel:lowrank-K:*`.
pub fn edd_coarse_basis(
    spec: &CoarseSpec,
    systems: &[SubdomainSystem],
    n_dofs: usize,
    coords: Option<&[[f64; 3]]>,
    dofs_per_node: usize,
    pivot_tol: f64,
) -> CoarseBasis {
    assert!(
        !(matches!(spec.base(), CoarseSpec::Rbm) && coords.is_none()),
        "rigid-body coarse modes need node coordinates; build the session from a mesh \
         or use twolevel:const / twolevel:lowrank-K"
    );
    let parts = edd_part_geometry(systems, coords, dofs_per_node);
    let mut mult = vec![1.0; n_dofs];
    for sys in systems {
        for (l, &g) in sys.global_dofs.iter().enumerate() {
            mult[g] = sys.multiplicity[l];
        }
    }
    let (a_scaled, d) = edd_scaled_matrix(systems, n_dofs);
    build_coarse_basis(spec, &parts, &mult, &d, &a_scaled, pivot_tol)
}

/// Restricts a global coarse basis to one per-rank [`CoarseSolver`] per
/// EDD subdomain.
///
/// Each rank's **prolongation** carries every basis entry living on one of
/// its local dofs — including entries of neighbouring parts' modes at
/// shared interface dofs, so interface corrections come out bit-identical
/// across the ranks sharing them. The **restriction** divides the same
/// entries by the dof multiplicity: local EDD vectors are replicated at
/// interfaces, so the all-reduced partial sums reproduce `Ẑᵀ v` exactly
/// once each shared entry is counted `1/mult` times per sharing rank.
pub fn edd_coarse_solvers(basis: &CoarseBasis, systems: &[SubdomainSystem]) -> Vec<CoarseSolver> {
    let mut local = LocalIndex::new(systems.iter().map(|s| s.global_dofs.as_slice()));
    systems
        .iter()
        .map(|sys| local.solver(basis, &sys.global_dofs, Some(&sys.multiplicity)))
        .collect()
}

/// Builds the global coarse basis for an RDD node partition over the
/// host-scaled assembled operator `a_scaled` (with scaling diagonal `d`,
/// from the same [`parfem_sparse::scaling::scale_system`] call that
/// produced it). One part per rank, dofs of each part taken node by node
/// in ascending node order; multiplicity is `1` everywhere — block rows
/// are disjoint.
pub fn rdd_coarse_basis(
    spec: &CoarseSpec,
    a_scaled: &CsrMatrix,
    d: &[f64],
    node_part: &NodePartition,
    dof_map: &DofMap,
    coords: &[[f64; 3]],
    pivot_tol: f64,
) -> CoarseBasis {
    let dpn = dof_map.dofs_per_node();
    let mut parts = vec![CoarsePartGeometry::default(); node_part.n_parts()];
    for (node, &owner) in node_part.owners().iter().enumerate() {
        let geo = &mut parts[owner];
        for c in 0..dpn {
            let g = node * dpn + c;
            geo.dofs.push(g);
            geo.pos.push(coords[node]);
            geo.comp.push(c);
            geo.constrained.push(dof_map.is_fixed(g));
        }
    }
    let mult = vec![1.0; a_scaled.n_rows()];
    build_coarse_basis(spec, &parts, &mult, d, a_scaled, pivot_tol)
}

/// Restricts a global coarse basis to one [`CoarseSolver`] per RDD block
/// row. Rows are disjoint, so restriction and prolongation are the exact
/// transpose pair over each rank's owned rows (unit weights); the
/// all-reduce then concatenates the disjoint partial sums.
pub fn rdd_coarse_solvers(basis: &CoarseBasis, systems: &[RddSystem]) -> Vec<CoarseSolver> {
    let mut local = LocalIndex::new(systems.iter().map(|s| s.rows.as_slice()));
    systems
        .iter()
        .map(|sys| local.solver(basis, &sys.rows, None))
        .collect()
}

/// A dense global → local row map, reused across ranks: `UNMAPPED`
/// everywhere except the rows of the rank being restricted, which are
/// mapped before and cleared after each [`LocalIndex::solver`] call.
struct LocalIndex(Vec<usize>);

impl LocalIndex {
    const UNMAPPED: usize = usize::MAX;

    /// Sized to cover every rank's rows; basis dofs past the end belong to
    /// no rank.
    fn new<'s>(rank_rows: impl Iterator<Item = &'s [usize]>) -> Self {
        let n = rank_rows
            .flat_map(|rows| rows.iter().map(|&g| g + 1))
            .max()
            .unwrap_or(0);
        LocalIndex(vec![Self::UNMAPPED; n])
    }

    /// The [`CoarseSolver`] of one rank owning global `rows` (local row
    /// `l` is `rows[l]`): every basis entry on a local row goes to the
    /// prolongation, and to the restriction divided by `mult[l]` when the
    /// rank's vectors replicate shared rows.
    fn solver(
        &mut self,
        basis: &CoarseBasis,
        rows: &[usize],
        mult: Option<&[f64]>,
    ) -> CoarseSolver {
        for (l, &g) in rows.iter().enumerate() {
            self.0[g] = l;
        }
        let mut restrict = Vec::new();
        let mut prolong = Vec::new();
        for (m, col) in basis.modes.iter().enumerate() {
            for &(g, v) in col {
                let l = self.0.get(g).copied().unwrap_or(Self::UNMAPPED);
                if l != Self::UNMAPPED {
                    restrict.push((l, m, mult.map_or(v, |mu| v / mu[l])));
                    prolong.push((l, m, v));
                }
            }
        }
        for &g in rows {
            self.0[g] = Self::UNMAPPED;
        }
        CoarseSolver::new(
            basis.n_modes(),
            restrict,
            prolong,
            Arc::clone(&basis.factor),
        )
    }
}
