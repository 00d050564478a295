//! Golden bit-identity tests for the two-level coarse construction.
//!
//! Each case pins an FNV-1a digest over the exact bits of the coarse basis
//! (`CoarseBasis::modes`: every `(dof, value)` entry, mode by mode) and
//! over the gathered solution `u` of the full two-level session. The
//! smoothed-aggregation prolongator, the per-rank restriction lists and the
//! solve must reproduce these bits exactly: any change to the order of the
//! floating-point operations in the coarse build shows up here as a hard
//! failure, not a tolerance drift. The iteration counts ride along so a
//! digest mismatch can be told apart from a convergence change.
//!
//! Re-capture (only when a *deliberate* numerical change is made) with:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -p parfem-dd --test coarse_golden -- --nocapture
//! ```

use parfem_dd::{
    edd_coarse_basis, rdd_coarse_basis, PrecondSpec, Problem, SolveSession, SolverConfig, Strategy,
};
use parfem_fem::{assembly, Material, SubdomainSystem};
use parfem_krylov::gmres::GmresConfig;
use parfem_mesh::{DofMap, Edge, ElementPartition, Face, HexMesh, NodePartition, QuadMesh};
use parfem_precond::twolevel::{CoarseBasis, CoarseSpec};
use parfem_sparse::scaling::scale_system;
use parfem_sparse::skyline::DEFAULT_PIVOT_TOL;

/// FNV-1a over a stream of u64 words (stable, dependency-free).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The digest one golden case pins.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    n_modes: usize,
    /// Total `(dof, value)` entries over all modes.
    basis_nnz: usize,
    /// FNV-1a over every mode's length, then its `(dof, value bits)` pairs.
    basis_hash: u64,
    iterations: usize,
    /// FNV-1a over the bit patterns of the gathered solution.
    u_hash: u64,
}

fn digest(basis: &CoarseBasis, u: &[f64], iterations: usize) -> Digest {
    let mut bh = Fnv::new();
    for col in &basis.modes {
        bh.word(col.len() as u64);
        for &(g, v) in col {
            bh.word(g as u64);
            bh.word(v.to_bits());
        }
    }
    let mut uh = Fnv::new();
    for &x in u {
        uh.word(x.to_bits());
    }
    Digest {
        n_modes: basis.n_modes(),
        basis_nnz: basis.modes.iter().map(Vec::len).sum(),
        basis_hash: bh.0,
        iterations,
        u_hash: uh.0,
    }
}

fn cfg(spec: &str) -> SolverConfig {
    SolverConfig {
        gmres: GmresConfig {
            tol: 1e-8,
            ..Default::default()
        },
        precond: PrecondSpec::parse(spec).expect("test spec parses"),
        ..Default::default()
    }
}

fn check(name: &str, got: Digest, want: Digest) {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("{name}: {got:?}");
        return;
    }
    assert_eq!(got, want, "{name}: coarse-build golden digest drift");
}

/// EDD strips of the paper's 2-D cantilever, 40x10 at P=4, with the
/// smoothed rigid-body coarse space of the two-level benchmark workload.
#[test]
fn edd_elasticity2d_rbm_s3_coarse_basis_and_solution_are_golden() {
    let spec = "twolevel:rbm.s3:gls-3";
    let mesh = QuadMesh::cantilever(40, 10);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
    let part = ElementPartition::strips_x(&mesh, 4);
    let problem = Problem::new(&mesh, &dm, &mat, &loads);

    let systems: Vec<SubdomainSystem> = part
        .subdomains(&mesh)
        .iter()
        .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, None))
        .collect();
    let coords = problem.coords3();
    let basis = edd_coarse_basis(
        &CoarseSpec::parse("rbm.s3").unwrap(),
        &systems,
        dm.n_dofs(),
        Some(&coords),
        dm.dofs_per_node(),
        DEFAULT_PIVOT_TOL,
    );
    let out = SolveSession::new(problem)
        .strategy(Strategy::Edd(part))
        .config(cfg(spec))
        .run()
        .expect("fault-free two-level session");
    assert!(out.history.converged());
    check(
        "edd elasticity2d 40x10 P=4",
        digest(&basis, &out.u, out.history.iterations()),
        Digest {
            n_modes: 12,
            basis_nnz: 3993,
            basis_hash: 501190109888344610,
            iterations: 29,
            u_hash: 6158369650641010867,
        },
    );
}

/// RDD node strips of a 3-D hex8 bar, 16x3x3 at P=3, with the smoothed
/// rigid-body coarse space (six modes per part).
#[test]
fn rdd_elasticity3d_rbm_s2_coarse_basis_and_solution_are_golden() {
    let spec = "twolevel:rbm.s2:gls-3";
    let mesh = HexMesh::cantilever(16, 3, 3);
    let mut dm = DofMap::with_dofs(mesh.n_nodes(), 3);
    for node in mesh.face_nodes(Face::XMin) {
        dm.clamp_node(node);
    }
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::face_load(&mesh, &dm, Face::XMax, [0.0, 0.0, -1.0], &mut loads);
    let part = NodePartition::strips_x_hex(&mesh, 3);
    let problem = Problem::elasticity3d(&mesh, &dm, &mat, &loads);

    let sys = assembly::build_static_hex(&mesh, &dm, &mat, &loads);
    let (a, _b, sc) = scale_system(&sys.stiffness, &sys.rhs).unwrap();
    let basis = rdd_coarse_basis(
        &CoarseSpec::parse("rbm.s2").unwrap(),
        &a,
        sc.diagonal(),
        &part,
        &dm,
        &problem.coords3(),
        DEFAULT_PIVOT_TOL,
    );
    let out = SolveSession::new(problem)
        .strategy(Strategy::Rdd(part))
        .config(cfg(spec))
        .run()
        .expect("fault-free two-level session");
    assert!(out.history.converged());
    check(
        "rdd elasticity3d 16x3x3 P=3",
        digest(&basis, &out.u, out.history.iterations()),
        Digest {
            n_modes: 18,
            basis_nnz: 6899,
            basis_hash: 16592211339744655496,
            iterations: 25,
            u_hash: 64950366938204443,
        },
    );
}
