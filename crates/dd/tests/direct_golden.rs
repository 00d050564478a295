//! Golden bit-identity tests for the exact subdomain factorization.
//!
//! Each case pins an FNV-1a digest over the bit patterns of the gathered
//! solution `u` of a full session whose subdomain solves go through
//! `SparseDirect` (RCM ordering + profile LDLᵀ), standalone and as the
//! smoother of a two-level spec. The factorization kernel, its profile fill
//! and the triangular solves must reproduce these bits exactly: any change
//! to the order of the floating-point operations in the factor or in a
//! solve shows up here as a hard failure, not a tolerance drift. The
//! iteration counts ride along so a digest mismatch can be told apart from
//! a convergence change.
//!
//! The EDD strips of the 2-D cantilever float (only the leftmost touches
//! the clamp), so those cases exercise skipped pivots and the pivot-shift
//! fallback as well as the regular factor path.
//!
//! Re-capture (only when a *deliberate* numerical change is made) with:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -p parfem-dd --test direct_golden -- --nocapture
//! ```

use parfem_dd::{DdSolveOutput, PrecondSpec, Problem, SolveSession, SolverConfig, Strategy};
use parfem_fem::{assembly, Material};
use parfem_krylov::gmres::GmresConfig;
use parfem_mesh::{DofMap, Edge, ElementPartition, Face, HexMesh, NodePartition, QuadMesh};

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
    iterations: usize,
    /// FNV-1a over the bit patterns of the gathered solution.
    u_hash: u64,
}

fn digest(out: &DdSolveOutput) -> Digest {
    assert!(out.history.converged(), "golden session must converge");
    let mut uh = Fnv::new();
    for &x in &out.u {
        uh.word(x.to_bits());
    }
    Digest {
        iterations: out.history.iterations(),
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
    assert_eq!(got, want, "{name}: direct-solve golden digest drift");
}

/// The paper's 2-D cantilever, clamped left and loaded down on the right,
/// in EDD strips.
fn edd_cantilever(nx: usize, ny: usize, p: usize, spec: &str) -> DdSolveOutput {
    let mesh = QuadMesh::cantilever(nx, ny);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
    let part = ElementPartition::strips_x(&mesh, p);
    SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .config(cfg(spec))
        .run()
        .expect("fault-free direct session")
}

/// RDD node slabs of a 3-D hex8 bar: every subdomain factor is regular.
#[test]
fn rdd_elasticity3d_direct_solution_is_golden() {
    let mesh = HexMesh::cantilever(16, 3, 3);
    let mut dm = DofMap::with_dofs(mesh.n_nodes(), 3);
    for node in mesh.face_nodes(Face::XMin) {
        dm.clamp_node(node);
    }
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::face_load(&mesh, &dm, Face::XMax, [0.0, 0.0, -1.0], &mut loads);
    let part = NodePartition::strips_x_hex(&mesh, 2);
    let out = SolveSession::new(Problem::elasticity3d(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Rdd(part))
        .config(cfg("direct"))
        .run()
        .expect("fault-free direct session");
    check(
        "rdd elasticity3d 16x3x3 P=2 direct",
        digest(&out),
        Digest {
            iterations: 26,
            u_hash: 12039085714815199663,
        },
    );
}

/// EDD strips of the 2-D cantilever: three of the four strips float, so
/// their factors skip the rigid-body pivots and solve with the null shift.
#[test]
fn edd_elasticity2d_direct_floating_strips_solution_is_golden() {
    check(
        "edd elasticity2d 16x4 P=4 direct",
        digest(&edd_cantilever(16, 4, 4, "direct")),
        Digest {
            iterations: 197,
            u_hash: 15042673834666178304,
        },
    );
}

/// The same floating strips with the smoothed rigid-body coarse space and
/// `direct` as the smoother: the coarse factor and the subdomain factors
/// both go through the profile LDLᵀ kernel.
#[test]
fn edd_elasticity2d_twolevel_direct_solution_is_golden() {
    check(
        "edd elasticity2d 40x10 P=4 twolevel:rbm.s3:direct",
        digest(&edd_cantilever(40, 10, 4, "twolevel:rbm.s3:direct")),
        Digest {
            iterations: 44,
            u_hash: 17509909897695470516,
        },
    );
}
