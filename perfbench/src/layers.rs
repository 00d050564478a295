//! Per-layer probes: the benchmark replays a workload's pipeline through
//! each library crate's public functions, recording a span around every
//! call, so each layer's cost is measured from outside the library.
//!
//! Every probe runs on every workload, on that workload's own matrices.
//! Where a workload's solve does not use a layer (the factorization on
//! `cantilever-gls7`, the coarse space outside `cantilever-twolevel`), the
//! probe still prices the layer on that input; the README lists which
//! end-to-end metric each probe should move, and where.

use crate::median;
use crate::spans::SpanRecorder;
use crate::workload::{Decomposition, Instance, RANKS, RESTART};
use crate::Rng;
use parfem::dd::scaling::{edd_scaling_reference, DistributedScaling};
use parfem::dd::{
    edd_coarse_basis, edd_coarse_solvers, rdd_coarse_basis, rdd_coarse_solvers, RddSystem,
};
use parfem::fem::{Physics, SubdomainSystem};
use parfem::mesh::PartitionerSpec;
use parfem::msg::{run_ranks, Communicator, MachineModel};
use parfem::precond::twolevel::{CoarseSolver, CoarseSpec};
use parfem::precond::{PrecondSpec, Preconditioner};
use parfem::problems::WorkloadMesh;
use parfem::sparse::scaling::scale_system;
use parfem::sparse::skyline::DEFAULT_PIVOT_TOL;
use parfem::sparse::{kernels, CsrMatrix, SparseDirect};
use std::hint::black_box;
use std::time::Instant;

/// Wall seconds a kernel probe keeps repeating its call.
const KERNEL_SECONDS: f64 = 0.02;
/// Calls a kernel probe makes at least.
const KERNEL_CALLS: usize = 10;
/// Round trips of the two-rank message ping.
const PING_ROUNDS: usize = 200;

/// Counts one probe round reads off the library's own structures; they
/// repeat exactly from round to round.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundCounts {
    /// Edge cut of the partition.
    pub edge_cut: usize,
    /// Load imbalance of the partition (max part / mean part).
    pub imbalance: f64,
    /// Stored entries of the local stiffness matrices, summed over ranks.
    pub local_nnz: usize,
    /// Rows of the largest local scaled matrix.
    pub spmv_rows: usize,
    /// Stored entries of the largest local scaled matrix.
    pub spmv_nnz: usize,
    /// Flops of one triangular solve pair, summed over the local factors.
    pub factor_solve_flops: u64,
    /// Pivots the local factorizations skipped (floating subdomains).
    pub skipped_pivots: usize,
    /// Dimension of the coarse space.
    pub coarse_dim: usize,
}

/// Per-call kernel times of one probe round, in seconds.
#[derive(Debug, Clone, Default)]
pub struct KernelTimes {
    /// `CsrMatrix::spmv_into` on the largest local scaled matrix.
    pub spmv: f64,
    /// One preconditioner application on that matrix.
    pub precond_apply: f64,
    /// `dot_sweep` + `axpy_sweep_neg` over a full restart basis.
    pub orth: f64,
    /// One two-rank neighbour exchange of an interface-sized message.
    pub exchange: f64,
    /// One two-rank scalar all-reduce.
    pub allreduce: f64,
}

/// The coarse space the coarse-build probe prices: the workload's own
/// when it is two-level, otherwise `rbm.s3` (the two-level workload's).
fn probe_coarse_spec(spec: &PrecondSpec) -> CoarseSpec {
    match spec {
        PrecondSpec::TwoLevel { coarse, .. } => coarse.clone(),
        _ => CoarseSpec::parse("rbm.s3").expect("rbm.s3 parses"),
    }
}

/// One scaled local matrix and one coarse solver per rank. One-level
/// preconditioner specs ignore the coarse solvers.
struct Scaled {
    locals: Vec<CsrMatrix>,
    coarse: Vec<CoarseSolver>,
}

/// One probe round over the whole pipeline. `exchange_len` is the message
/// length (in `f64`s) the ping sends.
pub fn probe_round(
    inst: &Instance,
    rec: &mut SpanRecorder,
    exchange_len: usize,
) -> (RoundCounts, KernelTimes) {
    let mut counts = RoundCounts::default();
    let scaled = match inst.workload.decomposition {
        Decomposition::Edd => edd_setup(inst, rec, &mut counts),
        Decomposition::Rdd => rdd_setup(inst, rec, &mut counts),
    };

    rec.span("sparse.factor", |_| {
        for a in &scaled.locals {
            let f = SparseDirect::factorize(a, DEFAULT_PIVOT_TOL);
            counts.factor_solve_flops += f.solve_flops();
            counts.skipped_pivots += f.n_skipped();
        }
    });

    let (r, a) = scaled
        .locals
        .iter()
        .enumerate()
        .max_by_key(|(_, a)| a.nnz())
        .expect("at least one rank");
    counts.spmv_rows = a.n_rows();
    counts.spmv_nnz = a.nnz();
    let pc = rec.span("precond.build", |_| {
        let mut built = None;
        for (rank, local) in scaled.locals.iter().enumerate() {
            let pc = inst.precond.instantiate_full(
                scaled.coarse.get(rank).cloned(),
                Some(local),
                || local.diagonal(),
            );
            if rank == r {
                built = Some(pc);
            }
        }
        built.expect("largest rank built")
    });

    let mut rng = Rng::new(0x5eed);
    let x: Vec<f64> = (0..a.n_rows()).map(|_| rng.symmetric()).collect();
    let mut y = vec![0.0; a.n_rows()];
    let mut times = KernelTimes {
        spmv: rec.span("sparse.spmv", |_| {
            time_calls(|| a.spmv_into(black_box(&x), black_box(&mut y)))
        }),
        precond_apply: rec.span("precond.apply", |_| {
            time_calls(|| pc.apply_into(a, black_box(&x), black_box(&mut y)))
        }),
        ..KernelTimes::default()
    };
    let basis: Vec<Vec<f64>> = (0..RESTART)
        .map(|_| (0..a.n_rows()).map(|_| rng.symmetric()).collect())
        .collect();
    let mut h = vec![0.0; RESTART];
    times.orth = rec.span("krylov.orth", |_| {
        time_calls(|| {
            y.copy_from_slice(&x);
            kernels::dot_sweep(black_box(&y), &basis, &mut h);
            black_box(kernels::axpy_sweep_neg(&h, &basis, &mut y));
        })
    });
    (times.exchange, times.allreduce) = rec.span("msg.ping", |_| ping(exchange_len));
    (counts, times)
}

/// EDD set-up: strip partition, per-subdomain assembly, the distributed
/// norm-1 scaling, and the coarse space.
fn edd_setup(inst: &Instance, rec: &mut SpanRecorder, counts: &mut RoundCounts) -> Scaled {
    let p = &inst.problem;
    let (part, subs) = rec.span("mesh.partition", |_| {
        let part = p.element_partition(&PartitionerSpec::Strips, RANKS);
        let subs = match &p.mesh {
            WorkloadMesh::Quad(m) => part.subdomains(m),
            WorkloadMesh::Hex(m) => part.subdomains_of(m),
        };
        (part, subs)
    });
    counts.edge_cut = part.edge_cut().unwrap_or(0);
    counts.imbalance = part.imbalance();
    let systems: Vec<SubdomainSystem> = rec.span("fem.assembly", |_| {
        subs.iter()
            .map(|sub| match (&p.mesh, p.physics) {
                (WorkloadMesh::Quad(m), Physics::Heat2d) => {
                    SubdomainSystem::build_heat(m, &p.dof_map, &p.material, sub, &p.loads)
                }
                (WorkloadMesh::Quad(m), _) => {
                    SubdomainSystem::build(m, &p.dof_map, &p.material, sub, &p.loads, None)
                }
                (WorkloadMesh::Hex(m), _) => {
                    SubdomainSystem::build_hex(m, &p.dof_map, &p.material, sub, &p.loads)
                }
            })
            .collect()
    });
    counts.local_nnz = systems.iter().map(|s| s.k_local.nnz()).sum();
    let locals = rec.span("sparse.scaling", |_| {
        let d = edd_scaling_reference(&systems, p.n_dofs());
        systems
            .iter()
            .map(|sys| {
                let local = DistributedScaling {
                    d: sys.global_dofs.iter().map(|&g| d.diagonal()[g]).collect(),
                };
                local.apply(&sys.k_local, &mut sys.f_local.clone())
            })
            .collect()
    });
    let coords = p.as_problem().coords3();
    let coarse = rec.span("dd.coarse_build", |_| {
        let basis = edd_coarse_basis(
            &probe_coarse_spec(&inst.precond),
            &systems,
            p.n_dofs(),
            Some(&coords),
            p.dof_map.dofs_per_node(),
            DEFAULT_PIVOT_TOL,
        );
        counts.coarse_dim = basis.n_modes();
        edd_coarse_solvers(&basis, &systems)
    });
    Scaled { locals, coarse }
}

/// RDD set-up: node strips, global assembly, host-side norm-1 scaling,
/// the block-row split, and the coarse space.
fn rdd_setup(inst: &Instance, rec: &mut SpanRecorder, counts: &mut RoundCounts) -> Scaled {
    let p = &inst.problem;
    let part = rec.span("mesh.partition", |_| p.node_partition(RANKS));
    counts.edge_cut = part.edge_cut().unwrap_or(0);
    counts.imbalance = part.imbalance();
    let assembled = rec.span("fem.assembly", |_| p.static_system());
    counts.local_nnz = assembled.stiffness.nnz();
    let (a, b, sc) = rec.span("sparse.scaling", |_| {
        scale_system(&assembled.stiffness, &assembled.rhs).expect("square assembled system")
    });
    let systems = rec.span("dd.split", |_| RddSystem::build_all(&a, &b, &part));
    let coords = p.as_problem().coords3();
    let coarse = rec.span("dd.coarse_build", |_| {
        let basis = rdd_coarse_basis(
            &probe_coarse_spec(&inst.precond),
            &a,
            sc.diagonal(),
            &part,
            &p.dof_map,
            &coords,
            DEFAULT_PIVOT_TOL,
        );
        counts.coarse_dim = basis.n_modes();
        rdd_coarse_solvers(&basis, &systems)
    });
    Scaled {
        locals: systems.into_iter().map(|s| s.a_loc).collect(),
        coarse,
    }
}

/// Repeats `f` for at least [`KERNEL_CALLS`] calls and
/// [`KERNEL_SECONDS`], returning the median seconds per call.
fn time_calls(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < KERNEL_CALLS || start.elapsed().as_secs_f64() < KERNEL_SECONDS {
        let t = Instant::now();
        f();
        per_call.push(t.elapsed().as_secs_f64());
    }
    median(&per_call).expect("at least one call")
}

/// Median seconds of one neighbour exchange of `len` values and of one
/// scalar all-reduce between two rank threads, measured on rank 0.
fn ping(len: usize) -> (f64, f64) {
    let out = run_ranks(RANKS, MachineModel::ideal(), |comm| {
        let peer = [1 - comm.rank()];
        let data = vec![vec![1.0; len.max(1)]];
        let mut exchange = Vec::with_capacity(PING_ROUNDS);
        let mut allreduce = Vec::with_capacity(PING_ROUNDS);
        for _ in 0..PING_ROUNDS {
            let t = Instant::now();
            black_box(comm.exchange(&peer, &data));
            exchange.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            black_box(comm.allreduce_sum_scalar(1.0));
            allreduce.push(t.elapsed().as_secs_f64());
        }
        (
            median(&exchange).expect("ping rounds"),
            median(&allreduce).expect("ping rounds"),
        )
    });
    out.results[0]
}
