//! The fixed workloads and the seeded inputs they are solved with.
//!
//! Every workload runs at [`RANKS`] ranks on strip partitions under the
//! SGI-Origin machine model, at `tol = 1e-6` and `restart = 25`. The seed
//! only changes the free-end load vector; mesh, partition and
//! preconditioner stay fixed, so two seeds solve the same operator with
//! different right-hand sides.

use crate::Rng;
use parfem::dd::{DdSolveOutput, SolveFailures, SolveSession, Strategy};
use parfem::fem::{assembly::StaticSystem, Material, Physics};
use parfem::krylov::GmresConfig;
use parfem::mesh::PartitionerSpec;
use parfem::msg::MachineModel;
use parfem::precond::PrecondSpec;
use parfem::problems::{LoadCase, PhysicsProblem};
use parfem::trace::{MetricsRegistry, TraceSink};
use std::time::Instant;

/// Rank count of every workload (one rank thread per core of a 2-core
/// host; a host with fewer cores skips the workload instead of timing it
/// oversubscribed).
pub const RANKS: usize = 2;
/// Relative residual tolerance of every solve (the paper's setting).
pub const TOL: f64 = 1e-6;
/// FGMRES restart length (the paper's `m̃`).
pub const RESTART: usize = 25;
/// Iteration budget of a full solve: far above any workload's count, so
/// hitting it means the solve failed.
pub const MAX_ITERS: usize = 10_000;

/// Relative spread of the axial free-end load per node.
const AXIAL_JITTER: f64 = 0.25;

/// Which decomposition a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decomposition {
    /// Element-based (the paper's method), enhanced variant.
    Edd,
    /// Row-based block rows (the PSPARSLIB/Aztec-style baseline).
    Rdd,
}

/// One fixed (problem, strategy, preconditioner) combination.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Physics assembled on the cantilever geometry.
    pub physics: Physics,
    /// Element grid `(nx, ny, nz)`; `nz` is ignored by 2-D physics.
    pub grid: (usize, usize, usize),
    /// Decomposition strategy.
    pub decomposition: Decomposition,
    /// Preconditioner spec in the registry grammar.
    pub precond: &'static str,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cantilever-gls7",
        physics: Physics::Elasticity2d,
        grid: (200, 50, 1),
        decomposition: Decomposition::Edd,
        precond: "gls:7",
    },
    Workload {
        name: "cantilever-twolevel",
        physics: Physics::Elasticity2d,
        grid: (200, 50, 1),
        decomposition: Decomposition::Edd,
        precond: "twolevel:rbm.s3:gls-3",
    },
    Workload {
        name: "hex-rdd-direct",
        physics: Physics::Elasticity3d,
        grid: (32, 5, 5),
        decomposition: Decomposition::Rdd,
        precond: "direct",
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A workload instantiated for one seed: the generated problem, its fixed
/// partition and preconditioner, and the assembled global system every
/// solution is checked against.
pub struct Instance {
    /// The workload this instance realizes.
    pub workload: Workload,
    /// The generated problem (seeded free-end loads).
    pub problem: PhysicsProblem,
    /// The fixed partition wrapped as the session strategy.
    pub strategy: Strategy,
    /// The parsed preconditioner spec.
    pub precond: PrecondSpec,
    /// The assembled constrained global system `K u = f`.
    pub reference: StaticSystem,
}

impl Instance {
    /// Generates the workload's problem for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut problem = PhysicsProblem::cantilever(
            workload.physics,
            workload.grid,
            Material::unit(),
            LoadCase::PullX(1.0),
        );
        problem.loads = seeded_loads(&problem, seed);
        let strategy = match workload.decomposition {
            Decomposition::Edd => {
                Strategy::Edd(problem.element_partition(&PartitionerSpec::Strips, RANKS))
            }
            Decomposition::Rdd => Strategy::Rdd(problem.node_partition(RANKS)),
        };
        let precond = PrecondSpec::parse(workload.precond).expect("workload spec parses");
        let reference = problem.static_system();
        Instance {
            workload,
            problem,
            strategy,
            precond,
            reference,
        }
    }

    /// Runs one session of this instance, stopping after at most
    /// `max_iters` FGMRES iterations (`0` stops before the first Arnoldi
    /// step, leaving only the set-up work), and returns its wall seconds
    /// with its outcome. Only `SolveSession::run` sits inside the timer;
    /// the session is configured before it starts.
    pub fn solve(
        &self,
        max_iters: usize,
        trace: Option<&TraceSink>,
        metrics: Option<&MetricsRegistry>,
    ) -> Timed {
        let mut session = SolveSession::new(self.problem.as_problem())
            .strategy(self.strategy.clone())
            .precond(self.precond.clone())
            .machine(MachineModel::sgi_origin())
            .gmres(GmresConfig {
                restart: RESTART,
                tol: TOL,
                max_iters,
                ..GmresConfig::default()
            });
        if let Some(sink) = trace {
            session = session.trace(sink);
        }
        if let Some(m) = metrics {
            session = session.metrics(m);
        }
        let start = Instant::now();
        let outcome = session.run();
        Timed {
            seconds: start.elapsed().as_secs_f64(),
            outcome,
        }
    }
}

/// One timed session run.
pub struct Timed {
    /// Wall seconds of `SolveSession::run`.
    pub seconds: f64,
    /// What the session returned.
    pub outcome: Result<DdSolveOutput, SolveFailures>,
}

/// The paper's unit pulling load with a seeded profile across the free
/// end: each loaded node's axial load is scaled by `1 ± AXIAL_JITTER`.
/// The factor depends only on the seed and the node's distance from the
/// bar's mid-plane(s), so mirror-image nodes carry equal loads. The load
/// then has no net moment: it pulls the bar without bending it, the case
/// the paper's convergence experiments use.
pub fn seeded_loads(problem: &PhysicsProblem, seed: u64) -> Vec<f64> {
    let dm = &problem.dof_map;
    let coords = problem.as_problem().coords3();
    let loaded: Vec<usize> = (0..coords.len())
        .filter(|&n| problem.loads[dm.dof(n, 0)] != 0.0)
        .collect();
    let mid = |k: usize| {
        let (lo, hi) = loaded.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &n| {
            (lo.min(coords[n][k]), hi.max(coords[n][k]))
        });
        0.5 * (lo + hi)
    };
    let (ymid, zmid) = (mid(1), mid(2));
    let mut loads = problem.loads.clone();
    for &n in &loaded {
        let quantize = |d: f64| (d.abs() * 1e6).round() as u64;
        let key = quantize(coords[n][1] - ymid)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(quantize(coords[n][2] - zmid));
        let factor = 1.0 + AXIAL_JITTER * Rng::new(seed ^ key).symmetric();
        loads[dm.dof(n, 0)] *= factor;
    }
    loads
}
