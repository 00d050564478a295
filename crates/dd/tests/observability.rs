//! End-to-end contracts for the observability stack: the critical-path
//! analyzer, the chrome exporter and the metrics registry, all driven by
//! real [`SolveSession`] runs.
//!
//! The load-bearing assertion (the PR's acceptance criterion) is
//! [`critical_path_length_equals_makespan_on_p8_overlapped_solve`]: on a
//! recorded 8-rank overlapped solve, the reconstructed cross-rank
//! dependency chain must tile `[0, makespan]` exactly — every instant of
//! the modeled parallel time is attributed to compute, a message in
//! flight, or a collective on some rank.

use parfem_dd::{edd_coarse_basis, PrecondSpec, Problem, SolveSession, SolverConfig, Strategy};
use parfem_fem::{assembly, Material, SubdomainSystem};
use parfem_krylov::gmres::GmresConfig;
use parfem_mesh::{DofMap, Edge, ElementPartition, QuadMesh};
use parfem_msg::{CommStats, FaultPlan, MachineModel};
use parfem_precond::twolevel::CoarseSpec;
use parfem_sparse::skyline::DEFAULT_PIVOT_TOL;
use parfem_trace::{
    export_chrome_trace, json, jsonl, render_phase_table, CritPath, MetricsRegistry, SegmentKind,
    TraceReport, TraceSink,
};
use std::time::Duration;

fn problem(nx: usize, ny: usize) -> (QuadMesh, DofMap, Material, Vec<f64>) {
    let mesh = QuadMesh::cantilever(nx, ny);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
    (mesh, dm, mat, loads)
}

fn cfg() -> SolverConfig {
    SolverConfig {
        gmres: GmresConfig {
            tol: 1e-8,
            ..Default::default()
        },
        comm_timeout: Duration::from_secs(10),
        ..Default::default()
    }
}

/// Acceptance: on a P=8 overlapped solve on the virtual IBM SP2, the
/// critical path's virtual-time length equals the observed makespan, and
/// its segments tile `[0, makespan]` without gaps or overlaps.
#[test]
fn critical_path_length_equals_makespan_on_p8_overlapped_solve() {
    let (mesh, dm, mat, loads) = problem(48, 12);
    let part = ElementPartition::strips_x(&mesh, 8);
    let sink = TraceSink::recording();
    let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .config(cfg())
        .machine(MachineModel::ibm_sp2())
        .overlap(true)
        .trace(&sink)
        .run()
        .expect("fault-free solve");
    assert!(out.history.converged());
    let events = sink.take_events();
    let cp = CritPath::from_events(&events);

    assert_eq!(cp.nranks, 8);
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-300);
    assert!(
        rel(cp.makespan, out.modeled_time) <= 1e-12,
        "critpath makespan {} vs observed modeled time {}",
        cp.makespan,
        out.modeled_time
    );
    assert!(
        rel(cp.path_length(), cp.makespan) <= 1e-9,
        "path length {} must equal makespan {}",
        cp.path_length(),
        cp.makespan
    );

    // The segments tile [0, makespan]: start at 0, contiguous, end at the
    // makespan, each with non-negative extent.
    assert!(!cp.segments.is_empty());
    assert!(cp.segments[0].t0.abs() <= 1e-15 * cp.makespan.max(1.0));
    for w in cp.segments.windows(2) {
        assert!(
            (w[0].t1 - w[1].t0).abs() <= 1e-12 * cp.makespan,
            "gap between path segments: {} .. {}",
            w[0].t1,
            w[1].t0
        );
    }
    for s in &cp.segments {
        assert!(s.t1 >= s.t0 - 1e-15, "negative-extent segment");
        assert!(s.rank < 8);
    }
    let last = cp.segments.last().unwrap();
    assert!(rel(last.t1, cp.makespan) <= 1e-12);

    // An 8-rank GMRES run synchronizes on all-reduces every iteration: the
    // path must contain collective hops, and the bounding rank is real.
    assert!(
        cp.segments
            .iter()
            .any(|s| matches!(s.kind, SegmentKind::Collective)),
        "an FGMRES critical path without collectives is wrong"
    );
    assert!(cp.bound_rank < 8);
    assert!(cp.efficiency > 0.0 && cp.efficiency <= 1.0 + 1e-12);

    // Per-rank wait decomposition: busy + waits + idle tail == final virt.
    for r in &cp.ranks {
        let sum = r.busy + r.recv_wait + r.collective_wait + r.collective_cost + r.idle_tail;
        assert!(
            rel(sum, cp.makespan) <= 1e-9,
            "rank {} decomposition {} vs makespan {}",
            r.rank,
            sum,
            cp.makespan
        );
    }

    // The JSON export is valid JSON with the pinned schema.
    let doc = json::parse(&cp.to_json()).expect("critpath JSON parses");
    assert_eq!(
        doc.get("schema").and_then(json::Json::as_str),
        Some("parfem-critpath-v1")
    );

    // And the chrome export of the same trace is valid trace_event JSON.
    let chrome = json::parse(&export_chrome_trace(&events)).expect("chrome JSON parses");
    let n = chrome
        .get("traceEvents")
        .and_then(json::Json::as_array)
        .expect("traceEvents array")
        .len();
    assert!(n > events.len(), "metadata records plus one per event");
}

/// Trace-consistency under the full option stack: a traced + overlapped +
/// faulted session's aggregated comm totals equal the communicator's own
/// [`CommStats`], and each rank's top-level phase totals sum to its final
/// virtual clock (whose max is the makespan).
#[test]
fn trace_report_matches_comm_stats_under_faults_and_overlap() {
    let (mesh, dm, mat, loads) = problem(20, 6);
    let part = ElementPartition::strips_x(&mesh, 4);
    let sink = TraceSink::recording();
    let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .config(cfg())
        .machine(MachineModel::ibm_sp2())
        .overlap(true)
        .faults(
            FaultPlan::new(7)
                .with_drops(0.15)
                .with_duplicates(0.1)
                .with_retry_policy(30, 1e-3, 2.0),
        )
        .trace(&sink)
        .run()
        .expect("recoverable faults must not fail the solve");
    assert!(out.history.converged());
    let events = sink.take_events();
    let report = TraceReport::from_events(&events);

    // Comm totals: the trace events and the CommStats counters are two
    // independent records of the same physical traffic.
    let mut stats = CommStats::default();
    for r in &out.reports {
        stats = stats.merged(&r.stats);
    }
    let totals = report.comm_totals();
    assert_eq!(totals.sends, stats.sends, "sends");
    assert_eq!(totals.bytes_sent, stats.bytes_sent, "bytes sent");
    assert_eq!(totals.recvs, stats.recvs, "recvs");
    assert_eq!(totals.bytes_received, stats.bytes_received, "bytes recvd");
    assert_eq!(totals.allreduces, stats.allreduces, "allreduces");
    assert_eq!(totals.barriers, stats.barriers, "barriers");
    assert_eq!(
        totals.neighbor_exchanges, stats.neighbor_exchanges,
        "exchanges"
    );

    // Phase coverage: scaling + precond-build + fgmres tile each rank's
    // virtual timeline, so their virtual durations sum to its final clock.
    assert_eq!(report.nranks(), 4);
    for r in &report.ranks {
        let phase_sum: f64 = r
            .phases
            .iter()
            .filter(|p| ["scaling", "precond-build", "fgmres"].contains(&p.name.as_str()))
            .map(|p| p.virt_s)
            .sum();
        assert!(
            (phase_sum - r.final_virt).abs() <= 1e-9 * r.final_virt.max(1e-300),
            "rank {}: phases sum to {} but final virt is {}",
            r.rank,
            phase_sum,
            r.final_virt
        );
    }
    let max_virt = report.ranks.iter().fold(0.0f64, |m, r| m.max(r.final_virt));
    assert!((report.makespan_virt() - max_virt).abs() <= 1e-15 * max_virt.max(1.0));

    // The critical path reconstructs even under retransmission noise.
    let cp = CritPath::from_events(&events);
    assert!(
        (cp.path_length() - cp.makespan).abs() <= 1e-9 * cp.makespan,
        "faulted path length {} vs makespan {}",
        cp.path_length(),
        cp.makespan
    );
}

/// The metrics registry observes a whole session end to end: solver
/// counters agree with the convergence history, aggregate comm counters
/// agree with [`CommStats`], fault counters fire under injection, and the
/// text exposition renders every family.
#[test]
fn metrics_registry_observes_a_faulted_session() {
    let (mesh, dm, mat, loads) = problem(16, 4);
    let part = ElementPartition::strips_x(&mesh, 4);
    let metrics = MetricsRegistry::new();
    let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .config(cfg())
        .machine(MachineModel::sgi_origin())
        .faults(
            FaultPlan::new(5)
                .with_drops(0.2)
                .with_retry_policy(30, 1e-3, 2.0),
        )
        .metrics(&metrics)
        .run()
        .expect("recoverable faults must not fail the solve");
    assert!(out.history.converged());

    let c = |name: &str| metrics.counter_value(name).unwrap_or(0);
    // Solver counters are recorded on rank 0 only, so they match the
    // (rank-identical) history exactly — no SPMD multiplication.
    assert_eq!(
        c("parfem_solver_iterations_total"),
        out.history.iterations() as u64
    );
    assert_eq!(
        c("parfem_solver_restarts_total"),
        out.history.restarts as u64
    );
    assert_eq!(c("parfem_solver_solves_total"), 1);
    assert_eq!(c("parfem_solver_converged_total"), 1);
    assert_eq!(c("parfem_session_solves_total"), 1);
    assert_eq!(c("parfem_session_solve_failures_total"), 0);
    assert!(c("parfem_solver_precond_applies_total") > 0);

    // Aggregate comm counters equal the summed CommStats.
    let mut stats = CommStats::default();
    for r in &out.reports {
        stats = stats.merged(&r.stats);
    }
    assert_eq!(c("parfem_msg_sends_total"), stats.sends);
    assert_eq!(c("parfem_msg_sent_bytes_total"), stats.bytes_sent);
    assert_eq!(c("parfem_msg_exchanges_total"), stats.neighbor_exchanges);
    assert_eq!(c("parfem_msg_allreduces_total"), stats.allreduces);
    assert_eq!(c("parfem_compute_flops_total"), stats.flops);

    // Fault machinery: a 20% drop plan over a whole solve must drop and
    // retransmit, and every drop is answered by exactly one retransmission.
    let drops = c("parfem_fault_drops_total");
    assert!(drops > 0, "a 20% drop plan must drop frames");
    assert_eq!(drops, c("parfem_fault_retransmits_total"));

    // The gauge mirrors the output, and the exposition renders counters,
    // gauges and histograms.
    let text = metrics.render();
    assert!(text.contains("# TYPE parfem_solver_iterations_total counter"));
    assert!(text.contains("# TYPE parfem_session_last_modeled_seconds gauge"));
    assert!(text.contains("parfem_rank_virtual_microseconds_p95"));
    assert!(
        text.contains(&format!("parfem_msg_sends_total {}", stats.sends)),
        "exposition:\n{text}"
    );
}

/// A disabled registry (the default) records nothing and renders empty —
/// the zero-overhead contract.
#[test]
fn disabled_registry_stays_empty() {
    let (mesh, dm, mat, loads) = problem(8, 2);
    let part = ElementPartition::strips_x(&mesh, 2);
    let metrics = MetricsRegistry::disabled();
    let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .config(cfg())
        .metrics(&metrics)
        .run()
        .expect("fault-free solve");
    assert!(out.history.converged());
    assert!(!metrics.is_enabled());
    assert_eq!(
        metrics.counter_value("parfem_solver_iterations_total"),
        None
    );
    assert_eq!(metrics.render(), "");
}

/// The `coarse-build` host span describes the basis it built: its closing
/// event carries the mode count, the modes the Galerkin factorization
/// pivoted out, the smoothing passes and the prolongator's entry count.
/// They survive the JSON-Lines round trip, match the basis built directly,
/// and `parfem report`'s phase table prints them.
#[test]
fn coarse_build_span_describes_the_basis() {
    let (mesh, dm, mat, loads) = problem(24, 6);
    let part = ElementPartition::strips_x(&mesh, 3);
    let sink = TraceSink::recording();
    let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part.clone()))
        .config(SolverConfig {
            precond: PrecondSpec::parse("twolevel:rbm.s3:gls-3").unwrap(),
            ..cfg()
        })
        .trace(&sink)
        .run()
        .expect("fault-free two-level solve");
    assert!(out.history.converged());

    let mut buf = Vec::new();
    sink.write_jsonl(&mut buf).unwrap();
    let events = jsonl::decode_all(std::str::from_utf8(&buf).unwrap()).unwrap();
    let report = TraceReport::from_events(&events);
    let span = report
        .host_phases
        .iter()
        .find(|p| p.name == "coarse-build")
        .expect("a two-level solve records a coarse-build span");
    let field = |key: &str| {
        span.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_u64())
            .unwrap_or_else(|| panic!("coarse-build span lacks {key}: {:?}", span.fields))
    };

    let systems: Vec<SubdomainSystem> = part
        .subdomains(&mesh)
        .iter()
        .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, None))
        .collect();
    let coords = Problem::new(&mesh, &dm, &mat, &loads).coords3();
    let basis = edd_coarse_basis(
        &CoarseSpec::parse("rbm.s3").unwrap(),
        &systems,
        dm.n_dofs(),
        Some(&coords),
        dm.dofs_per_node(),
        DEFAULT_PIVOT_TOL,
    );
    assert_eq!(
        field("coarse_modes"),
        9,
        "3 rigid-body modes on each of 3 parts"
    );
    assert_eq!(field("coarse_modes"), basis.n_modes() as u64);
    assert_eq!(
        field("coarse_skipped_modes"),
        basis.factor.skipped_modes().len() as u64
    );
    assert_eq!(field("smoothing_passes"), 3);
    let nnz: usize = basis.modes.iter().map(Vec::len).sum();
    assert_eq!(field("prolong_nnz"), nnz as u64);

    let table = render_phase_table(&report);
    let line = table
        .lines()
        .find(|l| l.contains("coarse-build"))
        .expect("phase table lists coarse-build");
    for key in [
        "coarse_modes=9",
        "coarse_skipped_modes=",
        "smoothing_passes=3",
        &format!("prolong_nnz={nnz}"),
    ] {
        assert!(line.contains(key), "{key} missing from: {line}");
    }
}
