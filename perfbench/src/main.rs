//! Command-line entry of the benchmark:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines go first; the last line of standard output is the
//! JSON result. `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer metrics and writes the recorded spans under [`SPANS_DIR`].

use parfem_perfbench::host::{self, CpuTimes};
use parfem_perfbench::layers::{self, KernelTimes, RoundCounts};
use parfem_perfbench::measure::{self, Samples};
use parfem_perfbench::median;
use parfem_perfbench::metrics::{result_json, MetricSpec, END_TO_END, PER_LAYER};
use parfem_perfbench::spans::SpanRecorder;
use parfem_perfbench::workload::{self, Instance, RANKS, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Where a traced run writes its spans, relative to the working directory
/// (the repository root when run through `BENCHMARK.json`).
const SPANS_DIR: &str = "perfbench/out";

/// Share of a traced run's budget spent on the traced/untraced solve
/// pairs; the rest goes to the layer probes.
const TRACED_SOLVE_SHARE: f64 = 0.6;

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => return Err(format!("bad --seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad --trace {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let nproc = host::nproc();
    println!(
        "workload {}: {} {}x{}x{}, {:?}, {}, P={RANKS}, nproc={nproc}, seed={}",
        w.name, w.physics, w.grid.0, w.grid.1, w.grid.2, w.decomposition, w.precond, args.seed
    );
    if RANKS > nproc {
        println!(
            "skipped: P={RANKS} exceeds nproc={nproc}; a workload is never timed oversubscribed"
        );
        return ExitCode::from(3);
    }

    let cpu_start = CpuTimes::now();
    let inst = Instance::new(w, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (specs, values, samples): (&[MetricSpec], _, _) = if args.trace {
        let (values, samples) = traced_run(&inst, start, budget, &args);
        (&PER_LAYER, values, samples)
    } else {
        let samples = measure::run(&inst, start + budget, false);
        (&END_TO_END, end_to_end_values(&samples), samples)
    };
    let steal = CpuTimes::now().steal_frac_since(&cpu_start);

    println!(
        "policy: warm-up of 1 full solve + 1 set-up session discarded; {} rounds timed \
         (set-up session + full solve{}); medians reported",
        samples.rounds,
        if args.trace {
            " + traced full solve"
        } else {
            ""
        }
    );
    if let Some(p) = samples.passed {
        println!(
            "solve: iterations={} restarts={} true_rel_res={:.4e} (seed {})",
            p.iterations, p.restarts, p.true_rel_res, args.seed
        );
    }
    println!("host: nproc={nproc} P={RANKS} steal_frac={steal:.5}");
    for f in &samples.failures {
        println!("FAILED {f}");
    }

    let mut values = values;
    if args.trace {
        values.insert("host.steal_frac", steal);
    }
    let correct = samples.failures.is_empty() && samples.passed.is_some();
    match result_json(correct, samples.attempted, samples.failed(), specs, &values) {
        Ok(line) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn end_to_end_values(s: &Samples) -> BTreeMap<&'static str, f64> {
    let mut v = BTreeMap::new();
    if let Some(t) = s.solve_median() {
        v.insert("solve_s", t);
    }
    if let Some(t) = s.setup_median() {
        v.insert("setup_s", t);
    }
    if let Some(p) = s.passed {
        v.insert("true_rel_res", p.true_rel_res);
    }
    if let Some(mb) = host::peak_rss_mb() {
        v.insert("peak_rss_mb", mb);
    }
    v
}

/// The traced run: traced/untraced solve pairs for the tracing overhead
/// and the iteration time, then layer probe rounds until the budget ends.
fn traced_run(
    inst: &Instance,
    start: Instant,
    budget: Duration,
    args: &Args,
) -> (BTreeMap<&'static str, f64>, Samples) {
    let samples = measure::run(inst, start + budget.mul_f64(TRACED_SOLVE_SHARE), true);
    let mut v = BTreeMap::new();

    let passed = samples.passed;
    let solve = samples.solve_median();
    let setup = samples.setup_median();
    let traced = median(&samples.traced_solve_s);
    if let (Some(p), Some(solve), Some(setup)) = (passed, solve, setup) {
        v.insert("krylov.iterations", p.iterations as f64);
        v.insert("krylov.restarts", p.restarts as f64);
        v.insert(
            "krylov.iter_ms",
            1e3 * (solve - setup) / p.iterations.max(1) as f64,
        );
        if let Some(traced) = traced {
            v.insert("trace.overhead_ratio", traced / solve);
        }
    }
    if let Some(applies) = samples.precond_applies {
        v.insert("precond.applies", applies as f64);
    }
    // Message counts summed over both ranks' `CommStats`; the ping sends
    // messages of the solve's mean exchange size.
    let mut exchange_len = 1;
    if let Some(out) = &samples.warm_up {
        let total = out
            .reports
            .iter()
            .fold(parfem::msg::CommStats::default(), |acc, r| {
                acc.merged(&r.stats)
            });
        v.insert("msg.exchanges", total.neighbor_exchanges as f64);
        v.insert("msg.allreduces", total.allreduces as f64);
        v.insert("msg.bytes_sent", total.bytes_sent as f64);
        v.insert("msg.modeled_s", out.modeled_time);
        exchange_len = (total.bytes_sent / total.sends.max(1) / 8) as usize;
    }

    let mut rec = SpanRecorder::new();
    let mut counts = RoundCounts::default();
    let mut kernels: Vec<KernelTimes> = Vec::new();
    while kernels.is_empty() || start.elapsed() < budget {
        rec.set_round(kernels.len());
        let (c, k) = rec.span("probe", |rec| layers::probe_round(inst, rec, exchange_len));
        counts = c;
        kernels.push(k);
    }

    let self_times = rec.self_times_by_name();
    println!(
        "layer self times over {} probe rounds (median):",
        kernels.len()
    );
    for (name, ts) in &self_times {
        println!("  {name:<18} {:>12.6} s", median(ts).unwrap_or(0.0));
    }
    let phase = |name: &str| self_times.get(name).and_then(|ts| median(ts));
    for (metric, span) in [
        ("mesh.partition_s", "mesh.partition"),
        ("fem.assembly_s", "fem.assembly"),
        ("sparse.scaling_s", "sparse.scaling"),
        ("sparse.factor_s", "sparse.factor"),
        ("precond.build_s", "precond.build"),
        ("dd.coarse_build_s", "dd.coarse_build"),
    ] {
        if let Some(t) = phase(span) {
            v.insert(metric, t);
        }
    }
    let kernel = |f: fn(&KernelTimes) -> f64| {
        median(&kernels.iter().map(f).collect::<Vec<_>>()).expect("one probe round")
    };
    let spmv = kernel(|k| k.spmv);
    v.insert("sparse.spmv_us", 1e6 * spmv);
    v.insert(
        "sparse.spmv_gflops",
        2.0 * counts.spmv_nnz as f64 / spmv / 1e9,
    );
    // Computed, not measured: values and column indices once, row
    // pointers, one read of x and one write of y.
    let spmv_bytes = 16 * counts.spmv_nnz + 8 * (counts.spmv_rows + 1) + 16 * counts.spmv_rows;
    v.insert("sparse.spmv_bytes", spmv_bytes as f64);
    v.insert("precond.apply_us", 1e6 * kernel(|k| k.precond_apply));
    v.insert("krylov.orth_us", 1e6 * kernel(|k| k.orth));
    v.insert("msg.exchange_us", 1e6 * kernel(|k| k.exchange));
    v.insert("msg.allreduce_us", 1e6 * kernel(|k| k.allreduce));
    v.insert("mesh.edge_cut", counts.edge_cut as f64);
    v.insert("mesh.imbalance", counts.imbalance);
    v.insert("fem.local_nnz", counts.local_nnz as f64);
    v.insert(
        "sparse.factor_solve_flops",
        counts.factor_solve_flops as f64,
    );
    v.insert("sparse.skipped_pivots", counts.skipped_pivots as f64);
    v.insert("dd.coarse_dim", counts.coarse_dim as f64);

    write_spans(&rec, args);
    (v, samples)
}

/// Writes the recorded spans as JSON Lines; a failure to write is
/// reported but does not fail the run.
fn write_spans(rec: &SpanRecorder, args: &Args) {
    let path = Path::new(SPANS_DIR).join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name, args.seed
    ));
    let written =
        std::fs::create_dir_all(SPANS_DIR).and_then(|()| std::fs::write(&path, rec.to_jsonl()));
    match written {
        Ok(()) => println!("spans: {} written to {}", rec.spans().len(), path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }
}
