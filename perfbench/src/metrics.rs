//! Metric names and units, and the one-line JSON result.
//!
//! The tables here are the benchmark's contract with `BENCHMARK.json`:
//! a run with tracing off prints exactly [`END_TO_END`], a traced run
//! exactly [`PER_LAYER`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Name as printed in the result.
    pub name: &'static str,
    /// Unit as printed in the result.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// What a user of the solver sees, measured with tracing off.
pub const END_TO_END: [MetricSpec; 4] = [
    m("solve_s", "s"),
    m("setup_s", "s"),
    m("true_rel_res", "ratio"),
    m("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. Times of whole phases are median
/// self times of the benchmark's spans over the probe rounds; kernel
/// times (`*_us`) are median per-call times.
pub const PER_LAYER: [MetricSpec; 29] = [
    m("mesh.partition_s", "s"),
    m("mesh.edge_cut", "count"),
    m("mesh.imbalance", "ratio"),
    m("fem.assembly_s", "s"),
    m("fem.local_nnz", "count"),
    m("sparse.scaling_s", "s"),
    m("sparse.spmv_us", "us"),
    m("sparse.spmv_gflops", "GFLOP/s"),
    m("sparse.spmv_bytes", "bytes"),
    m("sparse.factor_s", "s"),
    m("sparse.factor_solve_flops", "flop"),
    m("sparse.skipped_pivots", "count"),
    m("precond.build_s", "s"),
    m("precond.apply_us", "us"),
    m("precond.applies", "count"),
    m("dd.coarse_build_s", "s"),
    m("dd.coarse_dim", "count"),
    m("krylov.iterations", "count"),
    m("krylov.restarts", "count"),
    m("krylov.iter_ms", "ms"),
    m("krylov.orth_us", "us"),
    m("msg.exchanges", "count"),
    m("msg.allreduces", "count"),
    m("msg.bytes_sent", "bytes"),
    m("msg.exchange_us", "us"),
    m("msg.allreduce_us", "us"),
    m("msg.modeled_s", "model_s"),
    m("trace.overhead_ratio", "ratio"),
    m("host.steal_frac", "ratio"),
];

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of `specs`, in table order.
///
/// # Errors
/// Names the first metric of `specs` missing from `values` or not finite.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[MetricSpec],
    values: &BTreeMap<&str, f64>,
) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, spec) in specs.iter().enumerate() {
        let v = *values
            .get(spec.name)
            .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", spec.name));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        // `{:?}` keeps every digit and always prints a decimal point or
        // exponent, so integers-valued counts still read as JSON numbers.
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            spec.name, v, spec.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    ))
}
