//! The end-to-end measurement loop.
//!
//! A run first discards one warm-up round, then repeats rounds until its
//! time budget is spent: each round times one set-up-only session (zero
//! iteration budget) and one full solve, and — in the traced run — one
//! full solve recording into a [`TraceSink`]. Every session passes the
//! correctness gate; a failing one counts as failed and its time is not
//! kept. The reported figures are medians over the kept rounds.

use crate::gate::{self, Passed};
use crate::median;
use crate::workload::{Instance, MAX_ITERS};
use parfem::dd::DdSolveOutput;
use parfem::trace::{MetricsRegistry, TraceSink};
use std::time::Instant;

/// Rounds a run takes even when its time budget is already spent.
pub const MIN_ROUNDS: usize = 3;

/// Everything the end-to-end loop observed.
#[derive(Default)]
pub struct Samples {
    /// Wall seconds of each full solve that passed the gate.
    pub solve_s: Vec<f64>,
    /// Wall seconds of each set-up-only session that passed its check.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each traced full solve that passed the gate.
    pub traced_solve_s: Vec<f64>,
    /// Sessions run, warm-up included.
    pub attempted: u64,
    /// Sessions that failed the gate, with the reasons.
    pub failures: Vec<String>,
    /// Gate figures of the last passing full solve (every solve of one
    /// instance is deterministic, so any one stands for all).
    pub passed: Option<Passed>,
    /// Output of the warm-up solve, which ran with an enabled metrics
    /// registry: communication counts and modeled time.
    pub warm_up: Option<DdSolveOutput>,
    /// Preconditioner applications the warm-up solve recorded on rank 0.
    pub precond_applies: Option<u64>,
    /// Rounds timed after the warm-up.
    pub rounds: usize,
}

impl Samples {
    /// Sessions that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Median full-solve seconds.
    pub fn solve_median(&self) -> Option<f64> {
        median(&self.solve_s)
    }

    /// Median set-up-only seconds.
    pub fn setup_median(&self) -> Option<f64> {
        median(&self.setup_s)
    }

    fn full_solve(
        &mut self,
        inst: &Instance,
        sink: Option<&TraceSink>,
        metrics: Option<&MetricsRegistry>,
    ) -> Option<(f64, DdSolveOutput)> {
        self.attempted += 1;
        let t = inst.solve(MAX_ITERS, sink, metrics);
        match gate::check_solve(&inst.reference, &t.outcome) {
            Ok(p) => {
                self.passed = Some(p);
                t.outcome.ok().map(|out| (t.seconds, out))
            }
            Err(e) => {
                self.failures.push(format!("solve: {e}"));
                None
            }
        }
    }

    fn setup_only(&mut self, inst: &Instance) -> Option<f64> {
        self.attempted += 1;
        let t = inst.solve(0, None, None);
        match gate::check_setup(&t.outcome) {
            Ok(()) => Some(t.seconds),
            Err(e) => {
                self.failures.push(format!("set-up: {e}"));
                None
            }
        }
    }
}

/// Runs the warm-up round and then timed rounds until `deadline` (and at
/// least [`MIN_ROUNDS`]). With `traced` set, each round adds a full solve
/// under a recording [`TraceSink`].
pub fn run(inst: &Instance, deadline: Instant, traced: bool) -> Samples {
    let mut s = Samples::default();
    let registry = MetricsRegistry::new();
    s.warm_up = s
        .full_solve(inst, None, Some(&registry))
        .map(|(_, out)| out);
    s.precond_applies = registry.counter_value("parfem_solver_precond_applies_total");
    s.setup_only(inst);
    while s.rounds < MIN_ROUNDS || Instant::now() < deadline {
        if let Some(t) = s.setup_only(inst) {
            s.setup_s.push(t);
        }
        if let Some((t, _)) = s.full_solve(inst, None, None) {
            s.solve_s.push(t);
        }
        if traced {
            let sink = TraceSink::recording();
            if let Some((t, _)) = s.full_solve(inst, Some(&sink), None) {
                s.traced_solve_s.push(t);
            }
        }
        s.rounds += 1;
    }
    s
}
