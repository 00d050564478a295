//! The correctness gate every timed solve passes through.
//!
//! A full solve counts only when the session returned, FGMRES reports
//! convergence, and the true relative residual `‖K u − f‖₂ / ‖f‖₂` on the
//! assembled global system stays within [`MAX_TRUE_REL_RES`]. Convergence
//! is tested on the norm-1-scaled system, so at `tol = 1e-6` the true
//! residual reads 1.0–1.4e-6 on every workload; the bound leaves that a
//! margin of more than three. A solve that fails the gate is a failed
//! operation and its time is dropped, so a broken solver cannot read as a
//! fast one.

use parfem::dd::{DdSolveOutput, SolveFailures};
use parfem::fem::assembly::StaticSystem;

/// Largest accepted true relative residual of a full solve.
pub const MAX_TRUE_REL_RES: f64 = 5e-6;

/// `‖K u − f‖₂ / ‖f‖₂` on the assembled constrained system.
pub fn true_rel_res(reference: &StaticSystem, u: &[f64]) -> f64 {
    let r = reference.stiffness.spmv(u);
    let res = r
        .iter()
        .zip(&reference.rhs)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    let rhs = reference.rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
    res / rhs
}

/// A solve that passed the gate.
#[derive(Debug, Clone, Copy)]
pub struct Passed {
    /// FGMRES iterations the solve took.
    pub iterations: usize,
    /// FGMRES restarts the solve took.
    pub restarts: usize,
    /// True relative residual on the assembled system.
    pub true_rel_res: f64,
}

/// Checks a full solve. `Err` carries the reason it counts as failed.
pub fn check_solve(
    reference: &StaticSystem,
    outcome: &Result<DdSolveOutput, SolveFailures>,
) -> Result<Passed, String> {
    let out = outcome
        .as_ref()
        .map_err(|e| format!("session failed: {e}"))?;
    if !out.history.converged() {
        return Err(format!(
            "not converged after {} iterations ({:?})",
            out.history.iterations(),
            out.history.stop
        ));
    }
    let rel = true_rel_res(reference, &out.u);
    if rel.is_nan() || rel > MAX_TRUE_REL_RES {
        return Err(format!(
            "true relative residual {rel:.3e} above {MAX_TRUE_REL_RES:.0e}"
        ));
    }
    Ok(Passed {
        iterations: out.history.iterations(),
        restarts: out.history.restarts,
        true_rel_res: rel,
    })
}

/// Checks a set-up-only session (zero iteration budget): it must return
/// without error and without having run an Arnoldi step.
pub fn check_setup(outcome: &Result<DdSolveOutput, SolveFailures>) -> Result<(), String> {
    let out = outcome
        .as_ref()
        .map_err(|e| format!("session failed: {e}"))?;
    match out.history.iterations() {
        0 => Ok(()),
        n => Err(format!("set-up session ran {n} iterations")),
    }
}
