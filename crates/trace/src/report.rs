//! Plain-text renderers for [`TraceReport`]: the `--profile` phase table,
//! a Table-1-style communication table, a convergence summary, and an
//! ASCII per-rank timeline over virtual time.

use crate::aggregate::TraceReport;
use crate::event::Value;
use std::fmt::Write as _;

fn fmt_secs(s: f64) -> String {
    if !s.is_finite() {
        "-".to_string()
    } else if s == 0.0 {
        "0".to_string()
    } else if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.3}us", s * 1e6)
    }
}

/// Renders the per-rank phase breakdown: one column per phase (in first-seen
/// order), virtual seconds per cell, a host-phase section (wall-clock) below.
pub fn render_phase_table(report: &TraceReport) -> String {
    let mut out = String::new();
    let mut phase_names: Vec<String> = Vec::new();
    for rank in &report.ranks {
        for phase in &rank.phases {
            if !phase_names.contains(&phase.name) {
                phase_names.push(phase.name.clone());
            }
        }
    }

    let _ = writeln!(out, "per-rank phase breakdown (virtual time)");
    let mut header = format!("{:>5}", "rank");
    for name in &phase_names {
        let _ = write!(header, "  {name:>14}");
    }
    let _ = write!(header, "  {:>14}", "end-of-rank");
    let _ = writeln!(out, "{header}");
    for rank in &report.ranks {
        let mut row = format!("{:>5}", rank.rank);
        for name in &phase_names {
            let cell = rank
                .phases
                .iter()
                .find(|p| &p.name == name)
                .map(|p| fmt_secs(p.virt_s))
                .unwrap_or_else(|| "-".to_string());
            let _ = write!(row, "  {cell:>14}");
        }
        let _ = write!(row, "  {:>14}", fmt_secs(rank.final_virt));
        let _ = writeln!(out, "{row}");
    }

    if !report.host_phases.is_empty() {
        let _ = writeln!(out, "host phases (wall clock)");
        for phase in &report.host_phases {
            let _ = write!(
                out,
                "{:>5}  {:>14}  x{}",
                phase.name,
                fmt_secs(phase.wall_s),
                phase.count
            );
            for (k, v) in &phase.fields {
                let _ = match v {
                    Value::U64(x) => write!(out, "  {k}={x}"),
                    Value::F64(x) => write!(out, "  {k}={x}"),
                    Value::Str(x) => write!(out, "  {k}={x}"),
                };
            }
            let _ = writeln!(out);
        }
    }

    for rank in &report.ranks {
        if !rank.counters.is_empty() {
            let counters = rank
                .counters
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(out, "rank {} counters: {counters}", rank.rank);
        }
    }
    out
}

/// Renders event-counted communication totals per rank plus a sum row, and
/// (when iteration events are present) the paper's Table-1 quantities:
/// neighbour exchanges and reductions per iteration.
pub fn render_comm_table(report: &TraceReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>5} {:>7} {:>10} {:>7} {:>10} {:>7} {:>9} {:>7} {:>9} {:>12}",
        "rank",
        "sends",
        "sent-B",
        "recvs",
        "recv-B",
        "allred",
        "allred-B",
        "barr",
        "exchg",
        "flops"
    );
    let mut write_row = |label: &str, c: &crate::aggregate::CommCounts| {
        let _ = writeln!(
            out,
            "{:>5} {:>7} {:>10} {:>7} {:>10} {:>7} {:>9} {:>7} {:>9} {:>12}",
            label,
            c.sends,
            c.bytes_sent,
            c.recvs,
            c.bytes_received,
            c.allreduces,
            c.allreduce_bytes,
            c.barriers,
            c.neighbor_exchanges,
            c.flops
        );
    };
    for rank in &report.ranks {
        write_row(&rank.rank.to_string(), &rank.comm);
    }
    write_row("all", &report.comm_totals());

    for rank in &report.ranks {
        if let Some(h) = &rank.msg_bytes {
            let _ = writeln!(
                out,
                "rank {} message sizes: n={} p50<={}B p95<={}B p99<={}B max={}B mean={:.1}B",
                rank.rank,
                h.count(),
                h.percentile(50.0),
                h.percentile(95.0),
                h.percentile(99.0),
                h.max(),
                h.mean()
            );
        }
    }

    if let Some((ex, ar)) = report.per_iteration_comm() {
        let _ = writeln!(
            out,
            "per iteration (Table 1): {ex:.2} neighbour exchanges, {ar:.2} reductions"
        );
    }
    out
}

/// Renders the convergence record: the solve summary line plus a residual
/// trace (sub-sampled past 32 iterations).
pub fn render_convergence(report: &TraceReport) -> String {
    let mut out = String::new();
    if let Some(s) = &report.solve {
        let _ = writeln!(
            out,
            "solve: {}{} precond={} {} in {} iterations ({} restarts), final rel res {:.3e}, modeled time {:.6e}s",
            s.variant,
            if s.overlap { " (overlapped)" } else { "" },
            s.precond,
            if s.converged { "converged" } else { "did NOT converge" },
            s.iterations,
            s.restarts,
            s.final_rel_res,
            s.modeled_time
        );
        if let (Some(count), Some(bytes)) = (s.alloc_count, s.alloc_bytes) {
            let per_iter = count as f64 / (s.iterations.max(1)) as f64;
            let _ = writeln!(
                out,
                "allocations: {count} calls / {bytes} bytes over the solve ({per_iter:.1} calls/iteration)"
            );
        }
    }
    if report.iters.is_empty() {
        return out;
    }
    let n = report.iters.len();
    let stride = n.div_ceil(32).max(1);
    let _ = writeln!(
        out,
        "{:>5} {:>6} {:>12} {:>7} {:>7} {:>7}",
        "iter", "cycle", "rel-res", "degree", "exchg", "allred"
    );
    for (i, rec) in report.iters.iter().enumerate() {
        if i % stride != 0 && i + 1 != n {
            continue;
        }
        let _ = writeln!(
            out,
            "{:>5} {:>6} {:>12.4e} {:>7} {:>7} {:>7}",
            rec.iter, rec.cycle, rec.rel_res, rec.degree, rec.exchanges, rec.allreduces
        );
    }
    out
}

/// Renders a Gantt-style per-rank timeline over virtual time: one row per
/// rank, `width` columns spanning `[0, makespan]`, each cell showing the
/// phase open at that virtual instant (legend below; `·` = no phase open).
pub fn render_timeline(report: &TraceReport, width: usize) -> String {
    let width = width.clamp(10, 400);
    let span = report.makespan_virt();
    let mut out = String::new();
    if span <= 0.0 || report.ranks.is_empty() {
        let _ = writeln!(out, "(no virtual-time activity recorded)");
        return out;
    }

    // Assign one letter per distinct phase name, in first-seen rank order.
    let mut legend: Vec<String> = Vec::new();
    for rank in &report.ranks {
        for phase in &rank.phases {
            if !legend.contains(&phase.name) {
                legend.push(phase.name.clone());
            }
        }
    }
    let letter = |i: usize| (b'A' + (i % 26) as u8) as char;

    let _ = writeln!(
        out,
        "per-rank timeline over virtual time (0 .. {})",
        fmt_secs(span)
    );
    for rank in &report.ranks {
        let mut row = vec!['·'; width];
        for (pi, name) in legend.iter().enumerate() {
            if let Some(phase) = rank.phases.iter().find(|p| &p.name == name) {
                let a = (phase.first_open_virt / span * width as f64).floor() as usize;
                let b = (phase.last_close_virt / span * width as f64).ceil() as usize;
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width - 1)) {
                    *cell = letter(pi);
                }
            }
        }
        // Mark the end of this rank's activity.
        let end = ((rank.final_virt / span * width as f64) as usize).min(width - 1);
        for cell in row.iter_mut().skip(end + 1) {
            *cell = ' ';
        }
        let _ = writeln!(out, "{:>5} |{}|", rank.rank, row.iter().collect::<String>());
    }
    let legend_line = legend
        .iter()
        .enumerate()
        .map(|(i, name)| format!("{}={}", letter(i), name))
        .collect::<Vec<_>>()
        .join("  ");
    let _ = writeln!(out, "legend: {legend_line}  ·=outside spans");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TraceEvent, Value};

    fn sample_report() -> TraceReport {
        let mut events = Vec::new();
        let mut push = |rank: Option<usize>,
                        t: f64,
                        kind: EventKind,
                        name: &str,
                        fields: Vec<(String, Value)>| {
            events.push(TraceEvent {
                rank,
                t_wall: t,
                t_virt: t,
                kind,
                name: name.to_string(),
                fields,
            });
        };
        push(None, 0.0, EventKind::SpanBegin, "assembly", vec![]);
        push(None, 0.5, EventKind::SpanEnd, "assembly", vec![]);
        for rank in 0..2usize {
            push(Some(rank), 0.0, EventKind::SpanBegin, "scaling", vec![]);
            push(Some(rank), 0.2, EventKind::SpanEnd, "scaling", vec![]);
            push(Some(rank), 0.2, EventKind::SpanBegin, "fgmres", vec![]);
            push(
                Some(rank),
                0.5,
                EventKind::Send,
                "",
                vec![
                    ("peer".into(), (1 - rank).into()),
                    ("bytes".into(), 80u64.into()),
                ],
            );
            push(Some(rank), 1.0, EventKind::SpanEnd, "fgmres", vec![]);
            push(
                Some(rank),
                1.0,
                EventKind::RankEnd,
                "",
                vec![
                    ("flops".into(), 500u64.into()),
                    ("t_virt_final".into(), 1.0.into()),
                ],
            );
        }
        push(
            Some(0),
            0.9,
            EventKind::Iter,
            "",
            vec![
                ("iter".into(), 1u64.into()),
                ("rel_res".into(), 1e-3.into()),
                ("degree".into(), 3u64.into()),
                ("exchanges".into(), 4u64.into()),
                ("allreduces".into(), 1u64.into()),
            ],
        );
        push(
            None,
            1.1,
            EventKind::Instant,
            "solve_summary",
            vec![
                ("converged".into(), 1u64.into()),
                ("iterations".into(), 1u64.into()),
                ("restarts".into(), 0u64.into()),
                ("final_rel_res".into(), 1e-3.into()),
                ("modeled_time".into(), 1.0.into()),
                ("precond".into(), "gls(m=3)".into()),
                ("variant".into(), "edd-enhanced".into()),
            ],
        );
        TraceReport::from_events(&events)
    }

    #[test]
    fn phase_table_lists_every_rank_and_phase() {
        let text = render_phase_table(&sample_report());
        assert!(text.contains("scaling"));
        assert!(text.contains("fgmres"));
        assert!(text.contains("assembly"));
        assert!(text.lines().any(|l| l.trim_start().starts_with("0 ")));
        assert!(text.lines().any(|l| l.trim_start().starts_with("1 ")));
    }

    #[test]
    fn comm_table_has_totals_row_and_table1_line() {
        let text = render_comm_table(&sample_report());
        assert!(text.lines().any(|l| l.trim_start().starts_with("all")));
        assert!(text.contains("per iteration (Table 1)"));
        assert!(text.contains("4.00 neighbour exchanges"));
    }

    #[test]
    fn convergence_shows_summary_and_residuals() {
        let text = render_convergence(&sample_report());
        assert!(text.contains("converged"));
        assert!(text.contains("edd-enhanced"));
        assert!(text.contains("1.0000e-3") || text.contains("1.0000e3") || text.contains("e-3"));
    }

    #[test]
    fn timeline_draws_one_row_per_rank_with_legend() {
        let text = render_timeline(&sample_report(), 40);
        let rows: Vec<_> = text.lines().filter(|l| l.contains('|')).collect();
        assert_eq!(rows.len(), 2);
        assert!(text.contains("legend:"));
        assert!(text.contains("A=scaling") || text.contains("A=fgmres"));
    }

    #[test]
    fn empty_report_renders_placeholders() {
        let report = TraceReport::from_events(&[]);
        assert!(render_timeline(&report, 40).contains("no virtual-time activity"));
        assert_eq!(render_convergence(&report), "");
    }
}
