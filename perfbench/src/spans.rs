//! In-memory spans recorded by the benchmark around its calls into the
//! library, written out once the run ends.
//!
//! Each span has a name, a start and an end (seconds since the recorder
//! started), the index of the span that enclosed it, and the probe round
//! it belongs to (spans of one round share it). A layer's self time is its
//! span's duration minus the part covered by its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sparse.factor`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Probe round the span belongs to.
    pub round: usize,
    /// Start, in seconds since the recorder was created.
    pub start: f64,
    /// End, in seconds since the recorder was created.
    pub end: f64,
}

impl Span {
    /// Wall seconds the span lasted.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Single-threaded span recorder.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: usize,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// Tags the spans recorded from now on with probe round `round`.
    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    /// Runs `f` inside a span named `name`; spans `f` opens through the
    /// recorder it is handed become children of this one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            round: self.round,
            start,
            end: start,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        r
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration();
            }
        }
        own
    }

    /// Per-name self times, one entry per round, for medians across rounds.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_round: BTreeMap<(&'static str, usize), f64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *by_round.entry((s.name, s.round)).or_default() += t;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), t) in by_round {
            out.entry(name).or_default().push(t);
        }
        out
    }

    /// The spans as JSON Lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"round\":{},\"start_s\":{},\"end_s\":{},\"self_s\":{own}}}",
                s.name, s.round, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: std::time::Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let ms = std::time::Duration::from_millis(5);
        let mut rec = SpanRecorder::new();
        rec.span("outer", |rec| {
            spin(ms);
            rec.span("inner", |_| spin(ms));
        });
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        let own = rec.self_times();
        assert!((own[0] + s[1].duration() - s[0].duration()).abs() < 1e-12);
        assert!(own[0] >= 0.004 && own[1] >= 0.004);
        let by_name = rec.self_times_by_name();
        assert_eq!(by_name["inner"].len(), 1);
        assert_eq!(rec.to_jsonl().lines().count(), 2);
    }
}
