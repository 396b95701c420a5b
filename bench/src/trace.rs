//! The benchmark's own tracing: spans recorded around each call into a
//! layer's public functions, kept in memory and written out when the run
//! ends. Nothing here reaches into the crates under test — a span is
//! two clock reads on the bench's side of the call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use slim::telemetry::JsonObj;

/// One timed interval: what ran, when, and the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Total and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// An in-memory span recorder for one thread. `enter`/`exit` nest: the
/// span open at `enter` time becomes the new span's parent. A disabled
/// tracer reads no clock and records nothing, so untraced runs execute
/// the same code path without the tracing cost.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the currently open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Per-name totals; see [`totals_by_name`].
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals_by_name(&self.spans)
    }

    /// Seconds spent in all spans called `name` (`0` if none ran).
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<u64>() as f64 / 1e9
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns())
            .collect()
    }

    /// See [`worst_root_gap`].
    pub fn worst_root_gap(&self) -> f64 {
        worst_root_gap(&self.spans)
    }

    /// Writes `header` (one JSON object: where and on what the trace
    /// was taken), then one flat JSON object per span.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for s in &self.spans {
            let mut obj = JsonObj::new().u64("id", u64::from(s.id));
            if let Some(p) = s.parent {
                obj = obj.u64("parent", u64::from(p));
            }
            let obj = obj
                .str("name", s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns);
            writeln!(w, "{}", obj.render())?;
        }
        w.flush()
    }
}

/// Folds spans into per-name totals. A span's self time is its duration
/// minus the durations of its direct children (children of one thread's
/// tracer never overlap each other).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let child_ns = children_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s
            .duration_ns()
            .saturating_sub(child_ns[s.id as usize].unwrap_or(0));
    }
    out
}

/// The largest share of a root span (one without a parent, with
/// children, at least a millisecond long) that its children leave
/// unaccounted: `self / total`. The benchmark asserts this stays under
/// 5 %, i.e. the spans around the layer calls explain the run.
pub fn worst_root_gap(spans: &[Span]) -> f64 {
    let child_ns = children_ns(spans);
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.duration_ns() >= 1_000_000)
        .filter_map(|s| {
            let gap = s.duration_ns().saturating_sub(child_ns[s.id as usize]?);
            Some(gap as f64 / s.duration_ns() as f64)
        })
        .fold(0.0, f64::max)
}

/// Per span, the summed duration of its direct children (`None` for a
/// span without any).
fn children_ns(spans: &[Span]) -> Vec<Option<u64>> {
    let mut out = vec![None; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            *out[p as usize].get_or_insert(0) += s.duration_ns();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0, 100ms) → a [10, 40) → leaf [15, 25); root → a [50, 90).
        let ms = 1_000_000;
        let spans = vec![
            span(0, None, "root", 0, 100 * ms),
            span(1, Some(0), "a", 10 * ms, 40 * ms),
            span(2, Some(1), "leaf", 15 * ms, 25 * ms),
            span(3, Some(0), "a", 50 * ms, 90 * ms),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["root"].total_ns, 100 * ms);
        assert_eq!(t["root"].self_ns, 30 * ms, "100 − (30 + 40)");
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["a"].total_ns, 70 * ms);
        assert_eq!(
            t["a"].self_ns,
            60 * ms,
            "the leaf comes off its parent only"
        );
        assert_eq!(t["leaf"].self_ns, 10 * ms);
        assert!((worst_root_gap(&spans) - 0.30).abs() < 1e-12);
    }

    #[test]
    fn root_gap_ignores_childless_and_tiny_roots() {
        let spans = vec![
            span(0, None, "lonely", 0, 5_000_000),
            span(1, None, "tiny", 0, 500),
            span(2, Some(1), "kid", 0, 100),
        ];
        assert_eq!(worst_root_gap(&spans), 0.0);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.enter("outer");
        tr.span("inner", || std::hint::black_box(1 + 1));
        tr.exit();
        let spans = &tr.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(tr.totals()["outer"].self_ns <= tr.totals()["outer"].total_ns);

        let mut off = Tracer::new(false);
        off.enter("outer");
        assert_eq!(off.span("inner", || 7), 7);
        off.exit();
        assert!(off.spans.is_empty());
    }
}
