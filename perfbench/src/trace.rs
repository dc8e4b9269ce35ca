//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! A span records a name, start and end (nanoseconds since the run's
//! epoch), the op it belongs to, and its parent span. Spans stay in memory
//! and are written out when the run ends. With tracing off, [`Tracer::span`]
//! is a plain call: no clock reads, no allocation.
//!
//! A layer's *self time* is its span's duration minus the part covered by
//! its child spans (children never overlap: one tracer per thread).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name (`psimc.compile`, `psir.exec`, …) or a root
    /// (`op`, `setup`).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Op id (0 outside ops).
    pub op: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<u32>,
}

/// Per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer sharing `epoch` with the run's other threads.
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording (only between ops).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags subsequent spans with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            op: self.op,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end = self.now();
        self.spans[idx as usize].end = end;
        out
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Aggregate over all spans of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Aggregates per span name, split by the root the span hangs under
/// (`op` for the timed loop, `setup` for set-up). Returns
/// `(root name, span name) → Agg`.
pub fn aggregate(tracers: &[&Tracer]) -> BTreeMap<(&'static str, &'static str), Agg> {
    let mut out: BTreeMap<(&'static str, &'static str), Agg> = BTreeMap::new();
    for t in tracers {
        let spans = &t.spans;
        let mut child_ns = vec![0u64; spans.len()];
        let mut root = vec![""; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            // Parents precede children, so roots resolve in one pass.
            root[i] = match s.parent {
                Some(p) => root[p as usize],
                None => s.name,
            };
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end - s.start;
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end - s.start;
            let a = out.entry((root[i], s.name)).or_default();
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(child_ns[i]);
        }
    }
    out
}

/// At most this many spans are written to the span file (aggregates
/// always cover every span).
pub const MAX_WRITTEN_SPANS: usize = 200_000;

/// Writes the spans as JSON lines.
///
/// # Errors
/// I/O failures.
pub fn write_spans(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0;
    for t in tracers {
        for (i, s) in t.spans.iter().enumerate() {
            if written == MAX_WRITTEN_SPANS {
                return f.flush();
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"thread\":{},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{},\"parent\":{parent}}}",
                t.thread, s.name, s.start, s.end, s.op
            )?;
            written += 1;
        }
    }
    f.flush()
}

/// One timed op, as the workload loop saw it.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// What kind of op (kernel × config, pool item, request item): the
    /// overhead estimate compares like with like.
    pub kind: u32,
    /// Wall time of the op, ns.
    pub nanos: u64,
    /// Whether spans were recorded during the op.
    pub traced: bool,
    /// The measurement segment (a pass, or a time slice) the op ran in.
    pub segment: u32,
}

/// Tracing overhead: mix-adjusted ratio of traced to untraced op time,
/// minus one. Only kinds seen both traced and untraced count; each kind is
/// weighted by its traced op count. `None` when no kind was seen both ways.
pub fn overhead(ops: &[OpRecord]) -> Option<f64> {
    let mut by_kind: BTreeMap<u32, [(u64, u64); 2]> = BTreeMap::new();
    for r in ops {
        let e = by_kind.entry(r.kind).or_default();
        let slot = &mut e[usize::from(r.traced)];
        slot.0 += 1;
        slot.1 += r.nanos;
    }
    let (mut traced, mut untraced) = (0.0, 0.0);
    for [(un, ut), (tn, tt)] in by_kind.into_values() {
        if un == 0 || tn == 0 {
            continue;
        }
        traced += tt as f64;
        untraced += tn as f64 * (ut as f64 / un as f64);
    }
    (untraced > 0.0).then(|| traced / untraced - 1.0)
}

/// Length of one tracing window: a traced run alternates untraced and
/// traced windows so both halves see the same op mix and machine state.
pub const TRACE_WINDOW_SECS: f64 = 0.25;

/// Whether an op starting `elapsed` seconds into a traced run is traced.
pub fn traced_window(elapsed: f64) -> bool {
    ((elapsed / TRACE_WINDOW_SECS) as u64) % 2 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("op", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |_| ());
        });
        let agg = aggregate(&[&t]);
        let op = agg[&("op", "op")];
        let a = agg[&("op", "a")];
        assert_eq!(op.count, 1);
        assert!(a.total_ns >= 2_000_000);
        assert!(op.self_ns < op.total_ns);
        assert!(op.self_ns + a.total_ns <= op.total_ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        assert_eq!(t.span("op", |_| 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn overhead_is_mix_adjusted() {
        let r = |kind, nanos, traced| OpRecord {
            kind,
            nanos,
            traced,
            segment: 0,
        };
        // Kind 1 is slow but only traced ops are of kind 1 twice: the mix
        // must not read as overhead.
        let ops = [
            r(0, 100, false),
            r(0, 110, true),
            r(1, 1000, false),
            r(1, 1100, true),
            r(1, 1100, true),
        ];
        let o = overhead(&ops).unwrap();
        assert!((o - 0.1).abs() < 1e-9, "{o}");
    }
}
