//! Spans recorded by the benchmark around its calls into the program.
//! They stay in memory during the run and are written out at exit; spans
//! inside `crates/` are a later issue.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The batch (step mode) or client operation the span belongs to.
    pub op: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// One thread's span recorder. A disabled tracer runs the closure and
/// records nothing, so the untraced path pays one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Keeps ids of tracers merged into one file apart.
    id_base: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, id_base: u64) -> Tracer {
        Tracer { enabled, epoch, id_base, spans: Vec::new() }
    }

    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record `f` as a span; the closure gets the span's id to parent its
    /// children with.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce(&mut Tracer, Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(self, None);
        }
        let slot = self.spans.len();
        let id = self.id_base + slot as u64;
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span { id, parent, name, op, start_us, end_us: start_us });
        let out = f(self, Some(id));
        self.spans[slot].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name, µs: a span's duration minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children.entry(p).or_default() += s.micros();
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += s.micros() - children.get(&s.id).copied().unwrap_or(0.0);
    }
    out
}

/// One JSON object per span, one per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
            s.id, parent, s.name, s.op, s.start_us, s.end_us
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span { id, parent, name, op: 0, start_us: start, end_us: end }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_sums_to_the_root() {
        let spans = [
            span(0, None, "step", 0.0, 100.0),
            span(1, Some(0), "ship", 5.0, 25.0),
            span(2, Some(0), "apply", 30.0, 90.0),
            span(3, None, "step", 100.0, 150.0),
            span(4, Some(3), "ship", 100.0, 110.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["ship"], 30.0);
        assert_eq!(t["apply"], 60.0);
        assert_eq!(t["step"], 20.0 + 40.0);
        assert_eq!(t.values().sum::<f64>(), 150.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let got = t.span("x", None, 1, |t, id| {
            assert_eq!(id, None);
            t.span("y", id, 1, |_, _| 7)
        });
        assert_eq!(got, 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn nested_spans_carry_their_parent() {
        let mut t = Tracer::new(true, Instant::now(), 1_000);
        t.span("outer", None, 9, |t, id| t.span("inner", id, 9, |_, _| ()));
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].id, spans[0].parent), (1_000, None));
        assert_eq!((spans[1].id, spans[1].parent), (1_001, Some(1_000)));
        assert!(spans[0].end_us >= spans[1].end_us && spans[1].start_us >= spans[0].start_us);
    }
}
