//! Spans, recorded in memory from the benchmark's own files and written
//! out when the run ends. A span is a name, a start, an end, the span that
//! caused it and the session all spans of one request share. A layer's
//! self time is its span minus the part its children cover.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

use crate::util::ns_since;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub session: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Open {
    pub const NONE: Open = Open(None);
}

/// One thread's span recorder. Disabled (the untraced pass), every call
/// is a branch on a bool and nothing else.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Span ids are `base + index + 1`, so threads never collide.
    base: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer { enabled, epoch, base: thread << 26, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn open(&mut self, name: &'static str, parent: Open, session: u32) -> Open {
        if !self.enabled {
            return Open::NONE;
        }
        let index = self.spans.len();
        let parent = parent.0.map_or(0, |p| self.spans[p].id);
        self.spans.push(Span {
            id: self.base + index as u32 + 1,
            parent,
            session,
            name,
            start_ns: ns_since(self.epoch),
            end_ns: 0,
        });
        Open(Some(index))
    }

    /// Closes `span` and returns its duration in ns (0 when disabled).
    pub fn close(&mut self, span: Open) -> u64 {
        let Some(index) = span.0 else { return 0 };
        let span = &mut self.spans[index];
        span.end_ns = ns_since(self.epoch);
        span.end_ns - span.start_ns
    }

    /// Runs `work` inside a span and returns its result and the span's
    /// duration in ns (timed even when disabled, as callers use it as
    /// their stopwatch).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Open,
        session: u32,
        work: impl FnOnce() -> T,
    ) -> (T, u64) {
        if !self.enabled {
            let start = Instant::now();
            let out = work();
            return (out, start.elapsed().as_nanos() as u64);
        }
        let span = self.open(name, parent, session);
        let out = work();
        let ns = self.close(span);
        (out, ns)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name: duration minus the part of the interval that
/// direct children cover (children of one parent never overlap here —
/// each thread's spans nest strictly).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(span.parent).or_default() += span.end_ns - span.start_ns;
    }
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for span in spans {
        let covered = child_ns.get(&span.id).copied().unwrap_or(0);
        *by_name.entry(span.name).or_default() +=
            (span.end_ns - span.start_ns).saturating_sub(covered);
    }
    by_name
}

/// The share of all `root`-named spans' time that their direct children
/// cover — the attribution model's closing check (README: the named parts
/// of a session must account for it within the stated tolerance).
pub fn cover_share(spans: &[Span], root: &str) -> Option<f64> {
    let roots: BTreeMap<u32, u64> =
        spans.iter().filter(|s| s.name == root).map(|s| (s.id, s.end_ns - s.start_ns)).collect();
    let total: u64 = roots.values().sum();
    let covered: u64 =
        spans.iter().filter(|s| roots.contains_key(&s.parent)).map(|s| s.end_ns - s.start_ns).sum();
    (total > 0).then(|| covered as f64 / total as f64)
}

/// Where trace files go: the build directory the benchmark was compiled
/// into (the driver points `CARGO_TARGET_DIR` inside its checkout), else
/// the repository's `target/`.
pub fn trace_path(workload: &str) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark").join(format!("trace-{workload}.jsonl"))
}

/// Writes one JSON object per span. Names are static identifiers, so no
/// escaping is needed.
pub fn write_jsonl(path: &PathBuf, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(fs::File::create(path)?);
    for span in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"session\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.id, span.parent, span.session, span.name, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, session: 1, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span(1, 0, "session", 0, 100),
            span(2, 1, "client.get", 10, 40),
            span(3, 1, "client.put", 50, 90),
            span(4, 3, "probe", 60, 70),
        ];
        let times = self_times(&spans);
        assert_eq!(times["session"], 30);
        assert_eq!(times["client.get"], 30);
        assert_eq!(times["client.put"], 30);
        assert_eq!(times["probe"], 10);
        assert_eq!(cover_share(&spans, "session"), Some(0.7));
        assert_eq!(cover_share(&spans, "absent"), None);
    }

    #[test]
    fn disabled_tracers_record_nothing_but_still_time() {
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        let root = tracer.open("session", Open::NONE, 1);
        let (value, _ns) = tracer.time("work", root, 1, || 7);
        assert_eq!(value, 7);
        assert_eq!(tracer.close(root), 0);
        assert!(tracer.into_spans().is_empty());
    }

    #[test]
    fn spans_nest_and_ids_are_per_thread() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(true, epoch, 2);
        let root = tracer.open("session", Open::NONE, 9);
        let ((), ns) = tracer
            .time("child", root, 9, || std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(ns >= 2_000_000);
        tracer.close(root);
        let spans = tracer.into_spans();
        assert_eq!(spans[0].id, (2 << 26) + 1);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].end_ns >= spans[1].end_ns && spans[1].start_ns >= spans[0].start_ns);
        assert_ne!(Tracer::new(true, epoch, 3).open("x", Open::NONE, 0).0, None);
    }
}
