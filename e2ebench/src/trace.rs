//! In-memory spans recorded around calls into the layers under test.
//!
//! A span has a name, a start and end (nanoseconds since the tracer was
//! made), the span that caused it, and the id of the request it serves.
//! Spans are kept in memory and written out as one JSON file when the
//! run ends. With tracing off every call is a no-op, so the untraced
//! run that yields the end-to-end metrics pays nothing for them.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran, e.g. `core.machine.run`.
    pub name: String,
    /// Start, in ns since the tracer was made.
    pub start_ns: u64,
    /// End, in ns since the tracer was made (0 while open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request this span serves.
    pub req: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans when `on`, and ignores every call
    /// otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now.
    pub fn open(&self, name: &str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: 0,
            parent,
            req,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span now.
    pub fn close(&self, id: SpanId) {
        let Some(i) = id else { return };
        let end_ns = self.ns(Instant::now());
        self.spans.lock().expect("span list poisoned")[i].end_ns = end_ns;
    }

    /// Records a span whose bounds were measured by the caller.
    pub fn record(
        &self,
        name: &str,
        parent: SpanId,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Durations (ns) of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name && s.end_ns > 0)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Per span name: count, total time, and self time (ns). A span's
    /// self time is its duration minus the time its children cover.
    pub fn self_times(&self) -> BTreeMap<String, (u64, u64, u64)> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for (s, covered) in spans.iter().zip(child_ns) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// Writes every span plus the per-name self-time table as JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write(&self, path: &Path, summary: &[(String, f64)]) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::from("{\"summary\":{");
        for (i, (k, v)) in summary.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{k}\":{v}");
        }
        out.push_str("},\"self_times\":{");
        for (i, (name, (n, total, own))) in self.self_times().iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{n},\"total_ns\":{total},\"self_ns\":{own}}}"
            );
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans().iter().enumerate() {
            let sep = if i > 0 { ",\n" } else { "\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let s = t.open("x", None, 1);
        t.close(s);
        assert!(s.is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let base = Instant::now();
        let ms = |n| base + std::time::Duration::from_millis(n);
        let root = t.record("root", None, 7, ms(0), ms(10));
        t.record("a", root, 7, ms(1), ms(4));
        t.record("b", root, 7, ms(5), ms(9));
        let st = t.self_times();
        let (n, total, own) = st["root"];
        assert_eq!(n, 1);
        assert_eq!(total, 10_000_000);
        assert_eq!(own, 3_000_000);
        assert_eq!(st["a"].2, 3_000_000);
        assert!(t.spans().iter().all(|s| s.req == 7));
    }
}
