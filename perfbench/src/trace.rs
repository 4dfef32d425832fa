//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name, start and end (ns since the tracer started), the
//! span that caused it and, for unit work, the unit's content hash. Spans
//! stay in memory while the workload runs and are written as JSONL when it
//! ends. A span's self time is its duration minus the time its children
//! cover; the benchmark is single-threaded where it traces, so children
//! never overlap.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::util::json_str;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub unit: Option<String>,
}

impl Span {
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    base: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    #[must_use]
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        unit: Option<String>,
    ) -> usize {
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
            unit,
        });
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        unit: Option<String>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, unit);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        unit: Option<String>,
    ) -> usize {
        let id = self.spans.len();
        let ns = |t: Instant| t.saturating_duration_since(self.base).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            unit,
        });
        id
    }

    /// Self time of span `id` in seconds.
    #[must_use]
    pub fn self_seconds(&self, id: usize) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (self.spans[id].end_ns - self.spans[id].start_ns).saturating_sub(children) as f64 * 1e-9
    }

    /// Writes every span as one JSON object per line, after a header
    /// line carrying the host stamp.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"unit\":{}}}",
                s.id,
                s.parent.map_or("null".into(), |p| p.to_string()),
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.unit.as_deref().map_or("null".into(), json_str),
            )?;
        }
        out.flush()
    }
}
