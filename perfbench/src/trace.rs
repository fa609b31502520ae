//! In-memory span recorder for the traced runs.
//!
//! Spans are kept in a `Vec` while the run measures and written out as
//! NDJSON only when it ends, so recording costs one `Instant::now()`
//! pair and one push per span. With tracing off, [`Tracer::span`] runs
//! its closure and records nothing.

use std::io::Write;
use std::time::Instant;

/// One recorded interval: its name, the operation it belongs to, the
/// span that enclosed it, and its start and duration since the epoch.
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u128,
    dur_ns: u128,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a new operation: later spans share its identifier.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.timed(name, f).0
    }

    /// Runs `f` inside a span and also returns the span's duration in
    /// milliseconds (`NaN` when tracing is off).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        if !self.on {
            return (f(self), f64::NAN);
        }
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: (start - self.epoch).as_nanos(),
            dur_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        let dur = start.elapsed();
        self.stack.pop();
        self.spans[idx].dur_ns = dur.as_nanos();
        (out, dur.as_secs_f64() * 1e3)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one NDJSON line (`id`, `parent`, `op`,
    /// `name`, `start_ns`, `dur_ns`).
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"parent":{parent},"op":{},"name":"{}","start_ns":{},"dur_ns":{}}}"#,
                s.op, s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}
