//! Coarse spans recorded from the benchmark's side of each layer boundary.
//!
//! A span has a name, a start, an end, a parent and a run id; every span
//! of one simulation run (or checker row) carries that run's id. Spans
//! are kept in memory and written as JSON lines when the benchmark ends.
//! Per-call FEL and medium timings are not spans: they go to
//! [`crate::ledger`] counters, since a single run makes millions of them.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where a new span hangs: its parent's id and the run it belongs to.
#[derive(Clone, Copy, Debug)]
pub struct SpanCtx {
    pub id: u64,
    pub run: u64,
}

/// The parent of top-level spans.
pub const ROOT: SpanCtx = SpanCtx { id: 0, run: 0 };

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub run: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span log. When off, [`Spans::timed`] is a plain stopwatch.
pub struct Spans {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    log: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` under a span named `name` below `parent` and return its
    /// result with the elapsed seconds. `new_run` makes the span the root
    /// of a run: it and its descendants carry its own id as run id.
    pub fn timed<T>(
        &self,
        name: &'static str,
        parent: SpanCtx,
        new_run: bool,
        f: impl FnOnce(SpanCtx) -> T,
    ) -> (T, f64) {
        // Relaxed: the counter only has to hand out distinct ids.
        let id = if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let ctx = SpanCtx {
            id,
            run: if new_run { id } else { parent.run },
        };
        let start = Instant::now();
        let out = f(ctx);
        let end = Instant::now();
        if self.on {
            let span = Span {
                id,
                parent: parent.id,
                run: ctx.run,
                name,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
            };
            self.log
                .lock()
                .expect("span log poisoned by a panicking job")
                .push(span);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Write `header` and then one JSON object per span, sorted by start;
    /// returns the number of spans written.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<usize> {
        let mut spans = self
            .log
            .lock()
            .expect("span log poisoned by a panicking job")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"run\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}
