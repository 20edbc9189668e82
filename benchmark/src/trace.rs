//! In-memory spans for the traced run.
//!
//! A span carries a name, start and end (ns since the tracer's origin),
//! its parent span and the trial (or request) it belongs to. Spans stay
//! in memory while the run is measured and are written as a JSON-lines
//! sidecar only at exit. A span's *self time* is its duration minus the
//! time its child spans cover.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `grid.deploy`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Trial (or request) id the span belongs to.
    pub trial: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder. Threads each own one; spans from
/// several tracers merge through [`Tracer::absorb`].
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trial: u64,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (share one origin
    /// between threads so their spans line up).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            trial: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the trial id stamped on spans opened from now on.
    pub fn set_trial(&mut self, trial: u64) {
        self.trial = trial;
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            trial: self.trial,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-measured span (a request phase timed by the
    /// client itself) as a root span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            trial: self.trial,
        });
    }

    /// Drops every span recorded after the first `len` (a discarded
    /// measurement). No span may be open.
    pub fn truncate(&mut self, len: usize) {
        assert!(self.open.is_empty(), "truncate with no span open");
        self.spans.truncate(len);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans into this tracer, re-basing parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracers have no open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Self time of span `id`: its duration minus the time its child
    /// spans cover. Children of one span never overlap (one thread opens
    /// them one after another), so the covered time is the sum of their
    /// durations.
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let covered: u64 = self.spans[id + 1..]
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(covered)
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn write_sidecar(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trial\":{}}}",
                s.name, s.start_ns, s.end_ns, s.trial
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.enter("trial");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("b", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let own: u64 = (0..3).map(|id| t.self_time_ns(id)).sum();
        assert_eq!(own, spans[0].dur_ns());
        assert!(t.self_time_ns(1) >= 2_000_000 && t.self_time_ns(2) >= 1_000_000);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.span("x", || ());
        let mut b = Tracer::new(origin);
        let r = b.enter("trial");
        b.span("y", || ());
        b.exit(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
