//! Spans recorded by the benchmark around its calls into the program.
//!
//! There is no tracing inside the program (that is a later change);
//! every span here starts and ends at a point the benchmark can see —
//! the `Client::invoke*` call, the `on_update`/`on_final` callbacks,
//! the generator thread's wake-up, the legs of a simulated segment.
//! Spans go into a buffer allocated before the window opens and are
//! written out after it closes, so the traced run pays one `Vec` push
//! per span and no I/O.

use std::io::{self, BufWriter, Write};
use std::path::Path;

/// What a span covers. The parent of every kind but the two roots is
/// the root of its family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Root: one invocation, submit to the generator thread seeing
    /// its completion.
    Invoke,
    /// Inside the `Client::invoke*` call.
    CoreSubmit,
    /// Call returned → `on_update` ran (reads with a preliminary view).
    NetPrelimWait,
    /// `on_update` (or call return) → `on_final` ran.
    NetFinalWait,
    /// `on_final` ran → the generator thread received it.
    BenchWake,
    /// Root: one leg of a simulated segment.
    SimLeg,
    /// Building the simulated stack and its dataset.
    SimSetup,
    /// Submitting operations and running the simulation.
    SimDrive,
    /// Running the oracle's checkers over the settled stack.
    SimCheck,
}

impl SpanKind {
    /// The span's name, `layer.what`.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Invoke => "invoke",
            SpanKind::CoreSubmit => "core.submit",
            SpanKind::NetPrelimWait => "net.prelim_wait",
            SpanKind::NetFinalWait => "net.final_wait",
            SpanKind::BenchWake => "bench.wake",
            SpanKind::SimLeg => "sim.leg",
            SpanKind::SimSetup => "sim.setup",
            SpanKind::SimDrive => "sim.drive",
            SpanKind::SimCheck => "sim.check",
        }
    }

    /// The name of the span that caused this one (empty for a root).
    pub fn parent(self) -> &'static str {
        match self {
            SpanKind::Invoke | SpanKind::SimLeg => "",
            SpanKind::CoreSubmit
            | SpanKind::NetPrelimWait
            | SpanKind::NetFinalWait
            | SpanKind::BenchWake => SpanKind::Invoke.name(),
            SpanKind::SimSetup | SpanKind::SimDrive | SpanKind::SimCheck => SpanKind::SimLeg.name(),
        }
    }
}

/// One finished span. `trace` groups the spans of one invocation (its
/// op sequence number) or of one simulated leg.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The invocation or leg this span belongs to.
    pub trace: u64,
    /// What it covers.
    pub kind: SpanKind,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// A fixed-capacity span buffer. Once full, further spans are counted
/// but not stored — the window never reallocates.
#[derive(Debug)]
pub struct SpanBuf {
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanBuf {
    /// A buffer with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> SpanBuf {
        SpanBuf {
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Records one span.
    pub fn push(&mut self, trace: u64, kind: SpanKind, start_ns: u64, end_ns: u64) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                trace,
                kind,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// The stored spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations (ns) of every stored span of `kind`.
    pub fn durations_ns(&self, kind: SpanKind) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .collect()
    }
}

/// Writes the first `max_per_buf` spans of each of `bufs` (one buffer
/// per generator thread) to `path`, one JSON object per line. The
/// metrics use every span in memory; the file is a sample to look at,
/// and at 100 k invocations a second an uncapped one reaches 200 MB.
pub fn write_jsonl(path: &Path, bufs: &[SpanBuf], max_per_buf: usize) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for (thread, buf) in bufs.iter().enumerate() {
        for s in buf.spans().iter().take(max_per_buf) {
            // Names are identifiers from this file: nothing to escape.
            writeln!(
                w,
                "{{\"thread\": {thread}, \"trace\": {}, \"name\": \"{}\", \"parent\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.trace,
                s.kind.name(),
                s.kind.parent(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    // A BufWriter dropped unflushed swallows the write error.
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_buffer_counts_instead_of_growing() {
        let mut b = SpanBuf::with_capacity(2);
        for i in 0..5 {
            b.push(i, SpanKind::CoreSubmit, 0, 10);
        }
        assert_eq!(b.spans().len(), 2);
        assert_eq!(b.dropped(), 3);
    }

    #[test]
    fn durations_select_by_kind() {
        let mut b = SpanBuf::with_capacity(8);
        b.push(0, SpanKind::CoreSubmit, 100, 350);
        b.push(0, SpanKind::NetFinalWait, 350, 9_000);
        b.push(1, SpanKind::CoreSubmit, 10, 20);
        assert_eq!(b.durations_ns(SpanKind::CoreSubmit), vec![250.0, 10.0]);
        assert!(b.durations_ns(SpanKind::BenchWake).is_empty());
    }

    #[test]
    fn every_child_names_a_root_as_parent() {
        use SpanKind::*;
        for k in [CoreSubmit, NetPrelimWait, NetFinalWait, BenchWake] {
            assert_eq!(k.parent(), "invoke");
        }
        for k in [SimSetup, SimDrive, SimCheck] {
            assert_eq!(k.parent(), "sim.leg");
        }
        assert_eq!(Invoke.parent(), "");
        assert_eq!(SimLeg.parent(), "");
    }
}
