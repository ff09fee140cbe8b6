//! Outside-in span recorder.
//!
//! Spans are opened and closed by the benchmark's own code around each
//! call into a layer of the repository, never inside it. Every operation
//! of a workload is one root `op` span whose children are the four
//! stages every workload has:
//!
//! * `build` — prepare the inputs the layer under test runs on;
//! * `run` — the call that does the operation's work;
//! * `collect` — turn the raw result into what a user reads;
//! * `check` — the benchmark's own correctness oracle.
//!
//! Each span also names the crate it calls into, so the exported trace
//! shows which layer a stage spent its time in. Spans stay in memory and
//! are written out once, as a Chrome trace-event file, when the run ends.
//! With tracing off nothing is recorded.

use std::time::{Duration, Instant};

/// The stages whose self time the traced run reports, in output order
/// (`check` is the benchmark's own work, kept in the trace file only).
pub const STAGES: [&str; 3] = ["build", "run", "collect"];

struct Span {
    name: &'static str,
    layer: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans when enabled; every call is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u64,
}

/// Handle of an open span, closed with [`Tracer::exit`].
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    /// Opens the root span of the next operation.
    pub fn begin_op(&mut self) -> SpanId {
        self.ops += 1;
        self.enter("op", "perfbench")
    }

    /// Opens a span named `name` around a call into `layer`.
    pub fn enter(&mut self, name: &'static str, layer: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            op: self.ops,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`] or [`Tracer::begin_op`].
    pub fn exit(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, layer);
        let out = f();
        self.exit(id);
        out
    }

    /// Mean self time per operation, in milliseconds, of each of
    /// [`STAGES`]: a span's duration minus the part its children cover.
    pub fn stage_self_ms(&self) -> Vec<(&'static str, f64)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let ops = self.ops.max(1) as f64;
        STAGES
            .iter()
            .map(|&stage| {
                let total: Duration = self
                    .spans
                    .iter()
                    .zip(&child_time)
                    .filter(|(s, _)| s.name == stage)
                    .map(|(s, &c)| s.duration().saturating_sub(c))
                    .sum();
                (stage, total.as_secs_f64() * 1e3 / ops)
            })
            .collect()
    }

    /// Renders the spans as a Chrome trace-event document (load it in
    /// `chrome://tracing` or Perfetto).
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":{}}}}}",
                    s.name,
                    s.layer,
                    s.start.as_secs_f64() * 1e6,
                    s.duration().as_secs_f64() * 1e6,
                    s.op,
                    s.parent
                        .map_or_else(|| "null".to_owned(), |p| p.to_string()),
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let op = t.begin_op();
        let run = t.enter("run", "x");
        t.span("collect", "y", || {
            std::thread::sleep(Duration::from_millis(20));
        });
        t.exit(run);
        t.exit(op);
        let stages: std::collections::HashMap<_, _> = t.stage_self_ms().into_iter().collect();
        assert!(stages["collect"] >= 20.0);
        assert!(stages["run"] < 5.0, "run self time {}", stages["run"]);
        assert_eq!(stages["build"], 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.begin_op();
        t.span("run", "x", || ());
        t.exit(op);
        assert!(t.to_chrome_json().contains("\"traceEvents\":[\n\n]"));
    }
}
