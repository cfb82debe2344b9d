//! Stage-graph tracing: a [`TraceSink`] trait the stage executor emits
//! into, and a [`TraceRecorder`] that collects spans/events and exports
//! Chrome Trace Event Format JSON (loads directly in Perfetto or
//! `chrome://tracing`).
//!
//! The sink is deliberately string-typed (stage kinds and resource tracks
//! arrive as names) so this crate stays a leaf: core, engine and benches all
//! depend on it without cycles.
//!
//! Two trace shapes exist:
//!
//! * **Full** ([`TraceRecorder::new`]): every span carries both the modeled
//!   timeline (deterministic stream-schedule milliseconds) and the measured
//!   wall-clock timeline; executor events (dispatch, dependency-gate wakes,
//!   cache hits/misses, verifier passes) are kept. The Chrome export places
//!   modeled spans under process 1 and measured spans under process 2, one
//!   thread track per resource, so modeled-vs-measured skew is visible per
//!   stage.
//! * **Deterministic** ([`TraceRecorder::deterministic`]): measured fields
//!   are zeroed at ingest and events are dropped, leaving only the modeled
//!   timeline in stable (schedule) order. Two runs of the same workload —
//!   under *any* executor — serialize to byte-identical JSON, so CI diffs
//!   traces the same way it diffs `deterministic_summary()`.

use crate::json::Json;
use parking_lot::Mutex;

/// One executed stage, as reported to a [`TraceSink`].
///
/// All times are milliseconds. The modeled interval comes from the stream
/// simulator and is deterministic; the measured interval is host wall-clock
/// relative to the executor's epoch and varies run to run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Stage index in schedule (insertion) order — stable across dispatch orders.
    pub seq: usize,
    /// Stage kind name (e.g. `"local_topk"`).
    pub kind: String,
    /// Human-readable stage label (e.g. `"dev0 chunk1 top-k"`).
    pub label: String,
    /// Resource track label (e.g. `"compute[0]"`, `"h2d[1]"`).
    pub track: String,
    /// Indices (`seq` values) of the stages this span depended on.
    pub deps: Vec<usize>,
    /// Modeled start, ms.
    pub start_ms: f64,
    /// Modeled end, ms.
    pub end_ms: f64,
    /// Measured wall-clock start, ms since the executor epoch.
    pub measured_start_ms: f64,
    /// Measured wall-clock end, ms since the executor epoch.
    pub measured_end_ms: f64,
    /// Modeled time between this stage's readiness (all dependencies done)
    /// and its start — resource-contention wait, `>= 0`.
    pub queue_wait_ms: f64,
}

/// What happened, for an [`ExecEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An executor handed a stage to a worker (or ran it inline).
    Dispatch,
    /// A threaded worker woke after blocking on an unfinished dependency.
    DepGateWake,
    /// A cache lookup hit (label names the cache).
    CacheHit,
    /// A cache lookup missed (label names the cache).
    CacheMiss,
    /// A stage graph passed `core::verify` before execution.
    VerifierPass,
}

impl EventKind {
    /// Stable snake_case name used in trace exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Dispatch => "dispatch",
            EventKind::DepGateWake => "dep_gate_wake",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::VerifierPass => "verifier_pass",
        }
    }
}

/// A point event on the executor timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecEvent {
    /// What happened.
    pub kind: EventKind,
    /// Subject — a stage label or cache name.
    pub label: String,
    /// Wall-clock ms since the emitting executor's epoch (0 when the event
    /// precedes execution, e.g. a verifier pass).
    pub at_ms: f64,
}

/// Receiver for executor telemetry.
///
/// Implementations must be thread-safe: the threaded executor emits from
/// one worker per resource concurrently. Emission sites hold an
/// `Option<&dyn TraceSink>` and skip all work (including argument
/// construction) when it is `None`, so an unattached graph pays one branch.
pub trait TraceSink: Send + Sync {
    /// Records one executed stage.
    fn span(&self, span: SpanRecord);
    /// Records one executor event.
    fn event(&self, event: ExecEvent);
    /// Whether the sink wants [`event`](TraceSink::event) calls at all.
    /// Emitters may skip constructing events when this is `false`
    /// (deterministic recorders return `false`: event timing is wall-clock
    /// and would break byte-stable traces).
    fn wants_events(&self) -> bool {
        true
    }
}

/// Collects spans and events in memory and exports Chrome Trace JSON.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    deterministic: bool,
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<ExecEvent>>,
}

impl TraceRecorder {
    /// A full recorder: modeled + measured timelines, events kept.
    pub fn new() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// A deterministic recorder: measured fields zeroed, events dropped,
    /// export byte-stable across runs and dispatch orders.
    pub fn deterministic() -> TraceRecorder {
        TraceRecorder {
            deterministic: true,
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Spans recorded so far, in ingestion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().clone()
    }

    /// Events recorded so far, in ingestion order (always empty in
    /// deterministic mode).
    pub fn events(&self) -> Vec<ExecEvent> {
        self.events.lock().clone()
    }

    /// Drops all recorded spans and events.
    pub fn clear(&self) {
        self.spans.lock().clear();
        self.events.lock().clear();
    }

    /// Serializes everything recorded so far as Chrome Trace Event Format.
    ///
    /// Layout: process 1 (`"modeled"`) holds one thread track per resource
    /// with the modeled spans; unless deterministic, process 2
    /// (`"measured"`) mirrors the same tracks with measured wall-clock
    /// spans, and events appear as instants on process 2, tid 0.
    /// Timestamps are microseconds (`ms * 1000`, the format's unit);
    /// each span's `args` carries `seq`, `deps`, `queue_wait_ms`, and the
    /// exact modeled interval as hex bit patterns (`start_bits`/`end_bits`)
    /// so traces can be checked bit-for-bit against `StageReport`.
    /// One event per line, so trace files diff cleanly.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.spans.lock();
        let events = self.events.lock();

        // Intern resource tracks in first-appearance order: tid 1, 2, ...
        let mut tracks: Vec<&str> = Vec::new();
        for span in spans.iter() {
            if !tracks.iter().any(|t| *t == span.track) {
                tracks.push(&span.track);
            }
        }

        let mut lines: Vec<String> = Vec::new();
        let meta = |pid: i64, tid: i64, kind: &str, name: &str| {
            Json::obj(vec![
                ("ph", Json::str("M")),
                ("pid", Json::Int(pid)),
                ("tid", Json::Int(tid)),
                ("name", Json::str(kind)),
                ("args", Json::obj(vec![("name", Json::str(name))])),
            ])
            .to_compact_string()
        };
        lines.push(meta(1, 0, "process_name", "modeled"));
        for (i, track) in tracks.iter().enumerate() {
            lines.push(meta(1, i as i64 + 1, "thread_name", track));
        }
        if !self.deterministic {
            lines.push(meta(2, 0, "process_name", "measured"));
            for (i, track) in tracks.iter().enumerate() {
                lines.push(meta(2, i as i64 + 1, "thread_name", track));
            }
        }

        let span_event = |pid: i64, tid: i64, span: &SpanRecord, start: f64, end: f64| {
            Json::obj(vec![
                ("ph", Json::str("X")),
                ("pid", Json::Int(pid)),
                ("tid", Json::Int(tid)),
                ("name", Json::str(&span.label)),
                ("cat", Json::str(&span.kind)),
                ("ts", Json::Num(start * 1000.0)),
                ("dur", Json::Num((end - start).max(0.0) * 1000.0)),
                (
                    "args",
                    Json::obj(vec![
                        ("seq", Json::Int(span.seq as i64)),
                        (
                            "deps",
                            Json::Arr(span.deps.iter().map(|&d| Json::Int(d as i64)).collect()),
                        ),
                        ("queue_wait_ms", Json::Num(span.queue_wait_ms)),
                        (
                            "start_bits",
                            Json::str(format!("{:016x}", span.start_ms.to_bits())),
                        ),
                        (
                            "end_bits",
                            Json::str(format!("{:016x}", span.end_ms.to_bits())),
                        ),
                    ]),
                ),
            ])
            .to_compact_string()
        };

        // Modeled tracks: emit per track, in ingestion order within a track
        // (= schedule order on that resource, so spans are monotone).
        for (t, track) in tracks.iter().enumerate() {
            let tid = t as i64 + 1;
            for span in spans.iter().filter(|s| s.track == *track) {
                lines.push(span_event(1, tid, span, span.start_ms, span.end_ms));
            }
        }
        if !self.deterministic {
            for (t, track) in tracks.iter().enumerate() {
                let tid = t as i64 + 1;
                for span in spans.iter().filter(|s| s.track == *track) {
                    lines.push(span_event(
                        2,
                        tid,
                        span,
                        span.measured_start_ms,
                        span.measured_end_ms,
                    ));
                }
            }
            for event in events.iter() {
                lines.push(
                    Json::obj(vec![
                        ("ph", Json::str("i")),
                        ("pid", Json::Int(2)),
                        ("tid", Json::Int(0)),
                        ("name", Json::str(event.kind.name())),
                        ("s", Json::str("p")),
                        ("ts", Json::Num(event.at_ms * 1000.0)),
                        ("args", Json::obj(vec![("label", Json::str(&event.label))])),
                    ])
                    .to_compact_string(),
                );
            }
        }

        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, line) in lines.iter().enumerate() {
            out.push_str(line);
            if i + 1 < lines.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

impl TraceSink for TraceRecorder {
    fn span(&self, mut span: SpanRecord) {
        if self.deterministic {
            span.measured_start_ms = 0.0;
            span.measured_end_ms = 0.0;
        }
        self.spans.lock().push(span);
    }

    fn event(&self, event: ExecEvent) {
        if self.deterministic {
            return;
        }
        self.events.lock().push(event);
    }

    fn wants_events(&self) -> bool {
        !self.deterministic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_chrome_trace;

    fn span(seq: usize, track: &str, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            seq,
            kind: "local_topk".to_string(),
            label: format!("stage {seq}"),
            track: track.to_string(),
            deps: if seq == 0 { vec![] } else { vec![seq - 1] },
            start_ms: start,
            end_ms: end,
            measured_start_ms: start + 0.125,
            measured_end_ms: end + 0.5,
            queue_wait_ms: 0.0,
        }
    }

    #[test]
    fn full_recorder_keeps_measured_and_events() {
        let rec = TraceRecorder::new();
        rec.span(span(0, "compute[0]", 0.0, 2.0));
        rec.span(span(1, "h2d[0]", 2.0, 3.0));
        rec.event(ExecEvent {
            kind: EventKind::Dispatch,
            label: "stage 0".to_string(),
            at_ms: 0.5,
        });
        assert!(rec.wants_events());
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.events().len(), 1);
        assert_eq!(rec.spans()[0].measured_end_ms, 2.5);

        let check = validate_chrome_trace(&rec.chrome_trace_json()).unwrap();
        assert_eq!(check.spans, 4); // 2 modeled + 2 measured
        assert_eq!(check.tracks, 4); // 2 resources × 2 process groups
        assert_eq!(check.span_pids, 2);
    }

    #[test]
    fn deterministic_recorder_zeroes_measured_and_drops_events() {
        let rec = TraceRecorder::deterministic();
        rec.span(span(0, "compute[0]", 0.0, 2.0));
        rec.event(ExecEvent {
            kind: EventKind::Dispatch,
            label: "x".to_string(),
            at_ms: 1.0,
        });
        assert!(!rec.wants_events());
        assert!(rec.events().is_empty());
        let spans = rec.spans();
        assert_eq!(spans[0].measured_start_ms, 0.0);
        assert_eq!(spans[0].measured_end_ms, 0.0);
        // Modeled fields untouched.
        assert_eq!(spans[0].end_ms, 2.0);

        let check = validate_chrome_trace(&rec.chrome_trace_json()).unwrap();
        assert_eq!(check.spans, 1);
        assert_eq!(check.span_pids, 1);
    }

    #[test]
    fn deterministic_export_is_byte_stable() {
        let run = || {
            let rec = TraceRecorder::deterministic();
            for i in 0..4 {
                let track = if i % 2 == 0 { "compute[0]" } else { "h2d[0]" };
                rec.span(span(i, track, i as f64, i as f64 + 0.75));
            }
            rec.chrome_trace_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clear_empties_the_recorder() {
        let rec = TraceRecorder::new();
        rec.span(span(0, "compute[0]", 0.0, 1.0));
        rec.clear();
        assert!(rec.spans().is_empty());
    }
}
