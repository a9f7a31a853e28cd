//! Chrome-trace-event export: load a run's timeline into Perfetto.
//!
//! Aggregate reports say what a run cost; a timeline says *when*. This
//! module renders the workspace's observability artifacts — the query
//! executor's [`PhaseBreakdown`](windex_sim::PhaseBreakdown) and
//! [`WindowSpan`](windex_core::WindowSpan) timeline, the server's
//! [`BatchSpan`](windex_serve::BatchSpan) timeline, and the simulator's
//! recorded [`Trace`] (kernel launches, faults, retries, TLB flushes) — as
//! a Chrome trace-event JSON file (`chrome://tracing` /
//! [Perfetto](https://ui.perfetto.dev) both load it directly).
//!
//! # Time axis
//!
//! The simulator has no wall clock; every timestamp here is **virtual
//! time** from the cost model. Phase and window spans carry serial time
//! estimates, so they are laid end to end in recorded order. Discrete
//! trace events (faults, retries, launches) carry no timestamps of their
//! own, so they are placed *sequence-proportionally*: event `i` of `n`
//! lands at `i/n` of the run's span. That preserves ordering and density —
//! enough to see a fault storm or a launch cadence — without pretending to
//! sub-span accuracy.
//!
//! Timestamps are integer microseconds, so the export is byte-deterministic
//! per seed (pinned by the exporter-determinism tests).

use serde_json::Value;
use windex_core::{DegradationEvent, QueryReport};
use windex_serve::{ClusterReport, ServeEvent, ServerReport};
use windex_sim::{Trace, TraceEvent};

/// Process id used for every emitted event (one run = one process).
const PID: u64 = 1;

/// Build a JSON object from ordered pairs (the shim's `Object` preserves
/// insertion order, which keeps the export deterministic).
fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn us(seconds: f64) -> u64 {
    (seconds * 1e6).round().max(0.0) as u64
}

/// Incrementally builds a Chrome trace-event file.
struct ChromeTrace {
    events: Vec<Value>,
}

impl ChromeTrace {
    fn new() -> Self {
        ChromeTrace { events: Vec::new() }
    }

    /// Name a thread (track) in the viewer.
    fn thread_name(&mut self, tid: u64, name: &str) {
        self.events.push(obj(vec![
            ("name", Value::from("thread_name")),
            ("ph", Value::from("M")),
            ("pid", Value::from(PID)),
            ("tid", Value::from(tid)),
            ("args", obj(vec![("name", Value::from(name))])),
        ]));
    }

    /// A complete (`ph:"X"`) span.
    fn complete(&mut self, tid: u64, name: &str, cat: &str, ts_us: u64, dur_us: u64, args: Value) {
        self.events.push(obj(vec![
            ("name", Value::from(name)),
            ("cat", Value::from(cat)),
            ("ph", Value::from("X")),
            ("pid", Value::from(PID)),
            ("tid", Value::from(tid)),
            ("ts", Value::from(ts_us)),
            ("dur", Value::from(dur_us)),
            ("args", args),
        ]));
    }

    /// An instant (`ph:"i"`) event, thread-scoped.
    fn instant(&mut self, tid: u64, name: &str, cat: &str, ts_us: u64, args: Value) {
        self.events.push(obj(vec![
            ("name", Value::from(name)),
            ("cat", Value::from(cat)),
            ("ph", Value::from("i")),
            ("s", Value::from("t")),
            ("pid", Value::from(PID)),
            ("tid", Value::from(tid)),
            ("ts", Value::from(ts_us)),
            ("args", args),
        ]));
    }

    /// An async-begin (`ph:"b"`) event. Async spans pair by
    /// `(cat, id, name)` and may nest or overlap freely across tracks,
    /// which is what a fan-out request needs.
    fn async_begin(&mut self, tid: u64, name: &str, cat: &str, id: u64, ts_us: u64, args: Value) {
        self.events.push(obj(vec![
            ("name", Value::from(name)),
            ("cat", Value::from(cat)),
            ("ph", Value::from("b")),
            ("id", Value::from(format!("{id:#x}"))),
            ("pid", Value::from(PID)),
            ("tid", Value::from(tid)),
            ("ts", Value::from(ts_us)),
            ("args", args),
        ]));
    }

    /// The async-end (`ph:"e"`) matching an [`async_begin`](Self::async_begin).
    fn async_end(&mut self, tid: u64, name: &str, cat: &str, id: u64, ts_us: u64) {
        self.events.push(obj(vec![
            ("name", Value::from(name)),
            ("cat", Value::from(cat)),
            ("ph", Value::from("e")),
            ("id", Value::from(format!("{id:#x}"))),
            ("pid", Value::from(PID)),
            ("tid", Value::from(tid)),
            ("ts", Value::from(ts_us)),
        ]));
    }

    /// A flow event: `ph` is `"s"` (start), `"t"` (step), or `"f"`
    /// (finish). Flows with one `(cat, id, name)` draw arrows between the
    /// slices enclosing their timestamps, linking a coordinator span to
    /// its shard legs across tracks.
    fn flow(&mut self, ph: &str, tid: u64, name: &str, cat: &str, id: u64, ts_us: u64) {
        debug_assert!(matches!(ph, "s" | "t" | "f"), "not a flow phase: {ph}");
        let mut pairs = vec![
            ("name", Value::from(name)),
            ("cat", Value::from(cat)),
            ("ph", Value::from(ph)),
            ("id", Value::from(format!("{id:#x}"))),
            ("pid", Value::from(PID)),
            ("tid", Value::from(tid)),
            ("ts", Value::from(ts_us)),
        ];
        if ph == "f" {
            // Bind the arrow head to the enclosing slice, not the next one.
            pairs.push(("bp", Value::from("e")));
        }
        self.events.push(obj(pairs));
    }

    fn finish(self) -> Value {
        obj(vec![
            ("traceEvents", Value::Array(self.events)),
            ("displayTimeUnit", Value::from("ms")),
        ])
    }
}

/// Lay the simulator's discrete trace events (launches, faults, retries,
/// TLB flushes) onto `[0, total_us]` sequence-proportionally, on `tid`.
fn place_sim_events(ct: &mut ChromeTrace, tid: u64, trace: &Trace, total_us: u64) {
    let events = trace.events();
    let n = events.len().max(1) as u64;
    for (i, ev) in events.iter().enumerate() {
        let ts = total_us * i as u64 / n;
        match ev {
            TraceEvent::KernelLaunch => {
                ct.instant(tid, "kernel_launch", "kernel", ts, obj(vec![]));
            }
            TraceEvent::TlbFlush => {
                ct.instant(tid, "tlb_flush", "tlb", ts, obj(vec![]));
            }
            TraceEvent::Fault { kind } => {
                ct.instant(
                    tid,
                    "fault",
                    "fault",
                    ts,
                    obj(vec![("kind", Value::from(format!("{kind:?}")))]),
                );
            }
            TraceEvent::Retry {
                attempt,
                backoff_ns,
            } => {
                ct.instant(
                    tid,
                    "retry",
                    "fault",
                    ts,
                    obj(vec![
                        ("attempt", Value::from(*attempt)),
                        ("backoff_ns", Value::from(*backoff_ns)),
                    ]),
                );
            }
            // Line/translate traffic is aggregated by the heatmaps; as
            // individual instants it would swamp the viewer.
            _ => {}
        }
    }
    if trace.dropped_events() > 0 {
        ct.instant(
            tid,
            "trace_truncated",
            "meta",
            total_us,
            obj(vec![
                ("dropped_events", Value::from(trace.dropped_events())),
                ("recorded_events", Value::from(trace.recorded().events)),
            ]),
        );
    }
}

/// Render one executed query as a Chrome trace. Tracks: the whole run,
/// the per-phase breakdown, the per-window timeline, degradation events,
/// and the simulator's discrete trace events.
pub fn query_chrome_trace(report: &QueryReport, trace: &Trace) -> Value {
    let mut ct = ChromeTrace::new();
    ct.thread_name(0, "run");
    ct.thread_name(1, "phases");
    ct.thread_name(2, "windows");
    ct.thread_name(3, "degradation");
    ct.thread_name(4, "sim events");

    // The run track uses the serial phase-sum duration so the phase track
    // tiles it exactly.
    let total_us = us(report.phases.total_est_s).max(1);
    ct.complete(
        0,
        &report.strategy,
        "run",
        0,
        total_us,
        obj(vec![
            ("r_tuples", Value::from(report.r_tuples)),
            ("s_tuples", Value::from(report.s_tuples)),
            ("result_tuples", Value::from(report.result_tuples)),
            ("retries", Value::from(report.retries)),
        ]),
    );

    // Phases end to end, in first-recorded order (serial estimates are
    // additive by construction).
    let mut cursor = 0u64;
    for p in &report.phases.phases {
        let dur = us(p.time.total_s);
        ct.complete(
            1,
            p.phase,
            "phase",
            cursor,
            dur,
            obj(vec![
                ("spans", Value::from(p.spans)),
                ("tlb_misses", Value::from(p.counters.tlb_misses)),
                ("ic_bytes", Value::from(p.counters.ic_bytes_total())),
            ]),
        );
        cursor += dur;
    }

    // Window timeline end to end (windowed plans only).
    let mut wcursor = 0u64;
    for w in &report.window_timeline {
        let dur = us(w.est_s);
        ct.complete(
            2,
            &format!("window {}", w.window),
            "window",
            wcursor,
            dur,
            obj(vec![
                ("keys", Value::from(w.keys)),
                ("matches", Value::from(w.matches)),
                ("tlb_misses", Value::from(w.counters.tlb_misses)),
            ]),
        );
        wcursor += dur;
    }

    // Degradations, sequence-proportional across the run.
    let nd = report.degradations.len().max(1) as u64;
    for (i, d) in report.degradations.iter().enumerate() {
        let name = match d {
            DegradationEvent::WindowShrunk { .. } => "window_shrunk",
            DegradationEvent::PartitionDegradedToWindow { .. } => "partition_degraded",
            DegradationEvent::ResultsSpilledToCpu => "results_spilled",
            DegradationEvent::HashBuildChunked { .. } => "hash_build_chunked",
            DegradationEvent::FellBackToHashJoin => "fell_back_to_hash_join",
            DegradationEvent::DeviceLossRecovered { .. } => "device_loss_recovered",
        };
        ct.instant(
            3,
            name,
            "degradation",
            total_us * (i as u64 + 1) / (nd + 1),
            obj(vec![("detail", Value::from(format!("{d:?}")))]),
        );
    }

    place_sim_events(&mut ct, 4, trace, total_us);
    ct.finish()
}

/// Render one served trace as a Chrome trace. Tracks: the whole run, the
/// per-dispatch batch timeline (real `at_s` timestamps), serving events,
/// and the per-phase breakdown.
pub fn server_chrome_trace(report: &ServerReport) -> Value {
    let mut ct = ChromeTrace::new();
    ct.thread_name(0, "run");
    ct.thread_name(1, "batches");
    ct.thread_name(2, "serve events");
    ct.thread_name(3, "phases");

    let total_us = us(report.virtual_makespan_s).max(1);
    ct.complete(
        0,
        &report.policy,
        "run",
        0,
        total_us,
        obj(vec![
            ("tenants", Value::from(report.tenants)),
            ("requests", Value::from(report.requests)),
            ("completed", Value::from(report.completed)),
            ("shed", Value::from(report.shed)),
        ]),
    );

    // Batches carry real virtual-clock timestamps.
    for b in &report.batches {
        ct.complete(
            1,
            &format!("batch {}", b.batch),
            "batch",
            us(b.at_s),
            us(b.est_s).max(1),
            obj(vec![
                ("keys", Value::from(b.keys)),
                ("windows", Value::from(b.windows)),
                ("completed", Value::from(b.completed)),
                ("tlb_misses", Value::from(b.counters.tlb_misses)),
            ]),
        );
    }

    // Serving events have no timestamps of their own: sequence-proportional.
    let ne = report.events.len().max(1) as u64;
    for (i, e) in report.events.iter().enumerate() {
        let name = match e {
            ServeEvent::WindowShrunk { .. } => "window_shrunk",
            ServeEvent::SinkSpilledToCpu => "sink_spilled",
            ServeEvent::LoadShed { .. } => "load_shed",
            ServeEvent::BatchAbandoned { .. } => "batch_abandoned",
            ServeEvent::CircuitShed { .. } => "circuit_shed",
            ServeEvent::CircuitOpened { .. } => "circuit_opened",
            ServeEvent::CircuitClosed { .. } => "circuit_closed",
            ServeEvent::DispatchRetried { .. } => "dispatch_retried",
            ServeEvent::RetriesExhausted { .. } => "retries_exhausted",
            ServeEvent::DeviceLossRecovered { .. } => "device_loss_recovered",
        };
        ct.instant(
            2,
            name,
            "serve",
            total_us * (i as u64 + 1) / (ne + 1),
            obj(vec![("detail", Value::from(format!("{e:?}")))]),
        );
    }

    let mut cursor = 0u64;
    for p in &report.phases.phases {
        let dur = us(p.time.total_s);
        ct.complete(
            3,
            p.phase,
            "phase",
            cursor,
            dur,
            obj(vec![("spans", Value::from(p.spans))]),
        );
        cursor += dur;
    }
    ct.finish()
}

/// Track id hosting shard `g`'s leg slices in the request-tree export.
fn leg_tid(gpu: usize) -> u64 {
    100 + gpu as u64
}

/// Render a cluster run's per-request span trees as a Chrome trace:
/// each request is an async (`b`/`e`) span on the coordinator track, each
/// shard leg an `X` slice on its GPU's track, and a flow chain
/// (`s` → `t` → `f`) links the coordinator span through every leg back to
/// the merge point, so Perfetto draws the fan-out/merge arrows.
pub fn cluster_request_chrome_trace(report: &ClusterReport) -> Value {
    let mut ct = ChromeTrace::new();
    ct.thread_name(0, "requests");
    for g in 0..report.gpus {
        ct.thread_name(leg_tid(g), &format!("gpu {g} legs"));
    }
    for t in &report.traces {
        let name = format!("request {}", t.request);
        let end_us = us(t.completed_s).max(us(t.submitted_s));
        ct.async_begin(
            0,
            &name,
            "request",
            t.trace_id,
            us(t.submitted_s),
            obj(vec![
                ("trace_id", Value::from(format!("{:#x}", t.trace_id))),
                ("tenant", Value::from(t.tenant as u64)),
                ("outcome", Value::from(format!("{:?}", t.outcome))),
                ("keys", Value::from(t.keys)),
                ("matches", Value::from(t.matches)),
                ("queue_s", Value::from(t.stages.queue_s)),
                ("batch_s", Value::from(t.stages.batch_s)),
                ("service_s", Value::from(t.stages.service_s)),
                ("merge_s", Value::from(t.stages.merge_s)),
                ("other_s", Value::from(t.stages.other_s)),
            ]),
        );
        for (i, leg) in t.legs.iter().enumerate() {
            let tid = leg_tid(leg.shard);
            let flow_name = format!("r{} flow", t.request);
            ct.flow(
                "s",
                0,
                &flow_name,
                "fanout",
                leg.span_id,
                us(leg.enqueued_s),
            );
            ct.complete(
                tid,
                &format!("r{} leg {}", t.request, leg.shard),
                "leg",
                us(leg.dispatched_s),
                (us(leg.done_s).saturating_sub(us(leg.dispatched_s))).max(1),
                obj(vec![
                    ("keys", Value::from(leg.keys)),
                    ("matches", Value::from(leg.matches)),
                    ("remote", Value::from(leg.remote)),
                    ("delivered_s", Value::from(leg.delivered_s)),
                    ("critical", Value::from(t.critical_leg == Some(i))),
                ]),
            );
            ct.flow(
                "t",
                tid,
                &flow_name,
                "fanout",
                leg.span_id,
                us(leg.dispatched_s),
            );
            ct.flow(
                "f",
                0,
                &flow_name,
                "fanout",
                leg.span_id,
                us(leg.delivered_s),
            );
        }
        ct.async_end(0, &name, "request", t.trace_id, end_us);
    }
    ct.finish()
}

/// Serialize a Chrome trace [`Value`] as the canonical on-disk bytes
/// (pretty-printed, trailing newline).
pub fn chrome_trace_json(trace: &Value) -> String {
    let mut text = serde_json::to_string_pretty(trace).expect("trace serializes");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_proportional_placement_is_monotone() {
        let mut ct = ChromeTrace::new();
        let mut t = Trace::with_capacity(16);
        for _ in 0..4 {
            t.record(TraceEvent::KernelLaunch);
        }
        place_sim_events(&mut ct, 0, &t, 1000);
        let ts: Vec<u64> = ct
            .events
            .iter()
            .map(|e| e.get("ts").and_then(Value::as_u64).unwrap())
            .collect();
        assert_eq!(ts, vec![0, 250, 500, 750]);
    }

    #[test]
    fn truncated_traces_are_flagged_in_the_export() {
        let mut ct = ChromeTrace::new();
        let mut t = Trace::new(2, windex_sim::TraceMode::Ring);
        for _ in 0..10 {
            t.record(TraceEvent::KernelLaunch);
        }
        t.normalize();
        place_sim_events(&mut ct, 0, &t, 100);
        let names: Vec<&str> = ct
            .events
            .iter()
            .filter_map(|e| e.get("name").and_then(Value::as_str))
            .collect();
        assert!(names.contains(&"trace_truncated"));
    }
}
