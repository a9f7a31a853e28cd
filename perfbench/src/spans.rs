//! In-memory host-time spans, recorded from the benchmark's own code around
//! calls into the workspace's public API.
//!
//! A span records its name, start, end, parent and the op it belongs to.
//! Spans stay in memory until the run ends and are written out once. When
//! tracing is off, [`span`] only runs its closure.

use serde_json::Value;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Op id of the workload's own set-up.
pub const SETUP_OP: u64 = 0;
/// Op ids from here up belong to the cross-workload layer pass.
pub const PASS_OP: u64 = 1 << 40;
/// Op id of the layer probes (direct calls into single layers); the
/// workload's own ops come before it.
pub const PROBE_OP: u64 = PASS_OP - 1;

/// One recorded span. Times are seconds since the process's trace epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub op: u64,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Default)]
struct Recorder {
    enabled: bool,
    op: u64,
    open: Vec<u64>,
    spans: Vec<Span>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turn recording on or off for this thread.
pub fn set_enabled(on: bool) {
    epoch();
    RECORDER.with(|r| r.borrow_mut().enabled = on);
}

pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().enabled)
}

/// Attribute the spans that follow on this thread to op `op`.
pub fn set_op(op: u64) {
    RECORDER.with(|r| r.borrow_mut().op = op);
}

/// Run `f` inside a span named `name` (the name is built only when tracing).
pub fn span<T>(name: impl FnOnce() -> String, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, op) = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.open.last().copied();
        r.open.push(id);
        (parent, r.op)
    });
    let start_s = epoch().elapsed().as_secs_f64();
    let out = f();
    let end_s = epoch().elapsed().as_secs_f64();
    let name = name();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.open.pop();
        r.spans.push(Span {
            id,
            parent,
            name,
            op,
            start_s,
            end_s,
        });
    });
    out
}

/// Take every span this thread has recorded.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Adopt spans recorded on another thread.
pub fn absorb(spans: Vec<Span>) {
    RECORDER.with(|r| r.borrow_mut().spans.extend(spans));
}

/// Each span's self time: its duration minus its children's. Children run
/// nested on the parent's thread, so they never overlap each other.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<f64> = spans.iter().map(Span::duration_s).collect();
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            own[p] -= s.duration_s();
        }
    }
    own
}

/// The spans as JSON lines.
pub fn to_json_lines(spans: &[Span], self_s: &[f64]) -> String {
    let mut out = String::new();
    for (s, own) in spans.iter().zip(self_s) {
        let parent = s.parent.map_or(Value::Null, Value::from);
        let v = Value::Object(vec![
            ("id".into(), s.id.into()),
            ("parent".into(), parent),
            ("name".into(), s.name.as_str().into()),
            ("op".into(), s.op.into()),
            ("start_s".into(), s.start_s.into()),
            ("end_s".into(), s.end_s.into()),
            ("self_s".into(), (*own).into()),
        ]);
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        set_enabled(true);
        set_op(3);
        span(
            || "outer".into(),
            || {
                span(
                    || "inner".into(),
                    || std::thread::sleep(std::time::Duration::from_millis(20)),
                );
            },
        );
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().position(|s| s.name == "inner").unwrap();
        let outer = spans.iter().position(|s| s.name == "outer").unwrap();
        assert_eq!(spans[inner].parent, Some(spans[outer].id));
        assert!(spans.iter().all(|s| s.op == 3));
        let own = self_times(&spans);
        assert!(own[inner] >= 0.019);
        assert!(own[outer] < own[inner]);
        assert!((own[outer] + own[inner] - spans[outer].duration_s()).abs() < 1e-9);
    }

    #[test]
    fn disabled_records_nothing() {
        set_enabled(false);
        assert_eq!(span(|| "x".into(), || 7), 7);
        assert!(take().is_empty());
    }
}
