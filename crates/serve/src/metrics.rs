//! OpenMetrics text exposition for every serving host's report, in one
//! vocabulary.
//!
//! [`render_openmetrics`] ([`ServerReport`]), [`render_cluster_openmetrics`],
//! [`render_tuner_openmetrics`] and [`render_parallel_openmetrics`] each
//! render their report as an OpenMetrics text snapshot ending in the
//! mandatory `# EOF`, in two steps. First they fill a private `Snapshot`
//! of the concepts the hosts share — requests by outcome, keys and
//! matches, the latency histogram, stage seconds, batches, the degradation
//! ladder, recoveries and MTTR, SLOs, throughput, queue depth, busy time
//! and makespan — whose renderer declares each shared family once. Then
//! they append the families only their host has: the server's breakers,
//! retry budget and window gauges, the cluster's topology and shards, the
//! tuner's plans. Every sample carries a `host` label
//! (`server|cluster|tuned|parallel`), plus `tenant` or `gpu` where the
//! host breaks the value down that way, so one query — say
//! `sum by (host) (windex_requests_completed_total)` — answers over all
//! four hosts.
//!
//! The private `Exposition` writer owns the text format: `# HELP`/`# TYPE`
//! headers, the counter `_total` suffix, histogram lines, label escaping
//! and the closing `# EOF`; [`validate_openmetrics`] checks what it
//! guarantees. Families render in a fixed order, tenants and GPUs in
//! ascending id order, and numbers through Rust's shortest-round-trip
//! float formatting, so the same seed gives a byte-identical snapshot;
//! the `observe` artifacts under `results/` pin all four renderers.

use crate::cluster::{ClusterEvent, ClusterReport, ShardLoad};
use crate::parallel::{ParallelServeOutcome, TenantLane};
use crate::report::{LatencyHistogram, ServeEvent, ServerReport, TenantLoad};
use crate::resilience::SloReport;
use crate::span::{RequestTrace, StageLatencyStats};
use crate::tuned::{TunedReport, TunedTenantReport};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Display, Write as _};
use windex_core::TuneReason;

const HELP: &str = "# HELP ";
const TYPE: &str = "# TYPE ";
const EOF: &str = "# EOF\n";

/// An OpenMetrics family type, as its `# TYPE` line names it.
type Kind = &'static str;
const COUNTER: Kind = "counter";
const GAUGE: Kind = "gauge";
const HISTOGRAM: Kind = "histogram";

/// A sample's labels after `host`: `(name, value)` pairs, values escaped
/// on write.
type Labels<'a> = &'a [(&'a str, &'a dyn Display)];

/// Write one family per `KIND "name" "help" => series;` row, in order (an
/// empty series writes nothing), so a list of families reads as a table.
macro_rules! families {
    ($w:expr; $($kind:ident $name:literal $help:literal => $series:expr;)*) => {
        $($w.put($kind, $name, $help, &$series);)*
    };
}

/// The OpenMetrics text writer for one host. Every sample belongs to the
/// family most recently declared, so a family's samples are contiguous by
/// construction; every sample carries the `host` label first, and counter
/// samples get the `_total` suffix here.
struct Exposition {
    out: String,
    /// The `host` label value of every sample.
    host: &'static str,
    /// Name of the family being written.
    name: String,
    kind: Kind,
}

impl Exposition {
    fn new(host: &'static str) -> Self {
        Exposition {
            out: String::new(),
            host,
            name: String::new(),
            kind: GAUGE,
        }
    }

    /// Declare a family: its `# HELP` and `# TYPE` lines.
    fn family(&mut self, kind: Kind, name: &str, help: &str) -> &mut Self {
        self.name.clear();
        self.name.push_str(name);
        self.kind = kind;
        let _ = write!(self.out, "{HELP}{0} {help}\n{TYPE}{0} {kind}\n", self.name);
        self
    }

    /// One sample of the current counter or gauge family.
    fn sample(&mut self, labels: Labels, value: impl Display) -> &mut Self {
        debug_assert!(self.kind != HISTOGRAM, "histograms write via histogram()");
        let suffix = if self.kind == COUNTER { "_total" } else { "" };
        self.line(suffix, labels, value);
        self
    }

    /// A family holding `series`; an empty series writes nothing.
    fn put<I: Display>(&mut self, kind: Kind, name: &str, help: &str, series: &Series<I>) {
        if series.total.is_none() && series.rows.is_empty() {
            return;
        }
        self.family(kind, name, help);
        if let Some(v) = series.total {
            self.sample(&[], v);
        }
        for (id, v) in &series.rows {
            self.sample(&[(series.by, id)], v);
        }
    }

    /// A histogram family: cumulative `le` buckets, `+Inf`, count and sum.
    fn histogram(&mut self, name: &str, help: &str, h: &LatencyHistogram) {
        self.family(HISTOGRAM, name, help);
        for (bound, cum) in h.bounds_s.iter().zip(h.cumulative()) {
            self.line("_bucket", &[("le", bound)], cum);
        }
        self.line("_bucket", &[("le", &"+Inf")], h.count);
        self.line("_count", &[], h.count);
        self.line("_sum", &[], h.sum_s);
    }

    fn line(&mut self, suffix: &str, labels: Labels, value: impl Display) {
        self.out.push_str(&self.name);
        self.out.push_str(suffix);
        self.out.push_str("{host=\"");
        self.out.push_str(self.host);
        self.out.push('"');
        for (label, v) in labels {
            self.out.push(',');
            self.out.push_str(label);
            self.out.push_str("=\"");
            let _ = write!(Escaped(&mut self.out), "{v}");
            self.out.push('"');
        }
        let _ = writeln!(self.out, "}} {value}");
    }

    /// Close the exposition with its `# EOF` marker.
    fn finish(mut self) -> String {
        self.out.push_str(EOF);
        self.out
    }
}

/// Writes through to a string, escaping a label value per the OpenMetrics
/// text format.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, mut s: &str) -> fmt::Result {
        while let Some(i) = s.find(['\\', '"', '\n']) {
            self.0.push_str(&s[..i]);
            self.0.push_str(match s.as_bytes()[i] {
                b'\\' => "\\\\",
                b'"' => "\\\"",
                _ => "\\n",
            });
            s = &s[i + 1..];
        }
        self.0.push_str(s);
        Ok(())
    }
}

/// One histogram label set's samples, as the validator meets them.
#[derive(Default)]
struct HistogramSamples {
    last_bucket: f64,
    inf: Option<f64>,
    count: Option<f64>,
    sum: bool,
}

/// Check that `text` is a well-formed exposition as this module writes
/// it: every family is declared once, `# HELP` then `# TYPE`; its samples
/// follow contiguously and carry the family's name (counters with
/// `_total`, histograms with `_bucket`/`_count`/`_sum`); every value is a
/// number; for each histogram label set the `le` buckets never decrease,
/// the `+Inf` bucket equals `_count`, and `_sum` is present; and the text
/// ends in exactly one `# EOF`.
pub fn validate_openmetrics(text: &str) -> Result<(), String> {
    let body = text
        .strip_suffix(EOF)
        .ok_or("exposition does not end in `# EOF`")?;
    let mut declared = BTreeSet::new();
    let mut family: Option<(&str, &str)> = None;
    let mut histograms = BTreeMap::new();
    let mut lines = body.lines();
    while let Some(line) = lines.next() {
        if let Some(help) = line.strip_prefix(HELP) {
            close_histograms(family, &mut histograms)?;
            let name = help.split(' ').next().unwrap_or_default();
            let (typed, kind) = lines
                .next()
                .and_then(|l| l.strip_prefix(TYPE))
                .and_then(|t| t.split_once(' '))
                .ok_or_else(|| format!("family {name}: `# HELP` without `# TYPE`"))?;
            if typed != name || ![COUNTER, GAUGE, HISTOGRAM].contains(&kind) {
                return Err(format!("family {name}: bad type line `{typed} {kind}`"));
            }
            if !declared.insert(name) {
                return Err(format!("family {name} declared twice"));
            }
            family = Some((name, kind));
            continue;
        }
        let (name, kind) = family.ok_or_else(|| format!("`{line}` precedes every family"))?;
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("`{line}` has no value"))?;
        let (metric, labels) = series.split_once('{').unwrap_or((series, "}"));
        let labels = labels.strip_suffix('}').unwrap_or(labels);
        let suffixes: &[&str] = match kind {
            COUNTER => &["_total"],
            GAUGE => &[""],
            _ => &["_bucket", "_count", "_sum"],
        };
        let suffix = metric
            .strip_prefix(name)
            .filter(|s| suffixes.contains(s))
            .ok_or_else(|| format!("`{line}` is not a {kind} sample of family {name}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("`{line}` has a non-numeric value"))?;
        match (kind, suffix) {
            (HISTOGRAM, "_bucket") => {
                // The writer puts `le` last: the label set is what precedes it.
                let (set, le) = labels
                    .rsplit_once("le=\"")
                    .ok_or_else(|| format!("`{line}` has no trailing `le` label"))?;
                let h: &mut HistogramSamples =
                    histograms.entry(set.trim_end_matches(',')).or_default();
                if value < h.last_bucket {
                    return Err(format!("`{line}` falls below the bucket before it"));
                }
                h.last_bucket = value;
                if le == "+Inf\"" {
                    h.inf = Some(value);
                }
            }
            (HISTOGRAM, "_count") => histograms.entry(labels).or_default().count = Some(value),
            (HISTOGRAM, _) => histograms.entry(labels).or_default().sum = true,
            _ => {}
        }
    }
    close_histograms(family, &mut histograms)
}

/// Check every label set of the histogram family that just ended.
fn close_histograms(
    family: Option<(&str, &str)>,
    histograms: &mut BTreeMap<&str, HistogramSamples>,
) -> Result<(), String> {
    let name = family.map_or("", |(name, _)| name);
    for (set, h) in std::mem::take(histograms) {
        if h.inf.is_none() || h.inf != h.count || !h.sum {
            return Err(format!(
                "histogram {name}{{{set}}}: needs a `+Inf` bucket equal to `_count`, and `_sum`"
            ));
        }
    }
    Ok(())
}

/// One family's values on one host: a host-wide value, one value per id
/// of the breakdown label `by` (`tenant`, `gpu`, …; ascending), or both.
/// An empty series leaves its family out.
#[derive(Default)]
struct Series<I = usize> {
    total: Option<f64>,
    by: &'static str,
    rows: Vec<(I, f64)>,
}

/// A host-wide series.
fn total(value: f64) -> Series {
    Series {
        total: Some(value),
        ..Series::default()
    }
}

/// A series broken down by `by`.
fn by<I>(by: &'static str, rows: impl IntoIterator<Item = (I, f64)>) -> Series<I> {
    Series {
        total: None,
        by,
        rows: rows.into_iter().collect(),
    }
}

/// The concepts every host shares, as one host reports them, borrowed
/// from its report. What a host has no concept for stays empty (or
/// `None`) and renders no family.
#[derive(Default)]
struct Snapshot<'a> {
    /// Labels of `windex_host_info`, after `host`.
    identity: Labels<'a>,
    requests: Requests,
    /// Probe keys dispatched (shed requests never dispatch theirs).
    keys_probed: Series,
    /// Join matches returned in responses.
    result_tuples: Series,
    latency: Option<&'a LatencyHistogram>,
    stages: Option<(&'a StageLatencyStats, &'a [RequestTrace])>,
    /// Windows (batches) dispatched.
    batches: Series,
    ladder: Ladder,
    /// Device losses absorbed, by recovery kind.
    recoveries: Series<&'static str>,
    /// Virtual MTTR summed over those recoveries.
    recovery_seconds: Series,
    slo: Option<&'a SloReport>,
    /// Completed requests per virtual second of the makespan.
    completed_rps: Series,
    /// Probed keys per virtual second of the makespan.
    keys_per_second: Series,
    queue_depth: Series,
    busy: Series,
    makespan: Series,
}

/// Requests submitted, then the three disjoint outcome buckets.
#[derive(Default)]
struct Requests {
    submitted: Series,
    completed: Series,
    shed: Series,
    deadline_missed: Series,
}

/// A rung of the degradation ladder.
#[derive(Clone, Copy)]
enum Rung {
    Shrink,
    Spill,
    LoadShed,
    Abandoned,
    Retry,
    Exhausted,
}

/// Degradation-ladder event counts, one series per [`Rung`].
#[derive(Default)]
struct Ladder([Series; 6]);

impl Ladder {
    /// Zero counts: host-wide, or with `gpus` one per GPU for every rung
    /// but load shedding, which happens at admission, before any GPU.
    fn new(gpus: Option<usize>) -> Self {
        Ladder(std::array::from_fn(|rung| match gpus {
            Some(n) if rung != Rung::LoadShed as usize => by("gpu", (0..n).map(|g| (g, 0.0))),
            _ => total(0.0),
        }))
    }

    fn count(&mut self, rung: Rung, gpu: Option<usize>) {
        let series = &mut self.0[rung as usize];
        match gpu {
            Some(gpu) => series.rows[gpu].1 += 1.0,
            None => *series.total.get_or_insert(0.0) += 1.0,
        }
    }
}

/// The fixed stage order of the per-stage families.
const STAGE_NAMES: [&str; 5] = ["queue", "batch", "service", "merge", "other"];

impl Snapshot<'_> {
    /// Declare every shared family once and write the ones filled; the
    /// caller appends its host-only families and finishes.
    fn render(&self, host: &'static str) -> Exposition {
        let mut w = Exposition::new(host);
        w.family(
            GAUGE,
            "windex_host_info",
            "Host identity, in labels; the value is 1.",
        )
        .sample(self.identity, 1);
        let r = &self.requests;
        families! { w;
            COUNTER "windex_requests" "Requests submitted." => r.submitted;
            COUNTER "windex_requests_completed" "Requests served within deadline." => r.completed;
            COUNTER "windex_requests_shed" "Requests shed at admission or in abandoned batches."
                => r.shed;
            COUNTER "windex_requests_deadline_missed" "Requests served past their deadline."
                => r.deadline_missed;
            COUNTER "windex_keys_probed" "Probe keys dispatched." => self.keys_probed;
            COUNTER "windex_result_tuples" "Join matches returned." => self.result_tuples;
        }
        if let Some(h) = self.latency {
            w.histogram(
                "windex_request_latency_seconds",
                "Request latency over served requests, in virtual seconds.",
                h,
            );
        }
        let (stage_p99, stage_seconds) = self.stages.map(stage_series).unwrap_or_default();
        let [shrinks, spills, load_sheds, abandoned, retries, exhausted] = &self.ladder.0;
        let slo = |f: fn(&SloReport) -> f64| self.slo.map(f).map_or_else(Series::default, total);
        families! { w;
            GAUGE "windex_stage_p99_seconds"
                "p99 per-stage latency over all span trees, in virtual seconds." => stage_p99;
            COUNTER "windex_stage_seconds"
                "Virtual time attributed to each stage, summed over all span trees."
                => stage_seconds;
            COUNTER "windex_batches_dispatched" "Windows (batches) dispatched." => self.batches;
            COUNTER "windex_window_shrinks" "Window halvings under device-memory pressure." => *shrinks;
            COUNTER "windex_sink_spills" "Result-sink spills to CPU memory." => *spills;
            COUNTER "windex_load_sheds" "Requests refused at admission by backpressure." => *load_sheds;
            COUNTER "windex_batches_abandoned" "Dispatched batches shed after exhausting degradation."
                => *abandoned;
            COUNTER "windex_dispatch_retries" "Transient dispatch failures retried with backoff."
                => *retries;
            COUNTER "windex_retries_exhausted" "Batches shed when the retry budget or cap ran out."
                => *exhausted;
            COUNTER "windex_recoveries" "Device losses absorbed, by recovery kind." => self.recoveries;
            COUNTER "windex_recovery_seconds" "Virtual mean-time-to-recovery, summed."
                => self.recovery_seconds;
            GAUGE "windex_slo_availability" "Fraction of submitted requests answered (not shed)."
                => slo(|s| s.availability);
            GAUGE "windex_slo_goodput_rps" "Requests answered within budget per virtual second."
                => slo(|s| s.goodput_rps);
            GAUGE "windex_slo_p99_seconds" "p99 latency over answered requests, in virtual seconds."
                => slo(|s| s.p99_s);
            GAUGE "windex_completed_rps" "Completed requests per virtual second."
                => self.completed_rps;
            GAUGE "windex_keys_per_second" "Probed keys per virtual second." => self.keys_per_second;
            GAUGE "windex_max_queue_depth_keys" "Largest queued-key backlog at any admission."
                => self.queue_depth;
            COUNTER "windex_busy_seconds" "Virtual device time spent dispatching or rebuilding."
                => self.busy;
            GAUGE "windex_virtual_makespan_seconds" "Virtual time from first arrival to last response."
                => self.makespan;
        }
        w
    }
}

/// The per-stage p99 and summed seconds, labelled by `stage`.
fn stage_series(
    (stats, traces): (&StageLatencyStats, &[RequestTrace]),
) -> (Series<&'static str>, Series<&'static str>) {
    let p99s = [
        stats.queue.p99_s,
        stats.batch.p99_s,
        stats.service.p99_s,
        stats.merge.p99_s,
        stats.other.p99_s,
    ];
    let mut totals = [0.0f64; 5];
    for t in traces {
        totals[0] += t.stages.queue_s;
        totals[1] += t.stages.batch_s;
        totals[2] += t.stages.service_s;
        totals[3] += t.stages.merge_s;
        totals[4] += t.stages.other_s;
    }
    (
        by("stage", STAGE_NAMES.into_iter().zip(p99s)),
        by("stage", STAGE_NAMES.into_iter().zip(totals)),
    )
}

/// Render `report` as an OpenMetrics text snapshot (ending in `# EOF`).
pub fn render_openmetrics(report: &ServerReport) -> String {
    let tenants = &report.per_tenant;
    let per_tenant = |value: fn(&TenantLoad) -> usize| {
        by(
            "tenant",
            tenants.iter().map(|t| (t.tenant as usize, value(t) as f64)),
        )
    };
    let mut ladder = Ladder::new(None);
    let (mut recoveries, mut mttr_s, mut circuit_sheds) = (0.0, 0.0, 0.0);
    for e in &report.events {
        let rung = match e {
            ServeEvent::WindowShrunk { .. } => Rung::Shrink,
            ServeEvent::SinkSpilledToCpu => Rung::Spill,
            ServeEvent::LoadShed { .. } => Rung::LoadShed,
            ServeEvent::BatchAbandoned { .. } => Rung::Abandoned,
            ServeEvent::DispatchRetried { .. } => Rung::Retry,
            ServeEvent::RetriesExhausted { .. } => Rung::Exhausted,
            ServeEvent::CircuitShed { .. } => {
                circuit_sheds += 1.0;
                continue;
            }
            ServeEvent::DeviceLossRecovered { mttr_s: m } => {
                recoveries += 1.0;
                mttr_s += m;
                continue;
            }
            ServeEvent::CircuitOpened { .. } | ServeEvent::CircuitClosed { .. } => continue,
        };
        ladder.count(rung, None);
    }
    let mut w = Snapshot {
        identity: &[
            ("policy", &report.policy),
            ("index", &format_args!("{:?}", report.index)),
        ],
        requests: Requests {
            submitted: per_tenant(|t| t.requests),
            completed: per_tenant(|t| t.completed),
            shed: per_tenant(|t| t.shed),
            deadline_missed: per_tenant(|t| t.deadline_missed),
        },
        keys_probed: total(report.keys_probed as f64),
        result_tuples: per_tenant(|t| t.matches),
        latency: Some(&report.latency_hist),
        stages: Some((&report.stages, &report.traces)),
        batches: total(report.window.windows as f64),
        ladder,
        recoveries: by("kind", [("rebuild", recoveries)]),
        recovery_seconds: total(mttr_s),
        slo: Some(&report.slo),
        completed_rps: total(report.completed_rps),
        keys_per_second: total(report.keys_per_second),
        queue_depth: total(report.max_queue_depth_keys as f64),
        busy: Series::default(),
        makespan: total(report.virtual_makespan_s),
    }
    .render("server");
    let (breaker, retry) = (&report.breaker, &report.retry);
    let states = breaker.tenants.iter();
    families! { w;
        COUNTER "windex_request_keys" "Probe keys submitted." => per_tenant(|t| t.keys);
        COUNTER "windex_operator_retries" "Operator retries priced into virtual time."
            => total(report.retries as f64);
        GAUGE "windex_circuit_state" "Circuit-breaker state at trace end (0=closed, 1=half-open, 2=open)."
            => by("tenant", states.map(|t| (t.tenant as usize, t.state.as_gauge() as f64)));
        COUNTER "windex_circuit_opens" "Circuit-breaker trips from closed or half-open to open."
            => total(breaker.opens as f64);
        COUNTER "windex_circuit_fast_rejects" "Requests rejected at admission by an open breaker."
            => total(breaker.fast_rejects as f64);
        COUNTER "windex_circuit_sheds" "Requests shed by circuit breakers." => total(circuit_sheds);
        GAUGE "windex_retry_tokens" "Retry-budget tokens remaining at trace end."
            => total(retry.tokens_remaining);
        COUNTER "windex_retry_backoff_seconds" "Virtual time spent in retry backoff."
            => total(retry.backoff_s);
        GAUGE "windex_configured_window_tuples" "Shared-window capacity as configured."
            => total(report.configured_window_tuples as f64);
        GAUGE "windex_effective_window_tuples" "Shared-window capacity after degradation, at trace end."
            => total(report.effective_window_tuples as f64);
        GAUGE "windex_mean_batch_keys" "Mean keys per dispatched window."
            => total(report.mean_batch_keys);
    }
    w.finish()
}

/// Render a [`ClusterReport`] as an OpenMetrics text snapshot (ending in
/// `# EOF`). Per-GPU series carry a `gpu` label and render in ascending
/// GPU-id order; like [`render_openmetrics`], the same report always
/// renders byte-identically.
pub fn render_cluster_openmetrics(report: &ClusterReport) -> String {
    let shards = &report.per_shard;
    let per_gpu =
        |value: fn(&ShardLoad) -> f64| by("gpu", shards.iter().map(|s| (s.gpu, value(s))));
    let mut ladder = Ladder::new(Some(report.gpus));
    for e in &report.events {
        let (rung, gpu) = match *e {
            ClusterEvent::ShardWindowShrunk { gpu, .. } => (Rung::Shrink, Some(gpu)),
            ClusterEvent::ShardSinkSpilled { gpu } => (Rung::Spill, Some(gpu)),
            ClusterEvent::LoadShed { .. } => (Rung::LoadShed, None),
            ClusterEvent::BatchAbandoned { gpu, .. } => (Rung::Abandoned, Some(gpu)),
            ClusterEvent::DispatchRetried { gpu, .. } => (Rung::Retry, Some(gpu)),
            ClusterEvent::RetriesExhausted { gpu, .. } => (Rung::Exhausted, Some(gpu)),
            ClusterEvent::FailedOver { .. }
            | ClusterEvent::ReSharded { .. }
            | ClusterEvent::DeviceRecovered { .. } => continue,
        };
        ladder.count(rung, gpu);
    }
    let mut w = Snapshot {
        identity: &[
            ("placement", &report.placement),
            ("link", &report.link),
            ("policy", &report.policy),
            ("index", &format_args!("{:?}", report.index)),
        ],
        requests: Requests {
            submitted: total(report.requests as f64),
            completed: total(report.completed as f64),
            shed: total(report.shed as f64),
            deadline_missed: total(report.deadline_missed as f64),
        },
        keys_probed: per_gpu(|s| s.keys_probed as f64),
        result_tuples: total(report.result_tuples as f64),
        latency: Some(&report.latency_hist),
        stages: Some((&report.stages, &report.traces)),
        batches: per_gpu(|s| s.dispatches as f64),
        ladder,
        recoveries: by(
            "kind",
            [
                ("failover", report.failovers as f64),
                ("reshard", report.reshards as f64),
                ("rebuild", report.recoveries as f64),
            ],
        ),
        recovery_seconds: total(report.mttr_total_s),
        slo: Some(&report.slo),
        completed_rps: total(report.completed_rps),
        keys_per_second: total(report.keys_per_second),
        queue_depth: per_gpu(|s| s.max_queue_depth_keys as f64),
        busy: per_gpu(|s| s.busy_s),
        makespan: total(report.virtual_makespan_s),
    }
    .render("cluster");
    let mut critical = vec![0.0; report.gpus];
    for t in &report.traces {
        if let Some(n) = t
            .critical_leg
            .and_then(|i| critical.get_mut(t.legs[i].shard))
        {
            *n += 1.0;
        }
    }
    families! { w;
        GAUGE "windex_cluster_gpus" "GPU instances the cluster was built with."
            => total(report.gpus as f64);
        GAUGE "windex_cluster_alive_gpus" "GPU instances still alive at trace end."
            => total(report.alive_gpus as f64);
        GAUGE "windex_shard_alive" "Whether the shard's device was alive at trace end."
            => per_gpu(|s| f64::from(u8::from(s.alive)));
        GAUGE "windex_shard_partitions" "Radix partitions owned by the shard at trace end."
            => per_gpu(|s| s.partitions as f64);
        GAUGE "windex_shard_tuples" "Tuples resident in the shard's slice at trace end."
            => per_gpu(|s| s.tuples as f64);
        COUNTER "windex_shard_subrequests" "Sub-requests routed to the shard."
            => per_gpu(|s| s.subrequests as f64);
        COUNTER "windex_shard_matches" "Join matches the shard produced."
            => per_gpu(|s| s.matches as f64);
        COUNTER "windex_shard_cross_bytes" "Peer-link bytes the shard exchanged for remote work."
            => per_gpu(|s| s.cross_bytes as f64);
        COUNTER "windex_single_shard_requests" "Routed requests whose keys all landed on one shard."
            => total(report.single_shard_requests as f64);
        COUNTER "windex_cross_shard_requests" "Routed requests that fanned out across shards."
            => total(report.cross_shard_requests as f64);
        GAUGE "windex_cross_shard_fraction" "Fraction of routed requests that fanned out."
            => total(report.cross_shard_fraction);
        COUNTER "windex_cross_shard_bytes" "Peer-link bytes moved (fan-out keys plus merges)."
            => total(report.cross_shard_bytes as f64);
        COUNTER "windex_critical_leg" "Requests whose critical-path leg ran on this shard."
            => by("gpu", critical.into_iter().enumerate());
    }
    w.finish()
}

/// Render a [`TunedReport`] as an OpenMetrics text snapshot (ending in
/// `# EOF`). Per-tenant series render in ascending tenant-id order; like
/// the other exporters, the same report always renders byte-identically.
pub fn render_tuner_openmetrics(report: &TunedReport) -> String {
    let tenants = &report.per_tenant;
    let per_tenant = |value: fn(&TunedTenantReport) -> f64| {
        by(
            "tenant",
            tenants.iter().map(|t| (t.tenant as usize, value(t))),
        )
    };
    let mut w = Snapshot {
        identity: &[("policy", &report.policy)],
        requests: Requests {
            submitted: total(report.requests as f64),
            completed: total(report.completed as f64),
            shed: Series::default(),
            deadline_missed: total(report.deadline_missed as f64),
        },
        keys_probed: total(report.keys_probed as f64),
        result_tuples: total(report.result_tuples as f64),
        latency: Some(&report.latency_hist),
        stages: Some((&report.stages, &report.traces)),
        batches: total(report.batches as f64),
        busy: per_tenant(|t| t.busy_s),
        makespan: total(report.virtual_makespan_s),
        ..Snapshot::default()
    }
    .render("tuned");
    w.family(
        GAUGE,
        "windex_tuner_strategy_info",
        "Current plan per tenant (labels carry the plan; value is 1).",
    );
    for t in tenants {
        w.sample(&[("tenant", &t.tenant), ("plan", &t.final_plan)], 1);
    }
    let pins = report.tune_events.iter();
    let pins = pins
        .filter(|e| e.event.reason == TuneReason::Pinned)
        .count();
    families! { w;
        GAUGE "windex_tuner_window_tuples" "Window capacity of the tenant's current plan (0 if none)."
            => per_tenant(|t| t.final_window_tuples as f64);
        COUNTER "windex_tuner_switches" "Argmin strategy switches." => per_tenant(|t| t.switches as f64);
        COUNTER "windex_tuner_explorations" "Epsilon-greedy exploration batches."
            => per_tenant(|t| t.explorations as f64);
        COUNTER "windex_tuner_pinned_batches" "Batches decided while degradation-pinned."
            => per_tenant(|t| t.pinned_batches as f64);
        GAUGE "windex_tuner_cost_error_ratio" "Mean relative |estimated - realized| per-key cost error."
            => per_tenant(|t| t.est_cost_error);
        COUNTER "windex_tuner_pins" "Degradation pins applied across all tenants."
            => total(pins as f64);
        GAUGE "windex_tuner_aggregate_qps" "Completed requests per busy virtual second."
            => total(report.aggregate_qps);
        GAUGE "windex_tuner_keys_per_second" "Probed keys per busy virtual second."
            => total(report.keys_per_second);
    }
    w.finish()
}

/// Render a tenant-parallel outcome as an OpenMetrics text snapshot
/// (ending in `# EOF`). Lane series carry a `tenant` label and render in
/// ascending tenant-id order — the outcome's fixed merge order — so the
/// snapshot, like the outcome itself, is byte-identical for any
/// worker-thread count.
pub fn render_parallel_openmetrics(outcome: &ParallelServeOutcome) -> String {
    let s = &outcome.summary;
    let per_lane = |value: fn(&TenantLane<ServerReport>) -> f64| {
        by(
            "tenant",
            outcome.lanes.iter().map(|l| (l.tenant as usize, value(l))),
        )
    };
    // Lanes run concurrently in virtual time: the host's makespan is the
    // slowest lane's.
    let mut makespan = per_lane(|l| l.report.virtual_makespan_s);
    makespan.total = Some(s.virtual_makespan_s);
    Snapshot {
        identity: &[("mode", &s.mode), ("lanes", &s.lanes)],
        requests: Requests {
            submitted: per_lane(|l| l.requests as f64),
            completed: per_lane(|l| l.report.completed as f64),
            shed: per_lane(|l| l.report.shed as f64),
            deadline_missed: per_lane(|l| l.report.deadline_missed as f64),
        },
        keys_probed: total(s.keys_probed as f64),
        result_tuples: total(s.result_tuples as f64),
        latency: Some(&s.latency_hist),
        completed_rps: total(s.completed_rps),
        makespan,
        ..Snapshot::default()
    }
    .render("parallel")
    .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{LatencyHistogram, LatencyStats, TenantLoad};
    use crate::resilience::{BreakerReport, BreakerState, RetryReport, SloReport, TenantBreaker};
    use windex_core::WindowStats;
    use windex_index::IndexKind;
    use windex_sim::Counters;

    fn report() -> ServerReport {
        ServerReport {
            policy: "shared(max_delay=200us)".to_string(),
            index: IndexKind::RadixSpline,
            tenants: 2,
            requests: 10,
            completed: 8,
            shed: 1,
            deadline_missed: 1,
            result_tuples: 42,
            keys_probed: 640,
            window: WindowStats {
                windows: 5,
                matches: 42,
            },
            mean_batch_keys: 128.0,
            configured_window_tuples: 1024,
            effective_window_tuples: 512,
            virtual_makespan_s: 0.25,
            completed_rps: 32.0,
            keys_per_second: 2560.0,
            latency: LatencyStats::from_samples(vec![1e-4, 2e-4, 5e-3]),
            latency_hist: LatencyHistogram::from_samples(&[1e-4, 2e-4, 5e-3]),
            per_tenant: vec![
                TenantLoad {
                    tenant: 0,
                    requests: 6,
                    completed: 5,
                    shed: 0,
                    deadline_missed: 1,
                    keys: 400,
                    matches: 30,
                },
                TenantLoad {
                    tenant: 1,
                    requests: 4,
                    completed: 3,
                    shed: 1,
                    deadline_missed: 0,
                    keys: 240,
                    matches: 12,
                },
            ],
            max_queue_depth_keys: 300,
            events: vec![
                ServeEvent::WindowShrunk {
                    from: 1024,
                    to: 512,
                },
                ServeEvent::LoadShed {
                    tenant: 1,
                    request: 7,
                    keys: 64,
                },
            ],
            counters: Counters::default(),
            retries: 3,
            phases: Default::default(),
            batches: Vec::new(),
            slo: SloReport {
                deadline_budget_s: 5e-3,
                answered: 9,
                within_budget: 8,
                availability: 0.9,
                goodput_rps: 32.0,
                good_share: 8.0 / 9.0,
                p99_s: 5e-3,
            },
            breaker: BreakerReport {
                opens: 1,
                fast_rejects: 2,
                half_open_probes: 1,
                tenants: vec![
                    TenantBreaker {
                        tenant: 0,
                        state: BreakerState::Closed,
                        opens: 0,
                        fast_rejects: 0,
                    },
                    TenantBreaker {
                        tenant: 1,
                        state: BreakerState::Open,
                        opens: 1,
                        fast_rejects: 2,
                    },
                ],
            },
            retry: RetryReport {
                attempts: 2,
                denied: 0,
                tokens_remaining: 62.5,
                backoff_s: 4.5e-4,
            },
            stages: crate::span::StageLatencyStats::default(),
            traces: Vec::new(),
            tail: crate::span::TailReport::default(),
        }
    }

    #[test]
    fn snapshot_is_terminated_and_deterministic() {
        let r = report();
        let text = render_openmetrics(&r);
        assert!(text.ends_with("# EOF\n"));
        assert_eq!(text, render_openmetrics(&r));
        // Exactly one EOF marker, at the end.
        assert_eq!(text.matches("# EOF").count(), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let mut r = report();
        r.policy = "a\"b\\c\nd".to_string();
        let text = render_openmetrics(&r);
        assert!(
            text.contains("windex_host_info{host=\"server\",policy=\"a\\\"b\\\\c\\nd\",index=\"RadixSpline\"} 1\n")
        );
        validate_openmetrics(&text).unwrap();
    }

    #[test]
    fn tenant_series_are_ascending_and_complete() {
        let text = render_openmetrics(&report());
        let t0 = text
            .find("windex_requests_total{host=\"server\",tenant=\"0\"} 6")
            .unwrap();
        let t1 = text
            .find("windex_requests_total{host=\"server\",tenant=\"1\"} 4")
            .unwrap();
        assert!(t0 < t1);
        assert!(text.contains("windex_requests_shed_total{host=\"server\",tenant=\"1\"} 1"));
        assert!(text.contains("windex_result_tuples_total{host=\"server\",tenant=\"0\"} 30"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_to_count() {
        let text = render_openmetrics(&report());
        assert!(
            text.contains("windex_request_latency_seconds_bucket{host=\"server\",le=\"+Inf\"} 3")
        );
        assert!(text.contains("windex_request_latency_seconds_count{host=\"server\"} 3"));
        // 1e-4 and 2e-4 are both ≤ 1e-3; 5e-3 lands in the 1e-2 bucket.
        assert!(
            text.contains("windex_request_latency_seconds_bucket{host=\"server\",le=\"0.001\"} 2")
        );
        assert!(
            text.contains("windex_request_latency_seconds_bucket{host=\"server\",le=\"0.01\"} 3")
        );
    }

    #[test]
    fn degradation_counters_reflect_events() {
        let text = render_openmetrics(&report());
        assert!(text.contains("windex_window_shrinks_total{host=\"server\"} 1"));
        assert!(text.contains("windex_load_sheds_total{host=\"server\"} 1"));
        assert!(text.contains("windex_sink_spills_total{host=\"server\"} 0"));
        assert!(text.contains("windex_operator_retries_total{host=\"server\"} 3"));
    }

    #[test]
    fn resilience_families_render_from_report_and_events() {
        let mut r = report();
        r.events.push(ServeEvent::DispatchRetried {
            attempt: 1,
            backoff_s: 1.5e-4,
        });
        r.events.push(ServeEvent::DispatchRetried {
            attempt: 2,
            backoff_s: 3e-4,
        });
        r.events.push(ServeEvent::CircuitShed {
            tenant: 1,
            request: 9,
        });
        r.events
            .push(ServeEvent::DeviceLossRecovered { mttr_s: 0.015 });
        let text = render_openmetrics(&r);
        assert!(text.contains("windex_circuit_state{host=\"server\",tenant=\"0\"} 0"));
        assert!(text.contains("windex_circuit_state{host=\"server\",tenant=\"1\"} 2"));
        assert!(text.contains("windex_circuit_opens_total{host=\"server\"} 1"));
        assert!(text.contains("windex_circuit_fast_rejects_total{host=\"server\"} 2"));
        assert!(text.contains("windex_circuit_sheds_total{host=\"server\"} 1"));
        assert!(text.contains("windex_dispatch_retries_total{host=\"server\"} 2"));
        assert!(text.contains("windex_retries_exhausted_total{host=\"server\"} 0"));
        assert!(text.contains("windex_retry_tokens{host=\"server\"} 62.5"));
        assert!(text.contains("windex_recoveries_total{host=\"server\",kind=\"rebuild\"} 1"));
        assert!(text.contains("windex_recovery_seconds_total{host=\"server\"} 0.015"));
        assert!(text.contains("windex_slo_availability{host=\"server\"} 0.9"));
        assert!(text.contains("windex_slo_p99_seconds{host=\"server\"} 0.005"));
        // Still deterministic and well-terminated with the new families.
        assert_eq!(text, render_openmetrics(&r));
        assert!(text.ends_with("# EOF\n"));
    }

    fn cluster_report() -> ClusterReport {
        use crate::cluster::{ClusterEvent, ShardLoad};
        ClusterReport {
            gpus: 2,
            alive_gpus: 1,
            placement: "sharded".to_string(),
            link: "NVLink 4 peer".to_string(),
            policy: "shared(max_delay=200us)".to_string(),
            index: IndexKind::RadixSpline,
            tenants: 2,
            requests: 10,
            completed: 9,
            shed: 1,
            deadline_missed: 0,
            result_tuples: 40,
            keys_probed: 600,
            single_shard_requests: 6,
            cross_shard_requests: 3,
            cross_shard_fraction: 3.0 / 9.0,
            cross_shard_bytes: 1024,
            virtual_makespan_s: 0.125,
            completed_rps: 72.0,
            keys_per_second: 4800.0,
            latency: LatencyStats::from_samples(vec![1e-4, 2e-4]),
            latency_hist: LatencyHistogram::from_samples(&[1e-4, 2e-4]),
            per_shard: vec![
                ShardLoad {
                    gpu: 0,
                    alive: true,
                    partitions: 32,
                    tuples: 4096,
                    subrequests: 8,
                    keys_probed: 500,
                    dispatches: 4,
                    matches: 30,
                    max_queue_depth_keys: 200,
                    busy_s: 0.01,
                    cross_bytes: 768,
                },
                ShardLoad {
                    gpu: 1,
                    alive: false,
                    partitions: 0,
                    tuples: 0,
                    subrequests: 3,
                    keys_probed: 100,
                    dispatches: 1,
                    matches: 10,
                    max_queue_depth_keys: 64,
                    busy_s: 0.002,
                    cross_bytes: 256,
                },
            ],
            events: vec![
                ClusterEvent::ShardWindowShrunk {
                    gpu: 1,
                    from: 1024,
                    to: 512,
                },
                ClusterEvent::LoadShed {
                    tenant: 0,
                    request: 3,
                    keys: 64,
                },
                ClusterEvent::ReSharded {
                    gpu: 1,
                    to: 0,
                    partitions: 16,
                    tuples: 2048,
                    mttr_s: 0.004,
                },
            ],
            failovers: 0,
            reshards: 1,
            recoveries: 0,
            mttr_total_s: 0.004,
            slo: SloReport {
                deadline_budget_s: 5e-3,
                answered: 9,
                within_budget: 9,
                availability: 0.9,
                goodput_rps: 72.0,
                good_share: 1.0,
                p99_s: 2e-4,
            },
            stages: crate::span::StageLatencyStats::default(),
            traces: Vec::new(),
            tail: crate::span::TailReport::default(),
        }
    }

    #[test]
    fn cluster_snapshot_is_terminated_and_deterministic() {
        let r = cluster_report();
        let text = render_cluster_openmetrics(&r);
        assert!(text.ends_with("# EOF\n"));
        assert_eq!(text.matches("# EOF").count(), 1);
        assert_eq!(text, render_cluster_openmetrics(&r));
    }

    #[test]
    fn cluster_per_gpu_series_render_in_gpu_order() {
        let text = render_cluster_openmetrics(&cluster_report());
        let q0 = text
            .find("windex_max_queue_depth_keys{host=\"cluster\",gpu=\"0\"} 200")
            .unwrap();
        let q1 = text
            .find("windex_max_queue_depth_keys{host=\"cluster\",gpu=\"1\"} 64")
            .unwrap();
        assert!(q0 < q1);
        assert!(text.contains("windex_shard_alive{host=\"cluster\",gpu=\"1\"} 0"));
        assert!(text.contains("windex_shard_cross_bytes_total{host=\"cluster\",gpu=\"0\"} 768"));
        assert!(text.contains("windex_cross_shard_bytes_total{host=\"cluster\"} 1024"));
        assert!(text.contains("windex_recoveries_total{host=\"cluster\",kind=\"failover\"} 0"));
        assert!(text.contains("windex_recoveries_total{host=\"cluster\",kind=\"reshard\"} 1"));
        assert!(text.contains("windex_recovery_seconds_total{host=\"cluster\"} 0.004"));
        // Degradation events count per GPU (load sheds at admission, host-wide),
        // and all three SLO values render.
        assert!(text.contains("windex_window_shrinks_total{host=\"cluster\",gpu=\"0\"} 0"));
        assert!(text.contains("windex_window_shrinks_total{host=\"cluster\",gpu=\"1\"} 1"));
        assert!(text.contains("windex_load_sheds_total{host=\"cluster\"} 1"));
        assert!(text.contains("windex_slo_goodput_rps{host=\"cluster\"} 72"));
        assert!(text.contains("windex_slo_p99_seconds{host=\"cluster\"} 0.0002"));
    }

    fn tuned_report() -> TunedReport {
        use crate::trace::{generate_tenant_trace, TraceConfig};
        use crate::tuned::{TunedConfig, TunedServer};
        use windex_sim::{GpuSpec, Scale};
        use windex_workload::{KeyDistribution, Relation};

        let r = Relation::unique_sorted(1 << 13, KeyDistribution::SparseUniform, 5);
        let trace = generate_tenant_trace(
            &TraceConfig {
                requests: 8,
                min_keys: 32,
                max_keys: 128,
                offered_load_rps: 400.0,
                ..TraceConfig::default()
            },
            0,
            &r,
        );
        TunedServer::new(
            GpuSpec::v100_nvlink2(Scale::PAPER),
            TunedConfig::default(),
            vec![(0, r)],
            None,
        )
        .unwrap()
        .run(&trace)
        .unwrap()
    }

    #[test]
    fn tuner_snapshot_renders_families_deterministically() {
        let rep = tuned_report();
        let text = render_tuner_openmetrics(&rep);
        assert_eq!(text, render_tuner_openmetrics(&rep));
        assert!(text.contains("windex_tuner_strategy_info{host=\"tuned\",tenant=\"0\",plan="));
        assert!(text.contains("windex_tuner_window_tuples{host=\"tuned\",tenant=\"0\"}"));
        assert!(text.contains("windex_tuner_switches_total{host=\"tuned\",tenant=\"0\"}"));
        assert!(text.contains("windex_tuner_cost_error_ratio{host=\"tuned\",tenant=\"0\"}"));
        assert!(text.contains("windex_tuner_aggregate_qps{host=\"tuned\"} "));
    }

    fn parallel_outcome() -> ParallelServeOutcome {
        use crate::parallel::serve_tenant_parallel;
        use crate::server::ServeConfig;
        use crate::trace::{generate_trace, TraceConfig};
        use windex_sim::{GpuSpec, Scale};
        use windex_workload::{KeyDistribution, Relation};

        let r = Relation::unique_sorted(1 << 13, KeyDistribution::SparseUniform, 5);
        let trace = generate_trace(
            &TraceConfig {
                requests: 24,
                tenants: 3,
                min_keys: 16,
                max_keys: 64,
                ..TraceConfig::default()
            },
            &r,
        );
        let spec = GpuSpec::v100_nvlink2(Scale::PAPER);
        serve_tenant_parallel(&spec, ServeConfig::default(), &r, &trace, 2, None).unwrap()
    }

    #[test]
    fn parallel_snapshot_renders_lanes_in_tenant_order() {
        let out = parallel_outcome();
        let text = render_parallel_openmetrics(&out);
        assert_eq!(text, render_parallel_openmetrics(&out));
        assert!(text.contains(
            "windex_host_info{host=\"parallel\",mode=\"tenant-parallel\",lanes=\"3\"} 1"
        ));
        let lane = |t: u32| {
            text.find(&format!(
                "windex_requests_total{{host=\"parallel\",tenant=\"{t}\"}}"
            ))
            .unwrap()
        };
        assert!(lane(0) < lane(1) && lane(1) < lane(2));
        assert!(text.contains(&format!(
            "windex_requests_completed_total{{host=\"parallel\",tenant=\"0\"}} {}",
            out.lanes[0].report.completed
        )));
        assert!(
            text.contains("windex_request_latency_seconds_bucket{host=\"parallel\",le=\"+Inf\"} ")
        );
    }

    /// Every renderer's output passes the one well-formedness check.
    #[test]
    fn every_exposition_is_well_formed() {
        for text in [
            render_openmetrics(&report()),
            render_cluster_openmetrics(&cluster_report()),
            render_tuner_openmetrics(&tuned_report()),
            render_parallel_openmetrics(&parallel_outcome()),
        ] {
            if let Err(e) = validate_openmetrics(&text) {
                panic!("{e}\n{text}");
            }
        }
    }

    #[test]
    fn validation_rejects_malformed_expositions() {
        let good = render_openmetrics(&report());
        validate_openmetrics(&good).unwrap();
        let spills = "windex_sink_spills_total{host=\"server\"} 0\n";
        let probed = "windex_keys_probed_total{host=\"server\"} 640\n";
        let bad = [
            // No EOF, or a second one.
            good.trim_end_matches("# EOF\n").to_string(),
            format!("# EOF\n{good}"),
            // A counter sample without `_total`.
            good.replace("windex_load_sheds_total{", "windex_load_sheds{"),
            // A family declared twice (its samples then split).
            format!(
                "{}{good}",
                "# HELP windex_sink_spills x\n# TYPE windex_sink_spills counter\n"
            ),
            // A sample outside its family's block.
            good.replacen(spills, "", 1)
                .replacen(probed, &format!("{probed}{spills}"), 1),
            // A sample with no number.
            good.replace("\"server\"} 62.5", "\"server\"} many"),
            // A histogram bucket below the one before it.
            good.replace(
                "seconds_bucket{host=\"server\",le=\"0.01\"} 3",
                "seconds_bucket{host=\"server\",le=\"0.01\"} 1",
            ),
            // A histogram whose `_count` disagrees with its `+Inf` bucket.
            good.replace(
                "seconds_count{host=\"server\"} 3",
                "seconds_count{host=\"server\"} 4",
            ),
        ];
        for text in bad {
            assert!(validate_openmetrics(&text).is_err(), "accepted:\n{text}");
        }
    }
}
