//! OpenMetrics text exposition for every serving host's report.
//!
//! A real serving deployment scrapes its query servers; this module gives
//! the simulated hosts the same surface. [`render_openmetrics`] (the
//! shared-window [`ServerReport`]), [`render_cluster_openmetrics`],
//! [`render_tuner_openmetrics`] and [`render_parallel_openmetrics`] each
//! render their report as an OpenMetrics text snapshot — per-tenant or
//! per-GPU counters, a fixed-bucket latency histogram, degradation and
//! SLO families, capacity gauges — terminated by the mandatory `# EOF`.
//!
//! The format itself has one owner: the private `Exposition` writer is
//! the only code that writes `# HELP`/`# TYPE` headers, the counter
//! `_total` suffix, histogram `_bucket`/`_count`/`_sum` lines, escaped
//! label values and the closing `# EOF`. The renderers are plain
//! sequences of writer calls, and [`validate_openmetrics`] checks the
//! writer's structural guarantees.
//!
//! Determinism is part of the contract: families render in a fixed order,
//! tenants and GPUs in ascending id order, and every number through Rust's
//! default (shortest-round-trip) float formatting, so the same seed
//! produces a byte-identical snapshot. The `observe` artifacts under
//! `results/` pin all four renderers byte for byte.

use crate::cluster::ClusterReport;
use crate::parallel::ParallelServeOutcome;
use crate::report::{LatencyHistogram, ServeEvent, ServerReport};
use crate::span::{RequestTrace, StageLatencyStats};
use crate::tuned::TunedReport;
use std::collections::BTreeSet;
use std::fmt::{self, Display, Write as _};
use Kind::{Counter, Gauge};

const HELP: &str = "# HELP ";
const TYPE: &str = "# TYPE ";
const EOF: &str = "# EOF\n";

/// An OpenMetrics family type.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Counter => "counter",
            Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A sample's labels: `(name, value)` pairs, values escaped on write.
type Labels<'a> = &'a [(&'a str, &'a dyn Display)];

/// The OpenMetrics text writer. Every sample belongs to the family most
/// recently declared, so a family's samples are contiguous by
/// construction; counter samples get the `_total` suffix here.
struct Exposition {
    out: String,
    /// Name of the family being written.
    name: String,
    kind: Kind,
}

impl Exposition {
    fn new() -> Self {
        Exposition {
            out: String::new(),
            name: String::new(),
            kind: Gauge,
        }
    }

    /// Declare a family: its `# HELP` and `# TYPE` lines.
    fn family(&mut self, kind: Kind, name: &str, help: &str) -> &mut Self {
        self.name.clear();
        self.name.push_str(name);
        self.kind = kind;
        let _ = write!(
            self.out,
            "{HELP}{0} {help}\n{TYPE}{0} {1}\n",
            self.name,
            kind.name()
        );
        self
    }

    /// One sample of the current counter or gauge family.
    fn sample(&mut self, labels: Labels, value: impl Display) -> &mut Self {
        debug_assert!(
            self.kind != Kind::Histogram,
            "histograms write via histogram()"
        );
        let suffix = if self.kind == Counter { "_total" } else { "" };
        self.line(suffix, labels, value);
        self
    }

    /// A family holding one unlabelled sample.
    fn scalar(&mut self, kind: Kind, name: &str, help: &str, value: impl Display) {
        self.family(kind, name, help).sample(&[], value);
    }

    /// A family holding one sample per `(label value, value)` pair, all
    /// keyed by the one label `label`.
    fn series<L: Display, V: Display>(
        &mut self,
        kind: Kind,
        name: &str,
        help: &str,
        label: &str,
        samples: impl IntoIterator<Item = (L, V)>,
    ) {
        self.family(kind, name, help);
        for (l, v) in samples {
            self.sample(&[(label, &l)], v);
        }
    }

    /// A histogram family: cumulative `le` buckets, `+Inf`, count and sum.
    fn histogram(&mut self, name: &str, help: &str, h: &LatencyHistogram) {
        self.family(Kind::Histogram, name, help);
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
        for (i, (label, v)) in labels.iter().enumerate() {
            self.out.push(if i == 0 { '{' } else { ',' });
            self.out.push_str(label);
            self.out.push_str("=\"");
            let _ = write!(Escaped(&mut self.out), "{v}");
            self.out.push('"');
        }
        if !labels.is_empty() {
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
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

/// Check that `text` is a well-formed exposition as this module writes
/// it: every family is declared once, `# HELP` then `# TYPE`; its samples
/// follow contiguously and carry the family's name (counters with
/// `_total`, histograms with `_bucket`/`_count`/`_sum`); every value is a
/// number; and the text ends in exactly one `# EOF`.
pub fn validate_openmetrics(text: &str) -> Result<(), String> {
    let body = text
        .strip_suffix(EOF)
        .ok_or("exposition does not end in `# EOF`")?;
    let mut declared = BTreeSet::new();
    let mut family: Option<(&str, &str)> = None;
    let mut lines = body.lines();
    while let Some(line) = lines.next() {
        if let Some(help) = line.strip_prefix(HELP) {
            let name = help.split(' ').next().unwrap_or_default();
            let (typed, kind) = lines
                .next()
                .and_then(|l| l.strip_prefix(TYPE))
                .and_then(|t| t.split_once(' '))
                .ok_or_else(|| format!("family {name}: `# HELP` without `# TYPE`"))?;
            if typed != name || !["counter", "gauge", "histogram"].contains(&kind) {
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
        let metric = series.split('{').next().unwrap_or_default();
        let suffix = metric.strip_prefix(name);
        let ok = match kind {
            "counter" => suffix == Some("_total"),
            "gauge" => suffix == Some(""),
            _ => suffix.is_some_and(|s| ["_bucket", "_count", "_sum"].contains(&s)),
        };
        if !ok {
            return Err(format!("`{line}` is not a {kind} sample of family {name}"));
        }
        if value.parse::<f64>().is_err() {
            return Err(format!("`{line}` has a non-numeric value"));
        }
    }
    Ok(())
}

/// The fixed stage order used by every per-stage family.
const STAGE_NAMES: [&str; 5] = ["queue", "batch", "service", "merge", "other"];

/// The per-stage latency families shared by the server, cluster and tuned
/// exporters: a p99 gauge and a summed-seconds counter per stage, labelled
/// `stage="queue|batch|service|merge|other"` under `<prefix>_stage_*`.
fn stage_families(
    w: &mut Exposition,
    prefix: &str,
    stages: &StageLatencyStats,
    traces: &[RequestTrace],
) {
    let p99s = [
        stages.queue.p99_s,
        stages.batch.p99_s,
        stages.service.p99_s,
        stages.merge.p99_s,
        stages.other.p99_s,
    ];
    w.series(
        Gauge,
        &format!("{prefix}_stage_p99_seconds"),
        "p99 per-stage latency over all span trees, in virtual seconds.",
        "stage",
        STAGE_NAMES.iter().zip(p99s),
    );
    let mut totals = [0.0f64; 5];
    for t in traces {
        totals[0] += t.stages.queue_s;
        totals[1] += t.stages.batch_s;
        totals[2] += t.stages.service_s;
        totals[3] += t.stages.merge_s;
        totals[4] += t.stages.other_s;
    }
    w.series(
        Counter,
        &format!("{prefix}_stage_seconds"),
        "Virtual time attributed to each stage, summed over all span trees.",
        "stage",
        STAGE_NAMES.iter().zip(totals),
    );
}

/// Render `report` as an OpenMetrics text snapshot (ending in `# EOF`).
pub fn render_openmetrics(report: &ServerReport) -> String {
    let mut w = Exposition::new();

    // Identity: policy and index as an info-style gauge (labels carry the
    // strings; the value is always 1).
    w.family(Gauge, "windex_server", "Server identity.").sample(
        &[
            ("policy", &report.policy),
            ("index", &format_args!("{:?}", report.index)),
        ],
        1,
    );

    // Per-tenant request accounting. `per_tenant` is already in ascending
    // tenant-id order, which fixes the exposition order.
    let tenants = &report.per_tenant;
    w.series(
        Counter,
        "windex_requests",
        "Requests submitted, by tenant.",
        "tenant",
        tenants.iter().map(|t| (t.tenant, t.requests)),
    );
    w.series(
        Counter,
        "windex_requests_completed",
        "Requests served within deadline, by tenant.",
        "tenant",
        tenants.iter().map(|t| (t.tenant, t.completed)),
    );
    w.series(
        Counter,
        "windex_requests_shed",
        "Requests shed by admission control or abandoned batches, by tenant.",
        "tenant",
        tenants.iter().map(|t| (t.tenant, t.shed)),
    );
    w.series(
        Counter,
        "windex_requests_deadline_missed",
        "Requests served past their deadline, by tenant.",
        "tenant",
        tenants.iter().map(|t| (t.tenant, t.deadline_missed)),
    );
    w.series(
        Counter,
        "windex_request_keys",
        "Probe keys submitted, by tenant.",
        "tenant",
        tenants.iter().map(|t| (t.tenant, t.keys)),
    );
    w.series(
        Counter,
        "windex_result_tuples",
        "Join matches returned, by tenant.",
        "tenant",
        tenants.iter().map(|t| (t.tenant, t.matches)),
    );

    // Latency histogram over served (non-shed) requests, virtual seconds.
    w.histogram(
        "windex_request_latency_seconds",
        "Request latency over served requests, in virtual seconds.",
        &report.latency_hist,
    );

    // Degradation / shed events over the trace.
    let (mut shrinks, mut spills, mut sheds, mut abandoned) = (0u64, 0u64, 0u64, 0u64);
    let (mut circuit_sheds, mut dispatch_retries, mut retries_exhausted) = (0u64, 0u64, 0u64);
    let mut loss_recoveries = 0u64;
    let mut mttr_sum_s = 0.0f64;
    for e in &report.events {
        match e {
            ServeEvent::WindowShrunk { .. } => shrinks += 1,
            ServeEvent::SinkSpilledToCpu => spills += 1,
            ServeEvent::LoadShed { .. } => sheds += 1,
            ServeEvent::BatchAbandoned { .. } => abandoned += 1,
            ServeEvent::CircuitShed { .. } => circuit_sheds += 1,
            ServeEvent::CircuitOpened { .. } | ServeEvent::CircuitClosed { .. } => {}
            ServeEvent::DispatchRetried { .. } => dispatch_retries += 1,
            ServeEvent::RetriesExhausted { .. } => retries_exhausted += 1,
            ServeEvent::DeviceLossRecovered { mttr_s } => {
                loss_recoveries += 1;
                mttr_sum_s += mttr_s;
            }
        }
    }
    w.scalar(
        Counter,
        "windex_window_shrinks",
        "Shared-window halvings under device-memory pressure.",
        shrinks,
    );
    w.scalar(
        Counter,
        "windex_sink_spills",
        "Result-sink spills to CPU memory.",
        spills,
    );
    w.scalar(
        Counter,
        "windex_load_sheds",
        "Requests refused at admission by backpressure.",
        sheds,
    );
    w.scalar(
        Counter,
        "windex_batches_abandoned",
        "Dispatched batches shed after exhausting degradation.",
        abandoned,
    );
    w.scalar(
        Counter,
        "windex_operator_retries",
        "Operator retries priced into virtual time.",
        report.retries,
    );
    w.scalar(
        Counter,
        "windex_windows_dispatched",
        "Shared windows pushed through the operator.",
        report.window.windows,
    );
    w.scalar(
        Counter,
        "windex_keys_probed",
        "Probe keys dispatched through shared windows.",
        report.keys_probed,
    );

    // Resilience: circuit breakers, retry budget, device-loss recovery, SLOs.
    w.series(
        Gauge,
        "windex_circuit_state",
        "Circuit-breaker state at trace end, by tenant (0=closed, 1=half-open, 2=open).",
        "tenant",
        report
            .breaker
            .tenants
            .iter()
            .map(|t| (t.tenant, t.state.as_gauge())),
    );
    w.scalar(
        Counter,
        "windex_circuit_opens",
        "Circuit-breaker trips from closed or half-open to open.",
        report.breaker.opens,
    );
    w.scalar(
        Counter,
        "windex_circuit_fast_rejects",
        "Requests rejected at admission by an open circuit breaker.",
        report.breaker.fast_rejects,
    );
    w.scalar(
        Counter,
        "windex_circuit_sheds",
        "Requests shed by circuit breakers over this trace.",
        circuit_sheds,
    );
    w.scalar(
        Counter,
        "windex_dispatch_retries",
        "Transient dispatch failures retried with jittered backoff.",
        dispatch_retries,
    );
    w.scalar(
        Counter,
        "windex_retries_exhausted",
        "Batches abandoned after the retry budget or attempt cap ran out.",
        retries_exhausted,
    );
    w.scalar(
        Gauge,
        "windex_retry_tokens",
        "Retry-budget tokens remaining at trace end.",
        report.retry.tokens_remaining,
    );
    w.scalar(
        Gauge,
        "windex_retry_backoff_seconds",
        "Total virtual time spent in retry backoff over this trace.",
        report.retry.backoff_s,
    );
    w.scalar(
        Counter,
        "windex_device_loss_recoveries",
        "Device-loss events recovered by rebuilding device state.",
        loss_recoveries,
    );
    w.scalar(
        Gauge,
        "windex_device_loss_mttr_seconds",
        "Total virtual mean-time-to-recovery across device losses.",
        mttr_sum_s,
    );
    w.scalar(
        Gauge,
        "windex_slo_availability",
        "Fraction of submitted requests answered (not shed).",
        report.slo.availability,
    );
    w.scalar(
        Gauge,
        "windex_slo_goodput_rps",
        "Requests answered within the deadline budget per virtual second.",
        report.slo.goodput_rps,
    );
    w.scalar(
        Gauge,
        "windex_slo_p99_seconds",
        "p99 latency over answered requests, in virtual seconds.",
        report.slo.p99_s,
    );

    // Per-stage latency attribution from the span trees.
    stage_families(&mut w, "windex", &report.stages, &report.traces);

    // Capacity and utilization gauges.
    w.scalar(
        Gauge,
        "windex_configured_window_tuples",
        "Shared-window capacity as configured.",
        report.configured_window_tuples,
    );
    w.scalar(
        Gauge,
        "windex_effective_window_tuples",
        "Shared-window capacity after degradation, at trace end.",
        report.effective_window_tuples,
    );
    w.scalar(
        Gauge,
        "windex_max_queue_depth_keys",
        "Largest queued-key backlog observed at any admission.",
        report.max_queue_depth_keys,
    );
    w.scalar(
        Gauge,
        "windex_mean_batch_keys",
        "Mean keys per dispatched window.",
        report.mean_batch_keys,
    );
    w.scalar(
        Gauge,
        "windex_virtual_makespan_seconds",
        "Virtual time from first arrival to last response.",
        report.virtual_makespan_s,
    );
    w.finish()
}

/// Render a [`ClusterReport`] as an OpenMetrics text snapshot (ending in
/// `# EOF`). Per-GPU series carry a `gpu` label and render in ascending
/// GPU-id order; like [`render_openmetrics`], the same report always
/// renders byte-identically.
pub fn render_cluster_openmetrics(report: &ClusterReport) -> String {
    let mut w = Exposition::new();

    // Identity: topology, placement, link, and policy as an info gauge.
    w.family(Gauge, "windex_cluster", "Cluster identity.")
        .sample(
            &[
                ("placement", &report.placement),
                ("link", &report.link),
                ("policy", &report.policy),
                ("index", &format_args!("{:?}", report.index)),
            ],
            1,
        );
    w.scalar(
        Gauge,
        "windex_cluster_gpus",
        "GPU instances the cluster was built with.",
        report.gpus,
    );
    w.scalar(
        Gauge,
        "windex_cluster_alive_gpus",
        "GPU instances still alive at trace end.",
        report.alive_gpus,
    );

    // Per-GPU shard load. `per_shard` is in ascending GPU-id order.
    let shards = &report.per_shard;
    w.series(
        Gauge,
        "windex_shard_alive",
        "Whether the shard's device was alive at trace end.",
        "gpu",
        shards.iter().map(|s| (s.gpu, u8::from(s.alive))),
    );
    w.series(
        Gauge,
        "windex_shard_partitions",
        "Radix partitions owned by the shard at trace end.",
        "gpu",
        shards.iter().map(|s| (s.gpu, s.partitions)),
    );
    w.series(
        Gauge,
        "windex_shard_tuples",
        "Tuples resident in the shard's slice at trace end.",
        "gpu",
        shards.iter().map(|s| (s.gpu, s.tuples)),
    );
    w.series(
        Counter,
        "windex_shard_subrequests",
        "Sub-requests routed to the shard.",
        "gpu",
        shards.iter().map(|s| (s.gpu, s.subrequests)),
    );
    w.series(
        Counter,
        "windex_shard_keys_probed",
        "Probe keys dispatched through the shard's windows.",
        "gpu",
        shards.iter().map(|s| (s.gpu, s.keys_probed)),
    );
    w.series(
        Counter,
        "windex_shard_dispatches",
        "Windows the shard dispatched.",
        "gpu",
        shards.iter().map(|s| (s.gpu, s.dispatches)),
    );
    w.series(
        Counter,
        "windex_shard_matches",
        "Join matches the shard produced.",
        "gpu",
        shards.iter().map(|s| (s.gpu, s.matches)),
    );
    w.series(
        Gauge,
        "windex_shard_queue_depth_keys",
        "Largest queued-key backlog observed on the shard at any admission.",
        "gpu",
        shards.iter().map(|s| (s.gpu, s.max_queue_depth_keys)),
    );
    w.series(
        Counter,
        "windex_shard_busy_seconds",
        "Virtual time the shard spent dispatching or rebuilding.",
        "gpu",
        shards.iter().map(|s| (s.gpu, s.busy_s)),
    );
    w.series(
        Counter,
        "windex_shard_cross_bytes",
        "Peer-link bytes the shard exchanged for remote-coordinator work.",
        "gpu",
        shards.iter().map(|s| (s.gpu, s.cross_bytes)),
    );

    // Cluster-level routing and traffic.
    w.scalar(
        Counter,
        "windex_cluster_requests",
        "Requests submitted to the cluster.",
        report.requests,
    );
    w.scalar(
        Counter,
        "windex_cluster_requests_completed",
        "Requests served within deadline cluster-wide.",
        report.completed,
    );
    w.scalar(
        Counter,
        "windex_cluster_requests_shed",
        "Requests shed by admission control or abandoned dispatches.",
        report.shed,
    );
    w.scalar(
        Counter,
        "windex_single_shard_requests",
        "Routed requests whose keys all landed on one shard.",
        report.single_shard_requests,
    );
    w.scalar(
        Counter,
        "windex_cross_shard_requests",
        "Routed requests that fanned out across two or more shards.",
        report.cross_shard_requests,
    );
    w.scalar(
        Gauge,
        "windex_cross_shard_fraction",
        "Fraction of routed requests that fanned out.",
        report.cross_shard_fraction,
    );
    w.scalar(
        Counter,
        "windex_cross_shard_bytes",
        "Peer-link bytes moved cluster-wide (fan-out keys plus merges).",
        report.cross_shard_bytes,
    );

    // Recovery KPIs: the cluster rungs of the degradation ladder.
    w.scalar(
        Counter,
        "windex_cluster_failovers",
        "Device losses absorbed by failing over to a replica.",
        report.failovers,
    );
    w.scalar(
        Counter,
        "windex_cluster_reshards",
        "Device losses absorbed by re-sharding onto a survivor.",
        report.reshards,
    );
    w.scalar(
        Counter,
        "windex_cluster_recoveries",
        "Device losses absorbed by in-place rebuild (single-GPU rung).",
        report.recoveries,
    );
    w.scalar(
        Gauge,
        "windex_cluster_mttr_seconds",
        "Summed virtual mean-time-to-recovery across recovery events.",
        report.mttr_total_s,
    );

    // Aggregate throughput, latency, and SLO attainment.
    w.scalar(
        Gauge,
        "windex_cluster_completed_rps",
        "Completed requests per virtual second, aggregate over the cluster.",
        report.completed_rps,
    );
    w.scalar(
        Gauge,
        "windex_cluster_keys_per_second",
        "Probed keys per virtual second, aggregate over the cluster.",
        report.keys_per_second,
    );
    w.histogram(
        "windex_cluster_latency_seconds",
        "Request latency over served requests, in virtual seconds.",
        &report.latency_hist,
    );
    w.scalar(
        Gauge,
        "windex_cluster_slo_availability",
        "Fraction of submitted requests answered (not shed), cluster-wide.",
        report.slo.availability,
    );

    // Per-stage latency attribution and critical-path shard counts from
    // the span trees.
    stage_families(&mut w, "windex_cluster", &report.stages, &report.traces);
    let mut crit = vec![0u64; report.gpus];
    for t in &report.traces {
        if let Some(i) = t.critical_leg {
            let shard = t.legs[i].shard;
            if shard < crit.len() {
                crit[shard] += 1;
            }
        }
    }
    w.series(
        Counter,
        "windex_critical_leg",
        "Requests whose critical-path (last-delivered) leg ran on this shard.",
        "gpu",
        crit.iter().enumerate(),
    );

    w.scalar(
        Gauge,
        "windex_cluster_virtual_makespan_seconds",
        "Virtual time from first arrival to last response delivery.",
        report.virtual_makespan_s,
    );
    w.finish()
}

/// Render a [`TunedReport`] as an OpenMetrics text snapshot (ending in
/// `# EOF`). Per-tenant series render in ascending tenant-id order; like
/// the other exporters, the same report always renders byte-identically.
pub fn render_tuner_openmetrics(report: &TunedReport) -> String {
    use windex_core::TuneReason;

    let mut w = Exposition::new();
    w.family(Gauge, "windex_tuned", "Tuned-server identity.")
        .sample(&[("policy", &report.policy)], 1);

    // Per-tenant plan state at trace end.
    let tenants = &report.per_tenant;
    w.family(
        Gauge,
        "windex_tuner_strategy_info",
        "Current plan per tenant (labels carry the plan; value is 1).",
    );
    for t in tenants {
        w.sample(&[("tenant", &t.tenant), ("plan", &t.final_plan)], 1);
    }
    w.series(
        Gauge,
        "windex_tuner_window_tuples",
        "Window capacity of the tenant's current plan (0 for non-windowed plans).",
        "tenant",
        tenants.iter().map(|t| {
            // The window size is embedded in the plan label as `w=<n>`;
            // parse it back out so dashboards get a numeric gauge.
            let w = t
                .final_plan
                .split("w=")
                .nth(1)
                .and_then(|s| {
                    s.split(|c: char| !c.is_ascii_digit())
                        .next()?
                        .parse::<u64>()
                        .ok()
                })
                .unwrap_or(0);
            (t.tenant, w)
        }),
    );
    w.series(
        Counter,
        "windex_tuner_switches",
        "Argmin strategy switches, by tenant.",
        "tenant",
        tenants.iter().map(|t| (t.tenant, t.switches)),
    );
    w.series(
        Counter,
        "windex_tuner_explorations",
        "Epsilon-greedy exploration batches, by tenant.",
        "tenant",
        tenants.iter().map(|t| (t.tenant, t.explorations)),
    );
    w.series(
        Counter,
        "windex_tuner_pinned_batches",
        "Batches decided while degradation-pinned, by tenant.",
        "tenant",
        tenants.iter().map(|t| (t.tenant, t.pinned_batches)),
    );
    w.series(
        Gauge,
        "windex_tuner_cost_error_ratio",
        "Mean relative |estimated - realized| per-key cost error, by tenant.",
        "tenant",
        tenants.iter().map(|t| (t.tenant, t.est_cost_error)),
    );
    w.series(
        Counter,
        "windex_tuner_tenant_busy_seconds",
        "Virtual device time spent on the tenant's dispatches.",
        "tenant",
        tenants.iter().map(|t| (t.tenant, t.busy_s)),
    );

    // Decision-stream counters (pin/unpin are events, not per-tenant state).
    let pins = report
        .tune_events
        .iter()
        .filter(|e| e.event.reason == TuneReason::Pinned)
        .count();
    w.scalar(
        Counter,
        "windex_tuner_pins",
        "Degradation pins applied across all tenants.",
        pins,
    );

    // Aggregates.
    w.scalar(
        Counter,
        "windex_tuner_requests_completed",
        "Requests completed across all tenants.",
        report.completed,
    );
    w.scalar(
        Counter,
        "windex_tuner_batches",
        "Batches dispatched across all tenants.",
        report.batches,
    );
    w.scalar(
        Gauge,
        "windex_tuner_aggregate_qps",
        "Completed requests per busy virtual second.",
        report.aggregate_qps,
    );
    w.scalar(
        Gauge,
        "windex_tuner_keys_per_second",
        "Probed keys per busy virtual second.",
        report.keys_per_second,
    );
    w.scalar(
        Gauge,
        "windex_tuner_busy_seconds",
        "Virtual device time spent executing dispatches.",
        report.busy_s,
    );
    w.scalar(
        Gauge,
        "windex_tuner_virtual_makespan_seconds",
        "Virtual time from trace start to the last completion.",
        report.virtual_makespan_s,
    );

    // Latency histogram over completed requests.
    w.histogram(
        "windex_tuner_latency_seconds",
        "Request latency over completed requests, in virtual seconds.",
        &report.latency_hist,
    );

    // Per-stage latency attribution from the span trees.
    stage_families(&mut w, "windex_tuner", &report.stages, &report.traces);
    w.finish()
}

/// Render a tenant-parallel outcome as an OpenMetrics text snapshot
/// (ending in `# EOF`). Lane series carry a `tenant` label and render in
/// ascending tenant-id order — the outcome's fixed merge order — so the
/// snapshot, like the outcome itself, is byte-identical for any
/// worker-thread count.
pub fn render_parallel_openmetrics(outcome: &ParallelServeOutcome) -> String {
    let mut w = Exposition::new();
    let s = &outcome.summary;
    w.family(Gauge, "windex_parallel", "Tenant-parallel identity.")
        .sample(&[("mode", &s.mode), ("lanes", &s.lanes)], 1);

    // Aggregate request accounting (disjoint outcome buckets).
    w.series(
        Counter,
        "windex_parallel_requests",
        "Requests across all tenant lanes, by outcome.",
        "outcome",
        [
            ("completed", s.completed),
            ("shed", s.shed),
            ("deadline_missed", s.deadline_missed),
        ],
    );
    w.scalar(
        Counter,
        "windex_parallel_keys_probed",
        "Probe keys dispatched across all tenant lanes.",
        s.keys_probed,
    );
    w.scalar(
        Counter,
        "windex_parallel_result_tuples",
        "Join matches returned across all tenant lanes.",
        s.result_tuples,
    );

    // Makespan: lanes run concurrently in virtual time, so the aggregate
    // makespan is the slowest lane's.
    w.scalar(
        Gauge,
        "windex_parallel_makespan_seconds",
        "Slowest lane's virtual makespan, in virtual seconds.",
        s.virtual_makespan_s,
    );

    // Per-lane accounting, ascending tenant id (the fixed merge order).
    let lanes = &outcome.lanes;
    w.series(
        Counter,
        "windex_parallel_lane_requests",
        "Requests served by each tenant lane.",
        "tenant",
        lanes.iter().map(|l| (l.tenant, l.requests)),
    );
    w.series(
        Counter,
        "windex_parallel_lane_completed",
        "Requests completed by each tenant lane.",
        "tenant",
        lanes.iter().map(|l| (l.tenant, l.report.completed)),
    );
    w.series(
        Gauge,
        "windex_parallel_lane_makespan_seconds",
        "Each tenant lane's virtual makespan.",
        "tenant",
        lanes
            .iter()
            .map(|l| (l.tenant, l.report.virtual_makespan_s)),
    );

    // Merged latency histogram over all non-shed requests, all lanes.
    w.histogram(
        "windex_parallel_latency_seconds",
        "Request latency over served requests, all lanes, in virtual seconds.",
        &s.latency_hist,
    );
    w.finish()
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
            text.contains("windex_server{policy=\"a\\\"b\\\\c\\nd\",index=\"RadixSpline\"} 1\n")
        );
        validate_openmetrics(&text).unwrap();
    }

    #[test]
    fn tenant_series_are_ascending_and_complete() {
        let text = render_openmetrics(&report());
        let t0 = text.find("windex_requests_total{tenant=\"0\"} 6").unwrap();
        let t1 = text.find("windex_requests_total{tenant=\"1\"} 4").unwrap();
        assert!(t0 < t1);
        assert!(text.contains("windex_requests_shed_total{tenant=\"1\"} 1"));
        assert!(text.contains("windex_result_tuples_total{tenant=\"0\"} 30"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_to_count() {
        let text = render_openmetrics(&report());
        assert!(text.contains("windex_request_latency_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("windex_request_latency_seconds_count 3"));
        // 1e-4 and 2e-4 are both ≤ 1e-3; 5e-3 lands in the 1e-2 bucket.
        assert!(text.contains("windex_request_latency_seconds_bucket{le=\"0.001\"} 2"));
        assert!(text.contains("windex_request_latency_seconds_bucket{le=\"0.01\"} 3"));
    }

    #[test]
    fn degradation_counters_reflect_events() {
        let text = render_openmetrics(&report());
        assert!(text.contains("windex_window_shrinks_total 1"));
        assert!(text.contains("windex_load_sheds_total 1"));
        assert!(text.contains("windex_sink_spills_total 0"));
        assert!(text.contains("windex_operator_retries_total 3"));
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
        assert!(text.contains("windex_circuit_state{tenant=\"0\"} 0"));
        assert!(text.contains("windex_circuit_state{tenant=\"1\"} 2"));
        assert!(text.contains("windex_circuit_opens_total 1"));
        assert!(text.contains("windex_circuit_fast_rejects_total 2"));
        assert!(text.contains("windex_circuit_sheds_total 1"));
        assert!(text.contains("windex_dispatch_retries_total 2"));
        assert!(text.contains("windex_retries_exhausted_total 0"));
        assert!(text.contains("windex_retry_tokens 62.5"));
        assert!(text.contains("windex_device_loss_recoveries_total 1"));
        assert!(text.contains("windex_device_loss_mttr_seconds 0.015"));
        assert!(text.contains("windex_slo_availability 0.9"));
        assert!(text.contains("windex_slo_p99_seconds 0.005"));
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
            events: vec![ClusterEvent::ReSharded {
                gpu: 1,
                to: 0,
                partitions: 16,
                tuples: 2048,
                mttr_s: 0.004,
            }],
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
            .find("windex_shard_queue_depth_keys{gpu=\"0\"} 200")
            .unwrap();
        let q1 = text
            .find("windex_shard_queue_depth_keys{gpu=\"1\"} 64")
            .unwrap();
        assert!(q0 < q1);
        assert!(text.contains("windex_shard_alive{gpu=\"1\"} 0"));
        assert!(text.contains("windex_shard_cross_bytes_total{gpu=\"0\"} 768"));
        assert!(text.contains("windex_cross_shard_bytes_total 1024"));
        assert!(text.contains("windex_cluster_failovers_total 0"));
        assert!(text.contains("windex_cluster_reshards_total 1"));
        assert!(text.contains("windex_cluster_mttr_seconds 0.004"));
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
        assert!(text.contains("windex_tuner_strategy_info{tenant=\"0\",plan="));
        assert!(text.contains("windex_tuner_window_tuples{tenant=\"0\"}"));
        assert!(text.contains("windex_tuner_switches_total{tenant=\"0\"}"));
        assert!(text.contains("windex_tuner_cost_error_ratio{tenant=\"0\"}"));
        assert!(text.contains("windex_tuner_aggregate_qps "));
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
        assert!(text.contains("windex_parallel{mode=\"tenant-parallel\",lanes=\"3\"} 1"));
        let lane = |t: u32| {
            text.find(&format!(
                "windex_parallel_lane_requests_total{{tenant=\"{t}\"}}"
            ))
            .unwrap()
        };
        assert!(lane(0) < lane(1) && lane(1) < lane(2));
        assert!(text.contains(&format!(
            "windex_parallel_requests_total{{outcome=\"completed\"}} {}",
            out.summary.completed
        )));
        assert!(text.contains("windex_parallel_latency_seconds_bucket{le=\"+Inf\"} "));
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
        let bad = [
            // No EOF, or a second one.
            good.trim_end_matches("# EOF\n").to_string(),
            format!("# EOF\n{good}"),
            // A counter sample without `_total`.
            good.replace("windex_load_sheds_total 1", "windex_load_sheds 1"),
            // A family declared twice (its samples then split).
            format!(
                "{}{good}",
                "# HELP windex_sink_spills x\n# TYPE windex_sink_spills counter\n"
            ),
            // A sample outside its family's block.
            good.replacen("windex_sink_spills_total 0\n", "", 1)
                .replacen(
                    "windex_keys_probed_total 640\n",
                    "windex_keys_probed_total 640\nwindex_sink_spills_total 0\n",
                    1,
                ),
            // A sample with no number.
            good.replace("windex_retry_tokens 62.5", "windex_retry_tokens many"),
        ];
        for text in bad {
            assert!(validate_openmetrics(&text).is_err(), "accepted:\n{text}");
        }
    }
}
