//! Per-request distributed tracing: causal span trees from admission to
//! cross-shard merge.
//!
//! Aggregate latency distributions say *that* a tail exists; a span tree
//! says *where one request's latency went*. Every request served by
//! [`Server`](crate::Server), [`ClusterServer`](crate::ClusterServer), or
//! [`TunedServer`](crate::TunedServer) carries a [`RequestContext`] from
//! admission to completion and yields a [`RequestTrace`]: a Dapper-style
//! span tree whose *stage spans* partition the admission→completion
//! interval into queue / batch / service / merge, with any residual
//! attributed to `other` — the same telescoping-delta rule the phase
//! breakdown uses, so the stages reconcile exactly with the end-to-end
//! latency.
//!
//! # Determinism
//!
//! There is no randomness anywhere: trace ids derive from the server-
//! assigned request id via counter-indexed splitmix64 (the workspace's
//! standard construction), span ids from the trace id and a per-trace
//! counter. Same seed ⇒ byte-identical traces, reports, and exports.
//!
//! # Invariants ([`RequestTrace::validate`])
//!
//! - every child span nests inside its parent (`start ≥ parent.start`,
//!   `end ≤ parent.end`), and every span is well-formed (`start ≤ end`);
//! - the stage spans tile `[submitted_s, completed_s]` exactly: each
//!   starts where the previous ended, the first at submission, the last
//!   at completion;
//! - the [`StageBreakdown`] sums exactly (bitwise, not approximately) to
//!   `completed_s - submitted_s`;
//! - shard legs are causally ordered
//!   (`enqueued ≤ dispatched ≤ done ≤ delivered`) and the critical leg is
//!   the one whose delivery is latest.

use crate::report::LatencyStats;
use crate::request::{RequestOutcome, TenantId};
use serde::Serialize;
use windex_sim::fault::splitmix64;

/// Seed folded into every trace id so request-trace ids live in their own
/// stream, disjoint from the workload/trace generators.
const TRACE_ID_SEED: u64 = 0x7370616e74726565; // "spantree"

/// Derive the deterministic trace id of a server-assigned request id.
pub fn trace_id_for(request: u64) -> u64 {
    splitmix64(TRACE_ID_SEED ^ splitmix64(request.wrapping_add(1)))
}

/// One node of a request's span tree, in virtual seconds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// Span id, unique within the trace (splitmix64 of the trace id and a
    /// per-trace counter).
    pub id: u64,
    /// Parent span id; `None` for the root span.
    pub parent: Option<u64>,
    /// Stage or leg name (`request`, `queue`, `batch`, `service`, `merge`,
    /// `other`, or `shard<N>`).
    pub name: String,
    /// Virtual start instant, seconds.
    pub start_s: f64,
    /// Virtual end instant, seconds (`end_s ≥ start_s`).
    pub end_s: f64,
}

/// One shard leg of a cluster request's fan-out: the lifecycle of this
/// request's keys on one shard, from routing to merged delivery.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardLeg {
    /// Span id of this leg in the trace's span tree.
    pub span_id: u64,
    /// Shard (GPU) the leg ran on.
    pub shard: usize,
    /// Probe keys routed to this shard.
    pub keys: usize,
    /// Matches this leg returned.
    pub matches: usize,
    /// Virtual instant the leg was enqueued on the shard's scheduler.
    pub enqueued_s: f64,
    /// Virtual instant the first batch carrying this leg dispatched.
    pub dispatched_s: f64,
    /// Virtual instant the last batch carrying this leg finished on-GPU.
    pub done_s: f64,
    /// Virtual instant the leg's matches reached the coordinator (equal to
    /// `done_s` on the coordinator's own leg; later on remote legs, which
    /// pay the merge transfer over the interconnect).
    pub delivered_s: f64,
    /// Whether the leg ran on a shard other than the coordinator.
    pub remote: bool,
}

/// Exact decomposition of one request's end-to-end latency into lifecycle
/// stages, in virtual seconds. `queue + batch + service + merge + other`
/// reconstructs `completed_s - submitted_s` exactly: `other` is defined as
/// the residual of that subtraction (the telescoping-delta rule), so the
/// sum telescopes bitwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct StageBreakdown {
    /// Admission → staged into a micro-batch (scheduler queue wait).
    pub queue_s: f64,
    /// Staged → first dispatch (deliberate batching delay).
    pub batch_s: f64,
    /// First dispatch → first result (GPU service, including retry
    /// backoff and degradation rebuilds charged to the virtual clock).
    pub service_s: f64,
    /// First result → last shard leg delivered (cross-shard merge /
    /// straggler wait; zero on single-GPU paths).
    pub merge_s: f64,
    /// Residual between the stage sum and the end-to-end latency
    /// (response assembly; the whole latency for shed requests that never
    /// reached a stage).
    pub other_s: f64,
}

impl StageBreakdown {
    /// The stage sum, in the canonical fold order. Equals
    /// `completed_s - submitted_s` bitwise for every trace the servers
    /// produce (enforced by [`RequestTrace::validate`]).
    pub fn total_s(&self) -> f64 {
        (((self.queue_s + self.batch_s) + self.service_s) + self.merge_s) + self.other_s
    }
}

/// The span tree of one served request: every virtual-time milestone from
/// admission to completion, with the exact stage decomposition and (for
/// cluster requests) the per-shard fan-out legs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RequestTrace {
    /// Deterministic trace id ([`trace_id_for`] of the request id).
    pub trace_id: u64,
    /// Server-assigned request id (arrival order).
    pub request: u64,
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Virtual arrival instant, seconds.
    pub submitted_s: f64,
    /// Virtual completion instant, seconds.
    pub completed_s: f64,
    /// How the request left the server.
    pub outcome: RequestOutcome,
    /// Exact stage decomposition of `completed_s - submitted_s`.
    pub stages: StageBreakdown,
    /// The span tree: root first, then the stage spans in lifecycle order,
    /// then one span per shard leg.
    pub spans: Vec<Span>,
    /// Cluster fan-out legs, in shard order (empty on single-GPU paths).
    pub legs: Vec<ShardLeg>,
    /// Index into `legs` of the critical-path leg (latest delivery);
    /// `None` when there are no legs.
    pub critical_leg: Option<usize>,
    /// Dispatch retries this request's batches went through.
    pub retries: usize,
    /// Whether an open circuit breaker fast-rejected the request.
    pub breaker_rejected: bool,
    /// Whether the request was served by a tuner exploration probe batch.
    pub probe: bool,
    /// Probe keys the request carried.
    pub keys: usize,
    /// Matches returned.
    pub matches: usize,
}

impl RequestTrace {
    /// End-to-end latency, seconds.
    pub fn latency_s(&self) -> f64 {
        self.completed_s - self.submitted_s
    }

    /// Check every span-tree invariant (see the module docs). Returns the
    /// first violation as a human-readable message.
    pub fn validate(&self) -> Result<(), String> {
        let r = self.request;
        if self.completed_s < self.submitted_s {
            return Err(format!("request {r}: completed before submitted"));
        }
        let root = self
            .spans
            .first()
            .ok_or_else(|| format!("request {r}: no root span"))?;
        if root.parent.is_some() {
            return Err(format!("request {r}: first span is not a root"));
        }
        if root.start_s != self.submitted_s || root.end_s != self.completed_s {
            return Err(format!(
                "request {r}: root span [{}, {}] != [{}, {}]",
                root.start_s, root.end_s, self.submitted_s, self.completed_s
            ));
        }
        for s in &self.spans {
            if !(s.start_s.is_finite() && s.end_s.is_finite()) || s.end_s < s.start_s {
                return Err(format!("request {r}: malformed span '{}'", s.name));
            }
            if let Some(pid) = s.parent {
                let p = self
                    .spans
                    .iter()
                    .find(|c| c.id == pid)
                    .ok_or_else(|| format!("request {r}: span '{}' orphaned", s.name))?;
                if s.start_s < p.start_s || s.end_s > p.end_s {
                    return Err(format!(
                        "request {r}: span '{}' [{}, {}] escapes parent '{}' [{}, {}]",
                        s.name, s.start_s, s.end_s, p.name, p.start_s, p.end_s
                    ));
                }
            }
        }
        // Stage spans tile [submitted, completed] with shared boundaries.
        let stage_spans: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| {
                matches!(
                    s.name.as_str(),
                    "queue" | "batch" | "service" | "merge" | "other"
                )
            })
            .collect();
        if stage_spans.len() != 5 {
            return Err(format!(
                "request {r}: expected 5 stage spans, found {}",
                stage_spans.len()
            ));
        }
        let mut cursor = self.submitted_s;
        for s in &stage_spans {
            if s.start_s != cursor {
                return Err(format!(
                    "request {r}: stage '{}' starts at {} but previous stage ended at {cursor}",
                    s.name, s.start_s
                ));
            }
            cursor = s.end_s;
        }
        if cursor != self.completed_s {
            return Err(format!(
                "request {r}: stage spans end at {cursor}, not completion {}",
                self.completed_s
            ));
        }
        // The breakdown sums exactly to the end-to-end latency.
        let (sum, latency) = (self.stages.total_s(), self.latency_s());
        if sum != latency {
            return Err(format!("request {r}: stage sum {sum} != latency {latency}"));
        }
        for (name, v) in [
            ("queue", self.stages.queue_s),
            ("batch", self.stages.batch_s),
            ("service", self.stages.service_s),
            ("merge", self.stages.merge_s),
            ("other", self.stages.other_s),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("request {r}: stage '{name}' is {v}"));
            }
        }
        // Legs are causally ordered and inside the request interval.
        for l in &self.legs {
            if !(l.enqueued_s <= l.dispatched_s
                && l.dispatched_s <= l.done_s
                && l.done_s <= l.delivered_s)
            {
                return Err(format!(
                    "request {r}: leg on shard {} out of order",
                    l.shard
                ));
            }
            if l.enqueued_s < self.submitted_s || l.delivered_s > self.completed_s {
                return Err(format!(
                    "request {r}: leg on shard {} escapes the request interval",
                    l.shard
                ));
            }
        }
        match self.critical_leg {
            None if !self.legs.is_empty() => {
                return Err(format!("request {r}: legs present but no critical leg"));
            }
            Some(i) => {
                let crit = self
                    .legs
                    .get(i)
                    .ok_or_else(|| format!("request {r}: critical leg {i} out of range"))?;
                if self.legs.iter().any(|l| l.delivered_s > crit.delivered_s) {
                    return Err(format!(
                        "request {r}: critical leg {i} is not the latest delivery"
                    ));
                }
            }
            None => {}
        }
        Ok(())
    }
}

/// In-flight builder of one request's [`RequestTrace`]. The servers record
/// lifecycle milestones as they happen; `finish` clamps them into a
/// monotone chain and materializes the span tree.
///
/// Milestone semantics are first-wins / min-wins where a request's keys can
/// split across micro-batches: the stage boundaries are the *first* time
/// each lifecycle transition happened, and leg completion is the *last*.
#[derive(Debug, Clone)]
pub struct RequestContext {
    trace_id: u64,
    request: u64,
    tenant: TenantId,
    submitted_s: f64,
    keys: usize,
    staged_s: Option<f64>,
    dispatched_s: Option<f64>,
    first_result_s: Option<f64>,
    merged_s: Option<f64>,
    retries: usize,
    breaker_rejected: bool,
    probe: bool,
    legs: Vec<ShardLeg>,
    span_seq: u64,
}

impl RequestContext {
    /// Open a context at admission.
    pub fn new(request: u64, tenant: TenantId, submitted_s: f64, keys: usize) -> Self {
        RequestContext {
            trace_id: trace_id_for(request),
            request,
            tenant,
            submitted_s,
            keys,
            staged_s: None,
            dispatched_s: None,
            first_result_s: None,
            merged_s: None,
            retries: 0,
            breaker_rejected: false,
            probe: false,
            legs: Vec::new(),
            span_seq: 0,
        }
    }

    /// This request's deterministic trace id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    fn next_span_id(&mut self) -> u64 {
        self.span_seq += 1;
        splitmix64(self.trace_id ^ self.span_seq)
    }

    /// Record the instant the request's keys were (first) staged into a
    /// micro-batch. First call wins.
    pub fn staged(&mut self, now_s: f64) {
        self.staged_s.get_or_insert(now_s);
    }

    /// Record the instant a batch carrying this request (first) dispatched.
    /// First call wins.
    pub fn dispatched(&mut self, now_s: f64) {
        self.dispatched_s.get_or_insert(now_s);
    }

    /// Record the instant the request's first results materialized (batch
    /// completion on single-GPU paths; first leg delivery on clusters).
    /// First call wins.
    pub fn first_result(&mut self, now_s: f64) {
        self.first_result_s.get_or_insert(now_s);
    }

    /// Record the instant the last outstanding piece merged (last leg
    /// delivery / last batch completion). Max-wins.
    pub fn merged(&mut self, now_s: f64) {
        self.merged_s = Some(self.merged_s.map_or(now_s, |m: f64| m.max(now_s)));
    }

    /// Count one dispatch retry that delayed this request.
    pub fn retried(&mut self) {
        self.retries += 1;
    }

    /// Mark the request as fast-rejected by an open circuit breaker.
    pub fn fast_rejected(&mut self) {
        self.breaker_rejected = true;
    }

    /// Mark the request as served by a tuner exploration probe batch.
    pub fn probe_batch(&mut self) {
        self.probe = true;
    }

    /// Open a shard leg at fan-out time; returns its index for later
    /// milestone updates.
    pub fn leg_opened(
        &mut self,
        shard: usize,
        keys: usize,
        enqueued_s: f64,
        remote: bool,
    ) -> usize {
        let span_id = self.next_span_id();
        self.legs.push(ShardLeg {
            span_id,
            shard,
            keys,
            matches: 0,
            enqueued_s,
            dispatched_s: enqueued_s,
            done_s: enqueued_s,
            delivered_s: enqueued_s,
            remote,
        });
        self.legs.len() - 1
    }

    /// Record a leg's first dispatch (min-wins across split batches).
    pub fn leg_dispatched(&mut self, leg: usize, now_s: f64) {
        let l = &mut self.legs[leg];
        if l.done_s == l.enqueued_s && l.dispatched_s == l.enqueued_s {
            l.dispatched_s = now_s;
        } else {
            l.dispatched_s = l.dispatched_s.min(now_s);
        }
        self.dispatched(now_s);
    }

    /// Record a leg's batch finishing on-GPU and its merged delivery at
    /// the coordinator (max-wins across split batches), accumulating the
    /// leg's matches.
    pub fn leg_delivered(&mut self, leg: usize, done_s: f64, delivered_s: f64, matches: usize) {
        let l = &mut self.legs[leg];
        l.done_s = l.done_s.max(done_s);
        l.delivered_s = l.delivered_s.max(delivered_s);
        l.matches += matches;
        self.first_result(delivered_s);
        self.merged(delivered_s);
    }

    /// Close the context and materialize the span tree.
    ///
    /// Raw milestones are clamped into a monotone chain inside
    /// `[submitted_s, completed_s]` — a milestone that never happened
    /// inherits the previous one, producing a zero-length stage — and
    /// `other` takes the exact residual so the breakdown telescopes to the
    /// end-to-end latency.
    pub fn finish(
        mut self,
        completed_s: f64,
        outcome: RequestOutcome,
        matches: usize,
    ) -> RequestTrace {
        let submitted = self.submitted_s;
        let clamp =
            |raw: Option<f64>, prev: f64| raw.unwrap_or(prev).clamp(prev, completed_s.max(prev));
        let staged = clamp(self.staged_s, submitted);
        let dispatched = clamp(self.dispatched_s, staged);
        let first_result = clamp(self.first_result_s, dispatched);
        let merged = clamp(self.merged_s, first_result);

        let mut four = [
            staged - submitted,
            dispatched - staged,
            first_result - dispatched,
            merged - first_result,
        ];
        let fold4 = |f: &[f64; 4]| ((f[0] + f[1]) + f[2]) + f[3];
        let latency = completed_s - submitted;
        let mut other_s = latency - fold4(&four);
        // FP non-associativity can push the four-stage fold an ulp past the
        // end-to-end latency, leaving a negative residual. Shave the
        // overshoot off the largest stage (repeating if rounding re-exposes
        // it) so every stage stays >= 0 and the fold still telescopes
        // bitwise to `latency`.
        while other_s < 0.0 {
            let widest = (0..4)
                .max_by(|&a, &b| four[a].total_cmp(&four[b]))
                .expect("four stages");
            if four[widest] == 0.0 {
                break;
            }
            four[widest] = (four[widest] + other_s).max(0.0);
            other_s = latency - fold4(&four);
        }
        let stages = StageBreakdown {
            queue_s: four[0],
            batch_s: four[1],
            service_s: four[2],
            merge_s: four[3],
            other_s,
        };

        let root_id = self.next_span_id();
        let mut spans = vec![Span {
            id: root_id,
            parent: None,
            name: "request".to_string(),
            start_s: submitted,
            end_s: completed_s,
        }];
        for (name, start, end) in [
            ("queue", submitted, staged),
            ("batch", staged, dispatched),
            ("service", dispatched, first_result),
            ("merge", first_result, merged),
            ("other", merged, completed_s),
        ] {
            let id = self.next_span_id();
            spans.push(Span {
                id,
                parent: Some(root_id),
                name: name.to_string(),
                start_s: start,
                end_s: end.max(start),
            });
        }
        // Clamp leg milestones into the request interval (a leg enqueued at
        // admission time can carry the admission instant itself) and emit
        // one child span per leg.
        for l in &mut self.legs {
            l.enqueued_s = l.enqueued_s.clamp(submitted, completed_s);
            l.dispatched_s = l.dispatched_s.clamp(l.enqueued_s, completed_s);
            l.done_s = l.done_s.clamp(l.dispatched_s, completed_s);
            l.delivered_s = l.delivered_s.clamp(l.done_s, completed_s);
            spans.push(Span {
                id: l.span_id,
                parent: Some(root_id),
                name: format!("shard{}", l.shard),
                start_s: l.enqueued_s,
                end_s: l.delivered_s,
            });
        }
        let critical_leg = self
            .legs
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| {
                a.delivered_s.total_cmp(&b.delivered_s).then(ib.cmp(ia)) // first of equals wins
            })
            .map(|(i, _)| i);
        RequestTrace {
            trace_id: self.trace_id,
            request: self.request,
            tenant: self.tenant,
            submitted_s: submitted,
            completed_s,
            outcome,
            stages,
            spans,
            legs: self.legs,
            critical_leg,
            retries: self.retries,
            breaker_rejected: self.breaker_rejected,
            probe: self.probe,
            keys: self.keys,
            matches,
        }
    }
}

/// Per-stage latency distributions over a set of request traces: one
/// [`LatencyStats`] per lifecycle stage, aggregated over all finished
/// requests (shed included — their latency is real even when their service
/// never happened).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StageLatencyStats {
    /// Queue-wait distribution.
    pub queue: LatencyStats,
    /// Batching-delay distribution.
    pub batch: LatencyStats,
    /// Service-time distribution.
    pub service: LatencyStats,
    /// Merge / straggler-wait distribution.
    pub merge: LatencyStats,
    /// Residual distribution.
    pub other: LatencyStats,
}

impl StageLatencyStats {
    /// Aggregate the stage distributions of `traces`.
    pub fn from_traces(traces: &[RequestTrace]) -> Self {
        let pick = |f: fn(&StageBreakdown) -> f64| {
            LatencyStats::from_samples(traces.iter().map(|t| f(&t.stages)).collect())
        };
        StageLatencyStats {
            queue: pick(|s| s.queue_s),
            batch: pick(|s| s.batch_s),
            service: pick(|s| s.service_s),
            merge: pick(|s| s.merge_s),
            other: pick(|s| s.other_s),
        }
    }
}

/// Configuration of the deterministic tail sampler.
#[derive(Debug, Clone, Copy)]
pub struct TailConfig {
    /// Exact top-K slowest requests to card.
    pub top_k: usize,
    /// Seeded uniform sample size (deduplicated against itself; cards
    /// already in the top-K are kept distinct by request id).
    pub sample: usize,
    /// Seed of the uniform draw.
    pub seed: u64,
}

impl Default for TailConfig {
    fn default() -> Self {
        TailConfig {
            top_k: 8,
            sample: 8,
            seed: 0x7461696c, // "tail"
        }
    }
}

/// An EXPLAIN-ANALYZE-style per-request breakdown: everything needed to
/// answer "where did this request's latency go?" without the full trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QueryCard {
    /// Deterministic trace id.
    pub trace_id: u64,
    /// Server-assigned request id.
    pub request: u64,
    /// Submitting tenant.
    pub tenant: TenantId,
    /// How the request left the server.
    pub outcome: RequestOutcome,
    /// End-to-end latency, seconds.
    pub latency_s: f64,
    /// Exact stage decomposition.
    pub stages: StageBreakdown,
    /// Probe keys carried.
    pub keys: usize,
    /// Matches returned.
    pub matches: usize,
    /// Dispatch retries suffered.
    pub retries: usize,
    /// Shard legs fanned out to (0 on single-GPU paths).
    pub fanout: usize,
    /// Shard of the critical-path leg (latest delivery), if any.
    pub critical_shard: Option<usize>,
    /// The critical leg's share of the latency spent waiting after the
    /// first leg delivered (straggler wait), seconds.
    pub straggler_wait_s: f64,
}

impl QueryCard {
    /// Build the card of one trace.
    pub fn from_trace(t: &RequestTrace) -> Self {
        QueryCard {
            trace_id: t.trace_id,
            request: t.request,
            tenant: t.tenant,
            outcome: t.outcome,
            latency_s: t.latency_s(),
            stages: t.stages,
            keys: t.keys,
            matches: t.matches,
            retries: t.retries,
            fanout: t.legs.len(),
            critical_shard: t.critical_leg.map(|i| t.legs[i].shard),
            straggler_wait_s: t.stages.merge_s,
        }
    }

    /// Render the card as fixed-width text (the serving analogue of
    /// `EXPLAIN ANALYZE` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "query card — request {} (trace 0x{:016x}, tenant {})\n",
            self.request, self.trace_id, self.tenant
        ));
        out.push_str(&format!(
            "  outcome {:?}; {} keys -> {} matches; latency {:.3} ms\n",
            self.outcome,
            self.keys,
            self.matches,
            self.latency_s * 1e3
        ));
        let lat = self.latency_s.max(f64::MIN_POSITIVE);
        for (name, v) in [
            ("queue", self.stages.queue_s),
            ("batch", self.stages.batch_s),
            ("service", self.stages.service_s),
            ("merge", self.stages.merge_s),
            ("other", self.stages.other_s),
        ] {
            out.push_str(&format!(
                "    {name:<8} {:>10.3} ms  {:>5.1}%\n",
                v * 1e3,
                v / lat * 100.0
            ));
        }
        if self.retries > 0 {
            out.push_str(&format!("  retries: {}\n", self.retries));
        }
        if let Some(shard) = self.critical_shard {
            out.push_str(&format!(
                "  fan-out: {} legs; critical path: shard {} (straggler wait {:.3} ms)\n",
                self.fanout,
                shard,
                self.straggler_wait_s * 1e3
            ));
        }
        out
    }
}

/// The deterministic tail sample of one run: the exact top-K slowest
/// requests plus a seeded uniform sample, as [`QueryCard`]s.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TailReport {
    /// The K slowest requests, slowest first (ties broken by ascending
    /// request id).
    pub slowest: Vec<QueryCard>,
    /// Seeded uniform sample in ascending request-id order, deduplicated.
    pub sampled: Vec<QueryCard>,
}

/// Sample the tail of `traces` deterministically: exact top-K by latency
/// (descending, ties by ascending request id) plus a seeded uniform sample
/// of indices drawn with counter-indexed splitmix64.
pub fn sample_tail(traces: &[RequestTrace], cfg: &TailConfig) -> TailReport {
    let mut order: Vec<usize> = (0..traces.len()).collect();
    order.sort_by(|&a, &b| {
        traces[b]
            .latency_s()
            .total_cmp(&traces[a].latency_s())
            .then(traces[a].request.cmp(&traces[b].request))
    });
    let slowest = order
        .iter()
        .take(cfg.top_k)
        .map(|&i| QueryCard::from_trace(&traces[i]))
        .collect();
    let mut picks: Vec<usize> = if traces.is_empty() {
        Vec::new()
    } else {
        (0..cfg.sample as u64)
            .map(|i| (splitmix64(cfg.seed ^ (i + 1)) % traces.len() as u64) as usize)
            .collect()
    };
    picks.sort_unstable();
    picks.dedup();
    TailReport {
        slowest,
        sampled: picks
            .into_iter()
            .map(|i| QueryCard::from_trace(&traces[i]))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_trace(request: u64, submitted: f64, completed: f64) -> RequestTrace {
        let mut ctx = RequestContext::new(request, 0, submitted, 16);
        ctx.staged(submitted + 0.001);
        ctx.dispatched(submitted + 0.002);
        ctx.first_result(completed - 0.0005);
        ctx.merged(completed - 0.0005);
        ctx.finish(completed, RequestOutcome::Completed, 3)
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        assert_eq!(trace_id_for(0), trace_id_for(0));
        assert_ne!(trace_id_for(0), trace_id_for(1));
        let a = simple_trace(7, 0.0, 0.01);
        let b = simple_trace(7, 0.0, 0.01);
        assert_eq!(a, b);
    }

    #[test]
    fn stage_sum_reconstructs_latency_exactly() {
        // Awkward magnitudes on purpose: the residual rule must absorb
        // floating-point rounding, not approximately but exactly.
        for (s, c) in [(0.0, 0.01), (1.0 / 3.0, 2.0 / 3.0), (123.456, 123.789)] {
            let t = simple_trace(1, s, c);
            assert_eq!(t.stages.total_s(), t.latency_s());
            t.validate().expect("valid trace");
        }
    }

    #[test]
    fn unstaged_shed_request_is_all_other() {
        let ctx = RequestContext::new(2, 1, 5.0, 8);
        let t = ctx.finish(5.0, RequestOutcome::Shed, 0);
        assert_eq!(t.stages.queue_s, 0.0);
        assert_eq!(t.stages.service_s, 0.0);
        assert_eq!(t.stages.total_s(), 0.0);
        t.validate().expect("zero-length trace is valid");
    }

    #[test]
    fn out_of_order_milestones_are_clamped_monotone() {
        let mut ctx = RequestContext::new(3, 0, 1.0, 4);
        ctx.dispatched(1.5); // dispatched recorded before staged
        ctx.staged(1.7); // raw staged later than dispatched
        let t = ctx.finish(2.0, RequestOutcome::Completed, 0);
        t.validate().expect("clamped chain stays monotone");
        assert!(t.stages.queue_s >= 0.0 && t.stages.batch_s >= 0.0);
    }

    #[test]
    fn legs_make_a_critical_path() {
        let mut ctx = RequestContext::new(4, 2, 0.0, 32);
        ctx.staged(0.001);
        let a = ctx.leg_opened(0, 16, 0.001, false);
        let b = ctx.leg_opened(3, 16, 0.001, true);
        ctx.leg_dispatched(a, 0.002);
        ctx.leg_dispatched(b, 0.003);
        ctx.leg_delivered(a, 0.004, 0.004, 5);
        ctx.leg_delivered(b, 0.005, 0.006, 7);
        let t = ctx.finish(0.006, RequestOutcome::Completed, 12);
        t.validate().expect("leg trace validates");
        assert_eq!(t.legs.len(), 2);
        assert_eq!(t.critical_leg, Some(1));
        assert_eq!(t.legs[1].shard, 3);
        assert!(t.legs[1].remote);
        assert!(t.stages.merge_s > 0.0, "straggler wait attributed to merge");
        let card = QueryCard::from_trace(&t);
        assert_eq!(card.critical_shard, Some(3));
        assert!(card.render().contains("critical path: shard 3"));
    }

    #[test]
    fn split_batches_use_min_dispatch_max_delivery() {
        let mut ctx = RequestContext::new(5, 0, 0.0, 64);
        let a = ctx.leg_opened(1, 64, 0.0, true);
        ctx.leg_dispatched(a, 0.004);
        ctx.leg_dispatched(a, 0.002); // an earlier split batch
        ctx.leg_delivered(a, 0.005, 0.006, 1);
        ctx.leg_delivered(a, 0.003, 0.003, 2); // earlier delivery must not regress
        let t = ctx.finish(0.006, RequestOutcome::Completed, 3);
        assert_eq!(t.legs[0].dispatched_s, 0.002);
        assert_eq!(t.legs[0].delivered_s, 0.006);
        assert_eq!(t.legs[0].matches, 3);
        t.validate().expect("split-batch leg validates");
    }

    #[test]
    fn validate_rejects_broken_trees() {
        let mut t = simple_trace(6, 0.0, 0.01);
        t.spans[1].start_s = -1.0; // escape the root
        assert!(t.validate().is_err());
        let mut t2 = simple_trace(6, 0.0, 0.01);
        t2.stages.other_s += 0.001; // break the exact sum
        assert!(t2.validate().is_err());
    }

    #[test]
    fn tail_sampler_is_deterministic_and_exact_topk() {
        let traces: Vec<RequestTrace> = (0..32)
            .map(|i| simple_trace(i, 0.0, 0.01 + (i % 7) as f64 * 1e-3))
            .collect();
        let cfg = TailConfig::default();
        let a = sample_tail(&traces, &cfg);
        let b = sample_tail(&traces, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.slowest.len(), 8);
        // Slowest-first with ascending-id tiebreak.
        for w in a.slowest.windows(2) {
            assert!(
                w[0].latency_s > w[1].latency_s
                    || (w[0].latency_s == w[1].latency_s && w[0].request < w[1].request)
            );
        }
        let max = traces.iter().map(|t| t.latency_s()).fold(0.0, f64::max);
        assert_eq!(a.slowest[0].latency_s, max);
        // Sampled ids ascend and are unique.
        for w in a.sampled.windows(2) {
            assert!(w[0].request < w[1].request);
        }
        assert!(sample_tail(&[], &cfg).slowest.is_empty());
    }

    #[test]
    fn stage_stats_aggregate_per_stage() {
        let traces: Vec<RequestTrace> = (0..10).map(|i| simple_trace(i, 0.0, 0.01)).collect();
        let s = StageLatencyStats::from_traces(&traces);
        assert_eq!(s.queue.samples, 10);
        assert!((s.queue.p50_s - 0.001).abs() < 1e-12);
        assert!(s.service.mean_s > 0.0);
    }
}
