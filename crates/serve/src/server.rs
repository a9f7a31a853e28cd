//! The deterministic serving event loop.
//!
//! [`Server`] owns one indexed relation, one shared
//! [`StreamingWindowJoin`](windex_core::streams::StreamingWindowJoin), and
//! one result sink, and serves a seeded trace of multi-tenant lookup
//! requests entirely in *virtual time*: the only clock is the cost model's
//! estimate of each dispatched window, so the same trace and configuration
//! always produce byte-identical responses and reports — no threads, no
//! wall clock, no nondeterminism.
//!
//! # The loop
//!
//! 1. **Admit** every trace arrival due at the current virtual instant.
//!    Admission control sheds a request outright when accepting it would
//!    push the queued-key backlog past the backpressure bound.
//! 2. **Schedule**: deficit round-robin releases queued requests into the
//!    micro-batcher until the shared window is covered (or, under
//!    [`BatchPolicy::PerRequest`], exactly one request is staged).
//! 3. **Dispatch** when the window is full, the oldest staged key has
//!    waited `max_delay_s`, or the policy is per-request: the batch flows
//!    through the shared operator, virtual time advances by the cost
//!    model's estimate, and matches demultiplex back to their requests via
//!    the rid map.
//! 4. Otherwise **advance** the clock to the next arrival or flush
//!    deadline.
//!
//! Device-memory pressure mid-dispatch walks the serving analogue of the
//! query engine's degradation ladder — halve the shared window (down to
//! [`MIN_WINDOW_TUPLES`](windex_core::session::MIN_WINDOW_TUPLES)), spill
//! the sink to CPU memory, and finally shed the batch — so an overloaded
//! or faulty server sheds load instead of failing.

use crate::batch::MicroBatcher;
use crate::report::{rate, BatchSpan, RunTally, ServeEvent, ServerReport, TenantLoad};
use crate::request::{LookupResponse, RequestOutcome, TenantId};
use crate::resilience::{
    jittered_backoff_s, BreakerReport, CircuitBreaker, ResilienceConfig, RetryBudget, RetryReport,
    TenantBreaker,
};
use crate::sched::DrrScheduler;
use crate::span::{sample_tail, RequestContext, RequestTrace, StageLatencyStats, TailConfig};
use crate::trace::TimedRequest;
use std::collections::BTreeMap;
use std::rc::Rc;
use windex_core::query::QueryError;
use windex_core::session::{MAX_DEVICE_LOSS_RECOVERIES, MIN_WINDOW_TUPLES};
use windex_core::strategy::{BuiltIndex, IndexConfigs};
use windex_core::streams::StreamingWindowJoin;
use windex_core::window::WindowConfig;
use windex_core::{WindexError, WindowStats};
use windex_index::IndexKind;
use windex_join::{PartitionBits, ResultSink};
use windex_sim::{Buffer, CostModel, Gpu, MemLocation, PhaseRecorder};
use windex_workload::Relation;

/// When staged keys are dispatched through the shared operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchPolicy {
    /// Cross-query batching (the point of the serving layer): keys from
    /// concurrent tenants share windows. A window dispatches when it fills
    /// or when its oldest key has waited `max_delay_s`, whichever comes
    /// first.
    Shared {
        /// Longest a staged key may wait for the window to fill, in
        /// virtual seconds.
        max_delay_s: f64,
    },
    /// The baseline the experiments compare against: every request is
    /// dispatched alone, immediately, through its own (mostly empty)
    /// window.
    PerRequest,
}

impl BatchPolicy {
    /// Stable label for reports.
    pub fn label(&self) -> String {
        match self {
            BatchPolicy::Shared { max_delay_s } => {
                format!("shared(max_delay={:.0}us)", max_delay_s * 1e6)
            }
            BatchPolicy::PerRequest => "per-request".to_string(),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Index probed by the shared operator.
    pub index: IndexKind,
    /// Shared-window capacity in keys.
    pub window_tuples: usize,
    /// Dispatch policy.
    pub policy: BatchPolicy,
    /// DRR quantum: key-credits granted per tenant visit.
    pub quantum_keys: usize,
    /// Backpressure bound: a request is shed at admission when queued +
    /// staged keys would exceed this.
    pub max_pending_keys: usize,
    /// Where the (per-dispatch) result sink lives. GPU placement falls
    /// back to CPU under memory pressure, recorded as
    /// [`ServeEvent::SinkSpilledToCpu`].
    pub result_location: MemLocation,
    /// Partition bit range; `None` applies the §4.2 selection rule.
    pub partition_bits: Option<PartitionBits>,
    /// Resilience knobs: retry budget, per-tenant circuit breaker, SLO
    /// latency budget.
    pub resilience: ResilienceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            index: IndexKind::RadixSpline,
            window_tuples: 1024,
            policy: BatchPolicy::Shared {
                max_delay_s: 200e-6,
            },
            quantum_keys: 256,
            max_pending_keys: 1 << 16,
            result_location: MemLocation::Gpu,
            partition_bits: None,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// A served trace: every response plus the aggregate report.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// One response per trace request, ordered by request id (arrival
    /// order).
    pub responses: Vec<LookupResponse>,
    /// Aggregate virtual-time metrics.
    pub report: ServerReport,
}

/// A request admitted but not yet fully answered.
#[derive(Debug)]
struct InFlight {
    tenant: TenantId,
    keys: Vec<u64>,
    deadline: Option<f64>,
    submitted_s: f64,
    /// Keys not yet probed through a dispatched window.
    remaining: usize,
    matches: Vec<(u64, u64)>,
    /// Span-tree builder following the request through the lifecycle.
    ctx: RequestContext,
}

/// The deterministic multi-tenant query server.
#[derive(Debug)]
pub struct Server {
    cfg: ServeConfig,
    r: Relation,
    /// The staged host-resident column — the checkpoint the index is
    /// rebuilt from after a device loss.
    col: Rc<Buffer<u64>>,
    index: BuiltIndex,
    bits: PartitionBits,
    min_key: u64,
    /// Current shared-window capacity (≤ configured after degradation;
    /// degradation persists across traces, like a real server's state).
    window_tuples: usize,
    op: StreamingWindowJoin,
    sink: ResultSink,
    sink_loc: MemLocation,
    cost: CostModel,
    /// Degradation applied during construction (e.g. the sink never fit on
    /// the device), replayed at the head of every report.
    setup_events: Vec<ServeEvent>,
    /// Dispatch-level retry token pool (persists across traces, like the
    /// window degradation).
    retry_budget: RetryBudget,
    /// Per-tenant circuit breakers, keyed by tenant id.
    breakers: BTreeMap<TenantId, CircuitBreaker>,
    /// Ordinal of the next backoff-jitter draw (resets per trace so runs
    /// replay identically).
    retry_seq: u64,
    /// Backoff charged to the virtual clock this trace, in seconds.
    run_backoff_s: f64,
}

impl Server {
    /// Build a server over the (sorted, duplicate-free) relation `r`:
    /// stages the column, builds the index, and allocates the shared
    /// operator and sink. A sink that cannot fit in device memory falls
    /// back to CPU placement instead of failing.
    pub fn new(gpu: &mut Gpu, cfg: ServeConfig, r: Relation) -> Result<Self, WindexError> {
        if cfg.window_tuples == 0 {
            return Err(WindexError::InvalidConfig(
                "serving window must hold at least one key",
            ));
        }
        if cfg.quantum_keys == 0 {
            return Err(WindexError::InvalidConfig("DRR quantum must be positive"));
        }
        if cfg.max_pending_keys == 0 {
            return Err(WindexError::InvalidConfig(
                "backpressure bound must admit at least one key",
            ));
        }
        if let BatchPolicy::Shared { max_delay_s } = cfg.policy {
            if !max_delay_s.is_finite() || max_delay_s <= 0.0 {
                return Err(WindexError::InvalidConfig(
                    "shared-batch max delay must be positive",
                ));
            }
        }
        if !r.is_sorted_unique() {
            return Err(QueryError::IndexedRelationNotSorted.into());
        }
        let col = Rc::new(gpu.alloc_host_shared(r.keys_shared()));
        let index = BuiltIndex::build(gpu, cfg.index, &col, &IndexConfigs::default());
        let bits = cfg.partition_bits.unwrap_or_else(|| {
            let domain = r.max_key().unwrap_or(0) - r.min_key().unwrap_or(0);
            PartitionBits::select(domain, r.len() as u64, gpu.spec(), 11)
        });
        let min_key = r.min_key().unwrap_or(0);
        let op = StreamingWindowJoin::new(
            gpu,
            WindowConfig {
                window_tuples: cfg.window_tuples,
                bits,
                min_key,
            },
        )?;
        let mut setup_events = Vec::new();
        let mut sink_loc = cfg.result_location;
        let sink = match ResultSink::with_capacity(gpu, cfg.window_tuples, sink_loc) {
            Ok(s) => s,
            Err(e) if WindexError::from(e.clone()).is_capacity() => {
                setup_events.push(ServeEvent::SinkSpilledToCpu);
                sink_loc = MemLocation::Cpu;
                ResultSink::with_capacity(gpu, cfg.window_tuples, sink_loc)?
            }
            Err(e) => return Err(e.into()),
        };
        let cost = CostModel::new(gpu.spec());
        Ok(Server {
            window_tuples: cfg.window_tuples,
            retry_budget: RetryBudget::new(&cfg.resilience.retry),
            cfg,
            r,
            col,
            index,
            bits,
            min_key,
            op,
            sink,
            sink_loc,
            cost,
            setup_events,
            breakers: BTreeMap::new(),
            retry_seq: 0,
            run_backoff_s: 0.0,
        })
    }

    /// The served relation.
    pub fn relation(&self) -> &Relation {
        &self.r
    }

    /// Current shared-window capacity (shrinks under memory pressure).
    pub fn effective_window_tuples(&self) -> usize {
        self.window_tuples
    }

    /// Serve a trace to completion and return every response plus the
    /// aggregate report. Arrivals must be sorted by time (as
    /// [`generate_trace`](crate::trace::generate_trace) produces them).
    pub fn run(
        &mut self,
        gpu: &mut Gpu,
        trace: &[TimedRequest],
    ) -> Result<ServeOutcome, WindexError> {
        debug_assert!(
            trace.windows(2).all(|w| w[0].at_s <= w[1].at_s),
            "trace must be sorted by arrival time"
        );
        let run_start = gpu.snapshot();
        // A fresh recorder per trace, anchored at the run-start snapshot so
        // the per-phase breakdown decomposes exactly the report's counter
        // delta. The operator owns it (it marks partition/lookup spans in
        // its flushes) and hands it back across degradation recreations.
        self.op.set_phase_recorder(Some(PhaseRecorder::start(gpu)));
        let mut batches: Vec<BatchSpan> = Vec::new();
        let mut clock = 0.0f64;
        let mut sched = DrrScheduler::new(self.cfg.quantum_keys)?;
        let mut batcher = MicroBatcher::new();
        let mut inflight: BTreeMap<u64, InFlight> = BTreeMap::new();
        let mut responses: Vec<LookupResponse> = Vec::with_capacity(trace.len());
        let mut traces: Vec<RequestTrace> = Vec::with_capacity(trace.len());
        let mut events = self.setup_events.clone();
        let mut next_arrival = 0usize;
        let mut max_queue_depth = 0usize;
        let mut keys_probed = 0usize;
        let mut windows_closed = 0usize;
        let mut matches_total = 0usize;
        let mut device_losses = 0usize;
        let retry_spent0 = self.retry_budget.spent();
        let retry_denied0 = self.retry_budget.denied();
        self.retry_seq = 0;
        self.run_backoff_s = 0.0;
        let breaker_cfg = self.cfg.resilience.breaker;
        // Each run restarts the virtual clock, so breaker timers from a
        // previous trace belong to a stale epoch; close them (counters
        // stay cumulative across the server's lifetime).
        for brk in self.breakers.values_mut() {
            brk.reset_for_epoch();
        }
        self.op.reset();
        self.sink.clear();
        // The serving clock IS the chaos clock: every trace starts at
        // virtual t = 0 so fault windows land on serving time.
        gpu.set_virtual_time(0.0);

        loop {
            // 1. Admit every arrival due now.
            while next_arrival < trace.len() && trace[next_arrival].at_s <= clock {
                let t = &trace[next_arrival];
                let id = next_arrival as u64;
                next_arrival += 1;
                let n = t.request.keys.len();
                if n == 0 {
                    // An empty request has nothing to probe: answer it at
                    // admission. Parking it in flight would hang the trace —
                    // no batch ever carries its (nonexistent) last key, so
                    // nothing would ever complete it.
                    let resp = LookupResponse::answered(
                        id,
                        t.request.tenant,
                        t.request.deadline,
                        t.at_s,
                        clock,
                        Vec::new(),
                    );
                    traces.push(RequestContext::new(id, t.request.tenant, t.at_s, 0).finish(
                        clock,
                        resp.outcome,
                        0,
                    ));
                    responses.push(resp);
                    continue;
                }
                // Per-tenant circuit breaker: an open breaker fast-rejects
                // the arrival before backpressure is even consulted.
                let brk = self
                    .breakers
                    .entry(t.request.tenant)
                    .or_insert_with(|| CircuitBreaker::new(breaker_cfg));
                if !brk.allow(clock) {
                    events.push(ServeEvent::CircuitShed {
                        tenant: t.request.tenant,
                        request: id,
                    });
                    responses.push(LookupResponse::shed_response(
                        id,
                        t.request.tenant,
                        t.at_s,
                        clock,
                    ));
                    let mut ctx = RequestContext::new(id, t.request.tenant, t.at_s, n);
                    ctx.fast_rejected();
                    traces.push(ctx.finish(clock, RequestOutcome::Shed, 0));
                    continue;
                }
                let backlog = sched.queued_keys() + batcher.pending();
                if backlog + n > self.cfg.max_pending_keys {
                    // The request passed the breaker but never reached the
                    // device; a half-open probe slot must not stay taken.
                    if let Some(brk) = self.breakers.get_mut(&t.request.tenant) {
                        brk.release_probe();
                    }
                    events.push(ServeEvent::LoadShed {
                        tenant: t.request.tenant,
                        request: id,
                        keys: n,
                    });
                    responses.push(LookupResponse::shed_response(
                        id,
                        t.request.tenant,
                        t.at_s,
                        clock,
                    ));
                    traces.push(RequestContext::new(id, t.request.tenant, t.at_s, n).finish(
                        clock,
                        RequestOutcome::Shed,
                        0,
                    ));
                    continue;
                }
                inflight.insert(
                    id,
                    InFlight {
                        tenant: t.request.tenant,
                        keys: t.request.keys.clone(),
                        deadline: t.request.deadline,
                        submitted_s: t.at_s,
                        remaining: n,
                        matches: Vec::new(),
                        ctx: RequestContext::new(id, t.request.tenant, t.at_s, n),
                    },
                );
                sched.enqueue(t.request.tenant, id, n);
                max_queue_depth = max_queue_depth.max(sched.queued_keys() + batcher.pending());
            }

            // 2. Release queued requests into the batcher under DRR order.
            match self.cfg.policy {
                BatchPolicy::Shared { .. } => {
                    while batcher.pending() < self.window_tuples {
                        match sched.dequeue()? {
                            Some(id) => stage(&mut batcher, &mut inflight, id, clock)?,
                            None => break,
                        }
                    }
                }
                BatchPolicy::PerRequest => {
                    if batcher.pending() == 0 {
                        if let Some(id) = sched.dequeue()? {
                            stage(&mut batcher, &mut inflight, id, clock)?;
                        }
                    }
                }
            }

            // 3. Dispatch if the policy says so.
            let dispatch_now = match self.cfg.policy {
                BatchPolicy::PerRequest => batcher.pending() > 0,
                BatchPolicy::Shared { max_delay_s } => {
                    batcher.pending() >= self.window_tuples
                        || batcher
                            .oldest_since()
                            .is_some_and(|since| since + max_delay_s <= clock)
                }
            };
            if dispatch_now {
                let take = match self.cfg.policy {
                    // One request per dispatch, however many keys it has.
                    BatchPolicy::PerRequest => batcher.pending(),
                    BatchPolicy::Shared { .. } => self.window_tuples.min(batcher.pending()),
                };
                let batch = batcher.take(take, clock);
                keys_probed += batch.len();
                self.dispatch(
                    gpu,
                    &batch,
                    &mut batcher,
                    &mut inflight,
                    &mut responses,
                    &mut traces,
                    &mut events,
                    &mut clock,
                    &mut windows_closed,
                    &mut matches_total,
                    &mut batches,
                    &mut device_losses,
                )?;
                continue;
            }

            // 4. Advance the clock to the next event, or finish.
            let next_at = (next_arrival < trace.len()).then(|| trace[next_arrival].at_s);
            let flush_due = match self.cfg.policy {
                BatchPolicy::Shared { max_delay_s } => {
                    batcher.oldest_since().map(|s| s + max_delay_s)
                }
                BatchPolicy::PerRequest => None,
            };
            match (next_at, flush_due) {
                (Some(a), Some(f)) => clock = clock.max(a.min(f)),
                (Some(a), None) => clock = clock.max(a),
                (None, Some(f)) => clock = clock.max(f),
                (None, None) => {
                    // No arrivals and no flush timer: queued work would
                    // have been staged (and a timer set) in step 2, so the
                    // trace is fully answered.
                    debug_assert!(
                        sched.is_empty() && batcher.pending() == 0,
                        "event loop stalled with queued work"
                    );
                    break;
                }
            }
            // Keep the chaos clock in lockstep with the serving clock so
            // fault windows open and close on serving time.
            gpu.set_virtual_time(clock);
        }
        debug_assert!(inflight.is_empty(), "all admitted requests answered");

        responses.sort_by_key(|r| r.request);
        traces.sort_by_key(|t| t.request);
        debug_assert_eq!(traces.len(), responses.len(), "one trace per response");
        let stages = StageLatencyStats::from_traces(&traces);
        let tail = sample_tail(&traces, &TailConfig::default());
        let counters = gpu.snapshot() - run_start;
        let phases = self
            .op
            .take_phase_recorder()
            .map(|rec| rec.finish(gpu))
            .unwrap_or_default();
        let makespan = clock;
        let (tally, slo) = RunTally::of_responses(&responses, makespan, &self.cfg.resilience.slo);
        // `responses` is sorted by request id (= arrival ordinal), so it
        // zips 1:1 with the trace; keys come from the trace side because a
        // shed response no longer carries them.
        let per_tenant: Vec<TenantLoad> = {
            let mut by_tenant: BTreeMap<TenantId, TenantLoad> = BTreeMap::new();
            for (t, resp) in trace.iter().zip(&responses) {
                let e = by_tenant
                    .entry(t.request.tenant)
                    .or_insert_with(|| TenantLoad {
                        tenant: t.request.tenant,
                        ..TenantLoad::default()
                    });
                e.requests += 1;
                e.keys += t.request.keys.len();
                e.matches += resp.matches.len();
                match resp.outcome {
                    RequestOutcome::Completed => e.completed += 1,
                    RequestOutcome::Shed => e.shed += 1,
                    RequestOutcome::DeadlineMissed => e.deadline_missed += 1,
                }
            }
            by_tenant.into_values().collect()
        };
        let breaker = BreakerReport {
            opens: self.breakers.values().map(CircuitBreaker::opens).sum(),
            fast_rejects: self
                .breakers
                .values()
                .map(CircuitBreaker::fast_rejects)
                .sum(),
            half_open_probes: self
                .breakers
                .values()
                .map(CircuitBreaker::half_open_probes)
                .sum(),
            // BTreeMap iteration is ascending by tenant id, fixing the
            // exposition order.
            tenants: self
                .breakers
                .iter()
                .map(|(t, b)| TenantBreaker {
                    tenant: *t,
                    state: b.state(),
                    opens: b.opens(),
                    fast_rejects: b.fast_rejects(),
                })
                .collect(),
        };
        let retry = RetryReport {
            attempts: self.retry_budget.spent() - retry_spent0,
            denied: self.retry_budget.denied() - retry_denied0,
            tokens_remaining: self.retry_budget.tokens(),
            backoff_s: self.run_backoff_s,
        };
        let report = ServerReport {
            policy: self.cfg.policy.label(),
            index: self.cfg.index,
            tenants: {
                let mut t: Vec<TenantId> = trace.iter().map(|t| t.request.tenant).collect();
                t.sort_unstable();
                t.dedup();
                t.len()
            },
            requests: trace.len(),
            completed: tally.completed,
            shed: tally.shed,
            deadline_missed: tally.deadline_missed,
            result_tuples: tally.result_tuples,
            keys_probed,
            window: WindowStats {
                windows: windows_closed,
                matches: matches_total,
            },
            mean_batch_keys: rate(keys_probed, windows_closed as f64),
            configured_window_tuples: self.cfg.window_tuples,
            effective_window_tuples: self.window_tuples,
            virtual_makespan_s: makespan,
            completed_rps: tally.completed_rps,
            keys_per_second: rate(keys_probed, makespan),
            latency: tally.latency,
            latency_hist: tally.latency_hist,
            per_tenant,
            max_queue_depth_keys: max_queue_depth,
            events,
            retries: counters.retries,
            counters,
            phases,
            batches,
            slo,
            breaker,
            retry,
            stages,
            traces,
            tail,
        };
        Ok(ServeOutcome { responses, report })
    }

    /// Push one batch through the shared operator, advancing virtual time
    /// by the cost model's estimate of the dispatch. Capacity pressure
    /// degrades (shrink window → spill sink → shed the batch); a transient
    /// fault retries under the budget with jittered backoff on the virtual
    /// clock; a device loss rebuilds index, operator, and sink after the
    /// outage clears; any error that survives all of that sheds the
    /// batch's requests rather than failing the server.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        gpu: &mut Gpu,
        batch: &[(u64, u64)],
        batcher: &mut MicroBatcher,
        inflight: &mut BTreeMap<u64, InFlight>,
        responses: &mut Vec<LookupResponse>,
        traces: &mut Vec<RequestTrace>,
        events: &mut Vec<ServeEvent>,
        clock: &mut f64,
        windows_closed: &mut usize,
        matches_total: &mut usize,
        batches: &mut Vec<BatchSpan>,
        device_losses: &mut usize,
    ) -> Result<(), WindexError> {
        // One timeline entry per dispatch, accumulating every attempt's
        // counter delta and virtual time (a batch retried after degradation
        // is still one dispatch).
        let mut span = BatchSpan {
            batch: batches.len(),
            at_s: *clock,
            keys: batch.len(),
            ..BatchSpan::default()
        };
        // The distinct requests riding this dispatch, in batch order: their
        // first dispatch milestone is now; retries below delay all of them.
        let mut members: Vec<u64> = Vec::new();
        for &(_, rid) in batch {
            let (req, _) = batcher.resolve(rid);
            if !members.contains(&req) {
                members.push(req);
            }
        }
        for req in &members {
            if let Some(inf) = inflight.get_mut(req) {
                inf.ctx.dispatched(*clock);
            }
        }
        let mut attempts = 0u32;
        loop {
            // A failed attempt leaves staged keys in the operator; start
            // each attempt from a clean window (the sink was already rolled
            // back by the operator itself).
            self.op.reset();
            let before = gpu.snapshot();
            let attempt = self
                .op
                .push(gpu, self.index.as_dyn(), batch, &mut self.sink)
                .and_then(|()| self.op.flush_now(gpu, self.index.as_dyn(), &mut self.sink));
            let delta = gpu.snapshot() - before;
            let est_s = self.cost.estimate(&delta, false).total_s;
            // Failed attempts consumed real device time too; virtual time
            // moves forward either way, keeping the clock monotone.
            *clock += est_s;
            gpu.set_virtual_time(*clock);
            span.counters = span.counters + delta;
            span.est_s += est_s;
            match attempt {
                Ok(_) => {
                    let stats = self.op.stats();
                    *windows_closed += stats.windows;
                    *matches_total += stats.matches;
                    span.windows = stats.windows;
                    span.completed = true;
                    batches.push(span);
                    self.retry_budget.on_success();
                    self.complete(batch, batcher, inflight, responses, traces, events, *clock)?;
                    return Ok(());
                }
                Err(e) if e.is_device_loss() => {
                    if *device_losses < MAX_DEVICE_LOSS_RECOVERIES {
                        *device_losses += 1;
                        let mttr_s = self.recover_device_loss(gpu, clock)?;
                        events.push(ServeEvent::DeviceLossRecovered { mttr_s });
                        continue;
                    }
                    batches.push(span);
                    self.abandon(batch, batcher, inflight, responses, traces, events, *clock);
                    return Ok(());
                }
                Err(e) if e.is_capacity() => {
                    if self.window_tuples > MIN_WINDOW_TUPLES {
                        let to = (self.window_tuples / 2).max(MIN_WINDOW_TUPLES);
                        events.push(ServeEvent::WindowShrunk {
                            from: self.window_tuples,
                            to,
                        });
                        self.window_tuples = to;
                        // Carry the phase recorder onto the replacement
                        // operator so the run's breakdown stays whole.
                        let rec = self.op.take_phase_recorder();
                        self.op = StreamingWindowJoin::new(
                            gpu,
                            WindowConfig {
                                window_tuples: to,
                                bits: self.bits,
                                min_key: self.min_key,
                            },
                        )?;
                        self.op.set_phase_recorder(rec);
                        continue;
                    }
                    if self.sink_loc == MemLocation::Gpu {
                        events.push(ServeEvent::SinkSpilledToCpu);
                        self.sink_loc = MemLocation::Cpu;
                        let old = std::mem::replace(
                            &mut self.sink,
                            ResultSink::with_capacity(gpu, self.window_tuples, MemLocation::Cpu)?,
                        );
                        old.free(gpu);
                        continue;
                    }
                    batches.push(span);
                    self.abandon(batch, batcher, inflight, responses, traces, events, *clock);
                    return Ok(());
                }
                Err(e)
                    if e.is_transient()
                        && attempts < self.cfg.resilience.retry.max_attempts_per_dispatch
                        && self.retry_budget.try_spend() =>
                {
                    // A transient fault outlasted the operator's own
                    // retries (e.g. a link-flap window): back off on the
                    // virtual clock and redrive the whole dispatch. The
                    // backoff doubles per attempt with deterministic
                    // jitter, so sustained flapping walks the clock past
                    // the fault window instead of hammering it.
                    let backoff_s =
                        jittered_backoff_s(&self.cfg.resilience.retry, attempts, self.retry_seq);
                    self.retry_seq += 1;
                    attempts += 1;
                    *clock += backoff_s;
                    gpu.set_virtual_time(*clock);
                    self.run_backoff_s += backoff_s;
                    events.push(ServeEvent::DispatchRetried {
                        attempt: attempts,
                        backoff_s,
                    });
                    for req in &members {
                        if let Some(inf) = inflight.get_mut(req) {
                            inf.ctx.retried();
                        }
                    }
                    continue;
                }
                Err(e) => {
                    // Fault outlasted its retries and budget (or another
                    // terminal operator error): shed the batch, keep
                    // serving.
                    if e.is_transient() {
                        events.push(ServeEvent::RetriesExhausted { keys: batch.len() });
                    }
                    batches.push(span);
                    self.abandon(batch, batcher, inflight, responses, traces, events, *clock);
                    return Ok(());
                }
            }
        }
    }

    /// Rebuild the device-dependent state after a whole-device loss: wait
    /// out the loss window on the virtual clock, flush the memory system
    /// (the replacement device starts cold), and rebuild index, operator,
    /// and sink from the host-resident column. Returns the MTTR in virtual
    /// seconds: outage wait plus the cost-model estimate of the rebuild.
    fn recover_device_loss(&mut self, gpu: &mut Gpu, clock: &mut f64) -> Result<f64, WindexError> {
        let lost_at_s = *clock;
        // Carry the phase recorder across the rebuild so the trace's
        // breakdown stays whole.
        let rec = self.op.take_phase_recorder();
        gpu.reset_memory_system();
        let clearance_s = gpu.chaos_clearance_s().max(lost_at_s);
        *clock = clearance_s;
        gpu.set_virtual_time(*clock);
        let before = gpu.snapshot();
        self.index = BuiltIndex::build(gpu, self.cfg.index, &self.col, &IndexConfigs::default());
        self.op = StreamingWindowJoin::new(
            gpu,
            WindowConfig {
                window_tuples: self.window_tuples,
                bits: self.bits,
                min_key: self.min_key,
            },
        )?;
        self.op.set_phase_recorder(rec);
        let old = std::mem::replace(
            &mut self.sink,
            ResultSink::with_capacity(gpu, self.window_tuples, self.sink_loc)?,
        );
        old.free(gpu);
        let delta = gpu.snapshot() - before;
        let rebuild_s = self.cost.estimate(&delta, false).total_s;
        *clock += rebuild_s;
        gpu.set_virtual_time(*clock);
        Ok((clearance_s - lost_at_s) + rebuild_s)
    }

    /// Demultiplex the sink's matches back to their requests and answer
    /// every request whose last key was just probed.
    #[allow(clippy::too_many_arguments)]
    fn complete(
        &mut self,
        batch: &[(u64, u64)],
        batcher: &mut MicroBatcher,
        inflight: &mut BTreeMap<u64, InFlight>,
        responses: &mut Vec<LookupResponse>,
        traces: &mut Vec<RequestTrace>,
        events: &mut Vec<ServeEvent>,
        now_s: f64,
    ) -> Result<(), WindexError> {
        for (rid, pos) in self.sink.host_pairs() {
            let (req, key_idx) = batcher.resolve(rid);
            if let Some(inf) = inflight.get_mut(&req) {
                inf.matches.push((inf.keys[key_idx as usize], pos));
            }
        }
        self.sink.clear();
        for &(_, rid) in batch {
            let (req, _) = batcher.resolve(rid);
            if let Some(inf) = inflight.get_mut(&req) {
                inf.remaining -= 1;
            }
        }
        // Answer finished requests in dispatch order (dedup preserves the
        // order their last keys went out).
        let mut done: Vec<u64> = Vec::new();
        for &(_, rid) in batch {
            let (req, _) = batcher.resolve(rid);
            if inflight.get(&req).is_some_and(|inf| inf.remaining == 0) && !done.contains(&req) {
                done.push(req);
            }
        }
        for req in done {
            let mut inf = inflight.remove(&req).ok_or(WindexError::InvalidState(
                "completed request vanished from the in-flight table",
            ))?;
            // An answered request is a breaker success for its tenant —
            // even past its deadline, the device did answer (deadline
            // attainment is the SLO tracker's concern, not the breaker's).
            if let Some(brk) = self.breakers.get_mut(&inf.tenant) {
                if brk.on_success() {
                    events.push(ServeEvent::CircuitClosed { tenant: inf.tenant });
                }
            }
            inf.ctx.first_result(now_s);
            inf.ctx.merged(now_s);
            let resp = LookupResponse::answered(
                req,
                inf.tenant,
                inf.deadline,
                inf.submitted_s,
                now_s,
                inf.matches,
            );
            traces.push(inf.ctx.finish(now_s, resp.outcome, resp.matches.len()));
            responses.push(resp);
        }
        Ok(())
    }

    /// Shed every request with a key in the failed batch: answer it
    /// [`RequestOutcome::Shed`] and drop its still-pending keys.
    #[allow(clippy::too_many_arguments)]
    fn abandon(
        &mut self,
        batch: &[(u64, u64)],
        batcher: &mut MicroBatcher,
        inflight: &mut BTreeMap<u64, InFlight>,
        responses: &mut Vec<LookupResponse>,
        traces: &mut Vec<RequestTrace>,
        events: &mut Vec<ServeEvent>,
        now_s: f64,
    ) {
        self.sink.clear();
        let mut victims: Vec<u64> = Vec::new();
        for &(_, rid) in batch {
            let (req, _) = batcher.resolve(rid);
            if !victims.contains(&req) {
                victims.push(req);
            }
        }
        events.push(ServeEvent::BatchAbandoned {
            keys: batch.len(),
            requests: victims.len(),
        });
        for req in victims {
            if let Some(inf) = inflight.remove(&req) {
                batcher.drop_request(req);
                // An abandoned batch is a hard failure for every tenant it
                // carried; enough of them in a row open the breaker.
                if let Some(brk) = self.breakers.get_mut(&inf.tenant) {
                    if brk.on_failure(now_s) {
                        events.push(ServeEvent::CircuitOpened {
                            tenant: inf.tenant,
                            until_s: brk.open_until_s(),
                        });
                    }
                }
                responses.push(LookupResponse::shed_response(
                    req,
                    inf.tenant,
                    inf.submitted_s,
                    now_s,
                ));
                traces.push(inf.ctx.finish(now_s, RequestOutcome::Shed, 0));
            }
        }
    }
}

/// Stage a released request's keys into the batcher. A scheduler release
/// for a request not in the in-flight table is an internal inconsistency;
/// it surfaces as a typed error instead of an index panic.
fn stage(
    batcher: &mut MicroBatcher,
    inflight: &mut BTreeMap<u64, InFlight>,
    id: u64,
    now_s: f64,
) -> Result<(), WindexError> {
    let inf = inflight.get_mut(&id).ok_or(WindexError::InvalidState(
        "scheduler released a request that is not in flight",
    ))?;
    inf.ctx.staged(now_s);
    batcher.stage(id, &inf.keys, now_s);
    Ok(())
}
