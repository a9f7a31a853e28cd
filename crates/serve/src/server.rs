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
//! Each dispatch walks the per-GPU degradation ladder of the server's lane
//! (shrink the window, spill the sink, retry, rebuild after a device loss)
//! and sheds the batch only when the ladder gives up.

use crate::batch::MicroBatcher;
use crate::lane::{Landed, Lane, LaneStep, Retries};
use crate::report::{rate, BatchSpan, RunTally, ServeEvent, ServerReport, TenantLoad};
use crate::request::{LookupResponse, RequestOutcome, TenantId};
use crate::resilience::{
    BreakerReport, CircuitBreaker, ResilienceConfig, RetryReport, TenantBreaker,
};
use crate::sched::DrrScheduler;
use crate::span::{Answers, RequestContext};
use crate::trace::{distinct_tenants, TimedRequest};
use std::collections::BTreeMap;
use std::rc::Rc;
use windex_core::query::QueryError;
use windex_core::{WindexError, WindowStats};
use windex_index::IndexKind;
use windex_join::PartitionBits;
use windex_sim::{Gpu, MemLocation, PhaseRecorder};
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

    /// Whether another queued request should be staged into a batcher
    /// feeding a `window`-key shared window.
    pub(crate) fn stage_more(&self, batcher: &MicroBatcher, window: usize) -> bool {
        match self {
            BatchPolicy::Shared { .. } => batcher.pending() < window,
            BatchPolicy::PerRequest => batcher.pending() == 0,
        }
    }

    /// Whether the staged keys are due for dispatch at `now_s`: the window
    /// is full or its oldest key has waited `max_delay_s` (shared), or
    /// anything is staged at all (per-request).
    pub(crate) fn due(&self, batcher: &MicroBatcher, window: usize, now_s: f64) -> bool {
        match *self {
            BatchPolicy::PerRequest => batcher.pending() > 0,
            BatchPolicy::Shared { max_delay_s } => {
                batcher.pending() >= window
                    || batcher
                        .oldest_since()
                        .is_some_and(|since| since + max_delay_s <= now_s)
            }
        }
    }

    /// Keys one dispatch takes: the whole staged request (per-request; one
    /// request per dispatch, however many keys it has) or at most a window.
    pub(crate) fn take_size(&self, batcher: &MicroBatcher, window: usize) -> usize {
        match self {
            BatchPolicy::PerRequest => batcher.pending(),
            BatchPolicy::Shared { .. } => window.min(batcher.pending()),
        }
    }

    /// When the oldest staged key's max-delay timer fires, if one runs.
    pub(crate) fn flush_deadline(&self, batcher: &MicroBatcher) -> Option<f64> {
        match *self {
            BatchPolicy::Shared { max_delay_s } => batcher.oldest_since().map(|s| s + max_delay_s),
            BatchPolicy::PerRequest => None,
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

impl ServeConfig {
    /// Reject knobs no serving host can run with.
    pub(crate) fn validate(&self) -> Result<(), WindexError> {
        let check = |ok: bool, msg| ok.then_some(()).ok_or(WindexError::InvalidConfig(msg));
        check(
            self.window_tuples > 0,
            "serving window must hold at least one key",
        )?;
        // The scheduler owns the quantum check.
        DrrScheduler::new(self.quantum_keys)?;
        check(
            self.max_pending_keys > 0,
            "backpressure bound must admit at least one key",
        )?;
        match self.policy {
            BatchPolicy::Shared { max_delay_s } => check(
                max_delay_s.is_finite() && max_delay_s > 0.0,
                "shared-batch max delay must be positive",
            ),
            BatchPolicy::PerRequest => Ok(()),
        }
    }
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

/// Mutable state of one `run()` invocation.
struct RunState {
    clock: f64,
    sched: DrrScheduler,
    batcher: MicroBatcher,
    inflight: BTreeMap<u64, InFlight>,
    answers: Answers,
    events: Vec<ServeEvent>,
    batches: Vec<BatchSpan>,
    max_queue_depth: usize,
    keys_probed: usize,
    windows_closed: usize,
    matches_total: usize,
    /// Backoff charged to the virtual clock, in seconds.
    backoff_s: f64,
}

impl RunState {
    /// Stage a released request's keys into the batcher. Releasing a
    /// request that is not in flight is a typed error, not a panic.
    fn stage(&mut self, id: u64) -> Result<(), WindexError> {
        let inf = self.inflight.get_mut(&id).ok_or(WindexError::InvalidState(
            "scheduler released a request that is not in flight",
        ))?;
        inf.ctx.staged(self.clock);
        self.batcher.stage(id, &inf.keys, self.clock);
        Ok(())
    }

    /// The distinct requests with a key in `batch`, in batch order.
    fn requests_of(&self, batch: &[(u64, u64)]) -> Vec<u64> {
        let mut reqs: Vec<u64> = Vec::new();
        for &(_, rid) in batch {
            let (req, _) = self.batcher.resolve(rid);
            if !reqs.contains(&req) {
                reqs.push(req);
            }
        }
        reqs
    }
}

/// The deterministic multi-tenant query server.
#[derive(Debug)]
pub struct Server {
    cfg: ServeConfig,
    r: Relation,
    /// The GPU's index, shared operator and sink.
    lane: Lane,
    /// Degradation applied during construction (e.g. the sink never fit on
    /// the device), replayed at the head of every report.
    setup_events: Vec<ServeEvent>,
    /// Dispatch-level retry budget and jitter ordinal (the budget persists
    /// across traces, like the window degradation).
    retries: Retries,
    /// Per-tenant circuit breakers, keyed by tenant id.
    breakers: BTreeMap<TenantId, CircuitBreaker>,
}

impl Server {
    /// Build a server over the (sorted, duplicate-free) relation `r`:
    /// stages the column, builds the index, and allocates the shared
    /// operator and sink. A sink that cannot fit in device memory falls
    /// back to CPU placement instead of failing.
    pub fn new(gpu: &mut Gpu, cfg: ServeConfig, r: Relation) -> Result<Self, WindexError> {
        cfg.validate()?;
        if !r.is_sorted_unique() {
            return Err(QueryError::IndexedRelationNotSorted.into());
        }
        let col = Rc::new(gpu.alloc_host_shared(r.keys_shared()));
        let min_key = r.min_key().unwrap_or(0);
        let bits = cfg.partition_bits.unwrap_or_else(|| {
            let domain = r.max_key().unwrap_or(0) - min_key;
            PartitionBits::select(domain, r.len() as u64, gpu.spec(), 11)
        });
        let lane = Lane::new(gpu, &cfg, col, bits, min_key)?;
        let mut setup_events = Vec::new();
        if lane.sink_location() != cfg.result_location {
            setup_events.push(ServeEvent::SinkSpilledToCpu);
        }
        Ok(Server {
            retries: Retries::new(&cfg.resilience.retry),
            cfg,
            r,
            lane,
            setup_events,
            breakers: BTreeMap::new(),
        })
    }

    /// The served relation.
    pub fn relation(&self) -> &Relation {
        &self.r
    }

    /// Current shared-window capacity (shrinks under memory pressure).
    pub fn effective_window_tuples(&self) -> usize {
        self.lane.window_tuples()
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
        self.lane
            .set_phase_recorder(Some(PhaseRecorder::start(gpu)));
        let mut st = RunState {
            clock: 0.0,
            sched: DrrScheduler::new(self.cfg.quantum_keys)?,
            batcher: MicroBatcher::new(),
            inflight: BTreeMap::new(),
            answers: Answers::default(),
            events: self.setup_events.clone(),
            batches: Vec::new(),
            max_queue_depth: 0,
            keys_probed: 0,
            windows_closed: 0,
            matches_total: 0,
            backoff_s: 0.0,
        };
        let mut next_arrival = 0usize;
        let retry_spent0 = self.retries.budget.spent();
        let retry_denied0 = self.retries.budget.denied();
        self.retries.begin_run();
        let breaker_cfg = self.cfg.resilience.breaker;
        // Each run restarts the virtual clock, so breaker timers from a
        // previous trace belong to a stale epoch; close them (counters
        // stay cumulative across the server's lifetime).
        for brk in self.breakers.values_mut() {
            brk.reset_for_epoch();
        }
        self.lane.begin_run();
        // The serving clock IS the chaos clock: every trace starts at
        // virtual t = 0 so fault windows land on serving time.
        gpu.set_virtual_time(0.0);
        let policy = self.cfg.policy;

        loop {
            // 1. Admit every arrival due now.
            while next_arrival < trace.len() && trace[next_arrival].at_s <= st.clock {
                let t = &trace[next_arrival];
                let id = next_arrival as u64;
                next_arrival += 1;
                let clock = st.clock;
                let n = t.request.keys.len();
                if n == 0 {
                    st.answers.unserved(id, t, clock, false);
                    continue;
                }
                // Per-tenant circuit breaker: an open breaker fast-rejects
                // the arrival before backpressure is even consulted.
                let brk = self
                    .breakers
                    .entry(t.request.tenant)
                    .or_insert_with(|| CircuitBreaker::new(breaker_cfg));
                if !brk.allow(clock) {
                    st.events.push(ServeEvent::CircuitShed {
                        tenant: t.request.tenant,
                        request: id,
                    });
                    st.answers.unserved(id, t, clock, true);
                    continue;
                }
                let backlog = st.sched.queued_keys() + st.batcher.pending();
                if backlog + n > self.cfg.max_pending_keys {
                    // The request passed the breaker but never reached the
                    // device; a half-open probe slot must not stay taken.
                    if let Some(brk) = self.breakers.get_mut(&t.request.tenant) {
                        brk.release_probe();
                    }
                    st.events.push(ServeEvent::LoadShed {
                        tenant: t.request.tenant,
                        request: id,
                        keys: n,
                    });
                    st.answers.unserved(id, t, clock, false);
                    continue;
                }
                st.inflight.insert(
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
                st.sched.enqueue(t.request.tenant, id, n);
                st.max_queue_depth = st
                    .max_queue_depth
                    .max(st.sched.queued_keys() + st.batcher.pending());
            }

            // 2. Release queued requests into the batcher under DRR order.
            let window = self.lane.window_tuples();
            while policy.stage_more(&st.batcher, window) {
                match st.sched.dequeue()? {
                    Some(id) => st.stage(id)?,
                    None => break,
                }
            }

            // 3. Dispatch if the policy says so.
            if policy.due(&st.batcher, window, st.clock) {
                let take = policy.take_size(&st.batcher, window);
                let batch = st.batcher.take(take, st.clock);
                st.keys_probed += batch.len();
                self.dispatch(gpu, &batch, &mut st)?;
                continue;
            }

            // 4. Advance the clock to the next event, or finish.
            let next_at = (next_arrival < trace.len()).then(|| trace[next_arrival].at_s);
            match (next_at, policy.flush_deadline(&st.batcher)) {
                (Some(a), Some(f)) => st.clock = st.clock.max(a.min(f)),
                (Some(a), None) => st.clock = st.clock.max(a),
                (None, Some(f)) => st.clock = st.clock.max(f),
                (None, None) => {
                    // No arrivals and no flush timer: queued work would
                    // have been staged (and a timer set) in step 2, so the
                    // trace is fully answered.
                    debug_assert!(
                        st.sched.is_empty() && st.batcher.pending() == 0,
                        "event loop stalled with queued work"
                    );
                    break;
                }
            }
            // Keep the chaos clock in lockstep with the serving clock so
            // fault windows open and close on serving time.
            gpu.set_virtual_time(st.clock);
        }
        debug_assert!(st.inflight.is_empty(), "all admitted requests answered");

        let (stages, tail) = st.answers.finish();
        let (responses, makespan, keys_probed) = (st.answers.responses, st.clock, st.keys_probed);
        let counters = gpu.snapshot() - run_start;
        let phases = self
            .lane
            .take_phase_recorder()
            .map(|rec| rec.finish(gpu))
            .unwrap_or_default();
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
        // BTreeMap iteration is ascending by tenant id, fixing the
        // exposition order.
        let mut breaker = BreakerReport::default();
        for (&tenant, b) in &self.breakers {
            breaker.opens += b.opens();
            breaker.fast_rejects += b.fast_rejects();
            breaker.half_open_probes += b.half_open_probes();
            breaker.tenants.push(TenantBreaker {
                tenant,
                state: b.state(),
                opens: b.opens(),
                fast_rejects: b.fast_rejects(),
            });
        }
        let retry = RetryReport {
            attempts: self.retries.budget.spent() - retry_spent0,
            denied: self.retries.budget.denied() - retry_denied0,
            tokens_remaining: self.retries.budget.tokens(),
            backoff_s: st.backoff_s,
        };
        let report = ServerReport {
            policy: self.cfg.policy.label(),
            index: self.cfg.index,
            tenants: distinct_tenants(trace),
            requests: trace.len(),
            completed: tally.completed,
            shed: tally.shed,
            deadline_missed: tally.deadline_missed,
            result_tuples: tally.result_tuples,
            keys_probed,
            window: WindowStats {
                windows: st.windows_closed,
                matches: st.matches_total,
            },
            mean_batch_keys: rate(keys_probed, st.windows_closed as f64),
            configured_window_tuples: self.cfg.window_tuples,
            effective_window_tuples: self.lane.window_tuples(),
            virtual_makespan_s: makespan,
            completed_rps: tally.completed_rps,
            keys_per_second: rate(keys_probed, makespan),
            latency: tally.latency,
            latency_hist: tally.latency_hist,
            per_tenant,
            max_queue_depth_keys: st.max_queue_depth,
            events: st.events,
            retries: counters.retries,
            counters,
            phases,
            batches: st.batches,
            slo,
            breaker,
            retry,
            stages,
            traces: st.answers.traces,
            tail,
        };
        Ok(ServeOutcome { responses, report })
    }

    /// Push one batch through the lane's degradation ladder (see
    /// [`Lane::dispatch`]), advancing virtual time by every attempt, backoff
    /// and rebuild. A batch the ladder gives up on sheds its requests
    /// rather than failing the server.
    fn dispatch(
        &mut self,
        gpu: &mut Gpu,
        batch: &[(u64, u64)],
        st: &mut RunState,
    ) -> Result<(), WindexError> {
        // The distinct requests riding this dispatch: their first dispatch
        // milestone is now; retries below delay all of them.
        let members = st.requests_of(batch);
        for req in &members {
            if let Some(inf) = st.inflight.get_mut(req) {
                inf.ctx.dispatched(st.clock);
            }
        }
        let at_s = st.clock;
        let d = self
            .lane
            .dispatch(gpu, batch, at_s, &mut self.retries, true)?;
        st.clock = d.end_s;
        for step in d.steps {
            st.events.push(match step {
                LaneStep::WindowShrunk { from, to } => ServeEvent::WindowShrunk { from, to },
                LaneStep::SinkSpilled => ServeEvent::SinkSpilledToCpu,
                LaneStep::Retried { attempt, backoff_s } => {
                    st.backoff_s += backoff_s;
                    for req in &members {
                        if let Some(inf) = st.inflight.get_mut(req) {
                            inf.ctx.retried();
                        }
                    }
                    ServeEvent::DispatchRetried { attempt, backoff_s }
                }
                LaneStep::Recovered { mttr_s } => ServeEvent::DeviceLossRecovered { mttr_s },
                LaneStep::RetriesExhausted => ServeEvent::RetriesExhausted { keys: batch.len() },
            });
        }
        // One timeline entry per dispatch, accumulating every attempt's
        // counter delta and virtual time (a batch retried after degradation
        // is still one dispatch).
        let mut span = BatchSpan {
            batch: st.batches.len(),
            at_s,
            keys: batch.len(),
            counters: d.counters,
            est_s: d.est_s,
            ..BatchSpan::default()
        };
        match d.landed {
            Landed::Completed { stats, pairs } => {
                st.windows_closed += stats.windows;
                st.matches_total += stats.matches;
                span.windows = stats.windows;
                span.completed = true;
                st.batches.push(span);
                self.complete(batch, &pairs, st)
            }
            Landed::Abandoned | Landed::DeviceLost => {
                st.batches.push(span);
                self.abandon(batch, st);
                Ok(())
            }
        }
    }

    /// Demultiplex the dispatch's `(rid, position)` pairs back to their
    /// requests and answer every request whose last key was just probed.
    fn complete(
        &mut self,
        batch: &[(u64, u64)],
        pairs: &[(u64, u64)],
        st: &mut RunState,
    ) -> Result<(), WindexError> {
        let now_s = st.clock;
        for &(rid, pos) in pairs {
            let (req, key_idx) = st.batcher.resolve(rid);
            if let Some(inf) = st.inflight.get_mut(&req) {
                inf.matches.push((inf.keys[key_idx as usize], pos));
            }
        }
        for &(_, rid) in batch {
            let (req, _) = st.batcher.resolve(rid);
            if let Some(inf) = st.inflight.get_mut(&req) {
                inf.remaining -= 1;
            }
        }
        // Answer finished requests in dispatch order (dedup preserves the
        // order their last keys went out).
        let done: Vec<u64> = st
            .requests_of(batch)
            .into_iter()
            .filter(|req| st.inflight.get(req).is_some_and(|inf| inf.remaining == 0))
            .collect();
        for req in done {
            let mut inf = st.inflight.remove(&req).ok_or(WindexError::InvalidState(
                "completed request vanished from the in-flight table",
            ))?;
            // An answered request is a breaker success for its tenant —
            // even past its deadline, the device did answer (deadline
            // attainment is the SLO tracker's concern, not the breaker's).
            if let Some(brk) = self.breakers.get_mut(&inf.tenant) {
                if brk.on_success() {
                    st.events
                        .push(ServeEvent::CircuitClosed { tenant: inf.tenant });
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
            st.answers.answer(resp, inf.ctx);
        }
        Ok(())
    }

    /// Shed every request with a key in the failed batch: answer it
    /// [`RequestOutcome::Shed`] and drop its still-pending keys.
    fn abandon(&mut self, batch: &[(u64, u64)], st: &mut RunState) {
        let now_s = st.clock;
        let victims = st.requests_of(batch);
        st.events.push(ServeEvent::BatchAbandoned {
            keys: batch.len(),
            requests: victims.len(),
        });
        for req in victims {
            if let Some(inf) = st.inflight.remove(&req) {
                st.batcher.drop_request(req);
                // An abandoned batch is a hard failure for every tenant it
                // carried; enough of them in a row open the breaker.
                if let Some(brk) = self.breakers.get_mut(&inf.tenant) {
                    if brk.on_failure(now_s) {
                        st.events.push(ServeEvent::CircuitOpened {
                            tenant: inf.tenant,
                            until_s: brk.open_until_s(),
                        });
                    }
                }
                let resp = LookupResponse::shed_response(req, inf.tenant, inf.submitted_s, now_s);
                st.answers.answer(resp, inf.ctx);
            }
        }
    }
}
