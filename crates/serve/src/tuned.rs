//! Auto-tuned multi-tenant serving: one [`OnlineTuner`] per tenant closes
//! the loop between the measurement layers and plan selection.
//!
//! The shared-operator [`Server`](crate::server::Server) serves one
//! relation under one fixed plan — right for studying batching, wrong for
//! the paper's central finding that the best plan is *regime-dependent*
//! (hash join in-core, windowed INLJ out-of-core). A [`TunedServer`] hosts
//! one [`QuerySession`] **per tenant**, each over its own relation (1 GiB
//! and 64 GiB tenants coexist), batches each tenant's queued requests into
//! whole-batch dispatches, and lets a per-tenant tuner pick
//! `{strategy, window, partition bits}` at every batch boundary from
//! observed KPIs.
//!
//! Time is the usual virtual clock: the server charges each dispatch the
//! cost model's estimate (plus any priced strategy-switch build), requests
//! complete at dispatch-end, and device-loss recoveries jump the clock
//! through the session's PR 6 checkpoint path. A dispatch that degrades
//! (ladder step or device loss) pins that tenant's tuner until healthy
//! batches pass. Everything is a pure function of (seed, trace): repeated
//! runs serialize byte-identically.

use crate::report::{latency_summary, rate, LatencyHistogram, LatencyStats};
use crate::request::{RequestOutcome, TenantId};
use crate::span::{
    sample_tail, RequestContext, RequestTrace, StageLatencyStats, TailConfig, TailReport,
};
use crate::trace::TimedRequest;
use serde::Serialize;
use std::collections::VecDeque;
use windex_core::{
    candidate_prior_s_per_key, default_candidates, CandidatePlan, JoinStrategy, KpiSample,
    OnlineTuner, QueryExecutor, QuerySession, TuneEvent, TunerConfig, WindexError,
};
use windex_join::PartitionBits;
use windex_sim::fault::splitmix64;
use windex_sim::{CostModel, Counters, Gpu, GpuSpec};
use windex_workload::Relation;

/// Configuration of a tuned serving run.
#[derive(Debug, Clone, Copy)]
pub struct TunedConfig {
    /// Keys a tenant must queue before its batch dispatches (a batch also
    /// dispatches when its oldest request has waited `max_delay_s`). The
    /// regime contrast lives here: at ~32 Ki keys a hash join amortizes
    /// streaming a small R but not a large one.
    pub batch_keys: usize,
    /// Longest a queued request waits before forcing a (possibly small)
    /// dispatch, in virtual seconds.
    pub max_delay_s: f64,
    /// Tuner discipline template. Each tenant's tuner derives its seed as
    /// `tuner.seed ^ splitmix64(tenant + 1)` so tenants draw independent
    /// exploration streams from one configured seed.
    pub tuner: TunerConfig,
}

impl Default for TunedConfig {
    fn default() -> Self {
        TunedConfig {
            batch_keys: 32_768,
            max_delay_s: 0.05,
            tuner: TunerConfig::default(),
        }
    }
}

/// One tuner decision on the served timeline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TunedServeEvent {
    /// The tenant whose tuner decided.
    pub tenant: TenantId,
    /// Virtual instant of the decision (the dispatch boundary).
    pub at_s: f64,
    /// The decision itself.
    pub event: TuneEvent,
}

/// Per-tenant accounting over one tuned run, ascending tenant id.
#[derive(Debug, Clone, Serialize)]
pub struct TunedTenantReport {
    /// The tenant.
    pub tenant: TenantId,
    /// Paper-scale size of the tenant's relation in GiB.
    pub paper_r_gib: f64,
    /// Requests the tenant submitted (all are served; no shedding here).
    pub requests: usize,
    /// Requests completed within their deadline (late ones are not
    /// counted here).
    pub completed: usize,
    /// Probe keys across all requests.
    pub keys: usize,
    /// Join matches returned.
    pub matches: usize,
    /// Batches dispatched for this tenant.
    pub batches: usize,
    /// Virtual time this tenant's dispatches occupied the device.
    pub busy_s: f64,
    /// Plan label the tuner ended on.
    pub final_plan: String,
    /// Window capacity of that plan in probe tuples (0 when the plan is
    /// not windowed).
    pub final_window_tuples: usize,
    /// Argmin strategy switches taken.
    pub switches: u64,
    /// Exploration batches taken.
    pub explorations: u64,
    /// Batches decided while degradation-pinned.
    pub pinned_batches: u64,
    /// Mean relative |estimated − realized| per-key cost error.
    pub est_cost_error: f64,
}

/// Everything measured about one tuned serving run. Same seed and trace ⇒
/// byte-identical serialization.
#[derive(Debug, Clone, Serialize)]
pub struct TunedReport {
    /// Policy label, e.g. `"tuned(batch_keys=32768, max_delay=50ms)"`.
    pub policy: String,
    /// Tenants served.
    pub tenants: usize,
    /// Requests across the whole trace.
    pub requests: usize,
    /// Requests completed within their deadline. The tuned server sheds
    /// nothing (it queues), so `completed + deadline_missed == requests`.
    pub completed: usize,
    /// Requests completing past their deadline, if deadlines were set.
    pub deadline_missed: usize,
    /// Probe keys dispatched.
    pub keys_probed: usize,
    /// Join matches returned across all tenants.
    pub result_tuples: usize,
    /// Batches dispatched across all tenants.
    pub batches: usize,
    /// Argmin switches across all tenants.
    pub switches: u64,
    /// Exploration batches across all tenants.
    pub explorations: u64,
    /// Virtual time from trace start to the last completion.
    pub virtual_makespan_s: f64,
    /// Virtual time the device spent executing dispatches (excludes
    /// arrival idle gaps and outage waits).
    pub busy_s: f64,
    /// Served requests, on time or late, per *busy* virtual second — the
    /// throughput the tuner optimizes, comparable across policies on the
    /// same trace.
    pub aggregate_qps: f64,
    /// Requests completed within their deadline per makespan second
    /// (includes idle time).
    pub completed_rps: f64,
    /// Probe keys per busy virtual second.
    pub keys_per_second: f64,
    /// Latency distribution over completed requests.
    pub latency: LatencyStats,
    /// Fixed-bucket histogram over the same samples.
    pub latency_hist: LatencyHistogram,
    /// Per-tenant accounting, ascending tenant id.
    pub per_tenant: Vec<TunedTenantReport>,
    /// Tuner decisions on the served timeline, in dispatch order.
    pub tune_events: Vec<TunedServeEvent>,
    /// Counter delta summed over every dispatch.
    pub counters: Counters,
    /// Mean relative cost-model error across all tenants' batches.
    pub est_cost_error: f64,
    /// Per-stage latency distributions over every request's span tree.
    pub stages: StageLatencyStats,
    /// One span tree per request, ordered by request id.
    pub traces: Vec<RequestTrace>,
    /// Deterministic tail sample (top-K slowest + seeded uniform).
    pub tail: TailReport,
}

struct Queued {
    at_s: f64,
    keys: Vec<u64>,
    deadline: Option<f64>,
    ctx: RequestContext,
}

struct Tenant {
    id: TenantId,
    session: QuerySession,
    tuner: OnlineTuner,
    paper_r_gib: f64,
    r_domain: u64,
    r_tuples: u64,
    queue: VecDeque<Queued>,
    queued_keys: usize,
    events_seen: usize,
    /// The tuner's last decision was an exploration: the next batch this
    /// tenant dispatches is a probe batch.
    explore_next: bool,
    run: TenantRun,
}

/// One tenant's accounting over the current run (reset by every `run`).
#[derive(Default)]
struct TenantRun {
    requests: usize,
    completed: usize,
    deadline_missed: usize,
    keys: usize,
    matches: usize,
    batches: usize,
    busy_s: f64,
}

/// The auto-tuned server: per-tenant sessions, queues, and tuners over one
/// simulated device.
pub struct TunedServer {
    gpu: Gpu,
    cfg: TunedConfig,
    tenants: Vec<Tenant>,
}

impl TunedServer {
    /// Stage one session per `(tenant, relation)` and seed its tuner with
    /// analytic priors over `candidates` (the
    /// [`default_candidates`] set if `None`). Tenants must have distinct
    /// ids; they are served in ascending-id order on ties.
    pub fn new(
        spec: GpuSpec,
        cfg: TunedConfig,
        tenants: Vec<(TenantId, Relation)>,
        candidates: Option<Vec<CandidatePlan>>,
    ) -> Result<Self, WindexError> {
        let mut gpu = Gpu::new(spec);
        let model = CostModel::new(gpu.spec());
        let candidates = candidates.unwrap_or_else(default_candidates);
        let mut staged = Vec::with_capacity(tenants.len());
        for (id, r) in tenants {
            let priors: Vec<f64> = candidates
                .iter()
                .map(|c| {
                    candidate_prior_s_per_key(&model, c, r.len() as u64, cfg.batch_keys as u64)
                })
                .collect();
            let tuner_cfg = TunerConfig {
                seed: cfg.tuner.seed ^ splitmix64(id as u64 + 1),
                ..cfg.tuner
            };
            let tuner = OnlineTuner::new(tuner_cfg, candidates.clone(), priors);
            let paper_r_gib = gpu.spec().scale.paper_gib_for_sim_tuples(r.len());
            let r_domain = r.max_key().unwrap_or(0) - r.min_key().unwrap_or(0);
            let r_tuples = r.len() as u64;
            // Probe keys arrive per request; the staged probe relation is
            // empty and every dispatch goes through `run_batch`.
            let empty_s = Relation::from_keys(Vec::new(), false);
            let session = QuerySession::new(&mut gpu, QueryExecutor::new(), r, empty_s)?;
            staged.push(Tenant {
                id,
                session,
                tuner,
                paper_r_gib,
                r_domain,
                r_tuples,
                queue: VecDeque::new(),
                queued_keys: 0,
                events_seen: 0,
                explore_next: false,
                run: TenantRun::default(),
            });
        }
        staged.sort_by_key(|t| t.id);
        Ok(TunedServer {
            gpu,
            cfg,
            tenants: staged,
        })
    }

    /// The simulated device (e.g. to install a chaos schedule before
    /// replaying a trace).
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }

    fn tenant_index(&self, id: TenantId) -> Option<usize> {
        self.tenants.iter().position(|t| t.id == id)
    }

    /// Which tenant (index) should dispatch at `clock`, if any: a full
    /// batch first, else an expired `max_delay_s` wait; lowest tenant id
    /// wins ties. `drain` treats any non-empty queue as dispatchable (used
    /// once arrivals are exhausted).
    fn dispatchable(&self, clock: f64, drain: bool) -> Option<usize> {
        let full = self
            .tenants
            .iter()
            .position(|t| t.queued_keys >= self.cfg.batch_keys);
        if full.is_some() {
            return full;
        }
        // Same arithmetic as `next_delay_expiry`: the idle branch jumps the
        // clock to `at_s + max_delay_s`, and `(a + d) - a` can round below
        // `d` in f64 — comparing the sum avoids a livelock at the expiry
        // instant.
        self.tenants.iter().position(|t| {
            t.queue
                .front()
                .is_some_and(|q| drain || q.at_s + self.cfg.max_delay_s <= clock)
        })
    }

    /// Earliest future instant at which some queued request's batching
    /// delay expires.
    fn next_delay_expiry(&self) -> Option<f64> {
        self.tenants
            .iter()
            .filter_map(|t| t.queue.front().map(|q| q.at_s + self.cfg.max_delay_s))
            .min_by(f64::total_cmp)
    }

    fn dispatch(
        &mut self,
        ti: usize,
        clock: &mut f64,
        latencies: &mut Vec<f64>,
        totals: &mut Counters,
        events: &mut Vec<TunedServeEvent>,
        traces: &mut Vec<RequestTrace>,
    ) -> Result<(), WindexError> {
        let cfg = self.cfg;
        let t = &mut self.tenants[ti];
        // Pop whole requests until the batch threshold is met (≥ 1 always).
        let mut batch: Vec<Queued> = Vec::new();
        let mut batch_keys = 0usize;
        while let Some(q) = t.queue.front() {
            if !batch.is_empty() && batch_keys + q.keys.len() > cfg.batch_keys {
                break;
            }
            batch_keys += q.keys.len();
            t.queued_keys -= q.keys.len();
            let mut q = t.queue.pop_front().unwrap();
            q.ctx.staged(*clock);
            if t.explore_next {
                q.ctx.probe_batch();
            }
            batch.push(q);
            if batch_keys >= cfg.batch_keys {
                break;
            }
        }
        t.explore_next = false;
        let keys: Vec<u64> = batch.iter().flat_map(|q| q.keys.iter().copied()).collect();

        let plan = t.tuner.current();
        self.gpu.set_virtual_time(*clock);
        let build_s = t.session.prepare_strategy(&mut self.gpu, plan.strategy)?;
        t.session.set_partition_bits(PartitionBits::select(
            t.r_domain,
            t.r_tuples,
            self.gpu.spec(),
            plan.max_partition_bits.max(1),
        ));
        let rep = t.session.run_batch(&mut self.gpu, plan.strategy, &keys)?;

        // Device-loss recovery may have jumped the device clock past ours;
        // completion lands after the later of the two plus the service.
        let service_s = build_s + rep.time.total_s;
        let start_s = self.gpu.virtual_now_s().max(*clock);
        let end_s = start_s + service_s;
        t.run.busy_s += service_s;
        t.run.batches += 1;
        t.run.keys += keys.len();
        t.run.matches += rep.result_tuples;
        for mut q in batch {
            let latency = end_s - q.at_s;
            latencies.push(latency);
            let outcome = if q.deadline.is_some_and(|d| latency > d) {
                t.run.deadline_missed += 1;
                RequestOutcome::DeadlineMissed
            } else {
                t.run.completed += 1;
                RequestOutcome::Completed
            };
            q.ctx.dispatched(start_s);
            q.ctx.first_result(end_s);
            q.ctx.merged(end_s);
            // The batch path does not demultiplex matches per request, so
            // traces carry 0 here; per-tenant totals live on the report.
            traces.push(q.ctx.finish(end_s, outcome, 0));
        }
        *totals = *totals + rep.counters;
        *clock = end_s;

        t.tuner.observe(KpiSample::from_report(&rep));
        if !rep.degradations.is_empty() {
            t.tuner.pin();
        }
        t.tuner.decide();
        for e in &t.tuner.events()[t.events_seen..] {
            if e.reason == windex_core::TuneReason::Explore {
                t.explore_next = true;
            }
            events.push(TunedServeEvent {
                tenant: t.id,
                at_s: *clock,
                event: e.clone(),
            });
        }
        t.events_seen = t.tuner.events().len();
        Ok(())
    }

    /// Replay an arrival-ordered trace to completion and report. A trace
    /// naming an unknown tenant is rejected before anything is admitted.
    /// The report covers this trace only; tuner state carries over between
    /// runs.
    pub fn run(&mut self, trace: &[TimedRequest]) -> Result<TunedReport, WindexError> {
        let tenant_of: Vec<usize> = trace
            .iter()
            .map(|tr| {
                self.tenant_index(tr.request.tenant)
                    .ok_or(WindexError::InvalidConfig(
                        "trace request for a tenant the server does not host",
                    ))
            })
            .collect::<Result<_, _>>()?;
        for t in &mut self.tenants {
            t.queue.clear();
            t.queued_keys = 0;
            t.run = TenantRun::default();
        }
        let mut clock = 0.0f64;
        let mut next = 0usize;
        let mut latencies: Vec<f64> = Vec::new();
        let mut totals = Counters::default();
        let mut events: Vec<TunedServeEvent> = Vec::new();
        let mut traces: Vec<RequestTrace> = Vec::with_capacity(trace.len());

        loop {
            // Admit everything that has arrived by `clock`.
            while next < trace.len() && trace[next].at_s <= clock {
                let tr = &trace[next];
                let t = &mut self.tenants[tenant_of[next]];
                t.run.requests += 1;
                t.queued_keys += tr.request.keys.len();
                t.queue.push_back(Queued {
                    at_s: tr.at_s,
                    keys: tr.request.keys.clone(),
                    deadline: tr.request.deadline,
                    ctx: RequestContext::new(
                        next as u64,
                        tr.request.tenant,
                        tr.at_s,
                        tr.request.keys.len(),
                    ),
                });
                next += 1;
            }
            let drain = next >= trace.len();
            if let Some(ti) = self.dispatchable(clock, drain) {
                self.dispatch(
                    ti,
                    &mut clock,
                    &mut latencies,
                    &mut totals,
                    &mut events,
                    &mut traces,
                )?;
                continue;
            }
            if drain {
                break; // no arrivals left, no queued work: done
            }
            // Idle: jump to the next arrival or the next delay expiry,
            // whichever comes first.
            let mut wake = trace[next].at_s;
            if let Some(expiry) = self.next_delay_expiry() {
                wake = wake.min(expiry);
            }
            clock = clock.max(wake);
        }

        traces.sort_by_key(|t| t.request);
        let stages = StageLatencyStats::from_traces(&traces);
        let tail = sample_tail(&traces, &TailConfig::default());
        let busy_s: f64 = self.tenants.iter().map(|t| t.run.busy_s).sum();
        let completed: usize = self.tenants.iter().map(|t| t.run.completed).sum();
        let deadline_missed: usize = self.tenants.iter().map(|t| t.run.deadline_missed).sum();
        let keys_probed: usize = self.tenants.iter().map(|t| t.run.keys).sum();
        // Latencies stay in dispatch order: the histogram's sum depends on it.
        let (latency, latency_hist) = latency_summary(latencies);
        let per_tenant: Vec<TunedTenantReport> = self
            .tenants
            .iter()
            .map(|t| TunedTenantReport {
                tenant: t.id,
                paper_r_gib: t.paper_r_gib,
                requests: t.run.requests,
                completed: t.run.completed,
                keys: t.run.keys,
                matches: t.run.matches,
                batches: t.run.batches,
                busy_s: t.run.busy_s,
                final_plan: t.tuner.current_label(),
                final_window_tuples: match t.tuner.current().strategy {
                    JoinStrategy::WindowedInlj { window_tuples, .. } => window_tuples,
                    _ => 0,
                },
                switches: t.tuner.switch_count(),
                explorations: t.tuner.exploration_count(),
                pinned_batches: t.tuner.pinned_batch_count(),
                est_cost_error: t.tuner.mean_cost_error(),
            })
            .collect();
        let batches: usize = per_tenant.iter().map(|t| t.batches).sum();
        let err_total: f64 = per_tenant
            .iter()
            .map(|t| t.est_cost_error * t.batches as f64)
            .sum();
        Ok(TunedReport {
            policy: format!(
                "tuned(batch_keys={}, max_delay={:.0}ms)",
                self.cfg.batch_keys,
                self.cfg.max_delay_s * 1e3
            ),
            tenants: self.tenants.len(),
            requests: self.tenants.iter().map(|t| t.run.requests).sum(),
            completed,
            deadline_missed,
            keys_probed,
            result_tuples: self.tenants.iter().map(|t| t.run.matches).sum(),
            batches,
            switches: per_tenant.iter().map(|t| t.switches).sum(),
            explorations: per_tenant.iter().map(|t| t.explorations).sum(),
            virtual_makespan_s: clock,
            busy_s,
            aggregate_qps: rate(completed + deadline_missed, busy_s),
            completed_rps: rate(completed, clock),
            keys_per_second: rate(keys_probed, busy_s),
            latency,
            latency_hist,
            per_tenant,
            tune_events: events,
            counters: totals,
            est_cost_error: if batches > 0 {
                err_total / batches as f64
            } else {
                0.0
            },
            stages,
            traces,
            tail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{generate_tenant_trace, merge_traces, TraceConfig};
    use windex_sim::Scale;
    use windex_workload::KeyDistribution;

    fn spec() -> GpuSpec {
        GpuSpec::v100_nvlink2(Scale::PAPER)
    }

    fn small_relation() -> Relation {
        Relation::unique_sorted(1 << 14, KeyDistribution::SparseUniform, 11)
    }

    fn mini_trace(r: &Relation, tenant: TenantId) -> Vec<TimedRequest> {
        generate_tenant_trace(
            &TraceConfig {
                requests: 12,
                min_keys: 64,
                max_keys: 256,
                offered_load_rps: 500.0,
                ..TraceConfig::default()
            },
            tenant,
            r,
        )
    }

    #[test]
    fn serves_every_request_and_reports_consistently() {
        let r = small_relation();
        let trace = mini_trace(&r, 0);
        let keys: usize = trace.iter().map(|t| t.request.keys.len()).sum();
        let mut srv = TunedServer::new(spec(), TunedConfig::default(), vec![(0, r)], None).unwrap();
        let rep = srv.run(&trace).unwrap();
        assert_eq!(rep.requests, trace.len());
        assert_eq!(rep.completed, trace.len());
        assert_eq!(rep.keys_probed, keys);
        // FK-valid probes against a unique build side: every key matches.
        assert_eq!(rep.result_tuples, keys);
        assert!(rep.busy_s > 0.0 && rep.aggregate_qps > 0.0);
        assert_eq!(rep.latency.samples, trace.len());
        assert_eq!(rep.per_tenant.len(), 1);
        assert_eq!(rep.per_tenant[0].batches, rep.batches);
    }

    #[test]
    fn two_tenant_run_is_byte_deterministic() {
        let run = || {
            let small = small_relation();
            let big = Relation::unique_sorted(1 << 16, KeyDistribution::SparseUniform, 12);
            let trace = merge_traces(vec![mini_trace(&small, 0), mini_trace(&big, 1)]);
            let mut srv = TunedServer::new(
                spec(),
                TunedConfig::default(),
                vec![(0, small), (1, big)],
                None,
            )
            .unwrap();
            serde_json::to_string(&srv.run(&trace).unwrap()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn repeated_runs_report_only_their_own_trace() {
        let r = small_relation();
        let trace = mini_trace(&r, 0);
        let keys: usize = trace.iter().map(|t| t.request.keys.len()).sum();
        let mut srv = TunedServer::new(spec(), TunedConfig::default(), vec![(0, r)], None).unwrap();
        let first = srv.run(&trace).unwrap();
        let second = srv.run(&trace).unwrap();
        for rep in [&first, &second] {
            assert_eq!(rep.requests, trace.len());
            assert_eq!(rep.completed, trace.len());
            assert_eq!(rep.keys_probed, keys);
            assert_eq!(rep.result_tuples, keys);
            assert_eq!(rep.traces.len(), trace.len());
            let t = &rep.per_tenant[0];
            assert_eq!((t.requests, t.completed), (trace.len(), trace.len()));
            assert_eq!((t.keys, t.matches), (keys, keys));
            assert_eq!(t.batches, rep.batches);
        }
    }

    #[test]
    fn late_requests_are_missed_not_completed() {
        let r = small_relation();
        let mut trace = mini_trace(&r, 0);
        // Every other request's deadline is shorter than any batch's
        // service time, so exactly those requests complete late.
        for tr in trace.iter_mut().step_by(2) {
            tr.request.deadline = Some(1e-9);
        }
        let late = trace.len().div_ceil(2);
        let mut srv = TunedServer::new(spec(), TunedConfig::default(), vec![(0, r)], None).unwrap();
        let rep = srv.run(&trace).unwrap();
        assert_eq!(rep.deadline_missed, late);
        assert_eq!(rep.completed + rep.deadline_missed, rep.requests);
        assert_eq!(rep.per_tenant[0].completed, rep.completed);
        assert_eq!(
            rep.completed_rps,
            rate(rep.completed, rep.virtual_makespan_s)
        );
        assert_eq!(rep.aggregate_qps, rate(rep.requests, rep.busy_s));
        let text = crate::metrics::render_tuner_openmetrics(&rep);
        assert!(text.contains(&format!(
            "windex_requests_completed_total{{host=\"tuned\"}} {}\n",
            rep.completed
        )));
    }

    #[test]
    fn unknown_tenant_is_rejected() {
        let r = small_relation();
        let trace = mini_trace(&r, 3); // tenant 3 was never staged
        let mut srv =
            TunedServer::new(spec(), TunedConfig::default(), vec![(0, r.clone())], None).unwrap();
        assert!(srv.run(&trace).is_err());
        // An unknown tenant arriving after known ones is rejected before
        // any request is admitted, so nothing leaks into the next run.
        let good = mini_trace(&r, 0);
        let mut late = good.clone();
        let mut stray = late[late.len() - 1].clone();
        stray.request.tenant = 3;
        late.push(stray);
        assert!(srv.run(&late).is_err());
        let rep = srv.run(&good).unwrap();
        assert_eq!(rep.requests, good.len());
        assert_eq!(rep.completed, good.len());
    }
}
