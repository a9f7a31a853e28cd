//! Tenant-parallel serving: independent tenants on independent `Gpu`
//! lanes, run on the workspace's one worker pool, merged in fixed order.
//!
//! The shared-window [`Server`] interleaves every
//! tenant on one device — right for studying cross-query batching, but it
//! serializes tenants that share nothing: each tenant probes the same
//! read-only relation through its own requests, and the virtual clock of
//! one tenant's dispatches never needs to see another's. This module
//! exploits that independence as a second parallel axis (the first being
//! the engine's batched drain): the trace is partitioned by tenant, each
//! tenant's sub-trace is served on its **own** freshly built `Gpu` lane,
//! and the per-lane reports are merged in ascending-tenant order.
//!
//! # Determinism argument
//!
//! The output is byte-identical for any worker-thread count because
//!
//! 1. **Lanes share no mutable state.** Each lane builds its own `Gpu`
//!    (sessions hold `Rc`s, so a lane is constructed *inside* the worker
//!    thread that runs it), its own server, and its own chaos schedule
//!    clone. The only shared inputs are immutable: the relation's
//!    `SharedColumn`, the config, and the sub-traces.
//! 2. **A lane's result is a pure function of its inputs.** Virtual time
//!    restarts at zero per lane; fault windows, retry jitter, and tuner
//!    exploration draws are all seeded per tenant, not per thread. An
//!    index fit a lane finds on the shared column, whichever thread made
//!    it, only changes wall time — it is accounting-identical to a cold
//!    fit by construction.
//! 3. **The merge order is fixed before any thread runs.** Lanes are
//!    ascending tenant id and run on [`par_map`], which returns results in
//!    lane order whichever worker ran a lane; collected into a `Result`,
//!    the lowest-tenant failure wins. Responses are re-keyed to their
//!    global (whole-trace) request ids and merged by that id.
//!
//! Against the serial shared-window server the *semantics* differ — there
//! is no cross-tenant batching, and each tenant sees a dedicated device —
//! so this is an opt-in mode, not a drop-in replacement. Within the mode,
//! `threads = 1` and `threads = N` serialize byte-identically; the
//! `simperf` gate and `crates/serve/tests/parallel.rs` hold that line.

use crate::report::{LatencyHistogram, LatencyStats, RunTally, ServerReport};
use crate::request::{LookupResponse, TenantId};
use crate::server::{ServeConfig, Server};
use crate::trace::TimedRequest;
use crate::tuned::{TunedConfig, TunedReport, TunedServer};
use serde::Serialize;
use windex_core::{par_map, WindexError};
use windex_sim::{ChaosSchedule, Gpu, GpuSpec};
use windex_workload::Relation;

/// One tenant's slice of a trace, plus the mapping back to global ids.
#[derive(Debug, Clone)]
pub struct TenantShard {
    /// The tenant every request in `trace` belongs to.
    pub tenant: TenantId,
    /// The tenant's requests in arrival order, original `at_s` preserved.
    pub trace: Vec<TimedRequest>,
    /// `global_ids[i]` is the whole-trace request id of `trace[i]` (lane
    /// servers assign ids by sub-trace ordinal; this maps them back).
    pub global_ids: Vec<u64>,
}

/// Partition an arrival-ordered trace by tenant. Shards come back in
/// ascending tenant id — the fixed lane (and merge) order — and each
/// shard's sub-trace preserves the original arrival order and timestamps.
pub fn shard_by_tenant(trace: &[TimedRequest]) -> Vec<TenantShard> {
    let mut shards: Vec<TenantShard> = Vec::new();
    for (gid, t) in trace.iter().enumerate() {
        let tenant = t.request.tenant;
        let shard = match shards.iter_mut().find(|s| s.tenant == tenant) {
            Some(s) => s,
            None => {
                shards.push(TenantShard {
                    tenant,
                    trace: Vec::new(),
                    global_ids: Vec::new(),
                });
                shards.last_mut().unwrap()
            }
        };
        shard.trace.push(t.clone());
        shard.global_ids.push(gid as u64);
    }
    shards.sort_by_key(|s| s.tenant);
    shards
}

/// One tenant lane's report. The report's internal request ids are
/// *lane-local* (sub-trace ordinals); the outcome's merged `responses`
/// carry the global ids.
#[derive(Debug, Clone)]
pub struct TenantLane<R> {
    /// The tenant this lane served.
    pub tenant: TenantId,
    /// Requests in the tenant's sub-trace.
    pub requests: usize,
    /// The lane server's full report.
    pub report: R,
}

// Hand-rolled: the derive shim does not handle generic types.
impl<R: Serialize> Serialize for TenantLane<R> {
    fn write_json(&self, w: &mut serde::JsonWriter) {
        w.begin_object();
        w.field("\"tenant\":");
        self.tenant.write_json(w);
        w.field("\"requests\":");
        self.requests.write_json(w);
        w.field("\"report\":");
        self.report.write_json(w);
        w.end_object();
    }
}

/// Cross-lane aggregate of a tenant-parallel run. Deliberately excludes
/// the worker-thread count: the summary describes the *result*, which is
/// identical for any thread count, not the execution.
#[derive(Debug, Clone, Serialize)]
pub struct ParallelSummary {
    /// Always `"tenant-parallel"`.
    pub mode: String,
    /// Tenant lanes (== distinct tenants in the trace).
    pub lanes: usize,
    /// Requests across all lanes.
    pub requests: usize,
    /// Requests completed within deadline (or with none set).
    pub completed: usize,
    /// Requests shed.
    pub shed: usize,
    /// Requests served past their deadline.
    pub deadline_missed: usize,
    /// Join matches returned across all lanes.
    pub result_tuples: usize,
    /// Probe keys dispatched across all lanes.
    pub keys_probed: usize,
    /// Slowest lane's virtual makespan — lanes run concurrently in
    /// virtual time (each tenant has a dedicated device), so the run ends
    /// when the slowest lane does.
    pub virtual_makespan_s: f64,
    /// Completed requests per virtual second of the aggregate makespan.
    pub completed_rps: f64,
    /// Latency distribution over all non-shed requests, all lanes.
    pub latency: LatencyStats,
    /// Fixed-bucket histogram over the same samples.
    pub latency_hist: LatencyHistogram,
}

impl ParallelSummary {
    fn new(
        lanes: usize,
        requests: usize,
        keys_probed: usize,
        makespan_s: f64,
        tally: RunTally,
    ) -> Self {
        ParallelSummary {
            mode: "tenant-parallel".to_string(),
            lanes,
            requests,
            completed: tally.completed,
            shed: tally.shed,
            deadline_missed: tally.deadline_missed,
            result_tuples: tally.result_tuples,
            keys_probed,
            virtual_makespan_s: makespan_s,
            completed_rps: tally.completed_rps,
            latency: tally.latency,
            latency_hist: tally.latency_hist,
        }
    }
}

/// Outcome of [`serve_tenant_parallel`].
#[derive(Debug, Clone, Serialize)]
pub struct ParallelServeOutcome {
    /// Every response, re-keyed to global request ids and merged by id.
    pub responses: Vec<LookupResponse>,
    /// Per-tenant lane reports, ascending tenant id.
    pub lanes: Vec<TenantLane<ServerReport>>,
    /// Cross-lane aggregate.
    pub summary: ParallelSummary,
}

/// Outcome of [`serve_tuned_tenant_parallel`].
#[derive(Debug, Clone, Serialize)]
pub struct ParallelTunedOutcome {
    /// Per-tenant lane reports, ascending tenant id.
    pub lanes: Vec<TenantLane<TunedReport>>,
    /// Cross-lane aggregate.
    pub summary: ParallelSummary,
}

/// Serve `trace` with one shared-window [`Server`] per tenant, each on its
/// own fresh `Gpu` lane, using up to `threads` workers. `chaos` (if any)
/// is installed on **every** lane, so each tenant's device replays the
/// same fault windows. Same inputs ⇒ byte-identical outcome for any
/// `threads`.
pub fn serve_tenant_parallel(
    spec: &GpuSpec,
    cfg: ServeConfig,
    r: &Relation,
    trace: &[TimedRequest],
    threads: usize,
    chaos: Option<&ChaosSchedule>,
) -> Result<ParallelServeOutcome, WindexError> {
    let shards = shard_by_tenant(trace);
    let outcomes = par_map(threads, shards.len(), |i| {
        let mut gpu = Gpu::new(spec.clone());
        if let Some(schedule) = chaos {
            gpu.set_chaos_schedule(schedule.clone())?;
        }
        let mut server = Server::new(&mut gpu, cfg, r.clone())?;
        server.run(&mut gpu, &shards[i].trace)
    })
    .into_iter()
    .collect::<Result<Vec<_>, WindexError>>()?;
    // Merge in tenant order: re-key every response to its global id and
    // tally the merged responses over the longest lane's makespan.
    let mut responses = Vec::with_capacity(trace.len());
    let mut lanes = Vec::with_capacity(shards.len());
    let mut keys_probed = 0usize;
    let mut makespan_s = 0.0f64;
    for (shard, outcome) in shards.iter().zip(outcomes) {
        responses.extend(outcome.responses.into_iter().map(|mut r| {
            r.request = shard.global_ids[r.request as usize];
            r
        }));
        keys_probed += outcome.report.keys_probed;
        makespan_s = makespan_s.max(outcome.report.virtual_makespan_s);
        lanes.push(TenantLane {
            tenant: shard.tenant,
            requests: shard.trace.len(),
            report: outcome.report,
        });
    }
    responses.sort_by_key(|r| r.request);
    let (tally, _) = RunTally::of_responses(&responses, makespan_s, &cfg.resilience.slo);
    let summary = ParallelSummary::new(lanes.len(), trace.len(), keys_probed, makespan_s, tally);
    Ok(ParallelServeOutcome {
        responses,
        lanes,
        summary,
    })
}

/// Serve `trace` with one single-tenant [`TunedServer`] per tenant, each
/// on its own fresh `Gpu` lane. `tenants` maps each tenant to its
/// relation (exactly as [`TunedServer::new`] takes them); a trace request
/// for an unmapped tenant fails the run. Per-tenant tuner seeds derive
/// from the tenant id, so a lane's tuner draws the same exploration
/// stream it would in the shared-device server.
pub fn serve_tuned_tenant_parallel(
    spec: &GpuSpec,
    cfg: TunedConfig,
    tenants: &[(TenantId, Relation)],
    trace: &[TimedRequest],
    threads: usize,
    chaos: Option<&ChaosSchedule>,
) -> Result<ParallelTunedOutcome, WindexError> {
    let shards = shard_by_tenant(trace);
    let reports = par_map(threads, shards.len(), |i| {
        let shard = &shards[i];
        let r = tenants
            .iter()
            .find(|(id, _)| *id == shard.tenant)
            .map(|(_, r)| r.clone())
            .ok_or(WindexError::InvalidConfig(
                "trace request for a tenant the server does not host",
            ))?;
        let mut server = TunedServer::new(spec.clone(), cfg, vec![(shard.tenant, r)], None)?;
        if let Some(schedule) = chaos {
            server.gpu_mut().set_chaos_schedule(schedule.clone())?;
        }
        server.run(&shard.trace)
    })
    .into_iter()
    .collect::<Result<Vec<_>, WindexError>>()?;
    let mut lanes = Vec::with_capacity(shards.len());
    let mut counts = (0usize, 0usize, 0usize);
    let mut matches = 0usize;
    let mut keys_probed = 0usize;
    let mut makespan_s = 0.0f64;
    let mut samples = Vec::new();
    for (shard, report) in shards.iter().zip(reports) {
        counts.0 += report.completed;
        counts.2 += report.deadline_missed;
        matches += report.result_tuples;
        keys_probed += report.keys_probed;
        makespan_s = makespan_s.max(report.virtual_makespan_s);
        // The tuned server queues instead of shedding, so every span tree
        // carries a served latency.
        samples.extend(report.traces.iter().map(|t| t.completed_s - t.submitted_s));
        lanes.push(TenantLane {
            tenant: shard.tenant,
            requests: shard.trace.len(),
            report,
        });
    }
    let tally = RunTally::new(counts, matches, samples, makespan_s);
    let summary = ParallelSummary::new(lanes.len(), trace.len(), keys_probed, makespan_s, tally);
    Ok(ParallelTunedOutcome { lanes, summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{generate_trace, TraceConfig};
    use windex_sim::Scale;
    use windex_workload::KeyDistribution;

    fn spec() -> GpuSpec {
        GpuSpec::v100_nvlink2(Scale::PAPER)
    }

    fn relation() -> Relation {
        Relation::unique_sorted(1 << 14, KeyDistribution::SparseUniform, 7)
    }

    fn trace(r: &Relation) -> Vec<TimedRequest> {
        generate_trace(
            &TraceConfig {
                requests: 48,
                tenants: 3,
                min_keys: 32,
                max_keys: 128,
                offered_load_rps: 2000.0,
                ..TraceConfig::default()
            },
            r,
        )
    }

    #[test]
    fn shards_partition_the_trace_in_order() {
        let r = relation();
        let t = trace(&r);
        let shards = shard_by_tenant(&t);
        assert_eq!(shards.iter().map(|s| s.trace.len()).sum::<usize>(), t.len());
        assert!(shards.windows(2).all(|w| w[0].tenant < w[1].tenant));
        for s in &shards {
            assert!(s.trace.iter().all(|q| q.request.tenant == s.tenant));
            assert!(s.trace.windows(2).all(|w| w[0].at_s <= w[1].at_s));
            assert!(s.global_ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn responses_cover_every_global_id() {
        let r = relation();
        let t = trace(&r);
        let out = serve_tenant_parallel(&spec(), ServeConfig::default(), &r, &t, 2, None).unwrap();
        assert_eq!(out.responses.len(), t.len());
        for (i, resp) in out.responses.iter().enumerate() {
            assert_eq!(resp.request, i as u64);
            assert_eq!(resp.tenant, t[i].request.tenant);
        }
        assert_eq!(out.summary.requests, t.len());
        assert_eq!(
            out.summary.completed + out.summary.shed + out.summary.deadline_missed,
            t.len()
        );
    }
}
