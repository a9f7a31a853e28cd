//! The `requests` target: per-request span-tree KPIs across every serving
//! layer, with a CI tolerance gate.
//!
//! Every server in the workspace now threads a [`RequestContext`](windex_serve::RequestContext) through
//! the request lifecycle — admission, scheduler queue, micro-batch
//! membership, dispatch (with retries, breaker rejects, and degradation
//! rebuilds), cluster fan-out legs, and the straggler-merge wait — and
//! emits one [`RequestTrace`] per request whose stage spans partition the
//! admission→completion interval *exactly*. This target replays fixed
//! traces against the single-GPU server, the auto-tuned server, 8-GPU
//! sharded clusters on both priced fabrics, and a 4-GPU cluster that loses
//! a device mid-trace, then distills the span trees into per-stage p99s
//! and reconciliation flags.
//!
//! Everything is a pure function of the fixed seeds: points are
//! independent simulations merged in fixed order, so the report and
//! `BENCH_requests.json` are byte-identical across runs and for any
//! `--jobs` count.
//!
//! The headline invariants, checked on every run:
//!
//! - every request in every point carries a span tree, and each tree's
//!   stage sum reconciles **bitwise** with its end-to-end latency
//!   ([`RequestTrace::validate`]);
//! - single-GPU paths never record a merge stage;
//! - at the widest fan-out the host-staged fabric's p99 pays a larger
//!   straggler-merge wait than the NVLink-peer fabric, and on the
//!   host-staged cluster the merge stage dominates the non-queue tail.
//!
//! The fresh KPIs are gated against the committed `BENCH_requests.json`:
//! discrete outcomes (completed, shed, span-tree counts, reconciliation
//! flags) must match exactly; continuous ones (p99s per stage, merge
//! share) get a 2% relative band for benign cost-model churn.

use super::cell::RInput;
use crate::config::ExpConfig;
use crate::gate::{self, GateSpec, Tol};
use crate::output::{num6, r6, Experiment};
use serde::Serialize;
use serde_json::{json, Value};
use windex_core::par_map;
use windex_serve::prelude::*;
use windex_sim::ChaosScenario;

/// Format-version marker for `BENCH_requests.json`.
const SCHEMA_VERSION: u32 = 1;

/// Requests in the fan-out trace shared by the single-GPU, tuned, and
/// 8-GPU points.
const SCALE_REQUESTS: usize = 256;

/// Offered load of the fan-out trace, requests per virtual second. At
/// 2 000 req/s of 256-2 048-key requests a single V100 saturates and
/// sheds (exercising shed-request span trees) while the 8-GPU clusters
/// drain with zero queue wait, leaving the straggler-merge stage as the
/// dominant tail component — the contrast under test.
const SCALE_LOAD_RPS: f64 = 2_000.0;

/// Seed of the fan-out trace.
const SCALE_SEED: u64 = 11;

/// Requests in the chaos trace. At 8 000 req/s it spans ~64 ms of virtual
/// time, comfortably covering the DeviceLoss window [20 ms, 35 ms).
const CHAOS_REQUESTS: usize = 512;

/// Offered load of the chaos trace.
const CHAOS_LOAD_RPS: f64 = 8_000.0;

/// Seed of the chaos trace.
const CHAOS_TRACE_SEED: u64 = 29;

/// Seed of the chaos schedule family (same family as the cluster target).
const CHAOS_SEED: u64 = 40;

/// The GPU lost mid-trace in the chaos point.
const LOST_GPU: usize = 1;

/// GPUs in the chaos cluster.
const CHAOS_GPUS: usize = 4;

/// GPUs in the wide fan-out points.
const WIDE_GPUS: usize = 8;

/// The committed golden: every KPI exact except the continuous ones.
const GATE: GateSpec = GateSpec {
    file: "BENCH_requests.json",
    schema: SCHEMA_VERSION,
    default: Tol::Exact,
    fields: &[
        ("p99_s", Tol::Rel(0.02)),
        ("queue_p99_s", Tol::Rel(0.02)),
        ("batch_p99_s", Tol::Rel(0.02)),
        ("service_p99_s", Tol::Rel(0.02)),
        ("merge_p99_s", Tol::Rel(0.02)),
        ("other_p99_s", Tol::Rel(0.02)),
        ("merge_share", Tol::Rel(0.02)),
    ],
};

/// One serving layer's span-tree KPIs on its fixed trace.
#[derive(Debug, Clone, Serialize)]
struct RequestPoint {
    /// Which serving layer produced the point.
    label: &'static str,
    gpus: usize,
    /// Priced inter-GPU fabric (`"-"` on single-GPU layers).
    link: &'static str,
    requests: usize,
    completed: usize,
    shed: usize,
    /// Span trees emitted — must equal `requests` (every request is
    /// traced, shed ones included).
    span_trees: usize,
    /// Whether every span tree passed [`RequestTrace::validate`]: stage
    /// spans tile admission→completion and their sum reconciles bitwise
    /// with the end-to-end latency.
    stage_sum_exact: bool,
    /// End-to-end p99 over served requests, virtual seconds.
    p99_s: f64,
    /// Per-stage p99s over *all* span trees, virtual seconds.
    queue_p99_s: f64,
    batch_p99_s: f64,
    service_p99_s: f64,
    merge_p99_s: f64,
    other_p99_s: f64,
    /// `merge_p99_s / p99_s` (0 when the tail is empty): how much of the
    /// tail is cross-shard straggler wait.
    merge_share: f64,
}

/// The `BENCH_requests.json` payload.
#[derive(Debug, Clone, Serialize)]
struct RequestsBench {
    schema: u32,
    scale_requests: usize,
    chaos_requests: usize,
    chaos_seed: u64,
    points: Vec<RequestPoint>,
}

/// The served relation: 1 paper-GiB of dense sorted keys at paper scale
/// (fixed, like the cluster target, so the JSON is mode-independent).
fn requests_relation() -> Relation {
    RInput::paper(Scale::PAPER, 1.0).generate()
}

fn trace(r: &Relation, requests: usize, load_rps: f64, seed: u64) -> Vec<TimedRequest> {
    // Wide requests (up to 512 keys) so cluster points fan out across
    // shards and the merge stage has stragglers to wait on.
    generate_trace(
        &TraceConfig {
            seed,
            tenants: 4,
            requests,
            min_keys: 256,
            max_keys: 2_048,
            offered_load_rps: load_rps,
            deadline_s: None,
        },
        r,
    )
}

/// Distill one layer's span trees into a [`RequestPoint`].
#[allow(clippy::too_many_arguments)]
fn point(
    label: &'static str,
    gpus: usize,
    link: &'static str,
    requests: usize,
    completed: usize,
    shed: usize,
    latency: &LatencyStats,
    stages: &StageLatencyStats,
    traces: &[RequestTrace],
) -> RequestPoint {
    let stage_sum_exact = traces.len() == requests && traces.iter().all(|t| t.validate().is_ok());
    let p99 = latency.p99_s;
    RequestPoint {
        label,
        gpus,
        link,
        requests,
        completed,
        shed,
        span_trees: traces.len(),
        stage_sum_exact,
        p99_s: r6(p99),
        queue_p99_s: r6(stages.queue.p99_s),
        batch_p99_s: r6(stages.batch.p99_s),
        service_p99_s: r6(stages.service.p99_s),
        merge_p99_s: r6(stages.merge.p99_s),
        other_p99_s: r6(stages.other.p99_s),
        merge_share: if p99 > 0.0 {
            r6(stages.merge.p99_s / p99)
        } else {
            0.0
        },
    }
}

/// The single-GPU server point: queue/batch/service stages, no legs.
fn run_server_point(r: &Relation, tr: &[TimedRequest]) -> RequestPoint {
    let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
    let mut server = Server::new(&mut gpu, ServeConfig::default(), r.clone())
        .expect("requests server must construct");
    let rep = server
        .run(&mut gpu, tr)
        .expect("requests serve trace must complete")
        .report;
    point(
        "server",
        1,
        "-",
        rep.requests,
        rep.completed,
        rep.shed,
        &rep.latency,
        &rep.stages,
        &rep.traces,
    )
}

/// The auto-tuned server point: every tenant serves the same relation, so
/// the fan-out trace's keys resolve on each tenant's own copy.
fn run_tuned_point(r: &Relation, tr: &[TimedRequest]) -> RequestPoint {
    let tenants: Vec<(TenantId, Relation)> = (0..4).map(|id| (id as TenantId, r.clone())).collect();
    let mut srv = TunedServer::new(
        GpuSpec::v100_nvlink2(Scale::PAPER),
        TunedConfig::default(),
        tenants,
        None,
    )
    .expect("requests tuned server must construct");
    let rep = srv.run(tr).expect("requests tuned trace must complete");
    point(
        "tuned",
        1,
        "-",
        rep.requests,
        rep.completed,
        0,
        &rep.latency,
        &rep.stages,
        &rep.traces,
    )
}

/// One wide-fan-out cluster point under a priced link, calm devices.
fn run_cluster_point(
    r: &Relation,
    tr: &[TimedRequest],
    link: &'static str,
    spec: InterconnectSpec,
) -> RequestPoint {
    let cfg = ClusterConfig {
        serve: ServeConfig::default(),
        cluster: ClusterSpec::sharded(WIDE_GPUS, GpuSpec::v100_nvlink2(Scale::PAPER), spec),
    };
    let mut cluster = ClusterServer::new(cfg, r.clone()).expect("requests cluster must construct");
    let rep = cluster
        .run(tr)
        .expect("requests cluster trace must complete")
        .report;
    point(
        "cluster",
        WIDE_GPUS,
        link,
        rep.requests,
        rep.completed,
        rep.shed,
        &rep.latency,
        &rep.stages,
        &rep.traces,
    )
}

/// The chaos point: a sharded 4-GPU cluster loses a device mid-trace;
/// the re-shard's rebuild and redrives land inside the affected requests'
/// service/merge stages, and every request still reconciles exactly.
fn run_chaos_point(r: &Relation, tr: &[TimedRequest]) -> RequestPoint {
    let cfg = ClusterConfig {
        serve: ServeConfig::default(),
        cluster: ClusterSpec::sharded(
            CHAOS_GPUS,
            GpuSpec::v100_nvlink2(Scale::PAPER),
            InterconnectSpec::nvlink4_peer(),
        ),
    };
    let mut cluster = ClusterServer::new(cfg, r.clone()).expect("chaos cluster must construct");
    cluster
        .set_chaos_schedules(
            ChaosScenario::DeviceLoss.cluster_schedules(CHAOS_SEED, CHAOS_GPUS, LOST_GPU),
        )
        .expect("cluster chaos schedules are valid");
    let rep = cluster.run(tr).expect("chaos trace must complete").report;
    point(
        "chaos",
        CHAOS_GPUS,
        "nvlink4_peer",
        rep.requests,
        rep.completed,
        rep.shed,
        &rep.latency,
        &rep.stages,
        &rep.traces,
    )
}

/// Compute all points with `jobs` workers, merged in fixed order. Workers
/// only decide *when* a point runs, never *what* it computes, so any job
/// count merges identically.
fn compute(jobs: usize) -> RequestsBench {
    let r = requests_relation();
    let scale_trace = trace(&r, SCALE_REQUESTS, SCALE_LOAD_RPS, SCALE_SEED);
    let chaos_trace = trace(&r, CHAOS_REQUESTS, CHAOS_LOAD_RPS, CHAOS_TRACE_SEED);
    let points = par_map(jobs, 5, |i| match i {
        0 => run_server_point(&r, &scale_trace),
        1 => run_tuned_point(&r, &scale_trace),
        2 => run_cluster_point(
            &r,
            &scale_trace,
            "nvlink4_peer",
            InterconnectSpec::nvlink4_peer(),
        ),
        3 => run_cluster_point(
            &r,
            &scale_trace,
            "pcie4_host_staged",
            InterconnectSpec::pcie4_host_staged(),
        ),
        _ => run_chaos_point(&r, &chaos_trace),
    });
    RequestsBench {
        schema: SCHEMA_VERSION,
        scale_requests: SCALE_REQUESTS,
        chaos_requests: CHAOS_REQUESTS,
        chaos_seed: CHAOS_SEED,
        points,
    }
}

/// Invariants that hold regardless of any committed reference.
fn check_invariants(bench: &RequestsBench) -> Result<(), String> {
    let expected = ["server", "tuned", "cluster", "cluster", "chaos"];
    if bench.points.len() != expected.len() {
        return Err(format!(
            "expected {} request points, found {}",
            expected.len(),
            bench.points.len()
        ));
    }
    for (p, want) in bench.points.iter().zip(expected) {
        if p.label != want {
            return Err(format!(
                "point order mismatch: '{}' where '{want}' expected",
                p.label
            ));
        }
        // The tentpole contract: every request carries a span tree and
        // every tree's stage sum reconciles bitwise with its latency.
        if p.span_trees != p.requests {
            return Err(format!(
                "[{} {}] every request must carry a span tree: {} trees for {} requests",
                p.label, p.link, p.span_trees, p.requests
            ));
        }
        if !p.stage_sum_exact {
            return Err(format!(
                "[{} {}] stage spans must reconcile exactly with end-to-end latency",
                p.label, p.link
            ));
        }
        if p.completed + p.shed != p.requests {
            return Err(format!(
                "[{} {}] {} completed + {} shed != {} requests",
                p.label, p.link, p.completed, p.shed, p.requests
            ));
        }
        if !p.p99_s.is_finite() || p.p99_s <= 0.0 {
            return Err(format!(
                "[{} {}] p99 must be finite positive, got {}",
                p.label, p.link, p.p99_s
            ));
        }
        // Single-GPU paths have no shards to straggle on.
        if p.gpus == 1 && p.merge_p99_s != 0.0 {
            return Err(format!(
                "[{}] single-GPU path must not record a merge stage: {}",
                p.label, p.merge_p99_s
            ));
        }
        if p.gpus > 1 && p.merge_p99_s <= 0.0 {
            return Err(format!(
                "[{} {}] cluster path must record straggler-merge wait",
                p.label, p.link
            ));
        }
    }
    // The fabric contrast: the host-staged bounce pays a larger straggler
    // wait than the peer fabric at the same fan-out, and on the
    // host-staged cluster the merge stage dominates the non-queue tail.
    let nv8 = &bench.points[2];
    let pcie8 = &bench.points[3];
    if pcie8.merge_p99_s <= nv8.merge_p99_s {
        return Err(format!(
            "host-staged merge p99 must exceed NVLink peer at {WIDE_GPUS} GPUs: \
             staged {} vs nvlink {}",
            pcie8.merge_p99_s, nv8.merge_p99_s
        ));
    }
    for (stage, v) in [
        ("queue", pcie8.queue_p99_s),
        ("batch", pcie8.batch_p99_s),
        ("service", pcie8.service_p99_s),
        ("other", pcie8.other_p99_s),
    ] {
        if pcie8.merge_p99_s <= v {
            return Err(format!(
                "host-staged x{WIDE_GPUS} tail must be merge-dominated: \
                 merge p99 {} <= {stage} p99 {v}",
                pcie8.merge_p99_s
            ));
        }
    }
    Ok(())
}

/// The `requests` target. `Err` (→ nonzero exit) on invariant or gate
/// violations.
pub fn requests(cfg: &ExpConfig) -> Result<Experiment, String> {
    let bench = compute(cfg.jobs);
    check_invariants(&bench)?;
    let gate_note = gate::check_or_record(&GATE, &bench, cfg.record)?;

    let rows: Vec<Vec<Value>> = bench
        .points
        .iter()
        .map(|p| {
            vec![
                json!(format!("{} x{}", p.label, p.gpus)),
                json!(p.link),
                json!(p.requests),
                json!(p.completed),
                json!(p.shed),
                json!(p.stage_sum_exact),
                num6(p.p99_s * 1e3),
                num6(p.queue_p99_s * 1e3),
                num6(p.service_p99_s * 1e3),
                num6(p.merge_p99_s * 1e3),
                num6(p.merge_share),
            ]
        })
        .collect();
    Ok(Experiment {
        id: "requests".into(),
        title: "Request tracing: span-tree stage decomposition across every serving layer".into(),
        columns: vec![
            "layer".into(),
            "link".into(),
            "requests".into(),
            "completed".into(),
            "shed".into(),
            "stage_sum_exact".into(),
            "p99_ms".into(),
            "queue_p99_ms".into(),
            "service_p99_ms".into(),
            "merge_p99_ms".into(),
            "merge_share".into(),
        ],
        rows,
        notes: vec![
            format!(
                "{SCALE_REQUESTS}-request fan-out trace ({SCALE_LOAD_RPS:.0} req/s offered) \
                 against the single-GPU server, the auto-tuned server, and sharded x{WIDE_GPUS} \
                 clusters on both priced fabrics; every request's stage spans sum bitwise to its \
                 end-to-end latency"
            ),
            format!(
                "chaos row loses GPU {LOST_GPU} of {CHAOS_GPUS} mid-trace (chaos seed \
                 {CHAOS_SEED}): recovery rebuilds land inside the affected spans and every \
                 tree still reconciles"
            ),
            gate_note,
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> RequestsBench {
        compute(1)
    }

    #[test]
    fn points_hold_span_tree_invariants() {
        let b = bench();
        check_invariants(&b).expect("invariants hold");
        // The merge stage is the cluster's signature: absent on one GPU,
        // present and fabric-sensitive at wide fan-out.
        assert_eq!(b.points[0].merge_p99_s, 0.0);
        assert_eq!(b.points[1].merge_p99_s, 0.0);
        assert!(b.points[3].merge_p99_s > b.points[2].merge_p99_s);
        // The overloaded single GPU sheds; shed requests still carry
        // reconciling span trees (stage_sum_exact above covers them).
        assert!(b.points[0].shed > 0);
    }

    #[test]
    fn jobs_counts_merge_byte_identically() {
        let a = serde_json::to_string(&compute(1)).unwrap();
        let b = serde_json::to_string(&compute(4)).unwrap();
        assert_eq!(a, b, "--jobs must not change BENCH_requests.json");
    }

    #[test]
    fn gate_flags_drift_and_accepts_self() {
        let b = bench();
        let mut drifted = b.clone();
        drifted.points[0].completed += 1;
        gate::assert_flags_drift(&GATE, &b, &drifted, "points[0].completed");
        let mut drifted = b.clone();
        drifted.points[3].merge_p99_s *= 1.5;
        gate::assert_flags_drift(&GATE, &b, &drifted, "points[3].merge_p99_s");
    }
}
