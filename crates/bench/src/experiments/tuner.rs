//! The `tuner` target: online auto-tuning vs every static plan on a
//! mixed-regime tenant trace, with a CI tolerance gate.
//!
//! The paper's central finding is that the best join plan is
//! *regime-dependent*: a hash join wins while R fits GPU memory, the
//! windowed INLJ wins once it does not (§5, Fig. 7). A server hosting
//! both regimes at once — here two 1 GiB tenants and two 64 GiB tenants —
//! therefore cannot be well served by any single static plan. This target
//! replays one seeded mixed trace under the online tuner and under each
//! static candidate plan, and requires the tuned run to beat **every**
//! static run on aggregate Q/s (completed requests per busy virtual
//! second).
//!
//! Everything is a pure function of the seeds: relations, traces, tuner
//! exploration draws, and the virtual clock are all counter-indexed, and
//! policy points are independent simulations merged in fixed order — so
//! the report and `BENCH_tuner.json` are byte-identical across runs and
//! for any `--jobs` count.
//!
//! The fresh KPIs are gated against the committed `BENCH_tuner.json`:
//! discrete outcomes (completed, batches, switches, explorations, final
//! plans) must match exactly; continuous ones (busy time, aggregate Q/s,
//! keys/s, p99, cost-model error, tuned speedup) get a 2% relative band
//! for benign cost-model churn.

use crate::config::ExpConfig;
use crate::gate::{self, GateSpec, Tol};
use crate::output::{num, num6, r6, Experiment};
use serde::Serialize;
use serde_json::json;
use windex_core::{default_candidates, par_map, CandidatePlan, TunerConfig};
use windex_serve::prelude::*;

/// Format-version marker for `BENCH_tuner.json`.
const SCHEMA_VERSION: u32 = 1;

/// Seed of the tuner's exploration stream (per-tenant seeds derive from
/// it inside [`TunedServer`]).
const TUNER_SEED: u64 = 7;

/// Seed of the per-tenant request traces.
const TRACE_SEED: u64 = 7;

/// Requests per tenant. Fixed (not `--quick`-dependent): 40 requests of
/// 2–6 Ki keys give each tenant ~5 full 32 Ki-key batches — enough for
/// the tuner to observe, switch once, and settle.
const TENANT_REQUESTS: usize = 40;

/// The committed golden: every KPI exact except the continuous ones.
const GATE: GateSpec = GateSpec {
    file: "BENCH_tuner.json",
    schema: SCHEMA_VERSION,
    default: Tol::Exact,
    fields: &[
        ("busy_s", Tol::Rel(0.02)),
        ("aggregate_qps", Tol::Rel(0.02)),
        ("keys_per_second", Tol::Rel(0.02)),
        ("p99_s", Tol::Rel(0.02)),
        ("est_cost_error", Tol::Rel(0.02)),
        ("tuned_speedup_vs_best_static", Tol::Rel(0.02)),
    ],
};

/// Paper-scale relation sizes per tenant id: two in-core tenants, two
/// out-of-core (the V100 holds ~26 paper-GiB of R after overheads).
const TENANT_GIB: [f64; 4] = [1.0, 64.0, 1.0, 64.0];

/// One policy's serving KPIs on the mixed trace.
#[derive(Debug, Clone, Serialize)]
struct TunerPoint {
    /// `"tuned"` or the pinned static plan's label.
    policy: String,
    completed: usize,
    batches: usize,
    /// Argmin strategy switches across all tenants.
    switches: u64,
    /// Exploration batches across all tenants.
    explorations: u64,
    /// Virtual time the device spent executing dispatches, seconds.
    busy_s: f64,
    /// Completed requests per busy virtual second — the gated metric.
    aggregate_qps: f64,
    /// Probe keys per busy virtual second.
    keys_per_second: f64,
    /// p99 latency over completed requests, virtual seconds.
    p99_s: f64,
    /// Mean relative |estimated − realized| per-key cost error.
    est_cost_error: f64,
    /// Plan each tenant ended on, ascending tenant id.
    final_plans: Vec<String>,
}

/// The `BENCH_tuner.json` payload.
#[derive(Debug, Clone, Serialize)]
struct TunerBench {
    schema: u32,
    tuner_seed: u64,
    trace_seed: u64,
    tenant_requests: usize,
    tenant_gib: Vec<f64>,
    /// `tuned aggregate_qps / best static aggregate_qps` (> 1 by gate).
    tuned_speedup_vs_best_static: f64,
    policies: Vec<TunerPoint>,
}

/// The tenants: dense sorted R at paper scale, sizes from [`TENANT_GIB`].
fn tuner_tenants() -> Vec<(TenantId, Relation)> {
    TENANT_GIB
        .iter()
        .enumerate()
        .map(|(id, &gib)| {
            let n = Scale::PAPER.sim_tuples_for_paper_gib(gib);
            (
                id as TenantId,
                Relation::unique_sorted(n, KeyDistribution::Dense, 42 + id as u64),
            )
        })
        .collect()
}

/// The mixed trace every policy replays: one seeded per-tenant stream
/// each (keys drawn from that tenant's own relation), merged in arrival
/// order. ~160 req/s per tenant at 2–6 Ki keys keeps every tenant's queue
/// saturated, so batches fill to `batch_keys` and the regime contrast is
/// maximal.
fn tuner_trace(tenants: &[(TenantId, Relation)]) -> Vec<TimedRequest> {
    let cfg = TraceConfig {
        seed: TRACE_SEED,
        tenants: 1,
        requests: TENANT_REQUESTS,
        min_keys: 2_048,
        max_keys: 6_144,
        offered_load_rps: 160.0,
        deadline_s: None,
    };
    merge_traces(
        tenants
            .iter()
            .map(|(id, r)| generate_tenant_trace(&cfg, *id, r))
            .collect(),
    )
}

/// Replay the trace under one policy: the full candidate set with the
/// default tuner discipline (`pin` = `None`), or one pinned static plan
/// (a single-candidate tuner with exploration off never moves).
fn run_policy(
    tenants: &[(TenantId, Relation)],
    trace: &[TimedRequest],
    pin: Option<CandidatePlan>,
) -> TunerPoint {
    let (label, candidates, tuner) = match pin {
        None => (
            "tuned".to_string(),
            None,
            TunerConfig {
                seed: TUNER_SEED,
                ..TunerConfig::default()
            },
        ),
        Some(plan) => (
            plan.label(),
            Some(vec![plan]),
            TunerConfig {
                seed: TUNER_SEED,
                epsilon: 0.0,
                ..TunerConfig::default()
            },
        ),
    };
    let cfg = TunedConfig {
        tuner,
        ..TunedConfig::default()
    };
    let mut srv = TunedServer::new(
        GpuSpec::v100_nvlink2(Scale::PAPER),
        cfg,
        tenants.to_vec(),
        candidates,
    )
    .expect("tuner experiment server must construct");
    let rep = srv.run(trace).expect("tuner trace must complete");
    TunerPoint {
        policy: label,
        completed: rep.completed,
        batches: rep.batches,
        switches: rep.switches,
        explorations: rep.explorations,
        busy_s: r6(rep.busy_s),
        aggregate_qps: r6(rep.aggregate_qps),
        keys_per_second: r6(rep.keys_per_second),
        p99_s: r6(rep.latency.p99_s),
        est_cost_error: r6(rep.est_cost_error),
        final_plans: rep
            .per_tenant
            .iter()
            .map(|t| t.final_plan.clone())
            .collect(),
    }
}

/// Compute all policy points with `jobs` workers, merged in fixed order
/// (tuned first, then [`default_candidates`] order). Workers only decide
/// *when* a policy runs, never *what* it computes, so any job count
/// merges identically.
fn compute(jobs: usize) -> TunerBench {
    let tenants = tuner_tenants();
    let trace = tuner_trace(&tenants);
    let mut policies: Vec<Option<CandidatePlan>> = vec![None];
    policies.extend(default_candidates().into_iter().map(Some));

    let points = par_map(jobs, policies.len(), |i| {
        run_policy(&tenants, &trace, policies[i])
    });
    let best_static = points[1..]
        .iter()
        .map(|p| p.aggregate_qps)
        .fold(0.0f64, f64::max);
    TunerBench {
        schema: SCHEMA_VERSION,
        tuner_seed: TUNER_SEED,
        trace_seed: TRACE_SEED,
        tenant_requests: TENANT_REQUESTS,
        tenant_gib: TENANT_GIB.to_vec(),
        tuned_speedup_vs_best_static: if best_static > 0.0 {
            r6(points[0].aggregate_qps / best_static)
        } else {
            0.0
        },
        policies: points,
    }
}

/// Invariants that hold regardless of any committed reference: every
/// policy serves the whole trace, and the tuned run strictly beats every
/// static plan on aggregate Q/s.
fn check_invariants(bench: &TunerBench) -> Result<(), String> {
    let requests = TENANT_REQUESTS * TENANT_GIB.len();
    let tuned = &bench.policies[0];
    if tuned.policy != "tuned" {
        return Err("first policy row must be the tuned run".into());
    }
    for p in &bench.policies {
        if p.completed != requests {
            return Err(format!(
                "policy '{}' completed {}/{requests} requests",
                p.policy, p.completed
            ));
        }
        if !p.aggregate_qps.is_finite()
            || !p.busy_s.is_finite()
            || !p.p99_s.is_finite()
            || !p.est_cost_error.is_finite()
        {
            return Err(format!("policy '{}' produced non-finite KPIs", p.policy));
        }
    }
    for p in &bench.policies[1..] {
        if tuned.aggregate_qps <= p.aggregate_qps {
            return Err(format!(
                "tuned aggregate Q/s {} must strictly beat static '{}' at {}",
                tuned.aggregate_qps, p.policy, p.aggregate_qps
            ));
        }
    }
    Ok(())
}

/// The `tuner` target. `Err` (→ nonzero exit) on invariant or gate
/// violations.
pub fn tuner(cfg: &ExpConfig) -> Result<Experiment, String> {
    let bench = compute(cfg.jobs);
    check_invariants(&bench)?;
    let gate_note = gate::check_or_record(&GATE, &bench, cfg.record)?;

    let rows = bench
        .policies
        .iter()
        .map(|p| {
            vec![
                json!(p.policy.clone()),
                json!(p.completed),
                json!(p.batches),
                json!(p.switches),
                json!(p.explorations),
                num6(p.busy_s),
                num(p.aggregate_qps),
                num(p.keys_per_second),
                num6(p.p99_s * 1e3),
                num6(p.est_cost_error),
            ]
        })
        .collect();
    Ok(Experiment {
        id: "tuner".into(),
        title: "Tuner: online plan selection vs every static plan, mixed 1/64 GiB tenants".into(),
        columns: vec![
            "policy".into(),
            "completed".into(),
            "batches".into(),
            "switches".into(),
            "explorations".into(),
            "busy_s".into(),
            "aggregate_qps".into(),
            "keys_per_s".into(),
            "p99_ms".into(),
            "cost_err".into(),
        ],
        rows,
        notes: vec![
            format!(
                "{TENANT_REQUESTS} requests × {} tenants (R = {:?} paper-GiB), one seeded \
                 trace replayed per policy; virtual-clock KPIs, byte-identical across runs \
                 and --jobs counts",
                TENANT_GIB.len(),
                TENANT_GIB
            ),
            format!(
                "tuned beats the best static plan {:.3}× on aggregate Q/s: no single plan \
                 serves both regimes (hash join in-core, windowed INLJ out-of-core)",
                bench.tuned_speedup_vs_best_static
            ),
            gate_note,
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> TunerBench {
        compute(1)
    }

    #[test]
    fn policies_sweep_in_fixed_order_and_hold_invariants() {
        let b = bench();
        assert_eq!(b.policies.len(), default_candidates().len() + 1);
        assert_eq!(b.policies[0].policy, "tuned");
        let labels: Vec<String> = b.policies[1..].iter().map(|p| p.policy.clone()).collect();
        let expected: Vec<String> = default_candidates().iter().map(|c| c.label()).collect();
        assert_eq!(labels, expected);
        check_invariants(&b).expect("invariants hold");
        assert!(
            b.tuned_speedup_vs_best_static > 1.0,
            "tuned speedup {}",
            b.tuned_speedup_vs_best_static
        );
    }

    #[test]
    fn tuned_run_splits_plans_by_regime() {
        let b = bench();
        let tuned = &b.policies[0];
        // In-core tenants (ids 0, 2) end on the hash join; out-of-core
        // tenants (ids 1, 3) end on a windowed INLJ.
        assert!(
            tuned.final_plans[0].contains("hash"),
            "{:?}",
            tuned.final_plans
        );
        assert!(
            tuned.final_plans[2].contains("hash"),
            "{:?}",
            tuned.final_plans
        );
        assert!(
            tuned.final_plans[1].contains("windowed"),
            "{:?}",
            tuned.final_plans
        );
        assert!(
            tuned.final_plans[3].contains("windowed"),
            "{:?}",
            tuned.final_plans
        );
        // Static rows never switch or explore.
        for p in &b.policies[1..] {
            assert_eq!((p.switches, p.explorations), (0, 0), "{}", p.policy);
        }
    }

    #[test]
    fn jobs_counts_merge_byte_identically() {
        let a = serde_json::to_string(&compute(1)).unwrap();
        let b = serde_json::to_string(&compute(4)).unwrap();
        assert_eq!(a, b, "--jobs must not change BENCH_tuner.json");
    }

    #[test]
    fn gate_flags_drift_and_accepts_self() {
        let b = bench();
        let mut drifted = b.clone();
        drifted.policies[0].switches += 1;
        gate::assert_flags_drift(&GATE, &b, &drifted, "policies[0].switches");
        let mut drifted = b.clone();
        drifted.tuned_speedup_vs_best_static *= 0.9;
        gate::assert_flags_drift(&GATE, &b, &drifted, "tuned_speedup_vs_best_static");
    }
}
