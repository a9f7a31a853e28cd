//! The `chaos` target: resilience KPIs under time-correlated fault
//! windows, with a CI tolerance gate.
//!
//! Every other serving number assumes a healthy device. This target runs
//! the same seeded serving trace under each named [`ChaosScenario`] —
//! calm, a link flap, an interconnect brownout, an ECC storm, a whole
//! device loss, and all of them overlapping — and reports what the
//! resilience layer preserved: availability (answered / submitted),
//! recoveries and total MTTR on the virtual clock, retry volume, breaker
//! trips, goodput, p99, and goodput retained vs the calm run.
//!
//! Everything is a pure function of (seed, scenario): the chaos windows
//! sit on the serving clock, the backoff jitter is counter-indexed, and
//! scenario points are independent simulations merged in fixed sweep
//! order — so the report and `BENCH_chaos.json` are byte-identical across
//! runs and for any `--jobs` count.
//!
//! The fresh KPIs are gated against the committed `BENCH_chaos.json`:
//! discrete outcomes (completed, shed, recoveries, retries, breaker trips,
//! availability) must match exactly; continuous ones (goodput, p99, MTTR,
//! retained share) get a 2% relative band for benign cost-model churn.
//! Independently of the committed file, the device-loss scenario must
//! answer every request (availability 1.0) with at least one finite
//! recovery, or the target fails.

use super::cell::RInput;
use crate::config::ExpConfig;
use crate::gate::{self, GateSpec, Tol};
use crate::output::{num, num6, r6, Experiment};
use serde::Serialize;
use serde_json::json;
use windex_core::par_map;
use windex_serve::prelude::*;
use windex_sim::ChaosScenario;

/// Format-version marker for `BENCH_chaos.json`.
const SCHEMA_VERSION: u32 = 1;

/// Seed for every scenario's chaos schedule.
const CHAOS_SEED: u64 = 99;

/// Requests per scenario trace. Fixed (not `--quick`-dependent): at
/// 2000 req/s the trace spans ~128 ms of virtual time, comfortably
/// covering every scenario's fault windows (all inside the first 60 ms).
const TRACE_REQUESTS: usize = 256;

/// The committed golden: every KPI exact except the continuous ones.
const GATE: GateSpec = GateSpec {
    file: "BENCH_chaos.json",
    schema: SCHEMA_VERSION,
    default: Tol::Exact,
    fields: &[
        ("mttr_total_s", Tol::Rel(0.02)),
        ("goodput_rps", Tol::Rel(0.02)),
        ("p99_s", Tol::Rel(0.02)),
        ("goodput_retained", Tol::Rel(0.02)),
    ],
};

/// One scenario's resilience KPIs.
#[derive(Debug, Clone, Serialize)]
struct ChaosPoint {
    scenario: &'static str,
    /// Fraction of submitted requests answered (not shed).
    availability: f64,
    completed: usize,
    shed: usize,
    /// Device-loss recoveries performed mid-trace.
    recoveries: u64,
    /// Total virtual MTTR across those recoveries, seconds.
    mttr_total_s: f64,
    /// Serve-level dispatch retries (jittered backoff).
    retries: u64,
    /// Circuit-breaker trips to open.
    breaker_opens: u64,
    /// Requests answered within the deadline budget per virtual second.
    goodput_rps: f64,
    /// p99 latency over answered requests, virtual seconds.
    p99_s: f64,
    /// `goodput_rps / calm goodput_rps` (1.0 for the calm row).
    goodput_retained: f64,
}

/// The `BENCH_chaos.json` payload.
#[derive(Debug, Clone, Serialize)]
struct ChaosBench {
    schema: u32,
    chaos_seed: u64,
    trace_requests: usize,
    scenarios: Vec<ChaosPoint>,
}

/// The serving relation: 1 paper-GiB of dense sorted keys at paper scale
/// (fixed, like the baseline matrix, so the JSON is mode-independent).
fn chaos_relation() -> Relation {
    RInput::paper(Scale::PAPER, 1.0).generate()
}

/// The seeded trace every scenario replays.
fn chaos_trace(r: &Relation) -> Vec<TimedRequest> {
    generate_trace(
        &TraceConfig {
            seed: 7,
            tenants: 4,
            requests: TRACE_REQUESTS,
            min_keys: 4,
            max_keys: 64,
            offered_load_rps: 2_000.0,
            deadline_s: None,
        },
        r,
    )
}

/// Run one scenario on a fresh device; `goodput_retained` is filled in
/// after the calm row is known.
fn run_scenario(r: &Relation, trace: &[TimedRequest], scenario: ChaosScenario) -> ChaosPoint {
    let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
    let mut server = Server::new(&mut gpu, ServeConfig::default(), r.clone())
        .expect("chaos experiment server must construct");
    gpu.set_chaos_schedule(scenario.schedule(CHAOS_SEED))
        .expect("scenario schedules are valid");
    let report = server
        .run(&mut gpu, trace)
        .expect("chaos trace must complete without a server-level error")
        .report;

    let mut recoveries = 0u64;
    let mut mttr_total_s = 0.0f64;
    let mut retries = 0u64;
    for e in &report.events {
        match e {
            ServeEvent::DeviceLossRecovered { mttr_s } => {
                recoveries += 1;
                mttr_total_s += mttr_s;
            }
            ServeEvent::DispatchRetried { .. } => retries += 1,
            _ => {}
        }
    }
    ChaosPoint {
        scenario: scenario.name(),
        availability: r6(report.slo.availability),
        completed: report.completed,
        shed: report.shed,
        recoveries,
        mttr_total_s: r6(mttr_total_s),
        retries,
        breaker_opens: report.breaker.opens,
        goodput_rps: r6(report.slo.goodput_rps),
        p99_s: r6(report.slo.p99_s),
        goodput_retained: 0.0,
    }
}

/// Compute all scenario points with `jobs` workers, merged in
/// [`ChaosScenario::ALL`] order. Workers only decide *when* a scenario
/// runs, never *what* it computes, so any job count merges identically.
fn compute(jobs: usize) -> ChaosBench {
    let r = chaos_relation();
    let trace = chaos_trace(&r);
    let scenarios = ChaosScenario::ALL;
    let mut points = par_map(jobs, scenarios.len(), |i| {
        run_scenario(&r, &trace, scenarios[i])
    });
    let calm_goodput = points[0].goodput_rps;
    for p in &mut points {
        p.goodput_retained = if calm_goodput > 0.0 {
            r6(p.goodput_rps / calm_goodput)
        } else {
            0.0
        };
    }
    ChaosBench {
        schema: SCHEMA_VERSION,
        chaos_seed: CHAOS_SEED,
        trace_requests: TRACE_REQUESTS,
        scenarios: points,
    }
}

/// Invariants that hold regardless of any committed reference: the
/// device-bearing scenarios must recover, not refuse.
fn check_invariants(bench: &ChaosBench) -> Result<(), String> {
    for p in &bench.scenarios {
        if p.scenario == "device_loss" {
            if p.availability != 1.0 || p.shed != 0 {
                return Err(format!(
                    "device-loss scenario must answer every request: \
                     availability {} with {} shed",
                    p.availability, p.shed
                ));
            }
            if p.recoveries == 0 || !p.mttr_total_s.is_finite() || p.mttr_total_s <= 0.0 {
                return Err(format!(
                    "device-loss scenario must record a finite recovery: \
                     {} recoveries, total MTTR {}s",
                    p.recoveries, p.mttr_total_s
                ));
            }
        }
        if !p.goodput_rps.is_finite() || !p.p99_s.is_finite() {
            return Err(format!(
                "scenario '{}' produced non-finite KPIs",
                p.scenario
            ));
        }
    }
    Ok(())
}

/// The `chaos` target. `Err` (→ nonzero exit) on invariant or gate
/// violations.
pub fn chaos(cfg: &ExpConfig) -> Result<Experiment, String> {
    let bench = compute(cfg.jobs);
    check_invariants(&bench)?;
    let gate_note = gate::check_or_record(&GATE, &bench, cfg.record)?;

    let rows = bench
        .scenarios
        .iter()
        .map(|p| {
            vec![
                json!(p.scenario),
                num6(p.availability),
                json!(p.completed),
                json!(p.shed),
                json!(p.recoveries),
                num6(p.mttr_total_s * 1e3),
                json!(p.retries),
                json!(p.breaker_opens),
                num(p.goodput_rps),
                num6(p.p99_s * 1e3),
                num6(p.goodput_retained),
            ]
        })
        .collect();
    Ok(Experiment {
        id: "chaos".into(),
        title: "Chaos: serving resilience KPIs under fault windows".into(),
        columns: vec![
            "scenario".into(),
            "availability".into(),
            "completed".into(),
            "shed".into(),
            "recoveries".into(),
            "mttr_ms".into(),
            "retries".into(),
            "breaker_opens".into(),
            "goodput_rps".into(),
            "p99_ms".into(),
            "goodput_retained".into(),
        ],
        rows,
        notes: vec![
            format!(
                "{TRACE_REQUESTS}-request seeded trace replayed under each scenario \
                 (chaos seed {CHAOS_SEED}); virtual-clock KPIs, byte-identical across \
                 runs and --jobs counts"
            ),
            "device loss is recovered by rebuilding device state from host-resident \
             data: availability stays 1.0 and MTTR is the outage wait plus the priced \
             rebuild"
                .into(),
            gate_note,
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> ChaosBench {
        compute(1)
    }

    #[test]
    fn scenarios_sweep_in_fixed_order_and_hold_invariants() {
        let b = bench();
        assert_eq!(b.scenarios.len(), ChaosScenario::ALL.len());
        let names: Vec<&str> = b.scenarios.iter().map(|p| p.scenario).collect();
        assert_eq!(
            names,
            vec![
                "calm",
                "flap",
                "brownout",
                "ecc_storm",
                "device_loss",
                "combined"
            ]
        );
        check_invariants(&b).expect("invariants hold");
        // The calm row anchors the retained column.
        assert_eq!(b.scenarios[0].goodput_retained, 1.0);
        assert_eq!(b.scenarios[0].recoveries, 0);
        assert_eq!(b.scenarios[0].retries, 0);
    }

    #[test]
    fn device_loss_point_recovers_with_full_availability() {
        let b = bench();
        let p = b
            .scenarios
            .iter()
            .find(|p| p.scenario == "device_loss")
            .unwrap();
        assert_eq!(p.availability, 1.0);
        assert_eq!(p.shed, 0);
        assert!(p.recoveries >= 1);
        assert!(p.mttr_total_s > 0.0 && p.mttr_total_s.is_finite());
    }

    #[test]
    fn jobs_counts_merge_byte_identically() {
        let a = serde_json::to_string(&compute(1)).unwrap();
        let b = serde_json::to_string(&compute(4)).unwrap();
        assert_eq!(a, b, "--jobs must not change BENCH_chaos.json");
    }

    #[test]
    fn gate_flags_drift_and_accepts_self() {
        let b = bench();
        let mut drifted = b.clone();
        drifted.scenarios[4].completed -= 1;
        gate::assert_flags_drift(&GATE, &b, &drifted, "scenarios[4].completed");
    }
}
