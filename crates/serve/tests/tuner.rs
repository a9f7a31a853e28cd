//! End-to-end tests of the online auto-tuner behind [`TunedServer`]:
//! convergence to the regime-correct plan from a wrong start, hysteresis
//! spacing of switches, byte-identical determinism, and the interaction
//! with the degradation ladder under an injected device loss.

use windex_core::{default_candidates, TuneReason, TunerConfig};
use windex_serve::prelude::*;
use windex_sim::{ChaosKind, ChaosSchedule};

fn spec() -> GpuSpec {
    GpuSpec::v100_nvlink2(Scale::PAPER)
}

/// Dense sorted R at a paper-scale size, like the bench workloads.
fn relation(paper_gib: f64, seed: u64) -> Relation {
    Relation::unique_sorted(
        Scale::PAPER.sim_tuples_for_paper_gib(paper_gib),
        KeyDistribution::Dense,
        seed,
    )
}

/// A saturating single-tenant trace: ~5 full 32 Ki-key batches.
fn trace(r: &Relation, tenant: TenantId) -> Vec<TimedRequest> {
    generate_tenant_trace(
        &TraceConfig {
            seed: 7,
            tenants: 1,
            requests: 40,
            min_keys: 2_048,
            max_keys: 6_144,
            offered_load_rps: 160.0,
            deadline_s: None,
        },
        tenant,
        r,
    )
}

/// Run one tenant from a forced starting candidate with exploration off,
/// so every move is a pure argmin decision.
fn run_from(paper_gib: f64, initial_candidate: usize) -> TunedReport {
    let r = relation(paper_gib, 42);
    let tr = trace(&r, 0);
    let cfg = TunedConfig {
        tuner: TunerConfig {
            epsilon: 0.0,
            initial_candidate: Some(initial_candidate),
            ..TunerConfig::default()
        },
        ..TunedConfig::default()
    };
    let mut srv = TunedServer::new(spec(), cfg, vec![(0, r)], None).unwrap();
    srv.run(&tr).unwrap()
}

/// Index of the hash join / the first windowed plan in the default set.
fn candidate_index(needle: &str) -> usize {
    default_candidates()
        .iter()
        .position(|c| c.label().contains(needle))
        .expect("candidate present")
}

#[test]
fn converges_to_hash_join_in_core() {
    // A 1 GiB tenant started on the windowed INLJ must measure its way
    // back to the hash join: in-core, streaming R once per batch is
    // cheaper than per-key index traversal (§5 regime boundary).
    let rep = run_from(1.0, candidate_index("windowed"));
    assert_eq!(rep.completed, rep.requests);
    assert_eq!(rep.per_tenant[0].final_plan, "hash-join");
    assert!(
        rep.tune_events
            .iter()
            .any(|e| { e.event.reason == TuneReason::Argmin && e.event.to == "hash-join" }),
        "an argmin switch to hash-join must be on the event stream: {:?}",
        rep.tune_events
    );
}

#[test]
fn converges_to_windowed_inlj_out_of_core() {
    // A 64 GiB tenant started on the hash join must switch to a windowed
    // INLJ with a sane window: out-of-core, streaming R per batch costs
    // ~R/batch_keys times more than per-key lookups.
    let rep = run_from(64.0, candidate_index("hash"));
    assert_eq!(rep.completed, rep.requests);
    let plan = &rep.per_tenant[0].final_plan;
    assert!(plan.contains("windowed-inlj"), "final plan {plan}");
    let w: usize = plan
        .split("w=")
        .nth(1)
        .and_then(|s| s.split(')').next())
        .and_then(|s| s.parse().ok())
        .expect("windowed plan label carries a window size");
    assert!(
        (64..=1 << 20).contains(&w),
        "window {w} outside any sane range"
    );
    assert!(rep.switches >= 1, "at least one argmin switch");
}

#[test]
fn hysteresis_spaces_switches_by_the_dwell() {
    // Same wrong-start run: the first switch cannot land before the dwell
    // window has passed, and consecutive switches stay at least a dwell
    // apart per tenant.
    let dwell = TunerConfig::default().min_dwell_batches;
    let rep = run_from(1.0, candidate_index("windowed"));
    let switches: Vec<u64> = rep
        .tune_events
        .iter()
        .filter(|e| e.event.reason == TuneReason::Argmin)
        .map(|e| e.event.batch)
        .collect();
    assert!(!switches.is_empty(), "the bad start must trigger a switch");
    assert!(
        switches[0] >= dwell,
        "first switch at batch {} inside the dwell {dwell}",
        switches[0]
    );
    assert!(
        switches.windows(2).all(|w| w[1] - w[0] >= dwell),
        "switches closer than the dwell: {switches:?}"
    );
}

#[test]
fn tuned_runs_are_byte_identical() {
    // Mixed-regime two-tenant run with exploration on: the full report —
    // KPIs, per-tenant plans, and the TuneEvent stream — serializes
    // byte-identically across runs.
    let run = || {
        let small = relation(1.0, 42);
        let big = relation(64.0, 43);
        let tr = merge_traces(vec![trace(&small, 0), trace(&big, 1)]);
        let mut srv = TunedServer::new(
            spec(),
            TunedConfig::default(),
            vec![(0, small), (1, big)],
            None,
        )
        .unwrap();
        serde_json::to_string(&srv.run(&tr).unwrap()).unwrap()
    };
    let a = run();
    assert_eq!(a, run(), "same seed and trace must serialize identically");
    // The OpenMetrics rendering is equally deterministic.
    let rep: TunedReport = {
        let small = relation(1.0, 42);
        let big = relation(64.0, 43);
        let tr = merge_traces(vec![trace(&small, 0), trace(&big, 1)]);
        let mut srv = TunedServer::new(
            spec(),
            TunedConfig::default(),
            vec![(0, small), (1, big)],
            None,
        )
        .unwrap();
        srv.run(&tr).unwrap()
    };
    let m = render_tuner_openmetrics(&rep);
    assert_eq!(m, render_tuner_openmetrics(&rep));
    windex_serve::validate_openmetrics(&m).unwrap();
}

#[test]
fn device_loss_pins_the_tuner_until_recovery() {
    // A device-loss window mid-trace walks the session through the PR 6
    // recovery path; the dispatch reports a degradation, which must pin
    // the tuner (no plan churn while the ladder is active) and surface a
    // Pinned event — deterministically.
    let run = || {
        let r = relation(1.0, 42);
        let tr = trace(&r, 0);
        let cfg = TunedConfig {
            tuner: TunerConfig {
                epsilon: 0.0,
                ..TunerConfig::default()
            },
            ..TunedConfig::default()
        };
        let mut srv = TunedServer::new(spec(), cfg, vec![(0, r)], None).unwrap();
        srv.gpu_mut()
            .set_chaos_schedule(ChaosSchedule::seeded(99).with_window(
                ChaosKind::DeviceLoss,
                0.06,
                0.10,
            ))
            .unwrap();
        srv.run(&tr).unwrap()
    };
    let rep = run();
    assert_eq!(rep.completed, rep.requests, "loss is recovered, not shed");
    let pins: Vec<_> = rep
        .tune_events
        .iter()
        .filter(|e| e.event.reason == TuneReason::Pinned)
        .collect();
    assert!(
        !pins.is_empty(),
        "device loss must pin the tuner: {:?}",
        rep.tune_events
    );
    assert!(rep.per_tenant[0].pinned_batches > 0);
    // No argmin switch lands inside a pin window.
    let b = run();
    assert_eq!(
        serde_json::to_string(&rep).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "chaos runs must stay deterministic"
    );
}
