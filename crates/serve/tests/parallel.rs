//! Tenant-parallel determinism acceptance: the merged outcome — responses,
//! per-lane reports, span trees, and OpenMetrics text — must serialize
//! byte-identically for any worker-thread count, calm and under chaos,
//! for both lane hosts (`Server`, `TunedServer`).
//! A lane must also match a standalone server fed the same sub-trace, so
//! the parallel mode adds scheduling, never semantics.

use windex_serve::prelude::*;
use windex_sim::{ChaosKind, ChaosSchedule};

fn v100() -> GpuSpec {
    GpuSpec::v100_nvlink2(Scale::PAPER)
}

fn relation(seed: u64) -> Relation {
    Relation::unique_sorted(1 << 14, KeyDistribution::SparseUniform, seed)
}

fn trace_for(r: &Relation, requests: usize, tenants: u32, seed: u64) -> Vec<TimedRequest> {
    generate_trace(
        &TraceConfig {
            seed,
            requests,
            tenants,
            min_keys: 32,
            max_keys: 256,
            offered_load_rps: 4000.0,
            ..TraceConfig::default()
        },
        r,
    )
}

/// A device-loss window plus a link flap later in the trace: exercises
/// recovery (index rebuild) and the retry/backoff path on every lane.
fn chaos() -> ChaosSchedule {
    ChaosSchedule::seeded(99)
        .with_window(ChaosKind::DeviceLoss, 0.002, 0.004)
        .with_window(ChaosKind::LinkFlap, 0.008, 0.009)
}

#[test]
fn server_outcome_is_byte_identical_across_thread_counts() {
    let r = relation(11);
    let trace = trace_for(&r, 96, 4, 5);
    let run = |threads: usize| {
        let out = serve_tenant_parallel(&v100(), ServeConfig::default(), &r, &trace, threads, None)
            .unwrap();
        (
            serde_json::to_string(&out).unwrap(),
            render_parallel_openmetrics(&out),
        )
    };
    let (json1, om1) = run(1);
    for threads in [2, 4, 7] {
        let (json_n, om_n) = run(threads);
        assert_eq!(json1, json_n, "outcome diverged at {threads} threads");
        assert_eq!(om1, om_n, "OpenMetrics diverged at {threads} threads");
    }
    windex_serve::validate_openmetrics(&om1).unwrap();
}

#[test]
fn server_outcome_is_byte_identical_under_chaos() {
    let r = relation(13);
    let trace = trace_for(&r, 96, 4, 6);
    let run = |threads: usize| {
        let out = serve_tenant_parallel(
            &v100(),
            ServeConfig::default(),
            &r,
            &trace,
            threads,
            Some(&chaos()),
        )
        .unwrap();
        serde_json::to_string(&out).unwrap()
    };
    let json1 = run(1);
    assert_eq!(json1, run(4), "chaos outcome diverged at 4 threads");
    // The schedule actually bit: some lane recovered a device loss or
    // retried a dispatch (events serialize into the lane reports).
    assert!(
        json1.contains("DeviceLossRecovered")
            || json1.contains("DispatchRetried")
            || json1.contains("BatchAbandoned"),
        "chaos schedule produced no observable fault handling"
    );
}

#[test]
fn lane_report_matches_standalone_server_on_the_subtrace() {
    let r = relation(17);
    let trace = trace_for(&r, 64, 3, 8);
    let out = serve_tenant_parallel(&v100(), ServeConfig::default(), &r, &trace, 4, None).unwrap();
    for lane in &out.lanes {
        let sub: Vec<TimedRequest> = trace
            .iter()
            .filter(|t| t.request.tenant == lane.tenant)
            .cloned()
            .collect();
        let mut gpu = Gpu::new(v100());
        let mut server = Server::new(&mut gpu, ServeConfig::default(), r.clone()).unwrap();
        let standalone = server.run(&mut gpu, &sub).unwrap();
        assert_eq!(
            serde_json::to_string(&lane.report).unwrap(),
            serde_json::to_string(&standalone.report).unwrap(),
            "lane for tenant {} diverged from a standalone server",
            lane.tenant
        );
    }
}

#[test]
fn tuned_outcome_is_byte_identical_across_thread_counts_calm_and_chaotic() {
    let tenants: Vec<(TenantId, Relation)> =
        vec![(0, relation(21)), (1, relation(22)), (2, relation(23))];
    let merged = merge_traces(
        tenants
            .iter()
            .map(|(id, r)| {
                generate_tenant_trace(
                    &TraceConfig {
                        seed: 31 + *id as u64,
                        requests: 24,
                        min_keys: 64,
                        max_keys: 256,
                        offered_load_rps: 1000.0,
                        ..TraceConfig::default()
                    },
                    *id,
                    r,
                )
            })
            .collect(),
    );
    for schedule in [None, Some(chaos())] {
        let run = |threads: usize| {
            let out = serve_tuned_tenant_parallel(
                &v100(),
                TunedConfig::default(),
                &tenants,
                &merged,
                threads,
                schedule.as_ref(),
            )
            .unwrap();
            serde_json::to_string(&out).unwrap()
        };
        let json1 = run(1);
        assert_eq!(
            json1,
            run(4),
            "tuned outcome diverged at 4 threads (chaos={})",
            schedule.is_some()
        );
        assert_eq!(json1, run(3));
    }
}

#[test]
fn summary_buckets_are_disjoint_and_total() {
    let r = relation(51);
    let trace = trace_for(&r, 80, 5, 10);
    let out = serve_tenant_parallel(&v100(), ServeConfig::default(), &r, &trace, 4, None).unwrap();
    let s = &out.summary;
    assert_eq!(s.lanes, out.lanes.len());
    assert_eq!(s.requests, trace.len());
    assert_eq!(s.completed + s.shed + s.deadline_missed, trace.len());
    assert_eq!(
        s.result_tuples,
        out.responses.iter().map(|r| r.matches.len()).sum::<usize>()
    );
    let lane_makespan = out
        .lanes
        .iter()
        .map(|l| l.report.virtual_makespan_s)
        .fold(0.0f64, f64::max);
    assert_eq!(s.virtual_makespan_s, lane_makespan);
}
