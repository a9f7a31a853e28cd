//! Exporter-determinism tests: the observability artifacts are pure
//! functions of the seed. Two fresh same-seed runs must serialize to
//! byte-identical Chrome trace JSON, OpenMetrics text, and heatmap CSV —
//! and the exported JSON must actually parse.

use serde_json::Value;
use windex_bench::experiments::observe::observed_cluster;
use windex_bench::export::{
    chrome_trace_json, cluster_request_chrome_trace, query_chrome_trace, server_chrome_trace,
};
use windex_core::prelude::*;
use windex_serve::prelude::{
    generate_trace, render_cluster_openmetrics, render_openmetrics, BatchPolicy, ServeConfig,
    Server, ServerReport, TraceConfig,
};
use windex_serve::validate_openmetrics;
use windex_sim::{l2_heatmap, tlb_heatmap, Trace, TraceMode};

/// A small instrumented query run (8 paper-GiB, windowed INLJ) — enough to
/// exercise phases, windows, and the trace recorder without the full
/// observe-scale cost.
fn run_query() -> (QueryReport, Trace, GpuSpec) {
    let scale = Scale::PAPER;
    let spec = GpuSpec::v100_nvlink2(scale);
    let r = Relation::unique_sorted(
        scale.sim_tuples_for_paper_gib(8.0),
        KeyDistribution::Dense,
        42,
    );
    let s = Relation::foreign_keys_uniform(&r, 1 << 12, 7);
    let mut gpu = Gpu::new(spec.clone());
    gpu.start_bounded_trace();
    let report = QueryExecutor::new()
        .run(
            &mut gpu,
            &r,
            &s,
            JoinStrategy::WindowedInlj {
                index: IndexKind::RadixSpline,
                window_tuples: 1 << 11,
            },
        )
        .expect("query must succeed");
    let trace = gpu.stop_trace();
    (report, trace, spec)
}

/// A seeded serving run.
fn run_server() -> ServerReport {
    let scale = Scale::PAPER;
    let r = Relation::unique_sorted(
        scale.sim_tuples_for_paper_gib(1.0),
        KeyDistribution::Dense,
        42,
    );
    let trace = generate_trace(
        &TraceConfig {
            seed: 7,
            tenants: 4,
            requests: 96,
            min_keys: 4,
            max_keys: 64,
            offered_load_rps: 10_000.0,
            deadline_s: None,
        },
        &r,
    );
    let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(scale));
    let mut server = Server::new(
        &mut gpu,
        ServeConfig {
            policy: BatchPolicy::Shared {
                max_delay_s: 200e-6,
            },
            window_tuples: 1024,
            ..ServeConfig::default()
        },
        r,
    )
    .expect("server must construct");
    server
        .run(&mut gpu, &trace)
        .expect("trace must complete")
        .report
}

#[test]
fn query_chrome_trace_is_byte_identical_across_runs_and_parses() {
    let (report_a, trace_a, _) = run_query();
    let (report_b, trace_b, _) = run_query();
    let json_a = chrome_trace_json(&query_chrome_trace(&report_a, &trace_a));
    let json_b = chrome_trace_json(&query_chrome_trace(&report_b, &trace_b));
    assert_eq!(json_a, json_b, "same seed must export identical bytes");

    // The export must be loadable: well-formed JSON with a traceEvents
    // array of ph-tagged events.
    let parsed = serde_json::from_str(&json_a).expect("export must parse");
    let events = parsed
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph field");
        assert!(matches!(ph, "X" | "i" | "M"), "unexpected phase {ph}");
        if ph == "X" {
            assert!(ev.get("ts").and_then(Value::as_u64).is_some());
            assert!(ev.get("dur").and_then(Value::as_u64).is_some());
        }
    }
    // A windowed run exports its window timeline and phase spans.
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    assert!(names.iter().any(|n| n.starts_with("window ")));
    assert!(names.contains(&"partition") && names.contains(&"lookup"));
}

#[test]
fn heatmap_exports_are_byte_identical_and_reconcile() {
    let (_, trace_a, spec) = run_query();
    let (_, trace_b, _) = run_query();
    let tlb_a = tlb_heatmap(&spec, &trace_a, 32);
    let tlb_b = tlb_heatmap(&spec, &trace_b, 32);
    assert_eq!(tlb_a.to_csv(), tlb_b.to_csv());
    assert_eq!(
        serde_json::to_string_pretty(&tlb_a).unwrap(),
        serde_json::to_string_pretty(&tlb_b).unwrap()
    );
    // Exact reconciliation against the engine's own totals.
    assert_eq!(tlb_a.total_accesses(), trace_a.recorded().tlb_accesses);
    assert_eq!(tlb_a.total_misses(), trace_a.recorded().tlb_misses);
    assert_eq!(tlb_a.offered_accesses, trace_a.offered().tlb_accesses);
    let l2 = l2_heatmap(&spec, &trace_a, 32);
    assert_eq!(l2.total_accesses(), trace_a.recorded().l2_accesses);
    assert_eq!(l2.total_misses(), trace_a.recorded().l2_misses);
}

#[test]
fn heatmap_reconciles_exactly_under_sampling() {
    // Replay one run's recorded events through a sampling trace: the
    // recorded side thins, the offered side keeps the full-run truth.
    let (_, full, spec) = run_query();
    let mut sampled = Trace::new(full.capacity(), TraceMode::SampleEveryNth(5));
    for &ev in full.events() {
        sampled.record(ev);
    }
    let hm = tlb_heatmap(&spec, &sampled, 16);
    assert_eq!(hm.total_accesses(), sampled.recorded().tlb_accesses);
    assert_eq!(hm.total_misses(), sampled.recorded().tlb_misses);
    assert_eq!(hm.offered_accesses, full.recorded().tlb_accesses);
    assert_eq!(hm.offered_misses, full.recorded().tlb_misses);
    assert!(hm.total_accesses() < hm.offered_accesses);
    assert!(sampled.dropped_events() > 0);
}

#[test]
fn openmetrics_snapshot_is_byte_identical_and_well_formed() {
    let a = render_openmetrics(&run_server());
    let b = render_openmetrics(&run_server());
    assert_eq!(a, b, "same seed must expose identical metrics bytes");
    // Histogram count must equal the +Inf bucket.
    let inf = a
        .lines()
        .find(|l| l.contains("le=\"+Inf\""))
        .and_then(|l| l.rsplit(' ').next())
        .expect("+Inf bucket present");
    let count = a
        .lines()
        .find(|l| l.starts_with("windex_request_latency_seconds_count"))
        .and_then(|l| l.rsplit(' ').next())
        .expect("count present");
    assert_eq!(inf, count);
    // Per-tenant series exist for every configured tenant.
    for tenant in 0..4 {
        assert!(
            a.contains(&format!("windex_requests_total{{tenant=\"{tenant}\"}}")),
            "missing tenant {tenant}"
        );
    }
    // Every family carries exposition metadata, including the span-tree
    // stage families.
    validate_openmetrics(&a).unwrap();
    assert!(a.contains("# TYPE windex_stage_p99_seconds gauge"));
    assert!(a.contains("# TYPE windex_stage_seconds counter"));
    for stage in ["queue", "batch", "service", "merge", "other"] {
        assert!(
            a.contains(&format!("windex_stage_p99_seconds{{stage=\"{stage}\"}}")),
            "missing stage series {stage}"
        );
        assert!(
            a.contains(&format!("windex_stage_seconds_total{{stage=\"{stage}\"}}")),
            "missing stage total {stage}"
        );
    }
}

#[test]
fn cluster_openmetrics_exposes_stage_and_critical_leg_families() {
    let report = observed_cluster();
    let a = render_cluster_openmetrics(&report);
    let b = render_cluster_openmetrics(&observed_cluster());
    assert_eq!(a, b, "same seed must expose identical cluster metrics");
    validate_openmetrics(&a).unwrap();
    assert!(a.contains("# TYPE windex_cluster_stage_p99_seconds gauge"));
    assert!(a.contains("# TYPE windex_critical_leg counter"));
    // Critical-leg attribution covers every GPU label and sums to the
    // number of fanned-out traces.
    let critical: u64 = (0..report.gpus)
        .map(|g| {
            a.lines()
                .find(|l| l.starts_with(&format!("windex_critical_leg_total{{gpu=\"{g}\"}}")))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("missing critical-leg series for gpu {g}"))
        })
        .sum();
    let fanned = report
        .traces
        .iter()
        .filter(|t| t.critical_leg.is_some())
        .count() as u64;
    assert_eq!(critical, fanned, "critical legs must reconcile with traces");
    assert!(fanned > 0, "cluster run must fan out");
}

#[test]
fn cluster_request_chrome_trace_flow_links_legs() {
    let report = observed_cluster();
    let json_a = chrome_trace_json(&cluster_request_chrome_trace(&report));
    let json_b = chrome_trace_json(&cluster_request_chrome_trace(&observed_cluster()));
    assert_eq!(json_a, json_b, "same seed must export identical bytes");
    let parsed: Value = serde_json::from_str(&json_a).expect("export must parse");
    let events = parsed.get("traceEvents").and_then(Value::as_array).unwrap();
    let ph_of = |e: &Value| e.get("ph").and_then(Value::as_str).unwrap().to_string();
    for ev in events {
        let ph = ph_of(ev);
        assert!(
            matches!(ph.as_str(), "X" | "i" | "M" | "b" | "e" | "s" | "t" | "f"),
            "unexpected phase {ph}"
        );
    }
    // Async request spans pair begin/end on the same (cat, id, name).
    let key = |e: &Value| {
        (
            e.get("cat").and_then(Value::as_str).unwrap().to_string(),
            e.get("id").and_then(Value::as_str).unwrap().to_string(),
            e.get("name").and_then(Value::as_str).unwrap().to_string(),
        )
    };
    let begins: Vec<_> = events.iter().filter(|e| ph_of(e) == "b").map(key).collect();
    let mut ends: Vec<_> = events.iter().filter(|e| ph_of(e) == "e").map(key).collect();
    assert_eq!(
        begins.len(),
        report.traces.len(),
        "one async span per request"
    );
    for k in &begins {
        let i = ends
            .iter()
            .position(|e| e == k)
            .unwrap_or_else(|| panic!("unmatched async begin {k:?}"));
        ends.swap_remove(i);
    }
    assert!(ends.is_empty(), "unmatched async ends: {ends:?}");
    // Flow arrows: one s/t/f triple per shard leg, and every finish step
    // binds to the enclosing slice ("bp": "e").
    let legs: usize = report.traces.iter().map(|t| t.legs.len()).sum();
    for ph in ["s", "t", "f"] {
        let n = events.iter().filter(|e| ph_of(e) == *ph).count();
        assert_eq!(n, legs, "expected one '{ph}' flow event per leg");
    }
    for ev in events.iter().filter(|e| ph_of(e) == "f") {
        assert_eq!(
            ev.get("bp").and_then(Value::as_str),
            Some("e"),
            "flow finish must bind to enclosing slice"
        );
    }
}

#[test]
fn tail_artifacts_are_deterministic_and_name_the_critical_shard() {
    let a = observed_cluster();
    let b = observed_cluster();
    let tail_a = serde_json::to_string_pretty(&a.tail).unwrap();
    let tail_b = serde_json::to_string_pretty(&b.tail).unwrap();
    assert_eq!(tail_a, tail_b, "tail sample must be deterministic");
    let cards_a: String = a.tail.slowest.iter().map(|c| c.render()).collect();
    let cards_b: String = b.tail.slowest.iter().map(|c| c.render()).collect();
    assert_eq!(cards_a, cards_b, "query cards must be deterministic");
    assert!(!a.tail.slowest.is_empty(), "tail must sample the slowest");
    // The slowest card is a cross-shard request whose card names its
    // critical-path leg.
    let top = &a.tail.slowest[0];
    assert!(top.critical_shard.is_some(), "slowest request must fan out");
    assert!(cards_a.contains("critical path: shard"), "{cards_a}");
    // Slowest cards are ordered by descending latency.
    for w in a.tail.slowest.windows(2) {
        assert!(w[0].latency_s >= w[1].latency_s);
    }
}

#[test]
fn server_chrome_trace_is_byte_identical_and_places_batches() {
    let json_a = chrome_trace_json(&server_chrome_trace(&run_server()));
    let json_b = chrome_trace_json(&server_chrome_trace(&run_server()));
    assert_eq!(json_a, json_b);
    let parsed = serde_json::from_str(&json_a).expect("export must parse");
    let events = parsed.get("traceEvents").and_then(Value::as_array).unwrap();
    // Batch spans carry real virtual-clock timestamps: monotone ts order.
    let batch_ts: Vec<u64> = events
        .iter()
        .filter(|e| e.get("cat").and_then(Value::as_str) == Some("batch"))
        .map(|e| e.get("ts").and_then(Value::as_u64).unwrap())
        .collect();
    assert!(!batch_ts.is_empty());
    assert!(
        batch_ts.windows(2).all(|w| w[0] <= w[1]),
        "batch dispatch order must be time order: {batch_ts:?}"
    );
}
