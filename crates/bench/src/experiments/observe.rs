//! The `observe` target: one seeded, fully-instrumented run of the paper's
//! headline contrast, exported as loadable artifacts.
//!
//! Runs plain INLJ and windowed INLJ over a 64 paper-GiB relation — twice
//! the V100's 32-GiB TLB reach, so the plain probe phase thrashes — with a
//! bounded simulator trace enabled, then writes:
//!
//! - `trace_{inlj,windowed,serve}.json` — Chrome trace-event files
//!   (Perfetto / `chrome://tracing` load them directly);
//! - `heatmap_{tlb,l2}_{inlj,windowed}.{json,csv}` — time × set residency
//!   heatmaps from the recorded trace;
//! - `openmetrics.txt`, `openmetrics_cluster.txt`, `openmetrics_tuned.txt`
//!   and `openmetrics_parallel.txt` — OpenMetrics snapshots of seeded
//!   `Server`, `ClusterServer`, `TunedServer` and tenant-parallel runs.
//!
//! Everything is a pure function of the fixed seeds, so every artifact is
//! byte-identical across runs (pinned by `tests/exporters.rs`).

use super::cell::RInput;
use crate::config::ExpConfig;
use crate::export::{
    chrome_trace_json, cluster_request_chrome_trace, query_chrome_trace, server_chrome_trace,
};
use crate::output::{num6, Experiment};
use serde_json::json;
use std::path::Path;
use windex_core::prelude::*;
use windex_serve::prelude::{
    generate_tenant_trace, generate_trace, merge_traces, render_cluster_openmetrics,
    render_openmetrics, render_parallel_openmetrics, render_tuner_openmetrics,
    serve_tenant_parallel, BatchPolicy, ClusterConfig, ClusterReport, ClusterServer, ClusterSpec,
    ParallelServeOutcome, ServeConfig, Server, ServerReport, TimedRequest, TraceConfig,
    TunedConfig, TunedReport, TunedServer,
};
use windex_sim::{tlb_heatmap, Heatmap, InterconnectSpec, Trace};

/// Indexed-relation size, in paper GiB: 2× the V100's 32-GiB TLB reach,
/// so the unwindowed probe phase visibly thrashes.
const R_GIB: f64 = 64.0;

/// Probe keys (fixed, independent of `--quick`: the artifacts are
/// canonical, like the baseline).
const S_TUPLES: usize = 1 << 13;

/// Time buckets of the emitted heatmaps.
const BUCKETS: usize = 64;

/// One instrumented query: run `strategy` with a bounded ring trace and
/// return the report plus the recorded trace.
pub fn observed_query(strategy: JoinStrategy) -> (QueryReport, Trace, GpuSpec) {
    let scale = Scale::PAPER;
    let spec = GpuSpec::v100_nvlink2(scale);
    let r = RInput::paper(scale, R_GIB).generate();
    let s = Relation::foreign_keys_uniform(&r, S_TUPLES, 7);
    let mut gpu = Gpu::new(spec.clone());
    gpu.start_bounded_trace();
    let report = QueryExecutor::new()
        .run(&mut gpu, &r, &s, strategy)
        .expect("observe query must succeed");
    let trace = gpu.stop_trace();
    (report, trace, spec)
}

/// The relation, trace and configuration of the seeded serving run.
fn served_inputs() -> (Relation, Vec<TimedRequest>, ServeConfig) {
    let r = RInput::paper(Scale::PAPER, 1.0).generate();
    let trace = generate_trace(
        &TraceConfig {
            seed: 7,
            tenants: 4,
            requests: 128,
            min_keys: 4,
            max_keys: 64,
            offered_load_rps: 10_000.0,
            deadline_s: None,
        },
        &r,
    );
    let cfg = ServeConfig {
        policy: BatchPolicy::Shared {
            max_delay_s: 200e-6,
        },
        window_tuples: 1024,
        ..ServeConfig::default()
    };
    (r, trace, cfg)
}

/// The seeded serving run whose report feeds the OpenMetrics snapshot.
pub fn observed_server() -> ServerReport {
    let (r, trace, cfg) = served_inputs();
    let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
    let mut server = Server::new(&mut gpu, cfg, r).expect("observe server must construct");
    server
        .run(&mut gpu, &trace)
        .expect("observe serve trace must complete")
        .report
}

/// The same seeded trace served tenant-parallel on two worker threads,
/// one lane per tenant.
pub fn observed_parallel() -> ParallelServeOutcome {
    let (r, trace, cfg) = served_inputs();
    serve_tenant_parallel(
        &GpuSpec::v100_nvlink2(Scale::PAPER),
        cfg,
        &r,
        &trace,
        2,
        None,
    )
    .expect("observe tenant-parallel trace must complete")
}

/// A seeded two-tenant tuned run: a small and a 4x larger relation, each
/// tenant probing its own, with batches small enough that each tenant's
/// tuner decides several times.
pub fn observed_tuned() -> TunedReport {
    let small = Relation::unique_sorted(1 << 14, KeyDistribution::SparseUniform, 11);
    let big = Relation::unique_sorted(1 << 16, KeyDistribution::SparseUniform, 12);
    let tenant_trace = |tenant, r: &Relation| {
        generate_tenant_trace(
            &TraceConfig {
                requests: 24,
                min_keys: 64,
                max_keys: 256,
                offered_load_rps: 500.0,
                ..TraceConfig::default()
            },
            tenant,
            r,
        )
    };
    let trace = merge_traces(vec![tenant_trace(0, &small), tenant_trace(1, &big)]);
    TunedServer::new(
        GpuSpec::v100_nvlink2(Scale::PAPER),
        TunedConfig {
            batch_keys: 1024,
            max_delay_s: 2e-3,
            ..TunedConfig::default()
        },
        vec![(0, small), (1, big)],
        None,
    )
    .expect("observe tuned server must construct")
    .run(&trace)
    .expect("observe tuned trace must complete")
}

/// The seeded cluster run whose span trees feed the request-tracing
/// artifacts (flow-linked Perfetto export, tail query cards).
pub fn observed_cluster() -> ClusterReport {
    let scale = Scale::PAPER;
    let r = RInput::paper(scale, 1.0).generate();
    let trace = generate_trace(
        &TraceConfig {
            seed: 9,
            tenants: 4,
            requests: 96,
            min_keys: 32,
            max_keys: 256,
            offered_load_rps: 20_000.0,
            deadline_s: None,
        },
        &r,
    );
    let cfg = ClusterConfig {
        serve: ServeConfig::default(),
        cluster: ClusterSpec::sharded(
            4,
            windex_sim::GpuSpec::v100_nvlink2(scale),
            InterconnectSpec::nvlink4_peer(),
        ),
    };
    ClusterServer::new(cfg, r)
        .expect("observe cluster must construct")
        .run(&trace)
        .expect("observe cluster trace must complete")
        .report
}

/// The two contrasted strategies, with their artifact labels.
fn strategies() -> Vec<(&'static str, JoinStrategy)> {
    vec![
        (
            "inlj",
            JoinStrategy::Inlj {
                index: IndexKind::RadixSpline,
            },
        ),
        (
            "windowed",
            JoinStrategy::WindowedInlj {
                index: IndexKind::RadixSpline,
                window_tuples: 1 << 12,
            },
        ),
    ]
}

/// Serialize a heatmap as its canonical JSON bytes.
fn heatmap_json(hm: &Heatmap) -> String {
    let mut text = serde_json::to_string_pretty(hm).expect("heatmap serializes");
    text.push('\n');
    text
}

fn write_artifact(out_dir: &Path, name: &str, bytes: &str) {
    let path = out_dir.join(name);
    let write = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, bytes));
    if let Err(e) = write {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// The `observe` target.
pub fn observe(cfg: &ExpConfig) -> Experiment {
    let mut rows = Vec::new();
    for (label, strategy) in strategies() {
        let (report, trace, spec) = observed_query(strategy);
        let hm_tlb = tlb_heatmap(&spec, &trace, BUCKETS);
        let hm_l2 = windex_sim::l2_heatmap(&spec, &trace, BUCKETS);
        write_artifact(
            &cfg.out_dir,
            &format!("trace_{label}.json"),
            &chrome_trace_json(&query_chrome_trace(&report, &trace)),
        );
        write_artifact(
            &cfg.out_dir,
            &format!("heatmap_tlb_{label}.json"),
            &heatmap_json(&hm_tlb),
        );
        write_artifact(
            &cfg.out_dir,
            &format!("heatmap_tlb_{label}.csv"),
            &hm_tlb.to_csv(),
        );
        write_artifact(
            &cfg.out_dir,
            &format!("heatmap_l2_{label}.json"),
            &heatmap_json(&hm_l2),
        );
        write_artifact(
            &cfg.out_dir,
            &format!("heatmap_l2_{label}.csv"),
            &hm_l2.to_csv(),
        );
        rows.push(vec![
            json!(label),
            json!(report.strategy.clone()),
            num6(hm_tlb.miss_rate()),
            num6(hm_l2.miss_rate()),
            json!(trace.recorded().events),
            json!(trace.dropped_events()),
            num6(report.queries_per_second()),
        ]);
    }

    let server_report = observed_server();
    write_artifact(
        &cfg.out_dir,
        "openmetrics.txt",
        &render_openmetrics(&server_report),
    );
    write_artifact(
        &cfg.out_dir,
        "trace_serve.json",
        &chrome_trace_json(&server_chrome_trace(&server_report)),
    );
    rows.push(vec![
        json!("serve"),
        json!(server_report.policy.clone()),
        num6(0.0),
        num6(0.0),
        json!(server_report.requests),
        json!(0u64),
        num6(server_report.completed_rps),
    ]);

    // Request tracing: the cluster run's span trees as a flow-linked
    // Perfetto export, the tail sampler's query cards as JSON, and the
    // slowest card rendered as text.
    let cluster_report = observed_cluster();
    write_artifact(
        &cfg.out_dir,
        "openmetrics_cluster.txt",
        &render_cluster_openmetrics(&cluster_report),
    );
    write_artifact(
        &cfg.out_dir,
        "openmetrics_tuned.txt",
        &render_tuner_openmetrics(&observed_tuned()),
    );
    write_artifact(
        &cfg.out_dir,
        "openmetrics_parallel.txt",
        &render_parallel_openmetrics(&observed_parallel()),
    );
    write_artifact(
        &cfg.out_dir,
        "trace_requests.json",
        &chrome_trace_json(&cluster_request_chrome_trace(&cluster_report)),
    );
    let mut tail_json =
        serde_json::to_string_pretty(&cluster_report.tail).expect("tail serializes");
    tail_json.push('\n');
    write_artifact(&cfg.out_dir, "requests_tail.json", &tail_json);
    let cards: String = cluster_report
        .tail
        .slowest
        .iter()
        .map(|c| c.render())
        .collect();
    write_artifact(&cfg.out_dir, "query_cards.txt", &cards);
    rows.push(vec![
        json!("requests"),
        json!(format!(
            "cluster {}x {}",
            cluster_report.gpus, cluster_report.link
        )),
        num6(0.0),
        num6(0.0),
        json!(cluster_report.requests),
        json!(0u64),
        num6(cluster_report.completed_rps),
    ]);

    Experiment {
        id: "observe".into(),
        title: format!(
            "Observability export: {R_GIB:.0} paper-GiB run, Perfetto traces + residency heatmaps"
        ),
        columns: vec![
            "artifact".into(),
            "run".into(),
            "tlb_miss_rate".into(),
            "l2_miss_rate".into(),
            "recorded_events".into(),
            "dropped_events".into(),
            "qps_or_rps".into(),
        ],
        rows,
        notes: vec![
            "trace_*.json load in Perfetto / chrome://tracing; heatmap_*.csv is long-format \
             (bucket,set,accesses,misses,miss_rate)"
                .into(),
            "trace_requests.json links coordinator request spans to shard legs with flow \
             arrows; requests_tail.json / query_cards.txt hold the tail sampler's cards"
                .into(),
            "openmetrics{,_cluster,_tuned,_parallel}.txt snapshot the four serving hosts' \
             OpenMetrics expositions"
                .into(),
            "fixed seeds, independent of --quick: artifacts are byte-identical across runs".into(),
            format!(
                "{R_GIB:.0} paper GiB is 2x the V100's 32-GiB TLB reach: the plain INLJ heatmap \
                 shows the thrash wall, the windowed one shows restored locality"
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windex_sim::l2_heatmap;

    #[test]
    fn heatmap_distinguishes_thrash_from_windowed_locality() {
        // The acceptance contrast: past the TLB's covered range, plain
        // INLJ thrashes (high per-lookup miss rate) while windowed INLJ
        // restores locality inside each window.
        let strategies = strategies();
        let (_, inlj_trace, spec) = observed_query(strategies[0].1);
        let (_, win_trace, _) = observed_query(strategies[1].1);
        let hm_inlj = tlb_heatmap(&spec, &inlj_trace, BUCKETS);
        let hm_win = tlb_heatmap(&spec, &win_trace, BUCKETS);
        assert!(
            hm_inlj.miss_rate() > 2.0 * hm_win.miss_rate(),
            "inlj miss rate {} vs windowed {}",
            hm_inlj.miss_rate(),
            hm_win.miss_rate()
        );
        // The offered side reconciles even if the ring evicted: the
        // trashing run's offered misses dwarf the windowed run's.
        assert!(hm_inlj.offered_misses > 2 * hm_win.offered_misses);
        // L2 heatmaps exist and cover the recorded interval.
        let l2 = l2_heatmap(&spec, &inlj_trace, BUCKETS);
        assert_eq!(l2.total_accesses(), inlj_trace.recorded().l2_accesses);
    }
}
