//! Export: a seeded `ServerReport` and `ClusterReport`, serialized compact
//! and pretty, are valid JSON whose parsed tree re-serializes to the same
//! text.

use windex_serve::prelude::*;
use windex_sim::ChaosScenario;

fn v100() -> GpuSpec {
    GpuSpec::v100_nvlink2(Scale::PAPER)
}

/// Parse both layouts of one report and require each to print back byte
/// for byte from the one tree they hold.
fn assert_round_trips(what: &str, compact: &str, pretty: &str) {
    let parsed = serde_json::from_str(compact).unwrap_or_else(|e| panic!("{what} compact: {e}"));
    assert_eq!(parsed.to_string(), compact, "{what} compact");
    let from_pretty = serde_json::from_str(pretty).unwrap_or_else(|e| panic!("{what} pretty: {e}"));
    assert_eq!(from_pretty, parsed, "{what}: both layouts hold one tree");
    assert_eq!(
        serde_json::to_string_pretty(&from_pretty).unwrap(),
        pretty,
        "{what} pretty"
    );
}

#[test]
fn serving_reports_serialize_to_json_that_round_trips() {
    let r = Relation::unique_sorted(1 << 14, KeyDistribution::SparseUniform, 3);
    let trace = generate_trace(
        &TraceConfig {
            seed: 11,
            requests: 128,
            ..TraceConfig::default()
        },
        &r,
    );

    let mut gpu = Gpu::new(v100());
    let mut server = Server::new(&mut gpu, ServeConfig::default(), r.clone()).unwrap();
    gpu.set_chaos_schedule(ChaosScenario::DeviceLoss.schedule(40))
        .unwrap();
    let report = server.run(&mut gpu, &trace).unwrap().report;
    assert_round_trips(
        "server",
        &serde_json::to_string(&report).unwrap(),
        &serde_json::to_string_pretty(&report).unwrap(),
    );

    let spec = ClusterSpec::sharded(4, v100(), InterconnectSpec::nvlink4_peer());
    let mut cluster = ClusterServer::new(
        ClusterConfig {
            serve: ServeConfig::default(),
            cluster: spec,
        },
        r,
    )
    .unwrap();
    cluster
        .set_chaos_schedules(ChaosScenario::DeviceLoss.cluster_schedules(40, 4, 1))
        .unwrap();
    let report = cluster.run(&trace).unwrap().report;
    assert_round_trips(
        "cluster",
        &serde_json::to_string(&report).unwrap(),
        &serde_json::to_string_pretty(&report).unwrap(),
    );
}
