//! Cross-host differential oracle: every serving host must answer a trace
//! exactly as a plain CPU binary search over R does.
//!
//! The hosts differ in everything but semantics: `Server` batches tenants
//! through one shared window, `ClusterServer` shards or replicates R over
//! 1, 2 or 8 GPUs and merges fanned-out legs, the tenant-parallel wrappers
//! serve each tenant on its own lane, and `TunedServer` switches plans per
//! batch. For the hosts that return responses, every answered request's
//! `(key, position)` matches must equal the reference's; `TunedServer` and
//! its lanes report no responses, so their per-tenant match totals must.
//! Each property runs calm and under a device loss mid-trace, where hosts
//! may shed requests but must never answer one wrongly.

use proptest::prelude::*;
use std::collections::BTreeMap;
use windex_serve::prelude::*;
use windex_sim::ChaosScenario;

fn spec() -> GpuSpec {
    GpuSpec::v100_nvlink2(Scale::PAPER)
}

/// A seeded trace over `r` at 8000 requests/s, long enough (32–64 ms of
/// virtual time) that the device-loss window at 20–35 ms lands mid-trace
/// while shards are busy. Every other key of every third request is
/// bumped to `key + 1` so probes also miss.
fn trace_for(r: &Relation, seed: u64, tenants: u32, requests: usize) -> Vec<TimedRequest> {
    let mut trace = generate_trace(
        &TraceConfig {
            seed,
            tenants,
            requests,
            min_keys: 1,
            max_keys: 96,
            offered_load_rps: 8_000.0,
            deadline_s: None,
        },
        r,
    );
    let max = r.max_key().expect("non-empty relation");
    for t in trace.iter_mut().step_by(3) {
        for k in t.request.keys.iter_mut().step_by(2) {
            *k = (*k + 1).min(max);
        }
    }
    trace
}

/// The reference answer to one request: its keys' positions in sorted R.
fn expected(r: &Relation, keys: &[u64]) -> Vec<(u64, u64)> {
    let mut m: Vec<(u64, u64)> = keys
        .iter()
        .filter_map(|&k| r.keys().binary_search(&k).ok().map(|p| (k, p as u64)))
        .collect();
    m.sort_unstable();
    m
}

/// Check one host's responses against the reference. Under `calm` no
/// request may be shed.
fn check_responses(
    host: &str,
    r: &Relation,
    trace: &[TimedRequest],
    responses: &[LookupResponse],
    calm: bool,
) {
    assert_eq!(responses.len(), trace.len(), "{host}: one response each");
    for (i, (t, resp)) in trace.iter().zip(responses).enumerate() {
        assert_eq!(resp.request, i as u64, "{host}: responses by id");
        assert_eq!(resp.tenant, t.request.tenant, "{host}: request {i} tenant");
        if resp.outcome == RequestOutcome::Shed {
            assert!(!calm, "{host}: request {i} shed in a calm run");
            assert!(resp.matches.is_empty(), "{host}: shed request {i} matched");
            continue;
        }
        let mut got = resp.matches.clone();
        got.sort_unstable();
        assert_eq!(
            got,
            expected(r, &t.request.keys),
            "{host}: request {i} matches"
        );
    }
}

/// The reference per-tenant match totals.
fn expected_by_tenant(r: &Relation, trace: &[TimedRequest]) -> BTreeMap<TenantId, usize> {
    let mut by = BTreeMap::new();
    for t in trace {
        *by.entry(t.request.tenant).or_insert(0) += expected(r, &t.request.keys).len();
    }
    by
}

fn cluster_cfg(gpus: usize, sharded: bool) -> ClusterConfig {
    let link = InterconnectSpec::nvlink4_peer();
    ClusterConfig {
        serve: ServeConfig::default(),
        cluster: if sharded {
            ClusterSpec::sharded(gpus, spec(), link)
        } else {
            ClusterSpec::replicated(gpus, spec(), link)
        },
    }
}

/// Serve `trace` on every host and check each against the oracle. With a
/// `loss_seed`, every device (in a cluster, GPU 0: losing it moves the
/// survivor's slice base) is lost for the scenario's outage window.
fn check_all_hosts(r: &Relation, trace: &[TimedRequest], loss_seed: Option<u64>) {
    let calm = loss_seed.is_none();
    let loss = loss_seed.map(|s| ChaosScenario::DeviceLoss.schedule(s));

    let mut gpu = Gpu::new(spec());
    if let Some(schedule) = &loss {
        gpu.set_chaos_schedule(schedule.clone()).unwrap();
    }
    let mut server = Server::new(&mut gpu, ServeConfig::default(), r.clone()).unwrap();
    let out = server.run(&mut gpu, trace).unwrap();
    check_responses("server", r, trace, &out.responses, calm);

    let out =
        serve_tenant_parallel(&spec(), ServeConfig::default(), r, trace, 2, loss.as_ref()).unwrap();
    check_responses("server lanes", r, trace, &out.responses, calm);

    for gpus in [1, 2, 8] {
        for sharded in [true, false] {
            let host = format!("cluster x{gpus} sharded={sharded}");
            let schedules =
                loss_seed.map(|s| ChaosScenario::DeviceLoss.cluster_schedules(s, gpus, 0));
            let mut cluster = ClusterServer::new(cluster_cfg(gpus, sharded), r.clone()).unwrap();
            if let Some(s) = &schedules {
                cluster.set_chaos_schedules(s.clone()).unwrap();
            }
            let out = cluster.run(trace).unwrap();
            check_responses(&host, r, trace, &out.responses, calm);
        }
    }

    // The tuned hosts answer every request (they queue, never shed), so
    // per-tenant match totals must equal the reference's in any run.
    let want = expected_by_tenant(r, trace);
    let tenants: Vec<(TenantId, Relation)> = want.keys().map(|&t| (t, r.clone())).collect();
    let tuned_cfg = TunedConfig {
        batch_keys: 512,
        max_delay_s: 2e-3,
        ..TunedConfig::default()
    };
    let mut tuned = TunedServer::new(spec(), tuned_cfg, tenants.clone(), None).unwrap();
    if let Some(schedule) = &loss {
        tuned
            .gpu_mut()
            .set_chaos_schedule(schedule.clone())
            .unwrap();
    }
    let rep = tuned.run(trace).unwrap();
    let got: BTreeMap<TenantId, usize> = rep
        .per_tenant
        .iter()
        .map(|t| (t.tenant, t.matches))
        .collect();
    assert_eq!(got, want, "tuned: per-tenant matches");

    let out =
        serve_tuned_tenant_parallel(&spec(), tuned_cfg, &tenants, trace, 2, loss.as_ref()).unwrap();
    let got: BTreeMap<TenantId, usize> = out
        .lanes
        .iter()
        .map(|l| (l.tenant, l.report.result_tuples))
        .collect();
    assert_eq!(got, want, "tuned lanes: per-tenant matches");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn every_host_matches_the_oracle_when_calm(
        seed in 0u64..1_000,
        log_r in 12u32..15,
        tenants in 1u32..5,
        requests in 256usize..512,
    ) {
        let r = Relation::unique_sorted(1 << log_r, KeyDistribution::SparseUniform, seed);
        check_all_hosts(&r, &trace_for(&r, seed, tenants, requests), None);
    }
}

proptest! {
    // More cases under loss: a re-shard only exposes a stale slice base
    // when the absorbing survivor has a dispatch in flight at the loss,
    // which about half of these traces arrange.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_host_matches_the_oracle_under_device_loss(
        seed in 0u64..1_000,
        log_r in 12u32..15,
        tenants in 1u32..5,
        requests in 256usize..512,
    ) {
        let r = Relation::unique_sorted(1 << log_r, KeyDistribution::SparseUniform, seed);
        check_all_hosts(&r, &trace_for(&r, seed, tenants, requests), Some(seed));
    }
}
