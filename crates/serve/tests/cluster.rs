//! Cluster acceptance tests: routing correctness (property-tested),
//! fan-out/merge equivalence with the single-GPU server, device-loss
//! survival with availability 1.0 and finite MTTR, the per-GPU degradation
//! ladder (shrink, spill, retry), and byte-determinism of the serialized
//! cluster report.

use proptest::prelude::*;
use windex_join::PartitionBits;
use windex_serve::jittered_backoff_s;
use windex_serve::prelude::*;
use windex_sim::{ChaosKind, ChaosScenario, ChaosSchedule};

fn v100() -> GpuSpec {
    GpuSpec::v100_nvlink2(Scale::PAPER)
}

fn relation(seed: u64) -> Relation {
    Relation::unique_sorted(1 << 14, KeyDistribution::SparseUniform, seed)
}

fn cluster_cfg(gpus: usize, placement_sharded: bool) -> ClusterConfig {
    let link = InterconnectSpec::nvlink4_peer();
    let cluster = if placement_sharded {
        ClusterSpec::sharded(gpus, v100(), link)
    } else {
        ClusterSpec::replicated(gpus, v100(), link)
    };
    ClusterConfig {
        serve: ServeConfig::default(),
        cluster,
    }
}

fn trace_for(r: &Relation, requests: usize, seed: u64) -> Vec<TimedRequest> {
    generate_trace(
        &TraceConfig {
            seed,
            requests,
            deadline_s: None,
            ..TraceConfig::default()
        },
        r,
    )
}

/// Canonical form of a response's matches: sorted `(key, position)` pairs.
/// Cluster merges arrive per shard, so only the set is defined — but it
/// must be exactly the single-GPU set, positions included.
fn canonical(matches: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut m = matches.to_vec();
    m.sort_unstable();
    m
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

/// Every response answers its request exactly as a binary search over R.
fn assert_oracle_equal(r: &Relation, trace: &[TimedRequest], responses: &[LookupResponse]) {
    assert_eq!(responses.len(), trace.len());
    for (t, resp) in trace.iter().zip(responses) {
        assert_eq!(
            canonical(&resp.matches),
            expected(r, &t.request.keys),
            "request {} match set",
            resp.request
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every key routes to the shard that owns its radix partition, and
    /// contiguous ownership is monotone in the key — the invariant that
    /// makes shard slices contiguous runs of sorted R.
    #[test]
    fn every_key_routes_to_its_partition_owner(
        bits in 2u32..10,
        shift in 0u32..40,
        shards in 1usize..8,
        min_key in 0u64..1_000_000,
        keys in prop_vec(any::<u64>(), 1..64),
    ) {
        let pb = PartitionBits { shift, bits };
        let shards = shards.min(pb.partitions());
        let router = ShardRouter::contiguous(pb, min_key, shards).unwrap();
        for k in keys {
            let key = min_key.saturating_add(k % (1u64 << (shift + bits).min(63)));
            let p = router.partition_of(key);
            prop_assert_eq!(router.shard_of(key), router.owner_of(p));
            prop_assert!(router.shard_of(key) < shards);
        }
        // Ownership is monotone over the partition index (contiguous runs).
        let owners: Vec<usize> = (0..pb.partitions()).map(|p| router.owner_of(p)).collect();
        prop_assert!(owners.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*owners.first().unwrap(), 0);
        prop_assert_eq!(*owners.last().unwrap(), shards - 1);
    }
}

/// Sharded keys land on the shard whose resident slice contains them: the
/// router and the constructor's slice boundaries agree on every key of R.
#[test]
fn router_agrees_with_resident_slices() {
    let r = relation(11);
    let cluster = ClusterServer::new(cluster_cfg(4, true), r.clone()).unwrap();
    let router = cluster.router();
    let keys = r.keys();
    let mut boundaries = vec![0usize];
    for shard in 0..4 {
        boundaries.push(keys.partition_point(|&k| router.shard_of(k) <= shard));
    }
    assert_eq!(boundaries[4], keys.len(), "every key owned by some shard");
    for (i, &k) in keys.iter().enumerate() {
        let s = router.shard_of(k);
        assert!(boundaries[s] <= i && i < boundaries[s + 1]);
    }
}

/// Fan-out/merge over the cluster returns exactly the single-GPU results:
/// same outcomes, same match sets, same global positions — for both a
/// sharded and a replicated 4-GPU cluster.
#[test]
fn cluster_matches_single_gpu_server() {
    let r = relation(3);
    let trace = trace_for(&r, 192, 17);

    // Force identical partition bits so probe semantics match exactly.
    let cfg4 = cluster_cfg(4, true);
    let bits = cfg4.cluster.shard_bits(&r).unwrap();
    let serve = ServeConfig {
        partition_bits: Some(bits),
        ..ServeConfig::default()
    };

    let mut gpu = Gpu::new(v100());
    let mut single = Server::new(&mut gpu, serve, r.clone()).unwrap();
    let baseline = single.run(&mut gpu, &trace).unwrap();
    assert_eq!(baseline.report.shed, 0, "baseline must shed nothing");

    for sharded in [true, false] {
        let mut cfg = cluster_cfg(4, sharded);
        cfg.serve = serve;
        let mut cluster = ClusterServer::new(cfg, r.clone()).unwrap();
        let outcome = cluster.run(&trace).unwrap();
        assert_eq!(outcome.responses.len(), baseline.responses.len());
        for (c, b) in outcome.responses.iter().zip(&baseline.responses) {
            assert_eq!(c.request, b.request);
            assert_eq!(c.outcome, b.outcome, "request {} outcome", c.request);
            assert_eq!(
                canonical(&c.matches),
                canonical(&b.matches),
                "request {} match set (sharded={sharded})",
                c.request
            );
        }
        assert_eq!(
            outcome.report.result_tuples, baseline.report.result_tuples,
            "total matches preserved (sharded={sharded})"
        );
        if sharded {
            assert!(
                outcome.report.cross_shard_requests > 0,
                "multi-key requests over 4 shards must fan out"
            );
        } else {
            assert_eq!(outcome.report.cross_shard_requests, 0);
        }
    }
}

/// Losing one specific GPU mid-trace under sharded placement: the cluster
/// re-shards the lost partitions onto an adjacent survivor, answers every
/// request (availability 1.0), and reports a finite positive MTTR.
#[test]
fn sharded_cluster_survives_targeted_device_loss() {
    let r = relation(5);
    // Enough offered load that dispatches are in flight inside the
    // DeviceLoss window [0.020 s, 0.035 s).
    let trace = generate_trace(
        &TraceConfig {
            seed: 23,
            requests: 512,
            offered_load_rps: 8_000.0,
            deadline_s: None,
            ..TraceConfig::default()
        },
        &r,
    );
    let mut cluster = ClusterServer::new(cluster_cfg(4, true), r).unwrap();
    cluster
        .set_chaos_schedules(ChaosScenario::DeviceLoss.cluster_schedules(40, 4, 1))
        .unwrap();
    let outcome = cluster.run(&trace).unwrap();
    let rep = &outcome.report;
    assert_eq!(rep.alive_gpus, 3, "exactly GPU 1 lost");
    assert!(!rep.per_shard[1].alive);
    assert!(rep.reshards >= 1, "device loss absorbed by re-sharding");
    assert_eq!(rep.failovers, 0, "sharded placement never fails over");
    assert!(
        rep.mttr_total_s.is_finite() && rep.mttr_total_s > 0.0,
        "finite positive MTTR, got {}",
        rep.mttr_total_s
    );
    assert_eq!(rep.shed, 0, "no request shed");
    assert_eq!(
        rep.slo.availability, 1.0,
        "availability 1.0 through the loss"
    );
    assert_eq!(rep.completed + rep.deadline_missed, rep.requests);
    // The survivor that absorbed the partitions now owns the lost slice.
    let absorbed: usize = rep
        .per_shard
        .iter()
        .filter(|s| s.alive)
        .map(|s| s.tuples)
        .sum();
    assert_eq!(absorbed, cluster.relation().len(), "R fully servable");
}

/// Losing GPU 0 is the hard re-shard direction: the absorbing survivor's
/// slice grows *downward* (its base offset `lo` drops to 0), and a dispatch
/// already in flight on that survivor was computed against the old slice.
/// Delivered global match positions must still be exactly the single-GPU
/// server's — the base must be the dispatch-time offset, not the post-
/// re-shard one.
#[test]
fn losing_gpu_zero_keeps_global_match_positions() {
    let r = relation(5);
    let trace = generate_trace(
        &TraceConfig {
            seed: 23,
            requests: 512,
            offered_load_rps: 8_000.0,
            deadline_s: None,
            ..TraceConfig::default()
        },
        &r,
    );
    let cfg = cluster_cfg(4, true);
    let bits = cfg.cluster.shard_bits(&r).unwrap();
    let serve = ServeConfig {
        partition_bits: Some(bits),
        ..ServeConfig::default()
    };

    let mut gpu = Gpu::new(v100());
    let mut single = Server::new(&mut gpu, serve, r.clone()).unwrap();
    let baseline = single.run(&mut gpu, &trace).unwrap();
    assert_eq!(baseline.report.shed, 0, "baseline must shed nothing");

    let mut cfg = cluster_cfg(4, true);
    cfg.serve = serve;
    let mut cluster = ClusterServer::new(cfg, r).unwrap();
    cluster
        .set_chaos_schedules(ChaosScenario::DeviceLoss.cluster_schedules(40, 4, 0))
        .unwrap();
    let outcome = cluster.run(&trace).unwrap();
    let rep = &outcome.report;
    assert!(!rep.per_shard[0].alive, "GPU 0 lost");
    assert!(rep.reshards >= 1, "loss absorbed by re-sharding");
    assert_eq!(rep.shed, 0);
    assert_eq!(rep.slo.availability, 1.0);
    for (c, b) in outcome.responses.iter().zip(&baseline.responses) {
        assert_eq!(c.request, b.request);
        assert_eq!(
            canonical(&c.matches),
            canonical(&b.matches),
            "request {} global match positions after losing GPU 0",
            c.request
        );
    }
}

/// Replication never shards, so a replicated cluster must construct and
/// serve relations whose key domain is too small to give every GPU a
/// partition — down to a single key — while sharded placement keeps
/// rejecting them.
#[test]
fn replicated_cluster_serves_tiny_domains() {
    for keys in [vec![42u64], vec![7, 8, 9]] {
        let r = Relation::from_keys(keys.clone(), true);
        if keys.len() == 1 {
            // A single-key domain cannot give every GPU a partition.
            assert!(
                ClusterServer::new(cluster_cfg(4, true), r.clone()).is_err(),
                "sharding still rejects a single-key domain"
            );
        }
        let mut cluster = ClusterServer::new(cluster_cfg(4, false), r).unwrap();
        let trace: Vec<TimedRequest> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| TimedRequest {
                at_s: i as f64 * 1e-3,
                request: LookupRequest {
                    tenant: 0,
                    // One hit and one miss per request.
                    keys: vec![k, k + 1_000],
                    deadline: None,
                },
            })
            .collect();
        let outcome = cluster.run(&trace).unwrap();
        assert_eq!(outcome.report.shed, 0);
        assert_eq!(outcome.report.completed, keys.len());
        for (resp, &k) in outcome.responses.iter().zip(&keys) {
            let hits: Vec<u64> = resp.matches.iter().map(|&(key, _)| key).collect();
            assert_eq!(hits, vec![k], "exactly the resident key matches");
        }
    }
}

/// The same targeted loss under replicated placement fails over to a
/// surviving replica instead of re-sharding.
#[test]
fn replicated_cluster_fails_over_on_device_loss() {
    let r = relation(5);
    let trace = generate_trace(
        &TraceConfig {
            seed: 29,
            requests: 512,
            offered_load_rps: 8_000.0,
            deadline_s: None,
            ..TraceConfig::default()
        },
        &r,
    );
    let mut cluster = ClusterServer::new(cluster_cfg(4, false), r).unwrap();
    cluster
        .set_chaos_schedules(ChaosScenario::DeviceLoss.cluster_schedules(41, 4, 2))
        .unwrap();
    let outcome = cluster.run(&trace).unwrap();
    let rep = &outcome.report;
    assert_eq!(rep.alive_gpus, 3);
    assert!(rep.failovers >= 1, "replica absorbed the lost GPU's queue");
    assert_eq!(rep.reshards, 0, "replication never re-shards");
    assert!(rep.mttr_total_s.is_finite() && rep.mttr_total_s > 0.0);
    assert_eq!(rep.shed, 0);
    assert_eq!(rep.slo.availability, 1.0);
    assert!(rep
        .events
        .iter()
        .any(|e| matches!(e, ClusterEvent::FailedOver { gpu: 2, .. })));
}

/// Same seed ⇒ byte-identical serialized report and identical responses,
/// across freshly built clusters — including under chaos.
#[test]
fn cluster_reports_are_byte_deterministic() {
    let r = relation(7);
    let trace = trace_for(&r, 256, 31);
    let run = |chaos: bool| {
        let mut cluster = ClusterServer::new(cluster_cfg(4, true), r.clone()).unwrap();
        if chaos {
            cluster
                .set_chaos_schedules(ChaosScenario::DeviceLoss.cluster_schedules(40, 4, 1))
                .unwrap();
        }
        let outcome = cluster.run(&trace).unwrap();
        (
            serde_json::to_string(&outcome.report).unwrap(),
            render_cluster_openmetrics(&outcome.report),
            outcome.responses,
        )
    };
    for chaos in [false, true] {
        let (a_json, a_text, a_resp) = run(chaos);
        let (b_json, b_text, b_resp) = run(chaos);
        assert_eq!(a_json, b_json, "report bytes (chaos={chaos})");
        assert_eq!(a_text, b_text, "metrics bytes (chaos={chaos})");
        assert_eq!(a_resp.len(), b_resp.len());
        for (x, y) in a_resp.iter().zip(&b_resp) {
            assert_eq!(x.matches, y.matches);
            assert_eq!(x.completed_s, y.completed_s);
        }
    }
}

/// Aggregate throughput scales: more GPUs never slow the cluster down, and
/// 8 GPUs beat 1 by a real margin under saturating load.
#[test]
fn aggregate_throughput_scales_with_gpus() {
    let r = relation(13);
    let trace = generate_trace(
        &TraceConfig {
            seed: 37,
            requests: 384,
            offered_load_rps: 50_000.0,
            deadline_s: None,
            ..TraceConfig::default()
        },
        &r,
    );
    let mut rps = Vec::new();
    for gpus in [1usize, 2, 4, 8] {
        let mut cluster = ClusterServer::new(cluster_cfg(gpus, true), r.clone()).unwrap();
        let outcome = cluster.run(&trace).unwrap();
        assert_eq!(outcome.report.shed, 0);
        rps.push(outcome.report.completed_rps);
    }
    for w in rps.windows(2) {
        assert!(
            w[1] >= w[0] * 0.99,
            "throughput must not regress with more GPUs: {rps:?}"
        );
    }
    assert!(
        rps[3] > rps[0] * 1.5,
        "8 GPUs should clearly beat 1 under saturating load: {rps:?}"
    );
}

/// A device budget too small for a 2048-key window walks every busy shard
/// down the per-GPU ladder: the window halves to the 32-key floor, then the
/// sink spills to CPU memory. Nothing is shed and every answer is exact,
/// on one GPU and on four.
#[test]
fn tight_hbm_cluster_shrinks_windows_then_spills_sinks() {
    let r = relation(3);
    // Load high enough that shared windows fill and feel the budget.
    let trace = generate_trace(
        &TraceConfig {
            offered_load_rps: 200_000.0,
            deadline_s: None,
            ..TraceConfig::default()
        },
        &r,
    );
    let mut spec = v100();
    spec.page_bytes = 4096;
    spec.hbm_bytes = 32 * 1024;
    for gpus in [1usize, 4] {
        let cfg = ClusterConfig {
            serve: ServeConfig {
                index: IndexKind::BinarySearch,
                window_tuples: 2048,
                ..ServeConfig::default()
            },
            cluster: ClusterSpec::sharded(gpus, spec.clone(), InterconnectSpec::nvlink4_peer()),
        };
        let outcome = ClusterServer::new(cfg, r.clone())
            .unwrap()
            .run(&trace)
            .unwrap();
        let events = &outcome.report.events;
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ClusterEvent::ShardWindowShrunk { .. })),
            "{gpus} GPUs: events {events:?}"
        );
        for (i, e) in events.iter().enumerate() {
            if let ClusterEvent::ShardSinkSpilled { gpu } = e {
                assert!(
                    events[..i].iter().any(|p| matches!(
                        p,
                        ClusterEvent::ShardWindowShrunk { gpu: g, to: 32, .. } if g == gpu
                    )),
                    "{gpus} GPUs: GPU {gpu} spilled before its window hit the floor"
                );
            }
        }
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ClusterEvent::ShardSinkSpilled { .. })),
            "{gpus} GPUs: events {events:?}"
        );
        assert_eq!(outcome.report.shed, 0, "{gpus} GPUs: degrade, not shed");
        assert_oracle_equal(&r, &trace, &outcome.responses);
        // The exposition counts both rungs per GPU, as the events do.
        let mut expected = vec![(0, 0); gpus];
        for e in events {
            match e {
                ClusterEvent::ShardWindowShrunk { gpu, .. } => expected[*gpu].0 += 1,
                ClusterEvent::ShardSinkSpilled { gpu } => expected[*gpu].1 += 1,
                _ => {}
            }
        }
        let text = render_cluster_openmetrics(&outcome.report);
        let shrinks = rung_samples(&text, "windex_window_shrinks", gpus);
        let spills = rung_samples(&text, "windex_sink_spills", gpus);
        let rendered: Vec<_> = shrinks.into_iter().zip(spills).collect();
        assert_eq!(rendered, expected, "{gpus} GPUs: (shrinks, spills) per GPU");
    }
}

/// The per-GPU samples of the counter family `name` in a cluster
/// exposition, in GPU order.
fn rung_samples(text: &str, name: &str, gpus: usize) -> Vec<u64> {
    (0..gpus)
        .map(|gpu| {
            let series = format!("{name}_total{{host=\"cluster\",gpu=\"{gpu}\"}} ");
            let line = text.lines().find_map(|l| l.strip_prefix(series.as_str()));
            line.and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no sample `{series}` in\n{text}"))
        })
        .collect()
}

/// A link flap on a serving GPU fails its transfers for 20 ms; jittered
/// backoff retries walk the dispatch past the window, so nothing is shed
/// and every answer is exact, on one GPU and on the flapping shard of four.
#[test]
fn link_flap_on_the_served_gpu_is_ridden_out_by_retries() {
    let r = relation(5);
    let trace = generate_trace(
        &TraceConfig {
            seed: 23,
            requests: 512,
            offered_load_rps: 8_000.0,
            deadline_s: None,
            ..TraceConfig::default()
        },
        &r,
    );
    for (gpus, flapping) in [(1usize, 0usize), (4, 1)] {
        let mut cluster = ClusterServer::new(cluster_cfg(gpus, true), r.clone()).unwrap();
        cluster
            .set_chaos_schedules(ChaosScenario::LinkFlap.cluster_schedules(40, gpus, flapping))
            .unwrap();
        let outcome = cluster.run(&trace).unwrap();
        let rep = &outcome.report;
        assert!(
            rep.events.iter().any(
                |e| matches!(e, ClusterEvent::DispatchRetried { gpu, .. } if *gpu == flapping)
            ),
            "{gpus} GPUs: the flap must surface as retries on GPU {flapping}"
        );
        assert!(
            !rep.events.iter().any(|e| matches!(
                e,
                ClusterEvent::RetriesExhausted { .. } | ClusterEvent::BatchAbandoned { .. }
            )),
            "{gpus} GPUs: retries absorb the flap"
        );
        assert_eq!(rep.shed, 0, "{gpus} GPUs: flap is transient");
        assert_eq!(rep.slo.availability, 1.0);
        assert_oracle_equal(&r, &trace, &outcome.responses);
        let mut expected = vec![0; gpus];
        for e in &rep.events {
            if let ClusterEvent::DispatchRetried { gpu, .. } = e {
                expected[*gpu] += 1;
            }
        }
        let text = render_cluster_openmetrics(rep);
        let retries = rung_samples(&text, "windex_dispatch_retries", gpus);
        assert_eq!(retries, expected, "{gpus} GPUs: retries per GPU");
    }
}

/// A failed attempt consumes device time, so its redrive starts after the
/// attempt's estimate plus the backoff. One request meets a link flap that
/// closes after the first backoff alone but before the first attempt's
/// estimate plus that backoff: the single-GPU server and a 1-GPU cluster
/// must then retry equally often and answer with the same latency.
#[test]
fn redrive_clock_counts_failed_attempts_like_the_server() {
    let r = relation(3);
    let spec = ClusterSpec::sharded(1, v100(), InterconnectSpec::nvlink4_peer());
    let serve = ServeConfig {
        policy: BatchPolicy::PerRequest,
        partition_bits: Some(spec.shard_bits(&r).unwrap()),
        ..ServeConfig::default()
    };
    let at_s = 1e-3;
    let keys: Vec<u64> = r.keys().iter().step_by(97).copied().take(64).collect();
    let trace = vec![TimedRequest {
        at_s,
        request: LookupRequest {
            tenant: 0,
            keys: keys.clone(),
            deadline: None,
        },
    }];
    let flap = |end_s: f64| ChaosSchedule::seeded(1).with_window(ChaosKind::LinkFlap, 0.0, end_s);
    let serve_single = |cfg: ServeConfig, end_s: f64| {
        let mut gpu = Gpu::new(v100());
        let mut server = Server::new(&mut gpu, cfg, r.clone()).unwrap();
        gpu.set_chaos_schedule(flap(end_s)).unwrap();
        server.run(&mut gpu, &trace).unwrap()
    };

    // The first attempt's estimate: a flap that never clears, no retries.
    let mut no_retry = serve;
    no_retry.resilience.retry.max_attempts_per_dispatch = 0;
    let est1 = serve_single(no_retry, 1.0).report.batches[0].est_s;
    assert!(est1 > 0.0, "a failed attempt still costs device time");
    let b1 = jittered_backoff_s(&serve.resilience.retry, 0, 0);
    let end_s = at_s + b1 + est1 / 2.0;

    let single = serve_single(serve, end_s);
    let mut cluster = ClusterServer::new(
        ClusterConfig {
            serve,
            cluster: spec,
        },
        r.clone(),
    )
    .unwrap();
    cluster.set_chaos_schedules(vec![flap(end_s)]).unwrap();
    let multi = cluster.run(&trace).unwrap();

    let single_retries = single
        .report
        .events
        .iter()
        .filter(|e| matches!(e, ServeEvent::DispatchRetried { .. }))
        .count();
    let cluster_retries = multi
        .report
        .events
        .iter()
        .filter(|e| matches!(e, ClusterEvent::DispatchRetried { .. }))
        .count();
    assert_eq!(single_retries, 1, "the flap is over by the first redrive");
    assert_eq!(cluster_retries, single_retries, "retry count");
    assert_eq!(multi.responses[0].outcome, RequestOutcome::Completed);
    assert_eq!(
        multi.responses[0].latency_s, single.responses[0].latency_s,
        "latency"
    );
    assert_oracle_equal(&r, &trace, &multi.responses);
}

/// The in-place recovery allowance is per run on both hosts: a 1-GPU
/// cluster and the single-GPU server each recover from the DeviceLoss
/// window of every one of five consecutive runs without shedding.
#[test]
fn device_loss_recovery_allowance_is_per_run() {
    let r = relation(5);
    let trace = generate_trace(
        &TraceConfig {
            seed: 23,
            requests: 512,
            offered_load_rps: 8_000.0,
            deadline_s: None,
            ..TraceConfig::default()
        },
        &r,
    );
    let mut cluster = ClusterServer::new(cluster_cfg(1, true), r.clone()).unwrap();
    cluster
        .set_chaos_schedules(ChaosScenario::DeviceLoss.cluster_schedules(40, 1, 0))
        .unwrap();
    let mut gpu = Gpu::new(v100());
    let mut server = Server::new(&mut gpu, ServeConfig::default(), r).unwrap();
    gpu.set_chaos_schedule(ChaosScenario::DeviceLoss.schedule(40))
        .unwrap();
    for run in 0..5 {
        let rep = cluster.run(&trace).unwrap().report;
        assert_eq!(rep.recoveries, 1, "cluster run {run}");
        assert_eq!(rep.shed, 0, "cluster run {run}");
        let rep = server.run(&mut gpu, &trace).unwrap().report;
        let recoveries = rep
            .events
            .iter()
            .filter(|e| matches!(e, ServeEvent::DeviceLossRecovered { .. }))
            .count();
        assert_eq!(recoveries, 1, "server run {run}");
        assert_eq!(rep.shed, 0, "server run {run}");
    }
}

/// A 1-GPU cluster's in-place rebuild happens inside the dispatch that met
/// the loss, so the shard's busy time counts it once: one request arriving
/// inside the DeviceLoss window keeps its shard busy for exactly its
/// service interval, which the trace's makespan contains.
#[test]
fn in_place_rebuild_counts_once_in_shard_busy_time() {
    let r = relation(7);
    let spec = ClusterSpec::sharded(1, v100(), InterconnectSpec::nvlink4_peer());
    let serve = ServeConfig {
        policy: BatchPolicy::PerRequest,
        partition_bits: Some(spec.shard_bits(&r).unwrap()),
        ..ServeConfig::default()
    };
    let schedules = ChaosScenario::DeviceLoss.cluster_schedules(40, 1, 0);
    let at_s = 0.025;
    assert!(schedules[0].activity_at(at_s).device_lost);
    let trace = vec![TimedRequest {
        at_s,
        request: LookupRequest {
            tenant: 0,
            keys: r.keys().iter().step_by(131).copied().take(64).collect(),
            deadline: None,
        },
    }];
    let mut cluster = ClusterServer::new(
        ClusterConfig {
            serve,
            cluster: spec,
        },
        r.clone(),
    )
    .unwrap();
    cluster.set_chaos_schedules(schedules).unwrap();
    let out = cluster.run(&trace).unwrap();
    let rep = &out.report;
    assert_eq!(rep.recoveries, 1, "the dispatch met the loss");
    assert_eq!(rep.per_shard[0].dispatches, 1);
    let busy_s = rep.per_shard[0].busy_s;
    let service_s = rep.traces[0].stages.service_s;
    assert!(
        (busy_s - service_s).abs() <= 1e-12,
        "busy {busy_s} s vs the one dispatch's service interval {service_s} s"
    );
    assert!(
        busy_s <= rep.virtual_makespan_s,
        "busy {busy_s} s exceeds makespan {} s",
        rep.virtual_makespan_s
    );
    assert_oracle_equal(&r, &trace, &out.responses);
}
