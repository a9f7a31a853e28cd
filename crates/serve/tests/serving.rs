//! Acceptance tests for the serving layer: the served responses must be
//! *exactly* what an offline run of the query engine would produce, the
//! whole pipeline must be deterministic down to serialized bytes, and the
//! server must degrade (shed, shrink, spill) rather than fail under
//! pressure.

use windex_core::window::{windowed_inlj, WindowConfig};
use windex_core::{QueryExecutor, StreamingWindowJoin};
use windex_index::IndexKind;
use windex_join::ResultSink;
use windex_serve::prelude::*;
use windex_sim::{FaultPlan, RetryPolicy};

fn gpu() -> Gpu {
    Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER))
}

fn relation() -> Relation {
    Relation::unique_sorted(1 << 14, KeyDistribution::SparseUniform, 1)
}

/// Offline reference: run the engine's own windowed operator over the
/// concatenated keys of every request (in arrival order) and map each
/// match back to its request via the concatenation index.
fn offline_matches(
    g: &mut Gpu,
    r: &Relation,
    trace: &[TimedRequest],
    index: IndexKind,
) -> Vec<Vec<(u64, u64)>> {
    let mut concat: Vec<u64> = Vec::new();
    let mut owner: Vec<usize> = Vec::new();
    for (req, t) in trace.iter().enumerate() {
        for &k in &t.request.keys {
            concat.push(k);
            owner.push(req);
        }
    }
    let col = std::rc::Rc::new(g.alloc_host_from_vec(r.keys().to_vec()));
    let built =
        windex_core::BuiltIndex::build(g, index, &col, &windex_core::IndexConfigs::default());
    let bits = QueryExecutor::new().resolve_bits(g, r);
    let s_col = g.alloc_host_from_vec(concat.clone());
    let mut sink = ResultSink::with_capacity(g, concat.len().max(1), MemLocation::Cpu).unwrap();
    let n = concat.len();
    windowed_inlj(
        g,
        built.as_dyn(),
        &s_col,
        0..n,
        WindowConfig {
            window_tuples: 1024,
            bits,
            min_key: r.min_key().unwrap_or(0),
        },
        &mut sink,
    )
    .unwrap();
    let mut per_request = vec![Vec::new(); trace.len()];
    for (concat_idx, pos) in sink.host_pairs() {
        per_request[owner[concat_idx as usize]].push((concat[concat_idx as usize], pos));
    }
    per_request
}

#[test]
fn served_responses_equal_offline_execution() {
    let r = relation();
    let cfg = TraceConfig::default();
    let trace = generate_trace(&cfg, &r);

    let mut g = gpu();
    let expected = offline_matches(&mut g, &r, &trace, IndexKind::RadixSpline);

    let mut g2 = gpu();
    let mut server = Server::new(&mut g2, ServeConfig::default(), r).unwrap();
    let outcome = server.run(&mut g2, &trace).unwrap();

    assert_eq!(outcome.responses.len(), trace.len());
    assert_eq!(outcome.report.shed, 0, "nothing shed under default limits");
    for resp in &outcome.responses {
        assert_eq!(resp.outcome, RequestOutcome::Completed);
        let mut got = resp.matches.clone();
        let mut want = expected[resp.request as usize].clone();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "request {} match set differs", resp.request);
    }
    // The union check in one line: total tuples agree with the offline run.
    assert_eq!(
        outcome.report.result_tuples,
        expected.iter().map(Vec::len).sum::<usize>()
    );
}

#[test]
fn no_cross_tenant_leakage() {
    let r = relation();
    let cfg = TraceConfig {
        tenants: 6,
        ..TraceConfig::default()
    };
    let trace = generate_trace(&cfg, &r);
    let mut g = gpu();
    let mut server = Server::new(&mut g, ServeConfig::default(), r.clone()).unwrap();
    let outcome = server.run(&mut g, &trace).unwrap();
    for resp in &outcome.responses {
        let req = &trace[resp.request as usize].request;
        assert_eq!(resp.tenant, req.tenant, "tenant echo must match");
        // Every key the server sampled exists in R, so every key matches
        // exactly once: the response is complete and contains nothing that
        // the request did not ask for.
        assert_eq!(resp.matches.len(), req.keys.len());
        for &(key, pos) in &resp.matches {
            assert!(
                req.keys.contains(&key),
                "request {} answered with foreign key {key}",
                resp.request
            );
            assert_eq!(r.keys()[pos as usize], key, "index position must match");
        }
    }
}

#[test]
fn same_seed_yields_byte_identical_reports() {
    let run = || {
        let r = relation();
        let trace = generate_trace(&TraceConfig::default(), &r);
        let mut g = gpu();
        let mut server = Server::new(&mut g, ServeConfig::default(), r).unwrap();
        let outcome = server.run(&mut g, &trace).unwrap();
        (
            serde_json::to_string(&outcome.report).unwrap(),
            serde_json::to_string(&outcome.responses).unwrap(),
        )
    };
    let (report_a, responses_a) = run();
    let (report_b, responses_b) = run();
    assert_eq!(report_a, report_b, "reports must be byte-identical");
    assert_eq!(responses_a, responses_b, "responses must be byte-identical");

    // A different seed produces a different trace, hence a different report.
    let r = relation();
    let trace = generate_trace(
        &TraceConfig {
            seed: 99,
            ..TraceConfig::default()
        },
        &r,
    );
    let mut g = gpu();
    let mut server = Server::new(&mut g, ServeConfig::default(), r).unwrap();
    let outcome = server.run(&mut g, &trace).unwrap();
    assert_ne!(serde_json::to_string(&outcome.report).unwrap(), report_a);
}

#[test]
fn shared_batching_beats_per_request_execution() {
    let r = relation();
    // Load high enough that per-request execution cannot hide its fixed
    // per-dispatch costs behind the arrival gaps.
    let cfg = TraceConfig {
        requests: 256,
        offered_load_rps: 50_000.0,
        ..TraceConfig::default()
    };
    let trace = generate_trace(&cfg, &r);

    let mut g1 = gpu();
    let mut shared = Server::new(&mut g1, ServeConfig::default(), r.clone()).unwrap();
    let batched = shared.run(&mut g1, &trace).unwrap().report;

    let mut g2 = gpu();
    let mut solo = Server::new(
        &mut g2,
        ServeConfig {
            policy: BatchPolicy::PerRequest,
            ..ServeConfig::default()
        },
        r,
    )
    .unwrap();
    let per_request = solo.run(&mut g2, &trace).unwrap().report;

    assert!(
        batched.mean_batch_keys > per_request.mean_batch_keys,
        "shared windows must carry more keys: {} vs {}",
        batched.mean_batch_keys,
        per_request.mean_batch_keys
    );
    assert!(
        batched.virtual_makespan_s < per_request.virtual_makespan_s,
        "batched {} s vs per-request {} s",
        batched.virtual_makespan_s,
        per_request.virtual_makespan_s
    );
    assert!(
        batched.latency.p95_s < per_request.latency.p95_s,
        "batched p95 {} s vs per-request p95 {} s",
        batched.latency.p95_s,
        per_request.latency.p95_s
    );
    assert!(batched.keys_per_second > per_request.keys_per_second);
}

#[test]
fn admission_control_sheds_over_the_backpressure_bound() {
    let r = relation();
    let cfg = TraceConfig {
        requests: 128,
        offered_load_rps: 500_000.0, // far beyond service capacity
        ..TraceConfig::default()
    };
    let trace = generate_trace(&cfg, &r);
    let mut g = gpu();
    let mut server = Server::new(
        &mut g,
        ServeConfig {
            max_pending_keys: 256,
            ..ServeConfig::default()
        },
        r,
    )
    .unwrap();
    let outcome = server.run(&mut g, &trace).unwrap();
    assert!(outcome.report.shed > 0, "overload must shed");
    assert!(
        outcome.report.completed > 0,
        "admitted requests still complete"
    );
    assert_eq!(
        outcome.report.completed + outcome.report.shed + outcome.report.deadline_missed,
        trace.len()
    );
    assert!(outcome
        .report
        .events
        .iter()
        .any(|e| matches!(e, ServeEvent::LoadShed { .. })));
    assert!(outcome.report.max_queue_depth_keys <= 256);
    // Shed responses carry no matches.
    for resp in &outcome.responses {
        if resp.outcome == RequestOutcome::Shed {
            assert!(resp.matches.is_empty());
        }
    }
}

#[test]
fn tight_device_budget_shrinks_the_shared_window() {
    let mut spec = GpuSpec::v100_nvlink2(Scale::PAPER);
    spec.page_bytes = 4096;
    // Room for roughly half a 2048-key window of partitioned pairs: the
    // first full dispatch must shrink the window to fit.
    spec.hbm_bytes = 32 * 1024;
    let mut g = Gpu::new(spec);
    let r = relation();
    // Load high enough that shared windows actually fill (the partitioner
    // sizes its device buffers by the dispatched batch, so near-empty
    // windows never feel the budget).
    let trace = generate_trace(
        &TraceConfig {
            offered_load_rps: 200_000.0,
            ..TraceConfig::default()
        },
        &r,
    );
    let mut server = Server::new(
        &mut g,
        ServeConfig {
            index: IndexKind::BinarySearch,
            window_tuples: 2048,
            result_location: MemLocation::Cpu,
            ..ServeConfig::default()
        },
        r.clone(),
    )
    .unwrap();
    let outcome = server.run(&mut g, &trace).unwrap();
    assert!(
        outcome
            .report
            .events
            .iter()
            .any(|e| matches!(e, ServeEvent::WindowShrunk { .. })),
        "events: {:?}",
        outcome.report.events
    );
    assert!(outcome.report.effective_window_tuples < 2048);
    assert_eq!(outcome.report.shed, 0, "degradation, not shedding");
    // Results survive the degradation unchanged.
    let mut g2 = gpu();
    let expected = offline_matches(&mut g2, &r, &trace, IndexKind::BinarySearch);
    for resp in &outcome.responses {
        let mut got = resp.matches.clone();
        let mut want = expected[resp.request as usize].clone();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

#[test]
fn unrecoverable_faults_shed_batches_not_the_server() {
    let r = relation();
    let trace = generate_trace(
        &TraceConfig {
            requests: 32,
            ..TraceConfig::default()
        },
        &r,
    );
    let mut g = gpu();
    let mut server = Server::new(&mut g, ServeConfig::default(), r).unwrap();
    g.set_retry_policy(RetryPolicy {
        max_retries: 1,
        base_backoff_ns: 10,
    });
    g.set_fault_plan(FaultPlan::seeded(3).with_transfer_faults(1.0))
        .expect("valid fault plan");
    let outcome = server.run(&mut g, &trace).unwrap();
    assert_eq!(
        outcome.report.shed,
        trace.len(),
        "every dispatch faults, every request is shed"
    );
    assert!(outcome
        .report
        .events
        .iter()
        .any(|e| matches!(e, ServeEvent::BatchAbandoned { .. })));
    assert!(outcome.report.retries > 0, "retries were attempted first");

    // Lifting the fault plan restores normal service on the same server.
    g.set_fault_plan(FaultPlan::none())
        .expect("valid fault plan");
    let outcome = server.run(&mut g, &trace).unwrap();
    assert_eq!(outcome.report.shed, 0);
    assert_eq!(outcome.report.completed, trace.len());
}

#[test]
fn server_rejects_invalid_configurations() {
    let mut g = gpu();
    let r = relation();
    let invalid = [
        ServeConfig {
            window_tuples: 0,
            ..ServeConfig::default()
        },
        ServeConfig {
            quantum_keys: 0,
            ..ServeConfig::default()
        },
        ServeConfig {
            max_pending_keys: 0,
            ..ServeConfig::default()
        },
        ServeConfig {
            policy: BatchPolicy::Shared { max_delay_s: 0.0 },
            ..ServeConfig::default()
        },
        ServeConfig {
            policy: BatchPolicy::Shared {
                max_delay_s: f64::NAN,
            },
            ..ServeConfig::default()
        },
    ];
    // Both hosts reject every invalid knob with the same error.
    for cfg in invalid {
        let single = Server::new(&mut g, cfg, r.clone()).unwrap_err();
        let cluster = ClusterServer::new(
            ClusterConfig {
                serve: cfg,
                cluster: ClusterSpec::sharded(
                    2,
                    GpuSpec::v100_nvlink2(Scale::PAPER),
                    InterconnectSpec::nvlink4_peer(),
                ),
            },
            r.clone(),
        )
        .unwrap_err();
        assert_eq!(single.to_string(), cluster.to_string(), "{cfg:?}");
    }
    // Unsorted relations cannot be indexed.
    let unsorted = Relation::from_keys(vec![5, 1, 3], false);
    assert!(Server::new(&mut g, ServeConfig::default(), unsorted.clone()).is_err());
    let cfg = ClusterConfig {
        serve: ServeConfig::default(),
        cluster: ClusterSpec::replicated(
            2,
            GpuSpec::v100_nvlink2(Scale::PAPER),
            InterconnectSpec::nvlink4_peer(),
        ),
    };
    assert!(ClusterServer::new(cfg, unsorted).is_err());
}

#[test]
fn deadlines_are_classified_in_virtual_time() {
    let r = relation();
    let trace = generate_trace(
        &TraceConfig {
            requests: 64,
            offered_load_rps: 100_000.0,
            deadline_s: Some(1e-9), // impossible budget
            ..TraceConfig::default()
        },
        &r,
    );
    let mut g = gpu();
    let mut server = Server::new(&mut g, ServeConfig::default(), r).unwrap();
    let outcome = server.run(&mut g, &trace).unwrap();
    assert!(outcome.report.deadline_missed > 0);
    // Deadline-missed responses still carry their (valid) matches.
    for resp in &outcome.responses {
        if resp.outcome == RequestOutcome::DeadlineMissed {
            assert!(!resp.matches.is_empty());
        }
    }
}

/// The streaming operator itself stays usable when driven exactly like the
/// server drives it (reset per dispatch) — a regression guard for the
/// dispatch protocol.
#[test]
fn dispatch_protocol_round_trips_through_the_operator() {
    let mut g = gpu();
    let r = relation();
    let col = std::rc::Rc::new(g.alloc_host_from_vec(r.keys().to_vec()));
    let built = windex_core::BuiltIndex::build(
        &mut g,
        IndexKind::RadixSpline,
        &col,
        &windex_core::IndexConfigs::default(),
    );
    let bits = QueryExecutor::new().resolve_bits(&g, &r);
    let mut op = StreamingWindowJoin::new(
        &mut g,
        WindowConfig {
            window_tuples: 8,
            bits,
            min_key: r.min_key().unwrap(),
        },
    )
    .unwrap();
    let mut sink = ResultSink::with_capacity(&mut g, 64, MemLocation::Cpu).unwrap();
    for round in 0..4u64 {
        op.reset();
        let batch: Vec<(u64, u64)> = (0..5u64)
            .map(|i| (r.keys()[(round * 5 + i) as usize], round * 5 + i))
            .collect();
        op.push(&mut g, built.as_dyn(), &batch, &mut sink).unwrap();
        op.flush_now(&mut g, built.as_dyn(), &mut sink).unwrap();
        assert_eq!(op.stats().windows, 1);
        assert_eq!(sink.len(), 5);
        for (rid, pos) in sink.host_pairs() {
            assert_eq!(r.keys()[pos as usize], r.keys()[rid as usize]);
        }
        sink.clear();
    }
}

// ---------------------------------------------------------------------------
// Chaos: time-correlated fault windows on the serving clock.
// ---------------------------------------------------------------------------

#[test]
fn device_loss_trace_completes_every_request() {
    let r = relation();
    let trace = generate_trace(&TraceConfig::default(), &r);
    let mut g = gpu();
    let mut server = Server::new(&mut g, ServeConfig::default(), r.clone()).unwrap();
    // The DeviceLoss scenario kills the device at 20 ms of serving time;
    // the default trace still has arrivals in flight then.
    g.set_chaos_schedule(windex_sim::ChaosScenario::DeviceLoss.schedule(99))
        .expect("valid schedule");
    let outcome = server.run(&mut g, &trace).unwrap();

    // Every request is answered: recovery, not refusal.
    assert_eq!(outcome.responses.len(), trace.len());
    assert_eq!(outcome.report.shed, 0, "device loss must not shed requests");
    assert_eq!(outcome.report.slo.availability, 1.0);
    let mttrs: Vec<f64> = outcome
        .report
        .events
        .iter()
        .filter_map(|e| match e {
            ServeEvent::DeviceLossRecovered { mttr_s } => Some(*mttr_s),
            _ => None,
        })
        .collect();
    assert!(!mttrs.is_empty(), "a recovery must be recorded");
    for m in &mttrs {
        assert!(
            m.is_finite() && *m > 0.0,
            "MTTR must be finite and positive"
        );
    }
    assert!(
        !g.device_lost(),
        "replacement device is healthy at trace end"
    );

    // Results after recovery equal a calm offline run: the rebuilt index
    // answers exactly like the lost one.
    let mut g2 = gpu();
    let expected = offline_matches(&mut g2, &r, &trace, IndexKind::RadixSpline);
    for resp in &outcome.responses {
        let mut got = resp.matches.clone();
        let mut want = expected[resp.request as usize].clone();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "request {} differs post-recovery", resp.request);
    }
}

#[test]
fn link_flap_is_ridden_out_by_backoff_retries() {
    let r = relation();
    let trace = generate_trace(&TraceConfig::default(), &r);
    let mut g = gpu();
    let mut server = Server::new(&mut g, ServeConfig::default(), r).unwrap();
    // 20 ms of hard-failing transfers starting at t = 20 ms: doubling
    // backoff walks the clock past the window within the attempt budget.
    g.set_chaos_schedule(windex_sim::ChaosScenario::LinkFlap.schedule(99))
        .expect("valid schedule");
    let outcome = server.run(&mut g, &trace).unwrap();
    assert_eq!(outcome.report.shed, 0, "flap is transient; nothing is shed");
    assert_eq!(outcome.report.completed, trace.len());
    assert!(
        outcome
            .report
            .events
            .iter()
            .any(|e| matches!(e, ServeEvent::DispatchRetried { .. })),
        "the flap must surface as dispatch retries"
    );
    assert!(outcome.report.retry.attempts > 0);
    assert!(outcome.report.retry.backoff_s > 0.0);
    assert_eq!(outcome.report.breaker.opens, 0, "retries absorb the flap");
}

#[test]
fn chaos_serving_is_deterministic() {
    let r = relation();
    let trace = generate_trace(&TraceConfig::default(), &r);
    let run = || {
        let mut g = gpu();
        let mut server = Server::new(&mut g, ServeConfig::default(), r.clone()).unwrap();
        g.set_chaos_schedule(windex_sim::ChaosScenario::Combined.schedule(99))
            .expect("valid schedule");
        let outcome = server.run(&mut g, &trace).unwrap();
        (
            serde_json::to_string(&outcome.report).unwrap(),
            render_openmetrics(&outcome.report),
        )
    };
    let (report_a, metrics_a) = run();
    let (report_b, metrics_b) = run();
    assert_eq!(
        report_a, report_b,
        "chaos runs must replay byte-identically"
    );
    assert_eq!(metrics_a, metrics_b);
}

#[test]
fn persistent_faults_trip_the_breaker_and_fast_reject() {
    let r = relation();
    let trace = generate_trace(
        &TraceConfig {
            requests: 96,
            tenants: 1,
            ..TraceConfig::default()
        },
        &r,
    );
    let mut g = gpu();
    // Disable serve-level retries so each faulting dispatch abandons
    // immediately — the breaker then trips while arrivals are still
    // flowing, which is what exercises the fast-reject path.
    let cfg = ServeConfig {
        resilience: ResilienceConfig {
            retry: RetryConfig {
                max_attempts_per_dispatch: 0,
                ..RetryConfig::default()
            },
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut server = Server::new(&mut g, cfg, r).unwrap();
    g.set_retry_policy(RetryPolicy {
        max_retries: 1,
        base_backoff_ns: 10,
    });
    // Every transfer faults, forever: retries exhaust, batches abandon,
    // and the tenant's breaker must open and start fast-rejecting.
    g.set_fault_plan(FaultPlan::seeded(3).with_transfer_faults(1.0))
        .expect("valid fault plan");
    let outcome = server.run(&mut g, &trace).unwrap();
    assert!(outcome.report.breaker.opens > 0, "breaker must trip open");
    assert!(
        outcome.report.breaker.fast_rejects > 0,
        "an open breaker sheds load without touching the device"
    );
    assert!(outcome
        .report
        .events
        .iter()
        .any(|e| matches!(e, ServeEvent::CircuitOpened { .. })));
    assert!(outcome
        .report
        .events
        .iter()
        .any(|e| matches!(e, ServeEvent::CircuitShed { .. })));
    assert!(outcome
        .report
        .events
        .iter()
        .any(|e| matches!(e, ServeEvent::RetriesExhausted { .. })));
    assert_eq!(outcome.report.shed, trace.len(), "no request completes");
    assert!((outcome.report.slo.availability - 0.0).abs() < f64::EPSILON);
}
