//! Phase-observability integration tests (tier 1).
//!
//! The span-sum invariant is the contract of the whole observability layer:
//! the per-phase counter deltas recorded for a run must partition the run's
//! total counter delta — `phases.counter_sum() == counters` and
//! `phases.total == counters` — with nothing double-counted and nothing
//! lost. These tests pin that invariant across every join strategy, for the
//! streaming operator, for the serving layer, and — crucially — under
//! injected faults, retries, and memory-pressure degradation, where the
//! retried/degraded activity must stay attributed to the phase that
//! performed it.

use std::rc::Rc;
use windex::prelude::*;
use windex_join::ResultSink;
use windex_sim::{FaultPlan, PhaseStats};

fn workload() -> (Relation, Relation) {
    let r = Relation::unique_sorted(1 << 13, KeyDistribution::Dense, 31);
    let s = Relation::foreign_keys_uniform(&r, 1 << 10, 32);
    (r, s)
}

fn gpu() -> Gpu {
    Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER))
}

fn phase_names(phases: &PhaseBreakdown) -> Vec<&'static str> {
    phases.phases.iter().map(|p: &PhaseStats| p.phase).collect()
}

/// Span-sum invariant for every strategy the executor offers, fault-free.
#[test]
fn every_strategy_report_partitions_its_counters() {
    let (r, s) = workload();
    let strategies = [
        JoinStrategy::HashJoin,
        JoinStrategy::Inlj {
            index: IndexKind::BinarySearch,
        },
        JoinStrategy::Inlj {
            index: IndexKind::RadixSpline,
        },
        JoinStrategy::PartitionedInlj {
            index: IndexKind::BPlusTree,
        },
        JoinStrategy::WindowedInlj {
            index: IndexKind::Harmonia,
            window_tuples: 256,
        },
        JoinStrategy::WindowedInlj {
            index: IndexKind::RadixSpline,
            window_tuples: 256,
        },
    ];
    for st in strategies {
        let mut g = gpu();
        let report = QueryExecutor::new().run(&mut g, &r, &s, st).unwrap();
        assert_eq!(
            report.phases.counter_sum(),
            report.counters,
            "{st}: per-phase deltas must sum to the run total"
        );
        assert_eq!(
            report.phases.total, report.counters,
            "{st}: breakdown total must be the run delta"
        );
        assert!(report.phases.total_est_s > 0.0, "{st}");
        let names = phase_names(&report.phases);
        assert!(names.contains(&phase::LOOKUP), "{st}: phases {names:?}");
        // The lookup phase carries the probes: it must own all counted
        // lookups and the dominant share of estimated time.
        let lookup = report.phases.get(phase::LOOKUP).unwrap();
        assert_eq!(lookup.counters.lookups, report.counters.lookups, "{st}");
        assert!(
            report.phases.share(phase::LOOKUP) > 0.5,
            "{st}: lookup share {}",
            report.phases.share(phase::LOOKUP)
        );
    }
}

/// The windowed strategy additionally exposes a per-window timeline that
/// tiles the probe stream: every key, match, and lookup lands in exactly
/// one window span.
#[test]
fn window_timeline_tiles_the_probe_stream() {
    let (r, s) = workload();
    let mut g = gpu();
    let report = QueryExecutor::new()
        .run(
            &mut g,
            &r,
            &s,
            JoinStrategy::WindowedInlj {
                index: IndexKind::RadixSpline,
                window_tuples: 256,
            },
        )
        .unwrap();
    assert_eq!(report.window_timeline.len(), report.windows);
    assert_eq!(
        report.window_timeline.iter().map(|w| w.keys).sum::<usize>(),
        s.len()
    );
    assert_eq!(
        report
            .window_timeline
            .iter()
            .map(|w| w.matches)
            .sum::<usize>(),
        report.result_tuples
    );
    assert_eq!(
        report
            .window_timeline
            .iter()
            .map(|w| w.counters.lookups)
            .sum::<u64>(),
        report.counters.lookups,
        "all lookups happen inside windows"
    );
    for (i, w) in report.window_timeline.iter().enumerate() {
        assert_eq!(w.window, i, "timeline is in dispatch order");
        assert!(w.est_s > 0.0);
    }
    // Non-windowed plans report an empty timeline, not a stale one.
    let mut g = gpu();
    let flat = QueryExecutor::new()
        .run(&mut g, &r, &s, JoinStrategy::HashJoin)
        .unwrap();
    assert!(flat.window_timeline.is_empty());
    assert_eq!(flat.windows, 0);
}

/// Injected faults force retries; the retried activity must stay inside
/// the phase that performed it and the span-sum invariant must survive.
#[test]
fn span_sum_invariant_holds_under_faults_and_retries() {
    let (r, s) = workload();
    let mut g = gpu();
    g.set_fault_plan(
        FaultPlan::seeded(77)
            .with_launch_failures(0.10)
            .with_transfer_faults(5e-5),
    )
    .expect("valid fault plan");
    let mut sess = QuerySession::new(&mut g, QueryExecutor::new(), r, s).unwrap();
    let report = sess
        .run(
            &mut g,
            JoinStrategy::WindowedInlj {
                index: IndexKind::BinarySearch,
                window_tuples: 256,
            },
        )
        .unwrap();
    assert!(report.retries > 0, "fault mix must force retries");
    assert_eq!(report.phases.counter_sum(), report.counters);
    assert_eq!(report.phases.total, report.counters);
    // Fault events are counters too — they must be attributed, not lost.
    let attributed_faults: u64 = report
        .phases
        .phases
        .iter()
        .map(|p| p.counters.faults_launch)
        .sum();
    assert_eq!(attributed_faults, report.counters.faults_launch);
    assert!(report.counters.faults_launch > 0);
}

/// Memory pressure walks the degradation ladder (window shrinks, spills);
/// each retry attempt re-records from scratch, so the reported breakdown
/// still partitions exactly the *successful* attempt's delta plus the
/// ladder's own activity.
#[test]
fn span_sum_invariant_holds_under_degradation() {
    let r = Relation::unique_sorted(1 << 12, KeyDistribution::Dense, 41);
    let s = Relation::foreign_keys_uniform(&r, 1 << 9, 42);
    let mut spec = GpuSpec::v100_nvlink2(Scale::PAPER);
    spec.page_bytes = 4096;
    spec.hbm_bytes = 16 * 1024; // tight: forces shrinks/spills
    let mut g = Gpu::new(spec);
    let mut sess = QuerySession::new(&mut g, QueryExecutor::new(), r, s.clone()).unwrap();
    let report = sess
        .run(
            &mut g,
            JoinStrategy::WindowedInlj {
                index: IndexKind::BinarySearch,
                window_tuples: 512,
            },
        )
        .unwrap();
    assert!(
        !report.degradations.is_empty(),
        "16 KiB budget must degrade: {:?}",
        report.degradations
    );
    assert_eq!(report.result_tuples, s.len());
    assert_eq!(report.phases.counter_sum(), report.counters);
    assert_eq!(report.phases.total, report.counters);
}

/// The streaming operator's recorder and timeline agree with each other
/// and with the device counters, including when faults are being retried
/// mid-stream.
#[test]
fn streaming_join_observability_under_faults() {
    let (r, s) = workload();
    let mut g = gpu();
    g.set_fault_plan(FaultPlan::seeded(9).with_launch_failures(0.05))
        .expect("valid fault plan");
    let r_col = Rc::new(g.alloc_host_from_vec(r.keys().to_vec()));
    let idx = windex_index::BinarySearchIndex::new(r_col);
    let cfg = WindowConfig {
        window_tuples: 256,
        bits: PartitionBits { shift: 4, bits: 8 },
        min_key: 0,
    };
    let mut sink = ResultSink::with_capacity(&mut g, s.len(), MemLocation::Gpu).unwrap();
    let mut op = StreamingWindowJoin::new(&mut g, cfg).unwrap();
    op.set_phase_recorder(Some(PhaseRecorder::start(&mut g)));
    let batch: Vec<(u64, u64)> = s
        .keys()
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .collect();
    for chunk in batch.chunks(100) {
        op.push(&mut g, &idx, chunk, &mut sink).unwrap();
    }
    op.finish(&mut g, &idx, &mut sink).unwrap();
    let stats = op.stats();
    let timeline = op.timeline().to_vec();
    let bd = op
        .take_phase_recorder()
        .map(|rec| rec.finish(&mut g))
        .unwrap();

    assert_eq!(timeline.len(), stats.windows);
    assert_eq!(timeline.iter().map(|w| w.keys).sum::<usize>(), s.len());
    assert_eq!(
        timeline.iter().map(|w| w.matches).sum::<usize>(),
        stats.matches
    );
    // Recorder total == sum of window deltas: the operator does no counted
    // work outside flushes, and faulted/retried flush activity stays inside
    // the window that performed it.
    let mut tiled = Counters::default();
    for w in &timeline {
        tiled = tiled + w.counters;
    }
    assert_eq!(bd.counter_sum(), bd.total);
    assert_eq!(bd.total, tiled);
    let names = phase_names(&bd);
    assert!(names.contains(&phase::PARTITION), "{names:?}");
    assert!(names.contains(&phase::LOOKUP), "{names:?}");
    assert!(!names.contains(&phase::OTHER), "{names:?}");
}

/// The serving layer's report carries the same invariant: the trace's
/// counter delta is partitioned across phases, and the per-batch timeline
/// covers every dispatched window.
#[test]
fn server_report_partitions_its_counters() {
    let mut g = gpu();
    let r = Relation::unique_sorted(1 << 13, KeyDistribution::SparseUniform, 1);
    let trace = generate_trace(
        &TraceConfig {
            requests: 96,
            ..TraceConfig::default()
        },
        &r,
    );
    let mut server = Server::new(&mut g, ServeConfig::default(), r).unwrap();
    let outcome = server.run(&mut g, &trace).unwrap();
    let rep = &outcome.report;
    assert!(rep.completed > 0);
    assert_eq!(rep.phases.counter_sum(), rep.counters);
    assert_eq!(rep.phases.total, rep.counters);
    assert!(!rep.batches.is_empty());
    assert_eq!(
        rep.batches
            .iter()
            .filter(|b| b.completed)
            .map(|b| b.windows)
            .sum::<usize>(),
        rep.window.windows,
        "completed batch spans must cover every dispatched window"
    );
    assert_eq!(
        rep.batches.iter().map(|b| b.keys).sum::<usize>(),
        rep.keys_probed
    );
    assert_eq!(rep.latency.dropped, 0, "virtual clock must stay finite");
}

/// Observability is part of the report, so it must be as deterministic as
/// the rest of it: same seed ⇒ byte-identical serialized breakdowns, even
/// with faults injected.
#[test]
fn phase_breakdowns_are_deterministic() {
    let run = || {
        let (r, s) = workload();
        let mut g = gpu();
        g.set_fault_plan(FaultPlan::seeded(5).with_launch_failures(0.05))
            .expect("valid fault plan");
        let mut sess = QuerySession::new(&mut g, QueryExecutor::new(), r, s).unwrap();
        let report = sess
            .run(
                &mut g,
                JoinStrategy::WindowedInlj {
                    index: IndexKind::RadixSpline,
                    window_tuples: 512,
                },
            )
            .unwrap();
        (
            serde_json::to_string(&report.phases).unwrap(),
            serde_json::to_string(&report.window_timeline).unwrap(),
        )
    };
    assert_eq!(run(), run());
}

/// The span-sum and counter-reconciliation invariants must survive every
/// chaos scenario: brownout repricing, flap-driven serve retries, ECC
/// refetches, and the device-loss recovery path (which rebuilds the index
/// and operator mid-trace) all have to stay attributed — nothing
/// double-counted, nothing lost.
#[test]
fn span_sum_invariant_holds_under_every_chaos_scenario() {
    use windex_sim::ChaosScenario;
    let r = Relation::unique_sorted(1 << 13, KeyDistribution::SparseUniform, 1);
    let trace = generate_trace(&TraceConfig::default(), &r);
    for scenario in ChaosScenario::ALL {
        let mut g = gpu();
        let mut server = Server::new(&mut g, ServeConfig::default(), r.clone()).unwrap();
        g.set_chaos_schedule(scenario.schedule(99)).unwrap();
        let outcome = server
            .run(&mut g, &trace)
            .unwrap_or_else(|e| panic!("{scenario:?} must serve: {e}"));
        let rep = &outcome.report;
        assert_eq!(
            rep.phases.counter_sum(),
            rep.counters,
            "{scenario:?}: phase deltas must partition the run's counters"
        );
        assert_eq!(
            rep.phases.total, rep.counters,
            "{scenario:?}: recorded total must equal the run delta"
        );
        assert_eq!(
            rep.batches.iter().map(|b| b.keys).sum::<usize>(),
            rep.keys_probed,
            "{scenario:?}: batch timeline must cover every probed key"
        );
        assert_eq!(rep.latency.dropped, 0, "{scenario:?}: finite latencies");
    }
}
