//! The `baseline` target: a deterministic performance baseline over a
//! fixed seed matrix.
//!
//! Runs a *fixed* seed matrix — independent of `--quick`, so the output is
//! canonical — and gates it against the committed `BENCH_baseline.json`:
//! Q/s, translations per lookup, and per-phase time shares for every
//! (strategy, R size) point. The simulator is deterministic and the JSON
//! writer formats floats deterministically, so the same toolchain
//! produces a byte-identical file on every run; `--record` rewrites the
//! golden, and its diff shows exactly which phase moved.

use super::cell::RInput;
use crate::config::ExpConfig;
use crate::gate::{self, GateSpec, Tol};
use crate::output::{num, num6, r6, Experiment};
use serde::Serialize;
use serde_json::json;
use windex_core::par_map;
use windex_core::prelude::*;
use windex_sim::phase;

/// Format-version marker for trajectory tooling.
pub(crate) const SCHEMA_VERSION: u32 = 1;

/// Fixed probe-side size of the baseline matrix (simulated tuples).
const S_TUPLES: usize = 1 << 13;

/// Fixed indexed-relation sizes of the baseline matrix, in paper GiB.
const R_GIB: [f64; 2] = [1.0, 8.0];

/// Fixed window capacity for the windowed strategy (the paper's 32 MiB
/// window at 1024× scale).
const WINDOW_TUPLES: usize = 1 << 12;

/// The strategies the baseline tracks, in report order.
fn strategies() -> Vec<JoinStrategy> {
    vec![
        JoinStrategy::HashJoin,
        JoinStrategy::Inlj {
            index: IndexKind::BinarySearch,
        },
        JoinStrategy::Inlj {
            index: IndexKind::RadixSpline,
        },
        JoinStrategy::PartitionedInlj {
            index: IndexKind::RadixSpline,
        },
        JoinStrategy::WindowedInlj {
            index: IndexKind::Harmonia,
            window_tuples: WINDOW_TUPLES,
        },
        JoinStrategy::WindowedInlj {
            index: IndexKind::RadixSpline,
            window_tuples: WINDOW_TUPLES,
        },
    ]
}

/// One (strategy, R size) point of the baseline.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct BaselineEntry {
    pub(crate) strategy: String,
    pub(crate) r_gib: f64,
    pub(crate) queries_per_second: f64,
    pub(crate) translations_per_lookup: f64,
    pub(crate) share_partition: f64,
    pub(crate) share_lookup: f64,
    pub(crate) share_other: f64,
    pub(crate) windows: usize,
    pub(crate) result_tuples: usize,
    pub(crate) tlb_misses: u64,
    pub(crate) ic_bytes_total: u64,
    pub(crate) retries: u64,
}

/// The whole baseline file.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct Baseline {
    pub(crate) schema: u32,
    pub(crate) scale_factor: u64,
    pub(crate) s_tuples: usize,
    pub(crate) window_tuples: usize,
    pub(crate) entries: Vec<BaselineEntry>,
}

/// The committed golden and its tolerances: exact for discrete outcomes
/// (windows, result tuples, retries) and labels, 2% relative for
/// throughput-like metrics, 0.02 absolute for phase shares.
const GATE: GateSpec = GateSpec {
    file: "BENCH_baseline.json",
    schema: SCHEMA_VERSION,
    default: Tol::Exact,
    fields: &[
        ("queries_per_second", Tol::Rel(0.02)),
        ("translations_per_lookup", Tol::Rel(0.02)),
        ("tlb_misses", Tol::Rel(0.02)),
        ("ic_bytes_total", Tol::Rel(0.02)),
        ("share_partition", Tol::Abs(0.02)),
        ("share_lookup", Tol::Abs(0.02)),
        ("share_other", Tol::Abs(0.02)),
    ],
};

/// Run one matrix cell on a fresh `Gpu`. Cells are independent
/// deterministic simulations, which is what makes the parallel harness
/// safe: any scheduling of cells produces the same per-cell result.
/// Also returns the cell's simulated memory-system accesses (L1 + TLB
/// lookups), the work unit the `simperf` target normalizes by.
fn run_cell(
    spec: &GpuSpec,
    r: &Relation,
    s: &Relation,
    gib: f64,
    st: JoinStrategy,
) -> (BaselineEntry, u64) {
    let mut gpu = Gpu::new(spec.clone());
    let rep = QueryExecutor::new()
        .run(&mut gpu, r, s, st)
        .expect("baseline query must succeed");
    let c = &rep.counters;
    let accesses = c.l1_hits + c.l1_misses + c.tlb_hits + c.tlb_misses;
    let entry = BaselineEntry {
        strategy: rep.strategy.clone(),
        r_gib: gib,
        queries_per_second: r6(rep.queries_per_second()),
        translations_per_lookup: r6(rep.translations_per_lookup()),
        share_partition: r6(rep.phases.share(phase::PARTITION)),
        share_lookup: r6(rep.phases.share(phase::LOOKUP)),
        share_other: r6(rep.phases.share(phase::OTHER)),
        windows: rep.windows,
        result_tuples: rep.result_tuples,
        tlb_misses: rep.counters.tlb_misses,
        ic_bytes_total: rep.counters.ic_bytes_total(),
        retries: rep.retries,
    };
    (entry, accesses)
}

/// The matrix's indexed relations, one per `R_GIB` size. Relations are
/// deterministic functions of their seeds; each R is shared read-only
/// across its size's cells (and its index fits with them).
pub(crate) fn r_columns() -> Vec<Relation> {
    R_GIB
        .iter()
        .map(|&gib| RInput::paper(Scale::PAPER, gib).generate())
        .collect()
}

/// Compute the seed matrix over `rs` (from [`r_columns`]) with `jobs`
/// workers, also returning the total simulated memory-system accesses (for
/// `simperf`).
pub(crate) fn compute_counted(jobs: usize, rs: &[Relation]) -> (Baseline, u64) {
    let scale = Scale::PAPER;
    let spec = GpuSpec::v100_nvlink2(scale);
    let inputs: Vec<(f64, &Relation, Relation)> = R_GIB
        .iter()
        .zip(rs)
        .map(|(&gib, r)| (gib, r, Relation::foreign_keys_uniform(r, S_TUPLES, 7)))
        .collect();
    let cells: Vec<(usize, JoinStrategy)> = (0..inputs.len())
        .flat_map(|input| strategies().into_iter().map(move |st| (input, st)))
        .collect();
    let results = par_map(jobs, cells.len(), |i| {
        let (input, st) = cells[i];
        let (gib, r, s) = &inputs[input];
        run_cell(&spec, r, s, *gib, st)
    });
    let accesses = results.iter().map(|(_, a)| a).sum();
    let entries = results.into_iter().map(|(e, _)| e).collect();
    (
        Baseline {
            schema: SCHEMA_VERSION,
            scale_factor: scale.factor,
            s_tuples: S_TUPLES,
            window_tuples: WINDOW_TUPLES,
            entries,
        },
        accesses,
    )
}

/// The seed matrix computed with `jobs` workers; byte-identical output for
/// any `jobs`.
fn compute(jobs: usize) -> Baseline {
    compute_counted(jobs, &r_columns()).0
}

/// The `baseline` target: renders the matrix as an experiment table and
/// gates it against the committed `BENCH_baseline.json` (or records it).
/// `Err` (→ nonzero exit) on any tolerance violation.
pub fn baseline(cfg: &ExpConfig) -> Result<Experiment, String> {
    let data = compute(cfg.jobs);
    let gate_note = gate::check_or_record(&GATE, &data, cfg.record)?;
    let rows = data
        .entries
        .iter()
        .map(|e| {
            vec![
                json!(e.strategy.clone()),
                num(e.r_gib),
                num(e.queries_per_second),
                num6(e.translations_per_lookup),
                num(e.share_partition),
                num(e.share_lookup),
                num(e.share_other),
                json!(e.windows),
                json!(e.retries),
            ]
        })
        .collect();
    Ok(Experiment {
        id: "baseline".into(),
        title: "Perf baseline: Q/s, translations/lookup, per-phase shares (fixed matrix)".into(),
        columns: vec![
            "strategy".into(),
            "r_gib".into(),
            "qps".into(),
            "transl_per_lookup".into(),
            "share_partition".into(),
            "share_lookup".into(),
            "share_other".into(),
            "windows".into(),
            "retries".into(),
        ],
        rows,
        notes: vec![
            "fixed seed matrix, independent of --quick: canonical perf trajectory".into(),
            gate_note,
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_jobs_are_byte_identical_to_serial() {
        let serial = gate::canonical(&compute(1));
        assert_eq!(serial, gate::canonical(&compute(1)), "runs must repeat");
        let parallel = gate::canonical(&compute(4));
        assert_eq!(serial, parallel, "--jobs must not change the report");
    }

    #[test]
    fn baseline_matches_committed_file() {
        // The gate diffs with tolerance bands; this golden test holds the
        // canonical artifact to *byte* identity, so any engine change that
        // moves a counter — even inside the bands — must re-record
        // BENCH_baseline.json deliberately.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        let committed =
            std::fs::read_to_string(path).expect("committed BENCH_baseline.json at the repo root");
        assert_eq!(
            gate::canonical(&compute(1)),
            committed,
            "fresh baseline differs from committed BENCH_baseline.json; \
             re-record with `experiments baseline --record` if intentional"
        );
    }

    #[test]
    fn gate_flags_drift_and_accepts_self() {
        let b = compute(1);
        let mut drifted = b.clone();
        drifted.entries[3].windows += 1;
        gate::assert_flags_drift(&GATE, &b, &drifted, "entries[3].windows");
        let mut drifted = b.clone();
        drifted.entries[0].queries_per_second *= 1.5;
        gate::assert_flags_drift(&GATE, &b, &drifted, "entries[0].queries_per_second");
    }

    #[test]
    fn baseline_covers_the_matrix_with_sane_shares() {
        let data = compute(1);
        assert_eq!(data.entries.len(), R_GIB.len() * strategies().len());
        for e in &data.entries {
            assert!(e.queries_per_second > 0.0, "{}", e.strategy);
            assert_eq!(e.result_tuples, S_TUPLES, "{}", e.strategy);
            let share_sum = e.share_partition + e.share_lookup + e.share_other;
            assert!(
                share_sum > 0.99 && share_sum < 1.01,
                "{}: shares sum to {share_sum}",
                e.strategy
            );
            assert_eq!(e.retries, 0, "{}: baseline runs are fault-free", e.strategy);
        }
        // Windowed strategies decompose into partition + lookup; the
        // unpartitioned INLJ is all lookup.
        let windowed = data
            .entries
            .iter()
            .find(|e| e.strategy.starts_with("windowed-inlj"))
            .unwrap();
        assert!(windowed.share_partition > 0.0);
        assert!(windowed.share_lookup > 0.0);
        let inlj = data
            .entries
            .iter()
            .find(|e| e.strategy.starts_with("inlj"))
            .unwrap();
        assert!(
            inlj.share_lookup > 0.9,
            "inlj lookup share {}",
            inlj.share_lookup
        );
    }
}
