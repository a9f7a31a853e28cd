//! The simulated cost of every search entry point, pinned exactly.
//!
//! For each index kind over a dense column and a sparse one (the sparse one
//! also under injected transfer faults), the test records the full
//! `Counters` delta of `lower_bound`, of `range` and of one `lookup_warp`
//! warp, plus each answer, and compares them line for line with
//! `search_accounting.golden`. One `Gpu` serves each sequence, so a changed
//! access order shows up in the cache and TLB counters of later calls too.
//! Probes cover below the minimum, the minimum, hits, misses (including
//! misses just past a B+tree leaf), the maximum and above it.

use std::fmt::Write;
use std::rc::Rc;
use windex_index::{
    BPlusTree, BPlusTreeConfig, BinarySearchIndex, Harmonia, HarmoniaConfig, IndexKind,
    OutOfCoreIndex, RadixSpline, RadixSplineConfig,
};
use windex_sim::{Counters, FaultPlan, Gpu, GpuSpec, Scale};

const N: usize = 20_000;

/// Consecutive keys: every interior probe hits.
fn dense() -> Vec<u64> {
    (1_000..1_000 + N as u64).collect()
}

/// Keys with pseudo-random gaps of at least 2, so `key + 1` always misses.
fn sparse() -> Vec<u64> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut key = 5_000u64;
    (0..N)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            key += 2 + (state >> 33) % 97;
            key
        })
        .collect()
}

/// Up to one warp of probes spanning every case.
fn probes(keys: &[u64]) -> Vec<u64> {
    let (min, max) = (keys[0], keys[keys.len() - 1]);
    let mut p = vec![0, min - 1, min, keys[1], keys[254], keys[255], keys[N / 3]];
    // Just past a key: a miss on the sparse column (at the end of the
    // first 4 KiB B+tree leaf for keys[254] + 1).
    p.extend([
        keys[254] + 1,
        keys[N / 3] + 1,
        keys[N / 2] - 1,
        keys[N - 2] + 1,
    ]);
    p.extend([max - 1, max, max + 1, max + 1_000_000, u64::MAX - 1]);
    p
}

fn ranges(keys: &[u64]) -> Vec<(u64, u64)> {
    let (min, max) = (keys[0], keys[keys.len() - 1]);
    vec![
        (min, max),
        (0, u64::MAX),
        (keys[10], keys[300]),
        (keys[254] + 1, keys[N / 2] + 1),
        (0, min - 1),
        (max + 1, max + 10),
        (keys[300], keys[10]),
        (keys[N / 3], u64::MAX),
        (max, max),
    ]
}

/// Every nonzero field of `c` as `name=value`; the fields left out are
/// zero (`-` when all are).
fn render(c: Counters) -> String {
    let debug = format!("{c:?}");
    let fields: Vec<String> = debug
        .trim_start_matches("Counters { ")
        .trim_end_matches(" }")
        .split(", ")
        .filter(|f| !f.ends_with(": 0"))
        .map(|f| f.replace(": ", "="))
        .collect();
    if fields.is_empty() {
        "-".into()
    } else {
        fields.join(" ")
    }
}

fn build(gpu: &mut Gpu, keys: &[u64], kind: IndexKind) -> Box<dyn OutOfCoreIndex> {
    let col = Rc::new(gpu.alloc_host_from_vec(keys.to_vec()));
    match kind {
        IndexKind::BinarySearch => Box::new(BinarySearchIndex::new(col)),
        IndexKind::BPlusTree => Box::new(BPlusTree::build(gpu, &col, BPlusTreeConfig::default())),
        IndexKind::Harmonia => Box::new(Harmonia::build(gpu, &col, HarmoniaConfig::default())),
        IndexKind::RadixSpline => {
            Box::new(RadixSpline::build(gpu, col, RadixSplineConfig::default()))
        }
    }
}

/// The accounting of every entry point of every index over `keys`, one
/// line per call, each index on a fresh `Gpu` with `plan` installed.
fn record(out: &mut String, column: &str, keys: &[u64], plan: FaultPlan) {
    for kind in IndexKind::all() {
        let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
        let idx = build(&mut gpu, keys, kind);
        gpu.set_fault_plan(plan).unwrap();
        let tag = format!("{kind} {column}");
        for &p in &probes(keys) {
            let before = gpu.snapshot();
            let lb = idx.lower_bound(&mut gpu, p);
            let d = gpu.snapshot() - before;
            writeln!(out, "{tag} lower_bound({p}) = {lb}: {}", render(d)).unwrap();
        }
        for (lo, hi) in ranges(keys) {
            let before = gpu.snapshot();
            let r = idx.range(&mut gpu, lo, hi);
            let d = gpu.snapshot() - before;
            writeln!(out, "{tag} range({lo}, {hi}) = {r:?}: {}", render(d)).unwrap();
        }
        let warp = probes(keys);
        let mut found = vec![None; warp.len()];
        let before = gpu.snapshot();
        idx.lookup_warp(&mut gpu, &warp, &mut found);
        let d = gpu.snapshot() - before;
        writeln!(out, "{tag} lookup_warp = {found:?}: {}", render(d)).unwrap();
    }
}

#[test]
fn every_search_accounts_as_recorded() {
    let mut actual = String::new();
    record(&mut actual, "dense", &dense(), FaultPlan::none());
    record(&mut actual, "sparse", &sparse(), FaultPlan::none());
    let faults = FaultPlan::seeded(11).with_transfer_faults(0.05);
    record(&mut actual, "sparse+faults", &sparse(), faults);

    let expected = include_str!("search_accounting.golden");
    let (mut exp, mut act) = (expected.lines(), actual.lines());
    for line in 1.. {
        match (exp.next(), act.next()) {
            (None, None) => break,
            (e, a) => assert_eq!(a, e, "search_accounting.golden line {line}"),
        }
    }
}
