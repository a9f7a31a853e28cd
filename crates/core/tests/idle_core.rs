//! The engine's helper accountant, seen from the kernels that feed it.
//!
//! A calm `Gpu` moves its accountant onto a helper thread once a long run
//! of accesses has queued with no sync point in between, if the worker
//! pool leaves a core idle. An INLJ over thousands of probe keys is such a
//! run; a serving layer's windowed dispatch of a few dozen keys is not, and
//! must stay inline. The kernel launch that ends an INLJ joins the helper
//! and drops its slot, so a hash join started next on the same thread
//! still finds the slot its probe planner asks for.
//!
//! The pool's count is process-wide, so these tests run one at a time and
//! skip their slot assertions on a machine with a single core.

use std::rc::Rc;
use std::sync::{Mutex, MutexGuard};
use windex_core::{StreamingWindowJoin, WindowConfig};
use windex_index::BinarySearchIndex;
use windex_join::{hash_join, inlj_stream, HashJoinConfig, PartitionBits, ResultSink};
use windex_sim::{try_helper_slot, Gpu, GpuSpec, MemLocation, Scale};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether the pool would grant this thread a helper slot right now.
fn idle_core() -> bool {
    try_helper_slot().is_some()
}

/// A GPU with a sorted R of 2^20 keys (CPU-resident) indexed by binary
/// search, and 8192 foreign-key probes into it.
fn fixture() -> (Gpu, BinarySearchIndex, windex_sim::Buffer<u64>, Vec<u64>) {
    let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
    let n_r = 1u64 << 20;
    let r = Rc::new(gpu.alloc_host_from_vec((0..n_r).map(|i| i * 2).collect()));
    let index = BinarySearchIndex::new(r);
    let s_keys: Vec<u64> = (0..8192u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % n_r) * 2)
        .collect();
    let s = gpu.alloc_host_from_vec(s_keys.clone());
    (gpu, index, s, s_keys)
}

#[test]
fn a_long_inlj_engages_the_helper_and_a_small_dispatch_does_not() {
    let _serial = serial();
    if !idle_core() {
        return;
    }
    let (mut gpu, index, s, s_keys) = fixture();
    // A serving dispatch: 32 keys pushed into a window and closed at once.
    let config = WindowConfig {
        window_tuples: 4096,
        bits: PartitionBits { shift: 4, bits: 8 },
        min_key: 0,
    };
    let mut op = StreamingWindowJoin::new(&mut gpu, config).unwrap();
    let mut sink = ResultSink::with_capacity(&mut gpu, 8192, MemLocation::Gpu).unwrap();
    let batch: Vec<(u64, u64)> = s_keys[..32].iter().map(|&k| (k, k)).collect();
    let before = gpu.snapshot();
    op.push(&mut gpu, &index, &batch, &mut sink).unwrap();
    op.flush_now(&mut gpu, &index, &mut sink).unwrap();
    let d = gpu.snapshot() - before;
    let lines = d.l1_hits + d.l1_misses;
    assert!(
        (300..4096).contains(&lines),
        "a dispatch of a few hundred line reads: {lines}"
    );
    assert_eq!(gpu.helper_episodes(), 0, "a dispatch stays inline");
    sink.clear();
    let matches = inlj_stream(&mut gpu, &index, &s, 0..s_keys.len(), &mut sink).unwrap();
    assert_eq!(matches, s_keys.len());
    assert!(
        gpu.helper_episodes() > 0,
        "a long INLJ runs its accounting on the helper"
    );
}

#[test]
fn a_hash_join_after_a_long_inlj_still_gets_its_planner_slot() {
    let _serial = serial();
    if !idle_core() {
        return;
    }
    let (mut gpu, index, s, s_keys) = fixture();
    let mut sink = ResultSink::with_capacity(&mut gpu, 8192, MemLocation::Gpu).unwrap();
    inlj_stream(&mut gpu, &index, &s, 0..s_keys.len(), &mut sink).unwrap();
    assert!(gpu.helper_episodes() > 0);
    // The INLJ's kernel ended with a sync point: its slot is free again,
    // which is what the probe planner's `try_helper_slot` finds.
    assert!(idle_core(), "the INLJ's helper released its slot");
    let build = gpu.alloc_host_from_vec(s_keys[..1024].to_vec());
    let probe = gpu.alloc_host_from_vec(s_keys.clone());
    let mut out = ResultSink::with_capacity(&mut gpu, 1 << 14, MemLocation::Gpu).unwrap();
    let stats = hash_join(
        &mut gpu,
        &build,
        &probe,
        HashJoinConfig::default(),
        &mut out,
    )
    .unwrap();
    assert!(stats.matches >= 1024);
}
