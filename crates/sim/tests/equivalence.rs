//! Differential equivalence suite for the engine's access queue.
//!
//! Single reads and writes (`touch_read`, `touch_write`) join the engine's
//! access queue, which drains when full and before every other entry point
//! accounts or observes anything; runs of hash-table slot reads take the
//! batch entry point (`touch_read_batch`), which drains the queue first.
//! Global accounting order therefore equals program order however often
//! the counters are observed, so counters, trace events and fault draws
//! must come out byte-identical whatever the drain points.
//!
//! These tests drive random interleavings of reads, writes, streams,
//! observations and memory-system resets over a CPU-located and a
//! GPU-located buffer through three twin GPUs: an *eager* twin that takes a
//! snapshot after every op (its queue never holds more than one access), a
//! *lazy* twin observed only at the observation ops and at the end (its
//! queue drains when full or at the next other entry point), and a *batch*
//! twin that groups reads into `touch_read_batch` calls, and a *helper*
//! twin whose accountant is forced onto a helper thread whenever the engine
//! is calm, shipping its queue in blocks of a few records (so runs cross
//! many blocks, with writes and streams between them). They run calm and
//! under chaos windows and fault plans, and the twins may never diverge;
//! under chaos, faults or a trace the helper twin must stay inline. All
//! paths share one line-walk kernel, so `line_walk_oracle.rs` checks that
//! kernel against an independent reference model.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use windex_sim::{ChaosKind, ChaosSchedule, Counters, FaultPlan, Gpu, GpuSpec, MemLocation, Scale};

/// Elements of the shared probe buffer.
const N: usize = 1 << 14;

/// Trace capacity comfortably above the maximum events a case can emit.
const TRACE_CAP: usize = 1 << 14;

/// Records per block the helper twin ships: small, so runs cross blocks.
const HELPER_BLOCK: usize = 5;

/// What the twins run under: calm (at the preset's pages, or at 4 KiB
/// pages so a buffer spans many pages and the TLB thrashes), or one chaos
/// window or fault plan that stays active for the whole case.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Env {
    Calm,
    CalmSmallPages,
    EccStorm,
    Brownout,
    LinkFlap,
    Faults,
}

impl Env {
    /// Calm runs use the preset; the others use 4 KiB pages so the GPU
    /// buffer spans many pages and an ECC storm quarantines some of them.
    fn gpu(self) -> Gpu {
        let mut spec = GpuSpec::v100_nvlink2(Scale::PAPER);
        if self != Env::Calm {
            spec.page_bytes = 4096;
        }
        let mut gpu = Gpu::new(spec);
        let window = |kind| ChaosSchedule::seeded(11).with_window(kind, 0.0, 1.0);
        match self {
            Env::Calm | Env::CalmSmallPages => {}
            Env::EccStorm => gpu
                .set_chaos_schedule(window(ChaosKind::EccStorm { page_rate: 0.5 }))
                .unwrap(),
            Env::Brownout => gpu
                .set_chaos_schedule(window(ChaosKind::Brownout {
                    bandwidth_scale: 0.4,
                }))
                .unwrap(),
            Env::LinkFlap => gpu.set_chaos_schedule(window(ChaosKind::LinkFlap)).unwrap(),
            Env::Faults => gpu
                .set_fault_plan(FaultPlan::seeded(5).with_transfer_faults(0.2))
                .unwrap(),
        }
        gpu
    }
}

/// One twin: a GPU with a CPU-located buffer of the caller's size and a
/// GPU-located buffer of at most `N` elements (device memory is small).
struct Twin {
    gpu: Gpu,
    cpu_base: u64,
    gpu_base: u64,
    gpu_elems: usize,
}

fn twin(env: Env, elems: usize) -> Twin {
    let mut gpu = env.gpu();
    let cpu_base = gpu.alloc_host_from_vec(vec![0u64; elems]).base_addr();
    let gpu_elems = elems.min(N);
    let gpu_base = gpu
        .alloc_from_vec(MemLocation::Gpu, vec![0u64; gpu_elems])
        .unwrap()
        .base_addr();
    Twin {
        gpu,
        cpu_base,
        gpu_base,
        gpu_elems,
    }
}

/// The batch twin's open run of same-location, same-width reads.
#[derive(Default)]
struct OpenBatch {
    key: Option<(MemLocation, u64)>,
    addrs: Vec<u64>,
}

impl OpenBatch {
    fn push(&mut self, gpu: &mut Gpu, loc: MemLocation, bytes: u64, addr: u64) {
        if self.key != Some((loc, bytes)) {
            self.flush(gpu);
            self.key = Some((loc, bytes));
        }
        self.addrs.push(addr);
    }

    fn flush(&mut self, gpu: &mut Gpu) {
        if let Some((loc, bytes)) = self.key.take() {
            gpu.touch_read_batch(loc, bytes, self.addrs.iter().copied());
            self.addrs.clear();
        }
    }
}

/// Replay `ops` on the three twins. `(sel, i, bytes)` decodes to an access
/// at element `i`: CPU reads (0–59) and GPU reads (60–69) — single on the
/// eager and lazy twins, grouped into same-location, same-width batches on
/// the batch twin — CPU writes (70–74) and GPU writes (75–79); streaming
/// reads (80–86, which drain the queue and close the batch); observation
/// points (87–94: every twin's counters are read and compared, which also
/// closes the batch); and full memory-system resets (95–99).
fn replay(traced: bool, ops: &[(u8, usize, u64)]) {
    replay_sized(Env::Calm, N, traced, ops);
}

/// `replay` under `env` with a caller-sized CPU buffer (for streams wider
/// than one page). Returns the twins' common counters.
fn replay_sized(env: Env, elems: usize, traced: bool, ops: &[(u8, usize, u64)]) -> Counters {
    let mut eager = twin(env, elems);
    let mut lazy = twin(env, elems);
    let mut bat = twin(env, elems);
    let mut helper = twin(env, elems);
    helper.gpu.force_helper_accounting(HELPER_BLOCK);
    assert_eq!(
        (eager.cpu_base, eager.gpu_base),
        (lazy.cpu_base, lazy.gpu_base),
        "twin allocators must agree on addresses"
    );
    if traced {
        for t in [&mut eager, &mut lazy, &mut bat, &mut helper] {
            t.gpu.start_trace(TRACE_CAP);
        }
    }
    let mut batch = OpenBatch::default();
    let mut seen = eager.gpu.snapshot();
    for &(sel, i, bytes) in ops {
        let loc = if (60..=69).contains(&sel) || (75..=79).contains(&sel) {
            MemLocation::Gpu
        } else {
            MemLocation::Cpu
        };
        let addr = match loc {
            MemLocation::Cpu => eager.cpu_base + (i * 8) as u64,
            // Keep the span inside the (smaller) device buffer.
            MemLocation::Gpu => {
                let bytes_elems = bytes.div_ceil(8) as usize;
                let room = eager.gpu_elems - bytes_elems.min(eager.gpu_elems);
                eager.gpu_base + ((i % room.max(1)) * 8) as u64
            }
        };
        match sel {
            0..=69 => {
                eager.gpu.touch_read(loc, addr, bytes);
                lazy.gpu.touch_read(loc, addr, bytes);
                helper.gpu.touch_read(loc, addr, bytes);
                batch.push(&mut bat.gpu, loc, bytes, addr);
            }
            70..=79 => {
                eager.gpu.touch_write(loc, addr, bytes);
                lazy.gpu.touch_write(loc, addr, bytes);
                helper.gpu.stream_write(loc, addr, bytes);
                batch.flush(&mut bat.gpu);
                bat.gpu.touch_write(loc, addr, bytes);
            }
            80..=86 => {
                eager.gpu.stream_read(loc, addr, bytes);
                lazy.gpu.stream_read(loc, addr, bytes);
                helper.gpu.stream_read(loc, addr, bytes);
                batch.flush(&mut bat.gpu);
                bat.gpu.stream_read(loc, addr, bytes);
            }
            87..=94 => {
                batch.flush(&mut bat.gpu);
                assert_eq!(seen, lazy.gpu.counters(), "lazy twin diverged ({env:?})");
                assert_eq!(seen, bat.gpu.counters(), "batch twin diverged ({env:?})");
                assert_eq!(
                    seen,
                    helper.gpu.counters(),
                    "helper twin diverged ({env:?})"
                );
            }
            _ => {
                batch.flush(&mut bat.gpu);
                for t in [&mut eager, &mut lazy, &mut bat, &mut helper] {
                    t.gpu.reset_memory_system();
                }
            }
        }
        // The eager twin observes after every op, so its queue never holds
        // more than one access.
        seen = eager.gpu.snapshot();
    }
    batch.flush(&mut bat.gpu);
    let c = eager.gpu.counters();
    assert_eq!(c, seen);
    assert_eq!(c, lazy.gpu.counters(), "lazy twin diverged ({env:?})");
    assert_eq!(c, bat.gpu.counters(), "batch twin diverged ({env:?})");
    assert_eq!(c, helper.gpu.counters(), "helper twin diverged ({env:?})");
    // A calm untraced twin accounts on a helper from its first queued
    // access on; a storm, a fault plan or a trace keeps it inline.
    let queued = ops.iter().any(|&(sel, ..)| sel < 80);
    let episodes = helper.gpu.helper_episodes();
    if matches!(env, Env::Calm | Env::CalmSmallPages) && !traced {
        assert_eq!(
            episodes > 0,
            queued,
            "calm helper twin: {episodes} episodes"
        );
    } else {
        assert_eq!(episodes, 0, "{env:?} (traced {traced}) must stay inline");
    }
    if traced {
        let ta = eager.gpu.stop_trace();
        for (name, t) in [
            ("lazy", &mut lazy),
            ("batch", &mut bat),
            ("helper", &mut helper),
        ] {
            let tb = t.gpu.stop_trace();
            assert_eq!(ta.offered(), tb.offered(), "{name} ({env:?})");
            assert_eq!(ta.events(), tb.events(), "{name} trace differs ({env:?})");
        }
    }
    c
}

/// Widen generated ops' byte counts to 8, 16 or 64 so consecutive reads
/// often share a width and the batch twin resolves multi-read batches.
fn quantized(ops: &[(u8, usize, u64)]) -> Vec<(u8, usize, u64)> {
    ops.iter()
        .map(|&(sel, i, b)| (sel, i, [8u64, 16, 64][b as usize % 3]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings of reads/writes/streams/observations/resets
    /// must produce identical counters however often the queue drains.
    #[test]
    fn lazy_drains_match_eager_untraced(
        ops in pvec((0u8..100, 0usize..(N - 8), 1u64..=64), 1..300),
    ) {
        replay(false, &ops);
    }

    /// Same, with the trace recorder installed: the event streams (kinds,
    /// addresses, hit levels, order) must be identical too.
    #[test]
    fn lazy_drains_match_eager_traced(
        ops in pvec((0u8..100, 0usize..(N - 8), 1u64..=64), 1..300),
    ) {
        replay(true, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Quantized widths: runs of same-width reads reach the batch twin as
    /// multi-read batches.
    #[test]
    fn batched_reads_match_eager(
        ops in pvec((0u8..100, 0usize..(N - 8), 0u64..3), 1..300),
        traced in 0u8..2,
    ) {
        replay(traced == 1, &quantized(&ops));
    }
}

/// Every chaos window that changes per-line accounting (ECC storm,
/// brownout), every one that fires per-request faults (link flap), and an
/// active fault plan, each traced and untraced: the three twins must draw
/// faults per request in program order and account every line alike.
#[test]
fn chaos_and_fault_plans_match_on_every_path() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let ops: Vec<(u8, usize, u64)> = (0..600)
        .map(|_| {
            let r = next();
            // Mostly reads, with bursts of one width so batches form.
            let sel = if r % 8 == 0 {
                (r >> 8) % 100
            } else {
                (r >> 8) % 70
            } as u8;
            let i = (r >> 20) as usize % (N - 8);
            (sel, i, [8u64, 16, 64, 8][(r >> 60) as usize % 4])
        })
        .collect();
    for env in [Env::EccStorm, Env::Brownout, Env::LinkFlap, Env::Faults] {
        for traced in [false, true] {
            let c = replay_sized(env, N, traced, &ops);
            let felt = match env {
                Env::EccStorm => c.ecc_refetch_lines > 0 && c.gpu_bytes_read > 0,
                Env::Brownout => c.chaos_stall_ns > 0,
                Env::LinkFlap => c.faults_link_flap > 0,
                Env::Faults => c.faults_transfer > 0 && c.faults_link_flap == 0,
                Env::Calm | Env::CalmSmallPages => true,
            };
            assert!(felt, "{env:?} left no trace in the counters: {c:?}");
        }
    }
}

/// A hit-heavy and a miss-heavy deterministic stream, as fixed regression
/// anchors alongside the randomized cases.
#[test]
fn fixed_streams_match() {
    // Hit-heavy: hammer one line.
    let hot: Vec<(u8, usize, u64)> = (0..500).map(|_| (0u8, 3usize, 8u64)).collect();
    replay(true, &hot);
    // Miss-heavy: stride one page per access, wider than TLB + caches.
    let cold: Vec<(u8, usize, u64)> = (0..500).map(|k| (0u8, (k * 512) % (N - 8), 8u64)).collect();
    replay(true, &cold);
}

/// Runs longer than the queue bound: more than 512 reads with no
/// observation drain the lazy twin's queue when it fills, at least twice,
/// and so does a long mix of reads and writes at both locations.
#[test]
fn runs_past_the_queue_bound_match() {
    let reads: Vec<(u8, usize, u64)> = (0..700)
        .map(|k| (0u8, (k * 37) % (N - 8), [8u64, 16, 64][k % 3]))
        .collect();
    replay(true, &reads);
    replay(false, &reads);
    let mixed: Vec<(u8, usize, u64)> = (0..1200)
        .map(|k| {
            // Reads at both locations with a write every seventh op, at
            // either location, none of them observed until the end.
            let sel = match k % 7 {
                0 => 70 + (k % 10) as u8,
                3 => 60 + (k % 10) as u8,
                _ => (k % 60) as u8,
            };
            (sel, (k * 131) % (N - 8), [8u64, 16, 64][k % 3])
        })
        .collect();
    replay(true, &mixed);
    let c = replay_sized(Env::Faults, N, false, &mixed);
    assert!(c.faults_transfer > 0, "writes and reads must draw faults");
}

/// Long calm runs on the helper twin: hundreds of blocks, with stream
/// reads and writes at both locations between the reads, observed rarely
/// (and compared at each observation), over a CPU buffer of 128 pages of
/// 4 KiB, four times the TLB, so TLB and page-stamp state depend on the
/// order of reads, writes and streams; then once more at the preset's
/// pages, traced, and under a fault plan, where the helper twin stays
/// inline.
#[test]
fn helper_runs_across_many_blocks_match() {
    const ELEMS: usize = 128 * 4096 / 8;
    let ops: Vec<(u8, usize, u64)> = (0..3000)
        .map(|k| {
            let sel = match k % 11 {
                0 => 80 + (k % 7) as u8,
                4 => 70 + (k % 10) as u8,
                7 => 60 + (k % 10) as u8,
                _ if k % 997 == 0 => 87,
                _ if k % 1499 == 0 => 95,
                _ => (k % 60) as u8,
            };
            (sel, (k * 3989) % (ELEMS - 8), [8u64, 16, 64][k % 3])
        })
        .collect();
    let c = replay_sized(Env::CalmSmallPages, ELEMS, false, &ops);
    assert!(c.ic_bytes_streamed > 0 && c.ic_bytes_written > 0 && c.gpu_bytes_written > 0);
    assert!(c.tlb_misses > c.tlb_sweep_misses, "the TLB must thrash");
    replay_sized(Env::Calm, ELEMS, false, &ops);
    replay_sized(Env::Calm, ELEMS, true, &ops);
    replay_sized(Env::Faults, ELEMS, false, &ops);
}

/// Edge lanes of the batched classifier, pinned as fixed anchors: the same
/// cache line appearing more than once inside one drained batch (the later
/// copies must classify as hits of the first, exactly as program order
/// would), and duplicates at mixed access widths sharing a line.
#[test]
fn duplicate_line_within_one_batch_matches() {
    let mut ops: Vec<(u8, usize, u64)> = Vec::new();
    // Six reads of the very same element queued back to back, one drain.
    ops.extend((0..6).map(|_| (0u8, 100usize, 8u64)));
    ops.push((87, 0, 0));
    // Same line at different offsets/widths within a single batch; the
    // first access misses, the rest are intra-batch hits.
    ops.extend([
        (0u8, 200usize, 8u64),
        (0, 201, 16),
        (0, 203, 32),
        (0, 200, 64),
    ]);
    ops.push((87, 0, 0));
    // Duplicate lines interleaved with a write to the same line, then a
    // re-read after a reset (must miss again on both paths).
    ops.extend([(0u8, 300usize, 8u64), (70, 300, 8), (0, 300, 8)]);
    ops.push((95, 0, 0));
    ops.push((0, 300, 8));
    replay(true, &ops);
}

/// More distinct lines mapping to one L1 set than the set holds, all queued
/// in a single batch: the classifier must evict mid-batch in program order.
/// Geometry: 128 B lines × 16 sets → same-set stride is 256 elements; the
/// L1 is 8-way, so 12 lines overflow the set inside one drain.
#[test]
fn same_set_conflict_within_one_batch_matches() {
    const SET_STRIDE: usize = 256; // elements between lines in one L1 set
    let mut ops: Vec<(u8, usize, u64)> = Vec::new();
    ops.extend((0..12).map(|k| (0u8, k * SET_STRIDE, 8u64)));
    ops.push((87, 0, 0));
    // Re-run the same batch: the head lines were evicted by the tail, so
    // hit/miss flips relative to a naive "seen this batch" classifier.
    ops.extend((0..12).map(|k| (0u8, k * SET_STRIDE, 8u64)));
    ops.push((87, 0, 0));
    // And once more in reverse order, without an intermediate drain.
    ops.extend((0..12).rev().map(|k| (0u8, k * SET_STRIDE, 8u64)));
    replay(true, &ops);
}

/// TLB-thrashing mix: a working set of 40 distinct pages (the TLB holds
/// 32 entries in one fully-associative set), walked round-robin so every
/// access faults the TLB while the L2 still sees reuse. Needs its own
/// buffer — one page is 1 MiB at paper scale, wider than the default N.
#[test]
fn tlb_thrashing_stream_matches() {
    let page_elems = GpuSpec::v100_nvlink2(Scale::PAPER).page_bytes as usize / 8;
    const PAGES: usize = 40;
    let mut ops: Vec<(u8, usize, u64)> = Vec::new();
    for round in 0..4usize {
        for p in 0..PAGES {
            // Vary the in-page offset per round so lines differ too.
            ops.push((0, p * page_elems + round * 16, 8));
        }
        ops.push((87, 0, 0));
    }
    replay_sized(Env::Calm, PAGES * page_elems, true, &ops);
}

/// Cross-page accesses: spans whose byte range straddles a page boundary
/// must account lines (and TLB entries) on both pages, identically on the
/// eager and lazy twins — including duplicates inside one batch.
#[test]
fn cross_page_accesses_match() {
    let page_elems = GpuSpec::v100_nvlink2(Scale::PAPER).page_bytes as usize / 8;
    let mut ops: Vec<(u8, usize, u64)> = Vec::new();
    for p in 1..=6usize {
        // 32 bytes before the boundary, 64-byte span → crosses into page p.
        ops.push((0, p * page_elems - 4, 64));
        // The same straddling span again within the same batch.
        ops.push((0, p * page_elems - 4, 64));
        // A write straddling the same boundary at a different offset.
        ops.push((70, p * page_elems - 2, 48));
    }
    ops.push((87, 0, 0));
    // A streaming read across a boundary drains and must match too.
    ops.push((80, 3 * page_elems - 4, 64));
    replay_sized(Env::Calm, 7 * page_elems, true, &ops);
}

/// The flat page-stamp table must keep a multi-query session's footprint
/// constant: after warm-up, running more queries over the same working set
/// cannot grow the table (the old `HashMap` grew without bound until the
/// session ended).
#[test]
fn multi_query_session_footprint_stays_constant() {
    let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
    let page = gpu.spec().page_bytes as usize;
    let buf = gpu.alloc_host_from_vec(vec![0u64; 512 * page / 8]);
    let mut warmed = 0usize;
    for query in 0..40 {
        // Each "query" touches 512 distinct pages, then resets (the
        // between-queries cold start every executor performs).
        for p in 0..512 {
            let _ = buf.read(&mut gpu, p * page / 8);
        }
        gpu.reset_memory_system();
        if query == 4 {
            warmed = gpu.missed_page_slots();
        }
        if query > 4 {
            assert_eq!(
                gpu.missed_page_slots(),
                warmed,
                "page-stamp table grew after warm-up (query {query})"
            );
        }
    }
    assert!(warmed > 0);
}
