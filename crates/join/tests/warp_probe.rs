//! The warp-batched hash-table probe against the key-by-key probe.
//!
//! `MultiValueHashTable::probe_warp` plans a warp's slot walks on host data
//! and accounts the slot reads in batches, flushing before every chain read
//! and every `emit`. That must be invisible: counters, trace events and
//! result pairs equal those of calling `probe` once per key, in lane order.
//! (The crate's `hash_join` unit tests compare the pipelined probe kernel,
//! planned on a helper thread and inline, with a scalar walk.) The
//! cases cover a duplicate-heavy build side (multi-block value chains), a
//! nearly full slot array (one warp's slot reads overflow the batch buffer
//! and force a mid-warp flush), and a multi-pass `hash_join` under a small
//! device-memory budget.

use windex_join::{hash_join, HashJoinConfig, HashTableConfig, MultiValueHashTable, ResultSink};
use windex_sim::{
    try_launch_kernel, warps_of, Buffer, Counters, Gpu, GpuSpec, MemLocation, Scale, TraceEvent,
    WARP_SIZE,
};

/// What one run observed.
#[derive(Debug, PartialEq)]
struct Observed {
    counters: Counters,
    events: Vec<TraceEvent>,
    pairs: Vec<(u64, u64)>,
}

fn splitmix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Probe `probe` against a table built from `build`, warp by warp: the
/// warp probe when `warp` is set, else one `probe` call per key.
fn table_probe(
    spec: &GpuSpec,
    build: &[u64],
    probe: &[u64],
    config: HashTableConfig,
    warp: bool,
) -> Observed {
    let mut gpu = Gpu::new(spec.clone());
    let pb = gpu.alloc_host_from_vec(probe.to_vec());
    let mut sink = ResultSink::with_capacity(&mut gpu, 1 << 12, MemLocation::Gpu).unwrap();
    let mut table = MultiValueHashTable::new(&mut gpu, build.len(), config).unwrap();
    gpu.start_trace(1 << 20);
    for (i, &k) in build.iter().enumerate() {
        table.insert(&mut gpu, k, i as u64).unwrap();
    }
    for w in warps_of(0..probe.len()) {
        let start = w.start;
        let keys = pb.stream_read(&mut gpu, start, w.len());
        if warp {
            table.probe_warp(&mut gpu, keys, |gpu, lane, v| {
                sink.emit(gpu, (start + lane) as u64, v)
            });
        } else {
            for (lane, &k) in keys.iter().enumerate() {
                table.probe(&mut gpu, k, |gpu, v| {
                    sink.emit(gpu, (start + lane) as u64, v)
                });
            }
        }
    }
    let trace = gpu.stop_trace();
    Observed {
        counters: gpu.counters(),
        events: trace.into_events(),
        pairs: sink.host_pairs(),
    }
}

#[test]
fn duplicate_heavy_build_matches_key_by_key_probe() {
    let spec = GpuSpec::v100_nvlink2(Scale::PAPER);
    // 4000 build tuples over 150 keys: chains of ~27 values in blocks of
    // at most 8, so every hit walks several blocks.
    let build: Vec<u64> = (0..4000u64).map(|i| splitmix(i) % 150 * 7).collect();
    let probe: Vec<u64> = (0..3000u64).map(|i| splitmix(i + 99) % 300 * 7).collect();
    let config = HashTableConfig {
        load_factor: 0.5,
        max_block: 8,
    };
    let warp = table_probe(&spec, &build, &probe, config, true);
    let scalar = table_probe(&spec, &build, &probe, config, false);
    assert!(
        warp.pairs.len() > 10_000,
        "too few matches to exercise chains"
    );
    assert_eq!(warp, scalar);
}

#[test]
fn full_slot_array_forces_mid_warp_flush_and_matches() {
    let spec = GpuSpec::v100_nvlink2(Scale::PAPER);
    // 3800 distinct keys in 4096 slots: a missing key walks ~10 slots, so
    // a warp of misses reads far more slots than the batch buffer holds.
    let build: Vec<u64> = (0..3800u64).map(|i| splitmix(i) | 1).collect();
    let probe: Vec<u64> = (0..2048u64)
        .map(|i| {
            if i % 5 == 0 {
                build[(i * 13) as usize % build.len()]
            } else {
                splitmix(i + 1_000_000) & !1
            }
        })
        .collect();
    let config = HashTableConfig {
        load_factor: 0.95,
        max_block: 512,
    };
    // One warp of misses reads more than two slots per lane.
    let mut gpu = Gpu::new(spec.clone());
    let mut table = MultiValueHashTable::new(&mut gpu, build.len(), config).unwrap();
    assert_eq!(table.capacity(), 4096);
    for (i, &k) in build.iter().enumerate() {
        table.insert(&mut gpu, k, i as u64).unwrap();
    }
    let misses: Vec<u64> = (0..WARP_SIZE as u64).map(|i| splitmix(i) & !1).collect();
    let before = gpu.snapshot();
    assert_eq!(table.probe_warp(&mut gpu, &misses, |_, _, _| {}), 0);
    let d = gpu.snapshot() - before;
    assert!(
        d.l1_hits + d.l1_misses > 2 * WARP_SIZE as u64,
        "warp read only {} slots; the buffer never filled",
        d.l1_hits + d.l1_misses
    );

    let warp = table_probe(&spec, &build, &probe, config, true);
    let scalar = table_probe(&spec, &build, &probe, config, false);
    assert_eq!(warp, scalar);
}

/// `hash_join` with the probe kernel's warp probe replaced by one `probe`
/// call per key; every other step is `hash_join`'s, run for `passes`
/// equal build chunks.
fn scalar_hash_join(
    gpu: &mut Gpu,
    build: &Buffer<u64>,
    probe: &Buffer<u64>,
    config: HashJoinConfig,
    sink: &mut ResultSink,
    passes: usize,
) -> usize {
    let n = build.len();
    let chunk = n.div_ceil(passes).max(1);
    let mut matches = 0;
    let mut at = 0;
    while at < n {
        let end = (at + chunk).min(n);
        let mut table = MultiValueHashTable::new(gpu, end - at, config.table).unwrap();
        try_launch_kernel(gpu, |gpu| {
            for w in warps_of(at..end) {
                let keys = build.stream_read(gpu, w.start, w.len());
                for (i, &k) in keys.iter().enumerate() {
                    table.insert(gpu, k, (w.start + i) as u64).unwrap();
                }
            }
        })
        .unwrap();
        matches += try_launch_kernel(gpu, |gpu| {
            let mut m = 0;
            for w in warps_of(0..probe.len()) {
                let keys = probe.stream_read(gpu, w.start, w.len());
                for (lane, &k) in keys.iter().enumerate() {
                    let rid = (w.start + lane) as u64;
                    m += table.probe(gpu, k, |gpu, v| sink.emit(gpu, rid, v));
                }
            }
            m
        })
        .unwrap();
        table.free(gpu);
        at = end;
    }
    matches
}

#[test]
fn multi_pass_hash_join_matches_key_by_key_probe() {
    // 64 KiB of HBM with 4 KiB pages: the build side needs several passes.
    let mut spec = GpuSpec::v100_nvlink2(Scale::PAPER);
    spec.page_bytes = 4096;
    spec.hbm_bytes = 64 * 1024;
    let r: Vec<u64> = (0..4000u64).map(|i| splitmix(i) % 900).collect();
    let s: Vec<u64> = (0..1500u64).map(|i| splitmix(i + 7) % 1200).collect();
    let run = |warp: bool, passes: usize| {
        let mut gpu = Gpu::new(spec.clone());
        let rb = gpu.alloc_host_from_vec(r.clone());
        let sb = gpu.alloc_host_from_vec(s.clone());
        let mut sink = ResultSink::with_capacity(&mut gpu, 1 << 14, MemLocation::Cpu).unwrap();
        gpu.start_trace(1 << 20);
        let (matches, passes) = if warp {
            let stats =
                hash_join(&mut gpu, &rb, &sb, HashJoinConfig::default(), &mut sink).unwrap();
            (stats.matches, stats.build_passes)
        } else {
            let m = scalar_hash_join(
                &mut gpu,
                &rb,
                &sb,
                HashJoinConfig::default(),
                &mut sink,
                passes,
            );
            (m, passes)
        };
        let trace = gpu.stop_trace();
        let observed = Observed {
            counters: gpu.counters(),
            events: trace.into_events(),
            pairs: sink.host_pairs(),
        };
        (observed, matches, passes)
    };
    let (warp, warp_matches, passes) = run(true, 0);
    assert!(passes > 1, "expected a multi-pass build");
    let (scalar, scalar_matches, _) = run(false, passes);
    assert!(
        warp_matches > 1000,
        "duplicate-heavy build must match often"
    );
    assert_eq!(warp_matches, scalar_matches);
    assert_eq!(warp, scalar);
}
