//! Hash join baseline (§3.2).
//!
//! Mirrors the paper's configuration: a WarpCore-style multi-value hash
//! table with a 50 % load factor and block size 512, kept in GPU memory.
//! "We flip the input relations to build on the smaller relation and reduce
//! the hash table size. To reflect real-world use, the query builds the
//! hash table on-the-fly, which we include in the throughput measurement."
//!
//! The probe side is therefore the *larger* relation, which the join reads
//! with a full table scan — streaming the entire relation across the
//! interconnect regardless of selectivity. That scan volume is exactly what
//! Fig. 1 and the paper's INLJ study set out to avoid.
//!
//! ## Degradation under a device-memory budget
//!
//! When the hash table for the whole build side would not fit the HBM
//! budget, the join splits the build side into the fewest equal chunks
//! whose tables fit, and runs one build+probe pass per chunk (the probe
//! stream is re-read each pass — the extra interconnect traffic is counted
//! honestly). The union of per-pass matches equals the single-pass result.
//! Transient injected faults are retried under the engine's retry policy,
//! rolling back partial sink output before each retry.

use crate::error::{with_join_retries, JoinError};
use crate::hash_table::{HashTableConfig, MultiValueHashTable};
use crate::sink::ResultSink;
use windex_sim::{try_launch_kernel, warps_of, Buffer, Gpu, SimError};

/// Hash-join configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashJoinConfig {
    /// Hash-table parameters (paper defaults: 50 % load factor, block 512).
    pub table: HashTableConfig,
}

/// Statistics of one hash-join run.
#[derive(Debug, Clone, Copy)]
pub struct HashJoinStats {
    /// Materialized result pairs.
    pub matches: usize,
    /// Distinct keys in the build side (summed per pass: a key spanning
    /// chunk boundaries of a multi-pass build is counted once per chunk).
    pub build_distinct: usize,
    /// GPU memory held by the (largest per-pass) hash table in bytes.
    pub table_bytes: u64,
    /// Build passes run (1 unless the build side was chunked to fit the
    /// device-memory budget).
    pub build_passes: usize,
}

/// Fewest equal build chunks whose hash tables fit the current headroom.
fn plan_passes(gpu: &Gpu, n: usize, config: &HashJoinConfig) -> usize {
    if n == 0 {
        return 1;
    }
    let headroom = gpu.gpu_headroom();
    let mut passes = 1usize;
    while passes < n {
        let chunk = n.div_ceil(passes);
        if MultiValueHashTable::reservation_bytes(gpu, chunk, &config.table) <= headroom {
            break;
        }
        passes *= 2;
    }
    passes.min(n)
}

/// Build the table for `build[range]` and stream-insert its keys. Frees the
/// table on any failure so retries start from a clean budget.
fn build_pass(
    gpu: &mut Gpu,
    build: &Buffer<u64>,
    range: std::ops::Range<usize>,
    config: &HashJoinConfig,
) -> Result<MultiValueHashTable, JoinError> {
    let mut table = MultiValueHashTable::new(gpu, range.len(), config.table)?;
    let outcome = try_launch_kernel(gpu, |gpu| {
        for warp in warps_of(range.clone()) {
            let start = warp.start;
            let keys = build.stream_read(gpu, start, warp.len());
            for (i, &k) in keys.iter().enumerate() {
                table.insert(gpu, k, (start + i) as u64)?;
            }
        }
        Ok(())
    });
    match outcome {
        Ok(Ok(())) => Ok(table),
        Ok(Err(e)) => {
            table.free(gpu);
            Err(e)
        }
        Err(sim) => {
            table.free(gpu);
            Err(sim.into())
        }
    }
}

/// Run the hash join: build on `build` (CPU-resident keys, streamed once
/// per pass), probe with a full scan of `probe`. Matches are emitted to
/// `sink` as `(probe rid, build rid)` pairs. Build and probe are separate
/// kernels; the build is included in the measurement window, as in the
/// paper. See the module docs for multi-pass degradation and fault retry
/// behavior.
pub fn hash_join(
    gpu: &mut Gpu,
    build: &Buffer<u64>,
    probe: &Buffer<u64>,
    config: HashJoinConfig,
    sink: &mut ResultSink,
) -> Result<HashJoinStats, JoinError> {
    let n = build.len();
    let sink_mark = sink.len();
    let mut passes = plan_passes(gpu, n, &config);
    'plan: loop {
        sink.truncate(sink_mark);
        let mut matches = 0;
        let mut build_distinct = 0;
        let mut table_bytes = 0u64;
        let chunk = n.div_ceil(passes.max(1)).max(1);
        let mut at = 0usize;
        loop {
            let end = (at + chunk).min(n);
            // --- build kernel(s): stream this chunk of the build side.
            let table = if at < end {
                match with_join_retries(gpu, |gpu| build_pass(gpu, build, at..end, &config)) {
                    Ok(t) => t,
                    Err(JoinError::Sim(SimError::OutOfDeviceMemory { .. })) if passes < n => {
                        // The admission plan was optimistic (e.g. the sink
                        // shares the budget): halve the chunk and restart.
                        passes = (passes * 2).min(n);
                        continue 'plan;
                    }
                    Err(e) => return Err(e),
                }
            } else {
                MultiValueHashTable::new(gpu, 0, config.table)?
            };

            // --- probe kernel: full scan of the probe side per pass.
            if !probe.is_empty() {
                let pass_mark = sink.len();
                let probed = with_join_retries(gpu, |gpu| {
                    sink.truncate(pass_mark);
                    try_launch_kernel(gpu, |gpu| {
                        let mut pass_matches = 0;
                        for warp in warps_of(0..probe.len()) {
                            let start = warp.start;
                            let keys = probe.stream_read(gpu, start, warp.len());
                            pass_matches += table.probe_warp(gpu, keys, |gpu, lane, build_rid| {
                                sink.emit(gpu, (start + lane) as u64, build_rid);
                            });
                        }
                        pass_matches
                    })
                    .map_err(JoinError::from)
                });
                match probed {
                    Ok(m) => matches += m,
                    Err(e) => {
                        table.free(gpu);
                        return Err(e);
                    }
                }
            }
            build_distinct += table.distinct_keys();
            table_bytes = table_bytes.max(table.gpu_bytes());
            table.free(gpu);
            if end >= n {
                break;
            }
            at = end;
        }
        return Ok(HashJoinStats {
            matches,
            build_distinct,
            table_bytes,
            build_passes: passes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windex_sim::{GpuSpec, MemLocation, Scale};

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER))
    }

    #[test]
    fn fk_join_matches_every_probe_partner() {
        let mut g = gpu();
        let r: Vec<u64> = (0..5000u64).map(|i| i * 2).collect();
        let s: Vec<u64> = (0..800u64).map(|i| (i * 13 % 5000) * 2).collect();
        let rb = g.alloc_host_from_vec(r.clone());
        let sb = g.alloc_host_from_vec(s.clone());
        let mut sink = ResultSink::with_capacity(&mut g, 800, MemLocation::Gpu).unwrap();
        // Build on S (smaller), probe with R — as the paper flips them.
        let stats = hash_join(&mut g, &sb, &rb, HashJoinConfig::default(), &mut sink).unwrap();
        assert_eq!(stats.matches, 800);
        assert_eq!(stats.build_passes, 1);
        for (r_rid, s_rid) in sink.host_pairs() {
            assert_eq!(r[r_rid as usize], s[s_rid as usize]);
        }
    }

    #[test]
    fn probe_side_is_fully_scanned() {
        let mut g = gpu();
        let r: Vec<u64> = (0..100_000u64).collect();
        let s: Vec<u64> = vec![1, 2, 3];
        let rb = g.alloc_host_from_vec(r);
        let sb = g.alloc_host_from_vec(s);
        let mut sink = ResultSink::with_capacity(&mut g, 16, MemLocation::Gpu).unwrap();
        let before = g.snapshot();
        hash_join(&mut g, &sb, &rb, HashJoinConfig::default(), &mut sink).unwrap();
        let d = g.snapshot() - before;
        // The full probe relation crosses the interconnect even though only
        // 3 tuples match — the transfer-volume problem of Fig. 1.
        assert!(d.ic_bytes_streamed >= 100_000 * 8);
        assert_eq!(sink.len(), 3);
    }

    #[test]
    fn duplicate_build_keys_multi_match() {
        let mut g = gpu();
        let build: Vec<u64> = vec![7, 7, 7, 9];
        let probe: Vec<u64> = vec![7, 8, 9];
        let bb = g.alloc_host_from_vec(build);
        let pb = g.alloc_host_from_vec(probe);
        let mut sink = ResultSink::with_capacity(&mut g, 8, MemLocation::Gpu).unwrap();
        let stats = hash_join(&mut g, &bb, &pb, HashJoinConfig::default(), &mut sink).unwrap();
        assert_eq!(stats.matches, 4); // 3 for key 7 + 1 for key 9
        assert_eq!(stats.build_distinct, 2);
        let pairs = sink.host_pairs();
        assert_eq!(pairs.iter().filter(|(p, _)| *p == 0).count(), 3);
        assert_eq!(pairs.iter().filter(|(p, _)| *p == 2).count(), 1);
    }

    #[test]
    fn empty_inputs() {
        let mut g = gpu();
        let empty = g.alloc_host_from_vec(Vec::<u64>::new());
        let some = g.alloc_host_from_vec(vec![1u64, 2]);
        let mut sink = ResultSink::with_capacity(&mut g, 4, MemLocation::Gpu).unwrap();
        let s1 = hash_join(&mut g, &empty, &some, HashJoinConfig::default(), &mut sink).unwrap();
        assert_eq!(s1.matches, 0);
        let s2 = hash_join(&mut g, &some, &empty, HashJoinConfig::default(), &mut sink).unwrap();
        assert_eq!(s2.matches, 0);
    }

    #[test]
    fn reserved_build_key_is_a_typed_error() {
        let mut g = gpu();
        let bb = g.alloc_host_from_vec(vec![1u64, u64::MAX]);
        let pb = g.alloc_host_from_vec(vec![1u64]);
        let mut sink = ResultSink::with_capacity(&mut g, 4, MemLocation::Gpu).unwrap();
        let err = hash_join(&mut g, &bb, &pb, HashJoinConfig::default(), &mut sink).unwrap_err();
        assert_eq!(err, JoinError::ReservedKey);
        assert_eq!(
            g.live_gpu_bytes(),
            sink_reservation(&g),
            "table freed on error"
        );
        sink.free(&mut g);
    }

    fn sink_reservation(g: &Gpu) -> u64 {
        // One sink of 4 pairs = 64 bytes → one page.
        g.spec().page_bytes
    }

    /// A V100 spec with finer pages so sub-megabyte HBM budgets are
    /// expressible (the default simulated page is 1 MiB).
    fn small_page_spec(hbm_bytes: u64) -> GpuSpec {
        let mut spec = GpuSpec::v100_nvlink2(Scale::PAPER);
        spec.page_bytes = 4096;
        spec.hbm_bytes = hbm_bytes;
        spec
    }

    #[test]
    fn oversized_build_chunks_into_multiple_passes() {
        // Shrink HBM so one table for the whole build side cannot fit.
        let mut g = Gpu::new(small_page_spec(64 * 1024));
        let r: Vec<u64> = (0..4000u64).map(|i| i * 2).collect();
        let s: Vec<u64> = (0..500u64).map(|i| (i * 7 % 4000) * 2).collect();
        let rb = g.alloc_host_from_vec(r.clone());
        let sb = g.alloc_host_from_vec(s.clone());
        let mut sink = ResultSink::with_capacity(&mut g, 500, MemLocation::Cpu).unwrap();
        let stats = hash_join(&mut g, &rb, &sb, HashJoinConfig::default(), &mut sink).unwrap();
        assert!(stats.build_passes > 1, "expected chunked build");
        assert_eq!(
            stats.matches, 500,
            "multi-pass union equals one-pass result"
        );
        for (s_rid, r_rid) in sink.host_pairs() {
            assert_eq!(s[s_rid as usize], r[r_rid as usize]);
        }
        assert_eq!(g.live_gpu_bytes(), 0, "all tables freed");
    }

    #[test]
    fn multi_pass_equals_single_pass_result() {
        let r: Vec<u64> = (0..3000u64).map(|i| i % 700).collect(); // duplicates
        let s: Vec<u64> = (0..400u64).map(|i| i * 3 % 700).collect();

        let mut g1 = gpu();
        let rb1 = g1.alloc_host_from_vec(r.clone());
        let sb1 = g1.alloc_host_from_vec(s.clone());
        let mut sink1 = ResultSink::with_capacity(&mut g1, 4096, MemLocation::Cpu).unwrap();
        let one = hash_join(&mut g1, &rb1, &sb1, HashJoinConfig::default(), &mut sink1).unwrap();
        assert_eq!(one.build_passes, 1);

        let mut g2 = Gpu::new(small_page_spec(64 * 1024));
        let rb2 = g2.alloc_host_from_vec(r);
        let sb2 = g2.alloc_host_from_vec(s);
        let mut sink2 = ResultSink::with_capacity(&mut g2, 4096, MemLocation::Cpu).unwrap();
        let many = hash_join(&mut g2, &rb2, &sb2, HashJoinConfig::default(), &mut sink2).unwrap();
        assert!(many.build_passes > 1);

        let mut a = sink1.host_pairs();
        let mut b = sink2.host_pairs();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
