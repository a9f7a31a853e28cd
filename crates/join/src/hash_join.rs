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
//!
//! ## The probe kernel is a two-stage pipeline
//!
//! The probe kernel splits the probe side into chunks of 128 warps. Each
//! chunk is planned (the table's slot walks, worked out on host data) and
//! then accounted on the calling thread, in chunk order. When the probe
//! side spans more than one chunk and the shared worker pool leaves a
//! core idle (`windex_sim::try_helper_slot`: the pool counts the host
//! threads it runs against `available_parallelism`), a scoped helper
//! thread plans up to four chunks ahead while this thread accounts. The
//! calling thread allocates every plan and the pipeline recycles them.
//!
//! The output cannot depend on which thread planned: planning reads only
//! data the probe kernel never writes, and every `Gpu` call (the key
//! stream, the slot and chain reads, the sink writes and their fault
//! draws) happens on the calling thread in the same order as a key-by-key
//! probe. A retried probe plans again from the start.

use crate::error::{with_join_retries, JoinError};
use crate::hash_table::{HashTableConfig, MultiValueHashTable, ProbePlan};
use crate::sink::ResultSink;
use std::sync::mpsc::sync_channel;
use windex_sim::{try_helper_slot, try_launch_kernel, warps_of, Buffer, Gpu, SimError, WARP_SIZE};

/// Probe keys per plan chunk (128 warps).
const CHUNK_KEYS: usize = 128 * WARP_SIZE;

/// Plans a pipelined probe keeps in flight: the helper plans at most this
/// many chunks ahead of the accountant.
const PLANS_IN_FLIGHT: usize = 4;

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

/// Where a probe kernel plans its slot walks.
#[derive(Debug, Clone, Copy)]
enum Planning {
    /// On a helper thread if the probe side spans more than one chunk and
    /// the worker pool leaves a core idle, else inline.
    IdleCore,
    /// On the calling thread.
    #[cfg(test)]
    Inline,
    /// On a helper thread, whatever the pool runs.
    #[cfg(test)]
    Helper,
}

/// The probe kernel's body: a full scan of `probe` against `table`, one
/// warp at a time, emitting `(probe rid, build rid)` pairs to `sink`.
/// Returns the number of matches.
///
/// Planning the slot walks needs host data only, so when the probe side
/// spans more than one chunk and the worker pool grants a helper slot, a
/// scoped helper thread plans chunk after chunk while this thread
/// accounts them, in chunk order, through recycled plans. Otherwise each
/// chunk is planned here just before it is accounted. Every `Gpu` call
/// happens on this thread in the same order either way.
fn probe_scan(
    gpu: &mut Gpu,
    table: &MultiValueHashTable,
    probe: &Buffer<u64>,
    sink: &mut ResultSink,
    planning: Planning,
) -> usize {
    let keys = probe.host();
    let chunks = keys.len().div_ceil(CHUNK_KEYS);
    // The slot outlives the helper: the scope below joins it first.
    let slot = match planning {
        Planning::IdleCore if chunks > 1 => try_helper_slot(),
        _ => None,
    };
    let on_helper = match planning {
        Planning::IdleCore => slot.is_some(),
        #[cfg(test)]
        Planning::Inline => false,
        #[cfg(test)]
        Planning::Helper => true,
    };
    let chunk = |c: usize| &keys[c * CHUNK_KEYS..((c + 1) * CHUNK_KEYS).min(keys.len())];
    let planner = table.planner();
    let mut account = |gpu: &mut Gpu, plan: &ProbePlan, c: usize| {
        table.account(
            gpu,
            plan,
            c * CHUNK_KEYS,
            |gpu, warp| {
                probe.stream_read(gpu, warp.start, warp.len());
            },
            |gpu, key, build_rid| sink.emit(gpu, key as u64, build_rid),
        )
    };
    if !on_helper {
        let mut plan = ProbePlan::with_capacity(keys.len().min(CHUNK_KEYS));
        let mut matches = 0;
        for c in 0..chunks {
            planner.plan(chunk(c), &mut plan);
            matches += account(gpu, &plan, c);
        }
        return matches;
    }
    std::thread::scope(|scope| {
        // This thread allocates every plan and the helper only refills
        // them: allocations made on a new thread open a new malloc arena.
        let (free_tx, free_rx) = sync_channel::<ProbePlan>(PLANS_IN_FLIGHT);
        let (full_tx, full_rx) = sync_channel::<ProbePlan>(PLANS_IN_FLIGHT);
        for _ in 0..PLANS_IN_FLIGHT.min(chunks) {
            let _ = free_tx.send(ProbePlan::with_capacity(CHUNK_KEYS));
        }
        scope.spawn(move || {
            for c in 0..chunks {
                // Either channel closes only when the accountant unwinds.
                let Ok(mut plan) = free_rx.recv() else { return };
                planner.plan(chunk(c), &mut plan);
                if full_tx.send(plan).is_err() {
                    return;
                }
            }
        });
        let mut matches = 0;
        for c in 0..chunks {
            let plan = full_rx.recv().expect("probe planner thread panicked");
            matches += account(gpu, &plan, c);
            let _ = free_tx.send(plan);
        }
        matches
    })
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
    join_planned(gpu, build, probe, config, sink, Planning::IdleCore)
}

/// [`hash_join`] with its probe kernels planning as `planning` says.
fn join_planned(
    gpu: &mut Gpu,
    build: &Buffer<u64>,
    probe: &Buffer<u64>,
    config: HashJoinConfig,
    sink: &mut ResultSink,
    planning: Planning,
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
                    try_launch_kernel(gpu, |gpu| probe_scan(gpu, &table, probe, sink, planning))
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
    use crate::hash_table::hash64;
    use windex_sim::{Counters, FaultPlan, GpuSpec, MemLocation, Scale, TraceEvent};

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

    /// What one join run observed.
    #[derive(Debug, PartialEq)]
    struct Observed {
        counters: Counters,
        events: Vec<TraceEvent>,
        pairs: Vec<(u64, u64)>,
        matches: usize,
    }

    /// Who plans (or, for the reference, walks) the probe kernel's slots.
    #[derive(Debug, Clone, Copy)]
    enum Source {
        Planned(Planning),
        KeyByKey,
    }

    /// A single-pass join input for the differential tests.
    struct Case {
        build: Vec<u64>,
        probe: Vec<u64>,
        config: HashJoinConfig,
        faults: Option<FaultPlan>,
    }

    /// `hash_join` for one build pass, with the probe kernel walking every
    /// key on its own through `MultiValueHashTable::probe_key_by_key`.
    /// Every other `Gpu` call is `hash_join`'s, retries and the sink
    /// rollback included.
    fn key_by_key_join(
        gpu: &mut Gpu,
        build: &Buffer<u64>,
        probe: &Buffer<u64>,
        config: HashJoinConfig,
        sink: &mut ResultSink,
    ) -> Result<usize, JoinError> {
        assert_eq!(plan_passes(gpu, build.len(), &config), 1);
        let n = build.len();
        let table = with_join_retries(gpu, |gpu| build_pass(gpu, build, 0..n, &config))?;
        let mark = sink.len();
        let probed = with_join_retries(gpu, |gpu| {
            sink.truncate(mark);
            try_launch_kernel(gpu, |gpu| {
                let mut matches = 0;
                for warp in warps_of(0..probe.len()) {
                    let keys = probe.stream_read(gpu, warp.start, warp.len());
                    for (lane, &key) in keys.iter().enumerate() {
                        let rid = (warp.start + lane) as u64;
                        matches +=
                            table.probe_key_by_key(gpu, key, |gpu, v| sink.emit(gpu, rid, v));
                    }
                }
                matches
            })
            .map_err(JoinError::from)
        });
        table.free(gpu);
        probed
    }

    fn observe(case: &Case, source: Source, traced: bool) -> Observed {
        let mut g = gpu();
        if let Some(plan) = case.faults {
            g.set_fault_plan(plan).unwrap();
        }
        let bb = g.alloc_host_from_vec(case.build.clone());
        let pb = g.alloc_host_from_vec(case.probe.clone());
        let mut sink = ResultSink::with_capacity(&mut g, 1 << 10, MemLocation::Cpu).unwrap();
        if traced {
            g.start_trace(1 << 21);
        }
        let matches = match source {
            Source::Planned(planning) => {
                join_planned(&mut g, &bb, &pb, case.config, &mut sink, planning)
                    .unwrap()
                    .matches
            }
            Source::KeyByKey => key_by_key_join(&mut g, &bb, &pb, case.config, &mut sink).unwrap(),
        };
        let events = if traced {
            let trace = g.stop_trace();
            assert!(!trace.truncated(), "trace capacity too small");
            trace.into_events()
        } else {
            Vec::new()
        };
        Observed {
            counters: g.counters(),
            events,
            pairs: sink.host_pairs(),
            matches,
        }
    }

    /// Helper-planned, inline-planned and key-by-key runs of `case` observe
    /// the same counters, trace events and sink pairs, traced (the general
    /// line walk) and untraced (the one-GPU-line walk).
    fn assert_sources_agree(case: &Case) -> Observed {
        let mut reference = None;
        for traced in [true, false] {
            let key_by_key = observe(case, Source::KeyByKey, traced);
            for planning in [Planning::Helper, Planning::Inline] {
                let planned = observe(case, Source::Planned(planning), traced);
                assert_eq!(
                    planned.counters, key_by_key.counters,
                    "{planning:?} counters (traced: {traced})"
                );
                assert!(
                    planned.events == key_by_key.events,
                    "{planning:?} trace events differ"
                );
                assert_eq!(planned.pairs, key_by_key.pairs, "{planning:?} sink pairs");
                assert_eq!(planned.matches, key_by_key.matches, "{planning:?} matches");
            }
            reference = Some(key_by_key);
        }
        reference.unwrap()
    }

    /// A build side of `distinct` keys in `capacity` slots (load factor
    /// 1.0), `hot` of them repeated into long value chains, and a probe
    /// side spanning three and a half chunks plus a partial warp: half
    /// hits, a hit on the first and last key of every chunk, and the
    /// empty-slot sentinel `u64::MAX`.
    fn dense_case() -> Case {
        let mix = |i: u64| hash64(i ^ 0x5EED) | 1;
        let distinct = 3700u64;
        let mut build: Vec<u64> = (0..distinct).map(mix).collect();
        build.extend((0..396).map(|i| mix(i % 6)));
        let probe_len = 3 * CHUNK_KEYS + CHUNK_KEYS / 2 + 17;
        let mut probe: Vec<u64> = (0..probe_len as u64)
            .map(|i| {
                if i % 2 == 0 {
                    mix(hash64(i) % distinct)
                } else {
                    mix(hash64(i) % distinct) & !1
                }
            })
            .collect();
        for c in 0..probe_len.div_ceil(CHUNK_KEYS) {
            probe[c * CHUNK_KEYS] = mix(c as u64 % 6);
            probe[((c + 1) * CHUNK_KEYS).min(probe_len) - 1] = mix(c as u64 + 100);
        }
        probe[5] = u64::MAX;
        probe[CHUNK_KEYS + 40] = u64::MAX;
        Case {
            build,
            probe,
            config: HashJoinConfig {
                table: HashTableConfig {
                    load_factor: 1.0,
                    max_block: 8,
                },
            },
            faults: None,
        }
    }

    #[test]
    fn planned_probe_equals_key_by_key_on_a_dense_table_with_long_chains() {
        let case = dense_case();
        let mut g = gpu();
        let table = {
            let bb = g.alloc_host_from_vec(case.build.clone());
            build_pass(&mut g, &bb, 0..case.build.len(), &case.config).unwrap()
        };
        assert_eq!(
            table.capacity(),
            4096,
            "slot array sized for the build side"
        );
        assert!(
            table.distinct_keys() * 10 >= table.capacity() * 9,
            "nearly full"
        );
        let observed = assert_sources_agree(&case);
        assert!(observed.matches > case.probe.len() / 2, "hits and chains");
        let chunk_edges = (0..4).flat_map(|c| [c * CHUNK_KEYS, c * CHUNK_KEYS + CHUNK_KEYS - 1]);
        for rid in chunk_edges
            .filter(|&r| r < case.probe.len())
            .chain([case.probe.len() - 1])
        {
            assert!(
                observed.pairs.iter().any(|&(p, _)| p == rid as u64),
                "probe key {rid} (a chunk edge) must match"
            );
        }
        for rid in [5, CHUNK_KEYS + 40] {
            assert!(
                observed.pairs.iter().all(|&(p, _)| p != rid as u64),
                "the sentinel key u64::MAX must never match"
            );
        }
    }

    #[test]
    fn planned_probe_equals_key_by_key_under_transfer_faults_and_retries() {
        let mut case = dense_case();
        // The probe stream and the CPU sink draw transfer faults; a failed
        // probe attempt rolls the sink back and plans again.
        case.faults = Some(FaultPlan::seeded(11).with_transfer_faults(5e-5));
        let observed = assert_sources_agree(&case);
        assert!(
            observed.counters.retries > 0,
            "no probe attempt was retried"
        );
        assert_eq!(observed.pairs.len(), observed.matches, "rolled back");
    }
}
