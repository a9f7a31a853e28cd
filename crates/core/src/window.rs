//! The partitioning window operator — the paper's contribution (§5).
//!
//! Fully partitioning the lookup keys (§4) removes TLB thrashing but
//! materializes the probe input, which partitioned joins are criticized for
//! (§2.3). The partitioning window restores pipelining: the probe stream is
//! divided on-the-fly into disjoint fixed-size batches — *tumbling windows*
//! — and each window is radix-partitioned and joined before the stream
//! continues. Neither join input is materialized beyond one window's worth
//! of GPU memory, yet lookups within a window are key-ordered, so the GPU
//! TLB hit rate stays high.
//!
//! A window closes when it reaches capacity or the probe side is exhausted
//! (§5.1). Any partitioning operator and INLJ variant can be plugged in; as
//! suggested by the paper, this implementation uses the SWWC radix
//! partitioner and the warp-per-32-tuples INLJ. The per-window kernels are
//! issued on two logical CUDA streams (concurrent kernel execution), which
//! the cost model turns into transfer/compute overlap.

use crate::error::WindexError;
use std::ops::Range;
use windex_index::OutOfCoreIndex;
use windex_join::{inlj_pairs, PartitionBits, RadixPartitioner, ResultSink};
use windex_sim::{phase, Buffer, CostModel, Counters, Gpu, PhaseRecorder};

/// Configuration of the windowed INLJ pipeline.
#[derive(Debug, Clone, Copy)]
pub struct WindowConfig {
    /// Window capacity in probe tuples. The paper sweeps 2¹⁸–2²⁶ tuples
    /// (2–512 MiB) in Fig. 7 and settles on 32 MiB (2²² tuples) for the
    /// remaining experiments; at the default 1024× reproduction scale those
    /// are 2⁸–2¹⁶ and 2¹² tuples.
    pub window_tuples: usize,
    /// Radix bit range used inside each window (§4.2).
    pub bits: PartitionBits,
    /// Smallest key of the indexed relation (anchors the bit range).
    pub min_key: u64,
}

/// Outcome of one windowed-INLJ run. Serializable so serving-layer
/// reports (`windex-serve`'s `ServerReport`) can embed it on the
/// existing JSON/CSV output path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct WindowStats {
    /// Number of windows processed.
    pub windows: usize,
    /// Total matches materialized.
    pub matches: usize,
}

/// One entry in a windowed run's per-window timeline: which window, how
/// many probe keys it held, the counter events it generated, and the serial
/// time the cost model assigns those events. Timeline entries tile the
/// windowed region of the run, so their counter deltas sum to the portion
/// of the run total spent inside windows.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct WindowSpan {
    /// Zero-based window index within the run.
    pub window: usize,
    /// Probe keys processed by this window.
    pub keys: usize,
    /// Matches this window materialized.
    pub matches: usize,
    /// Counter events attributed to this window (partition + probe).
    pub counters: Counters,
    /// Serial (non-overlapped) cost-model estimate for this window, in
    /// seconds.
    pub est_s: f64,
}

/// Optional observation hooks for [`windowed_inlj_observed`]: a phase
/// recorder that attributes each window's partition/probe work to the
/// canonical phases, and a timeline that receives one [`WindowSpan`] per
/// closed window. Either hook (or both) may be absent; the default
/// observer observes nothing and costs nothing.
#[derive(Debug, Default)]
pub struct WindowObserver<'a> {
    /// Phase recorder to mark `partition`/`lookup` spans on, if any.
    pub phases: Option<&'a mut PhaseRecorder>,
    /// Timeline receiving one entry per closed window, if any.
    pub timeline: Option<&'a mut Vec<WindowSpan>>,
}

/// Run the windowed INLJ: stream `s[range]` through tumbling windows of
/// `config.window_tuples`, radix-partitioning each window and probing
/// `index` with the partition-ordered pairs. Matches land in `sink` as
/// `(absolute probe rid, index position)`. Each window's partitioned pairs
/// are released before the next window opens, so at most one window of
/// device memory is held; operator faults and capacity errors surface as
/// typed errors after bounded retries.
pub fn windowed_inlj(
    gpu: &mut Gpu,
    index: &dyn OutOfCoreIndex,
    s: &Buffer<u64>,
    range: std::ops::Range<usize>,
    config: WindowConfig,
    sink: &mut ResultSink,
) -> Result<WindowStats, WindexError> {
    windowed_inlj_observed(
        gpu,
        index,
        s,
        range,
        config,
        sink,
        WindowObserver::default(),
    )
}

/// [`windowed_inlj`] with observation: identical join semantics (and
/// identical counter trace — observation only snapshots, never touches),
/// but each window's partition and probe work is marked on the observer's
/// phase recorder and appended to its timeline.
#[allow(clippy::too_many_arguments)]
pub fn windowed_inlj_observed(
    gpu: &mut Gpu,
    index: &dyn OutOfCoreIndex,
    s: &Buffer<u64>,
    range: std::ops::Range<usize>,
    config: WindowConfig,
    sink: &mut ResultSink,
    mut obs: WindowObserver<'_>,
) -> Result<WindowStats, WindexError> {
    if config.window_tuples == 0 {
        return Err(WindexError::InvalidConfig(
            "window must hold at least one tuple",
        ));
    }
    let cost = obs.timeline.is_some().then(|| CostModel::new(gpu.spec()));
    let mut windows = 0;
    let mut matches = 0;
    let mut at = range.start;
    while at < range.end {
        // Close the window at capacity or at end-of-stream (§5.1).
        let end = (at + config.window_tuples).min(range.end);
        let span = close_window(
            gpu,
            index,
            &config,
            s,
            at..end,
            None,
            sink,
            obs.phases.as_deref_mut(),
            cost.as_ref(),
        )?;
        if let Some(timeline) = obs.timeline.as_deref_mut() {
            timeline.push(WindowSpan {
                window: windows,
                ..span
            });
        }
        matches += span.matches;
        windows += 1;
        at = end;
    }
    Ok(WindowStats { windows, matches })
}

/// Close one tumbling window over `src[range]` — the body both the batch
/// operator and [`StreamingWindowJoin`](crate::streams::StreamingWindowJoin)
/// run: radix-partition the range, relabel each pair's rid through `rids`
/// (indexed by position in `src`) if given, probe `index` with the
/// partition-ordered pairs, and free the window. The partition and probe
/// work is marked on `phases`, and the window is priced on `cost` (`est_s`
/// is 0 without one); the caller numbers the returned span. A failed probe
/// rolls `sink` back to its entry length, so a long-lived sink never holds
/// a failed window's partial output.
#[allow(clippy::too_many_arguments)]
pub(crate) fn close_window(
    gpu: &mut Gpu,
    index: &dyn OutOfCoreIndex,
    config: &WindowConfig,
    src: &Buffer<u64>,
    range: Range<usize>,
    rids: Option<&[u64]>,
    sink: &mut ResultSink,
    mut phases: Option<&mut PhaseRecorder>,
    cost: Option<&CostModel>,
) -> Result<WindowSpan, WindexError> {
    let w0 = gpu.snapshot();
    let keys = range.len();
    if let Some(rec) = phases.as_deref_mut() {
        rec.begin(gpu, phase::PARTITION);
    }
    let partitioner = RadixPartitioner::new(config.bits, config.min_key);
    let mut window = match partitioner.partition_stream(gpu, src, range) {
        Ok(w) => w,
        Err(e) => {
            // Close the span so the fault/retry activity stays attributed
            // to the partition phase.
            if let Some(rec) = phases {
                rec.end(gpu);
            }
            return Err(e.into());
        }
    };
    if let Some(rids) = rids {
        // The partitioner labeled pairs with source positions; relabel to
        // the caller's rids. On the device this relabeling is fused into
        // the scatter kernel (the rid column is scattered alongside the
        // key), so it costs no extra traffic.
        for i in 0..window.len() {
            let staged = window.pairs.host()[i * 2 + 1] as usize;
            window.pairs.host_mut()[i * 2 + 1] = rids[staged];
        }
    }
    if let Some(rec) = phases.as_deref_mut() {
        rec.begin(gpu, phase::LOOKUP);
    }
    let mark = sink.len();
    let probed = inlj_pairs(gpu, index, &window.pairs, 0..window.len(), sink);
    window.free(gpu);
    if let Some(rec) = phases {
        rec.end(gpu);
    }
    let matches = match probed {
        Ok(m) => m,
        Err(e) => {
            sink.truncate(mark);
            return Err(e.into());
        }
    };
    let counters = gpu.snapshot() - w0;
    Ok(WindowSpan {
        window: 0,
        keys,
        matches,
        counters,
        est_s: cost.map_or(0.0, |c| c.estimate(&counters, false).total_s),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use windex_index::BinarySearchIndex;
    use windex_join::inlj_stream;
    use windex_sim::{GpuSpec, MemLocation, Scale};

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER))
    }

    fn fixture(g: &mut Gpu, n_r: usize, n_s: usize) -> (BinarySearchIndex, Buffer<u64>, Vec<u64>) {
        let r_keys: Vec<u64> = (0..n_r as u64).map(|i| i * 3).collect();
        let data = Rc::new(g.alloc_host_from_vec(r_keys));
        let idx = BinarySearchIndex::new(data);
        let s_keys: Vec<u64> = (0..n_s as u64)
            .map(|i| (i * 2654435761 % n_r as u64) * 3)
            .collect();
        let s = g.alloc_host_from_vec(s_keys.clone());
        (idx, s, s_keys)
    }

    fn config(window: usize) -> WindowConfig {
        WindowConfig {
            window_tuples: window,
            bits: PartitionBits { shift: 4, bits: 8 },
            min_key: 0,
        }
    }

    #[test]
    fn windowed_result_equals_unwindowed() {
        let mut g = gpu();
        let (idx, s, _) = fixture(&mut g, 50_000, 10_000);
        let mut direct = ResultSink::with_capacity(&mut g, 10_000, MemLocation::Gpu).unwrap();
        inlj_stream(&mut g, &idx, &s, 0..10_000, &mut direct).unwrap();

        let mut windowed = ResultSink::with_capacity(&mut g, 10_000, MemLocation::Gpu).unwrap();
        let stats =
            windowed_inlj(&mut g, &idx, &s, 0..10_000, config(1024), &mut windowed).unwrap();
        assert_eq!(stats.windows, 10); // ceil(10000 / 1024)
        assert_eq!(stats.matches, direct.len());

        let mut a = direct.host_pairs();
        let mut b = windowed.host_pairs();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn window_count_matches_capacity_rule() {
        let mut g = gpu();
        let (idx, s, _) = fixture(&mut g, 1000, 100);
        let mut sink = ResultSink::with_capacity(&mut g, 100, MemLocation::Gpu).unwrap();
        // Exactly divisible.
        let st = windowed_inlj(&mut g, &idx, &s, 0..100, config(25), &mut sink).unwrap();
        assert_eq!(st.windows, 4);
        sink.clear();
        // Final partial window.
        let st = windowed_inlj(&mut g, &idx, &s, 0..100, config(30), &mut sink).unwrap();
        assert_eq!(st.windows, 4);
        sink.clear();
        // One giant window degenerates to the fully-partitioned join.
        let st = windowed_inlj(&mut g, &idx, &s, 0..100, config(1 << 20), &mut sink).unwrap();
        assert_eq!(st.windows, 1);
    }

    #[test]
    fn memory_footprint_is_one_window() {
        // The pipeline never allocates more than ~one window of GPU pairs
        // at a time; with tiny windows the partitioned buffers stay small.
        let mut g = gpu();
        let (idx, s, _) = fixture(&mut g, 10_000, 5000);
        let mut sink = ResultSink::with_capacity(&mut g, 5000, MemLocation::Gpu).unwrap();
        let st = windowed_inlj(&mut g, &idx, &s, 0..5000, config(128), &mut sink).unwrap();
        assert_eq!(st.windows, 40);
        assert_eq!(st.matches, 5000);
    }

    #[test]
    fn sub_range_uses_absolute_rids() {
        let mut g = gpu();
        let (idx, s, s_keys) = fixture(&mut g, 1000, 500);
        let mut sink = ResultSink::with_capacity(&mut g, 500, MemLocation::Gpu).unwrap();
        windowed_inlj(&mut g, &idx, &s, 200..300, config(32), &mut sink).unwrap();
        for (srid, rpos) in sink.host_pairs() {
            assert!((200..300).contains(&(srid as usize)));
            assert_eq!(rpos * 3, s_keys[srid as usize]);
        }
    }

    #[test]
    fn observed_timeline_tiles_the_run() {
        use windex_sim::{Counters, PhaseRecorder};
        let mut g = gpu();
        let (idx, s, _) = fixture(&mut g, 10_000, 2000);
        let mut sink = ResultSink::with_capacity(&mut g, 2000, MemLocation::Gpu).unwrap();
        let mut rec = PhaseRecorder::start(&mut g);
        let mut timeline = Vec::new();
        let before = g.snapshot();
        let st = windowed_inlj_observed(
            &mut g,
            &idx,
            &s,
            0..2000,
            config(256),
            &mut sink,
            WindowObserver {
                phases: Some(&mut rec),
                timeline: Some(&mut timeline),
            },
        )
        .unwrap();
        let total = g.snapshot() - before;
        assert_eq!(timeline.len(), st.windows);
        assert_eq!(timeline.iter().map(|w| w.keys).sum::<usize>(), 2000);
        assert_eq!(
            timeline.iter().map(|w| w.matches).sum::<usize>(),
            st.matches
        );
        assert!(timeline.iter().all(|w| w.est_s > 0.0));
        let sum = timeline
            .iter()
            .fold(Counters::default(), |a, w| a + w.counters);
        assert_eq!(sum, total, "window deltas tile the windowed region");
        let bd = rec.finish(&mut g);
        assert_eq!(bd.total, total);
        assert_eq!(bd.counter_sum(), bd.total, "span-sum invariant");
        assert!(bd.get(windex_sim::phase::PARTITION).is_some());
        assert!(bd.get(windex_sim::phase::LOOKUP).is_some());
    }

    #[test]
    fn failed_probe_rolls_the_sink_back() {
        // The probe keys live in device memory, so only the probe's index
        // reads cross the interconnect: a transfer fault fails the probe
        // part-way through its output, never the partition.
        use windex_sim::{FaultPlan, RetryPolicy};
        let mut g = gpu();
        let (idx, _, s_keys) = fixture(&mut g, 1000, 256);
        let s = g.alloc_from_vec(MemLocation::Gpu, s_keys).unwrap();
        let mut sink = ResultSink::with_capacity(&mut g, 256, MemLocation::Gpu).unwrap();
        windowed_inlj(&mut g, &idx, &s, 0..128, config(128), &mut sink).unwrap();
        assert_eq!(sink.len(), 128);

        g.set_retry_policy(RetryPolicy {
            max_retries: 0,
            base_backoff_ns: 10,
        });
        g.set_fault_plan(FaultPlan::seeded(3).with_transfer_faults(0.01))
            .unwrap();
        let err = windowed_inlj(&mut g, &idx, &s, 128..256, config(128), &mut sink).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert_eq!(sink.len(), 128, "a failed window leaves no output behind");
    }

    #[test]
    fn empty_stream() {
        let mut g = gpu();
        let (idx, s, _) = fixture(&mut g, 100, 10);
        let mut sink = ResultSink::with_capacity(&mut g, 10, MemLocation::Gpu).unwrap();
        let st = windowed_inlj(&mut g, &idx, &s, 5..5, config(4), &mut sink).unwrap();
        assert_eq!(st.windows, 0);
        assert_eq!(st.matches, 0);
    }
}
