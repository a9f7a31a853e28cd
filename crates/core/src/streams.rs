//! Push-based streaming windowed join (§5.1's stream-processing extension).
//!
//! The batch operator in [`window`](crate::window) pulls tuples from a
//! relation it can address; this operator inverts control: an upstream
//! operator *pushes* probe batches as they are produced, and the join emits
//! matches as windows close — "closing the window occurs either when the
//! window reaches its capacity, or no more tuples are available on the
//! probe-side of the join" (§5.1). Only one window of state is ever held.

use crate::error::WindexError;
use crate::window::{close_window, WindowConfig, WindowSpan, WindowStats};
use windex_index::OutOfCoreIndex;
use windex_join::ResultSink;
use windex_sim::{Buffer, CostModel, Gpu, PhaseRecorder};

/// A stateful windowed-INLJ operator fed by pushed probe batches.
///
/// ```
/// use windex_core::prelude::*;
/// use windex_core::streams::StreamingWindowJoin;
/// use windex_core::strategy::{BuiltIndex, IndexConfigs};
/// use windex_join::ResultSink;
/// use std::rc::Rc;
///
/// let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
/// let r = Relation::unique_sorted(1 << 14, KeyDistribution::Dense, 1);
/// let col = Rc::new(gpu.alloc_host_from_vec(r.keys().to_vec()));
/// let idx = BuiltIndex::build(&mut gpu, IndexKind::RadixSpline, &col, &IndexConfigs::default());
/// let bits = QueryExecutor::new().resolve_bits(&gpu, &r);
///
/// let cfg = WindowConfig { window_tuples: 256, bits, min_key: 0 };
/// let mut op = StreamingWindowJoin::new(&mut gpu, cfg).unwrap();
/// let mut sink = ResultSink::with_capacity(&mut gpu, 1 << 10, MemLocation::Gpu).unwrap();
///
/// // Upstream pushes batches of (key, rid) tuples as they are produced.
/// op.push(&mut gpu, idx.as_dyn(), &[(0, 100), (2, 101), (7, 102)], &mut sink).unwrap();
/// let stats = op.finish(&mut gpu, idx.as_dyn(), &mut sink).unwrap();
/// assert_eq!(stats.matches, 3);
/// ```
#[derive(Debug)]
pub struct StreamingWindowJoin {
    config: WindowConfig,
    /// CPU-side staging for the open window's keys (the upstream operator
    /// materializes its output batch in CPU memory; filling it is the
    /// upstream's cost).
    staging: Buffer<u64>,
    /// Original rids of the staged keys, parallel to `staging`.
    rids: Vec<u64>,
    fill: usize,
    windows: usize,
    matches: usize,
    finished: bool,
    /// Prices per-window counter deltas for the timeline.
    cost: CostModel,
    /// One entry per successfully closed window, in close order.
    timeline: Vec<WindowSpan>,
    /// Optional phase recorder the operator marks partition/lookup spans
    /// on. Owned (rather than borrowed) so serving layers can transfer it
    /// when the operator is recreated mid-run (e.g. window shrink).
    recorder: Option<PhaseRecorder>,
}

impl StreamingWindowJoin {
    /// Create the operator with one window of CPU staging. A zero-capacity
    /// window is a configuration error, not a panic.
    pub fn new(gpu: &mut Gpu, config: WindowConfig) -> Result<Self, WindexError> {
        if config.window_tuples == 0 {
            return Err(WindexError::InvalidConfig(
                "window must hold at least one tuple",
            ));
        }
        Ok(StreamingWindowJoin {
            staging: gpu.alloc_host(config.window_tuples),
            rids: Vec::with_capacity(config.window_tuples),
            config,
            fill: 0,
            windows: 0,
            matches: 0,
            finished: false,
            cost: CostModel::new(gpu.spec()),
            timeline: Vec::new(),
            recorder: None,
        })
    }

    /// Per-window timeline of every window closed so far: counter delta and
    /// serial time estimate per window, tiling the operator's flush work.
    pub fn timeline(&self) -> &[WindowSpan] {
        &self.timeline
    }

    /// Install (or clear) a phase recorder; the operator marks each flush's
    /// partition and probe work on it. Returns the previously installed
    /// recorder so callers can chain recorders across operator instances.
    pub fn set_phase_recorder(&mut self, rec: Option<PhaseRecorder>) -> Option<PhaseRecorder> {
        std::mem::replace(&mut self.recorder, rec)
    }

    /// Take the installed phase recorder, leaving none. Serving layers use
    /// this to finish the breakdown, or to move the recorder onto a
    /// replacement operator when degrading (window shrink).
    pub fn take_phase_recorder(&mut self) -> Option<PhaseRecorder> {
        self.recorder.take()
    }

    /// Tuples currently buffered in the open window.
    pub fn pending(&self) -> usize {
        self.fill
    }

    /// Push a batch of `(key, rid)` probe tuples. Every full window is
    /// partitioned and joined immediately; matches land in `sink` as
    /// `(rid, index position)`. Pushing into a finished operator is a typed
    /// state error; operator faults bubble up after bounded retries.
    pub fn push(
        &mut self,
        gpu: &mut Gpu,
        index: &dyn OutOfCoreIndex,
        batch: &[(u64, u64)],
        sink: &mut ResultSink,
    ) -> Result<(), WindexError> {
        if self.finished {
            return Err(WindexError::InvalidState("operator already finished"));
        }
        for &(key, rid) in batch {
            self.staging.host_mut()[self.fill] = key;
            self.rids.push(rid);
            self.fill += 1;
            if self.fill == self.config.window_tuples {
                self.flush(gpu, index, sink)?;
            }
        }
        Ok(())
    }

    /// Close the open window *now*, joining whatever it holds, without
    /// ending the stream. This is the dispatch hook for serving layers that
    /// batch keys from many clients into shared windows: a max-delay policy
    /// closes a partially-filled window early rather than holding the
    /// oldest request hostage until the window fills. An empty window is a
    /// no-op. Returns the number of tuples joined.
    pub fn flush_now(
        &mut self,
        gpu: &mut Gpu,
        index: &dyn OutOfCoreIndex,
        sink: &mut ResultSink,
    ) -> Result<usize, WindexError> {
        if self.finished {
            return Err(WindexError::InvalidState("operator already finished"));
        }
        let tuples = self.fill;
        if tuples > 0 {
            self.flush(gpu, index, sink)?;
        }
        Ok(tuples)
    }

    /// Running totals over all windows closed so far (the stream may still
    /// be open; [`finish`](Self::finish) returns the same totals and ends
    /// the stream).
    pub fn stats(&self) -> WindowStats {
        WindowStats {
            windows: self.windows,
            matches: self.matches,
        }
    }

    /// Signal end-of-stream (§5.1: the outer loop ends the input stream):
    /// joins the final partial window and returns the totals. The operator
    /// can be reused afterwards via [`reset`](Self::reset).
    pub fn finish(
        &mut self,
        gpu: &mut Gpu,
        index: &dyn OutOfCoreIndex,
        sink: &mut ResultSink,
    ) -> Result<WindowStats, WindexError> {
        if self.fill > 0 {
            self.flush(gpu, index, sink)?;
        }
        self.finished = true;
        Ok(WindowStats {
            windows: self.windows,
            matches: self.matches,
        })
    }

    /// Clear all state for a new stream. The per-window timeline restarts
    /// with the stream; an installed phase recorder is kept (it attributes
    /// a whole serving run, which may span many streams).
    pub fn reset(&mut self) {
        self.fill = 0;
        self.rids.clear();
        self.windows = 0;
        self.matches = 0;
        self.finished = false;
        self.timeline.clear();
    }

    fn flush(
        &mut self,
        gpu: &mut Gpu,
        index: &dyn OutOfCoreIndex,
        sink: &mut ResultSink,
    ) -> Result<(), WindexError> {
        let span = close_window(
            gpu,
            index,
            &self.config,
            &self.staging,
            0..self.fill,
            Some(&self.rids),
            sink,
            self.recorder.as_mut(),
            Some(&self.cost),
        )?;
        self.timeline.push(WindowSpan {
            window: self.windows,
            ..span
        });
        self.matches += span.matches;
        self.windows += 1;
        self.fill = 0;
        self.rids.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{BuiltIndex, IndexConfigs};
    use crate::window::windowed_inlj;
    use std::rc::Rc;
    use windex_index::IndexKind;
    use windex_join::PartitionBits;
    use windex_sim::{GpuSpec, MemLocation, Scale};
    use windex_workload::{KeyDistribution, Relation};

    fn setup(n_r: usize) -> (Gpu, BuiltIndex, Relation) {
        let mut g = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
        let r = Relation::unique_sorted(n_r, KeyDistribution::SparseUniform, 3);
        let col = Rc::new(g.alloc_host_from_vec(r.keys().to_vec()));
        let idx = BuiltIndex::build(&mut g, IndexKind::Harmonia, &col, &IndexConfigs::default());
        (g, idx, r)
    }

    fn config(window: usize) -> WindowConfig {
        WindowConfig {
            window_tuples: window,
            bits: PartitionBits { shift: 4, bits: 6 },
            min_key: 0,
        }
    }

    #[test]
    fn streaming_equals_batch() {
        let (mut g, idx, r) = setup(20_000);
        let s = Relation::foreign_keys_uniform(&r, 3000, 4);

        // Batch reference.
        let s_col = g.alloc_host_from_vec(s.keys().to_vec());
        let mut batch_sink = ResultSink::with_capacity(&mut g, 3000, MemLocation::Gpu).unwrap();
        let batch = windowed_inlj(
            &mut g,
            idx.as_dyn(),
            &s_col,
            0..3000,
            config(256),
            &mut batch_sink,
        )
        .unwrap();

        // Streaming: pushed in odd-sized chunks.
        let mut op = StreamingWindowJoin::new(&mut g, config(256)).unwrap();
        let mut stream_sink = ResultSink::with_capacity(&mut g, 3000, MemLocation::Gpu).unwrap();
        let tuples: Vec<(u64, u64)> = s
            .keys()
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();
        for chunk in tuples.chunks(177) {
            op.push(&mut g, idx.as_dyn(), chunk, &mut stream_sink)
                .unwrap();
        }
        let stats = op.finish(&mut g, idx.as_dyn(), &mut stream_sink).unwrap();

        assert_eq!(stats.matches, batch.matches);
        assert_eq!(stats.windows, batch.windows);
        let mut a = batch_sink.host_pairs();
        let mut b = stream_sink.host_pairs();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn partial_window_flushes_on_finish() {
        let (mut g, idx, r) = setup(1000);
        let mut op = StreamingWindowJoin::new(&mut g, config(100)).unwrap();
        let mut sink = ResultSink::with_capacity(&mut g, 10, MemLocation::Gpu).unwrap();
        let batch: Vec<(u64, u64)> = r.keys()[..7].iter().map(|&k| (k, 900 + k)).collect();
        op.push(&mut g, idx.as_dyn(), &batch, &mut sink).unwrap();
        assert_eq!(op.pending(), 7);
        assert_eq!(sink.len(), 0, "window not yet closed");
        let stats = op.finish(&mut g, idx.as_dyn(), &mut sink).unwrap();
        assert_eq!(stats.windows, 1);
        assert_eq!(stats.matches, 7);
        // Original rids preserved.
        for (rid, pos) in sink.host_pairs() {
            assert_eq!(rid, 900 + r.keys()[pos as usize]);
        }
    }

    #[test]
    fn reset_allows_reuse() {
        let (mut g, idx, r) = setup(1000);
        let mut op = StreamingWindowJoin::new(&mut g, config(4)).unwrap();
        let mut sink = ResultSink::with_capacity(&mut g, 100, MemLocation::Gpu).unwrap();
        op.push(&mut g, idx.as_dyn(), &[(r.keys()[0], 0)], &mut sink)
            .unwrap();
        op.finish(&mut g, idx.as_dyn(), &mut sink).unwrap();
        op.reset();
        op.push(&mut g, idx.as_dyn(), &[(r.keys()[1], 1)], &mut sink)
            .unwrap();
        let stats = op.finish(&mut g, idx.as_dyn(), &mut sink).unwrap();
        assert_eq!(stats.matches, 1);
    }

    #[test]
    fn empty_push_is_a_noop() {
        let (mut g, idx, _r) = setup(100);
        let mut op = StreamingWindowJoin::new(&mut g, config(8)).unwrap();
        let mut sink = ResultSink::with_capacity(&mut g, 10, MemLocation::Gpu).unwrap();
        let launches_before = g.counters().kernel_launches;
        op.push(&mut g, idx.as_dyn(), &[], &mut sink).unwrap();
        assert_eq!(op.pending(), 0);
        assert_eq!(g.counters().kernel_launches, launches_before);
        assert_eq!(op.stats(), WindowStats::default());
    }

    #[test]
    fn finish_on_empty_window_closes_no_windows() {
        let (mut g, idx, _r) = setup(100);
        let mut op = StreamingWindowJoin::new(&mut g, config(8)).unwrap();
        let mut sink = ResultSink::with_capacity(&mut g, 10, MemLocation::Gpu).unwrap();
        let stats = op.finish(&mut g, idx.as_dyn(), &mut sink).unwrap();
        assert_eq!(stats, WindowStats::default());
        assert_eq!(sink.len(), 0);
    }

    #[test]
    fn batch_exactly_filling_a_window_flushes_once() {
        let (mut g, idx, r) = setup(1000);
        let mut op = StreamingWindowJoin::new(&mut g, config(64)).unwrap();
        let mut sink = ResultSink::with_capacity(&mut g, 64, MemLocation::Gpu).unwrap();
        let batch: Vec<(u64, u64)> = r.keys()[..64].iter().map(|&k| (k, k)).collect();
        op.push(&mut g, idx.as_dyn(), &batch, &mut sink).unwrap();
        // The exact fill closed the window during push; nothing is pending.
        assert_eq!(op.pending(), 0);
        assert_eq!(op.stats().windows, 1);
        assert_eq!(sink.len(), 64);
        // finish has nothing left to flush.
        let stats = op.finish(&mut g, idx.as_dyn(), &mut sink).unwrap();
        assert_eq!(stats.windows, 1);
        assert_eq!(stats.matches, 64);
    }

    #[test]
    fn flush_now_closes_the_partial_window_early() {
        let (mut g, idx, r) = setup(1000);
        let mut op = StreamingWindowJoin::new(&mut g, config(100)).unwrap();
        let mut sink = ResultSink::with_capacity(&mut g, 10, MemLocation::Gpu).unwrap();
        let batch: Vec<(u64, u64)> = r.keys()[..5].iter().map(|&k| (k, k)).collect();
        op.push(&mut g, idx.as_dyn(), &batch, &mut sink).unwrap();
        assert_eq!(op.flush_now(&mut g, idx.as_dyn(), &mut sink).unwrap(), 5);
        assert_eq!(op.pending(), 0);
        assert_eq!(op.stats().windows, 1);
        assert_eq!(sink.len(), 5);
        // Empty flush is a no-op, and the stream is still open for pushes.
        assert_eq!(op.flush_now(&mut g, idx.as_dyn(), &mut sink).unwrap(), 0);
        assert_eq!(op.stats().windows, 1);
        op.push(&mut g, idx.as_dyn(), &batch[..1], &mut sink)
            .unwrap();
        let stats = op.finish(&mut g, idx.as_dyn(), &mut sink).unwrap();
        assert_eq!(stats.windows, 2);
        assert_eq!(stats.matches, 6);
    }

    #[test]
    fn failed_flush_rolls_the_sink_back() {
        // A transient fault mid-push must not leak a failed window's
        // partial output into a long-lived sink.
        use windex_sim::{FaultPlan, RetryPolicy};
        let (mut g, idx, r) = setup(1000);
        let mut op = StreamingWindowJoin::new(&mut g, config(16)).unwrap();
        let mut sink = ResultSink::with_capacity(&mut g, 100, MemLocation::Cpu).unwrap();

        // A healthy window first, so the sink holds prior results.
        let ok: Vec<(u64, u64)> = r.keys()[..16].iter().map(|&k| (k, k)).collect();
        op.push(&mut g, idx.as_dyn(), &ok, &mut sink).unwrap();
        let committed = sink.len();
        assert_eq!(committed, 16);

        // Every transfer now faults: retries exhaust and the flush fails.
        g.set_retry_policy(RetryPolicy {
            max_retries: 1,
            base_backoff_ns: 10,
        });
        g.set_fault_plan(FaultPlan::seeded(11).with_transfer_faults(1.0))
            .expect("valid fault plan");
        let bad: Vec<(u64, u64)> = r.keys()[16..32].iter().map(|&k| (k, k)).collect();
        let err = op.push(&mut g, idx.as_dyn(), &bad, &mut sink).unwrap_err();
        assert!(err.is_transient(), "fault survives retries: {err}");
        assert_eq!(
            sink.len(),
            committed,
            "failed window's partial output must be rolled back"
        );
        assert_eq!(op.stats().windows, 1, "the failed window did not close");

        // Lifting the fault plan lets the stream continue cleanly.
        g.set_fault_plan(FaultPlan::none())
            .expect("valid fault plan");
        op.reset();
        op.push(&mut g, idx.as_dyn(), &bad, &mut sink).unwrap();
        let stats = op.finish(&mut g, idx.as_dyn(), &mut sink).unwrap();
        assert_eq!(stats.matches, 16);
        assert_eq!(sink.len(), committed + 16);
    }

    #[test]
    fn timeline_and_recorder_observe_every_closed_window() {
        use windex_sim::{phase, Counters};
        let (mut g, idx, r) = setup(2000);
        let s = Relation::foreign_keys_uniform(&r, 600, 9);
        let mut op = StreamingWindowJoin::new(&mut g, config(128)).unwrap();
        op.set_phase_recorder(Some(PhaseRecorder::start(&mut g)));
        let mut sink = ResultSink::with_capacity(&mut g, 600, MemLocation::Gpu).unwrap();
        let tuples: Vec<(u64, u64)> = s
            .keys()
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();
        for chunk in tuples.chunks(97) {
            op.push(&mut g, idx.as_dyn(), chunk, &mut sink).unwrap();
        }
        let stats = op.finish(&mut g, idx.as_dyn(), &mut sink).unwrap();

        let timeline = op.timeline().to_vec();
        assert_eq!(timeline.len(), stats.windows);
        assert_eq!(timeline.iter().map(|w| w.keys).sum::<usize>(), 600);
        assert_eq!(
            timeline.iter().map(|w| w.matches).sum::<usize>(),
            stats.matches
        );
        assert!(timeline.iter().all(|w| w.est_s > 0.0));
        // Window indices are the close order.
        for (i, w) in timeline.iter().enumerate() {
            assert_eq!(w.window, i);
        }

        let bd = op.take_phase_recorder().unwrap().finish(&mut g);
        assert_eq!(bd.counter_sum(), bd.total, "span-sum invariant");
        // The recorder covers exactly the flushes, which the timeline tiles
        // (staging writes between flushes are uncounted host work).
        let tiles = timeline
            .iter()
            .fold(Counters::default(), |a, w| a + w.counters);
        assert_eq!(bd.total, tiles);
        assert!(bd.get(phase::PARTITION).is_some());
        assert!(bd.get(phase::LOOKUP).is_some());
        assert!(
            bd.get(phase::OTHER).is_none(),
            "all flush work is attributed to a named phase"
        );
    }

    #[test]
    fn window_stats_serialize_for_reports() {
        let stats = WindowStats {
            windows: 3,
            matches: 42,
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert_eq!(json, r#"{"windows":3,"matches":42}"#);
    }

    #[test]
    fn zero_window_is_a_typed_config_error() {
        let (mut g, _idx, _r) = setup(100);
        let err = StreamingWindowJoin::new(&mut g, config(0)).unwrap_err();
        assert!(matches!(err, WindexError::InvalidConfig(_)));
    }

    #[test]
    fn push_after_finish_is_a_typed_state_error() {
        let (mut g, idx, _r) = setup(100);
        let mut op = StreamingWindowJoin::new(&mut g, config(4)).unwrap();
        let mut sink = ResultSink::with_capacity(&mut g, 10, MemLocation::Gpu).unwrap();
        op.finish(&mut g, idx.as_dyn(), &mut sink).unwrap();
        let err = op
            .push(&mut g, idx.as_dyn(), &[(1, 1)], &mut sink)
            .unwrap_err();
        assert_eq!(err, WindexError::InvalidState("operator already finished"));
        // The operator is still usable after a reset.
        op.reset();
        op.push(&mut g, idx.as_dyn(), &[(1, 1)], &mut sink).unwrap();
    }
}
