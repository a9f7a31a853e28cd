//! Phase-level span recorder on the simulator's virtual clock.
//!
//! The paper's whole argument is counter-driven (translation requests,
//! interconnect bytes, cache hit rates), but end-to-end counter totals
//! cannot say *where* a run spent its budget — how much of a windowed join
//! went to partitioning vs. lookup vs. materialization. This module
//! decomposes a run into **spans**: contiguous counter intervals labeled
//! with a phase name, each capturing the [`Counters`] delta between two
//! snapshots and the serial [`TimeBreakdown`] the cost model assigns it.
//!
//! The design guarantees the **span-sum invariant** by construction: the
//! recorder keeps the last snapshot it saw, and every [`PhaseRecorder::begin`]
//! closes the open span *through the current snapshot*. Counter activity
//! that happens between spans (operator bookkeeping, staging) is attributed
//! to the reserved [`phase::OTHER`] phase rather than dropped, so the sum of
//! per-phase deltas telescopes to exactly `finish_snapshot - start_snapshot`.
//! Tests assert this equality for every executor strategy, including under
//! injected faults and retries.
//!
//! Spans are priced with `overlap = false` (serial time): a span is an
//! attribution unit, not a schedule, and serial pricing keeps per-phase
//! times additive. The run-level report still prices its end-to-end delta
//! with whatever overlap model the executor used.

use crate::cost::{CostModel, TimeBreakdown};
use crate::counters::Counters;
use crate::engine::Gpu;
use serde::Serialize;

/// Canonical phase names used across the workspace. Operators are free to
/// record custom phases, but sticking to this taxonomy keeps reports
/// comparable across executors, servers, and bench runs.
pub mod phase {
    /// Staging data into device memory (builds, uploads).
    pub const STAGE: &str = "stage";
    /// Partitioning probe keys into per-window runs.
    pub const PARTITION: &str = "partition";
    /// Index lookups / join probes.
    pub const LOOKUP: &str = "lookup";
    /// Materializing join results.
    pub const MATERIALIZE: &str = "materialize";
    /// Bulk transfers over the interconnect (spills, result copy-back).
    pub const TRANSFER: &str = "transfer";
    /// Counter activity outside any explicitly-opened span. The recorder
    /// attributes inter-span gaps here so the span-sum invariant holds.
    pub const OTHER: &str = "other";
}

/// One recorded span: a contiguous counter interval labeled with a phase.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Phase label (usually one of the [`phase`] constants).
    pub phase: &'static str,
    /// Counter events that occurred within the span.
    pub counters: Counters,
    /// Serial (non-overlapped) cost-model pricing of `counters`.
    pub time: TimeBreakdown,
}

/// Aggregated statistics for one phase across all its spans.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PhaseStats {
    /// Phase label.
    pub phase: &'static str,
    /// Number of spans aggregated into this entry.
    pub spans: usize,
    /// Element-wise sum of the spans' counter deltas.
    pub counters: Counters,
    /// Serial cost-model pricing of the aggregated counters. The pricing
    /// is linear in every counter, so this equals the sum of the spans'
    /// individual estimates (up to float rounding).
    pub time: TimeBreakdown,
}

/// Per-phase decomposition of a run, produced by [`PhaseRecorder::finish`].
#[derive(Debug, Clone, Default, Serialize)]
pub struct PhaseBreakdown {
    /// One entry per distinct phase, in first-recorded order.
    pub phases: Vec<PhaseStats>,
    /// End-to-end counter delta of the recorded region
    /// (`finish` snapshot − `start` snapshot).
    pub total: Counters,
    /// Sum of the per-phase serial time estimates, in seconds.
    pub total_est_s: f64,
}

impl PhaseBreakdown {
    /// The aggregated stats for `phase`, if any span recorded it.
    pub fn get(&self, phase: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.phase == phase)
    }

    /// Fraction of `total_est_s` attributed to `phase` (0.0 if the phase
    /// was never recorded or the total estimate is zero).
    pub fn share(&self, phase: &str) -> f64 {
        if self.total_est_s <= 0.0 {
            return 0.0;
        }
        self.get(phase)
            .map(|p| p.time.total_s / self.total_est_s)
            .unwrap_or(0.0)
    }

    /// Element-wise sum of the per-phase counter deltas. The span-sum
    /// invariant states this equals [`PhaseBreakdown::total`]; integration
    /// tests assert it for every executor strategy.
    pub fn counter_sum(&self) -> Counters {
        self.phases
            .iter()
            .fold(Counters::default(), |acc, p| acc + p.counters)
    }
}

/// Records phase-labeled spans against a [`Gpu`]'s counter stream.
///
/// Usage: [`PhaseRecorder::start`] at the beginning of the region to
/// attribute, [`PhaseRecorder::begin`] before each phase (which closes the
/// previous one), and [`PhaseRecorder::finish`] at the end to obtain the
/// [`PhaseBreakdown`]. Activity before the first `begin`, after an
/// [`PhaseRecorder::end`], or between `end` and the next `begin` is
/// attributed to [`phase::OTHER`].
#[derive(Debug, Clone)]
pub struct PhaseRecorder {
    first: Counters,
    last: Counters,
    open: Option<&'static str>,
    spans: Vec<Span>,
    cost: CostModel,
}

impl PhaseRecorder {
    /// Start recording at the GPU's current counter snapshot.
    pub fn start(gpu: &mut Gpu) -> Self {
        let snap = gpu.snapshot();
        PhaseRecorder {
            first: snap,
            last: snap,
            open: None,
            spans: Vec::new(),
            cost: CostModel::new(gpu.spec()),
        }
    }

    /// Close any open (or gap) span through `now`, labeling it `label`.
    /// Empty intervals are skipped but still advance the watermark, so
    /// the telescoping sum is preserved either way.
    fn close_through(&mut self, now: Counters, label: &'static str) {
        let delta = now - self.last;
        if delta != Counters::default() {
            let time = self.cost.estimate(&delta, false);
            self.spans.push(Span {
                phase: label,
                counters: delta,
                time,
            });
        }
        self.last = now;
    }

    /// Open a span for `phase`, closing the previously open span (or
    /// attributing the gap since the last close to [`phase::OTHER`]).
    pub fn begin(&mut self, gpu: &mut Gpu, phase: &'static str) {
        let now = gpu.snapshot();
        let prev = self.open.take().unwrap_or(phase::OTHER);
        self.close_through(now, prev);
        self.open = Some(phase);
    }

    /// Close the currently open span at the GPU's current snapshot. A
    /// no-op watermark advance if no span is open and no events occurred.
    pub fn end(&mut self, gpu: &mut Gpu) {
        let now = gpu.snapshot();
        let prev = self.open.take().unwrap_or(phase::OTHER);
        self.close_through(now, prev);
    }

    /// The raw spans recorded so far, in order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Close any open span and aggregate everything recorded into a
    /// [`PhaseBreakdown`] whose `total` is the exact end-to-end delta of
    /// the recorded region.
    pub fn finish(mut self, gpu: &mut Gpu) -> PhaseBreakdown {
        self.end(gpu);
        let mut phases: Vec<PhaseStats> = Vec::new();
        for span in &self.spans {
            let entry = match phases.iter_mut().find(|p| p.phase == span.phase) {
                Some(e) => e,
                None => {
                    phases.push(PhaseStats {
                        phase: span.phase,
                        ..PhaseStats::default()
                    });
                    phases.last_mut().expect("just pushed")
                }
            };
            entry.spans += 1;
            entry.counters = entry.counters + span.counters;
        }
        let mut total_est_s = 0.0;
        for entry in &mut phases {
            entry.time = self.cost.estimate(&entry.counters, false);
            total_est_s += entry.time.total_s;
        }
        PhaseBreakdown {
            phases,
            total: self.last - self.first,
            total_est_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use crate::spec::GpuSpec;
    use crate::MemLocation;

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER))
    }

    #[test]
    fn spans_partition_the_counter_stream() {
        let mut gpu = gpu();
        let data = gpu.alloc_host_from_vec((0u64..4096).collect::<Vec<_>>());
        let mut rec = PhaseRecorder::start(&mut gpu);

        rec.begin(&mut gpu, phase::PARTITION);
        for i in 0..64 {
            data.read(&mut gpu, i * 7 % 4096);
        }
        rec.begin(&mut gpu, phase::LOOKUP);
        for i in 0..128 {
            data.read(&mut gpu, (i * 131) % 4096);
        }
        gpu.count_lookups(128);
        rec.end(&mut gpu);
        // Gap activity between end and finish goes to OTHER.
        data.read(&mut gpu, 0);

        let before_finish = gpu.snapshot();
        let bd = rec.finish(&mut gpu);
        assert_eq!(bd.total, before_finish - Counters::default());
        assert_eq!(bd.counter_sum(), bd.total, "span-sum invariant");
        assert!(bd.get(phase::PARTITION).is_some());
        assert!(bd.get(phase::LOOKUP).is_some());
        assert!(bd.get(phase::OTHER).is_some(), "gap attributed to other");
        assert_eq!(bd.get(phase::LOOKUP).unwrap().counters.lookups, 128);
        assert!(bd.total_est_s > 0.0);
        let share_sum: f64 = bd.phases.iter().map(|p| bd.share(p.phase)).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_recorder_is_all_zero() {
        let mut gpu = gpu();
        let rec = PhaseRecorder::start(&mut gpu);
        let bd = rec.finish(&mut gpu);
        assert!(bd.phases.is_empty());
        assert_eq!(bd.total, Counters::default());
        assert_eq!(bd.total_est_s, 0.0);
        assert_eq!(bd.share(phase::LOOKUP), 0.0);
    }

    #[test]
    fn repeated_phase_aggregates_across_spans() {
        let mut gpu = gpu();
        let data = gpu
            .alloc_from_vec(MemLocation::Gpu, (0u64..1024).collect::<Vec<_>>())
            .expect("fits HBM budget");
        let mut rec = PhaseRecorder::start(&mut gpu);
        for round in 0..3 {
            rec.begin(&mut gpu, phase::LOOKUP);
            for i in 0..16 {
                data.read(&mut gpu, (round * 16 + i) % 1024);
            }
            rec.end(&mut gpu);
        }
        let spans = rec.spans().len();
        assert_eq!(spans, 3);
        let bd = rec.finish(&mut gpu);
        assert_eq!(bd.phases.len(), 1);
        let lookup = bd.get(phase::LOOKUP).unwrap();
        assert_eq!(lookup.spans, 3);
        assert_eq!(bd.counter_sum(), bd.total);
    }
}
