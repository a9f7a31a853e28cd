//! Analytic cost model: converts counter deltas into estimated wall time.
//!
//! The trace-driven engine measures *what* crossed each boundary; this module
//! prices it. All linear counters are first scaled back up to paper scale
//! (see [`Scale`](crate::scale::Scale)), so reported times and Q/s are
//! paper-scale estimates.
//!
//! Components:
//!
//! - **streamed transfer** — sequential interconnect reads/writes at the
//!   effective link bandwidth;
//! - **random transfer** — cacheline-granularity data-dependent reads,
//!   derated by the link's fine-grained-read efficiency (§2.1);
//! - **translation** — address-translation requests at ~3 µs each (§3.3.2),
//!   amortized over the platform's in-flight translation limit (misses from
//!   many stalled warps overlap, so translations are throughput-limited);
//! - **GPU memory** — device-memory traffic at HBM bandwidth;
//! - **compute** — warp instructions at the device's issue rate;
//! - **launch** — fixed per-kernel overhead. Kernel-launch counts are *not*
//!   scaled: the experiment drivers launch the same number of kernels the
//!   paper's runs would (window counts are size-ratio-preserved).
//!
//! With *concurrent kernel execution* (§5.1) the interconnect-bound side and
//! the GPU-bound side overlap on two CUDA streams, so the total is their
//! maximum; without it the phases serialize.

use crate::counters::Counters;
use crate::spec::GpuSpec;
use serde::Serialize;

/// Per-component time estimate, in seconds (paper scale).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct TimeBreakdown {
    /// Sequential interconnect transfers (scans, probe streams, spills).
    pub streamed_s: f64,
    /// Data-dependent cacheline fetches over the interconnect.
    pub random_s: f64,
    /// Address-translation service time (GPU TLB misses).
    pub translation_s: f64,
    /// GPU device-memory traffic.
    pub gpu_mem_s: f64,
    /// Compute issue time.
    pub compute_s: f64,
    /// Kernel launch overhead.
    pub launch_s: f64,
    /// Retry backoff stall time after transient faults.
    pub fault_s: f64,
    /// Total estimated time.
    pub total_s: f64,
}

impl TimeBreakdown {
    /// Queries per second implied by the total. A zero (or negative) total
    /// clamps to `0.0` rather than producing `inf`: these values flow into
    /// serialized JSON artifacts and the experiment gates' tolerance
    /// bands, where a non-finite number would silently break comparisons
    /// (`inf` serializes as `null` and defeats every relative-error check).
    pub fn queries_per_second(&self) -> f64 {
        if self.total_s > 0.0 {
            1.0 / self.total_s
        } else {
            0.0
        }
    }

    /// The interconnect-bound component (what a transfer stream occupies).
    pub fn interconnect_side_s(&self) -> f64 {
        self.streamed_s + self.random_s + self.translation_s
    }

    /// The GPU-bound component (what a compute stream occupies).
    pub fn gpu_side_s(&self) -> f64 {
        self.gpu_mem_s + self.compute_s
    }
}

/// A synthetic per-batch access profile for a *candidate* execution plan —
/// the cost-model evaluation entry point used by the online tuner to price
/// plans it has not run yet.
///
/// The profile is an abstract counter recipe (absolute totals for one batch
/// of `keys` lookups, in simulated units like [`Counters`]); the model turns
/// it into a counter delta and prices it through the exact same
/// [`CostModel::estimate`] path as measured runs, so analytic priors and
/// realized measurements live on one scale.
#[derive(Debug, Clone, Copy, Default)]
pub struct CandidateProfile {
    /// Probe keys the batch carries.
    pub keys: u64,
    /// Bytes streamed sequentially over the interconnect (table scans,
    /// probe-key streams).
    pub streamed_bytes: u64,
    /// Cachelines fetched by data-dependent (random) interconnect reads.
    pub random_lines: u64,
    /// Thrashing TLB re-misses (scaled like lookups).
    pub thrash_tlb_misses: u64,
    /// Page-sweep TLB misses (priced unscaled, like measured sweeps).
    pub sweep_tlb_misses: u64,
    /// Device-memory bytes moved (reads + writes combined).
    pub gpu_bytes: u64,
    /// Abstract compute operations.
    pub compute_ops: u64,
    /// Kernel launches (scale-invariant, like measured launches).
    pub kernel_launches: u64,
}

impl CandidateProfile {
    /// Lower the profile to the counter delta it describes.
    pub fn to_counters(&self, cacheline_bytes: u64) -> Counters {
        Counters {
            ic_bytes_streamed: self.streamed_bytes,
            ic_lines_random: self.random_lines,
            ic_bytes_random: self.random_lines * cacheline_bytes,
            tlb_misses: self.thrash_tlb_misses + self.sweep_tlb_misses,
            tlb_sweep_misses: self.sweep_tlb_misses,
            gpu_bytes_read: self.gpu_bytes,
            compute_ops: self.compute_ops,
            kernel_launches: self.kernel_launches,
            lookups: self.keys,
            ..Counters::default()
        }
    }
}

/// Prices counter deltas for a particular device.
#[derive(Debug, Clone)]
pub struct CostModel {
    spec: GpuSpec,
}

impl CostModel {
    /// Build a cost model for `spec`.
    pub fn new(spec: &GpuSpec) -> Self {
        CostModel { spec: spec.clone() }
    }

    /// Estimate the wall time of the events in `delta`. `overlap` enables
    /// the concurrent-kernel two-stream model of §5.1.
    pub fn estimate(&self, delta: &Counters, overlap: bool) -> TimeBreakdown {
        let s = &self.spec;
        let ic = &s.interconnect;
        let scale = s.scale.factor as f64;

        let eff_bw = ic.effective_bandwidth_gbps * 1e9;
        let rand_bw = eff_bw * ic.fine_grained_efficiency;

        let streamed_s = (delta.ic_bytes_streamed + delta.ic_bytes_written) as f64 * scale / eff_bw;
        // ECC-quarantined device lines are re-fetched over the interconnect
        // at cacheline granularity, so they price like random remote reads.
        let ecc_bytes = delta.ecc_refetch_lines * s.cacheline_bytes;
        let random_s = (delta.ic_bytes_random + ecc_bytes) as f64 * scale / rand_bw;
        // Page-sweep misses count pages × phases (already paper-scale:
        // pages are not shrunk per tuple); thrashing re-misses count
        // lookups (scaled). Saturate: a saturating `Counters` delta can
        // leave `tlb_sweep_misses > tlb_misses`, and an unchecked u64
        // subtraction would panic in debug / wrap to an absurd translation
        // cost in release.
        let thrash_misses = delta.tlb_misses.saturating_sub(delta.tlb_sweep_misses) as f64;
        let sweep_misses = delta.tlb_sweep_misses as f64;
        let per_miss_s = ic.translation_latency_ns * 1e-9 / ic.max_inflight_translations as f64;
        let translation_s = (thrash_misses * scale + sweep_misses) * per_miss_s;
        let gpu_mem_s = (delta.gpu_bytes_read + delta.gpu_bytes_written) as f64 * scale
            / (s.mem_bandwidth_gbps * 1e9);
        // Issue rate: each SM retires roughly two warp-wide instructions per
        // cycle on the modeled architectures.
        let issue_rate = s.sm_count as f64 * s.clock_ghz * 1e9 * 2.0;
        let compute_s = delta.compute_ops as f64 * scale / issue_rate;
        // Launch counts are scale-invariant (see module docs).
        let launch_s = delta.kernel_launches as f64 * s.kernel_launch_ns * 1e-9;
        // Retry backoff and chaos brownout stalls are wall-clock stall
        // time, already in real nanoseconds (like launches: their counts
        // are scale-invariant).
        let fault_s = (delta.retry_backoff_ns as f64 + delta.chaos_stall_ns as f64) * 1e-9;

        let mut bd = TimeBreakdown {
            streamed_s,
            random_s,
            translation_s,
            gpu_mem_s,
            compute_s,
            launch_s,
            fault_s,
            total_s: 0.0,
        };
        let ic_side = bd.interconnect_side_s();
        let gpu_side = bd.gpu_side_s();
        bd.total_s = launch_s
            + fault_s
            + if overlap {
                ic_side.max(gpu_side)
            } else {
                ic_side + gpu_side
            };
        bd
    }

    /// Price a candidate plan's synthetic access profile — identical
    /// pricing path to [`estimate`](Self::estimate), so a prior computed
    /// here is directly comparable to a realized per-batch measurement.
    pub fn estimate_candidate(&self, profile: &CandidateProfile, overlap: bool) -> TimeBreakdown {
        let delta = profile.to_counters(self.spec.cacheline_bytes);
        self.estimate(&delta, overlap)
    }

    /// Paper-scale bytes moved over the interconnect in `delta` — the
    /// transfer volume the paper's Fig. 1 and §6 discuss.
    pub fn transfer_volume_bytes(&self, delta: &Counters) -> u64 {
        self.spec.scale.paper_bytes(delta.ic_bytes_total())
    }

    /// The device spec this model prices for.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    fn model() -> CostModel {
        CostModel::new(&GpuSpec::v100_nvlink2(Scale::PAPER))
    }

    #[test]
    fn streamed_scan_priced_at_effective_bandwidth() {
        let m = model();
        // 1 simulated MiB = 1 paper GiB streamed.
        let d = Counters {
            ic_bytes_streamed: 1 << 20,
            ..Counters::default()
        };
        let t = m.estimate(&d, false);
        let expect = (1u64 << 30) as f64 / (63.0 * 1e9);
        assert!((t.streamed_s - expect).abs() / expect < 1e-9);
        assert!((t.total_s - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn random_reads_are_derated() {
        let m = model();
        let d = Counters {
            ic_bytes_random: 1 << 20,
            ..Counters::default()
        };
        let streamed = Counters {
            ic_bytes_streamed: 1 << 20,
            ..Counters::default()
        };
        let tr = m.estimate(&d, false).total_s;
        let ts = m.estimate(&streamed, false).total_s;
        assert!(tr > ts, "random bytes must cost more than streamed bytes");
    }

    #[test]
    fn translations_dominate_when_thrashing() {
        let m = model();
        // One translation per lookup for 2^16 simulated lookups ≈ paper's
        // 2^26 lookups: 2^26 × 3 µs / 24 in flight ≈ 8.4 s.
        let d = Counters {
            tlb_misses: 1 << 16,
            ..Counters::default()
        };
        let t = m.estimate(&d, false);
        assert!(t.translation_s > 6.0 && t.translation_s < 12.0);
    }

    #[test]
    fn overlap_takes_max_of_sides() {
        let m = model();
        let d = Counters {
            ic_bytes_streamed: 1 << 20,
            gpu_bytes_read: 1 << 20,
            ..Counters::default()
        };
        let serial = m.estimate(&d, false);
        let overlapped = m.estimate(&d, true);
        assert!(overlapped.total_s < serial.total_s);
        let expected = serial.streamed_s.max(serial.gpu_mem_s);
        assert!((overlapped.total_s - expected).abs() < 1e-12);
    }

    #[test]
    fn inverted_tlb_delta_saturates_instead_of_panicking() {
        // Regression: a saturating `Counters` delta can leave
        // `tlb_sweep_misses > tlb_misses`; the unchecked subtraction used
        // to panic in debug builds (and wrap to ~2^64 thrash misses in
        // release, pricing a single batch at millions of seconds).
        let m = model();
        let d = Counters {
            tlb_misses: 5,
            tlb_sweep_misses: 10,
            ..Counters::default()
        };
        let t = m.estimate(&d, false);
        assert!(t.translation_s.is_finite());
        // Thrash component saturates to zero; only the 10 sweep misses are
        // priced (unscaled).
        let per_miss = 3000e-9 / 24.0;
        assert!((t.translation_s - 10.0 * per_miss).abs() < 1e-12);
    }

    #[test]
    fn zero_time_reports_zero_qps_not_inf() {
        // Regression: `1.0 / 0.0 = inf` used to flow into JSON artifacts
        // (where it serializes as `null`) and the gate tolerance bands.
        let t = TimeBreakdown::default();
        assert_eq!(t.total_s, 0.0);
        let qps = t.queries_per_second();
        assert_eq!(qps, 0.0);
        assert!(qps.is_finite());
        // Non-zero time still reports the reciprocal.
        let t = TimeBreakdown {
            total_s: 0.5,
            ..TimeBreakdown::default()
        };
        assert_eq!(t.queries_per_second(), 2.0);
    }

    #[test]
    fn candidate_profile_prices_like_equivalent_counters() {
        let m = model();
        let p = CandidateProfile {
            keys: 1 << 10,
            streamed_bytes: 1 << 20,
            random_lines: 512,
            thrash_tlb_misses: 64,
            sweep_tlb_misses: 32,
            gpu_bytes: 1 << 16,
            compute_ops: 1 << 12,
            kernel_launches: 8,
        };
        let via_profile = m.estimate_candidate(&p, true);
        let via_counters = m.estimate(&p.to_counters(m.spec().cacheline_bytes), true);
        assert_eq!(via_profile.total_s, via_counters.total_s);
        assert!(via_profile.total_s > 0.0);
        // Streaming more bytes must cost more — the profile really flows
        // through the pricing path.
        let mut bigger = p;
        bigger.streamed_bytes *= 4;
        assert!(m.estimate_candidate(&bigger, true).total_s > via_profile.total_s);
    }

    #[test]
    fn transfer_volume_is_paper_scaled() {
        let m = model();
        let d = Counters {
            ic_bytes_streamed: 100,
            ic_bytes_random: 28,
            ..Counters::default()
        };
        assert_eq!(m.transfer_volume_bytes(&d), 128 * 1024);
    }
}
