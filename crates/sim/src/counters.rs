//! Performance counters collected by the GPU model.
//!
//! These play the role of the POWER9 hardware performance counters the paper
//! uses to observe the GPU's address-translation traffic (§3.3.2), plus the
//! usual cache/transfer counters needed by the cost model.

use crate::fault::SimError;
use serde::Serialize;
use std::ops::{Add, Sub};

/// Invoke a macro once with the full list of counter fields. Every
/// element-wise operation (delta, sum, inversion check) goes through this
/// single list, so adding a counter cannot silently miss one of them.
macro_rules! for_each_counter {
    ($m:ident) => {
        $m!(
            ic_lines_random,
            ic_bytes_random,
            ic_bytes_streamed,
            ic_bytes_written,
            tlb_hits,
            tlb_misses,
            tlb_sweep_misses,
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            gpu_bytes_read,
            gpu_bytes_written,
            compute_ops,
            kernel_launches,
            lookups,
            faults_alloc,
            faults_transfer,
            faults_launch,
            faults_link_flap,
            faults_device_lost,
            ecc_refetch_lines,
            chaos_stall_ns,
            retries,
            retry_backoff_ns
        )
    };
}

/// Cumulative event counters. All counts are in *simulated* units; the cost
/// model scales them back up to paper scale.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Counters {
    /// Cachelines fetched from CPU memory over the interconnect by
    /// data-dependent (random) accesses.
    pub ic_lines_random: u64,
    /// Bytes fetched from CPU memory by data-dependent accesses.
    pub ic_bytes_random: u64,
    /// Bytes streamed sequentially from CPU memory (table scans, probe-key
    /// streams). Streaming reads achieve the full effective bandwidth.
    pub ic_bytes_streamed: u64,
    /// Bytes written back to CPU memory (e.g. result spilling).
    pub ic_bytes_written: u64,
    /// GPU TLB hits.
    pub tlb_hits: u64,
    /// GPU TLB misses. Every miss issues one address-translation request
    /// across the interconnect to the CPU's IOMMU (§3.3.2), so this equals
    /// the paper's "translation requests" metric.
    pub tlb_misses: u64,
    /// The subset of `tlb_misses` that are *page-sweep* events: compulsory
    /// first touches plus periodic re-misses (pages revisited after a long
    /// interval, e.g. once per window). Their counts are proportional to
    /// pages × phases, which the reproduction scale does not shrink — so
    /// the cost model prices them unscaled. The remaining misses are
    /// *thrashing* re-misses (rapid evictions by concurrent lookups), which
    /// scale with the lookup rate.
    pub tlb_sweep_misses: u64,
    /// L1 data-cache hits.
    pub l1_hits: u64,
    /// L1 data-cache misses.
    pub l1_misses: u64,
    /// L2 data-cache hits.
    pub l2_hits: u64,
    /// L2 data-cache misses.
    pub l2_misses: u64,
    /// Bytes read from GPU device memory.
    pub gpu_bytes_read: u64,
    /// Bytes written to GPU device memory.
    pub gpu_bytes_written: u64,
    /// Abstract compute operations (one unit ≈ one warp-wide instruction).
    pub compute_ops: u64,
    /// Number of kernel launches.
    pub kernel_launches: u64,
    /// Number of index lookups performed (for per-lookup normalization,
    /// as in Fig. 4's "translation requests per lookup").
    pub lookups: u64,
    /// Injected device-allocation failures observed.
    pub faults_alloc: u64,
    /// Injected transient transfer faults observed.
    pub faults_transfer: u64,
    /// Injected kernel-launch failures observed.
    pub faults_launch: u64,
    /// The subset of `faults_transfer` fired by a chaos link-flap window
    /// (time-correlated hard failures rather than independent draws).
    pub faults_link_flap: u64,
    /// Operations refused because a chaos device-loss window was active:
    /// a correlated outage, not an independent injected fault.
    pub faults_device_lost: u64,
    /// Device cachelines re-fetched over the interconnect because their
    /// page was quarantined by a chaos ECC storm.
    pub ecc_refetch_lines: u64,
    /// Stall time accrued by chaos brownout windows (the bandwidth the
    /// degraded link could not deliver), in paper-scale nanoseconds. Priced
    /// unscaled by the cost model, like `retry_backoff_ns`.
    pub chaos_stall_ns: u64,
    /// Operator retries performed in response to transient faults.
    pub retries: u64,
    /// Deterministic retry backoff accumulated, in nanoseconds. Priced by
    /// the cost model as unscaled stall time (like kernel launches).
    pub retry_backoff_ns: u64,
}

impl Counters {
    /// Translation requests per index lookup — the y-axis of Fig. 4.
    /// Returns 0.0 if no lookups were recorded.
    pub fn translations_per_lookup(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.tlb_misses as f64 / self.lookups as f64
        }
    }

    /// Total bytes that crossed the interconnect (both directions, payload
    /// only; translation traffic is accounted separately by the cost model).
    pub fn ic_bytes_total(&self) -> u64 {
        self.ic_bytes_random + self.ic_bytes_streamed + self.ic_bytes_written
    }

    /// L1 hit rate in [0, 1]; 0.0 if there were no L1 accesses.
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// TLB hit rate in [0, 1]; 0.0 if there were no TLB accesses.
    pub fn tlb_hit_rate(&self) -> f64 {
        let total = self.tlb_hits + self.tlb_misses;
        if total == 0 {
            0.0
        } else {
            self.tlb_hits as f64 / total as f64
        }
    }

    /// Strict interval delta: `after.checked_delta(before)` yields the
    /// events between two snapshots, or a typed
    /// [`SimError::CounterDeltaInverted`] naming the first inverted field
    /// when the snapshots were captured out of order (or across a counter
    /// reset). Use this wherever a garbage delta would poison a report;
    /// the `-` operator saturates instead of failing.
    pub fn checked_delta(self, before: Counters) -> Result<Counters, SimError> {
        macro_rules! check_fields {
            ($($f:ident),+) => {{
                $(
                    if self.$f < before.$f {
                        return Err(SimError::CounterDeltaInverted {
                            field: stringify!($f),
                        });
                    }
                )+
            }};
        }
        for_each_counter!(check_fields);
        Ok(self - before)
    }
}

impl Sub for Counters {
    type Output = Counters;

    /// Element-wise *saturating* difference: `after - before` yields the
    /// events of the interval between two snapshots. An inverted pair
    /// (snapshots out of order, or taken across a counter reset) clamps to
    /// zero instead of panicking in debug / wrapping in release; use
    /// [`Counters::checked_delta`] to surface inversion as a typed error.
    fn sub(self, rhs: Counters) -> Counters {
        macro_rules! sub_fields {
            ($($f:ident),+) => {
                Counters { $($f: self.$f.saturating_sub(rhs.$f)),+ }
            };
        }
        for_each_counter!(sub_fields)
    }
}

impl Add for Counters {
    type Output = Counters;

    /// Element-wise saturating sum — used to aggregate per-phase and
    /// per-window deltas back into run totals.
    fn add(self, rhs: Counters) -> Counters {
        macro_rules! add_fields {
            ($($f:ident),+) => {
                Counters { $($f: self.$f.saturating_add(rhs.$f)),+ }
            };
        }
        for_each_counter!(add_fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtraction() {
        let before = Counters {
            tlb_misses: 5,
            lookups: 10,
            ..Counters::default()
        };
        let after = Counters {
            tlb_misses: 25,
            lookups: 20,
            ..Counters::default()
        };
        let d = after - before;
        assert_eq!(d.tlb_misses, 20);
        assert_eq!(d.lookups, 10);
        assert!((d.translations_per_lookup() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_delta_saturates_instead_of_panicking() {
        // Regression: a delta across a counter reset (or out-of-order
        // snapshots) used to panic in debug and wrap to garbage in release.
        let before = Counters {
            tlb_misses: 25,
            lookups: 20,
            ..Counters::default()
        };
        let after = Counters {
            tlb_misses: 5,
            lookups: 30,
            ..Counters::default()
        };
        let d = after - before;
        assert_eq!(d.tlb_misses, 0, "inverted field clamps to zero");
        assert_eq!(d.lookups, 10, "well-ordered fields still subtract");
    }

    #[test]
    fn checked_delta_surfaces_inversion_as_typed_error() {
        let before = Counters {
            l1_hits: 7,
            ..Counters::default()
        };
        let after = Counters {
            l1_hits: 3,
            ..Counters::default()
        };
        let err = after.checked_delta(before).unwrap_err();
        assert_eq!(err, SimError::CounterDeltaInverted { field: "l1_hits" });
        // A well-ordered pair matches the `-` operator exactly.
        let ok = before.checked_delta(after - after).unwrap();
        assert_eq!(ok, before);
    }

    #[test]
    fn add_is_elementwise() {
        let a = Counters {
            tlb_misses: 3,
            lookups: 1,
            ..Counters::default()
        };
        let b = Counters {
            tlb_misses: 4,
            retries: 2,
            ..Counters::default()
        };
        let s = a + b;
        assert_eq!(s.tlb_misses, 7);
        assert_eq!(s.lookups, 1);
        assert_eq!(s.retries, 2);
    }

    #[test]
    fn rates_handle_zero() {
        let c = Counters::default();
        assert_eq!(c.l1_hit_rate(), 0.0);
        assert_eq!(c.tlb_hit_rate(), 0.0);
        assert_eq!(c.translations_per_lookup(), 0.0);
    }

    #[test]
    fn hit_rates() {
        let c = Counters {
            l1_hits: 69,
            l1_misses: 31,
            tlb_hits: 3,
            tlb_misses: 1,
            ..Counters::default()
        };
        assert!((c.l1_hit_rate() - 0.69).abs() < 1e-12);
        assert!((c.tlb_hit_rate() - 0.75).abs() < 1e-12);
    }
}
