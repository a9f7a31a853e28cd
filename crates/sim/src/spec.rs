//! Device specifications: GPUs and CPU↔GPU interconnects.
//!
//! The presets mirror the hardware of the paper's evaluation (Table 1 and
//! §3.2): an NVIDIA V100-SXM2 attached over NVLink 2.0 to a POWER9 host, an
//! NVIDIA A100 attached over PCI-e 4.0, and the forward-looking GH200 with
//! NVLink C2C. Bandwidth figures are receive bandwidths as listed in Table 1;
//! effective (achievable) rates and fine-grained-read efficiencies follow the
//! measurements of Lutz et al. cited in §2.1 of the paper.

use crate::scale::Scale;
use serde::Serialize;

/// A CPU↔GPU interconnect model.
#[derive(Debug, Clone, Serialize)]
pub struct InterconnectSpec {
    /// Human-readable name, e.g. `"NVLink 2.0"`.
    pub name: &'static str,
    /// Peak receive bandwidth in GB/s (Table 1 of the paper).
    pub peak_bandwidth_gbps: f64,
    /// Achievable streaming bandwidth in GB/s for large sequential reads.
    pub effective_bandwidth_gbps: f64,
    /// Fraction of the effective bandwidth reached by cacheline-granularity
    /// data-dependent reads (index traversals). Fast interconnects handle
    /// fine-grained access well; PCI-e does not (§2.1, §5.2.3).
    pub fine_grained_efficiency: f64,
    /// One-way latency of a single small transfer, in nanoseconds.
    pub latency_ns: f64,
    /// Cost of one GPU→CPU address-translation round trip (a GPU TLB miss
    /// serviced by the host IOMMU), in nanoseconds. The paper reports ~3 µs
    /// on the POWER9/NVLink platform (§3.3.2).
    pub translation_latency_ns: f64,
    /// How many address translations the platform keeps in flight
    /// concurrently. Translations are throughput-limited, not serialized:
    /// many stalled warps each wait on their own translation.
    pub max_inflight_translations: u32,
    /// Whether the GPU can dereference CPU memory at cacheline granularity
    /// (true for NVLink/Infinity Fabric/C2C; PCI-e traditionally needs page
    /// migration, but the paper's A100 setup also performs direct access).
    pub cacheline_granularity: bool,
}

impl InterconnectSpec {
    /// PCI-e 4.0 x16: 32 GB/s peak receive (Table 1).
    pub fn pcie4() -> Self {
        InterconnectSpec {
            name: "PCI-e 4.0",
            peak_bandwidth_gbps: 32.0,
            effective_bandwidth_gbps: 25.0,
            fine_grained_efficiency: 0.50,
            latency_ns: 1_400.0,
            translation_latency_ns: 3_000.0,
            max_inflight_translations: 16,
            cacheline_granularity: true,
        }
    }

    /// PCI-e 5.0 x16: 64 GB/s peak receive (Table 1).
    pub fn pcie5() -> Self {
        InterconnectSpec {
            name: "PCI-e 5.0",
            peak_bandwidth_gbps: 64.0,
            effective_bandwidth_gbps: 52.0,
            fine_grained_efficiency: 0.52,
            latency_ns: 1_200.0,
            translation_latency_ns: 3_000.0,
            max_inflight_translations: 16,
            cacheline_granularity: true,
        }
    }

    /// AMD Infinity Fabric 3 (MI250X): 72 GB/s receive (Table 1).
    pub fn infinity_fabric3() -> Self {
        InterconnectSpec {
            name: "Infinity Fabric 3",
            peak_bandwidth_gbps: 72.0,
            effective_bandwidth_gbps: 60.0,
            fine_grained_efficiency: 0.75,
            latency_ns: 900.0,
            translation_latency_ns: 3_000.0,
            max_inflight_translations: 24,
            cacheline_granularity: true,
        }
    }

    /// NVLink 2.0 (V100 on POWER9): 75 GB/s receive (Table 1).
    pub fn nvlink2() -> Self {
        InterconnectSpec {
            name: "NVLink 2.0",
            peak_bandwidth_gbps: 75.0,
            effective_bandwidth_gbps: 63.0,
            fine_grained_efficiency: 0.85,
            latency_ns: 700.0,
            translation_latency_ns: 3_000.0,
            max_inflight_translations: 24,
            cacheline_granularity: true,
        }
    }

    /// NVLink C2C (GH200 Grace Hopper): 450 GB/s receive (Table 1).
    pub fn nvlink_c2c() -> Self {
        InterconnectSpec {
            name: "NVLink C2C",
            peak_bandwidth_gbps: 450.0,
            effective_bandwidth_gbps: 410.0,
            fine_grained_efficiency: 0.88,
            latency_ns: 400.0,
            translation_latency_ns: 1_500.0,
            max_inflight_translations: 64,
            cacheline_granularity: true,
        }
    }

    /// NVLink 4 GPU↔GPU peer link (Hopper-class NVSwitch fabric): direct
    /// device-to-device transfers at ~450 GB/s per direction with sub-µs
    /// latency. This is an *inter-GPU edge* model for clusters, not a
    /// CPU↔GPU attachment; peer transfers skip the host entirely.
    pub fn nvlink4_peer() -> Self {
        InterconnectSpec {
            name: "NVLink 4 peer",
            peak_bandwidth_gbps: 450.0,
            effective_bandwidth_gbps: 400.0,
            fine_grained_efficiency: 0.85,
            latency_ns: 500.0,
            translation_latency_ns: 1_500.0,
            max_inflight_translations: 64,
            cacheline_granularity: true,
        }
    }

    /// Host-staged GPU↔GPU bounce over PCI-e 4.0: without peer links, an
    /// inter-GPU transfer crosses the link twice (device → host buffer →
    /// device), halving the usable bandwidth and more than doubling the
    /// latency (two DMA setups plus a host-side copy). This is the
    /// pessimistic inter-GPU edge the cluster experiment compares against
    /// NVLink peer wiring.
    pub fn pcie4_host_staged() -> Self {
        InterconnectSpec {
            name: "PCI-e 4.0 host-staged",
            peak_bandwidth_gbps: 16.0,
            effective_bandwidth_gbps: 11.0,
            fine_grained_efficiency: 0.35,
            latency_ns: 3_400.0,
            translation_latency_ns: 3_000.0,
            max_inflight_translations: 16,
            cacheline_granularity: false,
        }
    }

    /// All Table 1 rows, in the paper's order.
    pub fn table1() -> Vec<(&'static str, InterconnectSpec)> {
        vec![
            ("various", Self::pcie4()),
            ("various", Self::pcie5()),
            ("AMD MI250X", Self::infinity_fabric3()),
            ("NVIDIA V100", Self::nvlink2()),
            ("NVIDIA GH200", Self::nvlink_c2c()),
        ]
    }

    /// Validate the numeric invariants pricing depends on. Rejects the
    /// degenerate configurations (zero or NaN bandwidths, efficiencies
    /// outside `(0, 1]`, negative latencies, zero translation slots) that
    /// would otherwise silently produce infinite or NaN transfer times.
    pub fn validate(&self) -> Result<(), crate::fault::SimError> {
        use crate::fault::SimError;
        let finite_pos = |v: f64| v.is_finite() && v > 0.0;
        if !finite_pos(self.peak_bandwidth_gbps) || !finite_pos(self.effective_bandwidth_gbps) {
            return Err(SimError::InvalidConfig(format!(
                "{}: bandwidths must be finite and positive \
                 (peak {} GB/s, effective {} GB/s)",
                self.name, self.peak_bandwidth_gbps, self.effective_bandwidth_gbps
            )));
        }
        if self.effective_bandwidth_gbps > self.peak_bandwidth_gbps {
            return Err(SimError::InvalidConfig(format!(
                "{}: effective bandwidth {} GB/s exceeds peak {} GB/s",
                self.name, self.effective_bandwidth_gbps, self.peak_bandwidth_gbps
            )));
        }
        if !(self.fine_grained_efficiency.is_finite()
            && self.fine_grained_efficiency > 0.0
            && self.fine_grained_efficiency <= 1.0)
        {
            return Err(SimError::InvalidConfig(format!(
                "{}: fine_grained_efficiency must be in (0, 1], got {}",
                self.name, self.fine_grained_efficiency
            )));
        }
        let lat_ok = |v: f64| v.is_finite() && v >= 0.0;
        if !lat_ok(self.latency_ns) || !lat_ok(self.translation_latency_ns) {
            return Err(SimError::InvalidConfig(format!(
                "{}: latencies must be finite and non-negative \
                 (latency {} ns, translation {} ns)",
                self.name, self.latency_ns, self.translation_latency_ns
            )));
        }
        if self.max_inflight_translations == 0 {
            return Err(SimError::InvalidConfig(format!(
                "{}: max_inflight_translations must be at least 1",
                self.name
            )));
        }
        Ok(())
    }

    /// Price one transfer of `bytes` across this link: one-way latency plus
    /// streaming time at the effective bandwidth. Used for inter-GPU edges
    /// (shard fan-out and result merges) where transfers are sequential
    /// streams, not cacheline-granularity dependent reads.
    #[inline]
    pub fn transfer_s(&self, bytes: u64) -> f64 {
        self.latency_ns * 1e-9 + bytes as f64 / (self.effective_bandwidth_gbps * 1e9)
    }
}

/// A GPU device model together with its interconnect and address-translation
/// configuration.
#[derive(Debug, Clone, Serialize)]
pub struct GpuSpec {
    /// Device name, e.g. `"NVIDIA Tesla V100-SXM2"`.
    pub name: &'static str,
    /// Threads per warp (32 on NVIDIA GPUs, §2.2).
    pub warp_size: u32,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// On-board (device) memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// On-board (device) memory capacity in *simulated* bytes, scaled with
    /// the data like `l2_bytes`. This is the budget the engine enforces on
    /// device allocations: the paper's workloads exceed GPU memory by
    /// design (out-of-core processing), so operators that stage state in
    /// HBM must fit it or degrade.
    pub hbm_bytes: u64,
    /// Cacheline / memory transaction size in bytes (128 B on NVIDIA).
    /// Kept unscaled: it is the interconnect transfer granularity.
    pub cacheline_bytes: u64,
    /// L1 data cache capacity in bytes, modeled as the per-SM share
    /// serving the simulated warp stream. *Not* scaled: a warp's transient
    /// working set (the cachelines its 32 lanes share during one batch of
    /// lookups) is scale-invariant, and on real hardware it fits comfortably
    /// in the SM's 128-256 KiB L1.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// L2 data cache capacity in *simulated* bytes. The shared L2 is scaled
    /// together with the data: how many upper index levels stay cached is a
    /// ratio of cache capacity to data size, and that ratio must be
    /// preserved for the transfer-volume shapes to hold.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// Number of last-level GPU TLB entries.
    pub tlb_entries: usize,
    /// TLB associativity (entries per set).
    pub tlb_assoc: usize,
    /// Page size in bytes (simulated scale). With `Scale::PAPER` the paper's
    /// 1 GiB huge pages become 1 MiB simulated pages, preserving the 32 GiB
    /// TLB range as a 32 MiB simulated range.
    pub page_bytes: u64,
    /// Fixed cost of launching one kernel, in nanoseconds.
    pub kernel_launch_ns: f64,
    /// Default capacity bound (in events) for access-trace recording
    /// started via [`Gpu::start_bounded_trace`](crate::Gpu); keeps long
    /// runs from growing an unbounded event vector. Explicit
    /// `start_trace*` calls may still pick their own bound.
    pub trace_capacity: usize,
    /// The interconnect attaching this GPU to CPU memory.
    pub interconnect: InterconnectSpec,
    /// The scale at which this spec was instantiated.
    pub scale: Scale,
}

impl GpuSpec {
    /// The paper's primary platform: Tesla V100-SXM2 over NVLink 2.0 on an
    /// IBM POWER9 host with 1 GiB huge pages (§3.2). The V100's last-level
    /// TLB covers a 32 GiB range (§3.3.2), i.e. 32 huge-page entries.
    pub fn v100_nvlink2(scale: Scale) -> Self {
        GpuSpec {
            name: "NVIDIA Tesla V100-SXM2",
            warp_size: 32,
            sm_count: 80,
            clock_ghz: 1.38,
            mem_bandwidth_gbps: 900.0,
            hbm_bytes: scale.sim_bytes(16 << 30),
            cacheline_bytes: 128,
            l1_bytes: 16 << 10,
            l1_assoc: 8,
            l2_bytes: scale.sim_bytes(6 << 20).max(128),
            l2_assoc: 16,
            tlb_entries: 32,
            tlb_assoc: 32,
            page_bytes: scale.sim_bytes(1 << 30),
            kernel_launch_ns: 5_000.0,
            trace_capacity: 1 << 20,
            interconnect: InterconnectSpec::nvlink2(),
            scale,
        }
    }

    /// The paper's comparison platform (§5.2.3): an NVIDIA A100 attached via
    /// PCI-e 4.0. The A100 is the faster GPU (the paper measures the hash
    /// join to be 1.7× faster on it), while its interconnect handles
    /// fine-grained access worse than NVLink.
    pub fn a100_pcie4(scale: Scale) -> Self {
        GpuSpec {
            name: "NVIDIA A100-PCIe",
            warp_size: 32,
            sm_count: 108,
            clock_ghz: 1.41,
            mem_bandwidth_gbps: 1555.0,
            hbm_bytes: scale.sim_bytes(40 << 30),
            cacheline_bytes: 128,
            l1_bytes: 24 << 10,
            l1_assoc: 8,
            l2_bytes: scale.sim_bytes(40 << 20).max(128),
            l2_assoc: 16,
            tlb_entries: 32,
            tlb_assoc: 32,
            page_bytes: scale.sim_bytes(1 << 30),
            kernel_launch_ns: 4_000.0,
            trace_capacity: 1 << 20,
            interconnect: InterconnectSpec::pcie4(),
            scale,
        }
    }

    /// Forward-looking platform from Table 1: GH200 Grace Hopper with NVLink
    /// C2C. Not part of the paper's measured evaluation; exposed for what-if
    /// studies (see the `hardware_whatif` example).
    pub fn gh200(scale: Scale) -> Self {
        GpuSpec {
            name: "NVIDIA GH200",
            warp_size: 32,
            sm_count: 132,
            clock_ghz: 1.83,
            mem_bandwidth_gbps: 4000.0,
            hbm_bytes: scale.sim_bytes(96 << 30),
            cacheline_bytes: 128,
            l1_bytes: 32 << 10,
            l1_assoc: 8,
            l2_bytes: scale.sim_bytes(50 << 20).max(128),
            l2_assoc: 16,
            tlb_entries: 32,
            tlb_assoc: 32,
            page_bytes: scale.sim_bytes(1 << 30),
            kernel_launch_ns: 3_000.0,
            trace_capacity: 1 << 20,
            interconnect: InterconnectSpec::nvlink_c2c(),
            scale,
        }
    }

    /// Switch this spec to a different page size (paper scale), e.g. the
    /// 2 MiB huge pages the paper compares against 1 GiB pages in §3.2.
    /// The TLB's covered *range* is held constant (Lutz et al. report the
    /// V100's last-level TLB as a 32 GiB range, not an entry count), so
    /// smaller pages get proportionally more entries. Associativity is
    /// clamped so simulation stays fast for large entry counts.
    pub fn with_paper_page_size(mut self, paper_page_bytes: u64) -> Self {
        let sim = self.scale.sim_bytes(paper_page_bytes);
        assert!(
            sim >= self.cacheline_bytes,
            "scaled page size {sim} B must be at least one cacheline; \
             lower the scale factor or use larger pages"
        );
        let coverage = self.tlb_range_bytes();
        self.page_bytes = sim;
        self.tlb_entries = (coverage / sim).max(1) as usize;
        self.tlb_assoc = self.tlb_assoc.min(self.tlb_entries).min(32);
        self
    }

    /// The address range covered by the TLB, in simulated bytes
    /// (entries × page size). 32 MiB for the scaled V100 preset,
    /// representing the paper's 32 GiB.
    pub fn tlb_range_bytes(&self) -> u64 {
        self.tlb_entries as u64 * self.page_bytes
    }

    /// Validate structural invariants the engine depends on.
    /// [`Gpu::try_new`](crate::Gpu::try_new) calls this; it is public so
    /// configuration code can check specs before constructing a device.
    pub fn validate(&self) -> Result<(), crate::fault::SimError> {
        use crate::fault::SimError;
        if !self.cacheline_bytes.is_power_of_two() {
            return Err(SimError::InvalidSpec(format!(
                "cacheline size {} B is not a power of two",
                self.cacheline_bytes
            )));
        }
        if !self.page_bytes.is_power_of_two() {
            return Err(SimError::InvalidSpec(format!(
                "page size {} B is not a power of two",
                self.page_bytes
            )));
        }
        if self.page_bytes < self.cacheline_bytes {
            return Err(SimError::InvalidSpec(format!(
                "page size {} B is smaller than one cacheline ({} B)",
                self.page_bytes, self.cacheline_bytes
            )));
        }
        if self.hbm_bytes < self.page_bytes {
            return Err(SimError::InvalidSpec(format!(
                "device memory budget {} B holds less than one page ({} B)",
                self.hbm_bytes, self.page_bytes
            )));
        }
        self.interconnect.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_tlb_range_scales() {
        let spec = GpuSpec::v100_nvlink2(Scale::PAPER);
        assert_eq!(spec.tlb_range_bytes(), 32 << 20); // 32 MiB simulated
        assert_eq!(spec.scale.paper_bytes(spec.tlb_range_bytes()), 32 << 30);
    }

    #[test]
    fn table1_order_and_bandwidth() {
        let rows = InterconnectSpec::table1();
        assert_eq!(rows.len(), 5);
        let bws: Vec<f64> = rows.iter().map(|(_, ic)| ic.peak_bandwidth_gbps).collect();
        assert_eq!(bws, vec![32.0, 64.0, 72.0, 75.0, 450.0]);
    }

    #[test]
    fn page_size_override() {
        let spec = GpuSpec::v100_nvlink2(Scale::PAPER).with_paper_page_size(2 << 20);
        assert_eq!(spec.page_bytes, 2 << 10); // 2 MiB -> 2 KiB simulated
                                              // Coverage is preserved: more, smaller pages.
        assert_eq!(spec.tlb_range_bytes(), 32 << 20);
        assert_eq!(spec.tlb_entries, 16384);
    }

    #[test]
    fn interconnect_presets_validate() {
        for (_, ic) in InterconnectSpec::table1() {
            assert!(ic.validate().is_ok(), "{} must validate", ic.name);
        }
        assert!(InterconnectSpec::nvlink4_peer().validate().is_ok());
        assert!(InterconnectSpec::pcie4_host_staged().validate().is_ok());
        // The peer link is strictly the faster inter-GPU edge.
        let peer = InterconnectSpec::nvlink4_peer();
        let staged = InterconnectSpec::pcie4_host_staged();
        assert!(peer.effective_bandwidth_gbps > staged.effective_bandwidth_gbps);
        assert!(peer.latency_ns < staged.latency_ns);
        assert!(peer.transfer_s(1 << 20) < staged.transfer_s(1 << 20));
    }

    #[test]
    fn interconnect_validate_rejects_degenerate_configs() {
        use crate::fault::SimError;
        let ok = InterconnectSpec::nvlink4_peer();
        let cases: Vec<InterconnectSpec> = vec![
            InterconnectSpec {
                effective_bandwidth_gbps: 0.0,
                ..ok.clone()
            },
            InterconnectSpec {
                peak_bandwidth_gbps: f64::NAN,
                ..ok.clone()
            },
            InterconnectSpec {
                effective_bandwidth_gbps: f64::INFINITY,
                ..ok.clone()
            },
            InterconnectSpec {
                effective_bandwidth_gbps: ok.peak_bandwidth_gbps * 2.0,
                ..ok.clone()
            },
            InterconnectSpec {
                fine_grained_efficiency: 0.0,
                ..ok.clone()
            },
            InterconnectSpec {
                fine_grained_efficiency: 1.5,
                ..ok.clone()
            },
            InterconnectSpec {
                latency_ns: -1.0,
                ..ok.clone()
            },
            InterconnectSpec {
                translation_latency_ns: f64::NAN,
                ..ok.clone()
            },
            InterconnectSpec {
                max_inflight_translations: 0,
                ..ok.clone()
            },
        ];
        for bad in cases {
            assert!(
                matches!(bad.validate(), Err(SimError::InvalidConfig(_))),
                "expected InvalidConfig"
            );
        }
        // GpuSpec::validate surfaces interconnect problems too.
        let mut spec = GpuSpec::v100_nvlink2(Scale::PAPER);
        spec.interconnect.effective_bandwidth_gbps = f64::NAN;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn transfer_pricing_is_latency_plus_stream() {
        let ic = InterconnectSpec::nvlink4_peer();
        let zero = ic.transfer_s(0);
        assert!((zero - ic.latency_ns * 1e-9).abs() < 1e-15);
        let one_mib = ic.transfer_s(1 << 20);
        assert!(one_mib > zero);
    }

    #[test]
    #[should_panic]
    fn page_below_cacheline_rejected() {
        // 4 KiB paper pages scaled by 1024 would be 4 B < 128 B cacheline.
        let _ = GpuSpec::v100_nvlink2(Scale::PAPER).with_paper_page_size(4 << 10);
    }
}
