//! # windex-sim — a software model of a GPU attached by a fast interconnect
//!
//! This crate is the hardware substrate for the `windex` reproduction of
//! *“Efficiently Indexing Large Data on GPUs with Fast Interconnects”*
//! (EDBT 2025). The paper's experiments need a V100/A100 with NVLink 2.0 /
//! PCI-e 4.0 and POWER9 hardware counters; this crate substitutes a
//! deterministic, trace-driven model of exactly the parts of that platform
//! the paper's effects depend on:
//!
//! - a **GPU TLB** with a bounded covered range (32 GiB on the V100 —
//!   32 × 1 GiB huge pages), whose misses become ~3 µs address-translation
//!   round trips to the host IOMMU;
//! - **L1/L2 data caches** that also cache CPU-memory lines (the coherent
//!   NVLink platform caches remote lines on-chip);
//! - an **interconnect** that fetches CPU memory at cacheline granularity
//!   with device-specific streaming and fine-grained-read bandwidths;
//! - **SIMT execution** in warps of 32 lanes whose memory accesses
//!   interleave in the shared TLB/caches (lockstep stepping);
//! - an analytic **cost model** that prices measured counters into
//!   paper-scale time estimates.
//!
//! Every index, join, and partitioning operator in the workspace issues its
//! *real* memory accesses through [`engine::Gpu`], so cache hit rates, TLB
//! thrashing, and transfer volumes are emergent properties of real access
//! traces — nothing about the paper's findings is hard-coded.
//!
//! ## Scale
//!
//! Data sizes, cache capacities, and page sizes are shrunk by a common
//! factor (default 1024; see [`scale::Scale`]) so the paper's 0.5–120 GiB
//! sweeps fit a laptop. The cost model multiplies linear counters back up,
//! reporting paper-scale queries/second.
//!
//! ## Example
//!
//! ```
//! use windex_sim::{Gpu, GpuSpec, MemLocation, Scale};
//!
//! let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
//! let data = gpu.alloc_host_from_vec((0u64..1024).collect::<Vec<_>>());
//! let before = gpu.snapshot();
//! let v = data.read(&mut gpu, 512); // out-of-core read across the interconnect
//! assert_eq!(v, 512);
//! let delta = gpu.snapshot() - before;
//! assert_eq!(delta.ic_lines_random, 1);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod column;
pub mod cost;
pub mod counters;
pub mod engine;
pub mod exec;
pub mod fault;
pub mod heatmap;
mod lru;
pub mod mem;
mod pagestamps;
pub mod pool;
pub mod scale;
pub mod span;
pub mod spec;
pub mod tlb;
pub mod trace;

pub use chaos::{ChaosActivity, ChaosKind, ChaosScenario, ChaosSchedule, ChaosWindow};
pub use column::SharedColumn;
pub use cost::{CandidateProfile, CostModel, TimeBreakdown};
pub use counters::Counters;
pub use engine::Gpu;
pub use exec::{
    launch_kernel, lockstep, try_launch_kernel, warps_of, with_retries, SubWarp, MAX_LANES,
    WARP_SIZE,
};
pub use fault::{FaultKind, FaultPlan, RetryPolicy, SimError};
pub use heatmap::{l2_heatmap, tlb_heatmap, Heatmap};
pub use mem::{Buffer, MemLocation};
pub use pool::{par_map, try_helper_slot, HelperSlot};
pub use scale::Scale;
pub use span::{phase, PhaseBreakdown, PhaseRecorder, PhaseStats, Span};
pub use spec::{GpuSpec, InterconnectSpec};
pub use trace::{HitLevel, Trace, TraceEvent, TraceMode, TraceTotals};
