//! # windex-core — windowed partitioning for out-of-core GPU index joins
//!
//! The paper's primary contribution and the query engine that measures it.
//!
//! **Problem** (§3): an index-nested loop join probing a CPU-resident index
//! over a fast interconnect collapses once the indexed relation outgrows
//! the GPU TLB's covered range — random traversals thrash the shared TLB,
//! and every miss costs a ~3 µs address-translation round trip.
//!
//! **Fix 1** (§4): radix-partition the lookup keys so neighbouring threads
//! traverse neighbouring paths; but that materializes the probe input.
//!
//! **Fix 2 — the contribution** (§5): partition *inside tumbling windows*
//! of the probe stream. Locality is restored per window, nothing is
//! materialized beyond one window, and the pipeline keeps streaming.
//!
//! ```
//! use windex_core::prelude::*;
//!
//! let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
//! let r = Relation::unique_sorted(1 << 14, KeyDistribution::SparseUniform, 42);
//! let s = Relation::foreign_keys_uniform(&r, 1 << 10, 7);
//! let report = QueryExecutor::new()
//!     .run(&mut gpu, &r, &s, JoinStrategy::WindowedInlj {
//!         index: IndexKind::RadixSpline,
//!         window_tuples: 1 << 8,
//!     })
//!     .unwrap();
//! assert_eq!(report.result_tuples, 1 << 10);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod query;
pub mod session;
pub mod strategy;
pub mod streams;
pub mod tuner;
pub mod window;

pub use error::WindexError;
pub use query::{DegradationEvent, QueryError, QueryExecutor, QueryReport};
pub use session::{IndexCheckpoint, QuerySession, MAX_DEVICE_LOSS_RECOVERIES};
pub use strategy::{BuiltIndex, IndexConfigs, JoinStrategy};
pub use streams::StreamingWindowJoin;
pub use tuner::{
    candidate_prior_s_per_key, default_candidates, CandidatePlan, KpiSample, OnlineTuner,
    TuneEvent, TuneReason, TunerConfig,
};
pub use windex_sim::par_map;
pub use window::{
    windowed_inlj, windowed_inlj_observed, WindowConfig, WindowObserver, WindowSpan, WindowStats,
};

/// One-stop imports for downstream users.
pub mod prelude {
    pub use crate::error::WindexError;
    pub use crate::query::{DegradationEvent, QueryError, QueryExecutor, QueryReport};
    pub use crate::session::{IndexCheckpoint, QuerySession, MAX_DEVICE_LOSS_RECOVERIES};
    pub use crate::strategy::{BuiltIndex, IndexConfigs, JoinStrategy};
    pub use crate::streams::StreamingWindowJoin;
    pub use crate::tuner::{
        candidate_prior_s_per_key, default_candidates, CandidatePlan, KpiSample, OnlineTuner,
        TuneEvent, TuneReason, TunerConfig,
    };
    pub use crate::window::{
        windowed_inlj, windowed_inlj_observed, WindowConfig, WindowObserver, WindowSpan,
        WindowStats,
    };
    pub use windex_index::{IndexKind, OutOfCoreIndex};
    pub use windex_join::PartitionBits;
    pub use windex_sim::{
        phase, ChaosScenario, ChaosSchedule, Counters, Gpu, GpuSpec, InterconnectSpec, MemLocation,
        PhaseBreakdown, PhaseRecorder, Scale,
    };
    pub use windex_workload::{join_selectivity, KeyDistribution, Relation};
}
