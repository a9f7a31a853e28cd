//! # windex-serve — deterministic multi-tenant serving with cross-query window batching
//!
//! The paper's windowed operator (§5) restores TLB locality by partitioning
//! probe keys *inside tumbling windows*. A serving workload — many tenants
//! issuing small index lookups — leaves those windows nearly empty if each
//! request executes alone: the fixed window costs (partition + probe kernel
//! launches, per-window transfers) are paid per request instead of per
//! window. This crate adds the layer the paper stops short of: a
//! query server that **coalesces keys from concurrent requests into shared
//! windows**, so the batching amortizes exactly the costs the windowed
//! operator introduces.
//!
//! Everything runs in *virtual time*: the only clock is the cost model's
//! estimate of each dispatched window, so a served trace is a pure function
//! of (seed, configuration) — same inputs, byte-identical responses and
//! reports. That makes latency–throughput studies reproducible down to the
//! serialized report.
//!
//! Pieces:
//!
//! - [`LookupRequest`] / [`LookupResponse`] — the request model
//!   ([`request`]);
//! - [`generate_trace`] — seeded open-loop multi-tenant traces ([`trace`]);
//! - [`DrrScheduler`] — deficit round-robin tenant fairness ([`sched`]);
//! - [`MicroBatcher`] — rid-tagged cross-query batching with exact
//!   demultiplexing ([`batch`]);
//! - [`Server`] — the event loop: admission control, batching policies,
//!   the degradation ladder under memory pressure, and the
//!   [`ServerReport`] with virtual-time tail latencies ([`server`],
//!   [`report`]);
//! - [`serve_tenant_parallel`] (and the tuned/cluster variants) — the
//!   tenant-parallel axis: independent tenants on independent `Gpu`
//!   lanes, executed by a work-stealing pool, merged in fixed order so
//!   the outcome is byte-identical for any thread count ([`parallel`]);
//! - [`ClusterServer`] — the multi-GPU layer: [`ClusterSpec`] topologies,
//!   radix-sharded or replicated placement of R, shard-aware routing with
//!   deterministic fan-out/merge over a priced inter-GPU link, and
//!   failover/re-shard recovery from device loss ([`cluster`]).
//!
//! ```
//! use windex_serve::prelude::*;
//!
//! let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
//! let r = Relation::unique_sorted(1 << 14, KeyDistribution::SparseUniform, 1);
//! let trace = generate_trace(
//!     &TraceConfig { requests: 64, ..TraceConfig::default() },
//!     &r,
//! );
//! let mut server = Server::new(&mut gpu, ServeConfig::default(), r).unwrap();
//! let outcome = server.run(&mut gpu, &trace).unwrap();
//! assert_eq!(outcome.responses.len(), 64);
//! assert!(outcome.report.completed > 0);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cluster;
pub mod metrics;
pub mod parallel;
pub mod report;
pub mod request;
pub mod resilience;
pub mod sched;
pub mod server;
pub mod span;
pub mod trace;
pub mod tuned;

pub use batch::MicroBatcher;
pub use cluster::{
    ClusterConfig, ClusterEvent, ClusterOutcome, ClusterReport, ClusterServer, ClusterSpec,
    Placement, ShardLoad, ShardRouter,
};
pub use metrics::{
    render_cluster_openmetrics, render_openmetrics, render_parallel_openmetrics,
    render_tuner_openmetrics, validate_openmetrics,
};
pub use parallel::{
    serve_cluster_tenant_parallel, serve_tenant_parallel, serve_tuned_tenant_parallel,
    shard_by_tenant, ParallelClusterOutcome, ParallelServeOutcome, ParallelSummary,
    ParallelTunedOutcome, TenantLane, TenantShard,
};
pub use report::{BatchSpan, LatencyHistogram, LatencyStats, ServeEvent, ServerReport, TenantLoad};
pub use request::{LookupRequest, LookupResponse, RequestOutcome, TenantId};
pub use resilience::{
    jittered_backoff_s, BreakerConfig, BreakerReport, BreakerState, CircuitBreaker,
    ResilienceConfig, RetryBudget, RetryConfig, RetryReport, SloConfig, SloReport, SloTracker,
    TenantBreaker,
};
pub use sched::DrrScheduler;
pub use server::{BatchPolicy, ServeConfig, ServeOutcome, Server};
pub use span::{
    sample_tail, trace_id_for, QueryCard, RequestContext, RequestTrace, ShardLeg, Span,
    StageBreakdown, StageLatencyStats, TailConfig, TailReport,
};
pub use trace::{generate_tenant_trace, generate_trace, merge_traces, TimedRequest, TraceConfig};
pub use tuned::{TunedConfig, TunedReport, TunedServeEvent, TunedServer, TunedTenantReport};

/// One-stop imports for downstream users.
pub mod prelude {
    pub use crate::batch::MicroBatcher;
    pub use crate::cluster::{
        ClusterConfig, ClusterEvent, ClusterOutcome, ClusterReport, ClusterServer, ClusterSpec,
        Placement, ShardLoad, ShardRouter,
    };
    pub use crate::metrics::{
        render_cluster_openmetrics, render_openmetrics, render_parallel_openmetrics,
        render_tuner_openmetrics,
    };
    pub use crate::parallel::{
        serve_cluster_tenant_parallel, serve_tenant_parallel, serve_tuned_tenant_parallel,
        ParallelClusterOutcome, ParallelServeOutcome, ParallelSummary, ParallelTunedOutcome,
        TenantLane, TenantShard,
    };
    pub use crate::report::{
        BatchSpan, LatencyHistogram, LatencyStats, ServeEvent, ServerReport, TenantLoad,
    };
    pub use crate::request::{LookupRequest, LookupResponse, RequestOutcome, TenantId};
    pub use crate::resilience::{
        BreakerConfig, BreakerReport, BreakerState, ResilienceConfig, RetryConfig, RetryReport,
        SloConfig, SloReport,
    };
    pub use crate::sched::DrrScheduler;
    pub use crate::server::{BatchPolicy, ServeConfig, ServeOutcome, Server};
    pub use crate::span::{
        sample_tail, QueryCard, RequestTrace, ShardLeg, Span, StageBreakdown, StageLatencyStats,
        TailConfig, TailReport,
    };
    pub use crate::trace::{
        generate_tenant_trace, generate_trace, merge_traces, TimedRequest, TraceConfig,
    };
    pub use crate::tuned::{
        TunedConfig, TunedReport, TunedServeEvent, TunedServer, TunedTenantReport,
    };
    pub use windex_index::IndexKind;
    pub use windex_sim::{ChaosSchedule, Gpu, GpuSpec, InterconnectSpec, MemLocation, Scale};
    pub use windex_workload::{KeyDistribution, Relation};
}
