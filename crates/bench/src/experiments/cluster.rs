//! The `cluster` target: multi-GPU scaling, interconnect pricing, and
//! device-loss recovery KPIs, with a CI tolerance gate.
//!
//! The serving experiments measure one GPU; this target measures the
//! scale-out layer. A fixed saturating trace replays against sharded
//! clusters of 1→8 simulated GPUs under two priced fabrics —
//! [`InterconnectSpec::nvlink4_peer`] and
//! [`InterconnectSpec::pcie4_host_staged`] — reporting aggregate Q/s,
//! speedup over the single-GPU row, cross-shard request fractions, and
//! peer-link bytes. Two recovery rows then lose a specific GPU mid-trace
//! (via [`ChaosScenario::cluster_schedules`]): sharded placement must
//! re-shard the lost partitions onto a survivor and replicated placement
//! must fail over, both with availability 1.0 and finite MTTR.
//!
//! Everything is a pure function of the fixed seeds: sweep points are
//! independent simulations merged in fixed order, so the report and
//! `BENCH_cluster.json` are byte-identical across runs and for any
//! `--jobs` count.
//!
//! The fresh KPIs are gated against the committed `BENCH_cluster.json`:
//! discrete outcomes (completed, shed, cross-shard counts and bytes,
//! failovers, re-shards, alive GPUs, availability) must match exactly;
//! continuous ones (Q/s, keys/s, speedup, MTTR, makespan) get a 2%
//! relative band for benign cost-model churn.

use super::cell::RInput;
use crate::config::ExpConfig;
use crate::gate::{self, GateSpec, Tol};
use crate::output::{num, num6, r6, Experiment};
use serde::Serialize;
use serde_json::{json, Value};
use windex_core::par_map;
use windex_serve::prelude::*;
use windex_sim::ChaosScenario;

/// Format-version marker for `BENCH_cluster.json`.
const SCHEMA_VERSION: u32 = 1;

/// GPU counts swept by the scaling matrix.
const GPU_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Links swept by the scaling matrix, in fixed order.
const LINKS: [LinkKind; 2] = [LinkKind::Nvlink4Peer, LinkKind::Pcie4HostStaged];

/// Requests in the saturating scaling trace. At 50 000 req/s offered the
/// trace spans ~10 ms; a single V100 cannot drain it at that rate, so the
/// aggregate Q/s of larger clusters measures real scale-out.
const SCALE_REQUESTS: usize = 512;

/// Offered load of the scaling trace, requests per virtual second.
const SCALE_LOAD_RPS: f64 = 50_000.0;

/// Requests in the recovery trace. At 8 000 req/s it spans ~64 ms of
/// virtual time, comfortably covering the DeviceLoss window [20 ms, 35 ms).
const RECOVERY_REQUESTS: usize = 512;

/// Offered load of the recovery trace.
const RECOVERY_LOAD_RPS: f64 = 8_000.0;

/// Seed of each cluster chaos schedule family.
const CHAOS_SEED: u64 = 40;

/// The GPU lost mid-trace in the recovery rows.
const LOST_GPU: usize = 1;

/// GPUs in the recovery clusters.
const RECOVERY_GPUS: usize = 4;

/// The committed golden: every KPI exact except the continuous ones.
const GATE: GateSpec = GateSpec {
    file: "BENCH_cluster.json",
    schema: SCHEMA_VERSION,
    default: Tol::Exact,
    fields: &[
        ("completed_rps", Tol::Rel(0.02)),
        ("keys_per_second", Tol::Rel(0.02)),
        ("speedup_vs_1gpu", Tol::Rel(0.02)),
        ("virtual_makespan_s", Tol::Rel(0.02)),
        ("mttr_total_s", Tol::Rel(0.02)),
    ],
};

/// A priced inter-GPU fabric in the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkKind {
    Nvlink4Peer,
    Pcie4HostStaged,
}

impl LinkKind {
    fn spec(self) -> InterconnectSpec {
        match self {
            LinkKind::Nvlink4Peer => InterconnectSpec::nvlink4_peer(),
            LinkKind::Pcie4HostStaged => InterconnectSpec::pcie4_host_staged(),
        }
    }

    fn name(self) -> &'static str {
        match self {
            LinkKind::Nvlink4Peer => "nvlink4_peer",
            LinkKind::Pcie4HostStaged => "pcie4_host_staged",
        }
    }
}

/// One scaling-sweep point: a sharded cluster under a priced link.
#[derive(Debug, Clone, Serialize)]
struct ScalePoint {
    gpus: usize,
    link: &'static str,
    completed: usize,
    shed: usize,
    /// Aggregate completed requests per virtual second.
    completed_rps: f64,
    /// Aggregate probed keys per virtual second.
    keys_per_second: f64,
    /// `completed_rps / the same link's 1-GPU completed_rps`.
    speedup_vs_1gpu: f64,
    /// Fraction of routed requests that fanned out across ≥ 2 shards.
    cross_shard_fraction: f64,
    /// Peer-link bytes moved (fan-out keys plus merged matches).
    cross_shard_bytes: u64,
    virtual_makespan_s: f64,
}

/// One recovery point: a targeted mid-trace device loss.
#[derive(Debug, Clone, Serialize)]
struct RecoveryPoint {
    placement: &'static str,
    link: &'static str,
    lost_gpu: usize,
    alive_gpus: usize,
    availability: f64,
    completed: usize,
    shed: usize,
    failovers: usize,
    reshards: usize,
    /// Summed virtual MTTR across recovery events, seconds.
    mttr_total_s: f64,
}

/// The `BENCH_cluster.json` payload.
#[derive(Debug, Clone, Serialize)]
struct ClusterBench {
    schema: u32,
    chaos_seed: u64,
    scale_requests: usize,
    recovery_requests: usize,
    scaling: Vec<ScalePoint>,
    recovery: Vec<RecoveryPoint>,
}

/// The served relation: 1 paper-GiB of dense sorted keys at paper scale
/// (fixed, like the chaos target, so the JSON is mode-independent).
fn cluster_relation() -> Relation {
    RInput::paper(Scale::PAPER, 1.0).generate()
}

fn trace(r: &Relation, requests: usize, load_rps: f64, seed: u64) -> Vec<TimedRequest> {
    // Wide requests (up to 512 keys) so cross-shard fan-out and result
    // merges move enough bytes for the link pricing to register.
    generate_trace(
        &TraceConfig {
            seed,
            tenants: 4,
            requests,
            min_keys: 32,
            max_keys: 512,
            offered_load_rps: load_rps,
            deadline_s: None,
        },
        r,
    )
}

/// Run one scaling point: sharded placement, calm devices.
fn run_scale_point(r: &Relation, tr: &[TimedRequest], gpus: usize, link: LinkKind) -> ScalePoint {
    let cfg = ClusterConfig {
        serve: ServeConfig::default(),
        cluster: ClusterSpec::sharded(gpus, GpuSpec::v100_nvlink2(Scale::PAPER), link.spec()),
    };
    let mut cluster = ClusterServer::new(cfg, r.clone()).expect("cluster must construct");
    let rep = cluster
        .run(tr)
        .expect("scaling trace must complete without a server-level error")
        .report;
    ScalePoint {
        gpus,
        link: link.name(),
        completed: rep.completed,
        shed: rep.shed,
        completed_rps: r6(rep.completed_rps),
        keys_per_second: r6(rep.keys_per_second),
        speedup_vs_1gpu: 0.0, // filled once the link's 1-GPU row is known
        cross_shard_fraction: r6(rep.cross_shard_fraction),
        cross_shard_bytes: rep.cross_shard_bytes,
        virtual_makespan_s: r6(rep.virtual_makespan_s),
    }
}

/// Run one recovery point: lose [`LOST_GPU`] mid-trace, report how the
/// placement's rung of the degradation ladder absorbed it. The link matters
/// here more than anywhere: a sharded recovery re-materializes the lost
/// slice over the fabric, so its MTTR is bandwidth-bound.
fn run_recovery_point(
    r: &Relation,
    tr: &[TimedRequest],
    sharded: bool,
    link: LinkKind,
) -> RecoveryPoint {
    let gpu = GpuSpec::v100_nvlink2(Scale::PAPER);
    let cluster_spec = if sharded {
        ClusterSpec::sharded(RECOVERY_GPUS, gpu, link.spec())
    } else {
        ClusterSpec::replicated(RECOVERY_GPUS, gpu, link.spec())
    };
    let mut cluster = ClusterServer::new(
        ClusterConfig {
            serve: ServeConfig::default(),
            cluster: cluster_spec,
        },
        r.clone(),
    )
    .expect("recovery cluster must construct");
    cluster
        .set_chaos_schedules(ChaosScenario::DeviceLoss.cluster_schedules(
            CHAOS_SEED,
            RECOVERY_GPUS,
            LOST_GPU,
        ))
        .expect("cluster chaos schedules are valid");
    let rep = cluster
        .run(tr)
        .expect("recovery trace must complete without a server-level error")
        .report;
    RecoveryPoint {
        placement: if sharded { "sharded" } else { "replicated" },
        link: link.name(),
        lost_gpu: LOST_GPU,
        alive_gpus: rep.alive_gpus,
        availability: r6(rep.slo.availability),
        completed: rep.completed,
        shed: rep.shed,
        failovers: rep.failovers,
        reshards: rep.reshards,
        mttr_total_s: r6(rep.mttr_total_s),
    }
}

/// One unit of sweep work (scaling points first, then recovery points).
enum TaskResult {
    Scale(ScalePoint),
    Recovery(RecoveryPoint),
}

/// Compute all points with `jobs` workers, merged in fixed sweep order
/// (links × GPU counts, then sharded/replicated recovery). Workers only
/// decide *when* a point runs, never *what* it computes, so any job count
/// merges identically.
fn compute(jobs: usize) -> ClusterBench {
    let r = cluster_relation();
    let scale_trace = trace(&r, SCALE_REQUESTS, SCALE_LOAD_RPS, 37);
    let recovery_trace = trace(&r, RECOVERY_REQUESTS, RECOVERY_LOAD_RPS, 23);
    let scale_axes: Vec<(LinkKind, usize)> = LINKS
        .iter()
        .flat_map(|&l| GPU_SWEEP.iter().map(move |&g| (l, g)))
        .collect();
    // Recovery axes: placement × link, sharded first.
    let recovery_axes: Vec<(bool, LinkKind)> = [true, false]
        .iter()
        .flat_map(|&s| LINKS.iter().map(move |&l| (s, l)))
        .collect();
    let total = scale_axes.len() + recovery_axes.len();
    let results = par_map(jobs, total, |i| {
        if i < scale_axes.len() {
            let (link, gpus) = scale_axes[i];
            TaskResult::Scale(run_scale_point(&r, &scale_trace, gpus, link))
        } else {
            let (sharded, link) = recovery_axes[i - scale_axes.len()];
            TaskResult::Recovery(run_recovery_point(&r, &recovery_trace, sharded, link))
        }
    });
    let mut scaling = Vec::new();
    let mut recovery = Vec::new();
    for result in results {
        match result {
            TaskResult::Scale(p) => scaling.push(p),
            TaskResult::Recovery(p) => recovery.push(p),
        }
    }
    // Anchor each link's speedup column on its own 1-GPU row.
    for link in LINKS {
        let base = scaling
            .iter()
            .find(|p| p.link == link.name() && p.gpus == 1)
            .map(|p| p.completed_rps)
            .expect("1-GPU row present for every link");
        for p in scaling.iter_mut().filter(|p| p.link == link.name()) {
            p.speedup_vs_1gpu = if base > 0.0 {
                r6(p.completed_rps / base)
            } else {
                0.0
            };
        }
    }
    ClusterBench {
        schema: SCHEMA_VERSION,
        chaos_seed: CHAOS_SEED,
        scale_requests: SCALE_REQUESTS,
        recovery_requests: RECOVERY_REQUESTS,
        scaling,
        recovery,
    }
}

/// Invariants that hold regardless of any committed reference: Q/s must
/// scale monotonically 1→8 GPUs, the peer fabric must measurably beat the
/// host-staged one once requests fan out, and both recovery rows must
/// absorb the loss with availability 1.0.
fn check_invariants(bench: &ClusterBench) -> Result<(), String> {
    for link in LINKS {
        let rps: Vec<f64> = bench
            .scaling
            .iter()
            .filter(|p| p.link == link.name())
            .map(|p| p.completed_rps)
            .collect();
        if rps.len() != GPU_SWEEP.len() {
            return Err(format!(
                "link '{}' has {} scaling points, expected {}",
                link.name(),
                rps.len(),
                GPU_SWEEP.len()
            ));
        }
        for w in rps.windows(2) {
            if w[1] < w[0] {
                return Err(format!(
                    "aggregate Q/s must increase monotonically 1→8 GPUs on '{}': {rps:?}",
                    link.name()
                ));
            }
        }
        if rps[GPU_SWEEP.len() - 1] <= rps[0] * 1.5 {
            return Err(format!(
                "8 GPUs must clearly out-serve 1 on '{}': {rps:?}",
                link.name()
            ));
        }
    }
    // The interconnect gap: at the widest fan-out the NVLink-peer fabric
    // must beat the host-staged bounce.
    let rps_at = |link: LinkKind, gpus: usize| {
        bench
            .scaling
            .iter()
            .find(|p| p.link == link.name() && p.gpus == gpus)
            .map(|p| p.completed_rps)
            .unwrap_or(0.0)
    };
    let nv8 = rps_at(LinkKind::Nvlink4Peer, 8);
    let pcie8 = rps_at(LinkKind::Pcie4HostStaged, 8);
    if nv8 <= pcie8 {
        return Err(format!(
            "NVLink peer must out-serve the host-staged link at 8 GPUs: \
             nvlink {nv8} Q/s vs host-staged {pcie8} Q/s"
        ));
    }
    // The fabric gap is starkest in recovery: re-sharding re-materializes
    // the lost slice over the link, so host-staged MTTR must be clearly
    // worse than NVLink peer for the same placement.
    for placement in ["sharded", "replicated"] {
        let mttr_at = |link: LinkKind| {
            bench
                .recovery
                .iter()
                .find(|p| p.placement == placement && p.link == link.name())
                .map(|p| p.mttr_total_s)
                .unwrap_or(0.0)
        };
        let nv = mttr_at(LinkKind::Nvlink4Peer);
        let staged = mttr_at(LinkKind::Pcie4HostStaged);
        if staged <= nv {
            return Err(format!(
                "{placement} recovery over the host-staged link must pay a higher MTTR \
                 than over NVLink peer: staged {staged}s vs nvlink {nv}s"
            ));
        }
    }
    for p in &bench.recovery {
        if p.availability != 1.0 || p.shed != 0 {
            return Err(format!(
                "{} recovery must answer every request: availability {} with {} shed",
                p.placement, p.availability, p.shed
            ));
        }
        if !p.mttr_total_s.is_finite() || p.mttr_total_s <= 0.0 {
            return Err(format!(
                "{} recovery must record a finite positive MTTR: {p:?}",
                p.placement
            ));
        }
        if p.alive_gpus != RECOVERY_GPUS - 1 {
            return Err(format!(
                "{} recovery must lose exactly one GPU: {} alive of {}",
                p.placement, p.alive_gpus, RECOVERY_GPUS
            ));
        }
        match p.placement {
            "sharded" if p.reshards < 1 || p.failovers != 0 => {
                return Err(format!(
                    "sharded recovery must re-shard (got {} re-shards, {} failovers)",
                    p.reshards, p.failovers
                ));
            }
            "replicated" if p.failovers < 1 || p.reshards != 0 => {
                return Err(format!(
                    "replicated recovery must fail over (got {} failovers, {} re-shards)",
                    p.failovers, p.reshards
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

/// The `cluster` target. `Err` (→ nonzero exit) on invariant or gate
/// violations.
pub fn cluster(cfg: &ExpConfig) -> Result<Experiment, String> {
    let bench = compute(cfg.jobs);
    check_invariants(&bench)?;
    let gate_note = gate::check_or_record(&GATE, &bench, cfg.record)?;

    let mut rows: Vec<Vec<Value>> = bench
        .scaling
        .iter()
        .map(|p| {
            vec![
                json!(format!("sharded x{}", p.gpus)),
                json!(p.link),
                num(p.completed_rps),
                num6(p.speedup_vs_1gpu),
                num6(p.cross_shard_fraction),
                json!(p.cross_shard_bytes),
                json!(p.completed),
                json!(p.shed),
                json!("-"),
                json!("-"),
            ]
        })
        .collect();
    for p in &bench.recovery {
        rows.push(vec![
            json!(format!(
                "{} x{} -gpu{}",
                p.placement, RECOVERY_GPUS, p.lost_gpu
            )),
            json!(p.link),
            json!("-"),
            json!("-"),
            json!("-"),
            json!("-"),
            json!(p.completed),
            json!(p.shed),
            num6(p.availability),
            num6(p.mttr_total_s * 1e3),
        ]);
    }
    Ok(Experiment {
        id: "cluster".into(),
        title: "Cluster: multi-GPU sharded serving, interconnects, and recovery".into(),
        columns: vec![
            "cluster".into(),
            "link".into(),
            "agg_qps".into(),
            "speedup".into(),
            "cross_frac".into(),
            "cross_bytes".into(),
            "completed".into(),
            "shed".into(),
            "availability".into(),
            "mttr_ms".into(),
        ],
        rows,
        notes: vec![
            format!(
                "{SCALE_REQUESTS}-request saturating trace ({SCALE_LOAD_RPS:.0} req/s offered) \
                 against sharded clusters of 1→8 V100s; cross-shard fan-out and merges priced \
                 over each named link; byte-identical across runs and --jobs counts"
            ),
            format!(
                "recovery rows lose GPU {LOST_GPU} of {RECOVERY_GPUS} mid-trace \
                 (chaos seed {CHAOS_SEED}): sharded re-shards onto an adjacent survivor, \
                 replicated fails over — both at availability 1.0 with finite MTTR"
            ),
            gate_note,
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> ClusterBench {
        compute(1)
    }

    #[test]
    fn sweep_holds_scaling_and_recovery_invariants() {
        let b = bench();
        assert_eq!(b.scaling.len(), GPU_SWEEP.len() * LINKS.len());
        assert_eq!(b.recovery.len(), 2 * LINKS.len());
        check_invariants(&b).expect("invariants hold");
        // Speedup anchors at 1.0 on each link's single-GPU row.
        for link in LINKS {
            let base = b
                .scaling
                .iter()
                .find(|p| p.link == link.name() && p.gpus == 1)
                .unwrap();
            assert_eq!(base.speedup_vs_1gpu, 1.0);
            // A single GPU never fans out.
            assert_eq!(base.cross_shard_fraction, 0.0);
            assert_eq!(base.cross_shard_bytes, 0);
        }
        // Multi-GPU sharding produces measurable cross-shard traffic.
        let wide = b
            .scaling
            .iter()
            .find(|p| p.link == "nvlink4_peer" && p.gpus == 8)
            .unwrap();
        assert!(wide.cross_shard_fraction > 0.0);
        assert!(wide.cross_shard_bytes > 0);
    }

    #[test]
    fn jobs_counts_merge_byte_identically() {
        let a = serde_json::to_string(&compute(1)).unwrap();
        let b = serde_json::to_string(&compute(4)).unwrap();
        assert_eq!(a, b, "--jobs must not change BENCH_cluster.json");
    }

    #[test]
    fn gate_flags_drift_and_accepts_self() {
        let b = bench();
        let mut drifted = b.clone();
        drifted.scaling[0].completed += 1;
        gate::assert_flags_drift(&GATE, &b, &drifted, "scaling[0].completed");
        let mut drifted = b.clone();
        drifted.recovery[1].mttr_total_s *= 1.1;
        gate::assert_flags_drift(&GATE, &b, &drifted, "recovery[1].mttr_total_s");
    }
}
