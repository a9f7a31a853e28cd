//! One module per regenerated table/figure, plus shared sweep helpers.
//!
//! Workload construction follows §3.2: *R* holds unique sorted (dense)
//! keys and is scaled; *S* holds 2¹⁶ (scaled from 2²⁶) uniform foreign
//! keys and stays fixed; the index lives on *R*; throughput covers the
//! whole query.

pub mod ablations;
pub mod baseline;
pub mod chaos;
pub mod cluster;
pub mod fig1;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod figs34;
pub mod figs56;
pub mod observe;
pub mod requests;
pub mod serve;
pub mod simperf;
pub mod summary;
pub mod table1;
pub mod tuner;
pub mod validate;
pub mod whatif;

use crate::config::ExpConfig;
use windex_core::prelude::*;

/// Build the indexed relation for a paper-scale size in GiB.
///
/// Keys are dense (0‥n): the paper specifies only "unique, sorted keys"
/// (§3.2), and dense keys — the standard primary-key generator — are the
/// workload under which the paper's §6 factors are mutually consistent
/// (RadixSpline at ~1.9 Q/s, the 12× transfer reduction, and the 1.1–1.8×
/// RadixSpline-over-Harmonia band all require near-exact interpolation).
/// The `ablation-keydist` experiment quantifies the sparse-key case.
pub fn make_r(cfg: &ExpConfig, gib: f64) -> Relation {
    let n = cfg.scale.sim_tuples_for_paper_gib(gib);
    Relation::unique_sorted(n, KeyDistribution::Dense, 42)
}

/// Build the uniform probe relation (fixed size, §3.2).
pub fn make_s(cfg: &ExpConfig, r: &Relation) -> Relation {
    Relation::foreign_keys_uniform(r, cfg.s_tuples, 7)
}

/// The paper's primary platform at the configured scale.
pub fn v100(cfg: &ExpConfig) -> GpuSpec {
    GpuSpec::v100_nvlink2(cfg.scale)
}

/// The §5.2.3 comparison platform.
pub fn a100(cfg: &ExpConfig) -> GpuSpec {
    GpuSpec::a100_pcie4(cfg.scale)
}

/// Run one query point with default executor settings on a fresh GPU.
pub fn run_point(
    spec: &GpuSpec,
    r: &Relation,
    s: &Relation,
    strategy: JoinStrategy,
) -> QueryReport {
    run_point_with(spec, r, s, strategy, &QueryExecutor::new())
}

/// Run one query point with a custom executor.
pub fn run_point_with(
    spec: &GpuSpec,
    r: &Relation,
    s: &Relation,
    strategy: JoinStrategy,
    executor: &QueryExecutor,
) -> QueryReport {
    let mut gpu = Gpu::new(spec.clone());
    executor
        .run(&mut gpu, r, s, strategy)
        .expect("experiment query must succeed")
}

/// The strategy sets of the figures: hash join plus one INLJ per index, in
/// the paper's plot order (B+tree, binary search, Harmonia, RadixSpline).
pub fn inlj_strategies(make: impl Fn(IndexKind) -> JoinStrategy) -> Vec<JoinStrategy> {
    IndexKind::all().into_iter().map(make).collect()
}

/// Interpolate the R size (paper GiB) where the `inlj` series crosses above
/// the `hash` series; both series are (gib, q/s) aligned on the same xs.
/// Returns `None` if no crossover occurs inside the sweep.
pub fn crossover_gib(series_hash: &[(f64, f64)], series_inlj: &[(f64, f64)]) -> Option<f64> {
    assert_eq!(series_hash.len(), series_inlj.len(), "series must align");
    for i in 1..series_hash.len() {
        let (x0, h0) = series_hash[i - 1];
        let (x1, h1) = series_hash[i];
        let i0 = series_inlj[i - 1].1;
        let i1 = series_inlj[i].1;
        let d0 = i0 - h0;
        let d1 = i1 - h1;
        if d0 < 0.0 && d1 >= 0.0 {
            // Linear interpolation of the sign change.
            let t = d0 / (d0 - d1);
            return Some(x0 + t * (x1 - x0));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_interpolates() {
        let hash = [(1.0, 4.0), (2.0, 2.0), (4.0, 1.0)];
        let inlj = [(1.0, 1.5), (2.0, 1.5), (4.0, 1.5)];
        let x = crossover_gib(&hash, &inlj).unwrap();
        assert!(x > 2.0 && x < 4.0, "crossover {x}");
    }

    #[test]
    fn no_crossover_when_hash_always_wins() {
        let hash = [(1.0, 4.0), (2.0, 3.0)];
        let inlj = [(1.0, 1.0), (2.0, 1.0)];
        assert_eq!(crossover_gib(&hash, &inlj), None);
    }

    #[test]
    fn workload_sizes_match_scale() {
        let cfg = ExpConfig::quick();
        let r = make_r(&cfg, 1.0);
        assert_eq!(r.len(), 1 << 17); // 1 paper GiB = 2^17 sim tuples
        let s = make_s(&cfg, &r);
        assert_eq!(s.len(), cfg.s_tuples);
    }
}
