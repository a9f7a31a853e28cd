//! What-if study beyond the paper's evaluation: the GH200's NVLink C2C
//! (450 GB/s, Table 1) against the paper's V100 + NVLink 2.0 platform.

use super::cell::{Plan, Platform};
use super::{compare, crossover_gib, qps_series, sweep, windowed};
use crate::config::ExpConfig;
use crate::output::{num, Experiment};
use windex_core::prelude::*;

/// Sweep the V100 and GH200 platforms over R.
pub fn whatif_gh200(cfg: &ExpConfig) -> Plan<'_> {
    let inlj = windowed(cfg, IndexKind::RadixSpline);
    let hash = JoinStrategy::HashJoin;
    let strategies = [("windowed-inlj(radix-spline)", inlj), ("hash-join", hash)];
    let platforms = [
        ("V100+NVLink2", Platform::V100),
        ("GH200+C2C", Platform::Gh200),
    ];
    let (columns, cells) = compare(&platforms, &strategies);
    let qps = |r: &QueryReport| num(r.queries_per_second());
    sweep(cfg, &cells, qps, move |rows, t| {
        let series = |platform, st| qps_series(cfg, t, (platform, st));

        let last = cfg.sweep_gib.len() - 1;
        let speedup = |st| series(Platform::Gh200, st)[last].1 / series(Platform::V100, st)[last].1;
        let mut notes = vec![format!(
            "GH200 speedup at {:.0} GiB — INLJ: {:.1}x, hash join: {:.1}x. The \
         450 GB/s link lifts both, but the table scan stays O(|R|): the \
         index join's advantage persists on next-generation interconnects.",
            cfg.sweep_gib[last],
            speedup(inlj),
            speedup(hash),
        )];
        for (plat, platform) in platforms {
            if let Some(x) = crossover_gib(&series(platform, hash), &series(platform, inlj)) {
                notes.push(format!(
                    "{plat}: INLJ overtakes the hash join at ~{x:.1} GiB"
                ));
            }
        }

        Experiment {
            id: "whatif-gh200".into(),
            title: "What-if: GH200 NVLink C2C vs V100 NVLink 2.0 (Q/s)".into(),
            columns,
            rows,
            notes,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gh200_lifts_both_sides() {
        let mut cfg = ExpConfig::quick();
        cfg.s_tuples = 1 << 10;
        cfg.sweep_gib = vec![48.0];
        let exp = &crate::experiments::render(&["whatif-gh200"], &cfg)[0];
        let row = &exp.rows[0];
        let v100_inlj = row[1].as_f64().unwrap();
        let v100_hash = row[2].as_f64().unwrap();
        let gh_inlj = row[3].as_f64().unwrap();
        let gh_hash = row[4].as_f64().unwrap();
        assert!(gh_inlj > 2.0 * v100_inlj, "INLJ {v100_inlj} -> {gh_inlj}");
        assert!(gh_hash > 1.5 * v100_hash, "hash {v100_hash} -> {gh_hash}");
    }
}
