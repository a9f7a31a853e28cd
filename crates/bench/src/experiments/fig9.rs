//! Fig. 9: hardware comparison — V100 + NVLink 2.0 vs A100 + PCI-e 4.0.
//!
//! The two fastest INLJ variants (RadixSpline and Harmonia, windowed) and
//! the hash join, swept over R on both platforms (§5.2.3). The paper finds
//! the hash join 1.7× faster on the A100 (it is the faster GPU), while the
//! INLJ fares relatively better on NVLink, moving the crossover from
//! 13.9 GiB (3.6 %) on the A100 to 6.2 GiB (8.0 %) on the V100.

use super::cell::{Plan, Platform};
use super::{compare, crossover_gib, qps_series, sweep, windowed};
use crate::config::ExpConfig;
use crate::output::{num, Experiment};
use windex_core::prelude::*;

/// The two-platform sweep.
pub fn fig9(cfg: &ExpConfig) -> Plan<'_> {
    let rs = windowed(cfg, IndexKind::RadixSpline);
    let hash = JoinStrategy::HashJoin;
    let strategies = [
        ("windowed-inlj(radix-spline)", rs),
        (
            "windowed-inlj(harmonia)",
            windowed(cfg, IndexKind::Harmonia),
        ),
        ("hash-join", hash),
    ];
    let platforms = [
        ("V100+NVLink2", Platform::V100),
        ("A100+PCIe4", Platform::A100),
    ];
    let (columns, cells) = compare(&platforms, &strategies);
    let qps = |r: &QueryReport| num(r.queries_per_second());
    sweep(cfg, &cells, qps, move |rows, t| {
        let series = |platform, st| qps_series(cfg, t, (platform, st));

        let mut notes = vec![
            "Expected shape: hash join ~1.7x faster on the A100 (faster GPU); \
         INLJ relatively stronger over NVLink, so the INLJ-beats-hash \
         crossover comes earlier on the V100 (§5.2.3)."
                .into(),
        ];
        // Hash speedup A100/V100 at the largest size.
        let last = cfg.sweep_gib.len() - 1;
        let hash_v = series(Platform::V100, hash)[last].1;
        let hash_a = series(Platform::A100, hash)[last].1;
        notes.push(format!(
            "hash-join speedup A100/V100 at {:.0} GiB: {:.2}x (paper: 1.7x). \
         Known model deviation: with a WarpCore-faithful ~2 cacheline \
         fetches per probe, the A100 hash join is bound by its PCI-e 4.0 \
         scan (25 GB/s), not by HBM — the paper's 1.7x implies a \
         GPU-memory-bound hash join (~4 fetches/probe), which would break \
         the more load-bearing 111 GiB V100 anchor (0.2 Q/s). See \
         EXPERIMENTS.md.",
            cfg.sweep_gib[last],
            hash_a / hash_v
        ));
        for (plat, platform) in platforms {
            let s_tuples_gib =
                (cfg.s_tuples as u64 * 8 * cfg.scale.factor) as f64 / (1u64 << 30) as f64;
            match crossover_gib(&series(platform, hash), &series(platform, rs)) {
                Some(x) => notes.push(format!(
                    "{plat}: RadixSpline INLJ overtakes the hash join at ~{x:.1} GiB \
                 ({:.1} % selectivity); paper: 6.2 GiB (8.0 %) V100, 13.9 GiB (3.6 %) A100",
                    100.0 * s_tuples_gib / x
                )),
                None => notes.push(format!(
                    "{plat}: no crossover inside the sweep ({:?} GiB)",
                    cfg.sweep_gib
                )),
            }
        }

        Experiment {
            id: "fig9".into(),
            title: "Hardware comparison: PCI-e 4.0 vs NVLink 2.0 (Q/s)".into(),
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
    fn nvlink_favours_the_inlj_over_pcie() {
        let mut cfg = ExpConfig::quick();
        cfg.s_tuples = 1 << 11;
        cfg.sweep_gib = vec![64.0];
        let exp = &crate::experiments::render(&["fig9"], &cfg)[0];
        let row = &exp.rows[0];
        // Columns: x, V100 RS, V100 H, V100 hash, A100 RS, A100 H, A100 hash.
        let v100_rs = row[1].as_f64().unwrap();
        let v100_hash = row[3].as_f64().unwrap();
        let a100_rs = row[4].as_f64().unwrap();
        let a100_hash = row[6].as_f64().unwrap();
        // The INLJ itself is faster over NVLink (fine-grained reads).
        assert!(v100_rs > a100_rs, "V100 RS {v100_rs} <= A100 RS {a100_rs}");
        // The INLJ-vs-hash advantage is larger on NVLink than on PCIe, so
        // the crossover comes earlier on the V100 (§5.2.3).
        assert!(
            v100_rs / v100_hash > a100_rs / a100_hash,
            "NVLink should favour the INLJ"
        );
        // Known model deviation documented in the notes: the A100 hash join
        // is PCIe-scan-bound here, not 1.7x faster as the paper claims.
        assert!(exp
            .notes
            .iter()
            .any(|n| n.contains("Known model deviation")));
    }
}
