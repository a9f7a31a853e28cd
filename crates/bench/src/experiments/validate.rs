//! Methodology validation: scale invariance of the reproduction.
//!
//! The whole study runs at a reduced scale (default 1024×, DESIGN.md). If
//! the scaling methodology is sound, re-running the *same paper-scale
//! point* at different reduction factors must produce (approximately) the
//! same paper-scale estimates: the cliff must stay at 32 GiB, and Q/s must
//! agree within a small band. This experiment replays three configurations
//! at scales 256×–2048×.

use super::cell::{Cell, Plan};
use super::{header, table};
use crate::config::ExpConfig;
use crate::output::{num, Experiment};
use serde_json::json;
use windex_core::prelude::*;

/// The replayed paper-scale point: R = 64 GiB (above the cliff), S = 2^26.
const PAPER_GIB: f64 = 64.0;

/// Replay the fixed paper-scale point at several reduction factors: the
/// windowed RadixSpline (with the 32 MiB paper window = 2^22 tuples,
/// scaled), the hash join and the unpartitioned binary search.
pub fn validate_scale(cfg: &ExpConfig) -> Plan<'_> {
    let scales: &[u64] = if cfg.quick {
        &[512, 1024, 2048]
    } else {
        &[256, 512, 1024, 2048]
    };
    let row = |&factor: &u64| {
        let per_scale = |paper_tuples: usize| (paper_tuples / factor as usize).max(1);
        let cell = |st| Cell::new(Scale::new(factor), PAPER_GIB, per_scale(1 << 26), st);
        let rs = JoinStrategy::WindowedInlj {
            index: IndexKind::RadixSpline,
            window_tuples: per_scale(1 << 22),
        };
        let bs = JoinStrategy::Inlj {
            index: IndexKind::BinarySearch,
        };
        let cells = [rs, JoinStrategy::HashJoin, bs].map(cell).into();
        (vec![json!(format!("1:{factor}"))], cells)
    };
    let columns = header(&[
        "scale",
        "Q/s windowed-inlj(radix-spline)",
        "Q/s hash-join",
        "Q/s inlj(binary-search)",
        "tx/lookup inlj(binary-search)",
    ]);
    let values = |reports: &[&QueryReport]| {
        let qps = reports.iter().map(|r| num(r.queries_per_second()));
        let bs_tx = num(reports[2].translations_per_lookup());
        qps.chain([bs_tx]).collect()
    };
    let rows = scales.iter().map(row).collect();
    table(rows, values, move |rows, _| Experiment {
        id: "validate-scale".into(),
        title: format!(
            "Scale invariance: the same paper-scale point (R = {PAPER_GIB:.0} GiB, \
             S = 2^26) at different reduction factors"
        ),
        columns,
        rows,
        notes: vec![
            "If the scaling methodology is sound, each column should agree \
             across rows (the paper-scale estimate must not depend on the \
             reduction factor). Expect mild drift from log-depth effects \
             (binary search depth grows with the simulated tuple count) and \
             the per-lookup thrashing ratio."
                .into(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_agree_across_scales() {
        let mut cfg = ExpConfig::quick();
        cfg.quick = true;
        let exp = &crate::experiments::render(&["validate-scale"], &cfg)[0];
        // Hash-join column must agree tightly (pure streaming, no log terms).
        let hash: Vec<f64> = exp.rows.iter().map(|r| r[2].as_f64().unwrap()).collect();
        let (lo, hi) = (
            hash.iter().cloned().fold(f64::INFINITY, f64::min),
            hash.iter().cloned().fold(0.0f64, f64::max),
        );
        assert!(hi / lo < 1.3, "hash join drifts with scale: {hash:?}");
        // Windowed INLJ within a 2x band.
        let inlj: Vec<f64> = exp.rows.iter().map(|r| r[1].as_f64().unwrap()).collect();
        let (lo, hi) = (
            inlj.iter().cloned().fold(f64::INFINITY, f64::min),
            inlj.iter().cloned().fold(0.0f64, f64::max),
        );
        assert!(hi / lo < 2.0, "windowed INLJ drifts with scale: {inlj:?}");
    }
}
