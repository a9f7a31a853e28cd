//! §6 summary claims, derived from the measured sweeps.
//!
//! Recomputes the headline numbers of the paper's discussion section:
//! transfer-volume reduction, the TLB throughput drop, the INLJ-vs-hash
//! speedup, the RadixSpline-vs-Harmonia advantage, and the crossover
//! selectivity.

use super::cell::{Cell, Plan, Platform};
use super::{crossover_gib, grid, on_v100, qps_series, windowed};
use crate::config::ExpConfig;
use crate::output::{num, Experiment};
use serde_json::json;
use windex_core::prelude::*;

/// Compute the derived claims from an R sweep of the hash join, the
/// unpartitioned binary search, one partitioned INLJ per index, and the
/// windowed RadixSpline.
pub fn summary(cfg: &ExpConfig) -> Plan<'_> {
    let bs = JoinStrategy::Inlj {
        index: IndexKind::BinarySearch,
    };
    let mut strategies = vec![JoinStrategy::HashJoin, bs];
    strategies.extend(IndexKind::all().map(|index| JoinStrategy::PartitionedInlj { index }));
    strategies.push(windowed(cfg, IndexKind::RadixSpline));
    let cells = grid(cfg, &on_v100(&strategies))
        .into_iter()
        .flat_map(|(_, c)| c);
    Plan::new(cells.collect(), move |t| {
        let biggest_gib = *cfg.sweep_gib.last().expect("a sweep");
        let at_biggest = |st| &t[&Cell::paper(cfg, biggest_gib, st)];
        let part = |index| JoinStrategy::PartitionedInlj { index };

        // Transfer volume: hash join vs the best (RadixSpline) partitioned INLJ
        // at the largest size.
        let hash = at_biggest(JoinStrategy::HashJoin);
        let rs_part = at_biggest(part(IndexKind::RadixSpline));
        let transfer_reduction =
            hash.transfer_volume_paper_bytes as f64 / rs_part.transfer_volume_paper_bytes as f64;

        // TLB throughput drop: partitioned vs unpartitioned binary search at
        // the largest size (the drop the partitioning undoes, §6).
        let bs_unpart = at_biggest(bs).queries_per_second();
        let bs_part = at_biggest(part(IndexKind::BinarySearch)).queries_per_second();
        let tlb_drop = bs_part / bs_unpart;

        // INLJ speedup over the hash join at the largest size (best index).
        let best_inlj = IndexKind::all()
            .map(|index| at_biggest(part(index)).queries_per_second())
            .into_iter()
            .fold(0.0, f64::max);
        let speedup = best_inlj / hash.queries_per_second();

        // RadixSpline vs Harmonia across the partitioned sweep.
        let series = |st| qps_series(cfg, t, (Platform::V100, st));
        let rs_vs_harmonia: Vec<f64> = series(part(IndexKind::RadixSpline))
            .iter()
            .zip(series(part(IndexKind::Harmonia)))
            .map(|((_, rs), (_, h))| rs / h)
            .collect();
        let (rs_h_min, rs_h_max) = (
            rs_vs_harmonia.iter().cloned().fold(f64::INFINITY, f64::min),
            rs_vs_harmonia.iter().cloned().fold(0.0, f64::max),
        );

        // Crossover: windowed RadixSpline vs hash join.
        let hash_series = series(JoinStrategy::HashJoin);
        let rs_series = series(windowed(cfg, IndexKind::RadixSpline));
        let s_gib = (cfg.s_tuples as u64 * 8 * cfg.scale.factor) as f64 / (1u64 << 30) as f64;
        let (crossover, crossover_sel) = match crossover_gib(&hash_series, &rs_series) {
            Some(x) => (num(x), num(100.0 * s_gib / x)),
            None => (serde_json::Value::Null, serde_json::Value::Null),
        };

        let claims = [
            (
                "transfer-volume reduction (hash / partitioned RadixSpline)".to_string(),
                num(transfer_reduction),
                "up to 12x",
            ),
            (
                format!("TLB throughput drop undone at {biggest_gib:.0} GiB (binary search)"),
                num(tlb_drop),
                "up to 16.7x",
            ),
            (
                format!("best INLJ speedup over hash join at {biggest_gib:.0} GiB"),
                num(speedup),
                "3-10x",
            ),
            (
                "RadixSpline vs Harmonia (min over sweep)".into(),
                num(rs_h_min),
                "1.1x",
            ),
            (
                "RadixSpline vs Harmonia (max over sweep)".into(),
                num(rs_h_max),
                "1.8x",
            ),
            (
                "INLJ-beats-hash crossover (GiB, windowed RadixSpline)".into(),
                crossover,
                "6.2 GiB",
            ),
            ("crossover selectivity (%)".into(), crossover_sel, "8.0 %"),
        ];
        let rows = claims
            .into_iter()
            .map(|(claim, measured, paper)| vec![json!(claim), measured, json!(paper)])
            .collect();

        Experiment {
            id: "summary".into(),
            title: "§6 discussion claims: measured vs paper".into(),
            columns: vec!["claim".into(), "measured".into(), "paper".into()],
            rows,
            notes: vec![
                "Measured values are cost-model estimates at the reproduction \
             scale; the targets are shapes and factors, not testbed-exact \
             numbers."
                    .into(),
            ],
        }
    })
}
