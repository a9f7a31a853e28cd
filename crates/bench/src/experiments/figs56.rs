//! Figs. 5 and 6: partitioned lookup keys.
//!
//! Fig. 5 repeats the Fig. 3 sweep with the lookup keys radix-partitioned
//! (materialized) inside the measured query. Fig. 6 reports the percentage
//! of address-translation requests eliminated relative to the
//! unpartitioned runs.

use super::cell::{Cell, Plan};
use super::{on_v100, per_index, sweep, table};
use crate::config::ExpConfig;
use crate::output::{num, Experiment};
use serde_json::{json, Value};
use windex_core::prelude::*;

/// Fig. 5: throughput with partitioned keys, hash join as reference.
pub fn fig5(cfg: &ExpConfig) -> Plan<'_> {
    let mut strategies = vec![JoinStrategy::HashJoin];
    strategies.extend(IndexKind::all().map(|index| JoinStrategy::PartitionedInlj { index }));
    let columns = per_index(&["R (GiB)", "Q/s hash-join"], |k| {
        format!("Q/s part-inlj({k})")
    });
    let qps = |r: &QueryReport| num(r.queries_per_second());
    sweep(cfg, &on_v100(&strategies), qps, |rows, _| Experiment {
        id: "fig5".into(),
        title: "Query throughput (Q/s) when partitioning lookup keys".into(),
        columns,
        rows,
        notes: vec![
            "Expected shape: the sudden TLB drop is remedied; all INLJs beat \
             the hash join at large R; paper reports 0.6 / 0.7 / 1 / 1.9 Q/s \
             (B+tree / binary search / Harmonia / RadixSpline) vs 0.2 Q/s at \
             111 GiB — up to 10x (§4.3.1)."
                .into(),
        ],
    })
}

/// Fig. 6: % of translation requests eliminated vs the unpartitioned runs
/// (per index).
pub fn fig6(cfg: &ExpConfig) -> Plan<'_> {
    let columns = per_index(&["R (GiB)"], |k| format!("% eliminated ({k})"));
    // Per R size: each index's unpartitioned and partitioned INLJ.
    let row = |&gib: &f64| {
        let cell = |st| Cell::paper(cfg, gib, st);
        let pair = |index| {
            [
                JoinStrategy::Inlj { index },
                JoinStrategy::PartitionedInlj { index },
            ]
        };
        let cells = IndexKind::all().into_iter().flat_map(pair).map(cell);
        (vec![json!(gib)], cells.collect())
    };
    let eliminated = |pair: &[&QueryReport]| {
        let u_tx = pair[0].translations_per_lookup();
        let p_tx = pair[1].translations_per_lookup();
        if u_tx < 1e-2 {
            // Below the TLB range there is nothing to eliminate.
            Value::Null
        } else {
            num(100.0 * (1.0 - p_tx / u_tx))
        }
    };
    let rows = cfg.sweep_gib.iter().map(row).collect();
    let values = move |reports: &[&QueryReport]| reports.chunks(2).map(eliminated).collect();
    table(rows, values, |rows, _| Experiment {
        id: "fig6".into(),
        title: "Translation requests eliminated by partitioning (%)".into(),
        columns,
        rows,
        notes: vec![
            "Expected shape: ~100 % at and beyond the TLB range boundary; \
                 blank cells mark sizes whose unpartitioned runs had no \
                 meaningful translation traffic to eliminate (§4.3.2)."
                .into(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_removes_the_cliff_and_translations() {
        let mut cfg = ExpConfig::quick();
        cfg.s_tuples = 1 << 12;
        cfg.sweep_gib = vec![64.0];
        let figs = crate::experiments::render(&["fig3", "fig5", "fig6"], &cfg);
        let (fig3, fig5, fig6) = (&figs[0], &figs[1], &figs[2]);
        // Partitioned binary search is faster than unpartitioned at 64 GiB.
        let u_bs = fig3.rows[0][2].as_f64().unwrap();
        let p_bs = fig5.rows[0][2].as_f64().unwrap();
        assert!(p_bs > 2.0 * u_bs, "partitioned {p_bs} vs {u_bs}");
        // And nearly all translations are gone.
        let elim = fig6.rows[0][1].as_f64().unwrap();
        assert!(elim > 90.0, "eliminated {elim}%");
    }
}
