//! Figs. 3 and 4: the unpartitioned INLJ sweep.
//!
//! Fig. 3 plots query throughput of the four INLJs and the hash join while
//! the indexed relation scales from 0.5 to 120 GiB. Fig. 4 plots the GPU's
//! address-translation requests per lookup over the same sweep — the
//! evidence that TLB misses cause the throughput drop past the 32 GiB TLB
//! range.

use super::cell::{Plan, Platform};
use super::{on_v100, per_index, sweep};
use crate::config::ExpConfig;
use crate::output::{num, num6, Experiment};
use serde_json::Value;
use windex_core::prelude::*;

/// The unpartitioned sweep's columns: the hash join, then one INLJ per
/// index.
fn columns() -> Vec<(Platform, JoinStrategy)> {
    let mut strategies = vec![JoinStrategy::HashJoin];
    strategies.extend(IndexKind::all().map(|index| JoinStrategy::Inlj { index }));
    on_v100(&strategies)
}

/// Column headers shared by the unpartitioned figures: x, hash, 4 indexes.
fn header(prefix: &str) -> Vec<String> {
    let hash = format!("{prefix} hash-join");
    per_index(&["R (GiB)", &hash], |k| format!("{prefix} inlj({k})"))
}

/// Fig. 3: query throughput over the unpartitioned sweep.
pub fn fig3(cfg: &ExpConfig) -> Plan<'_> {
    let qps = |r: &QueryReport| num(r.queries_per_second());
    sweep(cfg, &columns(), qps, |rows, _| Experiment {
        id: "fig3".into(),
        title: "Query throughput (Q/s), unpartitioned INLJ vs hash join".into(),
        columns: header("Q/s"),
        rows,
        notes: vec![
            "Expected shape: hash join decays smoothly with the scan volume; \
             every INLJ drops suddenly once R exceeds the 32 GiB TLB range; \
             in the paper's \"most interesting case — a highly selective \
             query on large data (over 100 GiB)\" — no unpartitioned INLJ \
             meaningfully outperforms the hash join (abstract, §3.3.1)."
                .into(),
        ],
    })
}

/// Fig. 4: translation requests per lookup over the same sweep.
pub fn fig4(cfg: &ExpConfig) -> Plan<'_> {
    let tx = |r: &QueryReport| {
        if r.counters.lookups == 0 {
            Value::Null // the hash join performs no index lookups
        } else {
            num6(r.translations_per_lookup())
        }
    };
    sweep(cfg, &columns(), tx, |rows, _| Experiment {
        id: "fig4".into(),
        title: "Address-translation requests per index lookup".into(),
        columns: header("tx/lookup"),
        rows,
        notes: vec![
            "Expected shape: near zero below the 32 GiB TLB range, spiking \
             upward past it; binary search worst, Harmonia least (§3.3.2)."
                .into(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExpConfig {
        let mut cfg = ExpConfig::quick();
        cfg.s_tuples = 1 << 10;
        cfg.sweep_gib = vec![1.0, 64.0];
        cfg
    }

    #[test]
    fn tlb_cliff_emerges_past_the_range() {
        let cfg = tiny_cfg();
        let fig4 = &crate::experiments::render(&["fig4"], &cfg)[0];
        // Column 2 is binary search (after x and hash join).
        let bs_small = fig4.rows[0][3].as_f64().unwrap();
        let bs_large = fig4.rows[1][3].as_f64().unwrap();
        assert!(
            bs_large > 10.0 * bs_small.max(1e-6),
            "no cliff: {bs_small} -> {bs_large}"
        );
        // Harmonia (column 4) thrashes less than binary search.
        let h_large = fig4.rows[1][4].as_f64().unwrap();
        assert!(
            h_large < bs_large,
            "harmonia {h_large} vs binsearch {bs_large}"
        );
    }

    #[test]
    fn hash_join_has_no_lookups() {
        let cfg = tiny_cfg();
        let fig4 = &crate::experiments::render(&["fig4"], &cfg)[0];
        assert_eq!(fig4.rows[0][1], Value::Null);
    }
}
