//! Fig. 7: impact of the window size on query throughput.
//!
//! R is fixed at 100 GiB, S at 2²⁶ tuples; the window size sweeps 2¹⁸–2²⁶
//! tuples (2–512 MiB; scaled 2⁸–2¹⁶). The paper finds all indexes stay
//! within 2×, with the RadixSpline and Harmonia preferring small windows.

use super::cell::{Cell, Plan};
use super::{per_index, table};
use crate::config::ExpConfig;
use crate::output::{num, Experiment};
use serde_json::json;
use windex_core::prelude::*;

/// The window-size sweep.
pub fn fig7(cfg: &ExpConfig) -> Plan<'_> {
    let columns = per_index(&["window (paper MiB)"], |k| {
        format!("Q/s windowed-inlj({k})")
    });
    // Per window size, the windowed INLJ over every index at the fixed R.
    let row = |window_tuples: usize| {
        // Window bytes at paper scale: tuples × 8 B × scale.
        let paper_mib = (window_tuples as u64 * 8 * cfg.scale.factor) >> 20;
        let cell = |index| {
            let st = JoinStrategy::WindowedInlj {
                index,
                window_tuples,
            };
            Cell::paper(cfg, cfg.fixed_r_gib, st)
        };
        (vec![json!(paper_mib)], IndexKind::all().map(cell).into())
    };
    let rows = cfg.window_sweep().into_iter().map(row).collect();
    let qps = |reports: &[&QueryReport]| {
        let qps = reports.iter().map(|r| num(r.queries_per_second()));
        qps.collect()
    };
    table(rows, qps, |rows, _| Experiment {
        id: "fig7".into(),
        title: format!("Window-size sweep at R = {:.0} GiB (Q/s)", cfg.fixed_r_gib),
        columns,
        rows,
        notes: vec![
            "Expected shape: throughput varies within ~2x across window \
             sizes; small windows (4-52 MiB) suffice — no TLB cliff at any \
             size (§5.2.1). The largest window (= the whole probe side) \
             degenerates to full materialization and loses inter-window \
             pipelining."
                .into(),
            "Scale caveat: a scaled window holds 1024x fewer tuples but \
             sweeps the same number of pages per window, so the TLB cost of \
             the smallest (2 MiB) windows is exaggerated relative to the \
             paper (see EXPERIMENTS.md)."
                .into(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_stays_within_a_small_band() {
        let mut cfg = ExpConfig::quick();
        cfg.s_tuples = 1 << 11;
        cfg.fixed_r_gib = 48.0;
        let exp = &crate::experiments::render(&["fig7"], &cfg)[0];
        // RadixSpline column (last): min and max within ~3x (generous band
        // for the reduced probe size).
        let vals: Vec<f64> = exp.rows.iter().map(|r| r[4].as_f64().unwrap()).collect();
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(0.0, f64::max);
        // The reduced probe size exaggerates the smallest window's
        // page-sweep cost (see the experiment's scale caveat), so the band
        // is generous here; the full run lands near the paper's ~2x.
        assert!(hi / lo < 6.0, "window sensitivity too high: {lo}..{hi}");
    }
}
