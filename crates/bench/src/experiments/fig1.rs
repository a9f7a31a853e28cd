//! Fig. 1 (motivation): transfer volume of the access paths.
//!
//! "For selective predicates, a hash join transfers more data than
//! necessary across the interconnect. In contrast, index joins reduce the
//! data transfer volume." This experiment makes the motivating figure
//! quantitative: a range predicate of varying selectivity is answered by
//! (a) a full table scan with a GPU-side filter and (b) an index range
//! scan that streams only the matching contiguous run.

use super::cell::RInput;
use super::v100;
use crate::config::ExpConfig;
use crate::output::{num, Experiment};
use serde_json::json;
use std::rc::Rc;
use windex_core::prelude::*;
use windex_core::strategy::{BuiltIndex, IndexConfigs};
use windex_join::{full_scan_filter, index_range_scan, ResultSink};
use windex_sim::CostModel;

/// R size for the range-scan study (kept moderate: a 100 % selective range
/// materializes the whole relation).
const RANGE_R_GIB: f64 = 32.0;

/// Run the transfer-volume comparison.
pub fn fig1(cfg: &ExpConfig) -> Experiment {
    let mut spec = v100(cfg);
    let r = RInput::paper(cfg.scale, RANGE_R_GIB).generate();
    // A 100 %-selective range materializes the whole relation as
    // (position, key) pairs. This motivating experiment studies transfer
    // volume, not result placement, so give the device enough HBM that the
    // sink never distorts the measurement (the capacity-constrained path
    // is exercised by the query engine's degradation ladder instead).
    let sink_bytes = (r.len() as u64 * 16).div_ceil(spec.page_bytes) * spec.page_bytes;
    spec.hbm_bytes = spec.hbm_bytes.max(sink_bytes + spec.page_bytes);
    let max_key = r.max_key().unwrap();

    let mut rows = Vec::new();
    for sel_pct in [0.1f64, 1.0, 10.0, 50.0, 100.0] {
        // Dense keys: a key range of `sel` of the domain selects `sel` of
        // the tuples.
        let hi = ((max_key as f64) * sel_pct / 100.0) as u64;

        let mut gpu = Gpu::new(spec.clone());
        let col = Rc::new(gpu.alloc_host_from_vec(r.keys().to_vec()));
        let idx = BuiltIndex::build(
            &mut gpu,
            IndexKind::RadixSpline,
            &col,
            &IndexConfigs::default(),
        );
        let cm = CostModel::new(gpu.spec());

        let mut sink = ResultSink::with_capacity(&mut gpu, r.len(), MemLocation::Gpu).unwrap();
        gpu.reset_memory_system();
        let before = gpu.snapshot();
        let full = full_scan_filter(&mut gpu, &col, 0, hi, &mut sink).unwrap();
        let d_full = gpu.snapshot() - before;
        sink.free(&mut gpu);

        let mut sink = ResultSink::with_capacity(&mut gpu, r.len(), MemLocation::Gpu).unwrap();
        gpu.reset_memory_system();
        let before = gpu.snapshot();
        let index = index_range_scan(&mut gpu, idx.as_dyn(), &col, 0, hi, &mut sink).unwrap();
        let d_index = gpu.snapshot() - before;
        sink.free(&mut gpu);
        assert_eq!(full, index, "operators must agree");

        let gib = |b: u64| cm.spec().scale.paper_bytes(b) as f64 / (1u64 << 30) as f64;
        let full_gib = gib(d_full.ic_bytes_streamed + d_full.ic_bytes_random);
        let index_gib = gib(d_index.ic_bytes_streamed + d_index.ic_bytes_random);
        rows.push(vec![
            json!(sel_pct),
            json!(full.matches),
            num(full_gib),
            num(index_gib),
            num(full_gib / index_gib.max(1e-9)),
            num(cm.estimate(&d_full, true).total_s),
            num(cm.estimate(&d_index, true).total_s),
        ]);
    }

    Experiment {
        id: "fig1".into(),
        title: format!("Transfer volume: full scan vs index range scan (R = {RANGE_R_GIB:.0} GiB)"),
        columns: vec![
            "selectivity (%)".into(),
            "matches".into(),
            "full-scan transfer (GiB)".into(),
            "index-scan transfer (GiB)".into(),
            "reduction".into(),
            "full-scan time (s)".into(),
            "index-scan time (s)".into(),
        ],
        rows,
        notes: vec![
            "Fig. 1's motivation made quantitative: the scan always moves \
             |R| while the index moves only the matching run (plus a few \
             search cachelines), so the reduction is ~1/selectivity."
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_scan_reduction_tracks_selectivity() {
        let mut cfg = ExpConfig::quick();
        cfg.s_tuples = 1 << 10;
        let exp = fig1(&cfg);
        // 1 % selectivity row: reduction near 100x.
        let red = exp.rows[1][4].as_f64().unwrap();
        assert!((50.0..200.0).contains(&red), "reduction {red}");
        // 100 % selectivity row: no advantage (within noise).
        let red_full = exp.rows[4][4].as_f64().unwrap();
        assert!((0.8..1.2).contains(&red_full), "reduction {red_full}");
    }
}
