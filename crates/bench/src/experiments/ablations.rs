//! Ablations of the design choices DESIGN.md calls out.

use super::cell::{Cell, Plan, RInput, Setting};
use super::{header, table, v100, windowed};
use crate::config::ExpConfig;
use crate::output::{num, num6, Experiment};
use serde_json::{json, Value};
use windex_core::prelude::*;

/// The windowed INLJ over `index` at the fixed R: the ablations' base
/// query.
fn base(cfg: &ExpConfig, index: IndexKind) -> Cell {
    Cell::paper(cfg, cfg.fixed_r_gib, windowed(cfg, index))
}

/// Q/s and translations per lookup.
fn qps_tx(rep: &QueryReport) -> Vec<Value> {
    let tx = num6(rep.translations_per_lookup());
    vec![num(rep.queries_per_second()), tx]
}

/// The §4.2 rule's bit range on the fixed R for each bit budget (what
/// `QueryExecutor::resolve_bits` picks at 11 bits).
fn rule_bits(cfg: &ExpConfig, max_bits: &[u32]) -> Vec<PartitionBits> {
    let r = base(cfg, IndexKind::RadixSpline).r.generate();
    let domain = r.max_key().unwrap() - r.min_key().unwrap();
    let select = |&m: &u32| PartitionBits::select(domain, r.len() as u64, &v100(cfg), m);
    max_bits.iter().map(select).collect()
}

/// The windowed RadixSpline at the fixed R with `setting`.
fn rs_with(cfg: &ExpConfig, setting: Setting) -> Vec<Cell> {
    vec![base(cfg, IndexKind::RadixSpline).with(setting)]
}

/// §4.2 bit-range selection vs naive alternatives, at the fixed R size.
pub fn ablation_bits(cfg: &ExpConfig) -> Plan<'_> {
    let auto = rule_bits(cfg, &[11])[0];
    let fixed = |shift, name: &str| {
        let setting = Setting::Bits(PartitionBits { shift, bits: 11 });
        (vec![json!(name)], rs_with(cfg, setting))
    };
    let rule = format!("§4.2 rule (shift {}, {} bits)", auto.shift, auto.bits);
    let rows = vec![
        (vec![json!(rule)], rs_with(cfg, Setting::Default)),
        fixed(4, "paper fixed (shift 4, 11 bits)"),
        fixed(0, "low bits (shift 0, 11 bits)"),
        fixed(40, "too-high bits (shift 40, 11 bits)"),
    ];
    table(
        rows,
        |reps| qps_tx(reps[0]),
        |rows, _| Experiment {
            id: "ablation-bits".into(),
            title: format!(
                "Partition bit-range selection (windowed RadixSpline, R = {:.0} GiB)",
                cfg.fixed_r_gib
            ),
            columns: header(&["bit range", "Q/s", "tx/lookup"]),
            rows,
            notes: vec![
                "The §4.2 rule (root-split bit down to the page bit) should \
                 dominate: bits above the domain are constant, bits inside one \
                 page add no locality."
                    .into(),
            ],
        },
    )
}

/// Concurrent kernel execution (two streams) on vs off (§5.1).
pub fn ablation_overlap(cfg: &ExpConfig) -> Plan<'_> {
    let pair = |index| {
        let on = base(cfg, index);
        (
            vec![json!(index.name())],
            vec![on, on.with(Setting::Serial)],
        )
    };
    let rows = IndexKind::all().map(pair).into();
    let speedup = |reps: &[&QueryReport]| {
        let (q_on, q_off) = (reps[0].queries_per_second(), reps[1].queries_per_second());
        vec![num(q_on), num(q_off), num(q_on / q_off)]
    };
    table(rows, speedup, |rows, _| Experiment {
        id: "ablation-overlap".into(),
        title: format!(
            "Concurrent kernel execution (windowed INLJ, R = {:.0} GiB)",
            cfg.fixed_r_gib
        ),
        columns: header(&["index", "Q/s overlap", "Q/s serial", "speedup"]),
        rows,
        notes: vec!["Transfer/compute overlap on two CUDA streams keeps the \
                 interconnect busy while GPU-side kernels run (§5.1)."
            .into()],
    })
}

/// Huge-page size: 1 GiB vs 2 MiB pages (§3.2), windowed INLJ.
pub fn ablation_pages(cfg: &ExpConfig) -> Plan<'_> {
    // 1 GiB is the V100's own page size.
    let pages = |name: &str, page_bytes| {
        let cell = |index| Cell {
            page_bytes,
            ..base(cfg, index)
        };
        let cells = [IndexKind::Harmonia, IndexKind::RadixSpline].map(cell);
        let tlb_entries = cells[0].spec().tlb_entries;
        (vec![json!(name), json!(tlb_entries)], cells.into())
    };
    let rows = vec![
        pages("1 GiB pages", None),
        pages("2 MiB pages", Some(2 << 20)),
    ];
    let values = |reps: &[&QueryReport]| reps.iter().flat_map(|r| qps_tx(r)).collect();
    table(rows, values, |rows, _| Experiment {
        id: "ablation-pages".into(),
        title: format!(
            "Huge-page size (windowed INLJ, R = {:.0} GiB; 32 GiB TLB range held)",
            cfg.fixed_r_gib
        ),
        columns: header(&[
            "pages",
            "TLB entries",
            "Q/s harmonia",
            "tx/lookup harmonia",
            "Q/s radix-spline",
            "tx/lookup radix-spline",
        ]),
        rows,
        notes: vec![
            "§3.2 observes approximately equal performance for 1 GiB vs \
                 2 MiB huge pages (1 GiB improved repetition accuracy). With \
                 the TLB's covered range held constant, the partitioned window \
                 keeps the hit rate high under either page size."
                .into(),
            "The unpartitioned INLJ is omitted at 2 MiB pages: at the \
                 reproduction scale the lookup count is far below the page \
                 count, so thrashing re-misses cannot manifest (EXPERIMENTS.md)."
                .into(),
        ],
    })
}

/// B+tree node size: height vs per-node cachelines (§3.1 discussion). Each
/// non-default size fits its own pool, so it gets its own R.
pub fn ablation_node_size(cfg: &ExpConfig) -> Plan<'_> {
    let size = |node_bytes: usize| {
        // 4096 B is the default node.
        let setting = match node_bytes {
            4096 => Setting::Default,
            n => Setting::NodeBytes(n),
        };
        let cell = base(cfg, IndexKind::BPlusTree).with(setting);
        (vec![json!(format!("{} B", node_bytes))], vec![cell])
    };
    let rows = [512, 1024, 4096, 16384].map(size).into();
    let values = |reps: &[&QueryReport]| {
        let c = &reps[0].counters;
        let random = c.ic_bytes_random / c.lookups.max(1);
        vec![num(reps[0].queries_per_second()), num(random as f64)]
    };
    table(rows, values, |rows, _| Experiment {
        id: "ablation-node-size".into(),
        title: format!(
            "B+tree node size (windowed INLJ, R = {:.0} GiB)",
            cfg.fixed_r_gib
        ),
        columns: header(&["node size", "Q/s", "random B/lookup"]),
        rows,
        notes: vec![
            "§3.1: small nodes deepen the tree (more levels), large nodes \
                 span many cachelines searched randomly within the node."
                .into(),
        ],
    })
}

/// Partition fanout: maximum radix bits for the §4.2 rule.
pub fn ablation_fanout(cfg: &ExpConfig) -> Plan<'_> {
    let max_bits = [3u32, 5, 7, 9, 11, 13];
    let fanout = |(max_bits, bits): (u32, PartitionBits)| {
        let name = format!("≤{} bits ({} parts)", max_bits, bits.partitions());
        (vec![json!(name)], rs_with(cfg, Setting::Bits(bits)))
    };
    let rule = rule_bits(cfg, &max_bits);
    let rows = max_bits.into_iter().zip(rule).map(fanout).collect();
    table(
        rows,
        |reps| qps_tx(reps[0]),
        |rows, _| Experiment {
            id: "ablation-fanout".into(),
            title: format!(
                "Partition fanout (windowed RadixSpline, R = {:.0} GiB)",
                cfg.fixed_r_gib
            ),
            columns: header(&["fanout", "Q/s", "tx/lookup"]),
            rows,
            notes: vec![
                "The paper uses 2048 partitions (§4.3.1); fewer partitions give \
                 coarser key ranges and worse TLB locality."
                    .into(),
            ],
        },
    )
}

/// Key distribution: dense (0‥n) vs sparse-uniform keys. Learned indexes
/// depend on how well the key→position function interpolates; tree and
/// search structures do not.
pub fn ablation_keydist(cfg: &ExpConfig) -> Plan<'_> {
    let keys = |name: &str, dist| {
        let cell = |index| {
            let cell = base(cfg, index);
            let r = RInput { dist, ..cell.r };
            Cell { r, ..cell }
        };
        let cells = [IndexKind::RadixSpline, IndexKind::Harmonia].map(cell);
        (vec![json!(name)], cells.into())
    };
    let rows = vec![
        keys("dense (0..n)", KeyDistribution::Dense),
        keys(
            "sparse uniform (avg gap 16)",
            KeyDistribution::SparseUniform,
        ),
    ];
    let values = |reps: &[&QueryReport]| reps.iter().map(|r| num(r.queries_per_second())).collect();
    table(rows, values, |rows, _| Experiment {
        id: "ablation-keydist".into(),
        title: format!(
            "Key distribution sensitivity (windowed INLJ, R = {:.0} GiB)",
            cfg.fixed_r_gib
        ),
        columns: header(&["key distribution", "Q/s radix-spline", "Q/s harmonia"]),
        rows,
        notes: vec![
            "The RadixSpline interpolates dense keys exactly (observed error \
                 0 → one-line bounded search) but pays a wider search window on \
                 sparse keys; Harmonia is insensitive. This brackets the paper's \
                 1.1-1.8x RadixSpline-over-Harmonia band (§6)."
                .into(),
        ],
    })
}

/// Cold vs warm memory system: the paper measures each query cold; warm
/// repetitions keep TLB entries and cached index levels.
pub fn ablation_warm(cfg: &ExpConfig) -> Experiment {
    let mut rows = Vec::new();
    for gib in [8.0, cfg.fixed_r_gib] {
        let st = windowed(cfg, IndexKind::RadixSpline);
        let cell = Cell::paper(cfg, gib, st);
        let r = cell.r.generate();
        let s = cell.s.generate(&r);
        // A session keeps the staged buffers (and their addresses) alive,
        // so the warm rerun genuinely reuses TLB and cache state.
        let mut gpu = Gpu::new(cell.spec());
        let mut sess =
            QuerySession::new(&mut gpu, QueryExecutor::new(), r.clone(), s.clone()).unwrap();
        let cold = sess.run(&mut gpu, st).unwrap();
        sess.executor_mut().cold_start = false;
        let warm = sess.run(&mut gpu, st).unwrap();
        rows.push(vec![
            json!(format!("{gib:.0} GiB")),
            num(cold.queries_per_second()),
            num(warm.queries_per_second()),
            json!(cold.counters.tlb_misses),
            json!(warm.counters.tlb_misses),
        ]);
    }
    Experiment {
        id: "ablation-warm".into(),
        title: "Cold vs warm memory system (windowed RadixSpline)".into(),
        columns: header(&[
            "R",
            "Q/s cold",
            "Q/s warm",
            "TLB misses cold",
            "TLB misses warm",
        ]),
        rows,
        notes: vec![
            "Warm repetitions skip the compulsory per-page TLB misses (the \
             count columns), but those are page-count events priced at \
             microseconds — so throughput is essentially unchanged. This is \
             the §3.2 repetition-accuracy point: with 1 GiB pages there are \
             so few pages that cold/warm variance disappears."
                .into(),
        ],
    }
}

/// Result materialization target: GPU memory (paper default) vs spilling
/// to CPU memory (§3.2 footnote: "Large results could be spilled").
pub fn ablation_spill(cfg: &ExpConfig) -> Plan<'_> {
    let rows = vec![
        (vec![json!("GPU memory")], rs_with(cfg, Setting::Default)),
        (vec![json!("CPU spill")], rs_with(cfg, Setting::CpuResults)),
    ];
    let values = |reps: &[&QueryReport]| {
        let gib = reps[0].transfer_volume_paper_bytes as f64 / (1u64 << 30) as f64;
        vec![num(reps[0].queries_per_second()), num(gib)]
    };
    table(rows, values, |rows, _| Experiment {
        id: "ablation-spill".into(),
        title: format!(
            "Result materialization target (windowed RadixSpline, R = {:.0} GiB)",
            cfg.fixed_r_gib
        ),
        columns: header(&["target", "Q/s", "interconnect transfer (GiB)"]),
        rows,
        notes: vec!["Spilling writes the (rid, position) pairs back across the \
                 interconnect — 1 GiB for the 2^26-tuple result — a modest cost \
                 that frees GPU memory for larger results (§3.2 footnote)."
            .into()],
    })
}

/// Harmonia sub-warp width (lanes cooperating per key). The width is not
/// part of Harmonia's fit, so every width shares one.
pub fn ablation_subwarp(cfg: &ExpConfig) -> Plan<'_> {
    let width = |lanes: usize| {
        // 8 lanes per key is Harmonia's default.
        let setting = match lanes {
            8 => Setting::Default,
            n => Setting::Lanes(n),
        };
        let cell = base(cfg, IndexKind::Harmonia).with(setting);
        (vec![json!(format!("{lanes} lanes/key"))], vec![cell])
    };
    let rows = [1, 2, 4, 8, 16, 32].map(width).into();
    let values = |reps: &[&QueryReport]| {
        let c = &reps[0].counters;
        let ops = c.compute_ops as f64 / c.lookups.max(1) as f64;
        vec![num(reps[0].queries_per_second()), num(ops)]
    };
    table(rows, values, |rows, _| Experiment {
        id: "ablation-subwarp".into(),
        title: format!(
            "Harmonia sub-warp width (windowed INLJ, R = {:.0} GiB)",
            cfg.fixed_r_gib
        ),
        columns: header(&["sub-warp", "Q/s", "warp ops/lookup"]),
        rows,
        notes: vec![
            "In the out-of-core regime the traversal is memory-bound: the \
                 sub-warp width moves compute-side cost only, so throughput is \
                 largely insensitive — consistent with the paper treating the \
                 width as an internal Harmonia detail rather than a knob."
                .into(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        let mut cfg = ExpConfig::quick();
        cfg.s_tuples = 1 << 10;
        cfg.fixed_r_gib = 48.0;
        cfg
    }

    #[test]
    fn windowed_inlj_robust_to_page_size() {
        let exp = &crate::experiments::render(&["ablation-pages"], &tiny())[0];
        // RadixSpline Q/s for 1 GiB vs 2 MiB pages stay within a small band
        // (§3.2: "performance is approximately equal").
        let q_win_1g = exp.rows[0][4].as_f64().unwrap();
        let q_win_2m = exp.rows[1][4].as_f64().unwrap();
        let ratio = (q_win_1g / q_win_2m).max(q_win_2m / q_win_1g);
        assert!(ratio < 2.0, "windowed should be robust, ratio {ratio}");
        // Entry counts reflect the constant coverage.
        assert_eq!(exp.rows[0][1], 32);
        assert_eq!(exp.rows[1][1], 16384);
    }

    #[test]
    fn bit_rule_beats_too_high_bits() {
        let exp = &crate::experiments::render(&["ablation-bits"], &tiny())[0];
        let auto = exp.rows[0][1].as_f64().unwrap();
        let too_high = exp.rows[3][1].as_f64().unwrap();
        assert!(auto >= too_high, "auto {auto} vs too-high {too_high}");
    }
}
