//! `experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--charts] [--out DIR] [--jobs N] [--record] <target>...
//!
//! targets:
//!   all          every table, figure, ablation, and the summary
//!   table1       interconnect bandwidth overview
//!   fig1         transfer volume: full scan vs index range scan
//!   fig3 fig4    unpartitioned INLJ sweep (throughput / TLB translations)
//!   fig5 fig6    partitioned-keys sweep (throughput / % eliminated)
//!   fig7         window-size sweep
//!   fig8         Zipf-skewed lookup keys
//!   fig9         V100+NVLink2 vs A100+PCIe4
//!   serve        latency-throughput: cross-query window batching
//!   observe      export Perfetto traces, TLB/L2 residency heatmaps, and
//!                an OpenMetrics snapshot from seeded runs
//!   whatif-gh200 GH200 NVLink C2C what-if (beyond the paper)
//!   validate-scale  same paper point at reduction factors 256x-2048x
//!   summary      §6 discussion claims, measured vs paper
//!   ablations    every ablation below
//!   ablation-bits | ablation-overlap | ablation-pages |
//!   ablation-node-size | ablation-fanout | ablation-keydist |
//!   ablation-warm | ablation-spill | ablation-subwarp
//!
//! gated targets (each checks its fresh KPIs against the committed
//! BENCH_<target>.json in the working directory and exits nonzero on
//! drift; `--record` rewrites the committed file instead):
//!   baseline     deterministic perf baseline over a fixed seed matrix
//!   simperf      simulator throughput: simulated accesses per wall-clock
//!                second over the baseline matrix (80% floor)
//!   chaos        serving resilience KPIs under fault windows
//!   cluster      multi-GPU sharded serving: 1→8 GPU scaling over priced
//!                interconnects plus targeted device-loss recovery
//!   tuner        online plan auto-tuning vs every static plan on a mixed
//!                1/64 GiB tenant trace
//!   requests     per-request span-tree stage KPIs across every serving
//!                layer
//! ```

use std::path::{Path, PathBuf};
use windex_bench::experiments::{
    ablations, baseline, chaos, cluster, fig1, fig7, fig8, fig9, figs34, figs56, observe, requests,
    serve, simperf, summary, table1, tuner, validate, whatif,
};
use windex_bench::{ExpConfig, Experiment};

fn emit(exp: Experiment, out: &Path, charts: bool) {
    print!("{}", exp.render_text());
    if charts {
        if let Some(chart) = windex_bench::chart::render_chart(&exp) {
            print!("{chart}");
        }
    }
    println!();
    if let Err(e) = exp.write(out) {
        eprintln!("warning: could not write {}: {e}", exp.id);
    }
}

fn run_target(target: &str, cfg: &ExpConfig) -> Result<Vec<Experiment>, String> {
    Ok(match target {
        "table1" => vec![table1::table1()],
        "fig1" => vec![fig1::fig1(cfg)],
        "fig3" => {
            let sweep = figs34::unpartitioned_sweep(cfg);
            vec![figs34::fig3_from(&sweep)]
        }
        "fig4" => {
            let sweep = figs34::unpartitioned_sweep(cfg);
            vec![figs34::fig4_from(&sweep)]
        }
        "fig5" | "fig6" => figs56::figs56(cfg),
        "fig7" => vec![fig7::fig7(cfg)],
        "fig8" => vec![fig8::fig8(cfg)],
        "fig9" => vec![fig9::fig9(cfg)],
        "summary" => vec![summary::summary(cfg)],
        "ablations" => ablations::all(cfg),
        "ablation-bits" => vec![ablations::ablation_bits(cfg)],
        "ablation-overlap" => vec![ablations::ablation_overlap(cfg)],
        "ablation-pages" => vec![ablations::ablation_pages(cfg)],
        "ablation-node-size" => vec![ablations::ablation_node_size(cfg)],
        "ablation-fanout" => vec![ablations::ablation_fanout(cfg)],
        "ablation-keydist" => vec![ablations::ablation_keydist(cfg)],
        "ablation-warm" => vec![ablations::ablation_warm(cfg)],
        "ablation-spill" => vec![ablations::ablation_spill(cfg)],
        "ablation-subwarp" => vec![ablations::ablation_subwarp(cfg)],
        "whatif-gh200" => vec![whatif::whatif_gh200(cfg)],
        "validate-scale" => vec![validate::validate_scale(cfg)],
        "serve" => vec![serve::serve(cfg)],
        "baseline" => vec![baseline::baseline(cfg)?],
        "observe" => vec![observe::observe(cfg)],
        "simperf" => vec![simperf::simperf(cfg)?],
        "chaos" => vec![chaos::chaos(cfg)?],
        "cluster" => vec![cluster::cluster(cfg)?],
        "tuner" => vec![tuner::tuner(cfg)?],
        "requests" => vec![requests::requests(cfg)?],
        "all" => {
            let mut out = vec![table1::table1(), fig1::fig1(cfg)];
            let unpart = figs34::unpartitioned_sweep(cfg);
            out.push(figs34::fig3_from(&unpart));
            out.push(figs34::fig4_from(&unpart));
            let part = figs56::partitioned_sweep(cfg);
            out.extend(figs56::figs56_from(&unpart, &part));
            out.push(fig7::fig7(cfg));
            out.push(fig8::fig8(cfg));
            out.push(fig9::fig9(cfg));
            out.extend(ablations::all(cfg));
            out.push(serve::serve(cfg));
            out.push(whatif::whatif_gh200(cfg));
            out.push(validate::validate_scale(cfg));
            out.push(summary::summary(cfg));
            out
        }
        other => return Err(format!("unknown target '{other}'")),
    })
}

fn main() {
    let mut quick = false;
    let mut charts = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut jobs: usize = 1;
    let mut record = false;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--charts" => charts = true,
            "--record" => record = true,
            "--out" => {
                out_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                })));
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--jobs requires a positive integer");
                        std::process::exit(2);
                    });
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--quick] [--charts] [--out DIR] [--jobs N] [--record] <target>..."
                );
                println!("targets: all table1 fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 serve observe whatif-gh200 validate-scale");
                println!("         summary ablations ablation-{{bits,overlap,pages,node-size,fanout,keydist,warm,spill,subwarp}}");
                println!("gated:   baseline simperf chaos cluster tuner requests (check vs the committed BENCH_<target>.json)");
                println!("--record rewrites the gated targets' committed BENCH_<target>.json instead of checking it");
                println!("--jobs N runs the gated sweeps on N worker threads; reports are byte-identical for any N");
                return;
            }
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }

    let mut cfg = if quick {
        ExpConfig::quick()
    } else {
        ExpConfig::full()
    };
    if let Some(dir) = out_dir {
        cfg.out_dir = dir;
    }
    cfg.jobs = jobs;
    cfg.record = record;
    println!(
        "windex experiments — scale 1:{} ({}), S = 2^{} tuples, sweep {:?} GiB\n",
        cfg.scale.factor,
        if cfg.quick { "quick" } else { "full" },
        cfg.s_tuples.trailing_zeros(),
        cfg.sweep_gib,
    );

    let started = std::time::Instant::now();
    for target in &targets {
        match run_target(target, &cfg) {
            Ok(exps) => {
                for exp in exps {
                    emit(exp, &cfg.out_dir, charts);
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    println!(
        "done in {:.1}s; results in {}",
        started.elapsed().as_secs_f64(),
        cfg.out_dir.display()
    );
}
