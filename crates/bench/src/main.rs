//! `experiments` — regenerate the paper's tables and figures; `--help`
//! lists the targets.

use std::path::{Path, PathBuf};
use windex_bench::experiments::run_targets;
use windex_bench::{ExpConfig, Experiment};

const USAGE: &str = "\
usage: experiments [--quick] [--charts] [--out DIR] [--jobs N] [--record] <target>...

targets (no target runs `all`):
  all          every table, figure, ablation, and the summary
  table1       interconnect bandwidth overview
  fig1         transfer volume: full scan vs index range scan
  fig3 fig4    unpartitioned INLJ sweep (throughput / TLB translations)
  fig5 fig6    partitioned-keys sweep (throughput / % eliminated)
  fig7         window-size sweep
  fig8         Zipf-skewed lookup keys
  fig9         V100+NVLink2 vs A100+PCIe4
  serve        latency-throughput: cross-query window batching
  observe      export Perfetto traces, TLB/L2 residency heatmaps, and
               an OpenMetrics snapshot from seeded runs
  whatif-gh200 GH200 NVLink C2C what-if (beyond the paper)
  validate-scale  same paper point at reduction factors 256x-2048x
  summary      §6 discussion claims, measured vs paper
  ablations    every ablation below
  ablation-bits | ablation-overlap | ablation-pages |
  ablation-node-size | ablation-fanout | ablation-keydist |
  ablation-warm | ablation-spill | ablation-subwarp

gated targets (each checks its fresh KPIs against the committed
BENCH_<target>.json in the working directory and exits nonzero on
drift; --record rewrites the committed file instead):
  baseline     deterministic perf baseline over a fixed seed matrix
  simperf      simulator throughput: simulated accesses per wall-clock
               second over the baseline matrix (80% floor)
  chaos        serving resilience KPIs under fault windows
  cluster      multi-GPU sharded serving: 1→8 GPU scaling over priced
               interconnects plus targeted device-loss recovery
  tuner        online plan auto-tuning vs every static plan on a mixed
               1/64 GiB tenant trace
  requests     per-request span-tree stage KPIs across every serving
               layer

--jobs N runs each distinct figure query and the gated sweeps on N worker
threads; the output is byte-identical for any N.
";

fn emit(exp: Experiment, out: &Path, charts: bool) -> Result<(), String> {
    print!("{}", exp.render_text());
    if charts {
        if let Some(chart) = windex_bench::chart::render_chart(&exp) {
            print!("{chart}");
        }
    }
    println!();
    exp.write(out)
        .map_err(|e| format!("could not write {}: {e}", exp.id))
}

/// Report a malformed command line and exit.
fn usage_error<T>(message: &str) -> T {
    eprintln!("{message}");
    std::process::exit(2);
}

fn main() {
    let mut cfg = ExpConfig::full();
    let (mut quick, mut charts) = (false, false);
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--charts" => charts = true,
            "--record" => cfg.record = true,
            "--out" => {
                let dir = args.next().map(PathBuf::from);
                cfg.out_dir = dir.unwrap_or_else(|| usage_error("--out requires a directory"));
            }
            "--jobs" => {
                let jobs = args.next().and_then(|v| v.parse().ok()).filter(|&n| n >= 1);
                cfg.jobs =
                    jobs.unwrap_or_else(|| usage_error("--jobs requires a positive integer"));
            }
            "--help" | "-h" => return print!("{USAGE}"),
            t => targets.push(t.to_string()),
        }
    }
    if quick {
        let (out_dir, jobs, record) = (cfg.out_dir, cfg.jobs, cfg.record);
        cfg = ExpConfig {
            out_dir,
            jobs,
            record,
            ..ExpConfig::quick()
        };
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    println!(
        "windex experiments — scale 1:{} ({}), S = 2^{} tuples, sweep {:?} GiB\n",
        cfg.scale.factor,
        if cfg.quick { "quick" } else { "full" },
        cfg.s_tuples.trailing_zeros(),
        cfg.sweep_gib,
    );

    let started = std::time::Instant::now();
    let targets: Vec<&str> = targets.iter().map(String::as_str).collect();
    if let Err(e) = run_targets(&targets, &cfg, |exp| emit(exp, &cfg.out_dir, charts)) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    println!(
        "done in {:.1}s; results in {}",
        started.elapsed().as_secs_f64(),
        cfg.out_dir.display()
    );
}
