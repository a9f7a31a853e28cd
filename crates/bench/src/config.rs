//! Experiment configuration: paper-faithful defaults and a quick mode.

use std::path::PathBuf;
use windex_sim::Scale;

/// Shared knobs of all experiments.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Reproduction scale (default 1024×: 1 paper-GiB ≡ 1 sim-MiB).
    pub scale: Scale,
    /// Probe-relation size in simulated tuples. The paper fixes S at 2²⁶
    /// tuples (512 MiB); scaled that is 2¹⁶.
    pub s_tuples: usize,
    /// Indexed-relation sizes to sweep, in paper GiB. The paper scales R
    /// over 2²⁶–2³³·⁹ tuples (0.5–120 GiB).
    pub sweep_gib: Vec<f64>,
    /// Window size in simulated tuples for windowed strategies outside the
    /// Fig. 7 sweep. The paper settles on 32 MiB = 2²² tuples (§5.2.2);
    /// scaled that is 2¹².
    pub window_tuples: usize,
    /// R size (paper GiB) for the fixed-size experiments (Figs. 7–9 use
    /// 100 GiB).
    pub fixed_r_gib: f64,
    /// Where result files are written.
    pub out_dir: PathBuf,
    /// Reduced sweep (`--quick`).
    pub quick: bool,
    /// Worker threads for the figure targets' cell table and the gated
    /// sweeps. Each query is an independent deterministic simulation (one
    /// fresh `Gpu` each), merged by cell key or in fixed point order — so
    /// any job count produces byte-identical reports.
    pub jobs: usize,
    /// Gated targets write their committed `BENCH_*.json` golden instead
    /// of checking the fresh run against it.
    pub record: bool,
}

impl ExpConfig {
    /// The paper-faithful configuration.
    pub fn full() -> Self {
        ExpConfig {
            scale: Scale::PAPER,
            s_tuples: 1 << 16,
            sweep_gib: vec![
                0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 48.0, 64.0, 88.0, 111.0,
            ],
            window_tuples: 1 << 12,
            fixed_r_gib: 100.0,
            out_dir: PathBuf::from("results"),
            quick: false,
            jobs: 1,
            record: false,
        }
    }

    /// Reduced configuration: smaller probe side and a 5-point sweep.
    pub fn quick() -> Self {
        ExpConfig {
            scale: Scale::PAPER,
            s_tuples: 1 << 13,
            sweep_gib: vec![1.0, 8.0, 32.0, 64.0, 111.0],
            window_tuples: 1 << 12,
            fixed_r_gib: 64.0,
            out_dir: PathBuf::from("results"),
            quick: true,
            jobs: 1,
            record: false,
        }
    }

    /// Zipf exponents of the Fig. 8 sweep (0–1.75).
    pub fn zipf_exponents(&self) -> Vec<f64> {
        if self.quick {
            vec![0.0, 1.0, 1.75]
        } else {
            vec![0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
        }
    }

    /// Window sizes of the Fig. 7 sweep, in simulated tuples
    /// (paper: 2¹⁸–2²⁶ tuples = 2–512 MiB; scaled: 2⁸–2¹⁶).
    pub fn window_sweep(&self) -> Vec<usize> {
        let range = if self.quick {
            (8..=16).step_by(2)
        } else {
            (8..=16).step_by(1)
        };
        range.map(|p| 1usize << p).collect()
    }
}
