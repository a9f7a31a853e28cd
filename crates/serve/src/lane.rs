//! One GPU's serving lane — the per-device unit both serving hosts run.
//!
//! A [`Lane`] holds the paper's unit of work (§5.1) as the serving layer
//! keeps it: the staged host column (the checkpoint a lost device is
//! rebuilt from), its index, the shared [`StreamingWindowJoin`] with its
//! result sink, the current window and the cost model. [`Server`](crate::Server)
//! owns one lane, [`ClusterServer`](crate::ClusterServer) one per GPU.
//!
//! [`Lane::dispatch`] is the only copy of the per-GPU degradation ladder.
//! Every attempt advances the lane's clock by its cost-model estimate,
//! failed or not; a failed attempt's error picks the next rung: a device
//! loss rebuilds in place (at most [`MAX_DEVICE_LOSS_RECOVERIES`] times per
//! run) or goes back to a host that can recover elsewhere; a capacity error
//! halves the window down to [`MIN_WINDOW_TUPLES`], then spills the sink to
//! CPU memory; a transient fault backs off by [`jittered_backoff_s`] under
//! the attempt cap and the host's [`RetryBudget`]. A used-up rung or any
//! other error abandons the batch. The ladder returns its rungs as ordered
//! [`LaneStep`]s, which each host maps onto its own events.

use crate::resilience::{jittered_backoff_s, RetryBudget, RetryConfig};
use crate::server::ServeConfig;
use std::rc::Rc;
use windex_core::session::{
    halved_window, recover_lost_device, MAX_DEVICE_LOSS_RECOVERIES, MIN_WINDOW_TUPLES,
};
use windex_core::strategy::{BuiltIndex, IndexConfigs};
use windex_core::streams::StreamingWindowJoin;
use windex_core::window::WindowConfig;
use windex_core::{WindexError, WindowStats};
use windex_index::IndexKind;
use windex_join::{PartitionBits, ResultSink};
use windex_sim::{Buffer, CostModel, Counters, Gpu, MemLocation, PhaseRecorder};

/// The host-wide retry state every lane's ladder draws from.
#[derive(Debug)]
pub(crate) struct Retries {
    cfg: RetryConfig,
    /// Retry token pool (persists across runs).
    pub(crate) budget: RetryBudget,
    /// Ordinal of the next jitter draw (restarts every run).
    seq: u64,
}

impl Retries {
    pub(crate) fn new(cfg: &RetryConfig) -> Self {
        let budget = RetryBudget::new(cfg);
        Retries {
            cfg: *cfg,
            budget,
            seq: 0,
        }
    }

    pub(crate) fn begin_run(&mut self) {
        self.seq = 0;
    }

    /// The backoff before retry `attempt` (0-based) of one dispatch, if the
    /// attempt cap and the budget allow it.
    fn grant(&mut self, attempt: u32) -> Option<f64> {
        if attempt >= self.cfg.max_attempts_per_dispatch || !self.budget.try_spend() {
            return None;
        }
        let backoff_s = jittered_backoff_s(&self.cfg, attempt, self.seq);
        self.seq += 1;
        Some(backoff_s)
    }
}

/// One rung the ladder took during a dispatch.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LaneStep {
    WindowShrunk {
        from: usize,
        to: usize,
    },
    SinkSpilled,
    Retried {
        attempt: u32,
        backoff_s: f64,
    },
    /// An in-place rebuild: `mttr_s` is the outage wait plus the rebuild.
    /// Both lie inside the dispatch's `[start, end_s]` interval.
    Recovered {
        mttr_s: f64,
    },
    RetriesExhausted,
}

/// How a dispatch ended.
#[derive(Debug)]
pub(crate) enum Landed {
    /// The operator's stats and the sink's `(rid, position)` pairs.
    Completed {
        stats: WindowStats,
        pairs: Vec<(u64, u64)>,
    },
    /// The ladder gave up; the host sheds the batch.
    Abandoned,
    /// The device is gone and in-place rebuilds were not allowed.
    DeviceLost,
}

/// One dispatch through the ladder.
#[derive(Debug)]
pub(crate) struct Dispatched {
    pub(crate) landed: Landed,
    /// Counter delta and cost-model estimate summed over the attempts.
    pub(crate) counters: Counters,
    pub(crate) est_s: f64,
    /// When the dispatch ended: its start plus every attempt's estimate,
    /// every backoff and every in-place rebuild, in that order.
    pub(crate) end_s: f64,
    pub(crate) steps: Vec<LaneStep>,
}

/// One GPU's serving state.
#[derive(Debug)]
pub(crate) struct Lane {
    kind: IndexKind,
    col: Rc<Buffer<u64>>,
    index: BuiltIndex,
    op: StreamingWindowJoin,
    sink: ResultSink,
    sink_loc: MemLocation,
    /// The current window (degradation persists across runs).
    window: WindowConfig,
    cost: CostModel,
    /// In-place rebuilds this run.
    recoveries: usize,
}

impl Lane {
    /// Build the index over `col` and allocate the operator and sink; a
    /// sink that does not fit in device memory falls back to CPU memory.
    pub(crate) fn new(
        gpu: &mut Gpu,
        cfg: &ServeConfig,
        col: Rc<Buffer<u64>>,
        bits: PartitionBits,
        min_key: u64,
    ) -> Result<Self, WindexError> {
        let index = BuiltIndex::build(gpu, cfg.index, &col, &IndexConfigs::default());
        let window = WindowConfig {
            window_tuples: cfg.window_tuples,
            bits,
            min_key,
        };
        let op = StreamingWindowJoin::new(gpu, window)?;
        let mut sink_loc = cfg.result_location;
        let sink = match ResultSink::with_capacity(gpu, cfg.window_tuples, sink_loc) {
            Ok(s) => s,
            Err(e) if WindexError::from(e.clone()).is_capacity() => {
                sink_loc = MemLocation::Cpu;
                ResultSink::with_capacity(gpu, cfg.window_tuples, sink_loc)?
            }
            Err(e) => return Err(e.into()),
        };
        let cost = CostModel::new(gpu.spec());
        Ok(Lane {
            kind: cfg.index,
            col,
            index,
            op,
            sink,
            sink_loc,
            window,
            cost,
            recoveries: 0,
        })
    }

    /// Current shared-window capacity (shrinks under memory pressure).
    pub(crate) fn window_tuples(&self) -> usize {
        self.window.window_tuples
    }

    pub(crate) fn sink_location(&self) -> MemLocation {
        self.sink_loc
    }

    /// The operator carries its phase recorder across every rebuild.
    pub(crate) fn set_phase_recorder(&mut self, rec: Option<PhaseRecorder>) {
        self.op.set_phase_recorder(rec);
    }

    pub(crate) fn take_phase_recorder(&mut self) -> Option<PhaseRecorder> {
        self.op.take_phase_recorder()
    }

    /// Start a run: a clean window, an empty sink, a fresh recovery
    /// allowance.
    pub(crate) fn begin_run(&mut self) {
        self.op.reset();
        self.sink.clear();
        self.recoveries = 0;
    }

    /// Re-stage the column from `keys` and rebuild the index over it (a
    /// re-shard grew the slice); returns the estimate of the reload.
    pub(crate) fn reload(&mut self, gpu: &mut Gpu, keys: Vec<u64>) -> f64 {
        let before = gpu.snapshot();
        let col = Rc::new(gpu.alloc_host_from_vec(keys));
        let index = BuiltIndex::build(gpu, self.kind, &col, &IndexConfigs::default());
        let reload_s = self.priced(gpu.snapshot() - before);
        self.col = col;
        self.index = index;
        reload_s
    }

    /// Push `batch` through the operator from virtual instant `start_s`,
    /// walking the degradation ladder (see the module docs) until it lands.
    /// `in_place` allows rebuilding this device after a loss. The device
    /// clock follows the lane's clock throughout.
    pub(crate) fn dispatch(
        &mut self,
        gpu: &mut Gpu,
        batch: &[(u64, u64)],
        start_s: f64,
        retries: &mut Retries,
        in_place: bool,
    ) -> Result<Dispatched, WindexError> {
        let mut d = Dispatched {
            landed: Landed::Abandoned,
            counters: Counters::default(),
            est_s: 0.0,
            end_s: start_s,
            steps: Vec::new(),
        };
        let mut attempts = 0u32;
        loop {
            // Each attempt starts from a clean window (the operator rolls
            // the sink back itself).
            gpu.set_virtual_time(d.end_s);
            self.op.reset();
            let before = gpu.snapshot();
            let attempt = self
                .op
                .push(gpu, self.index.as_dyn(), batch, &mut self.sink)
                .and_then(|()| self.op.flush_now(gpu, self.index.as_dyn(), &mut self.sink));
            let delta = gpu.snapshot() - before;
            let est_s = self.priced(delta);
            // A failed attempt consumed device time too, so the redrive
            // starts after it.
            d.end_s += est_s;
            gpu.set_virtual_time(d.end_s);
            d.counters = d.counters + delta;
            d.est_s += est_s;
            let err = match attempt {
                Ok(_) => {
                    retries.budget.on_success();
                    let (stats, pairs) = (self.op.stats(), self.sink.host_pairs());
                    self.sink.clear();
                    d.landed = Landed::Completed { stats, pairs };
                    return Ok(d);
                }
                Err(e) => e,
            };
            if err.is_device_loss() {
                if !in_place {
                    d.landed = Landed::DeviceLost;
                    return Ok(d);
                }
                if self.recoveries < MAX_DEVICE_LOSS_RECOVERIES {
                    self.recoveries += 1;
                    let step = self.rebuild(gpu, &mut d.end_s)?;
                    d.steps.push(step);
                    continue;
                }
            } else if err.is_capacity() {
                let from = self.window.window_tuples;
                if from > MIN_WINDOW_TUPLES {
                    let to = halved_window(from);
                    d.steps.push(LaneStep::WindowShrunk { from, to });
                    self.window.window_tuples = to;
                    let rec = self.op.take_phase_recorder();
                    self.op = StreamingWindowJoin::new(gpu, self.window)?;
                    self.op.set_phase_recorder(rec);
                    continue;
                }
                if self.sink_loc == MemLocation::Gpu {
                    d.steps.push(LaneStep::SinkSpilled);
                    self.sink_loc = MemLocation::Cpu;
                    self.replace_sink(gpu)?;
                    continue;
                }
            } else if err.is_transient() {
                // The fault outlasted the operator's own retries (e.g. a
                // link-flap window): the doubling, jittered backoff walks
                // the clock past the window instead of hammering it.
                if let Some(backoff_s) = retries.grant(attempts) {
                    attempts += 1;
                    d.end_s += backoff_s;
                    gpu.set_virtual_time(d.end_s);
                    d.steps.push(LaneStep::Retried {
                        attempt: attempts,
                        backoff_s,
                    });
                    continue;
                }
                d.steps.push(LaneStep::RetriesExhausted);
            }
            self.sink.clear();
            return Ok(d);
        }
    }

    /// Rebuild after a whole-device loss at `*clock`
    /// ([`recover_lost_device`]): index, operator and sink are rebuilt from
    /// the host column. Advances `*clock` past the rebuild.
    fn rebuild(&mut self, gpu: &mut Gpu, clock: &mut f64) -> Result<LaneStep, WindexError> {
        let rec = self.op.take_phase_recorder();
        let mttr_s = recover_lost_device(gpu, *clock, |gpu| {
            self.index = BuiltIndex::build(gpu, self.kind, &self.col, &IndexConfigs::default());
            self.op = StreamingWindowJoin::new(gpu, self.window)?;
            self.op.set_phase_recorder(rec);
            self.replace_sink(gpu)
        })?;
        *clock = gpu.virtual_now_s();
        Ok(LaneStep::Recovered { mttr_s })
    }

    /// Allocate a fresh sink at the current placement and free the old one.
    fn replace_sink(&mut self, gpu: &mut Gpu) -> Result<(), WindexError> {
        let fresh = ResultSink::with_capacity(gpu, self.window.window_tuples, self.sink_loc)?;
        std::mem::replace(&mut self.sink, fresh).free(gpu);
        Ok(())
    }

    /// The cost-model estimate of a counter delta, in virtual seconds.
    fn priced(&self, delta: Counters) -> f64 {
        self.cost.estimate(&delta, false).total_s
    }
}
