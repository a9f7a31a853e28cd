//! Online cost-based strategy & window auto-tuner (ROADMAP item 2).
//!
//! The paper's central result is regime-dependence: the hash join wins while
//! the indexed relation streams comfortably over the interconnect, the
//! windowed INLJ wins out-of-core where TLB thrash kills random probes. A
//! served tenant sits somewhere on that curve — and moves. This module
//! closes the loop the measurement layers opened: per tenant, an
//! [`OnlineTuner`] maintains a sliding horizon of observed KPIs
//! ([`KpiSample`]: translations/lookup, TLB-miss rate, phase shares,
//! matches/key, realized seconds/key) and, at batch boundaries, picks the
//! next `{strategy, window_tuples, partition bits}` from a candidate set
//! ([`CandidatePlan`]) by cost-model argmin.
//!
//! Three disciplines keep it sane:
//!
//! - **Hysteresis** — a switch needs both a minimum dwell (batches since
//!   the last switch) and a relative improvement over the incumbent's
//!   estimate, so estimate noise never causes flip-flopping.
//! - **Bounded ε-greedy exploration** — with probability ε (counter-indexed
//!   splitmix64 draws, the same determinism discipline as
//!   `windex-serve::resilience`), the tuner runs one batch on a
//!   non-incumbent candidate to refresh a stale estimate — but only
//!   candidates whose current estimate is within [`TunerConfig::explore_bound`]
//!   of the incumbent are eligible, so it never re-probes a plan the cost
//!   model prices as catastrophic (e.g. hash-joining a 64 GiB tenant).
//!   Exploration lasts exactly one batch; the next decision returns to the
//!   argmin without dwell.
//! - **Pinning** — a degradation-ladder step (window shrink, spill, device
//!   loss) pins the tuner to its current plan until
//!   [`TunerConfig::pin_batches`] healthy batches pass: while the ladder is
//!   active, measurements describe the degraded regime, not the plan.
//!
//! Estimates start from an analytic prior ([`candidate_prior_s_per_key`])
//! priced through the *same* [`CostModel`] path as measured runs
//! ([`CandidateProfile`]), then converge to the realized per-key cost as
//! batches are observed. Every decision is a pure function of (seed,
//! observation sequence): same trace ⇒ byte-identical [`TuneEvent`] stream.

use crate::query::QueryReport;
use crate::strategy::JoinStrategy;
use serde::Serialize;
use std::collections::VecDeque;
use windex_index::IndexKind;
use windex_sim::fault::{splitmix64, unit};
use windex_sim::{phase, CandidateProfile, CostModel};

const SALT_EXPLORE: u64 = 0x74756e65; // "tune"
const SALT_PICK: u64 = 0x7069636b; // "pick"

/// One point in the tuner's plan space: a join strategy plus the partition
/// bit budget the §4.2 selection rule may spend on it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CandidatePlan {
    /// The execution plan.
    pub strategy: JoinStrategy,
    /// Upper bound on partition bits for the radix partitioner (the §4.2
    /// rule selects at most this many). Irrelevant for the hash join.
    pub max_partition_bits: u32,
}

impl CandidatePlan {
    /// Display label, e.g. `"windowed-inlj(radix-spline, w=4096)|bits<=11"`.
    pub fn label(&self) -> String {
        match self.strategy {
            JoinStrategy::HashJoin => self.strategy.label(),
            _ => format!(
                "{}|bits<={}",
                self.strategy.label(),
                self.max_partition_bits
            ),
        }
    }
}

/// The default candidate set: the hash join, the windowed INLJ over the
/// RadixSpline at two window sizes and two partition-bit budgets, and the
/// windowed INLJ over binary search (the index-family alternative).
pub fn default_candidates() -> Vec<CandidatePlan> {
    let rs = |window_tuples: usize, max_partition_bits: u32| CandidatePlan {
        strategy: JoinStrategy::WindowedInlj {
            index: IndexKind::RadixSpline,
            window_tuples,
        },
        max_partition_bits,
    };
    vec![
        CandidatePlan {
            strategy: JoinStrategy::HashJoin,
            max_partition_bits: 11,
        },
        rs(4096, 11),
        rs(1024, 11),
        rs(4096, 9),
        CandidatePlan {
            strategy: JoinStrategy::WindowedInlj {
                index: IndexKind::BinarySearch,
                window_tuples: 4096,
            },
            max_partition_bits: 11,
        },
    ]
}

/// Analytic prior for a candidate's per-key cost on a tenant with
/// `r_tuples` staged tuples and `batch_keys`-key dispatches, priced through
/// [`CostModel::estimate_candidate`] — the same path that prices measured
/// runs, so priors and realized costs are directly comparable.
///
/// The streamed component is first-principles exact (a hash join's probe
/// pass streams all of R; the windowed INLJ streams the batch); the
/// per-key random-access and TLB constants are calibrated against the
/// committed BENCH_baseline.json regimes. Priors only need *ordinal*
/// correctness — realized measurements take over within one horizon.
pub fn candidate_prior_s_per_key(
    model: &CostModel,
    plan: &CandidatePlan,
    r_tuples: u64,
    batch_keys: u64,
) -> f64 {
    let keys = batch_keys.max(1);
    let r = r_tuples.max(1);
    let depth = (64 - r.leading_zeros()) as u64; // ~log2(r)
                                                 // Random interconnect cachelines per key after windowed partitioning:
                                                 // most traversal steps hit GPU caches; the RadixSpline's flat lookup
                                                 // leaves ~0.15 lines/key, comparison-heavy structures scale with depth.
    let lines_per_key_x100 = |kind: IndexKind| match kind {
        IndexKind::RadixSpline => 15,
        IndexKind::Harmonia => 10 + 2 * depth,
        IndexKind::BPlusTree => 10 + 3 * depth,
        IndexKind::BinarySearch => 5 * depth,
    };
    let profile = match plan.strategy {
        JoinStrategy::HashJoin => CandidateProfile {
            keys,
            // Build on the batch, probe by streaming all of R.
            streamed_bytes: (r + keys) * 8,
            gpu_bytes: (r + keys) * 16,
            compute_ops: (r + keys) * 2,
            kernel_launches: 4,
            ..CandidateProfile::default()
        },
        JoinStrategy::Inlj { index } => CandidateProfile {
            keys,
            streamed_bytes: keys * 8,
            random_lines: keys * lines_per_key_x100(index) / 100,
            // Unwindowed probes thrash the shared TLB out-of-core (§3.3).
            thrash_tlb_misses: keys / 2,
            compute_ops: keys * 8,
            kernel_launches: 2,
            ..CandidateProfile::default()
        },
        JoinStrategy::PartitionedInlj { index } | JoinStrategy::WindowedInlj { index, .. } => {
            let window = match plan.strategy {
                JoinStrategy::WindowedInlj { window_tuples, .. } => window_tuples as u64,
                _ => keys,
            }
            .max(1);
            let windows = keys.div_ceil(window);
            let page = model.spec().page_bytes.max(1);
            CandidateProfile {
                keys,
                streamed_bytes: keys * 8,
                random_lines: keys * lines_per_key_x100(index) / 100,
                // Windowed partitioning restores locality: residual thrash
                // ~1.5% of lookups, plus one page sweep per window.
                thrash_tlb_misses: keys / 64,
                sweep_tlb_misses: windows * (window * 8).div_ceil(page),
                gpu_bytes: keys * 32,
                compute_ops: keys * 8,
                kernel_launches: windows * 3 + 1,
            }
        }
    };
    model.estimate_candidate(&profile, true).total_s / keys as f64
}

/// The observed-KPI vector for one dispatched batch, distilled from a
/// [`QueryReport`]. `seconds / keys` drives the estimates; the rest are
/// surfaced for observability and kept on the sliding horizon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct KpiSample {
    /// Probe keys the batch carried.
    pub keys: u64,
    /// Cost-model estimate of the batch, in (paper-scale) seconds.
    pub seconds: f64,
    /// Address translations per lookup (Fig. 4's metric).
    pub translations_per_lookup: f64,
    /// TLB miss rate over the batch.
    pub tlb_miss_rate: f64,
    /// Share of the batch attributed to the partition phase.
    pub partition_share: f64,
    /// Share of the batch attributed to the lookup phase.
    pub lookup_share: f64,
    /// Join matches per probe key.
    pub matches_per_key: f64,
}

impl KpiSample {
    /// Distill the tuner's KPI vector from a batch report.
    pub fn from_report(rep: &QueryReport) -> Self {
        let keys = rep.s_tuples.max(1) as u64;
        KpiSample {
            keys,
            seconds: rep.time.total_s,
            translations_per_lookup: rep.translations_per_lookup(),
            tlb_miss_rate: 1.0 - rep.counters.tlb_hit_rate(),
            partition_share: rep.phases.share(phase::PARTITION),
            lookup_share: rep.phases.share(phase::LOOKUP),
            matches_per_key: rep.result_tuples as f64 / keys as f64,
        }
    }
}

/// Why the tuner changed (or pinned) its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TuneReason {
    /// Cost-model argmin beat the incumbent by the improvement threshold
    /// after the dwell window.
    Argmin,
    /// Seeded ε-greedy exploration of a non-incumbent candidate (one
    /// batch, bounded by `explore_bound`).
    Explore,
    /// A degradation-ladder step pinned the tuner to its current plan.
    Pinned,
    /// The pin expired after enough healthy batches; tuning resumed.
    Unpinned,
}

/// One tuner decision, in decision order. Same seed and observation
/// sequence ⇒ byte-identical event stream.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TuneEvent {
    /// Batch ordinal (per tenant) at which the decision was taken.
    pub batch: u64,
    /// Why.
    pub reason: TuneReason,
    /// Incumbent plan label.
    pub from: String,
    /// Plan label after the decision (equals `from` for pin/unpin).
    pub to: String,
    /// Incumbent's estimated seconds/key at decision time.
    pub est_from_s_per_key: f64,
    /// Chosen plan's estimated seconds/key at decision time.
    pub est_to_s_per_key: f64,
}

/// Tuning discipline knobs. Defaults favour stability: switch only on a
/// 10 % modelled win after two quiet batches, explore 10 % of decisions
/// among candidates within 2× of the incumbent.
#[derive(Debug, Clone, Copy)]
pub struct TunerConfig {
    /// Seed of all exploration draws (counter-indexed splitmix64).
    pub seed: u64,
    /// Sliding-horizon length, in observed batches per candidate.
    pub horizon: usize,
    /// Minimum batches between argmin switches (hysteresis dwell).
    pub min_dwell_batches: u64,
    /// Relative improvement the argmin must show over the incumbent's
    /// estimate before a switch (e.g. `0.10` = 10 % better).
    pub improvement_threshold: f64,
    /// Probability of exploring a non-incumbent candidate at a decision.
    pub epsilon: f64,
    /// Exploration eligibility bound: only candidates with
    /// `est ≤ explore_bound × est[incumbent]` may be probed.
    pub explore_bound: f64,
    /// Healthy batches a degradation pin lasts.
    pub pin_batches: u64,
    /// Force the starting candidate (index into the candidate set) instead
    /// of the prior argmin — used by convergence tests to start wrong.
    pub initial_candidate: Option<usize>,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            seed: 7,
            horizon: 4,
            min_dwell_batches: 2,
            improvement_threshold: 0.10,
            epsilon: 0.10,
            explore_bound: 2.0,
            pin_batches: 4,
            initial_candidate: None,
        }
    }
}

/// Per-tenant online tuner: observes batch KPIs, maintains per-candidate
/// cost estimates, and decides the next plan at each batch boundary.
#[derive(Debug)]
pub struct OnlineTuner {
    cfg: TunerConfig,
    candidates: Vec<CandidatePlan>,
    /// Current per-key estimate per candidate: the prior until observed,
    /// then the mean of the sliding horizon.
    est_s_per_key: Vec<f64>,
    samples: Vec<VecDeque<f64>>,
    kpis: VecDeque<KpiSample>,
    current: usize,
    batches: u64,
    last_switch_batch: u64,
    pinned_until_batch: Option<u64>,
    exploring_from: Option<usize>,
    switches: u64,
    explorations: u64,
    pinned_batches: u64,
    draw_seq: u64,
    est_err_sum: f64,
    est_err_n: u64,
    events: Vec<TuneEvent>,
}

impl OnlineTuner {
    /// Build a tuner over `candidates` with per-key `priors` (one per
    /// candidate, e.g. from [`candidate_prior_s_per_key`]). The starting
    /// plan is the prior argmin unless `cfg.initial_candidate` overrides it.
    ///
    /// # Panics
    /// If `candidates` is empty or `priors.len() != candidates.len()`.
    pub fn new(cfg: TunerConfig, candidates: Vec<CandidatePlan>, priors: Vec<f64>) -> Self {
        assert!(!candidates.is_empty(), "tuner needs at least one candidate");
        assert_eq!(
            candidates.len(),
            priors.len(),
            "one prior per candidate required"
        );
        let current = cfg
            .initial_candidate
            .unwrap_or_else(|| Self::argmin(&priors))
            .min(candidates.len() - 1);
        let n = candidates.len();
        OnlineTuner {
            cfg,
            candidates,
            est_s_per_key: priors,
            samples: vec![VecDeque::new(); n],
            kpis: VecDeque::new(),
            current,
            batches: 0,
            last_switch_batch: 0,
            pinned_until_batch: None,
            exploring_from: None,
            switches: 0,
            explorations: 0,
            pinned_batches: 0,
            draw_seq: 0,
            est_err_sum: 0.0,
            est_err_n: 0,
            events: Vec::new(),
        }
    }

    fn argmin(est: &[f64]) -> usize {
        let mut best = 0;
        for (i, &e) in est.iter().enumerate() {
            if e < est[best] {
                best = i;
            }
        }
        best
    }

    /// The plan the next batch should run.
    pub fn current(&self) -> CandidatePlan {
        self.candidates[self.current]
    }

    /// Label of the current plan.
    pub fn current_label(&self) -> String {
        self.candidates[self.current].label()
    }

    /// The candidate set, in fixed order.
    pub fn candidates(&self) -> &[CandidatePlan] {
        &self.candidates
    }

    /// Current per-key estimates, candidate-ordered.
    pub fn estimates(&self) -> &[f64] {
        &self.est_s_per_key
    }

    /// Argmin switches taken so far (explorations not counted).
    pub fn switch_count(&self) -> u64 {
        self.switches
    }

    /// Exploration batches taken so far.
    pub fn exploration_count(&self) -> u64 {
        self.explorations
    }

    /// Batches decided while a degradation pin was active.
    pub fn pinned_batch_count(&self) -> u64 {
        self.pinned_batches
    }

    /// Whether a degradation pin is currently active.
    pub fn is_pinned(&self) -> bool {
        self.pinned_until_batch.is_some()
    }

    /// Mean relative |estimated − realized| per-key cost error over all
    /// observed batches — the model-quality gauge the metrics expose.
    pub fn mean_cost_error(&self) -> f64 {
        if self.est_err_n == 0 {
            0.0
        } else {
            self.est_err_sum / self.est_err_n as f64
        }
    }

    /// Decision events so far, in decision order.
    pub fn events(&self) -> &[TuneEvent] {
        &self.events
    }

    /// Feed the KPI sample of a batch executed under the current plan.
    pub fn observe(&mut self, sample: KpiSample) {
        let realized = sample.seconds / sample.keys.max(1) as f64;
        if realized.is_finite() && realized > 0.0 {
            let predicted = self.est_s_per_key[self.current];
            self.est_err_sum += (predicted - realized).abs() / realized;
            self.est_err_n += 1;
            let horizon = self.samples[self.current].len();
            if horizon >= self.cfg.horizon.max(1) {
                self.samples[self.current].pop_front();
            }
            self.samples[self.current].push_back(realized);
            let s = &self.samples[self.current];
            self.est_s_per_key[self.current] = s.iter().sum::<f64>() / s.len() as f64;
        }
        if self.kpis.len() >= self.cfg.horizon.max(1) {
            self.kpis.pop_front();
        }
        self.kpis.push_back(sample);
    }

    /// Pin the tuner to its current plan: a degradation-ladder step is
    /// active, so measurements describe the degraded regime. The pin lasts
    /// [`TunerConfig::pin_batches`] decisions and is refreshed by repeated
    /// calls (each degraded batch re-pins).
    pub fn pin(&mut self) {
        let was_pinned = self.pinned_until_batch.is_some();
        self.pinned_until_batch = Some(self.batches + self.cfg.pin_batches);
        if !was_pinned {
            let label = self.current_label();
            let est = self.est_s_per_key[self.current];
            self.events.push(TuneEvent {
                batch: self.batches,
                reason: TuneReason::Pinned,
                from: label.clone(),
                to: label,
                est_from_s_per_key: est,
                est_to_s_per_key: est,
            });
        }
    }

    fn switch_to(&mut self, to: usize, reason: TuneReason) {
        self.events.push(TuneEvent {
            batch: self.batches,
            reason,
            from: self.candidates[self.current].label(),
            to: self.candidates[to].label(),
            est_from_s_per_key: self.est_s_per_key[self.current],
            est_to_s_per_key: self.est_s_per_key[to],
        });
        self.current = to;
        self.last_switch_batch = self.batches;
    }

    /// Decide the plan for the next batch. Call once per batch boundary,
    /// after [`observe`](Self::observe).
    pub fn decide(&mut self) -> CandidatePlan {
        self.batches += 1;

        if let Some(until) = self.pinned_until_batch {
            if self.batches < until {
                self.pinned_batches += 1;
                return self.current();
            }
            self.pinned_until_batch = None;
            let label = self.current_label();
            let est = self.est_s_per_key[self.current];
            self.events.push(TuneEvent {
                batch: self.batches,
                reason: TuneReason::Unpinned,
                from: label.clone(),
                to: label,
                est_from_s_per_key: est,
                est_to_s_per_key: est,
            });
        }

        // An exploration lasts exactly one batch: return to the argmin over
        // all candidates (no dwell, no threshold — the probe is done).
        if let Some(_from) = self.exploring_from.take() {
            let best = Self::argmin(&self.est_s_per_key);
            if best != self.current {
                self.switch_to(best, TuneReason::Argmin);
            }
            return self.current();
        }

        // Hysteresis: no switch of any kind within the dwell window.
        if self.batches - self.last_switch_batch < self.cfg.min_dwell_batches {
            return self.current();
        }

        // Bounded ε-greedy exploration (counter-indexed draws).
        self.draw_seq += 1;
        if self.candidates.len() > 1
            && unit(self.cfg.seed, SALT_EXPLORE, self.draw_seq) < self.cfg.epsilon
        {
            let bound = self.cfg.explore_bound * self.est_s_per_key[self.current];
            let eligible: Vec<usize> = (0..self.candidates.len())
                .filter(|&i| i != self.current && self.est_s_per_key[i] <= bound)
                .collect();
            if !eligible.is_empty() {
                self.draw_seq += 1;
                let pick = eligible[(splitmix64(
                    self.cfg.seed ^ SALT_PICK.wrapping_mul(31) ^ self.draw_seq,
                ) % eligible.len() as u64) as usize];
                self.exploring_from = Some(self.current);
                self.explorations += 1;
                self.switch_to(pick, TuneReason::Explore);
                return self.current();
            }
        }

        // Cost-model argmin with improvement threshold.
        let best = Self::argmin(&self.est_s_per_key);
        if best != self.current
            && self.est_s_per_key[best]
                < self.est_s_per_key[self.current] * (1.0 - self.cfg.improvement_threshold)
        {
            self.switches += 1;
            self.switch_to(best, TuneReason::Argmin);
        }
        self.current()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windex_sim::{GpuSpec, Scale};

    fn model() -> CostModel {
        CostModel::new(&GpuSpec::v100_nvlink2(Scale::PAPER))
    }

    fn sample(keys: u64, seconds: f64) -> KpiSample {
        KpiSample {
            keys,
            seconds,
            translations_per_lookup: 0.0,
            tlb_miss_rate: 0.0,
            partition_share: 0.0,
            lookup_share: 1.0,
            matches_per_key: 1.0,
        }
    }

    fn two_candidate_tuner(cfg: TunerConfig, priors: Vec<f64>) -> OnlineTuner {
        let candidates = vec![
            CandidatePlan {
                strategy: JoinStrategy::HashJoin,
                max_partition_bits: 11,
            },
            CandidatePlan {
                strategy: JoinStrategy::WindowedInlj {
                    index: IndexKind::RadixSpline,
                    window_tuples: 4096,
                },
                max_partition_bits: 11,
            },
        ];
        OnlineTuner::new(cfg, candidates, priors)
    }

    #[test]
    fn priors_rank_hash_first_in_core_and_windowed_out_of_core() {
        let m = model();
        let hash = CandidatePlan {
            strategy: JoinStrategy::HashJoin,
            max_partition_bits: 11,
        };
        let windowed = CandidatePlan {
            strategy: JoinStrategy::WindowedInlj {
                index: IndexKind::RadixSpline,
                window_tuples: 4096,
            },
            max_partition_bits: 11,
        };
        let batch = 1 << 15;
        // 1 paper GiB = 2^17 sim tuples: hash streams R cheaply.
        let small = 1u64 << 17;
        assert!(
            candidate_prior_s_per_key(&m, &hash, small, batch)
                < candidate_prior_s_per_key(&m, &windowed, small, batch)
        );
        // 64 paper GiB = 2^23 sim tuples: streaming R per batch is ruinous.
        let big = 1u64 << 23;
        assert!(
            candidate_prior_s_per_key(&m, &windowed, big, batch)
                < candidate_prior_s_per_key(&m, &hash, big, batch) / 4.0
        );
    }

    #[test]
    fn starts_at_prior_argmin_and_honors_override() {
        let t = two_candidate_tuner(TunerConfig::default(), vec![2.0, 1.0]);
        assert_eq!(t.current().label(), t.candidates()[1].label());
        let cfg = TunerConfig {
            initial_candidate: Some(0),
            ..TunerConfig::default()
        };
        let t = two_candidate_tuner(cfg, vec![2.0, 1.0]);
        assert_eq!(t.current().label(), t.candidates()[0].label());
    }

    #[test]
    fn converges_away_from_a_bad_start() {
        let cfg = TunerConfig {
            epsilon: 0.0,
            initial_candidate: Some(0),
            ..TunerConfig::default()
        };
        // Candidate 0 measures 10× worse than candidate 1's prior.
        let mut t = two_candidate_tuner(cfg, vec![1e-6, 1e-6]);
        for _ in 0..6 {
            t.observe(sample(1000, 0.01)); // 10 µs/key realized
            t.decide();
        }
        assert_eq!(t.current().label(), t.candidates()[1].label());
        assert_eq!(t.switch_count(), 1);
    }

    #[test]
    fn hysteresis_blocks_switches_within_dwell() {
        let cfg = TunerConfig {
            epsilon: 0.0,
            min_dwell_batches: 3,
            initial_candidate: Some(0),
            ..TunerConfig::default()
        };
        let mut t = two_candidate_tuner(cfg, vec![1.0, 0.1]);
        // Decisions 1 and 2 are inside the dwell window; 3 may switch.
        t.observe(sample(1, 1.0));
        t.decide();
        assert_eq!(t.current().label(), t.candidates()[0].label());
        t.observe(sample(1, 1.0));
        t.decide();
        assert_eq!(t.current().label(), t.candidates()[0].label());
        t.observe(sample(1, 1.0));
        t.decide();
        assert_eq!(t.current().label(), t.candidates()[1].label());
        // Argmin switch events respect the dwell spacing.
        let switches: Vec<u64> = t
            .events()
            .iter()
            .filter(|e| e.reason == TuneReason::Argmin)
            .map(|e| e.batch)
            .collect();
        assert_eq!(switches, vec![3]);
    }

    #[test]
    fn small_improvements_do_not_switch() {
        let cfg = TunerConfig {
            epsilon: 0.0,
            improvement_threshold: 0.10,
            initial_candidate: Some(0),
            ..TunerConfig::default()
        };
        // Candidate 1 is only 5 % better than the incumbent: below the
        // threshold, so the tuner must hold.
        let mut t = two_candidate_tuner(cfg, vec![1.0, 0.95]);
        for _ in 0..8 {
            t.observe(sample(1, 1.0));
            t.decide();
        }
        assert_eq!(t.current().label(), t.candidates()[0].label());
        assert_eq!(t.switch_count(), 0);
    }

    #[test]
    fn exploration_is_seed_deterministic_and_bounded() {
        let run = |seed: u64| {
            let cfg = TunerConfig {
                seed,
                epsilon: 0.5,
                ..TunerConfig::default()
            };
            // Candidate 0 is within the 2× bound of 1; a third wildly bad
            // candidate must never be explored.
            let candidates = vec![
                CandidatePlan {
                    strategy: JoinStrategy::HashJoin,
                    max_partition_bits: 11,
                },
                CandidatePlan {
                    strategy: JoinStrategy::WindowedInlj {
                        index: IndexKind::RadixSpline,
                        window_tuples: 4096,
                    },
                    max_partition_bits: 11,
                },
                CandidatePlan {
                    strategy: JoinStrategy::WindowedInlj {
                        index: IndexKind::BinarySearch,
                        window_tuples: 1024,
                    },
                    max_partition_bits: 11,
                },
            ];
            let mut t = OnlineTuner::new(cfg, candidates, vec![1.5, 1.0, 100.0]);
            let mut labels = Vec::new();
            for _ in 0..20 {
                t.observe(sample(1, 1.0));
                labels.push(t.decide().label());
            }
            (labels, t.exploration_count(), t.events().to_vec())
        };
        let (a_labels, a_explores, a_events) = run(42);
        let (b_labels, b_explores, b_events) = run(42);
        assert_eq!(a_labels, b_labels, "same seed ⇒ same decisions");
        assert_eq!(a_events, b_events, "same seed ⇒ same event stream");
        assert!(a_explores > 0, "ε=0.5 over 20 decisions must explore");
        assert_eq!(a_explores, b_explores);
        assert!(
            !a_labels.iter().any(|l| l.contains("binary-search")),
            "candidates outside the explore bound must never run: {a_labels:?}"
        );
        let (c_labels, ..) = run(43);
        assert_ne!(a_labels, c_labels, "different seeds must diverge");
    }

    #[test]
    fn pin_holds_plan_until_healthy_batches_pass() {
        let cfg = TunerConfig {
            epsilon: 0.0,
            pin_batches: 3,
            min_dwell_batches: 1,
            initial_candidate: Some(0),
            ..TunerConfig::default()
        };
        let mut t = two_candidate_tuner(cfg, vec![1.0, 0.001]);
        t.observe(sample(1, 1.0));
        t.pin();
        assert!(t.is_pinned());
        // Despite candidate 1 being 1000× better, the pin holds.
        for _ in 0..2 {
            t.decide();
            assert_eq!(t.current().label(), t.candidates()[0].label());
        }
        t.decide(); // pin expires here
        assert!(!t.is_pinned());
        t.observe(sample(1, 1.0));
        t.decide();
        assert_eq!(t.current().label(), t.candidates()[1].label());
        assert!(t.events().iter().any(|e| e.reason == TuneReason::Pinned));
        assert!(t.events().iter().any(|e| e.reason == TuneReason::Unpinned));
        assert!(t.pinned_batch_count() >= 2);
    }

    #[test]
    fn cost_error_tracks_estimate_quality() {
        let cfg = TunerConfig {
            epsilon: 0.0,
            ..TunerConfig::default()
        };
        // Prior says 1 µs/key, reality says 2 µs/key: first-batch relative
        // error is 0.5; after the estimate converges, later errors shrink.
        let mut t = two_candidate_tuner(cfg, vec![1e-6, 1e6]);
        t.observe(sample(1000, 2e-3));
        let first = t.mean_cost_error();
        assert!((first - 0.5).abs() < 1e-9, "first error {first}");
        for _ in 0..5 {
            t.observe(sample(1000, 2e-3));
        }
        assert!(t.mean_cost_error() < first);
    }
}
