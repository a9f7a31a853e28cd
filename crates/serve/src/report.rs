//! Serving metrics: virtual-time latency distributions and the
//! [`ServerReport`] rendered through the workspace's JSON output path.

use crate::request::{LookupResponse, RequestOutcome, TenantId};
use crate::resilience::{SloConfig, SloReport, SloTracker};
use crate::span::{RequestTrace, StageLatencyStats, TailReport};
use serde::Serialize;
use windex_core::WindowStats;
use windex_index::IndexKind;
use windex_sim::{Counters, PhaseBreakdown};

/// Latency distribution over completed requests, in virtual seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct LatencyStats {
    /// Requests the distribution covers (completed + deadline-missed).
    pub samples: usize,
    /// Mean latency.
    pub mean_s: f64,
    /// Median (nearest-rank).
    pub p50_s: f64,
    /// 95th percentile (nearest-rank).
    pub p95_s: f64,
    /// 99th percentile (nearest-rank).
    pub p99_s: f64,
    /// Slowest request.
    pub max_s: f64,
    /// Non-finite samples (NaN/∞) excluded from the distribution. Always
    /// 0 on healthy runs; non-zero flags a virtual-clock defect upstream
    /// instead of panicking the report.
    pub dropped: usize,
}

/// Fixed latency-histogram bucket upper bounds, in virtual seconds.
/// Log-spaced from 1 µs to 10 s; an implicit +∞ bucket catches the rest.
/// Fixed (rather than data-derived) bounds keep the OpenMetrics exposition
/// comparable across runs and byte-deterministic per seed.
pub const LATENCY_BUCKET_BOUNDS_S: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// Fixed-bucket latency histogram over served requests, the shape the
/// OpenMetrics exposition needs (`le`-bucketed cumulative counts derive
/// from it). Counts here are *per-bucket*, not cumulative.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LatencyHistogram {
    /// Bucket upper bounds ([`LATENCY_BUCKET_BOUNDS_S`]), ascending.
    pub bounds_s: Vec<f64>,
    /// Per-bucket sample counts; one longer than `bounds_s` (the trailing
    /// entry is the +∞ overflow bucket).
    pub counts: Vec<u64>,
    /// Total finite samples observed.
    pub count: u64,
    /// Sum of finite samples, in virtual seconds.
    pub sum_s: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            bounds_s: LATENCY_BUCKET_BOUNDS_S.to_vec(),
            counts: vec![0; LATENCY_BUCKET_BOUNDS_S.len() + 1],
            count: 0,
            sum_s: 0.0,
        }
    }
}

impl LatencyHistogram {
    /// Bucket the samples against the fixed bounds. Non-finite samples are
    /// ignored (they are already accounted in [`LatencyStats::dropped`]).
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut h = LatencyHistogram::default();
        for &s in samples.iter().filter(|s| s.is_finite()) {
            let idx = h
                .bounds_s
                .iter()
                .position(|&b| s <= b)
                .unwrap_or(h.bounds_s.len());
            h.counts[idx] += 1;
            h.count += 1;
            h.sum_s += s;
        }
        h
    }

    /// Cumulative counts per bound (OpenMetrics `le` semantics); one entry
    /// per bound plus the trailing `+Inf` total.
    pub fn cumulative(&self) -> Vec<u64> {
        self.counts
            .iter()
            .scan(0u64, |acc, &c| {
                *acc += c;
                Some(*acc)
            })
            .collect()
    }
}

/// Per-tenant request accounting over one served trace, in ascending
/// tenant-id order (deterministic exposition order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct TenantLoad {
    /// The tenant.
    pub tenant: TenantId,
    /// Requests this tenant submitted (admitted or shed).
    pub requests: usize,
    /// Requests served within deadline (or with none set).
    pub completed: usize,
    /// Requests shed at admission or via abandoned batches.
    pub shed: usize,
    /// Requests served past their deadline.
    pub deadline_missed: usize,
    /// Probe keys across all of this tenant's requests.
    pub keys: usize,
    /// Join matches returned to this tenant.
    pub matches: usize,
}

impl LatencyStats {
    /// Compute the distribution from raw samples (order-insensitive).
    /// Non-finite samples are dropped and counted in `dropped` rather than
    /// poisoning the sort or the percentiles.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        let n_raw = samples.len();
        samples.retain(|s| s.is_finite());
        let dropped = n_raw - samples.len();
        if samples.is_empty() {
            return LatencyStats {
                dropped,
                ..LatencyStats::default()
            };
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let rank = |q: f64| samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        LatencyStats {
            samples: n,
            mean_s: samples.iter().sum::<f64>() / n as f64,
            p50_s: rank(0.50),
            p95_s: rank(0.95),
            p99_s: rank(0.99),
            max_s: samples[n - 1],
            dropped,
        }
    }
}

/// `n` per unit of `over` (e.g. per virtual second of a makespan), or 0
/// when `over` is not positive.
pub(crate) fn rate(n: usize, over: f64) -> f64 {
    if over > 0.0 {
        n as f64 / over
    } else {
        0.0
    }
}

/// The latency distribution and histogram over the same served-latency
/// `samples`. The histogram sums the samples in the given order, so
/// callers pass them in a fixed order (request id or dispatch order).
pub(crate) fn latency_summary(samples: Vec<f64>) -> (LatencyStats, LatencyHistogram) {
    let hist = LatencyHistogram::from_samples(&samples);
    (LatencyStats::from_samples(samples), hist)
}

/// Outcome accounting of one served trace, the one place every host
/// counts its outcome buckets and builds its latency distribution.
#[derive(Debug, Clone)]
pub(crate) struct RunTally {
    /// Requests served within deadline (or with none set).
    pub completed: usize,
    /// Requests shed.
    pub shed: usize,
    /// Requests served past their deadline.
    pub deadline_missed: usize,
    /// Join matches returned.
    pub result_tuples: usize,
    /// Latency distribution over served requests.
    pub latency: LatencyStats,
    /// Fixed-bucket histogram over the same samples.
    pub latency_hist: LatencyHistogram,
    /// `completed` per virtual second of the makespan.
    pub completed_rps: f64,
}

impl RunTally {
    /// Tally from outcome counts and served-latency `samples` (see
    /// [`latency_summary`] on their order).
    pub fn new(
        (completed, shed, deadline_missed): (usize, usize, usize),
        result_tuples: usize,
        samples: Vec<f64>,
        makespan_s: f64,
    ) -> Self {
        let (latency, latency_hist) = latency_summary(samples);
        RunTally {
            completed,
            shed,
            deadline_missed,
            result_tuples,
            latency,
            latency_hist,
            completed_rps: rate(completed, makespan_s),
        }
    }

    /// Tally id-sorted `responses` over a run of `makespan_s` virtual
    /// seconds, and close an SLO tracker with budget `slo` over them.
    pub fn of_responses(
        responses: &[LookupResponse],
        makespan_s: f64,
        slo: &SloConfig,
    ) -> (Self, SloReport) {
        let mut counts = (0, 0, 0);
        let mut result_tuples = 0;
        let mut samples = Vec::with_capacity(responses.len());
        let mut tracker = SloTracker::new(slo);
        for r in responses {
            result_tuples += r.matches.len();
            match r.outcome {
                RequestOutcome::Completed => counts.0 += 1,
                RequestOutcome::Shed => counts.1 += 1,
                RequestOutcome::DeadlineMissed => counts.2 += 1,
            }
            let answered = r.outcome != RequestOutcome::Shed;
            if answered {
                samples.push(r.latency_s);
            }
            tracker.observe(answered, r.latency_s);
        }
        (
            RunTally::new(counts, result_tuples, samples, makespan_s),
            tracker.finish(makespan_s),
        )
    }
}

/// One entry in the server's per-dispatch timeline: a batch pushed through
/// the shared operator, with the counter events and virtual time it cost —
/// summed across degradation attempts (a batch retried after a window
/// shrink is still one dispatch).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct BatchSpan {
    /// Zero-based dispatch ordinal within the run.
    pub batch: usize,
    /// Virtual clock at dispatch start, in seconds — places the span on
    /// the served timeline (trace exporters consume this).
    pub at_s: f64,
    /// Probe keys the batch carried.
    pub keys: usize,
    /// Windows the successful attempt closed (0 for an abandoned batch).
    pub windows: usize,
    /// Whether the batch completed (false: shed after degradation).
    pub completed: bool,
    /// Counter events across all attempts of this dispatch.
    pub counters: Counters,
    /// Virtual time charged for this dispatch, in seconds.
    pub est_s: f64,
}

/// One notable event during a served trace, in occurrence order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ServeEvent {
    /// The shared window was halved to fit the device-memory headroom
    /// (the serving analogue of the query engine's degradation ladder).
    WindowShrunk {
        /// Window capacity (keys) before the shrink.
        from: usize,
        /// Window capacity after the shrink.
        to: usize,
    },
    /// The result sink was placed in (or moved to) CPU memory because the
    /// device budget could not hold it.
    SinkSpilledToCpu,
    /// A request was refused at admission: accepting it would have pushed
    /// the queued-key backlog past the backpressure bound.
    LoadShed {
        /// The refused tenant.
        tenant: TenantId,
        /// Server-assigned id of the refused request.
        request: u64,
        /// Keys the request carried.
        keys: usize,
    },
    /// A dispatched batch could not complete even after degradation (e.g.
    /// a fault outlasting its retries); its requests were shed.
    BatchAbandoned {
        /// Keys in the abandoned batch.
        keys: usize,
        /// Requests shed with it.
        requests: usize,
    },
    /// An open (or probing) circuit breaker fast-rejected a request at
    /// admission.
    CircuitShed {
        /// The rejected tenant.
        tenant: TenantId,
        /// Server-assigned id of the rejected request.
        request: u64,
    },
    /// A tenant's breaker tripped open after consecutive hard failures (or
    /// a failed half-open probe).
    CircuitOpened {
        /// The tenant whose breaker opened.
        tenant: TenantId,
        /// Virtual instant until which the breaker fast-rejects.
        until_s: f64,
    },
    /// A half-open probe succeeded and closed the tenant's breaker.
    CircuitClosed {
        /// The tenant whose breaker closed.
        tenant: TenantId,
    },
    /// A transient dispatch failure was redriven after deterministic
    /// jittered backoff on the virtual clock.
    DispatchRetried {
        /// 1-based retry ordinal within the dispatch.
        attempt: u32,
        /// Backoff charged to the virtual clock, in seconds.
        backoff_s: f64,
    },
    /// A batch exhausted its retry attempts (or the retry budget) on a
    /// transient fault and was shed.
    RetriesExhausted {
        /// Keys in the shed batch.
        keys: usize,
    },
    /// The device was lost and recovered: index, operator, and sink were
    /// rebuilt on the virtual clock after the outage cleared.
    DeviceLossRecovered {
        /// Mean-time-to-recovery in virtual seconds: outage wait plus the
        /// cost-model estimate of the rebuild.
        mttr_s: f64,
    },
}

/// Everything measured about one served trace. Serialized through the same
/// JSON path as [`QueryReport`](windex_core::QueryReport); same seed ⇒
/// byte-identical serialization.
#[derive(Debug, Clone, Serialize)]
pub struct ServerReport {
    /// Dispatch-policy label, e.g. `"shared(max_delay=200us)"`.
    pub policy: String,
    /// Index kind probed by the shared operator.
    pub index: IndexKind,
    /// Distinct tenants that submitted requests.
    pub tenants: usize,
    /// Requests admitted to the server (the whole trace).
    pub requests: usize,
    /// Requests fully served within their deadline (or with none set).
    pub completed: usize,
    /// Requests shed by admission control or abandoned dispatches.
    pub shed: usize,
    /// Requests served but past their deadline.
    pub deadline_missed: usize,
    /// Total matches returned across all responses.
    pub result_tuples: usize,
    /// Probe keys actually dispatched through shared windows.
    pub keys_probed: usize,
    /// Windows dispatched and total matches (windows ≡ dispatches: the
    /// server closes exactly one window per dispatch).
    pub window: WindowStats,
    /// Mean keys per dispatched window — the batching win in one number
    /// (per-request execution leaves windows nearly empty).
    pub mean_batch_keys: f64,
    /// Window capacity as configured.
    pub configured_window_tuples: usize,
    /// Window capacity after any degradation, at trace end.
    pub effective_window_tuples: usize,
    /// Virtual time from first arrival to last response.
    pub virtual_makespan_s: f64,
    /// Completed requests per virtual second.
    pub completed_rps: f64,
    /// Probed keys per virtual second.
    pub keys_per_second: f64,
    /// Latency distribution over served (non-shed) requests.
    pub latency: LatencyStats,
    /// Fixed-bucket latency histogram over the same samples (feeds the
    /// OpenMetrics exposition).
    pub latency_hist: LatencyHistogram,
    /// Per-tenant accounting, ascending tenant id.
    pub per_tenant: Vec<TenantLoad>,
    /// Largest queued-key backlog observed at any admission.
    pub max_queue_depth_keys: usize,
    /// Degradation / shed events, in order.
    pub events: Vec<ServeEvent>,
    /// Counter delta over the whole served trace.
    pub counters: Counters,
    /// Operator retries during the trace (priced into virtual time).
    pub retries: u64,
    /// Per-phase decomposition of the trace's counter delta (partition /
    /// lookup / other). The span-sum invariant holds:
    /// `phases.counter_sum()` equals `counters`.
    pub phases: PhaseBreakdown,
    /// Per-dispatch timeline: one entry per batch pushed through the
    /// shared operator, in dispatch order.
    pub batches: Vec<BatchSpan>,
    /// SLO attainment over the trace: availability, goodput, and tail
    /// latency against the configured budget.
    pub slo: crate::resilience::SloReport,
    /// Circuit-breaker summary: trips, fast-rejects, and per-tenant
    /// end-of-trace state.
    pub breaker: crate::resilience::BreakerReport,
    /// Retry-budget summary: retries granted/denied this trace and tokens
    /// remaining.
    pub retry: crate::resilience::RetryReport,
    /// Per-stage latency decomposition (queue / batch / service / merge /
    /// other) over every request in the trace.
    pub stages: StageLatencyStats,
    /// One span tree per request, ascending request id. Every trace
    /// satisfies [`RequestTrace::validate`]: stage spans partition the
    /// admission→completion interval and sum exactly to the latency.
    pub traces: Vec<RequestTrace>,
    /// Deterministic tail sample: the top-K slowest requests plus a seeded
    /// uniform sample, as EXPLAIN-ANALYZE-style query cards.
    pub tail: TailReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Percentiles of any finite sample set are monotone
        /// (p50 <= p95 <= p99 <= max), the mean lies inside the sample
        /// range, and nothing is dropped.
        #[test]
        fn percentiles_are_monotone(samples in pvec(0.0f64..10.0, 1..64)) {
            let l = LatencyStats::from_samples(samples.clone());
            prop_assert_eq!(l.samples, samples.len());
            prop_assert_eq!(l.dropped, 0);
            prop_assert!(l.p50_s <= l.p95_s);
            prop_assert!(l.p95_s <= l.p99_s);
            prop_assert!(l.p99_s <= l.max_s);
            let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert!(l.mean_s >= min - 1e-12 && l.mean_s <= l.max_s + 1e-12);
            prop_assert_eq!(
                l.max_s,
                samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            );
        }

        /// The distribution is order-insensitive: reversing the samples
        /// yields identical stats.
        #[test]
        fn order_insensitive(samples in pvec(0.0f64..10.0, 0..64)) {
            let forward = LatencyStats::from_samples(samples.clone());
            let mut rev = samples;
            rev.reverse();
            prop_assert_eq!(forward, LatencyStats::from_samples(rev));
        }

        /// A constant sample set collapses every percentile onto the
        /// constant — singletons and duplicate runs alike.
        #[test]
        fn duplicates_collapse(value in 0.0f64..10.0, n in 1usize..32) {
            let l = LatencyStats::from_samples(vec![value; n]);
            prop_assert_eq!(l.samples, n);
            prop_assert_eq!(l.p50_s, value);
            prop_assert_eq!(l.p95_s, value);
            prop_assert_eq!(l.p99_s, value);
            prop_assert_eq!(l.max_s, value);
            // The mean accumulates n rounded additions, so allow an ulp-
            // scale slack; the percentiles above are exact picks.
            prop_assert!((l.mean_s - value).abs() <= 1e-12 * value.max(1.0));
        }

        /// Non-finite samples never poison the percentiles: they land in
        /// `dropped` and the stats equal those of the finite subset.
        #[test]
        fn non_finite_samples_only_move_dropped(
            finite in pvec(0.0f64..10.0, 0..32),
            nans in 0usize..4,
            infs in 0usize..4,
        ) {
            let mut mixed = finite.clone();
            mixed.extend(std::iter::repeat_n(f64::NAN, nans));
            mixed.extend(std::iter::repeat_n(f64::INFINITY, infs));
            let clean = LatencyStats::from_samples(finite);
            let dirty = LatencyStats::from_samples(mixed);
            prop_assert_eq!(dirty.dropped, nans + infs);
            prop_assert_eq!(
                dirty,
                LatencyStats { dropped: nans + infs, ..clean }
            );
        }
    }

    #[test]
    fn latency_percentiles_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let l = LatencyStats::from_samples(samples);
        assert_eq!(l.samples, 100);
        assert_eq!(l.p50_s, 50.0);
        assert_eq!(l.p95_s, 95.0);
        assert_eq!(l.p99_s, 99.0);
        assert_eq!(l.max_s, 100.0);
        assert!((l.mean_s - 50.5).abs() < 1e-12);
    }

    #[test]
    fn empty_distribution_is_zeroed() {
        let l = LatencyStats::from_samples(vec![]);
        assert_eq!(l, LatencyStats::default());
    }

    #[test]
    fn non_finite_samples_are_dropped_not_panicked() {
        // Regression: a single NaN latency used to panic the whole report
        // via `partial_cmp(..).expect(..)` after the serve run completed.
        let l = LatencyStats::from_samples(vec![2.0, f64::NAN, 1.0, f64::INFINITY, 3.0]);
        assert_eq!(l.samples, 3);
        assert_eq!(l.dropped, 2);
        assert_eq!(l.p50_s, 2.0);
        assert_eq!(l.max_s, 3.0);
        assert!((l.mean_s - 2.0).abs() < 1e-12);
        // All-NaN input degrades to an empty (flagged) distribution.
        let l = LatencyStats::from_samples(vec![f64::NAN, f64::NAN]);
        assert_eq!(l.samples, 0);
        assert_eq!(l.dropped, 2);
        assert_eq!(l.mean_s, 0.0);
    }

    #[test]
    fn single_sample() {
        let l = LatencyStats::from_samples(vec![0.25]);
        assert_eq!(l.p50_s, 0.25);
        assert_eq!(l.p99_s, 0.25);
        assert_eq!(l.max_s, 0.25);
    }

    #[test]
    fn histogram_buckets_and_cumulative_counts() {
        let h = LatencyHistogram::from_samples(&[5e-7, 5e-6, 5e-6, 2e-3, 100.0, f64::NAN]);
        assert_eq!(h.count, 5, "NaN ignored");
        assert_eq!(h.counts[0], 1); // ≤ 1 µs
        assert_eq!(h.counts[1], 2); // ≤ 10 µs
        assert_eq!(h.counts[3], 0); // ≤ 1 ms is empty
        assert_eq!(h.counts[4], 1); // ≤ 10 ms holds the 2 ms sample
        assert_eq!(*h.counts.last().unwrap(), 1); // +Inf overflow
        let cum = h.cumulative();
        assert_eq!(*cum.last().unwrap(), h.count);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]), "monotone: {cum:?}");
    }

    #[test]
    fn histogram_boundary_is_inclusive() {
        // OpenMetrics `le` semantics: a sample equal to a bound lands in
        // that bucket, not the next.
        let h = LatencyHistogram::from_samples(&[1e-3]);
        assert_eq!(h.counts[3], 1);
        assert_eq!(h.counts[4], 0);
    }

    #[test]
    fn events_serialize_with_fields() {
        let e = ServeEvent::WindowShrunk { from: 64, to: 32 };
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("WindowShrunk"), "{json}");
        assert!(json.contains("\"from\":64"), "{json}");
    }
}
