//! Seeded multi-tenant request traces.
//!
//! The serving experiments need *open-loop* arrival processes (requests
//! arrive on their own schedule, queueing when the server falls behind, as
//! in any latency–throughput study) that are perfectly reproducible. A
//! [`TraceConfig`] derives every arrival instant, tenant assignment, and
//! probe key from counter-indexed draws of a splitmix64 stream — the same
//! construction the simulator's [`FaultPlan`](windex_sim::FaultPlan) uses —
//! so one seed always produces byte-identical traces.

use crate::request::{LookupRequest, TenantId};
use windex_core::WindexError;
use windex_sim::fault::{splitmix64, unit};
use windex_workload::Relation;

/// One scheduled arrival of a served trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRequest {
    /// Virtual arrival instant in seconds from trace start.
    pub at_s: f64,
    /// The request itself.
    pub request: LookupRequest,
}

/// Parameters of a seeded trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Seed of all deterministic draws.
    pub seed: u64,
    /// Number of tenants issuing requests (assigned per-request from the
    /// seeded stream, so all tenants stay active throughout).
    pub tenants: u32,
    /// Total requests in the trace.
    pub requests: usize,
    /// Minimum probe keys per request (inclusive).
    pub min_keys: usize,
    /// Maximum probe keys per request (inclusive).
    pub max_keys: usize,
    /// Offered load in requests per virtual second: arrivals follow a
    /// Poisson process of this rate (deterministic inverse-CDF draws).
    pub offered_load_rps: f64,
    /// Optional per-request latency budget (virtual seconds).
    pub deadline_s: Option<f64>,
}

impl TraceConfig {
    /// Check the configuration for internal consistency. Returns a typed
    /// [`WindexError::InvalidConfig`] naming the first violation, so
    /// callers can surface it without a panic.
    pub fn validate(&self) -> Result<(), WindexError> {
        if self.tenants == 0 {
            return Err(WindexError::InvalidConfig(
                "trace needs at least one tenant",
            ));
        }
        if self.min_keys < 1 || self.min_keys > self.max_keys {
            return Err(WindexError::InvalidConfig(
                "key-count range must be non-empty (1 <= min_keys <= max_keys)",
            ));
        }
        if !self.offered_load_rps.is_finite() || self.offered_load_rps <= 0.0 {
            return Err(WindexError::InvalidConfig(
                "offered load must be finite and positive",
            ));
        }
        if let Some(d) = self.deadline_s {
            if !d.is_finite() || d <= 0.0 {
                return Err(WindexError::InvalidConfig(
                    "deadline must be finite and positive when set",
                ));
            }
        }
        Ok(())
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            seed: 7,
            tenants: 4,
            requests: 256,
            min_keys: 4,
            max_keys: 64,
            offered_load_rps: 2_000.0,
            deadline_s: None,
        }
    }
}

const SALT_ARRIVAL: u64 = 0x61727269;
const SALT_TENANT: u64 = 0x74656e61;
const SALT_NKEYS: u64 = 0x6e6b6579;
const SALT_KEY: u64 = 0x6b657921;

/// Generate the trace: `cfg.requests` arrivals sorted by time, with probe
/// keys sampled uniformly from the served relation `r` (foreign-key-valid
/// probes, as in the paper's workloads §3.2). Same config ⇒ identical trace.
pub fn generate_trace(cfg: &TraceConfig, r: &Relation) -> Vec<TimedRequest> {
    cfg.validate().expect("trace config must be valid");
    assert!(!r.keys().is_empty(), "served relation must not be empty");

    let mut out = Vec::with_capacity(cfg.requests);
    let mut clock = 0.0f64;
    let mut key_seq = 0u64;
    for i in 0..cfg.requests as u64 {
        // Exponential inter-arrival (Poisson process) via inverse CDF.
        clock += -unit(cfg.seed, SALT_ARRIVAL, i).ln() / cfg.offered_load_rps;
        let tenant = (splitmix64(cfg.seed ^ SALT_TENANT.wrapping_mul(31) ^ i) % cfg.tenants as u64)
            as TenantId;
        let span = (cfg.max_keys - cfg.min_keys + 1) as u64;
        let n_keys =
            cfg.min_keys + (splitmix64(cfg.seed ^ SALT_NKEYS.wrapping_mul(31) ^ i) % span) as usize;
        let mut keys = Vec::with_capacity(n_keys);
        for _ in 0..n_keys {
            let pick = splitmix64(cfg.seed ^ SALT_KEY.wrapping_mul(31) ^ key_seq) as usize
                % r.keys().len();
            keys.push(r.keys()[pick]);
            key_seq += 1;
        }
        out.push(TimedRequest {
            at_s: clock,
            request: LookupRequest {
                tenant,
                keys,
                deadline: cfg.deadline_s,
            },
        });
    }
    out
}

/// Generate a trace whose every request belongs to `tenant`, with probe
/// keys drawn from that tenant's own relation `r`. The per-tenant seed is
/// derived as `cfg.seed ^ splitmix64(tenant)`, so tenants draw independent
/// streams from one configured seed. Used by the tuner experiments, where
/// tenants serve differently-sized relations and a shared key pool would
/// be meaningless.
pub fn generate_tenant_trace(
    cfg: &TraceConfig,
    tenant: TenantId,
    r: &Relation,
) -> Vec<TimedRequest> {
    let per_tenant = TraceConfig {
        seed: cfg.seed ^ splitmix64(tenant as u64 + 1),
        tenants: 1,
        ..*cfg
    };
    let mut trace = generate_trace(&per_tenant, r);
    for t in &mut trace {
        t.request.tenant = tenant;
    }
    trace
}

/// Merge per-tenant traces into one arrival-ordered trace. Ordering is
/// total and deterministic: by arrival instant, then tenant id (arrival
/// instants are seeded f64 draws, so cross-tenant ties are practically
/// impossible — the tenant tiebreak just makes determinism unconditional).
pub fn merge_traces(traces: Vec<Vec<TimedRequest>>) -> Vec<TimedRequest> {
    let mut all: Vec<TimedRequest> = traces.into_iter().flatten().collect();
    all.sort_by(|a, b| {
        a.at_s
            .total_cmp(&b.at_s)
            .then(a.request.tenant.cmp(&b.request.tenant))
    });
    all
}

/// How many distinct tenants submit requests in `trace`.
pub(crate) fn distinct_tenants(trace: &[TimedRequest]) -> usize {
    let mut t: Vec<TenantId> = trace.iter().map(|t| t.request.tenant).collect();
    t.sort_unstable();
    t.dedup();
    t.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use windex_workload::KeyDistribution;

    fn relation() -> Relation {
        Relation::unique_sorted(4096, KeyDistribution::SparseUniform, 1)
    }

    #[test]
    fn validate_rejects_inconsistent_configs() {
        use windex_core::WindexError;
        let ok = TraceConfig::default();
        assert!(ok.validate().is_ok());
        let cases = [
            TraceConfig { tenants: 0, ..ok },
            TraceConfig {
                min_keys: 65,
                max_keys: 64,
                ..ok
            },
            TraceConfig { min_keys: 0, ..ok },
            TraceConfig {
                offered_load_rps: 0.0,
                ..ok
            },
            TraceConfig {
                offered_load_rps: -100.0,
                ..ok
            },
            TraceConfig {
                offered_load_rps: f64::NAN,
                ..ok
            },
            TraceConfig {
                offered_load_rps: f64::INFINITY,
                ..ok
            },
            TraceConfig {
                deadline_s: Some(0.0),
                ..ok
            },
            TraceConfig {
                deadline_s: Some(f64::NAN),
                ..ok
            },
        ];
        for bad in cases {
            match bad.validate() {
                Err(WindexError::InvalidConfig(msg)) => {
                    assert!(!msg.is_empty(), "message must name the violation")
                }
                other => panic!("expected InvalidConfig for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "trace config must be valid")]
    fn generate_trace_rejects_invalid_config() {
        let cfg = TraceConfig {
            min_keys: 8,
            max_keys: 4,
            ..TraceConfig::default()
        };
        generate_trace(&cfg, &relation());
    }

    #[test]
    fn traces_are_deterministic() {
        let cfg = TraceConfig::default();
        let r = relation();
        let a = generate_trace(&cfg, &r);
        let b = generate_trace(&cfg, &r);
        assert_eq!(a, b);
        let other = generate_trace(&TraceConfig { seed: 8, ..cfg }, &r);
        assert_ne!(a, other, "different seeds must differ");
    }

    #[test]
    fn arrivals_are_sorted_and_rate_shaped() {
        let cfg = TraceConfig {
            requests: 2000,
            offered_load_rps: 1000.0,
            ..TraceConfig::default()
        };
        let trace = generate_trace(&cfg, &relation());
        assert!(trace.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        let span = trace.last().unwrap().at_s;
        // 2000 arrivals at 1000 rps ≈ 2 s ± generous slack.
        assert!((1.5..2.5).contains(&span), "span {span}");
    }

    #[test]
    fn keys_come_from_the_relation_and_tenants_spread() {
        let cfg = TraceConfig {
            tenants: 3,
            ..TraceConfig::default()
        };
        let r = relation();
        let trace = generate_trace(&cfg, &r);
        let mut seen = [false; 3];
        for t in &trace {
            seen[t.request.tenant as usize] = true;
            assert!(!t.request.keys.is_empty());
            assert!((cfg.min_keys..=cfg.max_keys).contains(&t.request.keys.len()));
            for k in &t.request.keys {
                assert!(r.keys().binary_search(k).is_ok());
            }
        }
        assert!(seen.iter().all(|&s| s), "all tenants must appear");
    }

    #[test]
    fn tenant_traces_pin_tenant_and_merge_ordered() {
        let cfg = TraceConfig {
            requests: 64,
            ..TraceConfig::default()
        };
        let small = relation();
        let big = Relation::unique_sorted(8192, KeyDistribution::SparseUniform, 2);
        let t0 = generate_tenant_trace(&cfg, 0, &small);
        let t1 = generate_tenant_trace(&cfg, 1, &big);
        assert!(t0.iter().all(|t| t.request.tenant == 0));
        assert!(t1.iter().all(|t| t.request.tenant == 1));
        // Tenants draw independent streams from one seed.
        assert_ne!(
            t0.iter().map(|t| t.at_s).collect::<Vec<_>>(),
            t1.iter().map(|t| t.at_s).collect::<Vec<_>>()
        );
        // Keys come from each tenant's own relation.
        for t in &t1 {
            for k in &t.request.keys {
                assert!(big.keys().binary_search(k).is_ok());
            }
        }
        let merged = merge_traces(vec![t0.clone(), t1.clone()]);
        assert_eq!(merged.len(), t0.len() + t1.len());
        assert!(merged.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        // Merge is deterministic regardless of input order.
        assert_eq!(merged, merge_traces(vec![t1, t0]));
    }
}
