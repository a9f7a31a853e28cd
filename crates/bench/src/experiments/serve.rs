//! Serving experiment (beyond the paper): the latency–throughput curve of
//! cross-query window batching.
//!
//! The paper's windowed operator (§5) introduces fixed per-window costs
//! (partition pass, probe kernel, launches). A serving workload of small
//! multi-tenant lookups pays those costs *per request* when each request
//! runs alone — the windows stay nearly empty. This experiment sweeps
//! offered load × dispatch policy over the same seeded trace and reports
//! virtual-time tail latency and key throughput, showing where shared
//! windows (micro-batching with a max-delay bound) overtake per-request
//! execution.

use super::cell::RInput;
use crate::config::ExpConfig;
use crate::experiments::v100;
use crate::output::{num, num6, Experiment};
use serde_json::json;
use windex_serve::prelude::*;

/// Offered loads swept, in requests per virtual second.
fn offered_loads(cfg: &ExpConfig) -> Vec<f64> {
    if cfg.quick {
        vec![1_000.0, 10_000.0, 50_000.0]
    } else {
        vec![
            500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0, 100_000.0,
        ]
    }
}

/// Dispatch policies compared: per-request execution plus shared windows at
/// several max-delay bounds.
fn policies(cfg: &ExpConfig) -> Vec<BatchPolicy> {
    let mut out = vec![BatchPolicy::PerRequest];
    let delays_us: &[f64] = if cfg.quick {
        &[200.0]
    } else {
        &[50.0, 200.0, 1000.0]
    };
    out.extend(delays_us.iter().map(|d| BatchPolicy::Shared {
        max_delay_s: d * 1e-6,
    }));
    out
}

/// Requests per trace point.
fn trace_requests(cfg: &ExpConfig) -> usize {
    if cfg.quick {
        128
    } else {
        512
    }
}

/// Run one (policy, offered load) point on a fresh device.
fn serve_point(cfg: &ExpConfig, r: &Relation, policy: BatchPolicy, load: f64) -> ServerReport {
    let trace = generate_trace(
        &TraceConfig {
            seed: 7,
            tenants: 4,
            requests: trace_requests(cfg),
            min_keys: 4,
            max_keys: 64,
            offered_load_rps: load,
            deadline_s: None,
        },
        r,
    );
    let mut gpu = Gpu::new(v100(cfg));
    let mut server = Server::new(
        &mut gpu,
        ServeConfig {
            policy,
            window_tuples: 1024,
            ..ServeConfig::default()
        },
        r.clone(),
    )
    .expect("serve experiment server must construct");
    server
        .run(&mut gpu, &trace)
        .expect("serve experiment trace must complete")
        .report
}

/// The serving relation: 1 paper-GiB of unique sorted keys (index lookups,
/// not scans, dominate serving; the R-size sensitivity is Figs. 3–5's
/// story, not this one).
fn serve_relation(cfg: &ExpConfig) -> Relation {
    RInput::paper(cfg.scale, 1.0).generate()
}

/// The `serve` target: latency–throughput sweep, batched vs per-request.
pub fn serve(cfg: &ExpConfig) -> Experiment {
    let r = serve_relation(cfg);
    let mut rows = Vec::new();
    let mut best_speedup: f64 = 0.0;
    for load in offered_loads(cfg) {
        let mut per_request_p95 = None;
        for policy in policies(cfg) {
            let rep = serve_point(cfg, &r, policy, load);
            if policy == BatchPolicy::PerRequest {
                per_request_p95 = Some(rep.latency.p95_s);
            } else if let Some(base) = per_request_p95 {
                if rep.latency.p95_s > 0.0 {
                    best_speedup = best_speedup.max(base / rep.latency.p95_s);
                }
            }
            rows.push(vec![
                json!(load),
                json!(rep.policy.clone()),
                num6(rep.latency.p50_s * 1e3),
                num6(rep.latency.p95_s * 1e3),
                num6(rep.latency.p99_s * 1e3),
                num(rep.keys_per_second),
                num(rep.mean_batch_keys),
                json!(rep.window.windows),
                json!(rep.shed),
            ]);
        }
    }
    Experiment {
        id: "serve".into(),
        title: "Serving: cross-query window batching vs per-request execution".into(),
        columns: vec![
            "offered_rps".into(),
            "policy".into(),
            "p50_ms".into(),
            "p95_ms".into(),
            "p99_ms".into(),
            "keys_per_s".into(),
            "mean_batch_keys".into(),
            "windows".into(),
            "shed".into(),
        ],
        rows,
        notes: vec![
            "virtual-time latencies from the cost model's clock; same seed => identical output"
                .into(),
            format!(
                "shared windows amortize per-window costs over many tenants: \
                 best p95 speedup over per-request execution {best_speedup:.1}x"
            ),
            "at low load shared batching trades its max-delay bound for throughput; \
             the win appears once arrivals outpace per-request fixed costs"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_experiment_shows_the_batching_win() {
        let cfg = ExpConfig::quick();
        let exp = serve(&cfg);
        let points = offered_loads(&cfg).len() * policies(&cfg).len();
        assert_eq!(exp.rows.len(), points);

        // At the top offered load, shared batching must beat per-request
        // execution on tail latency and key throughput.
        let r = serve_relation(&cfg);
        let top = *offered_loads(&cfg).last().unwrap();
        let solo = serve_point(&cfg, &r, BatchPolicy::PerRequest, top);
        let shared = serve_point(
            &cfg,
            &r,
            BatchPolicy::Shared {
                max_delay_s: 200e-6,
            },
            top,
        );
        assert!(
            shared.latency.p95_s < solo.latency.p95_s,
            "shared p95 {} vs per-request p95 {}",
            shared.latency.p95_s,
            solo.latency.p95_s
        );
        assert!(shared.keys_per_second > solo.keys_per_second);
        assert!(shared.mean_batch_keys > solo.mean_batch_keys);
    }

    #[test]
    fn serve_points_are_deterministic() {
        let cfg = ExpConfig::quick();
        let r = serve_relation(&cfg);
        let policy = BatchPolicy::Shared {
            max_delay_s: 200e-6,
        };
        let a = serve_point(&cfg, &r, policy, 10_000.0);
        let b = serve_point(&cfg, &r, policy, 10_000.0);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
