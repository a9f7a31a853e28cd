//! The `simperf` target: measures the simulator's raw speed and gates it.
//!
//! Every other target reports *simulated* performance; this one reports
//! how fast the simulator itself chews through simulated work, on both
//! parallel axes:
//!
//! 1. **Engine axis** — the canonical baseline seed matrix, run a few
//!    times; the best wall-clock time (the least noisy estimator on a
//!    shared machine) is normalized by the total simulated memory-system
//!    accesses performed (L1 lookups plus TLB lookups — the unit of work
//!    of the engine's hot path). This is the speed of one engine, not of
//!    one thread: with fewer pool workers than cores (`--jobs 1`, the
//!    default), a query's long calm access runs are accounted on a helper
//!    thread on the idle core while its kernels run on the worker (see
//!    `windex_sim::engine`), so the figure moves with the cores the
//!    machine leaves idle.
//! 2. **Serve axis** — a fixed multi-tenant trace served tenant-parallel
//!    (one `Gpu` lane per tenant) at 1 and at 4 worker threads. The two
//!    outcomes must serialize **byte-identically** — the run fails
//!    otherwise, making the determinism contract a gate, not a test-only
//!    property. The axis is not timed: perfbench's `serve-tenants`
//!    workload reports tenant-parallel wall-clock speedup
//!    (`serve.parallel_speedup`).
//!
//! The target *fails* if the fresh accesses-per-second falls more than
//! 20 % below the committed `BENCH_simperf.json` — the engine-speed
//! analogue of the `baseline` gate — and the reported
//! `speedup_vs_committed` is measured against that same file, so the
//! figure stays honest as the floor rises. `--record` re-records the file
//! on the current machine.
//!
//! Unlike `baseline`, the JSON here is machine-dependent by design: it
//! records wall-clock throughput, not simulated counters, so every other
//! field is skipped by the gate (the key set is still checked).

use crate::config::ExpConfig;
use crate::experiments::baseline;
use crate::gate::{self, GateSpec, Tol};
use crate::output::{num, Experiment};
use serde::Serialize;
use serde_json::{json, Value};
use windex_serve::{generate_trace, serve_tenant_parallel, ServeConfig, TimedRequest, TraceConfig};
use windex_sim::{GpuSpec, Scale};
use windex_workload::{KeyDistribution, Relation};

/// Format-version marker.
const SCHEMA_VERSION: u32 = 3;

/// Repetitions of the engine matrix; best-of is reported. Five, because
/// the first rep fits the indexes the later reps find on the shared R
/// columns, so it is structurally slower — more reps let best-of settle
/// on a warm, quiet run.
const REPS: usize = 5;

/// The committed golden: wall-clock fields are skipped; accesses/sec may
/// not drop below 80 % of the committed figure.
const GATE: GateSpec = GateSpec {
    file: "BENCH_simperf.json",
    schema: SCHEMA_VERSION,
    default: Tol::Skip,
    fields: &[("accesses_per_second", Tol::Floor(0.80))],
};

/// Wall-clock seconds one serial baseline-matrix run took on the engine
/// before the PR 5 batched-issue/flat-array rework. Historical context
/// only — the gated speedup is measured against the *committed*
/// `BENCH_simperf.json`, which moves as floors rise; this figure does not.
const HISTORICAL_PRE_REWORK_MATRIX_SECONDS: f64 = 0.5972;

/// Serve-axis workload shape (fixed so recorded numbers are comparable).
const SERVE_TENANTS: u32 = 8;
const SERVE_REQUESTS: usize = 512;
/// Worker threads at the serve axis's parallel point.
const SERVE_THREADS: usize = 4;

/// The serve-axis check: tenant-parallel serving at 1 and
/// [`SERVE_THREADS`] worker threads over the same fixed trace, with the
/// byte-identity of the two outcomes enforced.
#[derive(Debug, Clone, Serialize)]
struct ServeAxis {
    /// Tenant lanes in the fixed trace.
    tenants: u32,
    /// Requests in the fixed trace.
    requests: usize,
    /// Probe keys across the trace.
    keys: usize,
    /// Worker threads at the parallel point.
    threads: usize,
    /// Whether the 1-thread and N-thread outcomes serialized identically.
    /// Always `true` in a written report (a mismatch fails the run).
    byte_identical: bool,
}

/// The `BENCH_simperf.json` payload.
#[derive(Debug, Clone, Serialize)]
struct Simperf {
    schema: u32,
    jobs: usize,
    reps: usize,
    /// Simulated memory-system accesses per matrix run (L1 + TLB lookups);
    /// deterministic, identical for every job count.
    accesses: u64,
    /// Best-of-`reps` wall seconds for one matrix run.
    best_wall_seconds: f64,
    /// The gated metric.
    accesses_per_second: f64,
    /// The committed reference this run was gated against (absent when
    /// recording without a committed file).
    committed_accesses_per_second: Option<f64>,
    /// `accesses_per_second / committed_accesses_per_second`; the honest
    /// speedup figure, re-based every time the committed floor rises.
    speedup_vs_committed: Option<f64>,
    /// Matrix wall seconds of the pre-PR 5 scalar engine. Historical
    /// context only; not the basis of any derived figure.
    historical_pre_rework_matrix_seconds: f64,
    /// The tenant-parallel serving check.
    serve: ServeAxis,
}

fn measure(jobs: usize) -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut accesses = 0u64;
    // R is generated once, untimed; each rep draws S and runs the matrix.
    let rs = baseline::r_columns();
    for _ in 0..REPS {
        let started = std::time::Instant::now();
        let (_, a) = baseline::compute_counted(jobs, &rs);
        let wall = started.elapsed().as_secs_f64();
        best = best.min(wall);
        accesses = a;
    }
    (accesses, best)
}

/// The serve axis's fixed workload: one relation, one multi-tenant trace.
fn serve_workload() -> (Relation, Vec<TimedRequest>) {
    let r = Relation::unique_sorted(1 << 16, KeyDistribution::SparseUniform, 7);
    let trace = generate_trace(
        &TraceConfig {
            seed: 7,
            tenants: SERVE_TENANTS,
            requests: SERVE_REQUESTS,
            min_keys: 32,
            max_keys: 256,
            offered_load_rps: 20_000.0,
            ..TraceConfig::default()
        },
        &r,
    );
    (r, trace)
}

/// Serve the fixed trace tenant-parallel at 1 and `threads` workers and
/// enforce the byte-identity of the two outcomes.
fn check_serve(threads: usize) -> Result<ServeAxis, String> {
    let (r, trace) = serve_workload();
    let keys: usize = trace.iter().map(|t| t.request.keys.len()).sum();
    let spec = GpuSpec::v100_nvlink2(Scale::PAPER);
    let outcome = |workers: usize| {
        serve_tenant_parallel(&spec, ServeConfig::default(), &r, &trace, workers, None)
            .map(|out| serde_json::to_string(&out).expect("outcome serializes"))
            .map_err(|e| format!("serve axis failed at {workers} threads: {e}"))
    };
    if outcome(1)? != outcome(threads)? {
        return Err(format!(
            "tenant-parallel serving diverged between 1 and {threads} worker threads \
             (the outcome must be byte-identical for any thread count)"
        ));
    }
    Ok(ServeAxis {
        tenants: SERVE_TENANTS,
        requests: SERVE_REQUESTS,
        keys,
        threads,
        byte_identical: true,
    })
}

/// The committed reference's accesses-per-second; `None` only when
/// recording without a readable committed file.
fn committed_accesses_per_second(record: bool) -> Result<Option<f64>, String> {
    let root = match gate::load(&GATE) {
        Ok(root) => root,
        Err(_) if record => return Ok(None),
        Err(e) => return Err(e),
    };
    root.get("accesses_per_second")
        .and_then(Value::as_f64)
        .map(Some)
        .ok_or_else(|| format!("'{}' has no numeric 'accesses_per_second'", GATE.file))
}

/// The `simperf` target. `Err` (→ nonzero exit) when engine throughput
/// dropped more than 20 % below the committed reference, or when the
/// tenant-parallel serve outcomes diverge across thread counts.
pub fn simperf(cfg: &ExpConfig) -> Result<Experiment, String> {
    let (accesses, best_wall) = measure(cfg.jobs);
    let accesses_per_second = accesses as f64 / best_wall;
    let serve = check_serve(SERVE_THREADS)?;

    let committed = committed_accesses_per_second(cfg.record)?;
    let fresh = Simperf {
        schema: SCHEMA_VERSION,
        jobs: cfg.jobs,
        reps: REPS,
        accesses,
        best_wall_seconds: best_wall,
        accesses_per_second,
        committed_accesses_per_second: committed,
        speedup_vs_committed: committed.map(|c| accesses_per_second / c),
        historical_pre_rework_matrix_seconds: HISTORICAL_PRE_REWORK_MATRIX_SECONDS,
        serve,
    };

    let gate_note = gate::check_or_record(&GATE, &fresh, cfg.record)?;

    Ok(Experiment {
        id: "simperf".into(),
        title: "Simulator throughput: simulated accesses per wall-clock second".into(),
        columns: vec![
            "jobs".into(),
            "accesses".into(),
            "best_wall_s".into(),
            "accesses_per_s".into(),
            "speedup_vs_committed".into(),
            "serve_byte_identical".into(),
        ],
        rows: vec![vec![
            json!(fresh.jobs),
            json!(fresh.accesses),
            num(fresh.best_wall_seconds),
            num(fresh.accesses_per_second),
            fresh.speedup_vs_committed.map_or(json!(null), num),
            json!(fresh.serve.byte_identical),
        ]],
        notes: vec![
            format!("best of {REPS} runs of the baseline seed matrix; accesses = L1 + TLB lookups"),
            format!(
                "serve axis: {} requests / {} tenants served tenant-parallel at 1 vs {} \
                 threads; outcomes byte-identical (enforced)",
                fresh.serve.requests, fresh.serve.tenants, fresh.serve.threads
            ),
            format!(
                "historical: the pre-rework serial engine ran the matrix in \
                 {HISTORICAL_PRE_REWORK_MATRIX_SECONDS}s (context only; speedup is vs committed)"
            ),
            gate_note,
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_work_and_time() {
        let (accesses, best) = measure(1);
        assert!(accesses > 0);
        assert!(best > 0.0);
    }

    #[test]
    fn accesses_are_job_count_independent() {
        // The 4-job run finds the fits the 1-job run stored on `rs`.
        let rs = baseline::r_columns();
        let (_, a1) = baseline::compute_counted(1, &rs);
        let (_, a4) = baseline::compute_counted(4, &rs);
        assert_eq!(a1, a4, "simulated work must not depend on --jobs");
        assert!(a1 > 0);
    }

    #[test]
    fn serve_axis_enforces_identity() {
        let axis = check_serve(2).unwrap();
        assert!(axis.byte_identical);
        assert!(axis.keys > 0);
        assert_eq!(axis.requests, SERVE_REQUESTS);
    }

    #[test]
    fn gate_floors_accesses_per_second_and_skips_wall_clock() {
        let axis = ServeAxis {
            tenants: SERVE_TENANTS,
            requests: SERVE_REQUESTS,
            keys: 1,
            threads: SERVE_THREADS,
            byte_identical: true,
        };
        let fresh = Simperf {
            schema: SCHEMA_VERSION,
            jobs: 1,
            reps: REPS,
            accesses: 100,
            best_wall_seconds: 1e-6,
            accesses_per_second: 1e8,
            committed_accesses_per_second: Some(1e8),
            speedup_vs_committed: Some(1.0),
            historical_pre_rework_matrix_seconds: HISTORICAL_PRE_REWORK_MATRIX_SECONDS,
            serve: axis,
        };
        // A committed figure 30 % above the fresh one breaks the floor ...
        let mut faster = fresh.clone();
        faster.accesses_per_second = 1.3e8;
        gate::assert_flags_drift(&GATE, &fresh, &faster, "accesses_per_second");
        // ... while any wall-clock field may move freely.
        let path = std::env::temp_dir().join(format!("windex-simperf-{}", std::process::id()));
        let tmp = GateSpec {
            file: path.to_str().unwrap(),
            ..GATE
        };
        let mut slower_wall = fresh.clone();
        slower_wall.best_wall_seconds = 9.0;
        gate::check_or_record(&tmp, &slower_wall, true).unwrap();
        gate::check_or_record(&tmp, &fresh, false).expect("wall clock is skipped");
        let _ = std::fs::remove_file(&path);
    }
}
