//! The repository's benchmark: three seeded workloads run through the
//! workspace's public API, with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload join-sweep --seed 42 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
//! it alternates untraced and traced units of ops, probes single layers,
//! runs one unit of each other workload for the layers this one never
//! calls, and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod layers;
#[cfg(test)]
mod selftest;
mod spans;
mod workloads;

use layers::TracedOp;
use serde_json::Value;
use std::time::{Duration, Instant};
use workloads::{JoinSweep, OpStats, ServeHosts, ServeTenants, Size, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The end-to-end metrics with their units, in output order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("keys_per_s", "keys/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("modelled_qps", "Q/s"),
    ("modelled_p99_ms", "ms"),
    ("modelled_goodput_rps", "req/s"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = [JoinSweep::NAME, ServeHosts::NAME, ServeTenants::NAME];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Only set up, print the set-up seconds and exit: how a run times
    /// its extra cold set-ups, each in a fresh process.
    setup_only: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        setup_only: false,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad)? != 0,
            "--setup-only" => args.setup_only = value.parse::<u8>().map_err(|_| bad)? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Linear-interpolated quantile of sorted samples (NaN when there are none).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Attempted and failed ops.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count one op; a failed op's error goes to standard error.
    fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|e| {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
            })
            .ok()
    }
}

/// Run op `i` of `w` as op `op_id`, timed, then check its outputs.
fn attempt<W: Workload>(
    w: &mut W,
    i: usize,
    op_id: u64,
    traced: bool,
) -> (Result<OpStats, String>, f64) {
    spans::set_enabled(traced);
    spans::set_op(op_id);
    let (out, host_s) = timed(|| spans::span(|| format!("op.{}", W::NAME), || w.run(i)));
    spans::set_enabled(false);
    (out.and_then(|o| w.check(i, &o)), host_s)
}

/// Set up `W` and run one unit of its ops, traced, as ops from `op_base`.
fn layer_pass<W: Workload>(seed: u64, op_base: u64, tally: &mut Tally) -> Vec<TracedOp> {
    spans::set_enabled(true);
    spans::set_op(op_base);
    let setup = W::setup(seed, &Size::full());
    spans::set_enabled(false);
    let Some(mut w) = tally.record(&format!("{} set-up (layer pass)", W::NAME), setup) else {
        return Vec::new();
    };
    let mut ops = Vec::new();
    for i in 0..w.unit_ops() {
        let (checked, host_s) = attempt(&mut w, i, op_base + 1 + i as u64, true);
        if let Some(stats) = tally.record(&format!("{} op {i} (layer pass)", W::NAME), checked) {
            ops.push(TracedOp { host_s, stats });
        }
    }
    ops
}

/// One unit of every workload other than `W`, each with its own op ids.
fn other_workloads<W: Workload>(seed: u64, tally: &mut Tally) -> Vec<TracedOp> {
    let mut ops = Vec::new();
    if W::NAME != JoinSweep::NAME {
        ops.extend(layer_pass::<JoinSweep>(seed, spans::PASS_OP, tally));
    }
    if W::NAME != ServeHosts::NAME {
        ops.extend(layer_pass::<ServeHosts>(seed, 2 * spans::PASS_OP, tally));
    }
    if W::NAME != ServeTenants::NAME {
        ops.extend(layer_pass::<ServeTenants>(seed, 3 * spans::PASS_OP, tally));
    }
    ops
}

/// Where a traced run writes its spans: beside the benchmark's executable,
/// inside the build directory.
fn trace_path(args: &Args) -> Option<std::path::PathBuf> {
    let dir = std::env::current_exe()
        .ok()?
        .parent()?
        .join("perfbench-traces");
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed)))
}

/// Time one cold set-up in a fresh process, so neither its build memos
/// nor its memory stay with this run.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = args.seed.to_string();
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &seed,
            "--setup-only",
            "1",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(t) if out.status.success() => Ok(t),
        _ => Err(format!("set-up process failed ({})", out.status)),
    }
}

struct RunResult {
    tally: Tally,
    metrics: Vec<(String, &'static str, f64)>,
}

fn measure<W: Workload>(args: &Args) -> Result<RunResult, String> {
    let size = Size::full();
    if args.setup_only {
        let (w, t) = timed(|| W::setup(args.seed, &size));
        w?;
        println!("{t}");
        std::process::exit(0);
    }
    let mut setup_s = Vec::new();
    if !args.trace {
        for _ in 1..SETUP_REPS {
            setup_s.push(setup_in_child(args)?);
        }
    }
    spans::set_enabled(args.trace);
    spans::set_op(spans::SETUP_OP);
    let (w, t) = timed(|| W::setup(args.seed, &size));
    spans::set_enabled(false);
    let mut w = w?;
    setup_s.push(t);

    let mut tally = Tally::default();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    // Simulated keys per host second of each untraced unit.
    let (mut unit_rates, mut own) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(args.seconds);
    let min_units = if args.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut op_id = 0u64;
    let mut unit = 0u32;
    // Whole units only, each started while its projected end is in budget.
    while unit < min_units || start.elapsed() + start.elapsed() / unit <= budget {
        let traced = args.trace && unit % 2 == 1;
        let (mut unit_keys, mut unit_s) = (0u64, 0.0);
        for i in 0..w.unit_ops() {
            op_id += 1;
            let (checked, host_s) = attempt(&mut w, i, op_id, traced);
            if let Some(stats) = tally.record(&format!("{} op {i}", W::NAME), checked) {
                if traced {
                    traced_s.push(host_s);
                    own.push(TracedOp { host_s, stats });
                } else {
                    unit_keys += stats.keys;
                    unit_s += host_s;
                    untraced_s.push(host_s);
                }
            }
        }
        if unit_s > 0.0 {
            unit_rates.push(unit_keys as f64 / unit_s);
        }
        unit += 1;
    }
    if untraced_s.is_empty() {
        return Err("no op completed".into());
    }

    if args.trace {
        spans::set_enabled(true);
        let probe = layers::probe(&w.probe_inputs());
        spans::set_enabled(false);
        let probe = tally.record("layer probes", probe).unwrap_or_default();
        let pass = other_workloads::<W>(args.seed, &mut tally);
        let spans = spans::take();
        let self_s = spans::self_times(&spans);
        if let Some(path) = trace_path(args) {
            if let Err(e) = std::fs::write(&path, spans::to_json_lines(&spans, &self_s)) {
                eprintln!("could not write {}: {e}", path.display());
            }
        }
        let recorded = layers::Recorded {
            spans: &spans,
            self_s: &self_s,
            own: &own,
            pass: &pass,
            probe: &probe,
            traced_op_s: &traced_s,
            untraced_op_s: &untraced_s,
        };
        for (fact, v) in recorded.split_facts() {
            println!("split: {fact} = {v:.4}");
        }
        let values = recorded.metrics();
        let metrics = layers::names()
            .into_iter()
            .map(|(name, unit)| {
                let v = values.get(&name).copied().unwrap_or(f64::NAN);
                (name, unit, v)
            })
            .collect();
        println!(
            "traced ops: {} of {}",
            traced_s.len(),
            untraced_s.len() + traced_s.len()
        );
        return Ok(RunResult { tally, metrics });
    }

    let mut times = untraced_s;
    times.sort_by(f64::total_cmp);
    let beyond_p90 = times.len() - (0.9 * times.len() as f64).ceil() as usize;
    println!("op samples: {} ({beyond_p90} beyond p90)", times.len());
    let modelled = w.modelled();
    let values = [
        median(&setup_s),
        median(&unit_rates),
        quantile(&times, 0.5) * 1e3,
        quantile(&times, 0.9) * 1e3,
        peak_rss_mib()?,
        modelled.qps,
        modelled.p99_ms,
        modelled.goodput_rps,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), unit, v))
        .collect();
    Ok(RunResult { tally, metrics })
}

/// The result object printed as the last line of standard output.
fn result_line(run: &RunResult) -> Value {
    let metrics = run
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            let value = if v.is_finite() {
                (*v).into()
            } else {
                Value::Null
            };
            let m = Value::Object(vec![
                ("value".into(), value),
                ("unit".into(), (*unit).into()),
            ]);
            (name.clone(), m)
        })
        .collect();
    let correct = run.tally.failed == 0 && run.metrics.iter().all(|(_, _, v)| v.is_finite());
    Value::Object(vec![
        ("correct".into(), correct.into()),
        ("attempted".into(), run.tally.attempted.into()),
        ("failed".into(), run.tally.failed.into()),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        JoinSweep::NAME => measure::<JoinSweep>(&args),
        ServeHosts::NAME => measure::<ServeHosts>(&args),
        _ => measure::<ServeTenants>(&args),
    };
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for (name, unit, v) in &run.metrics {
        println!("{name} = {v} {unit}");
    }
    println!(
        "attempted {} ops, failed {}",
        run.tally.attempted, run.tally.failed
    );
    println!("{}", result_line(&run));
}
