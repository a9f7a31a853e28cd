//! Self-tests of the benchmark: a corrupted output makes its op count as
//! failed, the inputs follow from the seed alone, and every metric the
//! benchmark prints is declared in `BENCHMARK.json` under a valid name.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use super::*;
use serde_json::Value;

const SEED: u64 = 7;

/// Change one digit of `s`, which keeps it valid UTF-8.
fn flip_digit(s: &mut String) {
    let pos = s
        .find(|c: char| c.is_ascii_digit())
        .expect("a digit to flip");
    let mut bytes = std::mem::take(s).into_bytes();
    bytes[pos] = if bytes[pos] == b'9' {
        b'0'
    } else {
        bytes[pos] + 1
    };
    *s = String::from_utf8(bytes).expect("digits are ASCII");
}

/// Whether the tally counts `checked` as one failed op.
fn counted_as_failed<T>(checked: Result<T, String>) -> bool {
    let mut tally = Tally::default();
    tally.record("corrupted op", checked);
    (tally.attempted, tally.failed) == (1, 1)
}

#[test]
fn join_sweep_counts_corrupted_outputs_as_failed() {
    let mut w = JoinSweep::setup(SEED, &Size::small()).unwrap();
    for i in [0, w.unit_ops() - 1] {
        let out = w.run(i).unwrap();
        assert!(w.check(i, &out).is_ok());
        let mut dropped = w.run(i).unwrap();
        dropped.report.result_tuples -= 1;
        assert!(counted_as_failed(w.check(i, &dropped)));
        let mut flipped = w.run(i).unwrap();
        flip_digit(&mut flipped.json);
        assert!(counted_as_failed(w.check(i, &flipped)));
    }
}

#[test]
fn serve_hosts_counts_corrupted_outputs_as_failed() {
    let mut w = ServeHosts::setup(SEED, &Size::small()).unwrap();
    let out = w.run(0).unwrap();
    assert!(w.check(0, &out).is_ok());

    let mut dropped = w.run(0).unwrap();
    let served = dropped
        .server
        .responses
        .iter_mut()
        .find(|r| !r.matches.is_empty());
    served.expect("a request with matches").matches.pop();
    assert!(counted_as_failed(w.check(0, &dropped)));

    let mut answered_twice = w.run(0).unwrap();
    answered_twice.cluster.responses[1].request = 0;
    assert!(counted_as_failed(w.check(0, &answered_twice)));

    let mut flipped = w.run(0).unwrap();
    flip_digit(&mut flipped.cluster_json);
    assert!(counted_as_failed(w.check(0, &flipped)));
}

#[test]
fn serve_tenants_counts_corrupted_outputs_as_failed() {
    let mut w = ServeTenants::setup(SEED, &Size::small()).unwrap();
    let out = w.run(0).unwrap();
    assert!(w.check(0, &out).is_ok());
    let mut flipped = w.run(0).unwrap();
    flip_digit(&mut flipped.json);
    assert!(counted_as_failed(w.check(0, &flipped)));
}

#[test]
fn inputs_follow_from_the_seed() {
    let modelled = |seed| {
        format!(
            "{:?}",
            ServeHosts::setup(seed, &Size::small()).unwrap().modelled()
        )
    };
    assert_eq!(modelled(SEED), modelled(SEED));
    assert_ne!(modelled(SEED), modelled(SEED + 1));
}

#[test]
fn arguments_parse_and_reject() {
    let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
    let a = parse("--workload serve-hosts --seed 9 --seconds 3 --trace 1").unwrap();
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("serve-hosts", 9, 3.0, true)
    );
    assert_eq!(parse("--workload join-sweep").unwrap().seed, DEFAULT_SEED);
    for bad in [
        "",
        "--workload nope",
        "--workload join-sweep --seed x",
        "--workload join-sweep --seconds 0",
    ] {
        assert!(parse(bad).is_err(), "{bad:?} accepted");
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// `(name, unit)` of every entry of the `BENCHMARK.json` list `key`.
fn declared(b: &Value, key: &str) -> Vec<(String, String)> {
    let field = |m: &Value, k: &str| {
        m.get(k)
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    };
    b.get(key)
        .and_then(Value::as_array)
        .expect("list in BENCHMARK.json")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let b = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let per_layer: Vec<(String, String)> = layers::names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared(&b, "end_to_end"), end_to_end);
    assert_eq!(declared(&b, "per_layer"), per_layer);
    let workloads: Vec<&str> = b
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let mut names: Vec<&str> = workloads.clone();
    names.extend(end_to_end.iter().chain(&per_layer).map(|(n, _)| n.as_str()));
    assert!(
        names.iter().all(|n| valid_name(n)),
        "invalid name in {names:?}"
    );
    let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    assert!(end_to_end
        .iter()
        .chain(&per_layer)
        .all(|(_, u)| valid_unit(u)));

    let bounds: Vec<(String, f64)> = b
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).unwrap().to_string();
            (name, m.get("bound").and_then(Value::as_f64).unwrap())
        })
        .collect();
    let largest = bounds.iter().map(|b| b.1).fold(0.0, f64::max);
    assert!(bounds
        .iter()
        .all(|(_, bound)| *bound > 0.0 && *bound <= 0.25));
    assert!(bounds
        .iter()
        .any(|(name, bound)| name == "setup_s" && *bound == largest));
}
