//! One gate engine for every committed `BENCH_*.json` golden.
//!
//! A gated target computes its KPIs, serializes them canonically (pretty
//! JSON plus a trailing newline) and hands them to [`check_or_record`]
//! together with a [`GateSpec`]: the committed file, its schema version,
//! and a tolerance per KPI key name. Checking diffs the fresh tree against
//! the committed one recursively:
//!
//! - objects must have the same key set;
//! - arrays must have the same length and are compared index by index, so
//!   exact label fields (strategy, scenario, link, policy) also catch order
//!   changes;
//! - each leaf is compared with the tolerance of its key name (array
//!   elements inherit their array's key), or with the spec's default.
//!
//! Every violation names its JSON path, e.g.
//! `scenarios[4].completed: committed 256, fresh 255 (exact)`. A missing
//! committed file is an error: `--record` is the only way to create or
//! overwrite a golden.

use serde::Serialize;
use serde_json::Value;
use std::fmt;

/// How one KPI may move against its committed value.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Tol {
    /// Identical JSON value (discrete outcomes, labels, constants).
    Exact,
    /// `|fresh − committed| ≤ tol · |committed|` (a zero committed value
    /// requires a zero fresh one).
    Rel(f64),
    /// `|fresh − committed| ≤ tol`.
    Abs(f64),
    /// `fresh ≥ frac · committed` (throughput that may only improve).
    Floor(f64),
    /// Not compared (wall-clock measurements).
    Skip,
}

impl fmt::Display for Tol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tol::Exact => write!(f, "exact"),
            Tol::Rel(t) => write!(f, "±{}% relative", t * 100.0),
            Tol::Abs(t) => write!(f, "±{t} absolute"),
            Tol::Floor(frac) => write!(f, "floor {}% of committed", frac * 100.0),
            Tol::Skip => write!(f, "skipped"),
        }
    }
}

/// A gated target's committed golden and its per-KPI tolerances.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GateSpec<'a> {
    /// The committed golden, relative to the working directory (the repo
    /// root).
    pub(crate) file: &'a str,
    /// The `schema` value the committed file must carry.
    pub(crate) schema: u32,
    /// Tolerance for every key not listed in `fields`.
    pub(crate) default: Tol,
    /// Per-key tolerances, by JSON key name at any depth.
    pub(crate) fields: &'a [(&'a str, Tol)],
}

impl GateSpec<'_> {
    fn tol(&self, key: &str) -> Tol {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(self.default, |&(_, t)| t)
    }
}

/// The canonical on-disk form of a golden: pretty JSON plus `\n`.
pub(crate) fn canonical<T: Serialize>(value: &T) -> String {
    let mut text = serde_json::to_string_pretty(value).expect("gated KPIs serialize");
    text.push('\n');
    text
}

/// Read the committed golden and check its schema version.
pub(crate) fn load(spec: &GateSpec) -> Result<Value, String> {
    let file = spec.file;
    let text = std::fs::read_to_string(file).map_err(|e| {
        format!(
            "no committed reference at '{file}' ({e}); run from the repo root, \
             or create it with `--record`"
        )
    })?;
    let root = serde_json::from_str(&text).map_err(|e| format!("'{file}' is not JSON: {e}"))?;
    match root.get("schema").and_then(Value::as_u64) {
        Some(v) if v == u64::from(spec.schema) => Ok(root),
        other => Err(format!(
            "'{file}' has schema {other:?}, this build writes v{}; \
             re-record it with `--record`",
            spec.schema
        )),
    }
}

/// With `record`, write `fresh` as the committed golden. Otherwise diff it
/// against the committed golden: `Ok` carries a one-line note, `Err` every
/// violation.
pub(crate) fn check_or_record<T: Serialize>(
    spec: &GateSpec,
    fresh: &T,
    record: bool,
) -> Result<String, String> {
    let text = canonical(fresh);
    if record {
        std::fs::write(spec.file, &text)
            .map_err(|e| format!("cannot record '{}': {e}", spec.file))?;
        return Ok(format!("recorded '{}'", spec.file));
    }
    let committed = load(spec)?;
    let fresh: Value = serde_json::from_str(&text).expect("canonical JSON parses");
    let mut violations = Vec::new();
    diff(spec, "", spec.default, &committed, &fresh, &mut violations);
    if violations.is_empty() {
        Ok(format!(
            "gate: fresh run matches committed '{}' within tolerance",
            spec.file
        ))
    } else {
        Err(format!(
            "KPI drift vs committed '{}' ({} violation(s); re-record with `--record` \
             if intended):\n  {}",
            spec.file,
            violations.len(),
            violations.join("\n  ")
        ))
    }
}

fn kind(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "a bool",
        Value::Number(_) => "a number",
        Value::String(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    }
}

/// Append every violation under `path` to `out`; `tol` governs leaves.
fn diff(spec: &GateSpec, path: &str, tol: Tol, c: &Value, f: &Value, out: &mut Vec<String>) {
    let at = |key: &str| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    };
    match (c, f) {
        (Value::Object(cs), Value::Object(fs)) => {
            for (key, fv) in fs {
                match c.get(key) {
                    Some(cv) => diff(spec, &at(key), spec.tol(key), cv, fv, out),
                    None => out.push(format!("{}: only in the fresh run", at(key))),
                }
            }
            for (key, _) in cs.iter().filter(|(k, _)| f.get(k).is_none()) {
                out.push(format!("{}: only in the committed file", at(key)));
            }
        }
        (Value::Array(cs), Value::Array(fs)) => {
            if cs.len() != fs.len() {
                out.push(format!(
                    "{path}: committed {} entries, fresh {}",
                    cs.len(),
                    fs.len()
                ));
            } else {
                for (i, (cv, fv)) in cs.iter().zip(fs).enumerate() {
                    diff(spec, &format!("{path}[{i}]"), tol, cv, fv, out);
                }
            }
        }
        (Value::Object(_) | Value::Array(_), _) | (_, Value::Object(_) | Value::Array(_)) => {
            out.push(format!("{path}: committed {}, fresh {}", kind(c), kind(f)));
        }
        _ => {
            if !leaf_ok(tol, c, f) {
                out.push(format!("{path}: committed {c}, fresh {f} ({tol})"));
            }
        }
    }
}

fn leaf_ok(tol: Tol, c: &Value, f: &Value) -> bool {
    let nums = c.as_f64().zip(f.as_f64());
    match (tol, nums) {
        (Tol::Skip, _) => true,
        (Tol::Rel(_), Some((0.0, f))) => f == 0.0,
        (Tol::Rel(t), Some((c, f))) => ((f - c) / c).abs() <= t,
        (Tol::Abs(t), Some((c, f))) => (f - c).abs() <= t,
        (Tol::Floor(frac), Some((c, f))) => f >= frac * c,
        _ => c == f,
    }
}

/// Test helper for each target's drift self-test: `fresh` recorded to a
/// temp copy of `spec` passes its own gate; a recorded `drifted` fails
/// with an error naming `want_path`.
#[cfg(test)]
pub(crate) fn assert_flags_drift<T: Serialize>(
    spec: &GateSpec,
    fresh: &T,
    drifted: &T,
    want_path: &str,
) {
    let path =
        std::env::temp_dir().join(format!("windex-gate-{}-{}", std::process::id(), spec.file));
    let tmp = GateSpec {
        file: path.to_str().expect("temp path is UTF-8"),
        ..*spec
    };
    check_or_record(&tmp, fresh, true).expect("record to temp");
    check_or_record(&tmp, fresh, false).expect("self gate passes");
    check_or_record(&tmp, drifted, true).expect("record drift to temp");
    let err = check_or_record(&tmp, fresh, false).expect_err("drift must fail the gate");
    assert!(err.contains(want_path), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    const SPEC: GateSpec = GateSpec {
        file: "gate-test.json",
        schema: 1,
        default: Tol::Exact,
        fields: &[
            ("queries_per_second", Tol::Rel(0.02)),
            ("share_lookup", Tol::Abs(0.02)),
            ("accesses_per_second", Tol::Floor(0.80)),
            ("wall_s", Tol::Skip),
        ],
    };

    fn bench() -> Value {
        serde_json::from_str(
            r#"{
              "schema": 1,
              "accesses_per_second": 1000000.0,
              "wall_s": 0.5,
              "entries": [
                {"strategy": "hash-join", "queries_per_second": 2.0, "windows": 0, "share_lookup": 0.1},
                {"strategy": "inlj", "queries_per_second": 1.5, "windows": 0, "share_lookup": 0.9},
                {"strategy": "windowed", "queries_per_second": 3.0, "windows": 8, "share_lookup": 0.6}
              ]
            }"#,
        )
        .unwrap()
    }

    /// Diff `fresh` against `committed` without touching the filesystem.
    fn violations(committed: &Value, fresh: &Value) -> Vec<String> {
        let mut out = Vec::new();
        diff(&SPEC, "", SPEC.default, committed, fresh, &mut out);
        out
    }

    fn at_mut<'v>(mut cur: &'v mut Value, path: &[&str]) -> &'v mut Value {
        for key in path {
            cur = match cur {
                Value::Object(kv) => &mut kv.iter_mut().find(|(k, _)| k == key).unwrap().1,
                Value::Array(items) => &mut items[key.parse::<usize>().unwrap()],
                _ => panic!("no {key}"),
            };
        }
        cur
    }

    fn set(v: &mut Value, path: &[&str], to: Value) {
        *at_mut(v, path) = to;
    }

    fn entries_mut(v: &mut Value) -> &mut Vec<Value> {
        match at_mut(v, &["entries"]) {
            Value::Array(items) => items,
            _ => unreachable!(),
        }
    }

    #[test]
    fn perturbed_metrics_are_caught() {
        let mut c = bench();
        // 50 % off a 2 % band, off by one on an exact field, 0.5 off a
        // 0.02 absolute band.
        set(&mut c, &["entries", "0", "queries_per_second"], json!(3.0));
        set(&mut c, &["entries", "1", "windows"], json!(1));
        set(&mut c, &["entries", "2", "share_lookup"], json!(0.1));
        let v = violations(&c, &bench());
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v[0].starts_with("entries[0].queries_per_second: committed 3.0, fresh 2.0"));
        assert_eq!(v[1], "entries[1].windows: committed 1, fresh 0 (exact)");
        assert!(v[2].starts_with("entries[2].share_lookup"), "{v:?}");
    }

    #[test]
    fn drift_inside_the_band_passes() {
        let mut c = bench();
        set(&mut c, &["entries", "0", "queries_per_second"], json!(2.02));
        set(&mut c, &["entries", "1", "share_lookup"], json!(0.91));
        assert!(violations(&c, &bench()).is_empty());
    }

    #[test]
    fn changed_matrix_length_and_order_fail() {
        let mut shrunk = bench();
        entries_mut(&mut shrunk).pop();
        let v = violations(&shrunk, &bench());
        assert_eq!(v, vec!["entries: committed 2 entries, fresh 3"]);

        let mut swapped = bench();
        entries_mut(&mut swapped).swap(0, 1);
        let v = violations(&swapped, &bench());
        assert!(v[0].starts_with("entries[0].strategy"), "{v:?}");
    }

    #[test]
    fn key_set_mismatch_fails_both_ways() {
        let mut extra = bench();
        if let Value::Object(kv) = &mut extra {
            kv.push(("retired_kpi".into(), json!(1)));
        }
        assert_eq!(
            violations(&extra, &bench()),
            vec!["retired_kpi: only in the committed file"]
        );
        assert_eq!(
            violations(&bench(), &extra),
            vec!["retired_kpi: only in the fresh run"]
        );
    }

    #[test]
    fn floor_allows_gains_and_small_losses_only() {
        let mut committed = bench();
        set(&mut committed, &["accesses_per_second"], json!(0.5e6)); // fresh is 2x
        assert!(violations(&committed, &bench()).is_empty());
        set(&mut committed, &["accesses_per_second"], json!(1.2e6)); // fresh is 83%
        assert!(violations(&committed, &bench()).is_empty());
        set(&mut committed, &["accesses_per_second"], json!(1.5e6)); // fresh is 67%
        let v = violations(&committed, &bench());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("floor 80%"), "{v:?}");
    }

    #[test]
    fn skip_ignores_the_value_but_not_the_key() {
        let mut committed = bench();
        set(&mut committed, &["wall_s"], json!(99.0));
        assert!(violations(&committed, &bench()).is_empty());
        set(&mut committed, &["wall_s"], Value::Null);
        assert!(violations(&committed, &bench()).is_empty());
    }

    #[test]
    fn missing_file_is_an_error_naming_record() {
        let spec = GateSpec {
            file: "/nonexistent/BENCH_gate_test.json",
            ..SPEC
        };
        let err = check_or_record(&spec, &bench(), false).unwrap_err();
        assert!(err.contains("--record"), "{err}");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let path = std::env::temp_dir().join(format!("windex-gate-schema-{}", std::process::id()));
        let spec = GateSpec {
            file: path.to_str().unwrap(),
            ..SPEC
        };
        let mut other = bench();
        set(&mut other, &["schema"], json!(999));
        check_or_record(&spec, &other, true).unwrap();
        let err = check_or_record(&spec, &bench(), false).unwrap_err();
        assert!(err.contains("schema") && err.contains("--record"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_then_check_round_trips_and_reports_paths() {
        assert_flags_drift(
            &SPEC,
            &bench(),
            &{
                let mut d = bench();
                set(&mut d, &["entries", "2", "windows"], json!(9));
                d
            },
            "entries[2].windows: committed 9, fresh 8 (exact)",
        );
    }
}
