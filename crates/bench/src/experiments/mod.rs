//! One module per regenerated table/figure, the cell table they share, and
//! the target registry.
//!
//! Workload construction follows §3.2: *R* holds unique sorted (dense)
//! keys and is scaled; *S* holds 2¹⁶ (scaled from 2²⁶) uniform foreign
//! keys and stays fixed; the index lives on *R*; throughput covers the
//! whole query.
//!
//! The figure targets (Figs. 3–9, the ablations but `ablation-warm`,
//! `whatif-gh200`, `validate-scale` and `summary`) declare the join
//! queries they need as [`cell::Cell`]s and render from one
//! [`cell::Table`]; [`run_targets`] runs every distinct cell of an
//! invocation once, on the worker pool.

pub mod ablations;
pub mod baseline;
pub mod cell;
pub mod chaos;
pub mod cluster;
pub mod fig1;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod figs34;
pub mod figs56;
pub mod observe;
pub mod requests;
pub mod serve;
pub mod simperf;
pub mod summary;
pub mod table1;
pub mod tuner;
pub mod validate;
pub mod whatif;

use crate::config::ExpConfig;
use crate::output::Experiment;
use cell::{Cell, Plan, Platform, Table};
use serde_json::{json, Value};
use windex_core::prelude::*;

/// The targets `all` stands for, in output order.
const ALL: &str = "table1 fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 ablations \
                   serve whatif-gh200 validate-scale summary";

/// The targets `ablations` stands for.
const ABLATIONS: &str = "ablation-bits ablation-overlap ablation-pages ablation-node-size \
                         ablation-fanout ablation-keydist ablation-warm ablation-spill \
                         ablation-subwarp";

/// Append `name`'s targets to `out`, expanding `all` and `ablations` and
/// skipping targets already there.
fn expand<'a>(name: &'a str, out: &mut Vec<&'a str>) {
    match name {
        "all" => ALL.split_whitespace().for_each(|t| expand(t, out)),
        "ablations" => ABLATIONS.split_whitespace().for_each(|t| expand(t, out)),
        t if !out.contains(&t) => out.push(t),
        _ => {}
    }
}

/// The plan of the target `name`; `None` if there is no such target.
fn plan<'a>(name: &str, cfg: &'a ExpConfig) -> Option<Plan<'a>> {
    use ablations as ab;
    let alone = |run: fn(&ExpConfig) -> Experiment| Plan::alone(move || Ok(run(cfg)));
    let gate = |run: fn(&ExpConfig) -> Result<Experiment, String>| Plan::alone(move || run(cfg));
    Some(match name {
        "table1" => alone(|_| table1::table1()),
        "fig1" => alone(fig1::fig1),
        "fig3" => figs34::fig3(cfg),
        "fig4" => figs34::fig4(cfg),
        "fig5" => figs56::fig5(cfg),
        "fig6" => figs56::fig6(cfg),
        "fig7" => fig7::fig7(cfg),
        "fig8" => fig8::fig8(cfg),
        "fig9" => fig9::fig9(cfg),
        "ablation-bits" => ab::ablation_bits(cfg),
        "ablation-overlap" => ab::ablation_overlap(cfg),
        "ablation-pages" => ab::ablation_pages(cfg),
        "ablation-node-size" => ab::ablation_node_size(cfg),
        "ablation-fanout" => ab::ablation_fanout(cfg),
        "ablation-keydist" => ab::ablation_keydist(cfg),
        "ablation-warm" => alone(ab::ablation_warm),
        "ablation-spill" => ab::ablation_spill(cfg),
        "ablation-subwarp" => ab::ablation_subwarp(cfg),
        "serve" => alone(serve::serve),
        "whatif-gh200" => whatif::whatif_gh200(cfg),
        "validate-scale" => validate::validate_scale(cfg),
        "summary" => summary::summary(cfg),
        "observe" => alone(observe::observe),
        "baseline" => gate(baseline::baseline),
        "simperf" => gate(simperf::simperf),
        "chaos" => gate(chaos::chaos),
        "cluster" => gate(cluster::cluster),
        "tuner" => gate(tuner::tuner),
        "requests" => gate(requests::requests),
        _ => return None,
    })
}

/// Produce the experiments `targets` name, each once, in order, and hand
/// each to `emit`. The cells of every figure target run first, each
/// distinct cell once on `cfg.jobs` workers, so the output is
/// byte-identical for any job count. An unknown name fails before
/// anything runs; a failing gate or `emit` stops the run.
pub fn run_targets(
    targets: &[&str],
    cfg: &ExpConfig,
    mut emit: impl FnMut(Experiment) -> Result<(), String>,
) -> Result<(), String> {
    let mut names = Vec::new();
    targets.iter().for_each(|t| expand(t, &mut names));
    let plans = names
        .iter()
        .map(|&name| plan(name, cfg).ok_or_else(|| format!("unknown target '{name}'")))
        .collect::<Result<Vec<_>, _>>()?;
    let table = cell::run(plans.iter().flat_map(|p| p.cells.clone()), cfg.jobs);
    for plan in plans {
        emit((plan.render)(&table)?)?;
    }
    Ok(())
}

/// The V100 at the configured scale: the paper's primary platform.
pub fn v100(cfg: &ExpConfig) -> GpuSpec {
    GpuSpec::v100_nvlink2(cfg.scale)
}

/// The windowed INLJ over `index` at the configured window (§5.2.2).
pub fn windowed(cfg: &ExpConfig, index: IndexKind) -> JoinStrategy {
    JoinStrategy::WindowedInlj {
        index,
        window_tuples: cfg.window_tuples,
    }
}

/// An R sweep: per size in `cfg.sweep_gib`, the paper cell of each
/// `(platform, strategy)` column.
pub fn grid(cfg: &ExpConfig, columns: &[(Platform, JoinStrategy)]) -> Vec<(f64, Vec<Cell>)> {
    let row = |gib| {
        let cell = |&(platform, st)| Cell {
            platform,
            ..Cell::paper(cfg, gib, st)
        };
        (gib, columns.iter().map(cell).collect())
    };
    cfg.sweep_gib.iter().map(|&gib| row(gib)).collect()
}

/// A target with one row per entry of `rows`: the entry's leading values,
/// then `values` of its cells' reports. `experiment` renders the rows.
pub fn table<'a>(
    rows: Vec<(Vec<Value>, Vec<Cell>)>,
    values: impl Fn(&[&QueryReport]) -> Vec<Value> + 'a,
    experiment: impl FnOnce(Vec<Vec<Value>>, &Table) -> Experiment + 'a,
) -> Plan<'a> {
    let cells = rows.iter().flat_map(|(_, cells)| cells.clone()).collect();
    Plan::new(cells, move |t| {
        let row = |(lead, cells): (Vec<Value>, Vec<Cell>)| {
            let reports: Vec<_> = cells.iter().map(|c| &t[c]).collect();
            lead.into_iter().chain(values(&reports)).collect()
        };
        experiment(rows.into_iter().map(row).collect(), t)
    })
}

/// A [`table`] over a [`grid`]: per size, the size, then `metric` of each
/// column's report.
pub fn sweep<'a>(
    cfg: &'a ExpConfig,
    columns: &[(Platform, JoinStrategy)],
    metric: impl Fn(&QueryReport) -> Value + 'a,
    experiment: impl FnOnce(Vec<Vec<Value>>, &Table) -> Experiment + 'a,
) -> Plan<'a> {
    let row = |(gib, cells)| (vec![json!(gib)], cells);
    let rows = grid(cfg, columns).into_iter().map(row).collect();
    table(
        rows,
        move |reports| reports.iter().map(|r| metric(r)).collect(),
        experiment,
    )
}

/// A column's Q/s over the R sweep, as (gib, q/s).
pub fn qps_series(
    cfg: &ExpConfig,
    t: &Table,
    (platform, st): (Platform, JoinStrategy),
) -> Vec<(f64, f64)> {
    let qps = |(gib, cells): (f64, Vec<Cell>)| (gib, t[&cells[0]].queries_per_second());
    grid(cfg, &[(platform, st)]).into_iter().map(qps).collect()
}

/// A platform comparison over the R sweep: its header and its columns,
/// each platform's strategies in turn.
pub fn compare(
    platforms: &[(&str, Platform)],
    strategies: &[(&str, JoinStrategy)],
) -> (Vec<String>, Vec<(Platform, JoinStrategy)>) {
    let mut header = vec!["R (GiB)".to_string()];
    let mut columns = Vec::new();
    for &(plat, platform) in platforms {
        for &(name, st) in strategies {
            header.push(format!("Q/s {plat} {name}"));
            columns.push((platform, st));
        }
    }
    (header, columns)
}

/// Column names.
pub fn header(columns: &[&str]) -> Vec<String> {
    columns.iter().map(|c| c.to_string()).collect()
}

/// A header: `lead`, then one column per index, named by `name`.
pub fn per_index(lead: &[&str], name: impl Fn(IndexKind) -> String) -> Vec<String> {
    let mut columns = header(lead);
    columns.extend(IndexKind::all().map(name));
    columns
}

/// `strategies`, each on the V100.
pub fn on_v100(strategies: &[JoinStrategy]) -> Vec<(Platform, JoinStrategy)> {
    strategies.iter().map(|&st| (Platform::V100, st)).collect()
}

/// Interpolate the R size (paper GiB) where the `inlj` series crosses above
/// the `hash` series; both series are (gib, q/s) aligned on the same xs.
/// Returns `None` if no crossover occurs inside the sweep.
pub fn crossover_gib(series_hash: &[(f64, f64)], series_inlj: &[(f64, f64)]) -> Option<f64> {
    assert_eq!(series_hash.len(), series_inlj.len(), "series must align");
    let diffs: Vec<(f64, f64)> = (series_hash.iter().zip(series_inlj))
        .map(|(&(x, h), &(_, i))| (x, i - h))
        .collect();
    diffs.windows(2).find_map(|w| {
        let [(x0, d0), (x1, d1)] = [w[0], w[1]];
        // Linear interpolation of the sign change.
        (d0 < 0.0 && d1 >= 0.0).then(|| x0 + d0 / (d0 - d1) * (x1 - x0))
    })
}

/// The experiments of `targets`, from one [`run_targets`] call.
#[cfg(test)]
pub(crate) fn render(targets: &[&str], cfg: &ExpConfig) -> Vec<Experiment> {
    let mut out = Vec::new();
    run_targets(targets, cfg, |exp| {
        out.push(exp);
        Ok(())
    })
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cell::{RInput, SInput};
    use std::sync::Mutex;

    #[test]
    fn crossover_interpolates() {
        let hash = [(1.0, 4.0), (2.0, 2.0), (4.0, 1.0)];
        let inlj = [(1.0, 1.5), (2.0, 1.5), (4.0, 1.5)];
        let x = crossover_gib(&hash, &inlj).unwrap();
        assert!(x > 2.0 && x < 4.0, "crossover {x}");
    }

    #[test]
    fn no_crossover_when_hash_always_wins() {
        let hash = [(1.0, 4.0), (2.0, 3.0)];
        let inlj = [(1.0, 1.0), (2.0, 1.0)];
        assert_eq!(crossover_gib(&hash, &inlj), None);
    }

    #[test]
    fn workload_sizes_match_scale() {
        let cfg = ExpConfig::quick();
        let r = RInput::paper(cfg.scale, 1.0).generate();
        assert_eq!(r.len(), 1 << 17); // 1 paper GiB = 2^17 sim tuples
        let s = SInput::uniform(cfg.s_tuples).generate(&r);
        assert_eq!(s.len(), cfg.s_tuples);
    }

    /// A reduced configuration under which `all` runs in seconds.
    fn tiny() -> ExpConfig {
        let mut cfg = ExpConfig::quick();
        cfg.s_tuples = 1 << 10;
        cfg.sweep_gib = vec![1.0, 48.0];
        cfg.fixed_r_gib = 16.0;
        cfg
    }

    fn ids(targets: &[&str], cfg: &ExpConfig) -> Vec<String> {
        let mut ids = Vec::new();
        run_targets(targets, cfg, |exp| {
            ids.push(exp.id);
            Ok(())
        })
        .unwrap();
        ids
    }

    #[test]
    fn each_target_emits_only_its_own_experiment_once() {
        let cfg = tiny();
        assert_eq!(ids(&["fig5"], &cfg), ["fig5"]);
        assert_eq!(ids(&["fig6", "fig5", "fig6"], &cfg), ["fig6", "fig5"]);
    }

    #[test]
    fn an_unknown_target_fails_before_anything_runs() {
        let mut emitted = 0;
        let err = run_targets(&["table1", "fig10"], &tiny(), |_| {
            emitted += 1;
            Ok(())
        });
        assert_eq!(err, Err("unknown target 'fig10'".to_string()));
        assert_eq!(emitted, 0);
    }

    #[test]
    fn all_renders_byte_identically_for_any_job_count() {
        let render = |jobs| {
            let mut cfg = tiny();
            cfg.jobs = jobs;
            let mut out = Vec::new();
            run_targets(&["all"], &cfg, |exp| {
                let json = serde_json::to_string_pretty(&exp).unwrap();
                out.push((exp.id.clone(), json, exp.render_text()));
                Ok(())
            })
            .unwrap();
            out
        };
        let serial = render(1);
        assert_eq!(serial.len(), 22, "all writes 22 experiments");
        assert_eq!(serial, render(4));
    }

    #[test]
    fn the_runner_runs_each_distinct_cell_once() {
        let cfg = tiny();
        let mut names = Vec::new();
        expand("all", &mut names);
        let declared: Vec<Cell> = names
            .iter()
            .flat_map(|&name| plan(name, &cfg).unwrap().cells)
            .collect();
        let distinct = declared
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert!(
            distinct < declared.len(),
            "{distinct} of {}",
            declared.len()
        );

        // One real report stands in for every query: only the count and
        // identity of the runs matter here.
        let stand_in = Cell::paper(&cfg, 1.0, JoinStrategy::HashJoin);
        let report = cell::run([stand_in], 1).remove(&stand_in).unwrap();
        let ran = Mutex::new(Vec::new());
        let table = cell::run_with(declared.iter().copied(), 2, |cell, _, _| {
            ran.lock().unwrap().push(*cell);
            report.clone()
        });
        let mut ran = ran.into_inner().unwrap();
        assert_eq!(ran.len(), distinct);
        ran.sort();
        ran.dedup();
        assert_eq!(ran.len(), distinct, "a cell ran twice");
        assert_eq!(table.len(), distinct);
    }
}
