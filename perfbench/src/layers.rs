//! Per-layer metrics of a traced run: direct probes of single layers on the
//! workload's own inputs, and the per-layer figures computed from spans and
//! op reports.

use crate::median;
use crate::spans::{self, span, Span, PASS_OP, PROBE_OP, SETUP_OP};
use crate::workloads::{index_key, strategies, strategy_key, OpStats, ProbeInputs};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::rc::Rc;
use windex::core::{BuiltIndex, IndexConfigs, QueryExecutor};
use windex::index::IndexKind;
use windex::join::{HashTableConfig, MultiValueHashTable, RadixPartitioner};
use windex::sim::{Counters, Gpu, GpuSpec, Scale, WARP_SIZE};

/// Repetitions of each timed probe; metrics take the median.
const PROBE_REPS: usize = 3;
/// Index kinds whose build is real work (binary search builds nothing).
const BUILT_KINDS: [IndexKind; 3] = [
    IndexKind::BPlusTree,
    IndexKind::Harmonia,
    IndexKind::RadixSpline,
];

/// Every per-layer metric, with its unit, in output order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("workload.gen_s".into(), "s"),
        ("sim.accesses_per_op".into(), "count"),
        ("sim.accesses_per_s".into(), "1/s"),
        ("sim.l1_hit_rate".into(), "ratio"),
        ("sim.tlb_hit_rate".into(), "ratio"),
        ("sim.translations_per_lookup".into(), "count"),
        ("sim.ic_bytes_per_key".into(), "B"),
    ];
    for k in BUILT_KINDS {
        m.push((format!("index.build_s.{}", index_key(k)), "s"));
    }
    for k in IndexKind::all() {
        m.push((format!("index.lookup_ns_per_key.{}", index_key(k)), "ns"));
    }
    for k in IndexKind::all() {
        m.push((
            format!("index.accesses_per_lookup.{}", index_key(k)),
            "count",
        ));
    }
    for n in ["partition", "hash_build", "hash_probe"] {
        m.push((format!("join.{n}_ns_per_key"), "ns"));
    }
    m.push(("core.session_new_ms".into(), "ms"));
    for s in strategies() {
        m.push((format!("core.query_ms.{}", strategy_key(s)), "ms"));
    }
    for n in ["windows", "tuner_switches", "pinned_batches"] {
        m.push((format!("core.{n}"), "count"));
    }
    for h in ["server", "cluster", "tuned_lanes"] {
        m.push((format!("serve.run_ms.{h}"), "ms"));
    }
    for h in ["server", "cluster"] {
        m.push((format!("serve.us_per_request.{h}"), "us"));
    }
    m.extend([
        ("serve.spans_per_request".into(), "count"),
        ("serve.mean_batch_keys".into(), "count"),
        ("serve.shed_frac".into(), "ratio"),
        ("serve.parallel_speedup".into(), "x"),
        ("export.json_ms".into(), "ms"),
        ("export.json_bytes".into(), "B"),
        ("export.openmetrics_ms".into(), "ms"),
        ("trace.overhead_frac".into(), "ratio"),
    ]);
    m
}

/// What the layer probes measured besides their spans.
#[derive(Debug, Default)]
pub struct ProbeResult {
    keys: usize,
    hash_probe_keys: usize,
    accesses_per_lookup: BTreeMap<&'static str, f64>,
}

fn accesses(c: &Counters) -> u64 {
    c.l1_hits + c.l1_misses + c.tlb_hits + c.tlb_misses
}

/// Call each layer directly on the workload's inputs, inside spans of op
/// [`PROBE_OP`], and check what the calls return.
pub fn probe(inputs: &ProbeInputs<'_>) -> Result<ProbeResult, String> {
    let spec = GpuSpec::v100_nvlink2(Scale::PAPER);
    let configs = IndexConfigs::default();
    spans::set_op(PROBE_OP);
    // Cold builds: a fresh thread starts with empty build memos.
    let relations: Vec<_> = inputs.relations.iter().map(|r| (*r).clone()).collect();
    let built = std::thread::scope(|s| {
        s.spawn(|| {
            spans::set_enabled(true);
            spans::set_op(PROBE_OP);
            let mut gpu = Gpu::new(spec.clone());
            for r in &relations {
                let col = Rc::new(gpu.alloc_host_shared(r.keys_shared()));
                // Each kind twice: the second build finds this thread's memos warm.
                for phase in ["build", "build_warm"] {
                    for kind in BUILT_KINDS {
                        span(
                            || format!("index.{phase}.{}", index_key(kind)),
                            || black_box(BuiltIndex::build(&mut gpu, kind, &col, &configs)),
                        );
                    }
                }
            }
            spans::take()
        })
        .join()
    })
    .map_err(|_| "cold-build probe thread panicked".to_string())?;
    spans::absorb(built);

    let keys = &inputs.keys;
    let target = inputs.target;
    let mut result = ProbeResult {
        keys: keys.len(),
        ..ProbeResult::default()
    };
    let mut gpu = Gpu::new(spec);
    let col = Rc::new(gpu.alloc_host_shared(target.keys_shared()));
    for kind in IndexKind::all() {
        let index = BuiltIndex::build(&mut gpu, kind, &col, &configs);
        let mut out = [None; WARP_SIZE];
        let before = gpu.snapshot();
        let mut found = 0usize;
        for _ in 0..PROBE_REPS {
            span(
                || format!("index.lookup.{}", index_key(kind)),
                || {
                    for warp in keys.chunks(WARP_SIZE) {
                        index
                            .as_dyn()
                            .lookup_warp(&mut gpu, warp, &mut out[..warp.len()]);
                        found += out[..warp.len()].iter().flatten().count();
                    }
                },
            );
        }
        if found != PROBE_REPS * keys.len() {
            return Err(format!("{kind} lookup missed a key present in R"));
        }
        let delta = gpu.snapshot() - before;
        let per_lookup = accesses(&delta) as f64 / (PROBE_REPS * keys.len()) as f64;
        result
            .accesses_per_lookup
            .insert(index_key(kind), per_lookup);
    }

    let bits = QueryExecutor::new().resolve_bits(&gpu, target);
    let partitioner = RadixPartitioner::new(bits, target.min_key().unwrap_or(0));
    let buf = gpu.alloc_host_from_vec(keys.clone());
    for _ in 0..PROBE_REPS {
        let parts = span(
            || "join.partition".into(),
            || partitioner.partition_stream(&mut gpu, &buf, 0..keys.len()),
        )
        .map_err(|e| e.to_string())?;
        if parts.len() != keys.len() {
            return Err("partitioner lost keys".into());
        }
        parts.free(&mut gpu);
    }

    // The hash join builds on the probe keys and scans R against them.
    let scan = &target.keys()[..target.len().min(4 * keys.len())];
    let mut multiplicity: HashMap<u64, usize> = HashMap::new();
    for &k in keys {
        *multiplicity.entry(k).or_default() += 1;
    }
    let expected: usize = scan.iter().filter_map(|k| multiplicity.get(k)).sum();
    result.hash_probe_keys = scan.len();
    for _ in 0..PROBE_REPS {
        let mut table = MultiValueHashTable::new(&mut gpu, keys.len(), HashTableConfig::default())
            .map_err(|e| e.to_string())?;
        span(
            || "join.hash_build".into(),
            || {
                keys.iter()
                    .enumerate()
                    .try_for_each(|(i, &k)| table.insert(&mut gpu, k, i as u64))
            },
        )
        .map_err(|e| e.to_string())?;
        let matches: usize = span(
            || "join.hash_probe".into(),
            || scan.iter().map(|&k| table.count(&mut gpu, k)).sum(),
        );
        if matches != expected {
            return Err("hash table probe count differs from the key multiset".into());
        }
        table.free(&mut gpu);
    }
    Ok(result)
}

/// One checked op of a traced run.
#[derive(Debug)]
pub struct TracedOp {
    pub host_s: f64,
    pub stats: OpStats,
}

/// Everything a traced run recorded.
pub struct Recorded<'a> {
    pub spans: &'a [Span],
    pub self_s: &'a [f64],
    /// Checked traced ops of the workload itself.
    pub own: &'a [TracedOp],
    /// Checked ops of the other workloads, run once each for the layers the
    /// workload's own ops never call.
    pub pass: &'a [TracedOp],
    pub probe: &'a ProbeResult,
    pub traced_op_s: &'a [f64],
    pub untraced_op_s: &'a [f64],
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

impl Recorded<'_> {
    /// Spans, with their self times, whose name passes `name` and whose op
    /// passes `class`.
    fn select(
        &self,
        name: &dyn Fn(&str) -> bool,
        class: &dyn Fn(u64) -> bool,
    ) -> Vec<(&Span, f64)> {
        self.spans
            .iter()
            .zip(self.self_s)
            .filter(|(s, _)| name(&s.name) && class(s.op))
            .map(|(s, &t)| (s, t))
            .collect()
    }

    /// Matching spans of the workload's own ops (set-up included when
    /// `with_setup`), else of the layer pass.
    fn own_or_pass(&self, name: &dyn Fn(&str) -> bool, with_setup: bool) -> Vec<(&Span, f64)> {
        let own = self.select(name, &|op| (op != SETUP_OP || with_setup) && op < PROBE_OP);
        if own.is_empty() {
            self.select(name, &|op| op >= PASS_OP)
        } else {
            own
        }
    }

    /// Mean self time in ms per call of the span `name`.
    fn ms_per_call(&self, name: &str, with_setup: bool) -> f64 {
        let times: Vec<f64> = self
            .own_or_pass(&|n| n == name, with_setup)
            .iter()
            .map(|s| s.1)
            .collect();
        mean(&times) * 1e3
    }

    /// Self time in ms per op of every span whose name starts with `prefix`.
    fn ms_per_op(&self, prefix: &str) -> f64 {
        let spans = self.own_or_pass(&|n| n.starts_with(prefix), false);
        let ops: BTreeSet<u64> = spans.iter().map(|s| s.0.op).collect();
        spans.iter().map(|s| s.1).sum::<f64>() * 1e3 / ops.len() as f64
    }

    /// Summed self seconds of the probe spans named `name`.
    fn probe_s(&self, name: &str) -> f64 {
        self.select(&|n| n == name, &|op| op == PROBE_OP)
            .iter()
            .map(|s| s.1)
            .sum()
    }

    /// Median host ns per key of a probe span.
    fn ns_per_key(&self, name: &str, keys: usize) -> f64 {
        let times: Vec<f64> = self
            .select(&|n| n == name, &|op| op == PROBE_OP)
            .iter()
            .map(|s| s.1)
            .collect();
        median(&times) * 1e9 / keys as f64
    }

    /// The ops whose reports carry `count`: the workload's own, else the pass's.
    fn ops_with(&self, count: &str) -> Vec<&TracedOp> {
        let has = |o: &&TracedOp| o.stats.counts.contains_key(count);
        let own: Vec<&TracedOp> = self.own.iter().filter(has).collect();
        if own.is_empty() {
            self.pass.iter().filter(has).collect()
        } else {
            own
        }
    }

    fn sum(ops: &[&TracedOp], count: &str) -> f64 {
        ops.iter()
            .map(|o| o.stats.counts.get(count).copied().unwrap_or(0.0))
            .sum()
    }

    /// Mean of `count` per op.
    fn per_op(&self, count: &str) -> f64 {
        let ops = self.ops_with(count);
        Self::sum(&ops, count) / ops.len() as f64
    }

    /// `num` over `den`, both summed over the ops that carry `den`.
    fn ratio(&self, num: &str, den: &str) -> f64 {
        let ops = self.ops_with(den);
        Self::sum(&ops, num) / Self::sum(&ops, den)
    }

    /// Every per-layer metric by name.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        let gen = self.select(&|n| n == "workload.gen", &|op| op == SETUP_OP);
        m.insert("workload.gen_s".into(), gen.iter().map(|s| s.1).sum());

        let counters = self
            .own
            .iter()
            .fold(Counters::default(), |acc, o| acc + o.stats.counters);
        let keys: u64 = self.own.iter().map(|o| o.stats.keys).sum();
        let host_s: f64 = self.own.iter().map(|o| o.host_s).sum();
        let acc = accesses(&counters) as f64;
        m.insert("sim.accesses_per_op".into(), acc / self.own.len() as f64);
        m.insert("sim.accesses_per_s".into(), acc / host_s);
        m.insert("sim.l1_hit_rate".into(), counters.l1_hit_rate());
        m.insert("sim.tlb_hit_rate".into(), counters.tlb_hit_rate());
        m.insert(
            "sim.translations_per_lookup".into(),
            counters.translations_per_lookup(),
        );
        m.insert(
            "sim.ic_bytes_per_key".into(),
            counters.ic_bytes_total() as f64 / keys as f64,
        );

        for kind in BUILT_KINDS {
            let k = index_key(kind);
            m.insert(
                format!("index.build_s.{k}"),
                self.probe_s(&format!("index.build.{k}")),
            );
        }
        for kind in IndexKind::all() {
            let k = index_key(kind);
            let ns = self.ns_per_key(&format!("index.lookup.{k}"), self.probe.keys);
            m.insert(format!("index.lookup_ns_per_key.{k}"), ns);
            m.insert(
                format!("index.accesses_per_lookup.{k}"),
                self.probe.accesses_per_lookup[k],
            );
        }
        m.insert(
            "join.partition_ns_per_key".into(),
            self.ns_per_key("join.partition", self.probe.keys),
        );
        m.insert(
            "join.hash_build_ns_per_key".into(),
            self.ns_per_key("join.hash_build", self.probe.keys),
        );
        let probe_ns = self.ns_per_key("join.hash_probe", self.probe.hash_probe_keys);
        m.insert("join.hash_probe_ns_per_key".into(), probe_ns);

        m.insert(
            "core.session_new_ms".into(),
            self.ms_per_call("core.session_new", false),
        );
        for s in strategies() {
            let k = strategy_key(s);
            m.insert(
                format!("core.query_ms.{k}"),
                self.ms_per_call(&format!("core.query.{k}"), false),
            );
        }
        for n in ["windows", "tuner_switches", "pinned_batches"] {
            m.insert(format!("core.{n}"), self.per_op(n));
        }
        for (host, name) in [
            ("server", "serve.server.run"),
            ("cluster", "serve.cluster.run"),
            ("tuned_lanes", "serve.tuned_lanes"),
        ] {
            m.insert(
                format!("serve.run_ms.{host}"),
                self.ms_per_call(name, false),
            );
        }
        let trace_requests = self.per_op("trace_requests");
        for host in ["server", "cluster"] {
            let us = m[&format!("serve.run_ms.{host}")] * 1e3 / trace_requests;
            m.insert(format!("serve.us_per_request.{host}"), us);
        }
        m.insert(
            "serve.spans_per_request".into(),
            self.ratio("spans", "requests"),
        );
        m.insert(
            "serve.mean_batch_keys".into(),
            self.ratio("batch_keys", "batches"),
        );
        m.insert("serve.shed_frac".into(), self.ratio("shed", "requests"));
        let serial = self.ms_per_call("serve.tuned_lanes.1t", true);
        m.insert(
            "serve.parallel_speedup".into(),
            serial / m["serve.run_ms.tuned_lanes"],
        );
        m.insert("export.json_ms".into(), self.ms_per_op("export.json."));
        m.insert("export.json_bytes".into(), self.per_op("json_bytes"));
        m.insert(
            "export.openmetrics_ms".into(),
            self.ms_per_op("export.openmetrics."),
        );
        let overhead = median(self.traced_op_s) / median(self.untraced_op_s) - 1.0;
        m.insert("trace.overhead_frac".into(), overhead);
        m
    }

    /// Where host time went, as shares and ratios: the hash join's share of
    /// join-sweep, export's share of a `Server` op, and cold against warm
    /// index builds over the workload's relations.
    pub fn split_facts(&self) -> Vec<(String, f64)> {
        let total = |name: &str| -> f64 {
            self.own_or_pass(&|n| n == name, false)
                .iter()
                .map(|s| s.1)
                .sum()
        };
        let sweep_s: f64 = self
            .own_or_pass(&|n| n == "op.join-sweep", false)
            .iter()
            .map(|s| s.0.duration_s())
            .sum();
        let export = total("export.json.server") + total("export.openmetrics.server");
        let server = export + total("serve.server.new") + total("serve.server.run");
        let mut facts = vec![
            (
                "join-sweep hash-join share".into(),
                total("core.query.hash_join") / sweep_s,
            ),
            ("server op export share".into(), export / server),
        ];
        for kind in BUILT_KINDS {
            let k = index_key(kind);
            let cold_warm = self.probe_s(&format!("index.build.{k}"))
                / self.probe_s(&format!("index.build_warm.{k}"));
            facts.push((format!("{k} build cold/warm"), cold_warm));
        }
        facts
    }
}
