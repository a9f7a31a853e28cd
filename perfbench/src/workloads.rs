//! The three seeded workloads. Each builds its inputs from the seed alone,
//! runs one op through the workspace's public API, and checks the op's
//! outputs. Spans (see [`crate::spans`]) wrap every call into a layer.

use crate::spans::span;
use std::collections::BTreeMap;
use std::rc::Rc;
use windex::core::{
    BuiltIndex, IndexConfigs, JoinStrategy, QueryExecutor, QueryReport, QuerySession,
};
use windex::index::IndexKind;
use windex::serve::{
    generate_tenant_trace, generate_trace, merge_traces, render_cluster_openmetrics,
    render_openmetrics, serve_tuned_tenant_parallel, ClusterConfig, ClusterOutcome, ClusterServer,
    ClusterSpec, LatencyStats, LookupResponse, ParallelTunedOutcome, RequestOutcome, ServeConfig,
    ServeOutcome, Server, TenantId, TimedRequest, TraceConfig, TunedConfig,
};
use windex::sim::{ChaosScenario, ChaosSchedule, Counters, Gpu, GpuSpec, InterconnectSpec, Scale};
use windex::workload::{KeyDistribution, Relation};

/// Input sizes. [`Size::full`] is what the benchmark runs; the self-tests
/// use [`Size::small`].
#[derive(Debug, Clone)]
pub struct Size {
    /// join-sweep: paper-scale GiB of each indexed relation R.
    pub sweep_gib: Vec<f64>,
    /// join-sweep: probe keys in each S.
    pub s_tuples: usize,
    /// serve-hosts: paper-scale GiB of the served relation.
    pub hosts_gib: f64,
    /// serve-hosts: requests in the trace.
    pub hosts_requests: usize,
    /// serve-tenants: paper-scale GiB of each tenant's relation, by tenant id.
    pub tenant_gib: Vec<f64>,
    /// serve-tenants: requests per tenant.
    pub tenant_requests: usize,
}

impl Size {
    pub fn full() -> Self {
        Size {
            sweep_gib: vec![1.0, 16.0, 64.0],
            s_tuples: 8 << 10,
            hosts_gib: 1.0,
            hosts_requests: 2048,
            tenant_gib: [1.0, 16.0].repeat(4),
            tenant_requests: 16,
        }
    }

    #[cfg(test)]
    pub fn small() -> Self {
        Size {
            sweep_gib: vec![0.05, 0.1],
            s_tuples: 256,
            hosts_gib: 0.05,
            hosts_requests: 48,
            tenant_gib: vec![0.05, 0.1],
            tenant_requests: 3,
        }
    }
}

/// Simulated window capacity of the windowed INLJ (the experiments' default).
const WINDOW_TUPLES: usize = 1 << 12;
/// Zipf exponent of the skewed probe relation.
const ZIPF_EXPONENT: f64 = 1.5;
/// serve-hosts: tenants, offered load, keys per request, latency budget
/// and cluster size. The single-GPU server's knee for these requests is
/// near 2 500 req/s; at 1 000 req/s its p99 varies about 7 % across seeds
/// (interquartile range over median), at 2 000 req/s about 10 %.
const HOSTS_TENANTS: u32 = 8;
const HOSTS_RATE_RPS: f64 = 1_000.0;
const HOSTS_KEYS: (usize, usize) = (16, 64);
const HOSTS_DEADLINE_S: f64 = 0.005;
const HOSTS_GPUS: usize = 4;
/// serve-tenants: per-tenant offered load, keys per request, batch size
/// and worker threads. Batches of 8 Ki keys dispatch from the first
/// milliseconds on, so the device-loss window always meets a dispatch.
const TENANT_RATE_RPS: f64 = 1_000.0;
const TENANT_KEYS: (usize, usize) = (1_536, 2_560);
const TENANT_BATCH_KEYS: usize = 8 << 10;
const TENANT_THREADS: usize = 2;

/// The seven join strategies of the sweep, in op order.
pub fn strategies() -> [JoinStrategy; 7] {
    [
        JoinStrategy::HashJoin,
        JoinStrategy::Inlj {
            index: IndexKind::BinarySearch,
        },
        JoinStrategy::Inlj {
            index: IndexKind::RadixSpline,
        },
        JoinStrategy::Inlj {
            index: IndexKind::BPlusTree,
        },
        JoinStrategy::PartitionedInlj {
            index: IndexKind::RadixSpline,
        },
        JoinStrategy::WindowedInlj {
            index: IndexKind::Harmonia,
            window_tuples: WINDOW_TUPLES,
        },
        JoinStrategy::WindowedInlj {
            index: IndexKind::RadixSpline,
            window_tuples: WINDOW_TUPLES,
        },
    ]
}

/// Metric-name form of an index kind.
pub fn index_key(kind: IndexKind) -> &'static str {
    match kind {
        IndexKind::BinarySearch => "binary_search",
        IndexKind::BPlusTree => "btree",
        IndexKind::Harmonia => "harmonia",
        IndexKind::RadixSpline => "radix_spline",
    }
}

/// Metric-name form of a join strategy.
pub fn strategy_key(s: JoinStrategy) -> String {
    match s {
        JoinStrategy::HashJoin => "hash_join".into(),
        JoinStrategy::Inlj { index } => format!("inlj.{}", index_key(index)),
        JoinStrategy::PartitionedInlj { index } => format!("partitioned_inlj.{}", index_key(index)),
        JoinStrategy::WindowedInlj { index, .. } => format!("windowed_inlj.{}", index_key(index)),
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generator seed of input `tag`, derived from the workload seed.
fn sub_seed(seed: u64, tag: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ tag)
}

fn spec() -> GpuSpec {
    GpuSpec::v100_nvlink2(Scale::PAPER)
}

fn gen<T>(f: impl FnOnce() -> T) -> T {
    span(|| "workload.gen".into(), f)
}

/// Serialize an op's report, in span `export.json.<what>`.
fn json<T: serde::Serialize>(what: &str, value: &T) -> Result<String, String> {
    span(
        || format!("export.json.{what}"),
        || serde_json::to_string(value),
    )
    .map_err(|e| e.to_string())
}

fn sparse_relation(gib: f64, seed: u64) -> Relation {
    let n = Scale::PAPER.sim_tuples_for_paper_gib(gib);
    gen(|| Relation::unique_sorted(n, KeyDistribution::SparseUniform, seed))
}

/// What an op did, from the reports it returned.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Simulated probe keys the op completed.
    pub keys: u64,
    /// Simulated memory-system counters summed over the op.
    pub counters: Counters,
    /// Named counts (windows, requests, spans, ...), summed over the op.
    pub counts: BTreeMap<&'static str, f64>,
}

impl OpStats {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }
}

/// The paper-scale figures the simulator's cost model reports for one
/// unit of ops. They are a pure function of the seed.
#[derive(Debug, Clone, Copy)]
pub struct Modelled {
    pub qps: f64,
    pub p99_ms: f64,
    pub goodput_rps: f64,
}

/// Inputs for the single-layer probes.
pub struct ProbeInputs<'a> {
    /// Every distinct indexed relation of the workload.
    pub relations: Vec<&'a Relation>,
    /// The relation the lookup, partition and hash probes run against.
    pub target: &'a Relation,
    /// Probe keys, all present in `target`.
    pub keys: Vec<u64>,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    type Output;

    /// Build every input from `seed`, stage and warm up, and record the
    /// reference outputs the ops are checked against.
    fn setup(seed: u64, size: &Size) -> Result<Self, String>;
    /// Ops in one unit; a run measures whole units.
    fn unit_ops(&self) -> usize;
    /// Run op `i` of the unit.
    fn run(&mut self, i: usize) -> Result<Self::Output, String>;
    /// Check op `i`'s outputs and summarize them.
    fn check(&self, i: usize, out: &Self::Output) -> Result<OpStats, String>;
    fn modelled(&self) -> Modelled;
    fn probe_inputs(&self) -> ProbeInputs<'_>;
}

// ---------------------------------------------------------------- join-sweep

struct Cell {
    r: usize,
    s: usize,
    strategy: JoinStrategy,
    reference: String,
    report: QueryReport,
}

pub struct JoinSweep {
    rs: Vec<Relation>,
    ss: Vec<(usize, Relation)>,
    cells: Vec<Cell>,
    executor: QueryExecutor,
}

pub struct JoinOutput {
    pub report: QueryReport,
    pub json: String,
}

impl Workload for JoinSweep {
    const NAME: &'static str = "join-sweep";
    type Output = JoinOutput;

    fn setup(seed: u64, size: &Size) -> Result<Self, String> {
        let rs: Vec<Relation> = (0..size.sweep_gib.len())
            .map(|i| sparse_relation(size.sweep_gib[i], sub_seed(seed, 1 + i as u64)))
            .collect();
        let mut ss = Vec::new();
        for (i, r) in rs.iter().enumerate() {
            let n = size.s_tuples;
            ss.push((
                i,
                gen(|| Relation::foreign_keys_uniform(r, n, sub_seed(seed, 10 + i as u64))),
            ));
            ss.push((
                i,
                gen(|| {
                    Relation::foreign_keys_zipf(r, n, ZIPF_EXPONENT, sub_seed(seed, 20 + i as u64))
                }),
            ));
        }
        // Cold builds of the memoized index kinds: later builds over the same
        // columns on this thread reuse the fits.
        let mut gpu = Gpu::new(spec());
        for r in &rs {
            let col = Rc::new(gpu.alloc_host_shared(r.keys_shared()));
            for kind in [IndexKind::RadixSpline, IndexKind::Harmonia] {
                span(
                    || format!("index.build.{}", index_key(kind)),
                    || BuiltIndex::build(&mut gpu, kind, &col, &IndexConfigs::default()),
                );
            }
        }
        // Warm-up: every cell once through `QueryExecutor::run`, which is the
        // reference each later repetition must reproduce byte for byte.
        let executor = QueryExecutor::new();
        let mut cells = Vec::new();
        for (s, (r, probe)) in ss.iter().enumerate() {
            for strategy in strategies() {
                let mut gpu = Gpu::new(spec());
                let report = executor
                    .run(&mut gpu, &rs[*r], probe, strategy)
                    .map_err(|e| format!("{strategy}: {e}"))?;
                if report.result_tuples != probe.len() {
                    return Err(format!("{strategy}: reference result_tuples != |S|"));
                }
                let reference = serde_json::to_string(&report).map_err(|e| e.to_string())?;
                cells.push(Cell {
                    r: *r,
                    s,
                    strategy,
                    reference,
                    report,
                });
            }
        }
        Ok(JoinSweep {
            rs,
            ss,
            cells,
            executor,
        })
    }

    fn unit_ops(&self) -> usize {
        self.cells.len()
    }

    /// `QueryExecutor::run`'s body, split into its public calls.
    fn run(&mut self, i: usize) -> Result<JoinOutput, String> {
        let cell = &self.cells[i];
        let (r, s) = (&self.rs[cell.r], &self.ss[cell.s].1);
        let mut gpu = Gpu::new(spec());
        let mut session = span(
            || "core.session_new".into(),
            || QuerySession::new(&mut gpu, self.executor.clone(), r.clone(), s.clone()),
        )
        .map_err(|e| e.to_string())?;
        if let Some(kind) = cell.strategy.index_kind() {
            span(
                || format!("core.index.{}", index_key(kind)),
                || {
                    session.index(&mut gpu, kind);
                },
            );
        }
        let report = span(
            || format!("core.query.{}", strategy_key(cell.strategy)),
            || session.run(&mut gpu, cell.strategy),
        )
        .map_err(|e| e.to_string())?;
        let json = json("query", &report)?;
        Ok(JoinOutput { report, json })
    }

    fn check(&self, i: usize, out: &JoinOutput) -> Result<OpStats, String> {
        let cell = &self.cells[i];
        let s_len = self.ss[cell.s].1.len();
        if out.report.result_tuples != s_len {
            return Err(format!(
                "{}: {} result tuples for |S| = {s_len}",
                cell.strategy, out.report.result_tuples
            ));
        }
        if out.json != cell.reference {
            return Err(format!(
                "{}: report differs from the cell's first run",
                cell.strategy
            ));
        }
        let mut stats = OpStats {
            keys: s_len as u64,
            counters: out.report.counters,
            ..OpStats::default()
        };
        stats.add("windows", out.report.windows as f64);
        stats.add("json_bytes", out.json.len() as f64);
        Ok(stats)
    }

    /// Geometric-mean Q/s over the cells; p99 of the cells' modelled query
    /// times; queries per modelled second of the whole sweep.
    fn modelled(&self) -> Modelled {
        let n = self.cells.len() as f64;
        let log_qps: f64 = self
            .cells
            .iter()
            .map(|c| c.report.queries_per_second().ln())
            .sum();
        let times: Vec<f64> = self.cells.iter().map(|c| c.report.time.total_s).collect();
        Modelled {
            qps: (log_qps / n).exp(),
            p99_ms: LatencyStats::from_samples(times.clone()).p99_s * 1e3,
            goodput_rps: n / times.iter().sum::<f64>(),
        }
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        let last = self.rs.len() - 1;
        let keys = self
            .ss
            .iter()
            .find(|(r, _)| *r == last)
            .map(|(_, s)| s.keys().to_vec());
        ProbeInputs {
            relations: self.rs.iter().collect(),
            target: &self.rs[last],
            keys: keys.unwrap_or_default(),
        }
    }
}

// --------------------------------------------------------------- serve-hosts

pub struct ServeHosts {
    r: Relation,
    trace: Vec<TimedRequest>,
    serve: ServeConfig,
    cluster: ClusterConfig,
    reference: (String, String),
    modelled: Modelled,
}

pub struct HostsOutput {
    pub server: ServeOutcome,
    pub cluster: ClusterOutcome,
    pub server_json: String,
    pub cluster_json: String,
    pub server_metrics: String,
    pub cluster_metrics: String,
    pub cluster_counters: Counters,
}

impl ServeHosts {
    fn round(&self) -> Result<HostsOutput, String> {
        let mut gpu = Gpu::new(spec());
        let mut server = span(
            || "serve.server.new".into(),
            || Server::new(&mut gpu, self.serve, self.r.clone()),
        )
        .map_err(|e| e.to_string())?;
        let server_out = span(
            || "serve.server.run".into(),
            || server.run(&mut gpu, &self.trace),
        )
        .map_err(|e| e.to_string())?;
        let server_json = json("server", &server_out.report)?;
        let server_metrics = span(
            || "export.openmetrics.server".into(),
            || render_openmetrics(&server_out.report),
        );

        let mut cluster = span(
            || "serve.cluster.new".into(),
            || ClusterServer::new(self.cluster.clone(), self.r.clone()),
        )
        .map_err(|e| e.to_string())?;
        let before = shard_counters(&mut cluster);
        let cluster_out = span(|| "serve.cluster.run".into(), || cluster.run(&self.trace))
            .map_err(|e| e.to_string())?;
        let cluster_counters = shard_counters(&mut cluster) - before;
        let cluster_json = json("cluster", &cluster_out.report)?;
        let cluster_metrics = span(
            || "export.openmetrics.cluster".into(),
            || render_cluster_openmetrics(&cluster_out.report),
        );
        Ok(HostsOutput {
            server: server_out,
            cluster: cluster_out,
            server_json,
            server_metrics,
            cluster_metrics,
            cluster_json,
            cluster_counters,
        })
    }

    /// The invariants of one round that hold without a reference.
    fn check_round(&self, out: &HostsOutput) -> Result<(), String> {
        if ![&out.server_metrics, &out.cluster_metrics]
            .iter()
            .all(|m| m.ends_with("# EOF\n"))
        {
            return Err("OpenMetrics text is not terminated by # EOF".into());
        }
        let rep = &out.server.report;
        check_accounting(
            "server",
            &out.server.responses,
            self.trace.len(),
            (rep.completed, rep.shed, rep.deadline_missed),
        )?;
        let rep = &out.cluster.report;
        check_accounting(
            "cluster",
            &out.cluster.responses,
            self.trace.len(),
            (rep.completed, rep.shed, rep.deadline_missed),
        )?;
        let keys = self.r.keys();
        for (t, resp) in self.trace.iter().zip(&out.server.responses) {
            if resp.outcome == RequestOutcome::Shed {
                continue;
            }
            // Every probe key is a foreign key: exactly one match each, at
            // the key's own position in R.
            let exact = resp.matches.len() == t.request.keys.len()
                && resp
                    .matches
                    .iter()
                    .all(|&(k, pos)| keys.get(pos as usize) == Some(&k));
            if !exact {
                return Err(format!("server request {}: wrong match set", resp.request));
            }
        }
        for (s, c) in out.server.responses.iter().zip(&out.cluster.responses) {
            if s.outcome == RequestOutcome::Shed || c.outcome == RequestOutcome::Shed {
                continue;
            }
            if sorted(&s.matches) != sorted(&c.matches) {
                return Err(format!(
                    "request {}: cluster and server match sets differ",
                    s.request
                ));
            }
        }
        Ok(())
    }
}

fn shard_counters(cluster: &mut ClusterServer) -> Counters {
    (0..cluster.gpus()).fold(Counters::default(), |acc, g| {
        acc + cluster.shard_gpu_mut(g).counters()
    })
}

fn sorted(m: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut m = m.to_vec();
    m.sort_unstable();
    m
}

/// Every request left the host exactly once, in request-id order, and the
/// report's tallies agree with the responses.
fn check_accounting(
    host: &str,
    responses: &[LookupResponse],
    requests: usize,
    (completed, shed, missed): (usize, usize, usize),
) -> Result<(), String> {
    if responses.len() != requests
        || responses
            .iter()
            .enumerate()
            .any(|(i, r)| r.request != i as u64)
    {
        return Err(format!(
            "{host}: responses do not cover each request exactly once"
        ));
    }
    let count = |o: RequestOutcome| responses.iter().filter(|r| r.outcome == o).count();
    let tallies = (
        count(RequestOutcome::Completed),
        count(RequestOutcome::Shed),
        count(RequestOutcome::DeadlineMissed),
    );
    if tallies != (completed, shed, missed) || completed + shed + missed != requests {
        return Err(format!("{host}: outcome tallies disagree with the report"));
    }
    Ok(())
}

impl Workload for ServeHosts {
    const NAME: &'static str = "serve-hosts";
    type Output = HostsOutput;

    fn setup(seed: u64, size: &Size) -> Result<Self, String> {
        let r = sparse_relation(size.hosts_gib, sub_seed(seed, 1));
        let cfg = TraceConfig {
            seed: sub_seed(seed, 30),
            tenants: HOSTS_TENANTS,
            requests: size.hosts_requests,
            min_keys: HOSTS_KEYS.0,
            max_keys: HOSTS_KEYS.1,
            offered_load_rps: HOSTS_RATE_RPS,
            deadline_s: Some(HOSTS_DEADLINE_S),
        };
        let trace = gen(|| generate_trace(&cfg, &r));
        let topology = ClusterSpec::sharded(HOSTS_GPUS, spec(), InterconnectSpec::nvlink4_peer());
        // Both hosts partition on the cluster's shard bits, so their match
        // sets are comparable request by request.
        let serve = ServeConfig {
            partition_bits: Some(topology.shard_bits(&r).map_err(|e| e.to_string())?),
            ..ServeConfig::default()
        };
        let mut hosts = ServeHosts {
            r,
            trace,
            serve,
            cluster: ClusterConfig {
                serve,
                cluster: topology,
            },
            reference: Default::default(),
            modelled: Modelled {
                qps: 0.0,
                p99_ms: 0.0,
                goodput_rps: 0.0,
            },
        };
        let first = hosts.round()?;
        hosts.check_round(&first)?;
        let (s, c) = (&first.server.report, &first.cluster.report);
        let served = |rs: &[LookupResponse]| {
            rs.iter()
                .filter(|r| r.outcome != RequestOutcome::Shed)
                .map(|r| r.latency_s)
                .collect::<Vec<_>>()
        };
        let mut latencies = served(&first.server.responses);
        latencies.extend(served(&first.cluster.responses));
        let makespan = s.virtual_makespan_s + c.virtual_makespan_s;
        hosts.modelled = Modelled {
            qps: (s.keys_probed + c.keys_probed) as f64 / makespan,
            p99_ms: LatencyStats::from_samples(latencies).p99_s * 1e3,
            goodput_rps: (s.completed + c.completed) as f64 / makespan,
        };
        hosts.reference = (first.server_json, first.cluster_json);
        Ok(hosts)
    }

    fn unit_ops(&self) -> usize {
        1
    }

    fn run(&mut self, _: usize) -> Result<HostsOutput, String> {
        self.round()
    }

    fn check(&self, _: usize, out: &HostsOutput) -> Result<OpStats, String> {
        self.check_round(out)?;
        if (&out.server_json, &out.cluster_json) != (&self.reference.0, &self.reference.1) {
            return Err("round report differs from the first round".into());
        }
        let (s, c) = (&out.server.report, &out.cluster.report);
        let mut stats = OpStats {
            keys: (s.keys_probed + c.keys_probed) as u64,
            counters: s.counters + out.cluster_counters,
            ..OpStats::default()
        };
        let spans = |traces: &[windex::serve::RequestTrace]| {
            traces.iter().map(|t| t.spans.len()).sum::<usize>() as f64
        };
        let dispatches: usize = c.per_shard.iter().map(|p| p.dispatches).sum();
        stats.add("windows", (s.window.windows + dispatches) as f64);
        stats.add("requests", (s.requests + c.requests) as f64);
        stats.add("trace_requests", self.trace.len() as f64);
        stats.add("spans", spans(&s.traces) + spans(&c.traces));
        stats.add("batches", s.window.windows as f64);
        stats.add("batch_keys", s.keys_probed as f64);
        stats.add("shed", (s.shed + c.shed) as f64);
        stats.add(
            "json_bytes",
            (out.server_json.len() + out.cluster_json.len()) as f64,
        );
        Ok(stats)
    }

    fn modelled(&self) -> Modelled {
        self.modelled
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs {
            relations: vec![&self.r],
            target: &self.r,
            keys: probe_keys(&self.trace, None),
        }
    }
}

/// Up to 8 Ki probe keys of `tenant`'s requests (all tenants when `None`).
fn probe_keys(trace: &[TimedRequest], tenant: Option<TenantId>) -> Vec<u64> {
    trace
        .iter()
        .filter(|t| tenant.is_none_or(|id| t.request.tenant == id))
        .flat_map(|t| t.request.keys.iter().copied())
        .take(8 << 10)
        .collect()
}

// ------------------------------------------------------------- serve-tenants

pub struct ServeTenants {
    tenants: Vec<(TenantId, Relation)>,
    trace: Vec<TimedRequest>,
    chaos: ChaosSchedule,
    reference: String,
    modelled: Modelled,
}

pub struct TenantsOutput {
    pub outcome: ParallelTunedOutcome,
    pub json: String,
}

impl ServeTenants {
    fn serve(&self, threads: usize) -> Result<ParallelTunedOutcome, String> {
        serve_tuned_tenant_parallel(
            &spec(),
            TunedConfig {
                batch_keys: TENANT_BATCH_KEYS,
                ..TunedConfig::default()
            },
            &self.tenants,
            &self.trace,
            threads,
            Some(&self.chaos),
        )
        .map_err(|e| e.to_string())
    }
}

impl Workload for ServeTenants {
    const NAME: &'static str = "serve-tenants";
    type Output = TenantsOutput;

    fn setup(seed: u64, size: &Size) -> Result<Self, String> {
        let tenants: Vec<(TenantId, Relation)> = size
            .tenant_gib
            .iter()
            .enumerate()
            .map(|(id, &gib)| {
                (
                    id as TenantId,
                    sparse_relation(gib, sub_seed(seed, 50 + id as u64)),
                )
            })
            .collect();
        let cfg = TraceConfig {
            seed: sub_seed(seed, 30),
            tenants: 1,
            requests: size.tenant_requests,
            min_keys: TENANT_KEYS.0,
            max_keys: TENANT_KEYS.1,
            offered_load_rps: TENANT_RATE_RPS,
            deadline_s: None,
        };
        let trace = gen(|| {
            merge_traces(
                tenants
                    .iter()
                    .map(|(id, r)| generate_tenant_trace(&cfg, *id, r))
                    .collect(),
            )
        });
        let mut w = ServeTenants {
            tenants,
            trace,
            chaos: ChaosScenario::DeviceLoss.schedule(sub_seed(seed, 40)),
            reference: String::new(),
            modelled: Modelled {
                qps: 0.0,
                p99_ms: 0.0,
                goodput_rps: 0.0,
            },
        };
        // The 1-thread reference every 2-thread op must reproduce.
        let reference = span(|| "serve.tuned_lanes.1t".into(), || w.serve(1))?;
        let s = &reference.summary;
        w.modelled = Modelled {
            qps: s.keys_probed as f64 / s.virtual_makespan_s,
            p99_ms: s.latency.p99_s * 1e3,
            goodput_rps: s.completed as f64 / s.virtual_makespan_s,
        };
        w.reference = serde_json::to_string(&reference).map_err(|e| e.to_string())?;
        Ok(w)
    }

    fn unit_ops(&self) -> usize {
        1
    }

    fn run(&mut self, _: usize) -> Result<TenantsOutput, String> {
        let outcome = span(|| "serve.tuned_lanes".into(), || self.serve(TENANT_THREADS))?;
        let json = json("tuned_lanes", &outcome)?;
        Ok(TenantsOutput { outcome, json })
    }

    fn check(&self, _: usize, out: &TenantsOutput) -> Result<OpStats, String> {
        let s = &out.outcome.summary;
        let keys: usize = self.trace.iter().map(|t| t.request.keys.len()).sum();
        if s.completed + s.shed + s.deadline_missed != self.trace.len() || s.result_tuples != keys {
            return Err(
                "tenant-parallel summary does not account for every request and key".into(),
            );
        }
        if out.json != self.reference {
            return Err(format!(
                "{TENANT_THREADS}-thread outcome differs from the 1-thread reference"
            ));
        }
        let mut stats = OpStats {
            keys: s.keys_probed as u64,
            ..OpStats::default()
        };
        for lane in &out.outcome.lanes {
            let rep = &lane.report;
            stats.counters = stats.counters + rep.counters;
            stats.add("windows", rep.batches as f64);
            stats.add("batches", rep.batches as f64);
            stats.add("batch_keys", rep.keys_probed as f64);
            stats.add("tuner_switches", rep.switches as f64);
            stats.add(
                "pinned_batches",
                rep.per_tenant.iter().map(|t| t.pinned_batches).sum::<u64>() as f64,
            );
            stats.add(
                "spans",
                rep.traces.iter().map(|t| t.spans.len()).sum::<usize>() as f64,
            );
        }
        stats.add("requests", s.requests as f64);
        stats.add("shed", s.shed as f64);
        stats.add("json_bytes", out.json.len() as f64);
        Ok(stats)
    }

    fn modelled(&self) -> Modelled {
        self.modelled
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        // The first out-of-core tenant (the largest relation).
        let (id, target) = self
            .tenants
            .iter()
            .max_by_key(|(id, r)| (r.len(), std::cmp::Reverse(*id)))
            .expect("at least one tenant");
        ProbeInputs {
            relations: self.tenants.iter().map(|(_, r)| r).collect(),
            target,
            keys: probe_keys(&self.trace, Some(*id)),
        }
    }
}
