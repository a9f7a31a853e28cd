//! The cell table: every join query the figure targets render from, named
//! by its full input and run once per invocation.
//!
//! A [`Cell`] is the whole input of one query. Cells compare by value
//! (f64 inputs enter as tuple counts or bits), so targets that need the
//! same query declare equal cells, and [`run`] runs it once. [`run`]
//! groups the cells by R input and by the one index fit they store on R's
//! column, and runs the groups on [`par_map`], largest R first; a group
//! generates its R and each distinct S once. The [`Table`] is keyed by
//! cell, so it is identical for any job count.
//!
//! Memory rule: a fit stays on R's column for the column's life, so a
//! column must never hold two fits of one index kind (four B+tree pools on
//! one R read 933 MiB). Each group's R carries at most one fit, so on one
//! worker the run holds one R, one fit and one query at a time.

use crate::config::ExpConfig;
use crate::output::Experiment;
use std::collections::{BTreeMap, BTreeSet};
use windex_core::par_map;
use windex_core::prelude::*;

/// Every declared cell's report, in key order.
pub type Table = BTreeMap<Cell, QueryReport>;

/// An evaluated GPU and interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Platform {
    /// V100 + NVLink 2.0, the paper's primary platform.
    V100,
    /// A100 + PCI-e 4.0, the §5.2.3 comparison platform.
    A100,
    /// GH200 + NVLink C2C, the what-if beyond the paper.
    Gh200,
}

/// The indexed relation: `tuples` unique sorted keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RInput {
    /// Simulated tuples.
    pub tuples: usize,
    /// Key distribution.
    pub dist: KeyDistribution,
    /// Generator seed.
    pub seed: u64,
}

impl RInput {
    /// The paper's R of `gib` paper GiB at `scale`: dense keys (0‥n). The
    /// paper specifies only "unique, sorted keys" (§3.2); under dense keys
    /// its §6 factors are mutually consistent, as they need near-exact
    /// interpolation. `ablation-keydist` quantifies the sparse-key case.
    pub fn paper(scale: Scale, gib: f64) -> Self {
        let tuples = scale.sim_tuples_for_paper_gib(gib);
        let (dist, seed) = (KeyDistribution::Dense, 42);
        RInput { tuples, dist, seed }
    }

    /// Generate the relation.
    pub fn generate(&self) -> Relation {
        Relation::unique_sorted(self.tuples, self.dist, self.seed)
    }
}

/// The probe relation: `tuples` foreign keys into R, drawn uniformly or
/// Zipf-distributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SInput {
    /// The Zipf exponent's bits; `None` draws uniformly.
    pub zipf: Option<u64>,
    /// Simulated tuples.
    pub tuples: usize,
    /// Generator seed.
    pub seed: u64,
}

impl SInput {
    /// `tuples` uniform foreign keys (§3.2).
    pub fn uniform(tuples: usize) -> Self {
        let (zipf, seed) = (None, 7);
        SInput { zipf, tuples, seed }
    }

    /// Generate the relation over `r`.
    pub fn generate(&self, r: &Relation) -> Relation {
        match self.zipf {
            None => Relation::foreign_keys_uniform(r, self.tuples, self.seed),
            Some(z) => Relation::foreign_keys_zipf(r, self.tuples, f64::from_bits(z), self.seed),
        }
    }
}

/// The one executor setting a cell changes from [`QueryExecutor::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Setting {
    /// The paper's defaults.
    Default,
    /// Kernels run serially instead of overlapped on two streams.
    Serial,
    /// Results spill to CPU memory.
    CpuResults,
    /// A fixed partition bit range instead of the §4.2 rule.
    Bits(PartitionBits),
    /// B+tree nodes of this many bytes.
    NodeBytes(usize),
    /// Harmonia lanes cooperating per key.
    Lanes(usize),
}

impl Setting {
    /// The executor this setting describes.
    pub fn executor(self) -> QueryExecutor {
        let mut ex = QueryExecutor::new();
        match self {
            Setting::Default => {}
            Setting::Serial => ex.overlap = false,
            Setting::CpuResults => ex.result_location = MemLocation::Cpu,
            Setting::Bits(bits) => ex.partition_bits = Some(bits),
            Setting::NodeBytes(n) => ex.index_configs.btree.node_bytes = n,
            Setting::Lanes(n) => ex.index_configs.harmonia.lanes_per_key = n,
        }
        ex
    }
}

/// The full input of one join query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cell {
    /// The indexed relation.
    pub r: RInput,
    /// The probe relation.
    pub s: SInput,
    /// GPU and interconnect.
    pub platform: Platform,
    /// Reduction factor of the simulation.
    pub scale: u64,
    /// Paper-scale page size replacing the platform's own.
    pub page_bytes: Option<u64>,
    /// Join strategy.
    pub strategy: JoinStrategy,
    /// Executor setting.
    pub setting: Setting,
}

impl Cell {
    /// `strategy` on the V100 at `scale` over the paper's R of `gib` paper
    /// GiB and `s_tuples` uniform probe keys, with default settings.
    pub fn new(scale: Scale, gib: f64, s_tuples: usize, strategy: JoinStrategy) -> Self {
        Cell {
            r: RInput::paper(scale, gib),
            s: SInput::uniform(s_tuples),
            platform: Platform::V100,
            scale: scale.factor,
            page_bytes: None,
            strategy,
            setting: Setting::Default,
        }
    }

    /// The paper's query (§3.2) at the configured scale and probe size.
    pub fn paper(cfg: &ExpConfig, gib: f64, strategy: JoinStrategy) -> Self {
        Cell::new(cfg.scale, gib, cfg.s_tuples, strategy)
    }

    /// This cell with `setting`.
    pub fn with(self, setting: Setting) -> Self {
        Cell { setting, ..self }
    }

    /// This cell with Zipf(`exponent`) probe keys.
    pub fn zipf(self, exponent: f64) -> Self {
        let zipf = Some(exponent.to_bits());
        let s = SInput { zipf, ..self.s };
        Cell { s, ..self }
    }

    /// The index fit this query stores on R's column, if any: its kind,
    /// and the B+tree's node size, the only fitted config a cell varies.
    fn fit(&self) -> Option<(IndexKind, Option<usize>)> {
        let kind = self.strategy.index_kind()?;
        let node_bytes = match self.setting {
            Setting::NodeBytes(n) => Some(n),
            _ => None,
        };
        (kind != IndexKind::BinarySearch).then_some((kind, node_bytes))
    }

    /// The simulated device.
    pub fn spec(&self) -> GpuSpec {
        let scale = Scale::new(self.scale);
        let spec = match self.platform {
            Platform::V100 => GpuSpec::v100_nvlink2(scale),
            Platform::A100 => GpuSpec::a100_pcie4(scale),
            Platform::Gh200 => GpuSpec::gh200(scale),
        };
        match self.page_bytes {
            Some(bytes) => spec.with_paper_page_size(bytes),
            None => spec,
        }
    }

    /// Run the query over the generated `r` and `s` on a fresh GPU.
    pub fn query(&self, r: &Relation, s: &Relation) -> QueryReport {
        let mut gpu = Gpu::new(self.spec());
        (self.setting.executor())
            .run(&mut gpu, r, s, self.strategy)
            .expect("experiment query must succeed")
    }
}

/// A target's cells, and how it renders its experiment from the table.
pub struct Plan<'a> {
    /// The cells the target reads.
    pub cells: Vec<Cell>,
    /// Renders the experiment once the cells have run.
    pub render: Render<'a>,
}

/// How a [`Plan`] renders its experiment.
pub type Render<'a> = Box<dyn FnOnce(&Table) -> Result<Experiment, String> + 'a>;

impl<'a> Plan<'a> {
    /// A target that renders from the reports of `cells`.
    pub fn new(cells: Vec<Cell>, render: impl FnOnce(&Table) -> Experiment + 'a) -> Self {
        let render = Box::new(|t: &Table| Ok(render(t)));
        Plan { cells, render }
    }

    /// A target that runs on its own: no join queries (table1, fig1), a
    /// warm session (`ablation-warm`), serving or a gate.
    pub fn alone(run: impl FnOnce() -> Result<Experiment, String> + 'a) -> Self {
        let render = Box::new(|_: &Table| run());
        let cells = Vec::new();
        Plan { cells, render }
    }
}

/// Run each distinct cell of `cells` once on up to `jobs` workers.
pub fn run(cells: impl IntoIterator<Item = Cell>, jobs: usize) -> Table {
    run_with(cells, jobs, Cell::query)
}

/// [`run`] with `query` in place of [`Cell::query`].
pub fn run_with(
    cells: impl IntoIterator<Item = Cell>,
    jobs: usize,
    query: impl Fn(&Cell, &Relation, &Relation) -> QueryReport + Sync,
) -> Table {
    let mut groups: BTreeMap<_, BTreeSet<Cell>> = BTreeMap::new();
    for cell in cells {
        let key = (cell.r, cell.fit());
        groups.entry(key).or_default().insert(cell);
    }
    // Largest R first, so the pool's tail holds the cheapest groups.
    let groups: Vec<_> = groups.into_iter().rev().collect();
    let reports = par_map(jobs, groups.len(), |i| {
        let ((r, _), cells) = &groups[i];
        let r = r.generate();
        let mut probes = BTreeMap::new();
        let run = |cell: &Cell| {
            let s = probes.entry(cell.s).or_insert_with(|| cell.s.generate(&r));
            (*cell, query(cell, &r, s))
        };
        cells.iter().map(run).collect::<Vec<_>>()
    });
    reports.into_iter().flatten().collect()
}
