//! The deterministic multi-GPU serving event loop.
//!
//! [`ClusterServer`] generalizes the single-GPU [`Server`](crate::Server)
//! to N simulated devices. Each shard owns a slice of the inner relation
//! (or a full replica), its own index, shared
//! [`StreamingWindowJoin`](windex_core::streams::StreamingWindowJoin),
//! result sink, DRR scheduler, and micro-batcher. In front of the per-GPU
//! schedulers sits the [`ShardRouter`](super::ShardRouter): a request whose
//! keys all hash to one shard goes straight to the owner; a cross-shard
//! request fans out as per-shard sub-requests and its rid-tagged results
//! merge deterministically on the virtual clock.
//!
//! Time is a single global virtual clock. Shards dispatch independently —
//! a dispatch occupies its shard until the cost model's estimate elapses,
//! while other shards keep admitting and dispatching, which is where the
//! aggregate throughput scaling comes from. Inter-GPU edges are priced
//! through the cluster's peer [`InterconnectSpec`](windex_sim::InterconnectSpec):
//! a dispatch carrying keys for remote coordinators first gathers them over
//! the link, and matches produced for a remote coordinator pay a merge
//! transfer before the response can complete.
//!
//! The degradation ladder grows two cluster-level rungs above the per-GPU
//! ones (shrink window → spill sink → retry → shed batch):
//!
//! 1. **fail over** — under replication, a `DeviceLost` GPU's queue moves
//!    to a surviving replica;
//! 2. **re-shard** — under sharding, the lost GPU's partitions merge into
//!    an adjacent survivor (contiguous slices stay contiguous), the
//!    survivor's index is rebuilt on the virtual clock, and the router is
//!    repointed.
//!
//! Each GPU serves through its own lane, the unit the single-GPU server
//! runs, so the per-GPU rungs are the server's: a GPU with no live peer
//! rebuilds in place after a loss. Every path reports MTTR in virtual seconds.

use super::report::{ClusterEvent, ClusterReport, ShardLoad};
use super::router::ShardRouter;
use super::spec::{ClusterSpec, Placement};
use crate::batch::MicroBatcher;
use crate::lane::{Landed, Lane, LaneStep, Retries};
use crate::report::{rate, RunTally};
use crate::request::{LookupResponse, TenantId};
use crate::sched::DrrScheduler;
use crate::server::ServeConfig;
use crate::span::{Answers, RequestContext};
use crate::trace::{distinct_tenants, TimedRequest};
use std::collections::BTreeMap;
use std::rc::Rc;
use windex_core::query::QueryError;
use windex_core::WindexError;
use windex_sim::{ChaosSchedule, Gpu, InterconnectSpec};
use windex_workload::Relation;

/// Bytes shipped over the peer link per fanned-out probe key.
const KEY_BYTES: u64 = 8;
/// Bytes shipped over the peer link per merged match pair.
const MATCH_BYTES: u64 = 16;

/// Cluster serving configuration: the per-shard serving knobs plus the
/// cluster topology.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-shard serving knobs (window, policy, DRR quantum, backpressure
    /// bound, sink placement, resilience). `partition_bits` of `None`
    /// applies [`ClusterSpec::shard_bits`] (sharded) or
    /// [`ClusterSpec::replica_bits`] (replicated); explicit bits under
    /// sharding must reach the domain's top bit so shard slices stay
    /// contiguous.
    pub serve: ServeConfig,
    /// The cluster topology and inter-GPU link.
    pub cluster: ClusterSpec,
}

/// A cluster-served trace: every response plus the aggregate report.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// One response per trace request, ordered by request id.
    pub responses: Vec<LookupResponse>,
    /// Aggregate cluster metrics.
    pub report: ClusterReport,
}

/// A per-shard leg of an admitted request.
#[derive(Debug)]
struct SubRequest {
    parent: u64,
    tenant: TenantId,
    keys: Vec<u64>,
}

/// An admitted request being assembled from its per-shard legs.
#[derive(Debug)]
struct Parent {
    tenant: TenantId,
    deadline: Option<f64>,
    submitted_s: f64,
    /// Keys not yet probed.
    remaining: usize,
    /// Shard the response is assembled on (owner of the first key).
    coordinator: usize,
    /// Sub-request ids of this parent, for shed cleanup.
    subs: Vec<u64>,
    matches: Vec<(u64, u64)>,
    /// Latest delivery instant across the legs merged so far.
    ready_s: f64,
    /// Span-tree builder for this request's trace.
    ctx: RequestContext,
}

/// A dispatch in flight on one shard: results are computed eagerly (the
/// simulation is deterministic) but delivered when the shard's virtual
/// busy-interval elapses.
#[derive(Debug)]
struct PendingDispatch {
    done_s: f64,
    /// The shard's base offset `lo` captured at dispatch time. A re-shard
    /// can grow the shard's slice downward while this dispatch is in
    /// flight (losing GPU 0 drops the absorbing survivor's `lo`), and the
    /// pairs below were computed against the old slice — translating them
    /// with the post-re-shard `lo` would shift every global position.
    base: u64,
    /// The `(key, rid)` batch, rids local to the shard's batcher.
    batch: Vec<(u64, u64)>,
    /// Sink output captured at dispatch: `(rid, local position)`.
    pairs: Vec<(u64, u64)>,
}

/// One GPU instance and its serving state.
#[derive(Debug)]
struct Shard {
    gpu: Gpu,
    alive: bool,
    /// Global tuple range `[lo, hi)` of the resident slice of sorted R.
    lo: usize,
    hi: usize,
    /// The slice's index, shared operator and sink.
    lane: Lane,
    sched: DrrScheduler,
    batcher: MicroBatcher,
    /// The shard is busy (dispatching or rebuilding) until this instant.
    busy_until_s: f64,
    inflight: Option<PendingDispatch>,
    /// This trace's load tally (reset each run; identity, liveness and
    /// ownership are filled in at report time).
    load: ShardLoad,
}

/// Mutable state of one `run()` invocation.
#[derive(Default)]
struct RunState {
    clock_s: f64,
    subs: Vec<SubRequest>,
    /// Sub-request id → shard currently holding it (failover moves these).
    sub_home: Vec<usize>,
    parents: BTreeMap<u64, Parent>,
    /// Leg index inside the parent's `RequestContext`, parallel to `subs`.
    leg_of_sub: Vec<usize>,
    answers: Answers,
    events: Vec<ClusterEvent>,
    cross_shard_bytes: u64,
    single_shard_requests: usize,
    cross_shard_requests: usize,
    failovers: usize,
    reshards: usize,
    recoveries: usize,
    mttr_total_s: f64,
}

/// The deterministic multi-GPU query server.
#[derive(Debug)]
pub struct ClusterServer {
    cfg: ClusterConfig,
    r: Relation,
    router: ShardRouter,
    shards: Vec<Shard>,
    link: InterconnectSpec,
    /// Retry budget and jitter ordinal shared by every GPU's ladder.
    retries: Retries,
}

impl ClusterServer {
    /// Build a cluster over the (sorted, duplicate-free) relation `r`:
    /// slices R per the placement, and on every GPU stages the slice,
    /// builds the index, and allocates the shared operator and sink.
    pub fn new(cfg: ClusterConfig, r: Relation) -> Result<Self, WindexError> {
        cfg.cluster.validate()?;
        let serve = &cfg.serve;
        serve.validate()?;
        if !r.is_sorted_unique() {
            return Err(QueryError::IndexedRelationNotSorted.into());
        }
        if r.is_empty() {
            return Err(WindexError::InvalidConfig(
                "cluster serving needs a non-empty relation",
            ));
        }
        let replicated = cfg.cluster.placement == Placement::Replicated;
        let bits = match serve.partition_bits {
            Some(b) => b,
            None if replicated => cfg.cluster.replica_bits(&r)?,
            None => cfg.cluster.shard_bits(&r)?,
        };
        let min_key = r.min_key().unwrap_or(0);
        let max_key = r.max_key().unwrap_or(0);
        let domain = max_key - min_key;
        let domain_bits = if domain == 0 {
            1
        } else {
            64 - domain.leading_zeros()
        };
        if !replicated && bits.shift + bits.bits < domain_bits {
            return Err(WindexError::InvalidConfig(
                "partition bits must reach the domain's top bit for contiguous shards",
            ));
        }
        let n_gpus = cfg.cluster.gpus;
        // Replication never routes by partition, so it needs no
        // partitions-per-GPU floor: a single-owner table keeps the radix
        // and min_key available for window configs and reports while
        // letting replicated clusters form over arbitrarily small domains.
        let router_shards = if replicated { 1 } else { n_gpus };
        let router = ShardRouter::contiguous(bits, min_key, router_shards)?;
        let mut shards = Vec::with_capacity(n_gpus);
        for s in 0..n_gpus {
            let (lo, hi) = if replicated {
                (0, r.len())
            } else {
                owned_range(&router, &r, s)
            };
            let mut gpu = Gpu::try_new(cfg.cluster.gpu.clone()).map_err(WindexError::from)?;
            let col = Rc::new(gpu.alloc_host_from_vec(r.keys()[lo..hi].to_vec()));
            let lane = Lane::new(&mut gpu, serve, col, bits, min_key)?;
            shards.push(Shard {
                gpu,
                alive: true,
                lo,
                hi,
                lane,
                sched: DrrScheduler::new(serve.quantum_keys)?,
                batcher: MicroBatcher::new(),
                busy_until_s: 0.0,
                inflight: None,
                load: ShardLoad::default(),
            });
        }
        Ok(ClusterServer {
            link: cfg.cluster.peer_link.clone(),
            retries: Retries::new(&cfg.serve.resilience.retry),
            cfg,
            r,
            router,
            shards,
        })
    }

    /// The served relation.
    pub fn relation(&self) -> &Relation {
        &self.r
    }

    /// The shard router (for routing assertions in tests).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// GPU instances in the cluster.
    pub fn gpus(&self) -> usize {
        self.shards.len()
    }

    /// Mutable access to one shard's simulated GPU (e.g. to install a
    /// bounded sim-trace recorder before a run). Panics if `shard` is out
    /// of range.
    pub fn shard_gpu_mut(&mut self, shard: usize) -> &mut Gpu {
        &mut self.shards[shard].gpu
    }

    /// Install one chaos schedule per GPU (see
    /// [`ChaosScenario::cluster_schedules`](windex_sim::ChaosScenario::cluster_schedules)).
    pub fn set_chaos_schedules(
        &mut self,
        schedules: Vec<ChaosSchedule>,
    ) -> Result<(), WindexError> {
        if schedules.len() != self.shards.len() {
            return Err(WindexError::InvalidConfig(
                "need exactly one chaos schedule per GPU",
            ));
        }
        for (shard, schedule) in self.shards.iter_mut().zip(schedules) {
            shard.gpu.set_chaos_schedule(schedule)?;
        }
        Ok(())
    }

    /// Serve a trace to completion. Arrivals must be sorted by time.
    pub fn run(&mut self, trace: &[TimedRequest]) -> Result<ClusterOutcome, WindexError> {
        debug_assert!(
            trace.windows(2).all(|w| w[0].at_s <= w[1].at_s),
            "trace must be sorted by arrival time"
        );
        let mut st = RunState::default();
        self.retries.begin_run();
        for shard in &mut self.shards {
            shard.lane.begin_run();
            shard.busy_until_s = 0.0;
            shard.inflight = None;
            shard.load = ShardLoad::default();
            // The serving clock IS the chaos clock on every device.
            shard.gpu.set_virtual_time(0.0);
        }
        let mut next_arrival = 0usize;
        let policy = self.cfg.serve.policy;

        loop {
            // 1. Deliver every dispatch whose busy-interval has elapsed,
            //    in shard-id order (deterministic tie-break).
            for s in 0..self.shards.len() {
                let due = self.shards[s]
                    .inflight
                    .as_ref()
                    .is_some_and(|pd| pd.done_s <= st.clock_s);
                if due {
                    let pd = self.shards[s].inflight.take().unwrap();
                    self.deliver(s, pd, &mut st);
                }
            }

            // 2. Admit every arrival due now.
            while next_arrival < trace.len() && trace[next_arrival].at_s <= st.clock_s {
                let t = &trace[next_arrival];
                let id = next_arrival as u64;
                next_arrival += 1;
                self.admit(id, t, &mut st);
            }

            // 3. Stage queued sub-requests under DRR and dispatch idle
            //    shards whose window is full or whose flush timer fired.
            for s in 0..self.shards.len() {
                if !self.shards[s].alive {
                    continue;
                }
                self.stage_shard(s, &mut st)?;
                let shard = &self.shards[s];
                let idle = shard.inflight.is_none() && shard.busy_until_s <= st.clock_s;
                if idle && policy.due(&shard.batcher, shard.lane.window_tuples(), st.clock_s) {
                    self.dispatch_shard(s, &mut st)?;
                }
            }

            // 4. Advance the clock to the next event, or finish.
            let mut next = f64::INFINITY;
            if next_arrival < trace.len() {
                next = next.min(trace[next_arrival].at_s);
            }
            for shard in &self.shards {
                if let Some(pd) = &shard.inflight {
                    next = next.min(pd.done_s);
                } else if shard.alive && shard.busy_until_s > st.clock_s {
                    next = next.min(shard.busy_until_s);
                }
            }
            for shard in &self.shards {
                if shard.alive && shard.inflight.is_none() {
                    if let Some(flush_s) = policy.flush_deadline(&shard.batcher) {
                        next = next.min(flush_s.max(shard.busy_until_s));
                    }
                }
            }
            if next.is_finite() {
                st.clock_s = st.clock_s.max(next);
                for shard in &mut self.shards {
                    if shard.alive && shard.inflight.is_none() && shard.busy_until_s <= st.clock_s {
                        shard.gpu.set_virtual_time(st.clock_s);
                    }
                }
            } else {
                debug_assert!(
                    self.shards.iter().all(|sh| sh.inflight.is_none()
                        && (!sh.alive || (sh.batcher.pending() == 0 && sh.sched.is_empty()))),
                    "cluster event loop stalled with queued work"
                );
                break;
            }
        }
        debug_assert!(st.parents.is_empty(), "all admitted requests answered");
        self.finish(trace, st)
    }

    /// Route, backpressure-check, and enqueue one arrival.
    fn admit(&mut self, id: u64, t: &TimedRequest, st: &mut RunState) {
        let now = st.clock_s;
        let n = t.request.keys.len();
        if n == 0 {
            st.answers.unserved(id, t, now, false);
            return;
        }
        // Route every key to the shard owning its partition (sharded), or
        // the whole request to one live replica (replicated).
        let mut legs: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        let coordinator = match self.cfg.cluster.placement {
            Placement::Sharded => {
                for &key in &t.request.keys {
                    let shard = self.router.shard_of(self.router.clamp(key));
                    legs.entry(shard).or_default().push(key);
                }
                self.router.shard_of(self.router.clamp(t.request.keys[0]))
            }
            Placement::Replicated => {
                let alive: Vec<usize> = (0..self.shards.len())
                    .filter(|&s| self.shards[s].alive)
                    .collect();
                let shard = alive[id as usize % alive.len()];
                legs.insert(shard, t.request.keys.clone());
                shard
            }
        };
        // Backpressure: shed the whole request if any target shard's
        // backlog would cross the bound.
        let over = legs.iter().any(|(&s, keys)| {
            let backlog = self.shards[s].sched.queued_keys() + self.shards[s].batcher.pending();
            backlog + keys.len() > self.cfg.serve.max_pending_keys
        });
        if over {
            st.events.push(ClusterEvent::LoadShed {
                tenant: t.request.tenant,
                request: id,
                keys: n,
            });
            st.answers.unserved(id, t, now, false);
            return;
        }
        if legs.len() > 1 {
            st.cross_shard_requests += 1;
        } else {
            st.single_shard_requests += 1;
        }
        let mut parent = Parent {
            tenant: t.request.tenant,
            deadline: t.request.deadline,
            submitted_s: t.at_s,
            remaining: n,
            coordinator,
            subs: Vec::with_capacity(legs.len()),
            matches: Vec::new(),
            ready_s: now,
            ctx: RequestContext::new(id, t.request.tenant, t.at_s, n),
        };
        for (shard, keys) in legs {
            let sub_id = st.subs.len() as u64;
            let n_keys = keys.len();
            parent.subs.push(sub_id);
            let leg = parent
                .ctx
                .leg_opened(shard, n_keys, now, shard != coordinator);
            st.leg_of_sub.push(leg);
            st.subs.push(SubRequest {
                parent: id,
                tenant: t.request.tenant,
                keys,
            });
            st.sub_home.push(shard);
            self.shards[shard]
                .sched
                .enqueue(t.request.tenant, sub_id, n_keys);
            self.shards[shard].load.subrequests += 1;
            let depth =
                self.shards[shard].sched.queued_keys() + self.shards[shard].batcher.pending();
            let load = &mut self.shards[shard].load;
            load.max_queue_depth_keys = load.max_queue_depth_keys.max(depth);
        }
        st.parents.insert(id, parent);
    }

    /// Release queued sub-requests into shard `s`'s batcher under DRR
    /// order, skipping legs whose parent was already shed.
    fn stage_shard(&mut self, s: usize, st: &mut RunState) -> Result<(), WindexError> {
        let policy = self.cfg.serve.policy;
        loop {
            let shard = &mut self.shards[s];
            if !policy.stage_more(&shard.batcher, shard.lane.window_tuples()) {
                return Ok(());
            }
            match shard.sched.dequeue()? {
                Some(sub_id) => {
                    let sub = &st.subs[sub_id as usize];
                    if let Some(p) = st.parents.get_mut(&sub.parent) {
                        p.ctx.staged(st.clock_s);
                        shard.batcher.stage(sub_id, &sub.keys, st.clock_s);
                    }
                }
                None => return Ok(()),
            }
        }
    }

    /// Push one batch through shard `s`'s lane (see [`Lane::dispatch`]);
    /// on device loss with a live peer, walk the cluster rungs instead.
    fn dispatch_shard(&mut self, s: usize, st: &mut RunState) -> Result<(), WindexError> {
        let policy = self.cfg.serve.policy;
        let shard = &mut self.shards[s];
        let take = policy.take_size(&shard.batcher, shard.lane.window_tuples());
        let batch = shard.batcher.take(take, st.clock_s);
        if batch.is_empty() {
            return Ok(());
        }
        // Distinct sub-requests (and their parents) riding this dispatch,
        // in first-occurrence batch order, for span milestones.
        let mut member_subs: Vec<u64> = Vec::new();
        let mut member_parents: Vec<u64> = Vec::new();
        for &(_, rid) in &batch {
            let (sub_id, _) = shard.batcher.resolve(rid);
            if !member_subs.contains(&sub_id) {
                member_subs.push(sub_id);
            }
            let parent_id = st.subs[sub_id as usize].parent;
            if !member_parents.contains(&parent_id) {
                member_parents.push(parent_id);
            }
        }
        // Without a live peer to fail over or re-shard to (this shard is
        // alive), a lost GPU rebuilds in place.
        let in_place = self.shards.iter().filter(|sh| sh.alive).count() == 1;
        let shard = &mut self.shards[s];
        let d = shard.lane.dispatch(
            &mut shard.gpu,
            &batch,
            st.clock_s,
            &mut self.retries,
            in_place,
        )?;
        for step in d.steps {
            st.events.push(match step {
                LaneStep::WindowShrunk { from, to } => {
                    ClusterEvent::ShardWindowShrunk { gpu: s, from, to }
                }
                LaneStep::SinkSpilled => ClusterEvent::ShardSinkSpilled { gpu: s },
                LaneStep::Retried { attempt, backoff_s } => {
                    for parent_id in &member_parents {
                        if let Some(p) = st.parents.get_mut(parent_id) {
                            p.ctx.retried();
                        }
                    }
                    ClusterEvent::DispatchRetried {
                        gpu: s,
                        attempt,
                        backoff_s,
                    }
                }
                // The rebuild lies inside the dispatch's busy interval,
                // which `busy_s` counts below.
                LaneStep::Recovered { mttr_s } => {
                    st.recoveries += 1;
                    st.mttr_total_s += mttr_s;
                    ClusterEvent::DeviceRecovered { gpu: s, mttr_s }
                }
                LaneStep::RetriesExhausted => ClusterEvent::RetriesExhausted {
                    gpu: s,
                    keys: batch.len(),
                },
            });
        }
        let (stats, pairs) = match d.landed {
            Landed::Completed { stats, pairs } => (stats, pairs),
            Landed::Abandoned => {
                self.abandon(s, &batch, st);
                return Ok(());
            }
            Landed::DeviceLost => return self.lose_shard(s, batch, st),
        };
        // Gather-in: keys staged for a remote coordinator had to cross the
        // peer link before this shard could probe them; the transfer
        // extends the busy interval.
        let mut in_bytes = 0u64;
        for &(_, rid) in &batch {
            let (sub_id, _) = self.shards[s].batcher.resolve(rid);
            if let Some(p) = st.parents.get(&st.subs[sub_id as usize].parent) {
                if p.coordinator != s {
                    in_bytes += KEY_BYTES;
                }
            }
        }
        let xfer_in_s = if in_bytes > 0 {
            self.link.transfer_s(in_bytes)
        } else {
            0.0
        };
        st.cross_shard_bytes += in_bytes;
        let done_s = d.end_s + xfer_in_s;
        // Milestones: the batch left the queue for the device at dispatch
        // time (leg min-wins across split batches).
        for &sub_id in &member_subs {
            if let Some(p) = st.parents.get_mut(&st.subs[sub_id as usize].parent) {
                p.ctx.dispatched(st.clock_s);
                p.ctx
                    .leg_dispatched(st.leg_of_sub[sub_id as usize], st.clock_s);
            }
        }
        let shard = &mut self.shards[s];
        shard.load.cross_bytes += in_bytes;
        shard.load.keys_probed += batch.len();
        shard.load.dispatches += 1;
        shard.load.matches += stats.matches;
        shard.load.busy_s += done_s - st.clock_s;
        shard.busy_until_s = done_s;
        shard.inflight = Some(PendingDispatch {
            done_s,
            base: shard.lo as u64,
            batch,
            pairs,
        });
        Ok(())
    }

    /// Demultiplex a finished dispatch's matches to their parents, price
    /// remote merges over the peer link, and answer parents whose last key
    /// was just probed.
    fn deliver(&mut self, s: usize, pd: PendingDispatch, st: &mut RunState) {
        // rid → key (rids are unique within a dispatch).
        let rid_key: BTreeMap<u64, u64> = pd.batch.iter().map(|&(k, rid)| (rid, k)).collect();
        // Per-parent keys probed and matches produced, in first-occurrence
        // batch order (deterministic merge order).
        let mut order: Vec<u64> = Vec::new();
        let mut keys_of: BTreeMap<u64, usize> = BTreeMap::new();
        let mut matches_of: BTreeMap<u64, u64> = BTreeMap::new();
        // Distinct sub-requests per parent (first-occurrence order) and
        // matches per sub, for per-leg span accounting.
        let mut subs_of: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut sub_matches: BTreeMap<u64, usize> = BTreeMap::new();
        for &(_, rid) in &pd.batch {
            let (sub_id, _) = self.shards[s].batcher.resolve(rid);
            let parent_id = st.subs[sub_id as usize].parent;
            if !keys_of.contains_key(&parent_id) {
                order.push(parent_id);
            }
            *keys_of.entry(parent_id).or_insert(0) += 1;
            let subs = subs_of.entry(parent_id).or_default();
            if !subs.contains(&sub_id) {
                subs.push(sub_id);
            }
        }
        let base = pd.base;
        for &(rid, pos) in &pd.pairs {
            let (sub_id, _) = self.shards[s].batcher.resolve(rid);
            let parent_id = st.subs[sub_id as usize].parent;
            if let Some(p) = st.parents.get_mut(&parent_id) {
                p.matches.push((rid_key[&rid], base + pos));
                *matches_of.entry(parent_id).or_insert(0) += 1;
                *sub_matches.entry(sub_id).or_insert(0) += 1;
            }
        }
        for parent_id in order {
            let Some(p) = st.parents.get_mut(&parent_id) else {
                continue; // parent shed while this dispatch was in flight
            };
            p.remaining -= keys_of[&parent_id];
            let delivery_s = if p.coordinator == s {
                pd.done_s
            } else {
                // Merge leg: matched pairs stream back to the coordinator.
                let out_bytes = matches_of.get(&parent_id).copied().unwrap_or(0) * MATCH_BYTES;
                st.cross_shard_bytes += out_bytes;
                self.shards[s].load.cross_bytes += out_bytes;
                pd.done_s + self.link.transfer_s(out_bytes)
            };
            p.ready_s = p.ready_s.max(delivery_s);
            p.ctx.first_result(delivery_s);
            for &sub_id in &subs_of[&parent_id] {
                p.ctx.leg_delivered(
                    st.leg_of_sub[sub_id as usize],
                    pd.done_s,
                    delivery_s,
                    sub_matches.get(&sub_id).copied().unwrap_or(0),
                );
            }
            if p.remaining == 0 {
                let mut p = st.parents.remove(&parent_id).expect("parent present");
                p.ctx.merged(p.ready_s);
                let resp = LookupResponse::answered(
                    parent_id,
                    p.tenant,
                    p.deadline,
                    p.submitted_s,
                    p.ready_s,
                    p.matches,
                );
                st.answers.answer(resp, p.ctx);
            }
        }
    }

    /// The cluster rungs of the degradation ladder: shard `s` is gone.
    /// Replicated placement fails its queue over to a surviving replica;
    /// sharded placement merges its partitions into an adjacent survivor
    /// and rebuilds that survivor's index on the virtual clock. The failed
    /// batch and everything queued on the lost shard move to the target.
    fn lose_shard(
        &mut self,
        s: usize,
        failed_batch: Vec<(u64, u64)>,
        st: &mut RunState,
    ) -> Result<(), WindexError> {
        self.shards[s].alive = false;
        let target = match self.cfg.cluster.placement {
            Placement::Replicated => {
                // First live replica after s in cyclic order.
                (1..self.shards.len())
                    .map(|d| (s + d) % self.shards.len())
                    .find(|&t| self.shards[t].alive)
                    .expect("lose_shard requires a survivor")
            }
            Placement::Sharded => {
                // Alive shards tile sorted R contiguously, so an adjacent
                // survivor always exists; merging into it keeps the
                // survivor's slice contiguous.
                let (lo, hi) = (self.shards[s].lo, self.shards[s].hi);
                (0..self.shards.len())
                    .find(|&t| {
                        t != s
                            && self.shards[t].alive
                            && (self.shards[t].hi == lo || self.shards[t].lo == hi)
                    })
                    .expect("alive shards tile R contiguously")
            }
        };

        // Move the failed batch and the lost shard's staged keys, in age
        // order, onto the target's batcher; then its still-queued legs
        // onto the target's scheduler.
        let pending_n = self.shards[s].batcher.pending();
        let pending = self.shards[s].batcher.take(pending_n, st.clock_s);
        let mut moved_subs = 0usize;
        for chunk in [failed_batch, pending] {
            for (sub_id, keys) in group_by_sub(&self.shards[s].batcher, &chunk) {
                if st.parents.contains_key(&st.subs[sub_id as usize].parent) {
                    self.shards[target].batcher.stage(sub_id, &keys, st.clock_s);
                    st.sub_home[sub_id as usize] = target;
                    moved_subs += 1;
                }
            }
        }
        while let Some(sub_id) = self.shards[s].sched.dequeue()? {
            let sub = &st.subs[sub_id as usize];
            if st.parents.contains_key(&sub.parent) {
                let (tenant, n_keys) = (sub.tenant, sub.keys.len());
                self.shards[target].sched.enqueue(tenant, sub_id, n_keys);
                st.sub_home[sub_id as usize] = target;
                moved_subs += 1;
            }
        }

        match self.cfg.cluster.placement {
            Placement::Replicated => {
                // The replica already holds all of R: recovery is just the
                // control-plane redirect, one link latency.
                let mttr_s = self.link.latency_ns * 1e-9;
                st.events.push(ClusterEvent::FailedOver {
                    gpu: s,
                    to: target,
                    subs_moved: moved_subs,
                    mttr_s,
                });
                st.failovers += 1;
                st.mttr_total_s += mttr_s;
            }
            Placement::Sharded => {
                // Merge the lost slice into the adjacent survivor and
                // rebuild its index; the rebuild queues behind whatever
                // the survivor is currently dispatching. The survivor does
                // not hold the lost tuples, so recovery first
                // re-materializes the slice over the fabric — that
                // transfer, priced by the configured link, usually
                // dominates the MTTR.
                let (lo, hi) = (self.shards[s].lo, self.shards[s].hi);
                let moved_tuples = hi - lo;
                let moved_bytes = moved_tuples as u64 * KEY_BYTES;
                let xfer_s = self.link.transfer_s(moved_bytes);
                let new_lo = self.shards[target].lo.min(lo);
                let new_hi = self.shards[target].hi.max(hi);
                let rebuild_at = st.clock_s.max(self.shards[target].busy_until_s) + xfer_s;
                let shard = &mut self.shards[target];
                shard.gpu.set_virtual_time(rebuild_at);
                let rebuild_s = shard
                    .lane
                    .reload(&mut shard.gpu, self.r.keys()[new_lo..new_hi].to_vec());
                shard.lo = new_lo;
                shard.hi = new_hi;
                shard.busy_until_s = rebuild_at + rebuild_s;
                shard.load.busy_s += xfer_s + rebuild_s;
                shard.load.cross_bytes += moved_bytes;
                st.cross_shard_bytes += moved_bytes;
                let partitions = self.router.reassign_all(s, target);
                let mttr_s = (rebuild_at + rebuild_s) - st.clock_s;
                st.events.push(ClusterEvent::ReSharded {
                    gpu: s,
                    to: target,
                    partitions,
                    tuples: moved_tuples,
                    mttr_s,
                });
                st.reshards += 1;
                st.mttr_total_s += mttr_s;
            }
        }
        Ok(())
    }

    /// Shed every request with a key in shard `s`'s failed batch, dropping
    /// their still-pending legs from every shard.
    fn abandon(&mut self, s: usize, batch: &[(u64, u64)], st: &mut RunState) {
        let mut victims: Vec<u64> = Vec::new();
        for &(_, rid) in batch {
            let (sub_id, _) = self.shards[s].batcher.resolve(rid);
            let parent_id = st.subs[sub_id as usize].parent;
            if st.parents.contains_key(&parent_id) && !victims.contains(&parent_id) {
                victims.push(parent_id);
            }
        }
        st.events.push(ClusterEvent::BatchAbandoned {
            gpu: s,
            keys: batch.len(),
            requests: victims.len(),
        });
        for parent_id in victims {
            if let Some(p) = st.parents.remove(&parent_id) {
                for &sub_id in &p.subs {
                    let home = st.sub_home[sub_id as usize];
                    // Purge the leg wherever it sits: still queued under
                    // DRR (so queued_keys stops counting it toward the
                    // admission backlog) or already staged in the batcher.
                    let tenant = st.subs[sub_id as usize].tenant;
                    self.shards[home].sched.cancel(tenant, sub_id);
                    self.shards[home].batcher.drop_request(sub_id);
                }
                let resp =
                    LookupResponse::shed_response(parent_id, p.tenant, p.submitted_s, st.clock_s);
                st.answers.answer(resp, p.ctx);
            }
        }
    }

    /// Assemble the [`ClusterReport`].
    fn finish(
        &mut self,
        trace: &[TimedRequest],
        mut st: RunState,
    ) -> Result<ClusterOutcome, WindexError> {
        let (stages, tail) = st.answers.finish();
        let responses = st.answers.responses;
        // Merge transfers can outlast the final loop event, so the
        // makespan is the later of the clock and the last delivery.
        let makespan = responses
            .iter()
            .map(|r| r.completed_s)
            .fold(st.clock_s, f64::max);
        let (tally, slo) =
            RunTally::of_responses(&responses, makespan, &self.cfg.serve.resilience.slo);
        let keys_probed: usize = self.shards.iter().map(|sh| sh.load.keys_probed).sum();
        let per_shard: Vec<ShardLoad> = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, sh)| ShardLoad {
                gpu: s,
                alive: sh.alive,
                partitions: if self.cfg.cluster.placement == Placement::Replicated {
                    if sh.alive {
                        self.router.bits().partitions()
                    } else {
                        0
                    }
                } else {
                    self.router.partitions_owned(s)
                },
                tuples: if sh.alive { sh.hi - sh.lo } else { 0 },
                ..sh.load
            })
            .collect();
        let routed = st.single_shard_requests + st.cross_shard_requests;
        let report = ClusterReport {
            gpus: self.shards.len(),
            alive_gpus: self.shards.iter().filter(|sh| sh.alive).count(),
            placement: self.cfg.cluster.placement.name().to_string(),
            link: self.link.name.to_string(),
            policy: self.cfg.serve.policy.label(),
            index: self.cfg.serve.index,
            tenants: distinct_tenants(trace),
            requests: trace.len(),
            completed: tally.completed,
            shed: tally.shed,
            deadline_missed: tally.deadline_missed,
            result_tuples: tally.result_tuples,
            keys_probed,
            single_shard_requests: st.single_shard_requests,
            cross_shard_requests: st.cross_shard_requests,
            cross_shard_fraction: rate(st.cross_shard_requests, routed as f64),
            cross_shard_bytes: st.cross_shard_bytes,
            virtual_makespan_s: makespan,
            completed_rps: tally.completed_rps,
            keys_per_second: rate(keys_probed, makespan),
            latency: tally.latency,
            latency_hist: tally.latency_hist,
            per_shard,
            events: st.events,
            failovers: st.failovers,
            reshards: st.reshards,
            recoveries: st.recoveries,
            mttr_total_s: st.mttr_total_s,
            slo,
            stages,
            traces: st.answers.traces,
            tail,
        };
        Ok(ClusterOutcome { responses, report })
    }
}

/// The contiguous slice of sorted `r` owned by `shard` under `router`'s
/// initial contiguous partition assignment.
fn owned_range(router: &ShardRouter, r: &Relation, shard: usize) -> (usize, usize) {
    let keys = r.keys();
    let lo = keys.partition_point(|&k| router.shard_of(k) < shard);
    let hi = keys.partition_point(|&k| router.shard_of(k) <= shard);
    (lo, hi)
}

/// Group a drained `(key, rid)` run back into per-sub-request key lists.
/// Staged keys of one sub are contiguous, so grouping consecutive rids by
/// their sub id preserves both membership and order.
fn group_by_sub(batcher: &MicroBatcher, chunk: &[(u64, u64)]) -> Vec<(u64, Vec<u64>)> {
    let mut out: Vec<(u64, Vec<u64>)> = Vec::new();
    for &(key, rid) in chunk {
        let (sub_id, _) = batcher.resolve(rid);
        match out.last_mut() {
            Some((last, keys)) if *last == sub_id => keys.push(key),
            _ => out.push((sub_id, vec![key])),
        }
    }
    out
}
