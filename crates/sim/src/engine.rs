//! The GPU engine: routes every device-side memory access through the
//! TLB/cache models and maintains the performance counters.
//!
//! The model is trace-driven and deterministic: data structures issue their
//! real access sequences, and the engine decides — line by line — whether an
//! access hits in L1/L2, whether a CPU-memory line needs an address
//! translation, and what crosses the interconnect. Timing is *not* simulated
//! here; the [`CostModel`](crate::cost::CostModel) converts counter deltas
//! into time estimates afterwards.
//!
//! Access path for a CPU-memory (out-of-core) load, mirroring §2.1/§3.3.2 of
//! the paper:
//!
//! 1. L1 lookup — hit: done (remote lines are cached on-chip on the paper's
//!    coherent NVLink platform).
//! 2. L2 lookup — hit: done.
//! 3. GPU TLB lookup for the page — miss: one address-translation request is
//!    sent to the CPU's IOMMU (~3 µs, the effect the paper studies).
//! 4. The cacheline is fetched across the interconnect.
//!
//! GPU-memory loads take the same cache path but end in device memory and
//! never involve the remote TLB, which is why the hash join's GPU-resident
//! hash table is immune to the TLB cliff.
//!
//! Single reads and writes ([`Gpu::touch_read`], [`Gpu::touch_write`]) are
//! queued and accounted later, in program order: when the queue is full, and
//! before any other entry point accounts or observes anything. Callers never
//! choose when an access is accounted, and the order the counters, the trace
//! and the fault draws see is always program order.
//!
//! ## The accountant runs on an idle core
//!
//! The memory-system state (L1, L2, TLB, page stamps, the line clock and
//! the last line) and the counts it produces form one accountant. A
//! *calm* engine — untraced, no active fault plan, no chaos window — that
//! has queued a long run of accesses with no sync point in between may
//! move its accountant onto a helper thread, if the worker pool grants a
//! [`HelperSlot`] (the engine is the pool's second helper user, after the
//! hash join's probe planner). The queue
//! then ships to the helper in blocks, and streaming reads and writes join
//! it as records, while the calling thread runs the kernel code that
//! issues them. Every sync point — an observation, a kernel launch, a
//! fault or chaos call, an allocation, a batch read, a reset, a setter,
//! dropping the `Gpu` — joins the helper, takes the accountant back and
//! drops the slot. The helper accounts in program order with the same
//! kernel on the same state, and a calm engine makes no fault draw and
//! records no event, so no output can depend on which thread accounted.

use crate::cache::Cache;
use crate::chaos::ChaosSchedule;
use crate::column::SharedColumn;
use crate::counters::Counters;
use crate::fault::{FaultKind, FaultPlan, RetryPolicy, SimError};
use crate::lru;
use crate::mem::{Buffer, MemLocation};
use crate::pagestamps::PageStampTable;
use crate::pool::{try_helper_slot, HelperSlot};
use crate::spec::GpuSpec;
use crate::tlb::Tlb;
use crate::trace::{HitLevel, Trace, TraceEvent, TraceMode};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Re-miss distance (in line accesses) separating *thrashing* from
/// *periodic sweep* misses. A page re-missed within this window was evicted
/// by concurrently running lookups (a lookup-rate event, scaled by the
/// reproduction factor); a page re-missed after a longer interval is a
/// periodic revisit — e.g. the next tumbling window sweeping the same pages
/// — whose count is scale-invariant (pages × phases).
const THRASH_DISTANCE: u64 = 2048;

/// Bound of the access queue while the engine accounts inline, equal to
/// its preallocated capacity, so queueing never reallocates. Four accesses
/// for each of the widest warp's lanes.
const QUEUE_CAPACITY: usize = crate::exec::MAX_LANES * 4;

/// Queued accesses a run must reach, with no sync point in between,
/// before its accounting may move onto a helper thread. An episode costs a
/// thread start, so runs much shorter than a thread start's worth of line
/// walking stay inline: an INLJ streams its probe keys every warp and a
/// windowed serve dispatch queues a few hundred accesses.
const LONG_RUN: usize = 4096;

/// Records per block a helper episode ships (the queue's bound while a
/// helper accounts).
const BLOCK_RECORDS: usize = 4096;

/// Blocks one helper episode keeps in flight, the one being filled
/// included: the calling thread runs at most this many blocks ahead of
/// the helper.
const BLOCKS_IN_FLIGHT: usize = 4;

/// What a queued access does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    /// A data-dependent read ([`Gpu::touch_read`]).
    Read,
    /// A write ([`Gpu::touch_write`], [`Gpu::stream_write`]).
    Write,
    /// A sequential streaming read ([`Gpu::stream_read`]).
    StreamRead,
}

/// A single access waiting in the queue.
#[derive(Debug, Clone, Copy)]
struct QueuedAccess {
    loc: MemLocation,
    addr: u64,
    bytes: u64,
    kind: AccessKind,
}

impl QueuedAccess {
    /// The `(loc, addr, bytes)` request the line walk takes.
    #[inline]
    fn request(&self) -> (MemLocation, u64, u64) {
        (self.loc, self.addr, self.bytes)
    }
}

/// Split a program-ordered block into its maximal runs of reads, each
/// with the write or streaming read that ends it (if any).
fn runs(block: &[QueuedAccess]) -> impl Iterator<Item = (&[QueuedAccess], Option<&QueuedAccess>)> {
    block
        .split_inclusive(|r| r.kind != AccessKind::Read)
        .map(|run| match run.split_last() {
            Some((last, reads)) if last.kind != AccessKind::Read => (reads, Some(last)),
            _ => (run, None),
        })
}

/// The chaos effects in force at the current virtual time, precomputed so
/// the per-access hot paths pay flag checks instead of window scans.
/// Recomputed only when the virtual clock or the schedule changes.
#[derive(Debug, Clone, Copy)]
struct ChaosEffects {
    /// Transfers hard-fail while a link-flap window is active.
    link_flap: bool,
    /// Device operations fail with [`SimError::DeviceLost`].
    device_lost: bool,
    /// Page-quarantine probability of the active ECC storm (0.0 = none).
    ecc_page_rate: f64,
    /// Brownout stall accrued per streamed/written interconnect byte, in
    /// paper-scale nanoseconds (0.0 = no brownout).
    streamed_stall_ns_per_byte: f64,
    /// Brownout stall accrued per random interconnect byte (derated by the
    /// fine-grained-read efficiency, so random bytes stall longer).
    random_stall_ns_per_byte: f64,
}

impl Default for ChaosEffects {
    fn default() -> Self {
        ChaosEffects {
            link_flap: false,
            device_lost: false,
            ecc_page_rate: 0.0,
            streamed_stall_ns_per_byte: 0.0,
            random_stall_ns_per_byte: 0.0,
        }
    }
}

/// The memory-system state an access is classified against, and the
/// counts that classification produces. The `Gpu` owns it, except during
/// a helper episode (see the module docs), when the helper thread does.
#[derive(Debug)]
struct Accountant {
    tlb: Tlb,
    l1: Cache,
    l2: Cache,
    line_shift: u32,
    page_shift: u32,
    line_bytes: u64,
    /// Line-access clock for re-miss distance measurement.
    access_clock: u64,
    /// The previously accessed line: a repeat access is a guaranteed L1 hit
    /// (the line is MRU in its set) and short-circuits the whole hierarchy.
    last_line: u64,
    /// Per-page stamp of the last miss (distinguishes thrashing re-misses
    /// from compulsory / periodic-sweep misses). Flat and bounded; cleared
    /// on [`Gpu::reset_memory_system`].
    missed_pages: PageStampTable,
    /// Counts accounted here since the last observation; merged into the
    /// `Gpu`'s counters by [`Gpu::counters`].
    delta: Counters,
}

impl Accountant {
    fn new(spec: &GpuSpec) -> Self {
        Accountant {
            tlb: Tlb::new(spec.tlb_entries, spec.tlb_assoc, spec.page_bytes),
            l1: Cache::new(spec.l1_bytes, spec.cacheline_bytes, spec.l1_assoc),
            l2: Cache::new(spec.l2_bytes, spec.cacheline_bytes, spec.l2_assoc),
            line_shift: spec.cacheline_bytes.trailing_zeros(),
            page_shift: spec.page_bytes.trailing_zeros(),
            line_bytes: spec.cacheline_bytes,
            access_clock: 0,
            last_line: u64::MAX,
            // Sized for the pages missable inside one thrash window at this
            // geometry: the TLB's own coverage plus the sweep front that
            // evicts it. A few thousand slots even for generous specs.
            missed_pages: PageStampTable::new(spec.tlb_entries * 8, THRASH_DISTANCE),
            delta: Counters::default(),
        }
    }

    /// The line-walk kernel: the one place a cacheline read is classified
    /// against L1, L2 and the TLB and accounted.
    ///
    /// Every covered line of every request is, in program order: an L1
    /// hit, an L2 hit, or a miss that ends in device memory (an ECC
    /// refetch inside a storm) or crosses the interconnect (a TLB lookup,
    /// with sweep/thrash classification of a miss, plus brownout stall).
    ///
    /// The kernel destructures the accountant once per call into separate
    /// borrows — the L1, L2 and TLB tag stores, the page-stamp table and
    /// the counters — keeps the line clock and the last line in locals,
    /// written back once per call, and runs one loop over every line of
    /// every request with the tag-store lookups inlined into it. Two
    /// further steps measured slower and were left out: copying each tag
    /// store's set geometry into locals up front (the copies spill to the
    /// stack), and counting into a local tally (its write-back costs every
    /// counter on each one-line call).
    ///
    /// `ONE_GPU_LINE` is the instantiation for requests the caller knows
    /// are GPU-located, one line each, untraced and outside an ECC storm
    /// (see [`Gpu::touch_read_batch`]): it walks one line per request and
    /// drops the location and quarantine checks of a miss.
    #[inline]
    fn line_walk<const TRACED: bool, const ONE_GPU_LINE: bool>(
        &mut self,
        reads: impl Iterator<Item = (MemLocation, u64, u64)>,
        trace: Option<&mut Trace>,
        chaos: &ChaosEffects,
        chaos_schedule: &ChaosSchedule,
    ) {
        let Accountant {
            tlb,
            l1,
            l2,
            line_shift,
            page_shift,
            line_bytes,
            access_clock,
            last_line,
            missed_pages,
            delta: counters,
        } = self;
        let mut trace = if TRACED { trace } else { None };
        let (line_shift, page_shift, line_bytes) = (*line_shift, *page_shift, *line_bytes);
        let mut clock = *access_clock;
        let mut last = *last_line;
        for (loc, addr, bytes) in reads {
            debug_assert!(bytes > 0);
            let first_line = addr >> line_shift;
            let last_line = if ONE_GPU_LINE {
                debug_assert!(loc == MemLocation::Gpu);
                debug_assert_eq!(first_line, (addr + bytes - 1) >> line_shift);
                first_line
            } else {
                (addr + bytes - 1) >> line_shift
            };
            for line in first_line..=last_line {
                let line_addr = line << line_shift;
                clock += 1;
                let hit = if line_addr == last {
                    // Consecutive-same-line fast path: the previous access
                    // left this line MRU in its L1 set, so it is a hit and
                    // the refresh is a no-op. (Addresses are unique across
                    // buffers, so a line address implies its location.)
                    counters.l1_hits += 1;
                    HitLevel::L1
                } else {
                    last = line_addr;
                    // L1 and L2 share the line size: hash the tag once.
                    let hash = lru::hash_of(line);
                    if l1.access_hashed(line_addr, hash) {
                        counters.l1_hits += 1;
                        HitLevel::L1
                    } else if l2.access_hashed(line_addr, hash) {
                        counters.l1_misses += 1;
                        counters.l2_hits += 1;
                        HitLevel::L2
                    } else if ONE_GPU_LINE {
                        counters.l1_misses += 1;
                        counters.l2_misses += 1;
                        counters.gpu_bytes_read += line_bytes;
                        HitLevel::GpuMem
                    } else {
                        counters.l1_misses += 1;
                        counters.l2_misses += 1;
                        let page = line_addr >> page_shift;
                        match loc {
                            MemLocation::Gpu => {
                                if chaos.ecc_page_rate > 0.0
                                    && chaos_schedule.page_quarantined(page, chaos.ecc_page_rate)
                                {
                                    // ECC storm: the page's HBM copy is
                                    // quarantined; the line is re-fetched
                                    // over the interconnect (priced at the
                                    // fine-grained-read bandwidth by the
                                    // cost model). The caches still fill,
                                    // so the penalty is paid once per
                                    // (re-)fetch.
                                    counters.ecc_refetch_lines += 1;
                                    if let Some(t) = trace.as_deref_mut() {
                                        t.record(TraceEvent::EccRefetch { line_addr });
                                    }
                                } else {
                                    counters.gpu_bytes_read += line_bytes;
                                }
                                HitLevel::GpuMem
                            }
                            MemLocation::Cpu => {
                                let tlb_hit = tlb.access(line_addr);
                                if tlb_hit {
                                    counters.tlb_hits += 1;
                                } else {
                                    counters.tlb_misses += 1;
                                    if missed_pages.note_miss(page, clock) {
                                        counters.tlb_sweep_misses += 1;
                                    }
                                }
                                counters.ic_lines_random += 1;
                                counters.ic_bytes_random += line_bytes;
                                let per_byte = chaos.random_stall_ns_per_byte;
                                if per_byte > 0.0 {
                                    counters.chaos_stall_ns +=
                                        (line_bytes as f64 * per_byte) as u64;
                                }
                                HitLevel::Remote { tlb_hit }
                            }
                        }
                    }
                };
                if let Some(t) = trace.as_deref_mut() {
                    t.record(TraceEvent::ReadLine {
                        loc,
                        line_addr,
                        hit,
                    });
                }
            }
        }
        *access_clock = clock;
        *last_line = last;
    }

    /// The memory-system part of a queued write or streaming read: its
    /// bytes, and the TLB traffic of a CPU-memory transfer. Writes are
    /// streaming stores (no write-allocate) and streams touch the TLB
    /// once per page, so neither enters the caches.
    #[inline]
    fn transfer(&mut self, req: &QueuedAccess, trace: Option<&mut Trace>) {
        let c = &mut self.delta;
        match (req.loc, req.kind) {
            (MemLocation::Gpu, AccessKind::Write) => c.gpu_bytes_written += req.bytes,
            (MemLocation::Gpu, _) => c.gpu_bytes_read += req.bytes,
            (MemLocation::Cpu, kind) => {
                if kind == AccessKind::Write {
                    c.ic_bytes_written += req.bytes;
                } else {
                    c.ic_bytes_streamed += req.bytes;
                }
                self.translate(req.addr, req.bytes, trace);
            }
        }
    }

    /// TLB traffic for a (possibly multi-page) sequential or write access.
    /// Each page translation is traced as [`TraceEvent::Translate`] so the
    /// trace carries *every* TLB access the counters see (random reads
    /// record theirs inside [`TraceEvent::ReadLine`]). A miss is split into
    /// a page-sweep event (compulsory first touch, or periodic revisit
    /// after more than [`THRASH_DISTANCE`] line accesses) or a thrashing
    /// re-miss: sweep misses are page-count events (already at paper
    /// scale), thrashing re-misses are lookup-rate events (scaled back up
    /// by the reproduction factor).
    #[inline]
    fn translate(&mut self, addr: u64, bytes: u64, mut trace: Option<&mut Trace>) {
        let first = addr >> self.page_shift;
        let last = (addr + bytes - 1) >> self.page_shift;
        for page in first..=last {
            let hit = self.tlb.access(page << self.page_shift);
            if hit {
                self.delta.tlb_hits += 1;
            } else {
                self.delta.tlb_misses += 1;
                if self.missed_pages.note_miss(page, self.access_clock) {
                    self.delta.tlb_sweep_misses += 1;
                }
            }
            if let Some(t) = trace.as_deref_mut() {
                t.record(TraceEvent::Translate {
                    page_addr: page << self.page_shift,
                    hit,
                });
            }
        }
    }

    /// Account one block of a calm engine's queue: untraced, with no fault
    /// draw and no chaos effect, exactly as an inline drain of a calm
    /// engine does.
    fn account_calm(&mut self, block: &[QueuedAccess]) {
        let (calm, schedule) = (ChaosEffects::default(), ChaosSchedule::none());
        for (reads, end) in runs(block) {
            self.line_walk::<false, false>(
                reads.iter().map(QueuedAccess::request),
                None,
                &calm,
                &schedule,
            );
            if let Some(req) = end {
                self.transfer(req, None);
            }
        }
    }

    /// Flush the TLB and caches and forget every page stamp.
    fn flush(&mut self) {
        self.tlb.flush();
        self.l1.flush();
        self.l2.flush();
        self.last_line = u64::MAX;
        self.missed_pages.clear();
    }
}

/// A helper thread accounting the queue of a calm engine, from the first
/// block shipped to the next sync point.
struct Episode {
    /// Filled blocks, in program order.
    full: SyncSender<Vec<QueuedAccess>>,
    /// Blocks the helper has accounted, emptied, for refilling.
    free: Receiver<Vec<QueuedAccess>>,
    /// Returns the accountant once `full` closes and every block is
    /// accounted.
    helper: JoinHandle<Accountant>,
    /// Blocks handed out this episode (at most [`BLOCKS_IN_FLIGHT`]).
    blocks: usize,
    /// The inline queue, parked until the episode ends.
    inline: Vec<QueuedAccess>,
    /// The pool's count of this helper thread (none when forced by the
    /// test hook), dropped after the join.
    _slot: Option<HelperSlot>,
}

impl Episode {
    /// Ship `last` unless it is empty, close the block stream and join the
    /// helper. Every block of the episode ends up in `spare`.
    fn finish(
        self,
        last: Vec<QueuedAccess>,
        spare: &mut Vec<Vec<QueuedAccess>>,
    ) -> std::thread::Result<Accountant> {
        if last.is_empty() {
            spare.push(last);
        } else {
            // Fails only if the helper panicked; the join reports it.
            let _ = self.full.send(last);
        }
        drop(self.full);
        let acct = self.helper.join();
        spare.extend(self.free.try_iter());
        acct
    }
}

impl std::fmt::Debug for Episode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Episode")
            .field("blocks", &self.blocks)
            .finish_non_exhaustive()
    }
}

/// Helper threads running (for this crate's tests).
#[cfg(test)]
static LIVE_HELPERS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Panic message of an inline-accounting call reached mid-episode.
const ON_HELPER: &str = "the accountant is on a helper thread";

/// The simulated GPU. Owns the memory-system state and allocates buffers in
/// a shared virtual address space.
#[derive(Debug)]
pub struct Gpu {
    spec: GpuSpec,
    /// The memory-system state and its counts; `None` while a helper
    /// episode owns it.
    acct: Option<Accountant>,
    /// The helper episode in progress, if any.
    episode: Option<Episode>,
    /// Counts made outside the accountant (launches, compute ops,
    /// lookups, faults, retries), plus every accountant delta observed.
    counters: Counters,
    next_addr: u64,
    /// Single accesses from [`Gpu::touch_read`]/[`Gpu::touch_write`] not yet
    /// accounted, in program order (and, during a helper episode, the
    /// block being filled, streaming reads included). Drained when full
    /// and by every other entry point that accounts or observes state, so
    /// the global accounting order always equals program order and
    /// queueing is invisible.
    queue: Vec<QueuedAccess>,
    /// The queue length that drains or ships it.
    queue_limit: usize,
    /// Accesses queued since the last sync point (counted at drains).
    run: usize,
    /// Emptied blocks of past episodes, reused by the next one.
    spare_blocks: Vec<Vec<QueuedAccess>>,
    /// Helper episodes started so far.
    episodes: u64,
    /// Test hook: the block length of episodes forced whenever calm.
    forced_block: Option<usize>,
    /// Optional access-trace recorder.
    trace: Option<Trace>,
    /// Deterministic fault-injection plan (defaults to no faults).
    fault_plan: FaultPlan,
    /// Per-kind fault draw sequence numbers (alloc, transfer, launch).
    fault_seq: [u64; 3],
    /// First injected fault observed during the current kernel body;
    /// surfaced by [`try_launch_kernel`](crate::exec::try_launch_kernel).
    pending_fault: Option<SimError>,
    /// Retry policy operators apply to transient faults.
    retry: RetryPolicy,
    /// Device bytes currently allocated (page-rounded reservations).
    gpu_live_bytes: u64,
    /// Deterministic chaos windows on the virtual clock (defaults to calm).
    chaos_schedule: ChaosSchedule,
    /// The virtual time the engine currently sits at, in seconds. Advanced
    /// only by the caller ([`Gpu::set_virtual_time`]); the trace-driven
    /// engine has no clock of its own.
    virtual_now_s: f64,
    /// Chaos effects active at `virtual_now_s`, precomputed for hot paths.
    chaos: ChaosEffects,
}

impl Gpu {
    /// Create a GPU from a device spec with an empty memory system.
    /// Panicking convenience over [`Gpu::try_new`]; use `try_new` where the
    /// spec comes from configuration rather than a vetted preset.
    pub fn new(spec: GpuSpec) -> Self {
        Self::try_new(spec).expect("invalid GPU spec")
    }

    /// Create a GPU from a device spec, validating it first.
    pub fn try_new(spec: GpuSpec) -> Result<Self, SimError> {
        spec.validate()?;
        let acct = Accountant::new(&spec);
        let first_addr = spec.page_bytes;
        Ok(Gpu {
            spec,
            acct: Some(acct),
            episode: None,
            counters: Counters::default(),
            // Reserve the zero page so no valid buffer starts at address 0.
            next_addr: first_addr,
            queue: Vec::with_capacity(QUEUE_CAPACITY),
            queue_limit: QUEUE_CAPACITY,
            run: 0,
            spare_blocks: Vec::new(),
            episodes: 0,
            forced_block: None,
            trace: None,
            fault_plan: FaultPlan::none(),
            fault_seq: [0; 3],
            pending_fault: None,
            retry: RetryPolicy::default(),
            gpu_live_bytes: 0,
            chaos_schedule: ChaosSchedule::none(),
            virtual_now_s: 0.0,
            chaos: ChaosEffects::default(),
        })
    }

    /// Start recording memory-system events (bounded at `capacity`,
    /// truncating beyond it). Replaces any previous recording.
    pub fn start_trace(&mut self, capacity: usize) {
        self.start_trace_mode(capacity, TraceMode::Truncate);
    }

    /// Start recording with an explicit capacity and overflow mode.
    /// Replaces any previous recording.
    pub fn start_trace_mode(&mut self, capacity: usize, mode: TraceMode) {
        self.sync();
        self.trace = Some(Trace::new(capacity, mode));
    }

    /// Start recording at the spec's [`trace_capacity`](GpuSpec) bound in
    /// ring mode — the safe default for runs of unknown length: memory
    /// stays bounded, the newest events survive, and the drop accounting in
    /// [`Trace::offered`] stays exact.
    pub fn start_bounded_trace(&mut self) {
        self.start_trace_mode(self.spec.trace_capacity, TraceMode::Ring);
    }

    /// Stop recording and return the trace, normalized to recording order
    /// (empty if never started). Any accesses still waiting in the queue
    /// are accounted first so their events land in this trace.
    pub fn stop_trace(&mut self) -> Trace {
        self.sync();
        let mut trace = self.trace.take().unwrap_or_default();
        trace.normalize();
        trace
    }

    /// The device spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Current cumulative counters, including every access made so far
    /// (queued accesses are accounted first).
    pub fn counters(&mut self) -> Counters {
        self.sync();
        let delta = std::mem::take(&mut self.acct().delta);
        self.counters = self.counters + delta;
        self.counters
    }

    /// The accountant, owned by this thread outside helper episodes.
    #[inline]
    fn acct(&mut self) -> &mut Accountant {
        self.acct.as_mut().expect(ON_HELPER)
    }

    /// Allocate a zero-initialized buffer of `len` elements at `loc`.
    ///
    /// Device allocations are fallible: they fail with
    /// [`SimError::OutOfDeviceMemory`] when the HBM capacity budget
    /// (`spec.hbm_bytes`) would be exceeded, and with
    /// [`SimError::AllocFault`] when an injected transient allocation
    /// failure fires. Host allocations always succeed (CPU DRAM is the
    /// capacity backstop in the paper's out-of-core setting).
    pub fn alloc<T: Copy + Default>(
        &mut self,
        loc: MemLocation,
        len: usize,
    ) -> Result<Buffer<T>, SimError> {
        self.alloc_from_vec(loc, vec![T::default(); len])
    }

    /// Allocate a buffer at `loc` initialized with `data` (host-side copy;
    /// not counted — staging input data is pre-query work). See
    /// [`Gpu::alloc`] for the failure modes of device allocations.
    pub fn alloc_from_vec<T: Copy>(
        &mut self,
        loc: MemLocation,
        data: Vec<T>,
    ) -> Result<Buffer<T>, SimError> {
        self.sync();
        let reserved = self.reservation_bytes::<T>(data.len());
        if loc == MemLocation::Gpu {
            if self.chaos.device_lost {
                self.note_device_lost();
                return Err(SimError::DeviceLost);
            }
            if self.draw_fault(FaultKind::Alloc) {
                self.counters.faults_alloc += 1;
                self.record_event(TraceEvent::Fault {
                    kind: FaultKind::Alloc,
                });
                return Err(SimError::AllocFault);
            }
            let budget = self.spec.hbm_bytes;
            if self.gpu_live_bytes + reserved > budget {
                return Err(SimError::OutOfDeviceMemory {
                    requested: reserved,
                    live: self.gpu_live_bytes,
                    budget,
                });
            }
            self.gpu_live_bytes += reserved;
        }
        let base = self.next_addr;
        // Page-align every allocation so buffers never share a page and the
        // partitioning bit arithmetic (§4.2) sees page-aligned relations.
        self.next_addr = base + reserved;
        Ok(Buffer::from_parts(data, base, loc))
    }

    /// Allocate a zero-initialized host (CPU-memory) buffer. Host
    /// allocations are infallible by contract, so callers staging input or
    /// spilling state to CPU memory need no error paths.
    pub fn alloc_host<T: Copy + Default>(&mut self, len: usize) -> Buffer<T> {
        self.alloc_host_from_vec(vec![T::default(); len])
    }

    /// Allocate a host (CPU-memory) buffer initialized with `data`;
    /// infallible (see [`Gpu::alloc_host`]).
    pub fn alloc_host_from_vec<T: Copy>(&mut self, data: Vec<T>) -> Buffer<T> {
        self.alloc_from_vec(MemLocation::Cpu, data)
            .expect("host allocations are infallible")
    }

    /// Allocate a host (CPU-memory) buffer that *aliases* the shared column
    /// `data` instead of copying it — staging a multi-megabyte base column is
    /// an `Arc` clone, and builds over the buffer reuse the column's derived
    /// artifacts (see [`Buffer::derived`]).
    /// Address assignment, accounting, and access semantics are identical to
    /// [`Gpu::alloc_host_from_vec`]; a later device-side write converts the
    /// buffer to owned storage (copy-on-write).
    pub fn alloc_host_shared<T: Copy>(&mut self, data: SharedColumn<T>) -> Buffer<T> {
        let base = self.reserve_host::<T>(data.len());
        Buffer::from_shared(data, base, MemLocation::Cpu)
    }

    /// Reserve the host address range that [`Gpu::alloc_host_from_vec`]
    /// of `len` elements would take (same base, same page rounding) and
    /// return its base, with no host bytes behind it. A structure whose
    /// contents are a pure function of data held elsewhere (an index leaf
    /// level over its key column) derives each element on read and
    /// accounts the read at `base + i · size_of::<T>()` through
    /// [`Gpu::touch_read`], exactly as a buffer there would.
    pub fn reserve_host<T>(&mut self, len: usize) -> u64 {
        self.sync();
        let base = self.next_addr;
        self.next_addr = base + self.reservation_bytes::<T>(len);
        base
    }

    /// Release a buffer. Device buffers return their reservation to the HBM
    /// budget; host buffers are simply dropped. Address space is not reused
    /// (the engine is a bump allocator), only capacity accounting changes.
    pub fn free<T: Copy>(&mut self, buf: Buffer<T>) {
        self.sync();
        if buf.location() == MemLocation::Gpu {
            let reserved = self.reservation_bytes::<T>(buf.len());
            self.gpu_live_bytes = self.gpu_live_bytes.saturating_sub(reserved);
        }
    }

    /// Device bytes currently allocated (page-rounded reservations).
    pub fn live_gpu_bytes(&self) -> u64 {
        self.gpu_live_bytes
    }

    /// Device bytes still available under the HBM budget.
    pub fn gpu_headroom(&self) -> u64 {
        self.spec.hbm_bytes.saturating_sub(self.gpu_live_bytes)
    }

    /// Page-rounded bytes an allocation of `len` elements reserves.
    fn reservation_bytes<T>(&self, len: usize) -> u64 {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        let page = self.spec.page_bytes;
        bytes.div_ceil(page).max(1) * page
    }

    /// Install a fault-injection plan (replaces the current plan and resets
    /// the per-kind fault sequences so plans compose reproducibly). The
    /// plan is validated first: NaN or out-of-`[0, 1]` rates are rejected
    /// with [`SimError::InvalidConfig`] instead of silently skewing draws.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), SimError> {
        plan.validate()?;
        self.sync();
        self.fault_plan = plan;
        self.fault_seq = [0; 3];
        self.pending_fault = None;
        Ok(())
    }

    /// Install a chaos schedule (validated; replaces the current schedule)
    /// and recompute the effects active at the current virtual time.
    pub fn set_chaos_schedule(&mut self, schedule: ChaosSchedule) -> Result<(), SimError> {
        schedule.validate()?;
        self.sync();
        self.chaos_schedule = schedule;
        self.recompute_chaos();
        Ok(())
    }

    /// The active chaos schedule.
    pub fn chaos_schedule(&self) -> &ChaosSchedule {
        &self.chaos_schedule
    }

    /// Move the virtual clock to `t_s` seconds and apply whichever chaos
    /// windows contain that instant. Queued accesses are resolved first so
    /// they are accounted under the old time's effects.
    pub fn set_virtual_time(&mut self, t_s: f64) {
        self.sync();
        self.virtual_now_s = t_s;
        if !self.chaos_schedule.is_empty() {
            self.recompute_chaos();
        }
    }

    /// The current virtual time, in seconds.
    pub fn virtual_now_s(&self) -> f64 {
        self.virtual_now_s
    }

    /// Whether a device-loss window is active right now.
    pub fn device_lost(&self) -> bool {
        self.chaos.device_lost
    }

    /// Earliest virtual time `>=` now at which no device-loss window is
    /// active — when recovery can rebuild device state.
    pub fn chaos_clearance_s(&self) -> f64 {
        self.chaos_schedule.clearance_s(self.virtual_now_s)
    }

    /// Recompute the cached [`ChaosEffects`] for the current virtual time,
    /// recording a [`TraceEvent::ChaosTransition`] when the active set
    /// changed.
    fn recompute_chaos(&mut self) {
        let a = self.chaos_schedule.activity_at(self.virtual_now_s);
        let (streamed, random) = if a.bandwidth_scale < 1.0 {
            // The degraded link delivers bytes at `scale` × nominal
            // bandwidth; the difference to nominal is stall time, accrued
            // at paper scale (simulated bytes × reproduction factor).
            let ic = &self.spec.interconnect;
            let eff_bw = ic.effective_bandwidth_gbps * 1e9;
            let rand_bw = eff_bw * ic.fine_grained_efficiency;
            let slow = 1.0 / a.bandwidth_scale - 1.0;
            let scale = self.spec.scale.factor as f64;
            (scale * slow * 1e9 / eff_bw, scale * slow * 1e9 / rand_bw)
        } else {
            (0.0, 0.0)
        };
        let next = ChaosEffects {
            link_flap: a.link_flap,
            device_lost: a.device_lost,
            ecc_page_rate: a.ecc_page_rate,
            streamed_stall_ns_per_byte: streamed,
            random_stall_ns_per_byte: random,
        };
        let flags = |e: &ChaosEffects| {
            (
                e.streamed_stall_ns_per_byte > 0.0,
                e.link_flap,
                e.ecc_page_rate > 0.0,
                e.device_lost,
            )
        };
        let changed = flags(&next) != flags(&self.chaos);
        self.chaos = next;
        if changed {
            let (brownout, link_flap, ecc_storm, device_lost) = flags(&self.chaos);
            self.record_event(TraceEvent::ChaosTransition {
                brownout,
                link_flap,
                ecc_storm,
                device_lost,
            });
        }
    }

    /// Accrue brownout stall for `bytes` moved over the degraded link.
    #[inline]
    fn chaos_stall(&mut self, bytes: u64, per_byte_ns: f64) {
        if per_byte_ns > 0.0 {
            self.counters.chaos_stall_ns += (bytes as f64 * per_byte_ns) as u64;
        }
    }

    /// Count and latch a device-loss refusal (at most one per latched
    /// fault, so a kernel body touching many lines reports one loss).
    fn note_device_lost(&mut self) {
        if !matches!(self.pending_fault, Some(SimError::DeviceLost)) {
            self.counters.faults_device_lost += 1;
            self.record_event(TraceEvent::DeviceLost);
            self.pending_fault = Some(SimError::DeviceLost);
        }
    }

    /// The active fault-injection plan.
    pub fn fault_plan(&self) -> FaultPlan {
        self.fault_plan
    }

    /// Set the retry policy operators apply to transient faults.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.sync();
        self.retry = retry;
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Draw the next fault decision for `kind` (advances that kind's
    /// deterministic sequence).
    fn draw_fault(&mut self, kind: FaultKind) -> bool {
        if !self.fault_plan.is_active() {
            return false;
        }
        let slot = match kind {
            FaultKind::Alloc => 0,
            FaultKind::Transfer => 1,
            FaultKind::Launch => 2,
        };
        let seq = self.fault_seq[slot];
        self.fault_seq[slot] += 1;
        self.fault_plan.should_fault(kind, seq)
    }

    /// Draw a transfer fault for one interconnect operation; records the
    /// fault and latches it for the surrounding fallible kernel launch.
    /// Chaos windows take precedence over the Bernoulli draws: device loss
    /// refuses the operation outright, a link flap hard-fails it.
    #[inline]
    fn draw_transfer_fault(&mut self) {
        if self.chaos.device_lost {
            self.note_device_lost();
            return;
        }
        if self.chaos.link_flap {
            self.counters.faults_transfer += 1;
            self.counters.faults_link_flap += 1;
            self.record_event(TraceEvent::Fault {
                kind: FaultKind::Transfer,
            });
            if self.pending_fault.is_none() {
                self.pending_fault = Some(SimError::TransientTransferFault);
            }
            return;
        }
        if self.draw_fault(FaultKind::Transfer) {
            self.counters.faults_transfer += 1;
            self.record_event(TraceEvent::Fault {
                kind: FaultKind::Transfer,
            });
            if self.pending_fault.is_none() {
                self.pending_fault = Some(SimError::TransientTransferFault);
            }
        }
    }

    /// Record one event into the active trace, if any.
    #[inline]
    fn record_event(&mut self, ev: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.record(ev);
        }
    }

    /// Clear any latched fault (called at fallible kernel entry).
    #[doc(hidden)]
    pub fn clear_pending_fault(&mut self) {
        self.sync();
        self.pending_fault = None;
    }

    /// Take the fault latched during the current kernel body, if any. Any
    /// accesses still queued are accounted first so their fault draws are
    /// observed by the surrounding fallible launch.
    #[doc(hidden)]
    pub fn take_pending_fault(&mut self) -> Option<SimError> {
        self.sync();
        self.pending_fault.take()
    }

    /// Count a kernel launch and draw an injected launch failure. Used by
    /// [`try_launch_kernel`](crate::exec::try_launch_kernel); the infallible
    /// [`kernel_launch`](Gpu::kernel_launch) never fails.
    #[doc(hidden)]
    pub fn try_begin_launch(&mut self) -> Result<(), SimError> {
        self.kernel_launch();
        if self.chaos.device_lost {
            self.note_device_lost();
            return Err(SimError::DeviceLost);
        }
        if self.draw_fault(FaultKind::Launch) {
            self.counters.faults_launch += 1;
            self.record_event(TraceEvent::Fault {
                kind: FaultKind::Launch,
            });
            return Err(SimError::KernelLaunchFailed);
        }
        Ok(())
    }

    /// Charge the deterministic backoff for retry number `attempt`
    /// (0-based) to the counters.
    pub fn record_retry(&mut self, attempt: u32) {
        self.sync();
        self.counters.retries += 1;
        let backoff_ns = self.retry.backoff_ns(attempt);
        self.counters.retry_backoff_ns += backoff_ns;
        self.record_event(TraceEvent::Retry {
            attempt,
            backoff_ns,
        });
    }

    /// Record a data-dependent device-side read of `bytes` at `addr`. Every
    /// covered cacheline is accessed individually, in program order, when
    /// the queue drains (see the module docs).
    #[inline]
    pub fn touch_read(&mut self, loc: MemLocation, addr: u64, bytes: u64) {
        self.enqueue(loc, addr, bytes, AccessKind::Read);
    }

    /// Record a device-side write of `bytes` at `addr`, accounted in program
    /// order when the queue drains. Writes are modeled as streaming stores
    /// (no write-allocate): GPU kernels in this domain write results and
    /// partitions once and never read them back through the same kernel's
    /// caches.
    #[inline]
    pub fn touch_write(&mut self, loc: MemLocation, addr: u64, bytes: u64) {
        self.enqueue(loc, addr, bytes, AccessKind::Write);
    }

    /// Queue one access, draining or shipping the queue when it is full.
    #[inline]
    fn enqueue(&mut self, loc: MemLocation, addr: u64, bytes: u64, kind: AccessKind) {
        debug_assert!(bytes > 0);
        self.queue.push(QueuedAccess {
            loc,
            addr,
            bytes,
            kind,
        });
        if self.queue.len() == self.queue_limit {
            self.queue_full();
        }
    }

    /// Record one data-dependent read of `bytes` at each address of
    /// `addrs`, in order: the same accounting as one [`Gpu::touch_read`]
    /// per address, resolved in one pass of the line-walk kernel after the
    /// queue has drained. Callers that work out a run of independent reads
    /// from host data first (a warp's hash-table slot reads) hand the run
    /// over here.
    ///
    /// A GPU batch read untraced and outside an ECC storm needs neither
    /// fault draws nor the location and quarantine checks; when none of
    /// its requests straddles two lines it takes the kernel's
    /// one-GPU-line instantiation. Every other batch takes the general
    /// one.
    #[inline]
    pub fn touch_read_batch<I>(&mut self, loc: MemLocation, bytes: u64, addrs: I)
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        self.sync();
        let addrs = addrs.into_iter();
        let line = self.spec.cacheline_bytes;
        if loc == MemLocation::Gpu
            && self.trace.is_none()
            && self.chaos.ecc_page_rate == 0.0
            && addrs
                .clone()
                .all(|addr| (addr & (line - 1)) + bytes <= line)
        {
            self.walk::<false, true>(addrs.map(|addr| (loc, addr, bytes)));
        } else {
            self.read_requests(addrs.map(|addr| (loc, addr, bytes)));
        }
    }

    /// End the current run: join a helper episode (taking the accountant
    /// back and dropping the slot) and account the queue. Every entry point
    /// that accounts or observes state, or changes what accounting does,
    /// calls it first.
    #[inline]
    fn sync(&mut self) {
        if self.episode.is_some() {
            self.end_episode();
        }
        self.drain();
        self.run = 0;
    }

    /// Account every queued access in program order. Cheap when the queue
    /// is empty. Unlike [`Gpu::sync`] it does not end the run.
    #[inline]
    fn drain(&mut self) {
        if !self.queue.is_empty() {
            self.drain_queue();
        }
    }

    /// The queue reached its limit: ship it to the helper during an
    /// episode; otherwise drain it, and start an episode if the run is
    /// long and the engine calm.
    fn queue_full(&mut self) {
        if self.episode.is_some() {
            self.ship();
            return;
        }
        self.drain_queue();
        if (self.run >= LONG_RUN || self.forced_block.is_some()) && self.calm() {
            self.start_episode();
        }
    }

    /// Whether accounting needs nothing but the accountant: no trace, no
    /// active fault plan and no chaos schedule, so no fault draw, event or
    /// chaos effect can occur.
    fn calm(&self) -> bool {
        self.trace.is_none() && !self.fault_plan.is_active() && self.chaos_schedule.is_empty()
    }

    /// Move the accountant onto a helper thread if the worker pool grants
    /// a slot (the test hook needs none). The queue is empty here.
    #[cold]
    fn start_episode(&mut self) {
        let slot = match self.forced_block {
            Some(_) => None,
            None => match try_helper_slot() {
                Some(slot) => Some(slot),
                None => return,
            },
        };
        let mut acct = self.acct.take().expect(ON_HELPER);
        let (full, full_rx) = sync_channel::<Vec<QueuedAccess>>(BLOCKS_IN_FLIGHT);
        let (free_tx, free) = sync_channel(BLOCKS_IN_FLIGHT);
        #[cfg(test)]
        LIVE_HELPERS.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
        let helper = std::thread::spawn(move || {
            for mut block in full_rx {
                acct.account_calm(&block);
                block.clear();
                // At most `BLOCKS_IN_FLIGHT` blocks exist, so this never
                // blocks, and the receiver outlives the join.
                let _ = free_tx.send(block);
            }
            #[cfg(test)]
            LIVE_HELPERS.fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
            acct
        });
        let first = self
            .spare_blocks
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(BLOCK_RECORDS));
        let inline = std::mem::replace(&mut self.queue, first);
        self.queue_limit = self.forced_block.unwrap_or(BLOCK_RECORDS);
        self.episode = Some(Episode {
            full,
            free,
            helper,
            blocks: 1,
            inline,
            _slot: slot,
        });
        self.episodes += 1;
    }

    /// Hand the full block to the helper and continue in an emptied one:
    /// one it returned, a new one while fewer than [`BLOCKS_IN_FLIGHT`]
    /// are out, or else the next one it returns.
    fn ship(&mut self) {
        let ep = self.episode.as_mut().expect("an episode is in progress");
        let next = match ep.free.try_recv() {
            Ok(block) => block,
            Err(_) if ep.blocks < BLOCKS_IN_FLIGHT => {
                ep.blocks += 1;
                self.spare_blocks
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(BLOCK_RECORDS))
            }
            Err(_) => ep.free.recv().expect("the helper accountant panicked"),
        };
        let block = std::mem::replace(&mut self.queue, next);
        ep.full.send(block).expect("the helper accountant panicked");
    }

    /// Join the helper episode: the helper accounts the rest of the queue
    /// and hands the accountant back; the slot is dropped.
    #[cold]
    fn end_episode(&mut self) {
        let Some(mut ep) = self.episode.take() else {
            return;
        };
        let last = std::mem::replace(&mut self.queue, std::mem::take(&mut ep.inline));
        match ep.finish(last, &mut self.spare_blocks) {
            Ok(acct) => self.acct = Some(acct),
            Err(panic) => std::panic::resume_unwind(panic),
        }
        self.queue_limit = if self.forced_block.is_some() {
            1
        } else {
            QUEUE_CAPACITY
        };
    }

    /// Test hook: account on a helper thread whenever the engine is calm,
    /// from the first queued access on and whatever the run length and the
    /// worker pool's count, shipping blocks of `block` records (clamped to
    /// `1..=4096`). It changes which thread accounts and when, never what.
    #[doc(hidden)]
    pub fn force_helper_accounting(&mut self, block: usize) {
        self.sync();
        self.forced_block = Some(block.clamp(1, BLOCK_RECORDS));
        self.queue_limit = 1;
    }

    /// Helper episodes this engine has started (a diagnostic for tests).
    #[doc(hidden)]
    pub fn helper_episodes(&self) -> u64 {
        self.episodes
    }

    /// The body of [`Gpu::drain`]: maximal runs of queued reads go through
    /// the line-walk kernel together; interleaved writes and streaming
    /// reads are accounted in place so program order holds.
    fn drain_queue(&mut self) {
        let mut queue = std::mem::take(&mut self.queue);
        self.run += queue.len();
        for (reads, end) in runs(&queue) {
            if !reads.is_empty() {
                self.read_requests(reads.iter().map(QueuedAccess::request));
            }
            if let Some(req) = end {
                self.transfer_accounting(req);
            }
        }
        // Hand the allocation back so queueing never reallocates.
        queue.clear();
        self.queue = queue;
    }

    /// Account program-ordered read requests `(loc, addr, bytes)`. Every
    /// CPU request draws its transfer fault just before its lines are
    /// walked. With no fault plan, no device loss and no link flap a draw
    /// changes no state, so the check is hoisted and the whole list goes
    /// through one kernel call.
    #[inline]
    fn read_requests(&mut self, reads: impl Iterator<Item = (MemLocation, u64, u64)>) {
        if !self.fault_plan.is_active() && !self.chaos.device_lost && !self.chaos.link_flap {
            self.walk_lines(reads);
        } else {
            for read in reads {
                if read.0 == MemLocation::Cpu {
                    self.draw_transfer_fault();
                }
                self.walk_lines(std::iter::once(read));
            }
        }
    }

    /// Run the line-walk kernel, traced or not. The trace check is hoisted
    /// out of the walk: the untraced instantiation has no recorder
    /// branches at all.
    #[inline]
    fn walk_lines(&mut self, reads: impl Iterator<Item = (MemLocation, u64, u64)>) {
        if self.trace.is_some() {
            self.walk::<true, false>(reads);
        } else {
            self.walk::<false, false>(reads);
        }
    }

    /// Run one instantiation of the line-walk kernel on this thread's
    /// accountant, under the trace and chaos state in force.
    #[inline]
    fn walk<const TRACED: bool, const ONE_GPU_LINE: bool>(
        &mut self,
        reads: impl Iterator<Item = (MemLocation, u64, u64)>,
    ) {
        let Gpu {
            acct,
            trace,
            chaos,
            chaos_schedule,
            ..
        } = self;
        acct.as_mut()
            .expect(ON_HELPER)
            .line_walk::<TRACED, ONE_GPU_LINE>(reads, trace.as_mut(), chaos, chaos_schedule);
    }

    /// The accounting of one queued write or streaming read: its trace
    /// event, the transfer fault and brownout stall of a CPU-memory
    /// transfer, then its bytes and TLB traffic.
    #[inline]
    fn transfer_accounting(&mut self, req: &QueuedAccess) {
        let QueuedAccess {
            loc, addr, bytes, ..
        } = *req;
        self.record_event(match req.kind {
            AccessKind::Write => TraceEvent::Write { loc, addr, bytes },
            _ => TraceEvent::StreamRead { loc, addr, bytes },
        });
        if loc == MemLocation::Cpu {
            self.draw_transfer_fault();
            let per_byte = self.chaos.streamed_stall_ns_per_byte;
            self.chaos_stall(bytes, per_byte);
        }
        let Gpu { acct, trace, .. } = self;
        acct.as_mut()
            .expect(ON_HELPER)
            .transfer(req, trace.as_mut());
    }

    /// Record a sequential streaming read (table scan, probe-key stream).
    /// Counts full-bandwidth bytes; touches the TLB once per page, so scans
    /// do not thrash it (§4.3.1). Accounted on the spot, after the queue,
    /// unless a helper accounts the queue: then it joins the queue.
    #[inline]
    pub fn stream_read(&mut self, loc: MemLocation, addr: u64, bytes: u64) {
        if self.episode.is_some() {
            self.enqueue(loc, addr, bytes, AccessKind::StreamRead);
        } else {
            debug_assert!(bytes > 0);
            self.drain();
            self.transfer_accounting(&QueuedAccess {
                loc,
                addr,
                bytes,
                kind: AccessKind::StreamRead,
            });
        }
    }

    /// Record a sequential streaming write.
    #[inline]
    pub fn stream_write(&mut self, loc: MemLocation, addr: u64, bytes: u64) {
        self.touch_write(loc, addr, bytes);
    }

    /// Count `n` abstract compute operations (≈ warp-wide instructions).
    #[inline]
    pub fn op(&mut self, n: u64) {
        self.counters.compute_ops += n;
    }

    /// Count `n` completed index lookups (normalizes Fig. 4's metric).
    #[inline]
    pub fn count_lookups(&mut self, n: u64) {
        self.counters.lookups += n;
    }

    /// Record a kernel launch.
    #[inline]
    pub fn kernel_launch(&mut self) {
        self.sync();
        self.counters.kernel_launches += 1;
        if let Some(trace) = &mut self.trace {
            trace.record(TraceEvent::KernelLaunch);
        }
    }

    /// Snapshot the counters (use with `-` for interval deltas); queued
    /// accesses are accounted first, as in [`Gpu::counters`].
    pub fn snapshot(&mut self) -> Counters {
        self.counters()
    }

    /// Flush TLB and caches (cold start between queries). Counters are kept;
    /// take snapshots to measure intervals.
    pub fn reset_memory_system(&mut self) {
        self.sync();
        self.acct().flush();
        self.record_event(TraceEvent::TlbFlush);
    }

    /// Slot count of the flat page-stamp table (diagnostic: the bounded
    /// replacement for the old per-session `HashMap` — tests pin that a
    /// multi-query session's footprint stays constant).
    pub fn missed_page_slots(&mut self) -> usize {
        self.sync();
        self.acct().missed_pages.capacity()
    }

    /// Cacheline size helper (used by index layouts).
    #[inline]
    pub fn cacheline_bytes(&self) -> u64 {
        self.spec.cacheline_bytes
    }
}

impl Drop for Gpu {
    /// Join a helper episode still in progress, so no helper thread
    /// outlives its engine or holds its pool slot past it.
    fn drop(&mut self) {
        if let Some(ep) = self.episode.take() {
            let last = std::mem::take(&mut self.queue);
            // A panic on the helper is the panicking caller's to report.
            let _ = ep.finish(last, &mut Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{running, serial};
    use crate::scale::Scale;
    use std::sync::atomic::Ordering;

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER))
    }

    #[test]
    fn repeated_read_hits_cache() {
        let mut g = gpu();
        let buf = g.alloc_host_from_vec(vec![0u64; 64]);
        let _ = buf.read(&mut g, 0);
        let before = g.snapshot();
        let _ = buf.read(&mut g, 1); // same cacheline
        let d = g.snapshot() - before;
        assert_eq!(d.ic_lines_random, 0);
        assert_eq!(d.l1_hits + d.l2_hits, 1);
    }

    #[test]
    fn tlb_miss_once_per_page_when_working_set_fits() {
        // Long calm runs: may take a helper slot.
        let _serial = serial();
        let mut g = gpu();
        let page = g.spec().page_bytes as usize;
        // Two pages of data; read one element per cacheline, twice.
        let n = 2 * page / 8;
        let buf = g.alloc_host_from_vec(vec![0u64; n]);
        let step = (g.spec().cacheline_bytes / 8) as usize;
        for round in 0..2 {
            let before = g.snapshot();
            for i in (0..n).step_by(step) {
                let _ = buf.read(&mut g, i);
            }
            let d = g.snapshot() - before;
            if round == 0 {
                assert_eq!(d.tlb_misses, 2, "cold: one miss per page");
            }
        }
    }

    #[test]
    fn tlb_thrashes_beyond_coverage() {
        let mut g = gpu();
        let page = g.spec().page_bytes;
        let entries = g.spec().tlb_entries as u64;
        // Allocate data covering 2x the TLB range; cyclically touch one line
        // per page. Each line is cold in the caches at the scaled L1/L2
        // sizes except... use distinct lines each round to defeat caches.
        let pages = 2 * entries;
        let n = (pages * page / 8) as usize;
        let buf = g.alloc_host_from_vec(vec![0u64; n]);
        let per_page = (page / 8) as usize;
        let mut misses_last_round = 0;
        for round in 0..3u64 {
            let before = g.snapshot();
            for p in 0..pages as usize {
                // Different line each round so data caches never filter.
                let idx = p * per_page + (round as usize + 1) * 16;
                let _ = buf.read(&mut g, idx);
            }
            misses_last_round = (g.snapshot() - before).tlb_misses;
        }
        // LRU + cyclic over 2x coverage => every access misses.
        assert_eq!(misses_last_round, pages);
    }

    #[test]
    fn streaming_scan_minimal_tlb_traffic() {
        let mut g = gpu();
        let page = g.spec().page_bytes;
        let n = (4 * page / 8) as usize;
        let buf = g.alloc_host_from_vec(vec![0u64; n]);
        let before = g.snapshot();
        let chunk = 4096;
        for i in (0..n).step_by(chunk) {
            let _ = buf.stream_read(&mut g, i, chunk.min(n - i));
        }
        let d = g.snapshot() - before;
        assert_eq!(d.ic_bytes_streamed, n as u64 * 8);
        // 4 pages -> at most a handful of translations (page boundaries may
        // be visited by two chunks).
        assert!(d.tlb_misses <= 8, "got {} misses", d.tlb_misses);
        assert_eq!(d.ic_lines_random, 0);
    }

    #[test]
    fn gpu_memory_never_touches_tlb() {
        // Long calm runs: may take a helper slot.
        let _serial = serial();
        let mut g = gpu();
        let n = (4 * g.spec().page_bytes / 8) as usize;
        let buf = g.alloc_from_vec(MemLocation::Gpu, vec![0u64; n]).unwrap();
        let before = g.snapshot();
        let step = (g.spec().cacheline_bytes / 8) as usize;
        for i in (0..n).step_by(step) {
            let _ = buf.read(&mut g, i);
        }
        let d = g.snapshot() - before;
        assert_eq!(d.tlb_misses, 0);
        assert_eq!(d.tlb_hits, 0);
        assert!(d.gpu_bytes_read > 0);
        assert_eq!(d.ic_bytes_total(), 0);
    }

    #[test]
    fn multi_line_read_counts_each_line() {
        let mut g = gpu();
        let buf = g.alloc_host_from_vec(vec![0u64; 1024]);
        let before = g.snapshot();
        // 4 KiB node = 32 cachelines of 128 B.
        let _ = buf.read_range(&mut g, 0, 512);
        let d = g.snapshot() - before;
        assert_eq!(d.ic_lines_random, 32);
    }

    #[test]
    fn brownout_accrues_stall_only_inside_the_window() {
        use crate::chaos::{ChaosKind, ChaosSchedule};
        let mut g = gpu();
        g.set_chaos_schedule(ChaosSchedule::seeded(1).with_window(
            ChaosKind::Brownout {
                bandwidth_scale: 0.5,
            },
            1.0,
            2.0,
        ))
        .unwrap();
        let buf = g.alloc_host_from_vec(vec![0u64; 4096]);
        // Before the window: no stall.
        let before = g.snapshot();
        buf.stream_read(&mut g, 0, 4096);
        let _ = buf.read(&mut g, 0);
        assert_eq!((g.snapshot() - before).chaos_stall_ns, 0);
        // Inside: streamed and random remote bytes both accrue stall.
        g.set_virtual_time(1.5);
        let before = g.snapshot();
        buf.stream_read(&mut g, 0, 4096);
        let streamed_stall = (g.snapshot() - before).chaos_stall_ns;
        assert!(streamed_stall > 0, "streamed bytes must stall");
        g.reset_memory_system();
        let before = g.snapshot();
        let _ = buf.read(&mut g, 512);
        let random_stall = (g.snapshot() - before).chaos_stall_ns;
        assert!(random_stall > 0, "random remote lines must stall");
        // After: calm again.
        g.set_virtual_time(2.0);
        let before = g.snapshot();
        buf.stream_read(&mut g, 0, 4096);
        assert_eq!((g.snapshot() - before).chaos_stall_ns, 0);
    }

    #[test]
    fn link_flap_hard_fails_transfers_during_the_window() {
        use crate::chaos::{ChaosKind, ChaosSchedule};
        use crate::exec::try_launch_kernel;
        let mut g = gpu();
        g.set_chaos_schedule(ChaosSchedule::seeded(1).with_window(ChaosKind::LinkFlap, 0.0, 1.0))
            .unwrap();
        let buf = g.alloc_host_from_vec(vec![0u64; 64]);
        let err = try_launch_kernel(&mut g, |g| {
            let _ = buf.read(g, 0);
        })
        .unwrap_err();
        assert_eq!(err, SimError::TransientTransferFault);
        let c = g.counters();
        assert!(c.faults_link_flap > 0);
        assert_eq!(c.faults_link_flap, c.faults_transfer);
        // Past the window the same kernel succeeds.
        g.set_virtual_time(1.0);
        assert!(try_launch_kernel(&mut g, |g| {
            let _ = buf.read(g, 1);
        })
        .is_ok());
    }

    #[test]
    fn device_loss_refuses_allocs_launches_and_transfers() {
        use crate::chaos::{ChaosKind, ChaosSchedule};
        use crate::exec::try_launch_kernel;
        let mut g = gpu();
        g.set_chaos_schedule(ChaosSchedule::seeded(1).with_window(ChaosKind::DeviceLoss, 1.0, 2.5))
            .unwrap();
        let host = g.alloc_host_from_vec(vec![0u64; 64]);
        // Before the window the device works.
        assert!(g.alloc_from_vec(MemLocation::Gpu, vec![0u64; 16]).is_ok());
        g.set_virtual_time(1.0);
        assert!(g.device_lost());
        assert_eq!(
            g.alloc_from_vec(MemLocation::Gpu, vec![0u64; 16])
                .unwrap_err(),
            SimError::DeviceLost
        );
        let err = try_launch_kernel(&mut g, |_| ()).unwrap_err();
        assert_eq!(err, SimError::DeviceLost);
        let err = try_launch_kernel(&mut g, |g| {
            let _ = host.read(g, 0);
        })
        .unwrap_err();
        assert_eq!(err, SimError::DeviceLost, "transfers also refuse");
        assert!(!SimError::DeviceLost.is_transient());
        assert!(g.counters().faults_device_lost > 0);
        assert_eq!(g.chaos_clearance_s(), 2.5);
        g.set_virtual_time(g.chaos_clearance_s());
        assert!(!g.device_lost());
        assert!(g.alloc_from_vec(MemLocation::Gpu, vec![0u64; 16]).is_ok());
    }

    #[test]
    fn ecc_storm_refetches_quarantined_lines_over_the_interconnect() {
        use crate::chaos::{ChaosKind, ChaosSchedule};
        let mut g = gpu();
        g.set_chaos_schedule(ChaosSchedule::seeded(3).with_window(
            ChaosKind::EccStorm { page_rate: 1.0 },
            0.0,
            1.0,
        ))
        .unwrap();
        let pages = 4 * g.spec().page_bytes;
        let n = (pages / 8) as usize;
        let buf = g.alloc_from_vec(MemLocation::Gpu, vec![0u64; n]).unwrap();
        let step = (g.spec().cacheline_bytes / 8) as usize;
        let before = g.snapshot();
        for i in (0..n).step_by(step) {
            let _ = buf.read(&mut g, i);
        }
        let d = g.snapshot() - before;
        assert!(d.ecc_refetch_lines > 0, "rate 1.0 quarantines every page");
        assert_eq!(d.gpu_bytes_read, 0, "no line was served from HBM");
        // Refetched lines still fill the caches: an immediate repeat access
        // to the same line hits on-chip without another refetch.
        let _ = buf.read(&mut g, 0);
        let before = g.snapshot();
        let _ = buf.read(&mut g, 0);
        let d2 = g.snapshot() - before;
        assert_eq!(d2.ecc_refetch_lines, 0);
        assert_eq!(d2.l1_hits, 1);
        // Past the storm, device memory serves normally again.
        g.set_virtual_time(1.0);
        g.reset_memory_system();
        let before = g.snapshot();
        let _ = buf.read(&mut g, 0);
        let d3 = g.snapshot() - before;
        assert_eq!(d3.ecc_refetch_lines, 0);
        assert!(d3.gpu_bytes_read > 0);
    }

    #[test]
    fn chaos_transitions_are_traced_and_deterministic() {
        use crate::chaos::ChaosScenario;
        use crate::trace::TraceEvent;
        let run = || {
            let mut g = gpu();
            g.set_chaos_schedule(ChaosScenario::Combined.schedule(7))
                .unwrap();
            g.start_trace(1 << 10);
            let buf = g.alloc_host_from_vec(vec![0u64; 1024]);
            for step in 0..12 {
                g.set_virtual_time(step as f64 * 0.005);
                buf.stream_read(&mut g, 0, 64);
            }
            (g.stop_trace().into_events(), g.counters())
        };
        let (ev_a, c_a) = run();
        let (ev_b, c_b) = run();
        assert_eq!(ev_a, ev_b, "chaos runs must be byte-deterministic");
        assert_eq!(c_a, c_b);
        let transitions = ev_a
            .iter()
            .filter(|e| matches!(e, TraceEvent::ChaosTransition { .. }))
            .count();
        assert!(transitions >= 2, "windows must open and close in the trace");
    }

    #[test]
    fn invalid_plans_and_schedules_are_rejected_at_install() {
        use crate::chaos::{ChaosKind, ChaosSchedule};
        let mut g = gpu();
        let err = g
            .set_fault_plan(FaultPlan::seeded(1).with_transfer_faults(f64::NAN))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        assert!(
            !g.fault_plan().is_active(),
            "rejected plan is not installed"
        );
        let err = g
            .set_chaos_schedule(ChaosSchedule::seeded(1).with_window(ChaosKind::LinkFlap, 5.0, 1.0))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        assert!(g.chaos_schedule().is_empty());
    }

    /// A read still waiting in the queue is accounted before the counters
    /// are observed.
    #[test]
    fn counters_include_a_queued_read() {
        let mut g = gpu();
        let buf = g.alloc_host_from_vec(vec![0u64; 16]);
        let _ = buf.read(&mut g, 0);
        let c = g.counters();
        assert_eq!(c.ic_lines_random, 1);
        assert_eq!(c.tlb_misses, 1);
    }

    #[test]
    fn reset_memory_system_forces_cold_misses() {
        let mut g = gpu();
        let buf = g.alloc_host_from_vec(vec![0u64; 16]);
        let _ = buf.read(&mut g, 0);
        g.reset_memory_system();
        let before = g.snapshot();
        let _ = buf.read(&mut g, 0);
        let d = g.snapshot() - before;
        assert_eq!(d.ic_lines_random, 1);
        assert_eq!(d.tlb_misses, 1);
    }

    /// A reserved range takes the addresses of a buffer of that length,
    /// and a read there is accounted like a read of that buffer.
    #[test]
    fn reserved_range_stands_in_for_a_buffer() {
        let (mut a, mut b) = (gpu(), gpu());
        for len in [0, 1, 511, 4096, 70_000] {
            let buf = a.alloc_host_from_vec(vec![0u64; len]);
            assert_eq!(b.reserve_host::<u64>(len), buf.base_addr(), "len {len}");
        }
        let buf = a.alloc_host_from_vec(vec![7u64; 64]);
        let base = b.reserve_host::<u64>(64);
        let _ = buf.read(&mut a, 17);
        b.touch_read(MemLocation::Cpu, base + 17 * 8, 8);
        assert_eq!(a.counters(), b.counters());
        assert_eq!(
            a.alloc_host::<u64>(1).base_addr(),
            b.alloc_host::<u64>(1).base_addr()
        );
    }

    /// Whether the pool can grant this (non-worker) test thread a slot.
    fn idle_core() -> bool {
        running() + 1 < std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// Queue `n` calm CPU reads (one a line, TLB thrash) with no sync.
    fn long_run(g: &mut Gpu, buf: &Buffer<u64>, n: usize) {
        for k in 0..n {
            let _ = buf.read(g, (k * 4099) % buf.len());
        }
    }

    /// Every sync point joins the helper: the pool's count is back to its
    /// prior value, and the counters equal those of a twin that observed
    /// them every 100 accesses (so it never left inline accounting).
    #[test]
    fn every_sync_point_releases_the_helper_slot() {
        let _serial = serial();
        if !idle_core() {
            return;
        }
        // Each point gets a device buffer allocated before the run.
        type SyncPoint = fn(&mut Gpu, Buffer<u64>);
        let points: [(&str, SyncPoint); 17] = [
            ("counters", |g, _| {
                g.counters();
            }),
            ("snapshot", |g, _| {
                g.snapshot();
            }),
            ("kernel_launch", |g, _| g.kernel_launch()),
            ("clear_pending_fault", |g, _| g.clear_pending_fault()),
            ("take_pending_fault", |g, _| drop(g.take_pending_fault())),
            ("alloc", |g, _| drop(g.alloc_host::<u64>(8))),
            ("free", |g, dev| g.free(dev)),
            ("reserve_host", |g, _| {
                g.reserve_host::<u64>(8);
            }),
            ("touch_read_batch", |g, _| {
                g.touch_read_batch(MemLocation::Cpu, 8, [4096u64])
            }),
            ("start_trace", |g, _| g.start_trace(16)),
            ("set_fault_plan", |g, _| {
                g.set_fault_plan(FaultPlan::none()).unwrap()
            }),
            ("set_chaos_schedule", |g, _| {
                g.set_chaos_schedule(ChaosSchedule::none()).unwrap()
            }),
            ("set_retry_policy", |g, _| {
                g.set_retry_policy(RetryPolicy::default())
            }),
            ("set_virtual_time", |g, _| g.set_virtual_time(0.0)),
            ("record_retry", |g, _| g.record_retry(0)),
            ("reset_memory_system", |g, _| g.reset_memory_system()),
            ("missed_page_slots", |g, _| {
                g.missed_page_slots();
            }),
        ];
        let idle = running();
        for (name, point) in points {
            let (mut g, mut twin) = (gpu(), gpu());
            let buf = g.alloc_host_from_vec(vec![0u64; 1 << 20]);
            let dev = g.alloc(MemLocation::Gpu, 8).unwrap();
            let twin_buf = twin.alloc_host_from_vec(vec![0u64; 1 << 20]);
            let twin_dev = twin.alloc(MemLocation::Gpu, 8).unwrap();
            long_run(&mut g, &buf, 3 * LONG_RUN);
            assert_eq!(g.helper_episodes(), 1, "{name}: the long run engaged");
            assert_eq!(running(), idle + 1, "{name}: the helper holds a slot");
            point(&mut g, dev);
            assert_eq!(running(), idle, "{name} released the slot");
            for k in 0..3 * LONG_RUN {
                let _ = twin_buf.read(&mut twin, (k * 4099) % twin_buf.len());
                if k % 100 == 0 {
                    twin.counters();
                }
            }
            point(&mut twin, twin_dev);
            assert_eq!(twin.helper_episodes(), 0);
            assert_eq!(g.counters(), twin.counters(), "{name}");
        }
    }

    /// A run shorter than `LONG_RUN` stays inline; a stream read does not
    /// end the run, so a run counted across streams engages.
    #[test]
    fn only_a_long_sync_free_run_engages_the_helper() {
        let _serial = serial();
        if !idle_core() {
            return;
        }
        let mut g = gpu();
        let buf = g.alloc_host_from_vec(vec![0u64; 1 << 20]);
        long_run(&mut g, &buf, LONG_RUN - QUEUE_CAPACITY);
        g.counters();
        long_run(&mut g, &buf, LONG_RUN - QUEUE_CAPACITY);
        g.kernel_launch();
        assert_eq!(g.helper_episodes(), 0, "short runs stay inline");
        for _ in 0..2 * LONG_RUN / 640 {
            buf.stream_read(&mut g, 0, 32);
            long_run(&mut g, &buf, 640);
        }
        assert_eq!(g.helper_episodes(), 1, "streams do not end a run");
        g.counters();
    }

    /// Dropping a `Gpu` mid-episode joins its helper, which accounts every
    /// block still queued and then ends; the slot is released.
    #[test]
    fn a_gpu_dropped_mid_episode_joins_its_helper() {
        let _serial = serial();
        if !idle_core() {
            return;
        }
        let idle = running();
        let mut g = gpu();
        let buf = g.alloc_host_from_vec(vec![0u64; 1 << 20]);
        long_run(&mut g, &buf, LONG_RUN + BLOCKS_IN_FLIGHT * BLOCK_RECORDS);
        assert_eq!(g.helper_episodes(), 1);
        assert_eq!(LIVE_HELPERS.load(Ordering::Acquire), 1);
        drop(g);
        assert_eq!(LIVE_HELPERS.load(Ordering::Acquire), 0, "the helper ended");
        assert_eq!(running(), idle, "the slot is released");
    }
}
