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

use crate::cache::Cache;
use crate::chaos::ChaosSchedule;
use crate::column::SharedColumn;
use crate::counters::Counters;
use crate::fault::{FaultKind, FaultPlan, RetryPolicy, SimError};
use crate::lru;
use crate::mem::{Buffer, MemLocation};
use crate::pagestamps::PageStampTable;
use crate::spec::GpuSpec;
use crate::tlb::Tlb;
use crate::trace::{HitLevel, Trace, TraceEvent, TraceMode};

/// Re-miss distance (in line accesses) separating *thrashing* from
/// *periodic sweep* misses. A page re-missed within this window was evicted
/// by concurrently running lookups (a lookup-rate event, scaled by the
/// reproduction factor); a page re-missed after a longer interval is a
/// periodic revisit — e.g. the next tumbling window sweeping the same pages
/// — whose count is scale-invariant (pages × phases).
const THRASH_DISTANCE: u64 = 2048;

/// Bound of the access queue, equal to its preallocated capacity, so
/// queueing never reallocates. Four accesses for each of the widest warp's
/// lanes.
const QUEUE_CAPACITY: usize = crate::exec::MAX_LANES * 4;

/// A single read or write waiting in the access queue.
#[derive(Debug, Clone, Copy)]
struct QueuedAccess {
    loc: MemLocation,
    addr: u64,
    bytes: u64,
    write: bool,
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

/// The simulated GPU. Owns the memory-system state and allocates buffers in
/// a shared virtual address space.
#[derive(Debug)]
pub struct Gpu {
    spec: GpuSpec,
    tlb: Tlb,
    l1: Cache,
    l2: Cache,
    counters: Counters,
    next_addr: u64,
    line_shift: u32,
    page_shift: u32,
    /// Line-access clock for re-miss distance measurement.
    access_clock: u64,
    /// The previously accessed line: a repeat access is a guaranteed L1 hit
    /// (the line is MRU in its set) and short-circuits the whole hierarchy.
    last_line: u64,
    /// Per-page stamp of the last miss (distinguishes thrashing re-misses
    /// from compulsory / periodic-sweep misses). Flat and bounded; cleared
    /// on [`Gpu::reset_memory_system`].
    missed_pages: PageStampTable,
    /// Single accesses from [`Gpu::touch_read`]/[`Gpu::touch_write`] not yet
    /// accounted, in program order. Drained when full and by every other
    /// entry point that accounts or observes state, so the global accounting
    /// order always equals program order and queueing is invisible.
    queue: Vec<QueuedAccess>,
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
        let tlb = Tlb::new(spec.tlb_entries, spec.tlb_assoc, spec.page_bytes);
        let l1 = Cache::new(spec.l1_bytes, spec.cacheline_bytes, spec.l1_assoc);
        let l2 = Cache::new(spec.l2_bytes, spec.cacheline_bytes, spec.l2_assoc);
        let line_shift = spec.cacheline_bytes.trailing_zeros();
        let page_shift = spec.page_bytes.trailing_zeros();
        let first_addr = spec.page_bytes;
        let spec_tlb_pages = spec.tlb_entries;
        Ok(Gpu {
            spec,
            tlb,
            l1,
            l2,
            counters: Counters::default(),
            // Reserve the zero page so no valid buffer starts at address 0.
            next_addr: first_addr,
            line_shift,
            page_shift,
            access_clock: 0,
            last_line: u64::MAX,
            // Sized for the pages missable inside one thrash window at this
            // geometry: the TLB's own coverage plus the sweep front that
            // evicts it. A few thousand slots even for generous specs.
            missed_pages: PageStampTable::new(spec_tlb_pages * 8, THRASH_DISTANCE),
            queue: Vec::with_capacity(QUEUE_CAPACITY),
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
        self.drain();
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
        self.drain();
        let mut trace = self.trace.take().unwrap_or_default();
        trace.normalize();
        trace
    }

    /// Record one TLB miss, classifying it as a page-sweep event
    /// (compulsory first touch, or periodic revisit after more than
    /// [`THRASH_DISTANCE`] line accesses) or a thrashing re-miss. The split
    /// matters for the cost model: sweep misses are page-count events
    /// (already at paper scale), thrashing re-misses are lookup-rate events
    /// (scaled back up by the reproduction factor).
    #[inline]
    fn record_tlb_miss(&mut self, page_id: u64) {
        self.counters.tlb_misses += 1;
        if self.missed_pages.note_miss(page_id, self.access_clock) {
            self.counters.tlb_sweep_misses += 1;
        }
    }

    /// The device spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Current cumulative counters, including every access made so far
    /// (queued accesses are accounted first).
    pub fn counters(&mut self) -> Counters {
        self.drain();
        self.counters
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
        self.drain();
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
        self.drain();
        let base = self.next_addr;
        self.next_addr = base + self.reservation_bytes::<T>(len);
        base
    }

    /// Release a buffer. Device buffers return their reservation to the HBM
    /// budget; host buffers are simply dropped. Address space is not reused
    /// (the engine is a bump allocator), only capacity accounting changes.
    pub fn free<T: Copy>(&mut self, buf: Buffer<T>) {
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
        self.drain();
        self.fault_plan = plan;
        self.fault_seq = [0; 3];
        self.pending_fault = None;
        Ok(())
    }

    /// Install a chaos schedule (validated; replaces the current schedule)
    /// and recompute the effects active at the current virtual time.
    pub fn set_chaos_schedule(&mut self, schedule: ChaosSchedule) -> Result<(), SimError> {
        schedule.validate()?;
        self.drain();
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
        self.drain();
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
        self.drain();
        self.pending_fault = None;
    }

    /// Take the fault latched during the current kernel body, if any. Any
    /// accesses still queued are accounted first so their fault draws are
    /// observed by the surrounding fallible launch.
    #[doc(hidden)]
    pub fn take_pending_fault(&mut self) -> Option<SimError> {
        self.drain();
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
        self.drain();
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
        self.enqueue(loc, addr, bytes, false);
    }

    /// Record a device-side write of `bytes` at `addr`, accounted in program
    /// order when the queue drains. Writes are modeled as streaming stores
    /// (no write-allocate): GPU kernels in this domain write results and
    /// partitions once and never read them back through the same kernel's
    /// caches.
    #[inline]
    pub fn touch_write(&mut self, loc: MemLocation, addr: u64, bytes: u64) {
        self.enqueue(loc, addr, bytes, true);
    }

    /// Queue one single access, draining when the queue is full.
    #[inline]
    fn enqueue(&mut self, loc: MemLocation, addr: u64, bytes: u64, write: bool) {
        debug_assert!(bytes > 0);
        self.queue.push(QueuedAccess {
            loc,
            addr,
            bytes,
            write,
        });
        if self.queue.len() == QUEUE_CAPACITY {
            self.drain_queue();
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
        self.drain();
        let addrs = addrs.into_iter();
        let line = self.spec.cacheline_bytes;
        if loc == MemLocation::Gpu
            && self.trace.is_none()
            && self.chaos.ecc_page_rate == 0.0
            && addrs
                .clone()
                .all(|addr| (addr & (line - 1)) + bytes <= line)
        {
            self.line_walk::<false, true>(addrs.map(|addr| (loc, addr, bytes)));
        } else {
            self.read_requests(addrs.map(|addr| (loc, addr, bytes)));
        }
    }

    /// Account every queued access in program order. Cheap when the queue
    /// is empty; every entry point that accounts or observes state calls it
    /// first.
    #[inline]
    fn drain(&mut self) {
        if !self.queue.is_empty() {
            self.drain_queue();
        }
    }

    /// The body of [`Gpu::drain`]: maximal runs of queued reads go through
    /// the line-walk kernel together; interleaved writes are accounted in
    /// place so program order holds.
    fn drain_queue(&mut self) {
        let mut queue = std::mem::take(&mut self.queue);
        let mut i = 0;
        while i < queue.len() {
            let req = queue[i];
            if req.write {
                self.write_accounting(req.loc, req.addr, req.bytes);
                i += 1;
                continue;
            }
            let run_end = queue[i..]
                .iter()
                .position(|r| r.write)
                .map_or(queue.len(), |p| i + p);
            self.read_requests(queue[i..run_end].iter().map(|r| (r.loc, r.addr, r.bytes)));
            i = run_end;
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
            self.line_walk::<true, false>(reads);
        } else {
            self.line_walk::<false, false>(reads);
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
    /// The kernel destructures `self` once per call into separate borrows
    /// — the L1, L2 and TLB tag stores, the page-stamp table, the
    /// counters, the chaos state and the trace — keeps the line clock and
    /// the last line in locals, written back once per call, and runs one
    /// loop over every line of every request with the tag-store lookups
    /// inlined into it. Two further steps measured slower and were left
    /// out: copying each tag store's set geometry into locals up front
    /// (the copies spill to the stack), and counting into a local tally
    /// (its write-back costs every counter on each one-line call).
    ///
    /// `ONE_GPU_LINE` is the instantiation for requests the caller knows
    /// are GPU-located, one line each, untraced and outside an ECC storm
    /// (see [`Gpu::touch_read_batch`]): it walks one line per request and
    /// drops the location and quarantine checks of a miss.
    #[inline]
    fn line_walk<const TRACED: bool, const ONE_GPU_LINE: bool>(
        &mut self,
        reads: impl Iterator<Item = (MemLocation, u64, u64)>,
    ) {
        let Gpu {
            spec,
            tlb,
            l1,
            l2,
            counters,
            line_shift,
            page_shift,
            access_clock,
            last_line,
            missed_pages,
            trace,
            chaos_schedule,
            chaos,
            ..
        } = self;
        let mut trace = if TRACED { trace.as_mut() } else { None };
        let (line_shift, page_shift) = (*line_shift, *page_shift);
        let line_bytes = spec.cacheline_bytes;
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

    /// The accounting of one queued write.
    #[inline]
    fn write_accounting(&mut self, loc: MemLocation, addr: u64, bytes: u64) {
        if let Some(trace) = &mut self.trace {
            trace.record(TraceEvent::Write { loc, addr, bytes });
        }
        match loc {
            MemLocation::Gpu => self.counters.gpu_bytes_written += bytes,
            MemLocation::Cpu => {
                self.draw_transfer_fault();
                self.counters.ic_bytes_written += bytes;
                let per_byte = self.chaos.streamed_stall_ns_per_byte;
                self.chaos_stall(bytes, per_byte);
                // Writes to CPU memory still need translations.
                self.translate(addr, bytes);
            }
        }
    }

    /// Record a sequential streaming read (table scan, probe-key stream).
    /// Counts full-bandwidth bytes; touches the TLB once per page, so scans
    /// do not thrash it (§4.3.1).
    #[inline]
    pub fn stream_read(&mut self, loc: MemLocation, addr: u64, bytes: u64) {
        self.drain();
        debug_assert!(bytes > 0);
        if let Some(trace) = &mut self.trace {
            trace.record(TraceEvent::StreamRead { loc, addr, bytes });
        }
        match loc {
            MemLocation::Gpu => self.counters.gpu_bytes_read += bytes,
            MemLocation::Cpu => {
                self.draw_transfer_fault();
                self.counters.ic_bytes_streamed += bytes;
                let per_byte = self.chaos.streamed_stall_ns_per_byte;
                self.chaos_stall(bytes, per_byte);
                self.translate(addr, bytes);
            }
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
        self.drain();
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
        self.drain();
        self.tlb.flush();
        self.l1.flush();
        self.l2.flush();
        self.last_line = u64::MAX;
        self.missed_pages.clear();
        self.record_event(TraceEvent::TlbFlush);
    }

    /// Slot count of the flat page-stamp table (diagnostic: the bounded
    /// replacement for the old per-session `HashMap` — tests pin that a
    /// multi-query session's footprint stays constant).
    pub fn missed_page_slots(&self) -> usize {
        self.missed_pages.capacity()
    }

    /// TLB traffic for a (possibly multi-page) sequential or write access.
    /// Each page translation is traced as [`TraceEvent::Translate`] so the
    /// trace carries *every* TLB access the counters see (random reads
    /// record theirs inside [`TraceEvent::ReadLine`]).
    #[inline]
    fn translate(&mut self, addr: u64, bytes: u64) {
        let first = addr >> self.page_shift;
        let last = (addr + bytes - 1) >> self.page_shift;
        for page in first..=last {
            let hit = self.tlb.access(page << self.page_shift);
            if hit {
                self.counters.tlb_hits += 1;
            } else {
                self.record_tlb_miss(page);
            }
            self.record_event(TraceEvent::Translate {
                page_addr: page << self.page_shift,
                hit,
            });
        }
    }

    /// Cacheline size helper (used by index layouts).
    #[inline]
    pub fn cacheline_bytes(&self) -> u64 {
        self.spec.cacheline_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

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
}
