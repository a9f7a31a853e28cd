//! SIMT execution helpers: warps, sub-warps, and lockstep stepping.
//!
//! A *warp* is the unit of execution on GPUs and consists of 32 threads on
//! NVIDIA hardware (§2.2). Kernels in this library process the probe stream
//! one warp at a time and advance all lanes of a warp in lockstep — exactly
//! like SIMT hardware — so that the memory accesses of concurrently running
//! lanes interleave in the shared TLB and caches. That interleaving is what
//! makes TLB thrashing (§4.1: "memory accesses evict TLB entries loaded by
//! other threads in the shared TLB") an emergent property of the model
//! rather than a hard-coded penalty.

use crate::engine::Gpu;
use crate::fault::SimError;
use std::ops::Range;

/// Threads per warp (NVIDIA).
pub const WARP_SIZE: usize = 32;

/// Maximum lanes supported by the fixed-size lockstep scratch state.
pub const MAX_LANES: usize = 64;

/// Iterate `items` in warp-sized chunks, e.g. one chunk of probe tuples per
/// warp. The final chunk may be smaller than a warp.
pub fn warps_of(items: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let start = items.start;
    let end = items.end;
    (start..end).step_by(WARP_SIZE).map(move |s| {
        let e = (s + WARP_SIZE).min(end);
        s..e
    })
}

/// Drive up to [`MAX_LANES`] lane states in lockstep: every round calls
/// `step` once per unfinished lane (in lane order, interleaving their memory
/// accesses) until all lanes report completion. One warp-wide compute op is
/// charged per round; an empty warp returns immediately and charges nothing.
///
/// `step` returns `true` when its lane has finished. Divergent lanes simply
/// finish in different rounds, modeling SIMT filter divergence (§3.3.1)
/// without idle-lane bookkeeping — the cost model charges per executed op.
///
/// Unfinished lanes are kept in a compacted active list (stable, so lane
/// order — and therefore the interleaving that produces TLB thrashing — is
/// preserved), instead of rescanning all `MAX_LANES` done-flags each round.
/// The lanes' loads join the engine's access queue in lane order, so rounds
/// are accounted in batches without the loop choosing when.
pub fn lockstep<L, F>(gpu: &mut Gpu, lanes: &mut [L], mut step: F)
where
    F: FnMut(&mut Gpu, &mut L) -> bool,
{
    assert!(lanes.len() <= MAX_LANES, "warp wider than MAX_LANES");
    if lanes.is_empty() {
        return;
    }
    let mut active = [0u8; MAX_LANES];
    for (i, slot) in active.iter_mut().enumerate().take(lanes.len()) {
        *slot = i as u8;
    }
    let mut remaining = lanes.len();
    while remaining > 0 {
        gpu.op(1);
        let mut kept = 0;
        for r in 0..remaining {
            let i = active[r] as usize;
            if !step(gpu, &mut lanes[i]) {
                active[kept] = i as u8;
                kept += 1;
            }
        }
        remaining = kept;
    }
}

/// A launched kernel: counts the launch and runs the body. The body receives
/// the GPU handle; keep one logical GPU operation (e.g. one pass over a
/// window) per launch so the launch-overhead accounting in the cost model
/// matches CUDA behavior.
pub fn launch_kernel<R>(gpu: &mut Gpu, body: impl FnOnce(&mut Gpu) -> R) -> R {
    gpu.kernel_launch();
    body(gpu)
}

/// Launch a kernel with fault detection: counts the launch, draws an
/// injected launch failure, runs the body, and surfaces the first transfer
/// fault the body's interconnect traffic hit. The body's counter effects are
/// kept on failure — the traffic happened before the fault was detected —
/// so callers retrying must first roll back their own partial outputs.
pub fn try_launch_kernel<R>(
    gpu: &mut Gpu,
    body: impl FnOnce(&mut Gpu) -> R,
) -> Result<R, SimError> {
    gpu.clear_pending_fault();
    gpu.try_begin_launch()?;
    let result = body(gpu);
    match gpu.take_pending_fault() {
        Some(err) => Err(err),
        None => Ok(result),
    }
}

/// Run `attempt` with bounded retries on transient faults, per the engine's
/// [`RetryPolicy`](crate::fault::RetryPolicy). Each retry charges its
/// deterministic backoff to the counters. Non-transient errors (budget,
/// validation) and faults persisting past the retry limit are returned.
pub fn with_retries<R>(
    gpu: &mut Gpu,
    mut attempt: impl FnMut(&mut Gpu) -> Result<R, SimError>,
) -> Result<R, SimError> {
    let max_retries = gpu.retry_policy().max_retries;
    let mut tries: u32 = 0;
    loop {
        match attempt(gpu) {
            Ok(r) => return Ok(r),
            Err(e) if e.is_transient() && tries < max_retries => {
                gpu.record_retry(tries);
                tries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Sub-warp geometry used by Harmonia's cooperative traversal (§2.2): the
/// warp is divided into `warp_size / lanes_per_key` groups, each responsible
/// for one lookup key at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubWarp {
    /// Lanes cooperating on a single key.
    pub lanes_per_key: usize,
}

impl SubWarp {
    /// Create a sub-warp of `lanes_per_key` lanes; must divide the warp size.
    pub fn new(lanes_per_key: usize) -> Self {
        assert!(lanes_per_key > 0 && WARP_SIZE.is_multiple_of(lanes_per_key));
        SubWarp { lanes_per_key }
    }

    /// Number of sub-warps (concurrent keys) per warp.
    pub fn groups_per_warp(&self) -> usize {
        WARP_SIZE / self.lanes_per_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use crate::spec::GpuSpec;

    #[test]
    fn warps_cover_range_exactly() {
        let chunks: Vec<_> = warps_of(5..100).collect();
        assert_eq!(chunks.first().unwrap().clone(), 5..37);
        assert_eq!(chunks.last().unwrap().clone(), 69..100);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, 95);
        assert!(chunks.iter().all(|c| c.len() <= WARP_SIZE));
    }

    #[test]
    fn empty_range_yields_no_warps() {
        assert_eq!(warps_of(3..3).count(), 0);
    }

    #[test]
    fn lockstep_interleaves_and_terminates() {
        let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
        // Lanes count down from different starting values.
        let mut lanes: Vec<u32> = (0..8).collect();
        let mut trace = Vec::new();
        lockstep(&mut gpu, &mut lanes, |_, lane| {
            trace.push(*lane);
            if *lane == 0 {
                true
            } else {
                *lane -= 1;
                false
            }
        });
        // Lane i takes i+1 rounds; total step calls = sum(i+1 for i in 0..8).
        assert_eq!(trace.len(), (1..=8).sum::<usize>());
        // First round visits all lanes in order (interleaving).
        assert_eq!(&trace[..8], &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(gpu.counters().compute_ops >= 8);
    }

    #[test]
    fn empty_warp_charges_nothing() {
        let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
        let before = gpu.snapshot();
        let mut lanes: Vec<u32> = Vec::new();
        lockstep(&mut gpu, &mut lanes, |_, _| true);
        let d = gpu.snapshot() - before;
        assert_eq!(d.compute_ops, 0, "empty warps must not charge ops");
    }

    #[test]
    fn reads_resolve_in_lane_order_each_round() {
        let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
        let line = gpu.spec().cacheline_bytes as usize / 8;
        let buf = gpu.alloc_host_from_vec(vec![0u64; 64 * line]);
        gpu.start_trace(1 << 12);
        // Each lane reads its own line once; the queue must account them in
        // lane order.
        let mut lanes: Vec<usize> = (0..8).collect();
        lockstep(&mut gpu, &mut lanes, |gpu, lane| {
            let _ = buf.read(gpu, *lane * line);
            true
        });
        let trace = gpu.stop_trace();
        let addrs: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                crate::trace::TraceEvent::ReadLine { line_addr, .. } => Some(*line_addr),
                _ => None,
            })
            .collect();
        let expected: Vec<u64> = (0..8)
            .map(|l| buf.addr_of(l * line) & !(gpu.spec().cacheline_bytes - 1))
            .collect();
        assert_eq!(addrs, expected);
    }

    #[test]
    fn launch_counts() {
        let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
        let r = launch_kernel(&mut gpu, |_| 7);
        assert_eq!(r, 7);
        assert_eq!(gpu.counters().kernel_launches, 1);
    }

    #[test]
    fn subwarp_geometry() {
        let sw = SubWarp::new(8);
        assert_eq!(sw.groups_per_warp(), 4);
    }

    #[test]
    #[should_panic]
    fn subwarp_must_divide_warp() {
        let _ = SubWarp::new(5);
    }
}
