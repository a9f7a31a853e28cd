//! Binary search over the sorted base relation.
//!
//! The simplest of the paper's four access paths: no auxiliary structure at
//! all, `O(log n)` probes per key straight into the out-of-core data. Each
//! probe of the lower levels lands on a distinct cacheline *and* page, which
//! is exactly why this index suffers the worst TLB thrashing in Fig. 4
//! (~105 translation requests per key at 111 GiB).
//!
//! The search is written once, as the per-lane halving step: `lookup_warp`
//! hands it to `lockstep` and then verifies the lower-bound slot, and
//! `lower_bound` drives one lane of it in a plain loop and returns the
//! position.

use crate::traits::{IndexKind, OutOfCoreIndex};
use std::rc::Rc;
use windex_sim::{lockstep, Buffer, Gpu, WARP_SIZE};

/// Lower-bound binary search over a sorted column in CPU memory.
#[derive(Debug, Clone)]
pub struct BinarySearchIndex {
    data: Rc<Buffer<u64>>,
}

/// One lane's lower-bound search: the half-open position range still in
/// play.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    key: u64,
    lo: usize,
    hi: usize,
    result: Option<u64>,
}

impl BinarySearchIndex {
    /// Create a search over `data`, which must be sorted ascending and
    /// duplicate-free (verified in debug builds).
    pub fn new(data: Rc<Buffer<u64>>) -> Self {
        debug_assert!(data.host().windows(2).all(|w| w[0] < w[1]));
        BinarySearchIndex { data }
    }

    /// The underlying sorted column.
    pub fn data(&self) -> &Rc<Buffer<u64>> {
        &self.data
    }

    fn lane(&self, key: u64) -> Lane {
        Lane {
            key,
            hi: self.data.len(),
            ..Default::default()
        }
    }

    /// One round of the search: a single halving probe, or the lane's
    /// lower-bound position, without a read, once the range is empty.
    #[inline(always)]
    fn step(&self, gpu: &mut Gpu, lane: &mut Lane) -> Option<usize> {
        if lane.lo >= lane.hi {
            return Some(lane.lo);
        }
        let mid = lane.lo + (lane.hi - lane.lo) / 2;
        if self.data.read(gpu, mid) < lane.key {
            lane.lo = mid + 1;
        } else {
            lane.hi = mid;
        }
        None
    }
}

impl OutOfCoreIndex for BinarySearchIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::BinarySearch
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn lookup_warp(&self, gpu: &mut Gpu, keys: &[u64], out: &mut [Option<u64>]) {
        assert!(keys.len() <= WARP_SIZE);
        assert!(out.len() >= keys.len());
        let mut lanes: Vec<Lane> = keys.iter().map(|&key| self.lane(key)).collect();
        lockstep(gpu, &mut lanes, |gpu, lane| {
            let Some(pos) = self.step(gpu, lane) else {
                return false;
            };
            // Search exhausted: verify the lower-bound slot.
            if pos < self.data.len() && self.data.read(gpu, pos) == lane.key {
                lane.result = Some(pos as u64);
            }
            true
        });
        for (o, lane) in out.iter_mut().zip(&lanes) {
            *o = lane.result;
        }
        gpu.count_lookups(keys.len() as u64);
    }

    fn lower_bound(&self, gpu: &mut Gpu, key: u64) -> u64 {
        let mut lane = self.lane(key);
        loop {
            if let Some(pos) = self.step(gpu, &mut lane) {
                return pos as u64;
            }
        }
    }

    fn aux_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windex_sim::{GpuSpec, Scale};

    fn setup(keys: Vec<u64>) -> (Gpu, BinarySearchIndex) {
        let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
        let data = Rc::new(gpu.alloc_host_from_vec(keys));
        (gpu, BinarySearchIndex::new(data))
    }

    #[test]
    fn finds_every_key() {
        let keys: Vec<u64> = (0..1000).map(|i| i * 3 + 1).collect();
        let (mut gpu, idx) = setup(keys.clone());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(idx.lookup(&mut gpu, k), Some(i as u64), "key {k}");
        }
    }

    #[test]
    fn rejects_absent_keys() {
        let keys: Vec<u64> = (0..1000).map(|i| i * 3 + 1).collect();
        let (mut gpu, idx) = setup(keys);
        for miss in [0u64, 2, 3, 2999, 3001, u64::MAX] {
            assert_eq!(idx.lookup(&mut gpu, miss), None, "key {miss}");
        }
    }

    #[test]
    fn warp_lookup_matches_scalar() {
        let keys: Vec<u64> = (0..4096).map(|i| i * 5).collect();
        let (mut gpu, idx) = setup(keys.clone());
        let probe: Vec<u64> = (0..32).map(|i| keys[i * 100 + 3]).collect();
        let mut out = vec![None; 32];
        idx.lookup_warp(&mut gpu, &probe, &mut out);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r, Some((i * 100 + 3) as u64));
        }
    }

    #[test]
    fn probe_count_is_logarithmic() {
        let keys: Vec<u64> = (0..(1 << 14)).map(|i| i * 2).collect();
        let (mut gpu, idx) = setup(keys);
        let before = gpu.snapshot();
        let _ = idx.lookup(&mut gpu, 12345 * 2);
        let d = gpu.snapshot() - before;
        // log2(2^14) = 14 probes + 1 verify, each at most one line.
        let probes = d.l1_hits + d.l1_misses;
        assert!((14..=16).contains(&probes), "probes = {probes}");
        assert_eq!(d.lookups, 1);
    }

    #[test]
    fn lower_bound_and_range() {
        let keys: Vec<u64> = (0..500).map(|i| i * 10).collect();
        let (mut gpu, idx) = setup(keys.clone());
        for probe in [0u64, 5, 10, 11, 4990, 4991, 9999] {
            let expect = keys.partition_point(|&k| k < probe) as u64;
            assert_eq!(idx.lower_bound(&mut gpu, probe), expect, "probe {probe}");
        }
        assert_eq!(idx.range(&mut gpu, 100, 199), 10..20);
        assert_eq!(idx.range(&mut gpu, 101, 109), 11..11);
        assert_eq!(idx.range(&mut gpu, 0, u64::MAX), 0..500);
        assert_eq!(idx.range(&mut gpu, 200, 100), 0..0);
    }

    #[test]
    fn empty_index() {
        let (mut gpu, idx) = setup(vec![]);
        assert!(idx.is_empty());
        assert_eq!(idx.lookup(&mut gpu, 7), None);
    }

    #[test]
    fn single_element() {
        let (mut gpu, idx) = setup(vec![42]);
        assert_eq!(idx.lookup(&mut gpu, 42), Some(0));
        assert_eq!(idx.lookup(&mut gpu, 41), None);
        assert_eq!(idx.lookup(&mut gpu, 43), None);
    }
}
