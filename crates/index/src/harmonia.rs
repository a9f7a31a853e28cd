//! Harmonia: a high-throughput B+tree for GPUs (Yan et al., PPoPP'19; §2.2
//! of the paper).
//!
//! Harmonia separates the tree into a *key region* (all nodes' keys, stored
//! level-order) and a *child prefix-sum array*: the children of node `i` are
//! nodes `prefix[i] + j`, eliminating per-node child pointers. Its main
//! optimization is *cooperative sub-warp traversal*: the warp is divided
//! into sub-warps of `lanes_per_key` threads; each sub-warp searches one
//! node cooperatively — the lanes probe evenly spaced pivots of the node's
//! key region in parallel, which coalesces the node's cachelines into a
//! single access — and the sub-warp then "progresses unto the next tuple,
//! until each tuple in the initial warp has been processed" (§3.3.1).
//!
//! The cooperative access pattern is why Harmonia shows the *fewest*
//! translation requests per lookup in Fig. 4 (11.3 vs. binary search's 105
//! at 111 GiB): each node visit costs the sub-warp one coalesced fetch, and
//! node visits per key are few because the fanout keeps the tree shallow.
//!
//! The descent is written once, as the per-key step (one node search per
//! level, the leaf's ending with the key's position): `lookup_warp` hands
//! it to `lockstep` per sub-warp, and `lower_bound` drives it in a plain
//! loop and returns the position.
//!
//! The paper configures 32 keys per node (§3.2). Inserts are supported as
//! batched merge-rebuilds (§6 recommends Harmonia "if the index must
//! support inserts and updates"; the original proposes lazy batched
//! updates, which a rebuild models at the same interface).

use crate::traits::{IndexKind, OutOfCoreIndex};
use std::sync::Arc;
use windex_sim::{lockstep, Buffer, Gpu, SharedColumn, SubWarp, WARP_SIZE};

/// Padding value for unused key slots. `u64::MAX` is therefore not an
/// indexable key.
const PAD: u64 = u64::MAX;

/// Harmonia tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct HarmoniaConfig {
    /// Keys per node; the paper uses 32 (§3.2).
    pub keys_per_node: usize,
    /// Lanes cooperating on one key (sub-warp width); must divide 32.
    pub lanes_per_key: usize,
}

impl Default for HarmoniaConfig {
    fn default() -> Self {
        HarmoniaConfig {
            keys_per_node: 32,
            lanes_per_key: 8,
        }
    }
}

/// Host-side build artifacts: a pure function of (key column, node width),
/// stored on a staged shared column like the RadixSpline fit (see
/// [`Buffer::derived`]).
struct TreeArtifacts {
    region: SharedColumn<u64>,
    prefix: SharedColumn<u64>,
    first_leaf: u64,
    height: u32,
    len: usize,
}

/// The Harmonia index: key region + child prefix array, in CPU memory.
#[derive(Debug)]
pub struct Harmonia {
    /// `node_count × keys_per_node` keys, level-order, `PAD`-padded.
    key_region: Buffer<u64>,
    /// `prefix[i]` = node id of node `i`'s first child (0 for leaves).
    prefix: Buffer<u64>,
    nk: usize,
    lanes_per_key: usize,
    /// Node id of the first leaf (leaves are the last level, contiguous).
    first_leaf: u64,
    height: u32,
    len: usize,
}

impl Harmonia {
    /// Build over the unique sorted column `data`; rid `i` is assigned to
    /// its `i`-th key. The fitted tree is the column's derived artifact for
    /// this node width, and `alloc_host_shared` assigns addresses and
    /// accounts like `alloc_host_from_vec`, so reusing a fit changes wall
    /// time only.
    pub fn build(gpu: &mut Gpu, data: &Buffer<u64>, config: HarmoniaConfig) -> Self {
        Self::validate(data.host(), &config);
        let nk = config.keys_per_node;
        let tree = data.derived(nk, |keys| Self::fit(keys, nk));
        Self::from_tree(gpu, &tree, config)
    }

    fn from_tree(gpu: &mut Gpu, tree: &TreeArtifacts, config: HarmoniaConfig) -> Self {
        Harmonia {
            key_region: gpu.alloc_host_shared(tree.region.clone()),
            prefix: gpu.alloc_host_shared(tree.prefix.clone()),
            nk: config.keys_per_node,
            lanes_per_key: config.lanes_per_key,
            first_leaf: tree.first_leaf,
            height: tree.height,
            len: tree.len,
        }
    }

    fn validate(keys: &[u64], config: &HarmoniaConfig) {
        assert!(config.keys_per_node >= 2);
        assert!(
            config.lanes_per_key > 0 && WARP_SIZE.is_multiple_of(config.lanes_per_key),
            "lanes_per_key must divide the warp size"
        );
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(keys.iter().all(|&k| k != PAD), "u64::MAX is reserved");
    }

    /// The pure fit: level geometry plus the key region and child prefix
    /// array, each written once into its shared allocation.
    fn fit(keys: &[u64], nk: usize) -> TreeArtifacts {
        // Level geometry, top-down node counts. The leaf level packs the
        // keys nk at a time; every level above holds the min key of each
        // child node, so its node count is ceil(children / nk).
        let leaf_count = if keys.is_empty() {
            1
        } else {
            keys.len().div_ceil(nk)
        };
        let mut counts = vec![leaf_count];
        while *counts.last().unwrap() > 1 {
            counts.push(counts.last().unwrap().div_ceil(nk));
        }
        counts.reverse(); // top-down: counts[0] = 1 (the root)
        let node_count: usize = counts.iter().sum();
        let first_leaf = node_count - leaf_count;
        let height = counts.len() as u32;
        // BFS id of each level's first node.
        let bases: Vec<usize> = counts
            .iter()
            .scan(0usize, |acc, &c| {
                let b = *acc;
                *acc += c;
                Some(b)
            })
            .collect();

        // Internal node keys, staged bottom-up: each level's keys are the
        // min keys of the level below (for the leaf level, the first key
        // per node). They are a `1 / nk` fraction of the region.
        let leaf_at = first_leaf * nk;
        let mut internal = vec![PAD; leaf_at];
        let mut mins: Vec<u64> = if keys.is_empty() {
            vec![PAD]
        } else {
            (0..leaf_count).map(|j| keys[j * nk]).collect()
        };
        for li in (0..counts.len().saturating_sub(1)).rev() {
            for j in 0..counts[li] {
                let chunk = &mins[j * nk..(j * nk + nk).min(mins.len())];
                let at = (bases[li] + j) * nk;
                internal[at..at + chunk.len()].copy_from_slice(chunk);
            }
            mins = (0..counts[li]).map(|j| mins[j * nk]).collect();
        }

        // The internal levels, then the packed leaves, `PAD`-padded.
        let region: Arc<[u64]> = (0..node_count * nk)
            .map(|s| match s.checked_sub(leaf_at) {
                None => internal[s],
                Some(i) => keys.get(i).copied().unwrap_or(PAD),
            })
            .collect();
        // prefix[i] = id of node i's first child (0 for leaves). Every node
        // of a level but its last has nk children, so the j-th node's
        // children start at the next level's base plus j·nk.
        let prefix: Arc<[u64]> = (0..node_count)
            .map(|i| {
                if i >= first_leaf {
                    return 0;
                }
                let li = bases.partition_point(|&b| b <= i) - 1;
                (bases[li + 1] + (i - bases[li]) * nk) as u64
            })
            .collect();

        TreeArtifacts {
            region: region.into(),
            prefix: prefix.into(),
            first_leaf: first_leaf as u64,
            height,
            len: keys.len(),
        }
    }

    /// Tree height in levels (1 = the root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The sub-warp geometry used for traversal.
    pub fn sub_warp(&self) -> SubWarp {
        SubWarp::new(self.lanes_per_key)
    }

    /// Keys per node.
    pub fn keys_per_node(&self) -> usize {
        self.nk
    }

    /// Reconstruct all (key, rid) pairs host-side (tests / rebuild).
    pub fn scan_host(&self) -> Vec<(u64, u64)> {
        let region = self.key_region.host();
        let leaf_slots = &region[self.first_leaf as usize * self.nk..];
        leaf_slots
            .iter()
            .take_while(|&&k| k != PAD)
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect()
    }

    /// Batched insert: merges `new_keys` with the existing keys and rebuilds
    /// (Harmonia's lazy-update model). New rids continue after the current
    /// maximum — callers appending to the base relation get matching
    /// positions. Duplicate keys are rejected.
    pub fn insert_batch(&mut self, gpu: &mut Gpu, new_keys: &[u64]) -> Result<(), String> {
        let mut all: Vec<u64> = self.scan_host().into_iter().map(|(k, _)| k).collect();
        all.extend_from_slice(new_keys);
        all.sort_unstable();
        if all.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate key in batch".into());
        }
        let config = HarmoniaConfig {
            keys_per_node: self.nk,
            lanes_per_key: self.lanes_per_key,
        };
        Self::validate(&all, &config);
        *self = Self::from_tree(gpu, &Self::fit(&all, self.nk), config);
        Ok(())
    }

    fn root(&self) -> Descent {
        Descent {
            node: 0,
            level: self.height,
        }
    }

    /// One round of `key`'s descent: the cooperative search of the node
    /// at `at`. An internal node then fetches the child through the prefix
    /// array; the leaf ends the descent with `key`'s lower-bound position
    /// (positional: leaves are packed) and whether `key` is present.
    #[inline(always)]
    fn step(&self, gpu: &mut Gpu, at: &mut Descent, key: u64) -> Option<(u64, bool)> {
        let found = self.search_node(gpu, at.node, key);
        if at.level > 1 {
            let child_base = self.prefix.read(gpu, at.node as usize);
            at.node = child_base + found.unwrap_or(0) as u64;
            at.level -= 1;
            return None;
        }
        let rid_base = (at.node - self.first_leaf) * self.nk as u64;
        Some(match found {
            // All leaf keys exceed `key`: the leaf's first slot is the bound.
            None => (rid_base, false),
            // Last key <= `key`: the bound is that key if it equals `key`,
            // else one past it (possibly the next leaf's first slot).
            Some(slot) => {
                let hit = self.key_region.host()[at.node as usize * self.nk + slot] == key;
                (rid_base + slot as u64 + u64::from(!hit), hit)
            }
        })
    }

    /// Cooperative node search: the sub-warp reads the node's key region
    /// (all its cachelines, coalesced into one access) and computes the
    /// position of the last key ≤ `key`, or `None` if all keys exceed it.
    #[inline]
    fn search_node(&self, gpu: &mut Gpu, node: u64, key: u64) -> Option<usize> {
        let slice = self
            .key_region
            .read_range(gpu, node as usize * self.nk, self.nk);
        gpu.op(1); // parallel compare + reduction by the sub-warp
        let at_most = slice.iter().take_while(|&&k| k != PAD && k <= key).count();
        at_most.checked_sub(1)
    }
}

/// Where one key's descent stands: a node and its level (1 = leaf).
#[derive(Debug, Clone, Copy)]
struct Descent {
    node: u64,
    level: u32,
}

/// One sub-warp's traversal state: a chunk of the warp's keys, processed
/// one key at a time.
struct Group<'a> {
    keys: &'a [u64],
    results: Vec<Option<u64>>,
    cursor: usize,
    at: Descent,
}

impl OutOfCoreIndex for Harmonia {
    fn kind(&self) -> IndexKind {
        IndexKind::Harmonia
    }

    fn len(&self) -> usize {
        self.len
    }

    fn lookup_warp(&self, gpu: &mut Gpu, keys: &[u64], out: &mut [Option<u64>]) {
        assert!(keys.len() <= WARP_SIZE);
        assert!(out.len() >= keys.len());
        let groups_n = WARP_SIZE / self.lanes_per_key;
        let chunk = keys.len().div_ceil(groups_n).max(1);
        let mut groups: Vec<Group> = keys
            .chunks(chunk)
            .map(|c| Group {
                keys: c,
                results: Vec::with_capacity(c.len()),
                cursor: 0,
                at: self.root(),
            })
            .collect();

        lockstep(gpu, &mut groups, |gpu, g| {
            if g.cursor >= g.keys.len() {
                return true;
            }
            let Some((pos, hit)) = self.step(gpu, &mut g.at, g.keys[g.cursor]) else {
                return false;
            };
            g.results.push(hit.then_some(pos));
            // Next key of this sub-warp restarts from the root.
            g.cursor += 1;
            g.at = self.root();
            g.cursor >= g.keys.len()
        });

        let results = groups.iter().flat_map(|g| &g.results);
        for (o, r) in out.iter_mut().zip(results) {
            *o = *r;
        }
        gpu.count_lookups(keys.len() as u64);
    }

    fn lower_bound(&self, gpu: &mut Gpu, key: u64) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let mut at = self.root();
        loop {
            if let Some((pos, _)) = self.step(gpu, &mut at, key) {
                return pos;
            }
        }
    }

    fn aux_bytes(&self) -> u64 {
        self.key_region.size_bytes() + self.prefix.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windex_sim::{GpuSpec, Scale};

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER))
    }

    fn build(keys: &[u64]) -> (Gpu, Harmonia) {
        let mut g = gpu();
        let col = g.alloc_host_from_vec(keys.to_vec());
        let h = Harmonia::build(&mut g, &col, HarmoniaConfig::default());
        (g, h)
    }

    /// The fill-in-place fit that `fit` replaced, kept as its reference:
    /// the key region and the child prefix array.
    fn fit_reference(keys: &[u64], nk: usize) -> (Vec<u64>, Vec<u64>) {
        let leaf_count = if keys.is_empty() {
            1
        } else {
            keys.len().div_ceil(nk)
        };
        let mut counts = vec![leaf_count];
        while *counts.last().unwrap() > 1 {
            counts.push(counts.last().unwrap().div_ceil(nk));
        }
        counts.reverse();
        let node_count: usize = counts.iter().sum();
        let first_leaf = node_count - leaf_count;
        let bases: Vec<usize> = counts
            .iter()
            .scan(0usize, |acc, &c| {
                let b = *acc;
                *acc += c;
                Some(b)
            })
            .collect();
        let mut region = vec![PAD; node_count * nk];
        let mut prefix = vec![0u64; node_count];
        let leaf_at = first_leaf * nk;
        region[leaf_at..leaf_at + keys.len()].copy_from_slice(keys);
        for li in 0..counts.len().saturating_sub(1) {
            let mut child_cursor = bases[li + 1] as u64;
            for j in 0..counts[li] {
                prefix[bases[li] + j] = child_cursor;
                child_cursor += nk.min(counts[li + 1] - j * nk) as u64;
            }
        }
        let mut mins: Vec<u64> = if keys.is_empty() {
            vec![PAD]
        } else {
            (0..leaf_count).map(|j| keys[j * nk]).collect()
        };
        for li in (0..counts.len().saturating_sub(1)).rev() {
            for j in 0..counts[li] {
                let chunk = &mins[j * nk..(j * nk + nk).min(mins.len())];
                let at = (bases[li] + j) * nk;
                region[at..at + chunk.len()].copy_from_slice(chunk);
            }
            mins = (0..counts[li]).map(|j| mins[j * nk]).collect();
        }
        (region, prefix)
    }

    #[test]
    fn write_once_fit_equals_the_fill_in_place_fit() {
        for nk in [2, 3, 16, 32] {
            // Sizes that are not multiples of nk, down to one partial leaf,
            // up to several levels with a partial last node on each.
            for n in [
                0,
                1,
                nk - 1,
                nk + 1,
                nk * nk + 1,
                nk * nk * 3 + nk / 2 + 1,
                10_007,
            ] {
                let keys: Vec<u64> = (0..n as u64).map(|i| i * 5 + 2).collect();
                let (region, prefix) = fit_reference(&keys, nk);
                let fit = Harmonia::fit(&keys, nk);
                assert_eq!(&fit.region[..], &region[..], "nk={nk} n={n}: region");
                assert_eq!(&fit.prefix[..], &prefix[..], "nk={nk} n={n}: prefix");
            }
        }
    }

    #[test]
    fn finds_every_key() {
        let keys: Vec<u64> = (0..10_000).map(|i| i * 3 + 5).collect();
        let (mut g, h) = build(&keys);
        assert!(h.height() >= 3);
        for (i, &k) in keys.iter().enumerate().step_by(37) {
            assert_eq!(h.lookup(&mut g, k), Some(i as u64), "key {k}");
        }
    }

    #[test]
    fn rejects_absent_keys() {
        let keys: Vec<u64> = (0..10_000).map(|i| i * 3 + 5).collect();
        let (mut g, h) = build(&keys);
        for miss in [0u64, 4, 6, 3 * 10_000 + 5, 999_999_999] {
            assert_eq!(h.lookup(&mut g, miss), None, "key {miss}");
        }
    }

    #[test]
    fn warp_lookup_order_preserved() {
        let keys: Vec<u64> = (0..50_000).map(|i| i * 2).collect();
        let (mut g, h) = build(&keys);
        let probe: Vec<u64> = (0..32u64).map(|i| i * 1500 * 2 + 1).collect(); // misses
        let probe_hits: Vec<u64> = (0..32u64).map(|i| i * 1500 * 2).collect();
        let mut out = vec![None; 32];
        h.lookup_warp(&mut g, &probe_hits, &mut out);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r, Some(i as u64 * 1500));
        }
        h.lookup_warp(&mut g, &probe, &mut out);
        assert!(out.iter().all(|r| r.is_none()));
    }

    #[test]
    fn node_access_is_coalesced() {
        let keys: Vec<u64> = (0..(1 << 15)).map(|i| i * 2).collect();
        let (mut g, h) = build(&keys);
        g.reset_memory_system();
        let before = g.snapshot();
        let _ = h.lookup(&mut g, 2 * 12345);
        let d = g.snapshot() - before;
        // Height levels, each reading one 32-key node (2 lines of 128 B)
        // plus one prefix entry per internal level.
        let max_lines = h.height() as u64 * 2 + h.height() as u64;
        assert!(
            d.ic_lines_random <= max_lines,
            "lines {} > {}",
            d.ic_lines_random,
            max_lines
        );
    }

    #[test]
    fn insert_batch_rebuilds() {
        let keys: Vec<u64> = (0..1000).map(|i| i * 4).collect();
        let (mut g, mut h) = build(&keys);
        h.insert_batch(&mut g, &[2, 6, 10]).unwrap();
        assert_eq!(h.len(), 1003);
        assert_eq!(h.lookup(&mut g, 2), Some(1)); // sorted position
        assert_eq!(h.lookup(&mut g, 0), Some(0));
        assert!(h
            .insert_batch(&mut g, &[2])
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    fn empty_and_single() {
        let (mut g, h) = build(&[]);
        assert!(h.is_empty());
        assert_eq!(h.lookup(&mut g, 1), None);
        let (mut g, h) = build(&[9]);
        assert_eq!(h.lookup(&mut g, 9), Some(0));
        assert_eq!(h.lookup(&mut g, 8), None);
        assert_eq!(h.lookup(&mut g, 10), None);
    }

    #[test]
    fn lower_bound_and_range() {
        let keys: Vec<u64> = (0..5000).map(|i| i * 10 + 3).collect();
        let (mut g, h) = build(&keys);
        for probe in [0u64, 3, 4, 13, 25000, 49993, 49994, u64::MAX] {
            let expect = keys.partition_point(|&k| k < probe) as u64;
            assert_eq!(h.lower_bound(&mut g, probe), expect, "probe {probe}");
        }
        // Cross every leaf boundary (32 keys per node).
        for leaf in (32..5000).step_by(32) {
            let probe = keys[leaf - 1] + 1;
            let expect = keys.partition_point(|&k| k < probe) as u64;
            assert_eq!(h.lower_bound(&mut g, probe), expect);
        }
        assert_eq!(h.range(&mut g, 13, 33), 1..4);
    }

    #[test]
    fn custom_subwarp_width() {
        let keys: Vec<u64> = (0..5000).map(|i| i * 2 + 1).collect();
        let mut g = gpu();
        let col = g.alloc_host_from_vec(keys.clone());
        let h = Harmonia::build(
            &mut g,
            &col,
            HarmoniaConfig {
                keys_per_node: 16,
                lanes_per_key: 4,
            },
        );
        assert_eq!(h.sub_warp().groups_per_warp(), 8);
        for (i, &k) in keys.iter().enumerate().step_by(101) {
            assert_eq!(h.lookup(&mut g, k), Some(i as u64));
        }
    }
}
