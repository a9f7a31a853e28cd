//! Standard B+tree with large (4 KiB) nodes, stored out-of-core.
//!
//! The paper configures the B+tree with 4 KiB nodes (§3.2). Large nodes keep
//! the tree shallow, but a 4 KiB node spans 32 cachelines, and the binary
//! search *within* each node produces random accesses across those lines
//! (§3.1) — so the B+tree trades tree height for per-node traffic. Smaller
//! nodes (cf. the node-size ablation) invert that trade-off.
//!
//! Layout: all nodes live in one flat `u64` pool in CPU memory. A node of
//! `B` bytes has `B/8` slots:
//!
//! ```text
//! slot 0:                header = count
//! slots 1 ..= K:         keys (K = (B/8 - 2) / 2)
//! internal:  slots K+1 ..= 2K+1:  child node ids (K+1 of them)
//! leaf:      slots K+1 ..= 2K:    rids;  slot 2K+1: next-leaf id
//! ```
//!
//! Internal separators follow the "first key of the right subtree"
//! convention: child `i` holds keys in `[sep[i], sep[i+1])`.
//!
//! Node ids run leaves first, then the internal levels bottom-up, then the
//! spare nodes. The pool is a pure function of the key column and the
//! whole [`BPlusTreeConfig`], so [`BPlusTree::build`] stores it on the
//! staged column it was fitted to, like the Harmonia and RadixSpline fits:
//! every later build over that column with that config, on any thread,
//! stages the stored pool instead of writing a new one. The fit writes the
//! shared allocation once, the leaves by formula; `insert` and `remove`
//! copy the pool before their first write, so the stored fit never changes.
//!
//! The descent is written once, as the per-lane step (header read, probes
//! within the node, child fetch): `lookup_warp` hands it to `lockstep` and
//! then verifies the leaf slot and fetches its rid; `lower_bound` drives
//! one lane of it in a plain loop and reads the rid at the slot, or the
//! first rid of the next leaf.

use crate::traits::{IndexKind, OutOfCoreIndex};
use std::sync::Arc;
use windex_sim::{lockstep, Buffer, Gpu, SharedColumn, WARP_SIZE};

/// Sentinel node id / rid.
const NONE: u64 = u64::MAX;

/// Errors reported by index maintenance operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// The preallocated node pool is exhausted; rebuild with more
    /// `spare_nodes`.
    CapacityExhausted,
    /// The key is already present (the base relation holds unique keys).
    DuplicateKey(u64),
    /// The key to delete does not exist.
    KeyNotFound(u64),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::CapacityExhausted => write!(f, "node pool exhausted"),
            IndexError::DuplicateKey(k) => write!(f, "duplicate key {k}"),
            IndexError::KeyNotFound(k) => write!(f, "key {k} not found"),
        }
    }
}

impl std::error::Error for IndexError {}

/// B+tree tuning knobs. The whole config keys the fit stored on the
/// column (see [`BPlusTree::build`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BPlusTreeConfig {
    /// Node size in bytes; must be a power of two ≥ 64. The paper uses 4 KiB.
    pub node_bytes: usize,
    /// Bulk-load fill factor of leaves and internal nodes, in (0, 1].
    pub fill_factor: f64,
    /// Extra nodes preallocated for post-build inserts.
    pub spare_nodes: usize,
}

impl Default for BPlusTreeConfig {
    fn default() -> Self {
        BPlusTreeConfig {
            node_bytes: 4096,
            fill_factor: 1.0,
            spare_nodes: 0,
        }
    }
}

/// Host-side build artifacts: a pure function of (key column, config),
/// stored on a staged shared column like the Harmonia and RadixSpline fits
/// (see [`Buffer::derived`]).
struct TreeArtifacts {
    nodes: SharedColumn<u64>,
    root: u64,
    height: u32,
    len: usize,
    allocated_nodes: usize,
    pool_nodes: usize,
}

/// Node geometry of one config: slots per node, key capacity, and the
/// bulk-load fill of leaves and internal nodes.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    slots: usize,
    key_cap: usize,
    per_leaf: usize,
    per_internal: usize,
}

impl Geometry {
    fn new(config: &BPlusTreeConfig) -> Self {
        assert!(config.node_bytes.is_power_of_two() && config.node_bytes >= 64);
        assert!(config.fill_factor > 0.0 && config.fill_factor <= 1.0);
        let slots = config.node_bytes / 8;
        let key_cap = (slots - 2) / 2;
        Geometry {
            slots,
            key_cap,
            per_leaf: ((key_cap as f64 * config.fill_factor) as usize).max(1),
            per_internal: ((key_cap as f64 * config.fill_factor) as usize).max(2),
        }
    }
}

/// A bulk-loaded B+tree over unique sorted keys, mapping key → rid.
#[derive(Debug)]
pub struct BPlusTree {
    nodes: Buffer<u64>,
    slots_per_node: usize,
    key_cap: usize,
    root: u64,
    /// Number of levels; 1 = root is a leaf.
    height: u32,
    len: usize,
    allocated_nodes: usize,
    pool_nodes: usize,
    config: BPlusTreeConfig,
}

impl BPlusTree {
    /// Bulk-load over the unique sorted column `data`; rid `i` is assigned
    /// to its `i`-th key. The tree is stored in CPU memory and accessed
    /// out-of-core.
    ///
    /// The node pool is the column's derived artifact for this config, and
    /// `alloc_host_shared` assigns addresses and accounts like
    /// `alloc_host_from_vec`, so reusing a fit changes wall time only.
    /// `insert` and `remove` write through `host_mut`, which copies the
    /// shared pool before the first write, so maintenance never reaches
    /// the stored fit.
    pub fn build(gpu: &mut Gpu, data: &Buffer<u64>, config: BPlusTreeConfig) -> Self {
        let geometry = Geometry::new(&config);
        let tree = data.derived(config, |keys| Self::fit(keys, geometry, config.spare_nodes));
        BPlusTree {
            nodes: gpu.alloc_host_shared(tree.nodes.clone()),
            slots_per_node: geometry.slots,
            key_cap: geometry.key_cap,
            root: tree.root,
            height: tree.height,
            len: tree.len,
            allocated_nodes: tree.allocated_nodes,
            pool_nodes: tree.pool_nodes,
            config,
        }
    }

    /// The pure fit. Node ids run leaves first, then the internal levels
    /// bottom-up, then the spare nodes. The leaves are written by formula
    /// straight into the shared pool; only the internal levels, a
    /// `1 / per_internal` fraction of it, are staged first.
    fn fit(keys: &[u64], g: Geometry, spare_nodes: usize) -> TreeArtifacts {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        let Geometry {
            slots,
            key_cap,
            per_leaf,
            per_internal,
        } = g;
        let leaf_count = keys.len().div_ceil(per_leaf).max(1);

        // --- Internal levels, staged ---
        let mut internal: Vec<u64> = Vec::new();
        let mut level: Vec<(u64, u64)> = (0..leaf_count)
            .map(|leaf| (keys.get(leaf * per_leaf).copied().unwrap_or(0), leaf as u64))
            .collect(); // (min key, node id)
        let mut next_node = leaf_count;
        let mut height = 1;
        while level.len() > 1 {
            height += 1;
            // Balance the groups instead of chunking greedily: a greedy
            // final group of one child would create a zero-separator node,
            // which deletes cannot rebalance through. Balanced sizes are
            // always ≥ 2 for fan ≥ 2 when more than one group is needed.
            let fan = per_internal + 1; // children per internal node
            let groups = level.len().div_ceil(fan);
            let base_size = level.len() / groups;
            let remainder = level.len() % groups;
            let mut upper = Vec::with_capacity(groups);
            let mut at = 0;
            for g in 0..groups {
                let size = base_size + usize::from(g < remainder);
                let group = &level[at..at + size];
                at += size;
                let base = internal.len();
                internal.resize(base + slots, 0);
                internal[base] = (group.len() - 1) as u64; // separator count
                for (j, &(min_key, child)) in group.iter().enumerate() {
                    if j > 0 {
                        internal[base + j] = min_key; // slot 1..=count
                    }
                    internal[base + 1 + key_cap + j] = child;
                }
                upper.push((group[0].0, next_node as u64));
                next_node += 1;
            }
            debug_assert_eq!(at, level.len());
            level = upper;
        }

        // --- The pool, written once ---
        let leaf_slots = leaf_count * slots;
        let pool_nodes = next_node + spare_nodes;
        let shift = slots.trailing_zeros();
        let nodes: Arc<[u64]> = (0..pool_nodes * slots)
            .map(|s| {
                if s >= leaf_slots {
                    return internal.get(s - leaf_slots).copied().unwrap_or(0);
                }
                let (leaf, j) = (s >> shift, s & (slots - 1));
                let start = leaf * per_leaf;
                let count = per_leaf.min(keys.len() - start);
                match j {
                    0 => count as u64,
                    _ if j <= count => keys[start + j - 1],
                    _ if j > key_cap && j - key_cap <= count => (start + j - key_cap - 1) as u64,
                    _ if j == 2 * key_cap + 1 && leaf + 1 < leaf_count => (leaf + 1) as u64,
                    _ if j == 2 * key_cap + 1 => NONE,
                    _ => 0,
                }
            })
            .collect();

        TreeArtifacts {
            nodes: nodes.into(),
            root: level[0].1,
            height,
            len: keys.len(),
            allocated_nodes: next_node,
            pool_nodes,
        }
    }

    /// The node size in bytes.
    pub fn node_bytes(&self) -> usize {
        self.config.node_bytes
    }

    /// Tree height in levels (1 = the root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of allocated nodes.
    pub fn node_count(&self) -> usize {
        self.allocated_nodes
    }

    // ----- host-side structural helpers (insert path) -----

    #[inline]
    fn base(&self, node: u64) -> usize {
        node as usize * self.slots_per_node
    }

    fn count(&self, node: u64) -> usize {
        self.nodes.host()[self.base(node)] as usize
    }

    /// The node's keys (leaf) or separators (internal).
    fn keys(&self, node: u64) -> &[u64] {
        let base = self.base(node);
        &self.nodes.host()[base + 1..base + 1 + self.count(node)]
    }

    fn key_at(&self, node: u64, i: usize) -> u64 {
        self.nodes.host()[self.base(node) + 1 + i]
    }

    fn child_at(&self, node: u64, i: usize) -> u64 {
        self.nodes.host()[self.base(node) + 1 + self.key_cap + i]
    }

    fn rid_at(&self, node: u64, i: usize) -> u64 {
        self.nodes.host()[self.base(node) + 1 + self.key_cap + i]
    }

    fn alloc_node(&mut self) -> Result<u64, IndexError> {
        if self.allocated_nodes >= self.pool_nodes {
            return Err(IndexError::CapacityExhausted);
        }
        let id = self.allocated_nodes as u64;
        self.allocated_nodes += 1;
        let base = self.base(id);
        self.nodes.host_mut()[base..base + self.slots_per_node].fill(0);
        Ok(id)
    }

    /// Insert `key → rid` after the build (host-side maintenance, as done by
    /// the CPU between queries). Splits full nodes; may grow the tree by one
    /// level. Fails if the key exists or the node pool is exhausted.
    pub fn insert(&mut self, key: u64, rid: u64) -> Result<(), IndexError> {
        match self.insert_rec(self.root, self.height, key, rid)? {
            None => Ok(()),
            Some((sep, new_node)) => {
                // Root split: make a new root with two children.
                let new_root = self.alloc_node()?;
                let kc = self.key_cap;
                let old_root = self.root;
                let base = self.base(new_root);
                let host = self.nodes.host_mut();
                host[base] = 1;
                host[base + 1] = sep;
                host[base + 1 + kc] = old_root;
                host[base + 1 + kc + 1] = new_node;
                self.root = new_root;
                self.height += 1;
                Ok(())
            }
        }
    }

    /// Recursive insert; returns `Some((separator, new right sibling))` when
    /// the visited node split.
    fn insert_rec(
        &mut self,
        node: u64,
        level: u32,
        key: u64,
        rid: u64,
    ) -> Result<Option<(u64, u64)>, IndexError> {
        let count = self.count(node);
        if level == 1 {
            // Leaf: find the slot.
            let pos = self.keys(node).partition_point(|&k| k < key);
            if pos < count && self.key_at(node, pos) == key {
                return Err(IndexError::DuplicateKey(key));
            }
            if count < self.key_cap {
                self.leaf_insert_at(node, pos, key, rid);
                self.len += 1;
                return Ok(None);
            }
            // Split the leaf, then insert into the proper half.
            let right = self.alloc_node()?;
            let mid = count / 2;
            let kc = self.key_cap;
            let (lb, rb) = (self.base(node), self.base(right));
            let host = self.nodes.host_mut();
            for j in mid..count {
                host[rb + 1 + (j - mid)] = host[lb + 1 + j];
                host[rb + 1 + kc + (j - mid)] = host[lb + 1 + kc + j];
            }
            host[rb] = (count - mid) as u64;
            host[lb] = mid as u64;
            // Leaf chain: left -> right -> old next.
            host[rb + 2 * kc + 1] = host[lb + 2 * kc + 1];
            host[lb + 2 * kc + 1] = right;
            let sep = self.key_at(right, 0);
            let half = if key < sep { node } else { right };
            let pos = self.keys(half).partition_point(|&k| k < key);
            self.leaf_insert_at(half, pos, key, rid);
            self.len += 1;
            return Ok(Some((sep, right)));
        }

        // Internal: route to the child.
        let ci = self.keys(node).partition_point(|&k| k <= key);
        let child = self.child_at(node, ci);
        let Some((sep, new_child)) = self.insert_rec(child, level - 1, key, rid)? else {
            return Ok(None);
        };
        // Child split: insert (sep, new_child) after position ci.
        if count < self.key_cap {
            self.internal_insert_at(node, ci, sep, new_child);
            return Ok(None);
        }
        // Split this internal node. Gather the (count+1) children and count
        // separators plus the new entry, then redistribute.
        let mut seps: Vec<u64> = (0..count).map(|i| self.key_at(node, i)).collect();
        let mut children: Vec<u64> = (0..=count).map(|i| self.child_at(node, i)).collect();
        seps.insert(ci, sep);
        children.insert(ci + 1, new_child);
        let right = self.alloc_node()?;
        let mid = seps.len() / 2; // separator promoted upward
        let up = seps[mid];
        let kc = self.key_cap;
        let (lb, rb) = (self.base(node), self.base(right));
        let host = self.nodes.host_mut();
        // Left keeps seps[..mid], children[..=mid].
        host[lb] = mid as u64;
        for (j, &s) in seps[..mid].iter().enumerate() {
            host[lb + 1 + j] = s;
        }
        for (j, &c) in children[..=mid].iter().enumerate() {
            host[lb + 1 + kc + j] = c;
        }
        // Right takes seps[mid+1..], children[mid+1..].
        let rcount = seps.len() - mid - 1;
        host[rb] = rcount as u64;
        for (j, &s) in seps[mid + 1..].iter().enumerate() {
            host[rb + 1 + j] = s;
        }
        for (j, &c) in children[mid + 1..].iter().enumerate() {
            host[rb + 1 + kc + j] = c;
        }
        Ok(Some((up, right)))
    }

    fn leaf_insert_at(&mut self, node: u64, pos: usize, key: u64, rid: u64) {
        let count = self.count(node);
        debug_assert!(count < self.key_cap);
        let kc = self.key_cap;
        let base = self.base(node);
        let host = self.nodes.host_mut();
        for j in (pos..count).rev() {
            host[base + 1 + j + 1] = host[base + 1 + j];
            host[base + 1 + kc + j + 1] = host[base + 1 + kc + j];
        }
        host[base + 1 + pos] = key;
        host[base + 1 + kc + pos] = rid;
        host[base] = (count + 1) as u64;
    }

    fn internal_insert_at(&mut self, node: u64, pos: usize, sep: u64, child: u64) {
        let count = self.count(node);
        debug_assert!(count < self.key_cap);
        let kc = self.key_cap;
        let base = self.base(node);
        let host = self.nodes.host_mut();
        for j in (pos..count).rev() {
            host[base + 1 + j + 1] = host[base + 1 + j];
        }
        for j in (pos + 1..=count).rev() {
            host[base + 1 + kc + j + 1] = host[base + 1 + kc + j];
        }
        host[base + 1 + pos] = sep;
        host[base + 1 + kc + pos + 1] = child;
        host[base] = (count + 1) as u64;
    }

    /// Delete `key`, returning its rid. Underflowing nodes borrow from or
    /// merge with a sibling; the tree shrinks by a level when the root is
    /// left with a single child (host-side maintenance, like `insert`).
    pub fn remove(&mut self, key: u64) -> Result<u64, IndexError> {
        let rid = self.remove_rec(self.root, self.height, key)?;
        self.len -= 1;
        // Collapse an internal root with a single remaining child.
        while self.height > 1 && self.count(self.root) == 0 {
            self.root = self.child_at(self.root, 0);
            self.height -= 1;
        }
        Ok(rid)
    }

    /// Minimum entries per non-root node.
    fn min_fill(&self) -> usize {
        (self.key_cap / 2).max(1)
    }

    /// Recursive delete; restores the invariant for the visited child
    /// before returning, so only the *current* node may be underfull.
    fn remove_rec(&mut self, node: u64, level: u32, key: u64) -> Result<u64, IndexError> {
        let count = self.count(node);
        if level == 1 {
            let pos = self.keys(node).partition_point(|&k| k < key);
            if pos >= count || self.key_at(node, pos) != key {
                return Err(IndexError::KeyNotFound(key));
            }
            let rid = self.rid_at(node, pos);
            let kc = self.key_cap;
            let base = self.base(node);
            let host = self.nodes.host_mut();
            for j in pos..count - 1 {
                host[base + 1 + j] = host[base + 1 + j + 1];
                host[base + 1 + kc + j] = host[base + 1 + kc + j + 1];
            }
            host[base] = (count - 1) as u64;
            return Ok(rid);
        }
        // Route to the child, delete there, then fix any underflow.
        let ci = self.keys(node).partition_point(|&k| k <= key);
        let child = self.child_at(node, ci);
        let rid = self.remove_rec(child, level - 1, key)?;
        if self.count(child) < self.min_fill() {
            self.fix_underflow(node, ci, level - 1);
        }
        Ok(rid)
    }

    /// Rebalance `parent`'s `ci`-th child (at `child_level`): borrow from a
    /// richer sibling, else merge with one.
    fn fix_underflow(&mut self, parent: u64, ci: usize, child_level: u32) {
        let pcount = self.count(parent);
        // Every internal node has at least one separator (bulk load
        // balances its groups; splits and merges preserve it), so a sibling
        // always exists.
        debug_assert!(pcount >= 1, "internal node without separators");
        let min = self.min_fill();
        let leaf = child_level == 1;
        if ci > 0 && self.count(self.child_at(parent, ci - 1)) > min {
            self.borrow_from_left(parent, ci, leaf);
        } else if ci < pcount && self.count(self.child_at(parent, ci + 1)) > min {
            self.borrow_from_right(parent, ci, leaf);
        } else if ci > 0 {
            self.merge_children(parent, ci - 1, leaf);
        } else {
            self.merge_children(parent, ci, leaf);
        }
    }

    /// Move the left sibling's last entry into the child's front.
    fn borrow_from_left(&mut self, parent: u64, ci: usize, leaf: bool) {
        let kc = self.key_cap;
        let left = self.child_at(parent, ci - 1);
        let child = self.child_at(parent, ci);
        let lcount = self.count(left);
        let ccount = self.count(child);
        let (lb, cb, pb) = (self.base(left), self.base(child), self.base(parent));
        if leaf {
            let k = self.key_at(left, lcount - 1);
            let r = self.rid_at(left, lcount - 1);
            let host = self.nodes.host_mut();
            for j in (0..ccount).rev() {
                host[cb + 1 + j + 1] = host[cb + 1 + j];
                host[cb + 1 + kc + j + 1] = host[cb + 1 + kc + j];
            }
            host[cb + 1] = k;
            host[cb + 1 + kc] = r;
            host[cb] = (ccount + 1) as u64;
            host[lb] = (lcount - 1) as u64;
            // Separator before the child = its new first key.
            host[pb + ci] = k;
        } else {
            // Rotate through the parent separator.
            let sep = self.key_at(parent, ci - 1);
            let lk = self.key_at(left, lcount - 1);
            let lchild = self.child_at(left, lcount);
            let host = self.nodes.host_mut();
            for j in (0..ccount).rev() {
                host[cb + 1 + j + 1] = host[cb + 1 + j];
            }
            for j in (0..=ccount).rev() {
                host[cb + 1 + kc + j + 1] = host[cb + 1 + kc + j];
            }
            host[cb + 1] = sep;
            host[cb + 1 + kc] = lchild;
            host[cb] = (ccount + 1) as u64;
            host[lb] = (lcount - 1) as u64;
            host[pb + ci] = lk;
        }
    }

    /// Move the right sibling's first entry into the child's back.
    fn borrow_from_right(&mut self, parent: u64, ci: usize, leaf: bool) {
        let kc = self.key_cap;
        let right = self.child_at(parent, ci + 1);
        let child = self.child_at(parent, ci);
        let rcount = self.count(right);
        let ccount = self.count(child);
        let (rb, cb, pb) = (self.base(right), self.base(child), self.base(parent));
        if leaf {
            let k = self.key_at(right, 0);
            let r = self.rid_at(right, 0);
            let host = self.nodes.host_mut();
            host[cb + 1 + ccount] = k;
            host[cb + 1 + kc + ccount] = r;
            host[cb] = (ccount + 1) as u64;
            for j in 0..rcount - 1 {
                host[rb + 1 + j] = host[rb + 1 + j + 1];
                host[rb + 1 + kc + j] = host[rb + 1 + kc + j + 1];
            }
            host[rb] = (rcount - 1) as u64;
            host[pb + ci + 1] = host[rb + 1]; // right's new first key
        } else {
            let sep = self.key_at(parent, ci);
            let rk = self.key_at(right, 0);
            let rchild = self.child_at(right, 0);
            let host = self.nodes.host_mut();
            host[cb + 1 + ccount] = sep;
            host[cb + 1 + kc + ccount + 1] = rchild;
            host[cb] = (ccount + 1) as u64;
            for j in 0..rcount - 1 {
                host[rb + 1 + j] = host[rb + 1 + j + 1];
            }
            for j in 0..rcount {
                host[rb + 1 + kc + j] = host[rb + 1 + kc + j + 1];
            }
            host[rb] = (rcount - 1) as u64;
            host[pb + ci + 1] = rk;
        }
    }

    /// Merge `parent`'s children `li` and `li + 1` into the left one and
    /// drop the separating entry from the parent. (The freed node id is
    /// leaked from the bump pool — acceptable for this workload's rare
    /// deletes; a production free-list is an easy extension.)
    fn merge_children(&mut self, parent: u64, li: usize, leaf: bool) {
        let kc = self.key_cap;
        let left = self.child_at(parent, li);
        let right = self.child_at(parent, li + 1);
        let lcount = self.count(left);
        let rcount = self.count(right);
        let (lb, rb, pb) = (self.base(left), self.base(right), self.base(parent));
        let sep = self.key_at(parent, li);
        {
            let host = self.nodes.host_mut();
            if leaf {
                for j in 0..rcount {
                    host[lb + 1 + lcount + j] = host[rb + 1 + j];
                    host[lb + 1 + kc + lcount + j] = host[rb + 1 + kc + j];
                }
                host[lb] = (lcount + rcount) as u64;
                host[lb + 2 * kc + 1] = host[rb + 2 * kc + 1]; // leaf chain
            } else {
                host[lb + 1 + lcount] = sep;
                for j in 0..rcount {
                    host[lb + 1 + lcount + 1 + j] = host[rb + 1 + j];
                }
                for j in 0..=rcount {
                    host[lb + 1 + kc + lcount + 1 + j] = host[rb + 1 + kc + j];
                }
                host[lb] = (lcount + rcount + 1) as u64;
            }
        }
        // Remove separator li and child li+1 from the parent.
        let pcount = self.count(parent);
        let host = self.nodes.host_mut();
        for j in li..pcount - 1 {
            host[pb + 1 + j] = host[pb + 1 + j + 1];
        }
        for j in li + 1..pcount {
            host[pb + 1 + kc + j] = host[pb + 1 + kc + j + 1];
        }
        host[pb] = (pcount - 1) as u64;
    }

    /// Host-side full scan of leaf chain (diagnostics / tests): all
    /// (key, rid) pairs in key order.
    pub fn scan_host(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.len);
        // Find the leftmost leaf.
        let mut node = self.root;
        for _ in 1..self.height {
            node = self.child_at(node, 0);
        }
        loop {
            let count = self.count(node);
            for i in 0..count {
                out.push((self.key_at(node, i), self.rid_at(node, i)));
            }
            let next = self.nodes.host()[self.base(node) + 2 * self.key_cap + 1];
            if next == NONE {
                break;
            }
            node = next;
        }
        out
    }
}

/// One lane's descent: the node it is in, that node's level, and the
/// binary search within the node.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    key: u64,
    node: u64,
    level: u32,
    /// The node's key count, once its header is read.
    count: Option<u32>,
    lo: u32,
    hi: u32,
    result: Option<u64>,
}

impl BPlusTree {
    fn lane(&self, key: u64) -> Lane {
        Lane {
            key,
            node: self.root,
            level: self.height,
            ..Default::default()
        }
    }

    /// One round of the descent: a node's header read, one binary-search
    /// probe within the node, or the child fetch. Once the lane's search
    /// in its leaf is done it returns the lower-bound slot there, without
    /// a read.
    #[inline(always)]
    fn step(&self, gpu: &mut Gpu, lane: &mut Lane) -> Option<usize> {
        let base = self.base(lane.node);
        if lane.count.is_none() {
            let count = self.nodes.read(gpu, base) as u32;
            lane.count = Some(count);
            lane.lo = 0;
            lane.hi = count;
            return None;
        }
        if lane.lo < lane.hi {
            // One binary-search probe within the node.
            let mid = lane.lo + (lane.hi - lane.lo) / 2;
            let k = self.nodes.read(gpu, base + 1 + mid as usize);
            let go_right = if lane.level > 1 {
                k <= lane.key // upper bound over separators
            } else {
                k < lane.key // lower bound over leaf keys
            };
            if go_right {
                lane.lo = mid + 1;
            } else {
                lane.hi = mid;
            }
            return None;
        }
        if lane.level > 1 {
            // Descend: child pointer at the lower-bound position.
            lane.node = self
                .nodes
                .read(gpu, base + 1 + self.key_cap + lane.lo as usize);
            lane.level -= 1;
            lane.count = None;
            return None;
        }
        Some(lane.lo as usize)
    }
}

impl OutOfCoreIndex for BPlusTree {
    fn kind(&self) -> IndexKind {
        IndexKind::BPlusTree
    }

    fn len(&self) -> usize {
        self.len
    }

    fn lookup_warp(&self, gpu: &mut Gpu, keys: &[u64], out: &mut [Option<u64>]) {
        assert!(keys.len() <= WARP_SIZE);
        assert!(out.len() >= keys.len());
        let kc = self.key_cap;
        let mut lanes: Vec<Lane> = keys.iter().map(|&key| self.lane(key)).collect();
        lockstep(gpu, &mut lanes, |gpu, lane| {
            let Some(lo) = self.step(gpu, lane) else {
                return false;
            };
            // Leaf: verify and fetch the rid.
            let base = self.base(lane.node);
            let count = self.nodes.read(gpu, base) as usize; // cached header line
            if lo < count && self.nodes.read(gpu, base + 1 + lo) == lane.key {
                lane.result = Some(self.nodes.read(gpu, base + 1 + kc + lo));
            }
            true
        });
        for (o, lane) in out.iter_mut().zip(&lanes) {
            *o = lane.result;
        }
        gpu.count_lookups(keys.len() as u64);
    }

    fn lower_bound(&self, gpu: &mut Gpu, key: u64) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let kc = self.key_cap;
        let mut lane = self.lane(key);
        let lo = loop {
            if let Some(lo) = self.step(gpu, &mut lane) {
                break lo;
            }
        };
        // The lower-bound slot, possibly the first of the next leaf.
        let base = self.base(lane.node);
        if lane.count.is_some_and(|count| lo < count as usize) {
            return self.nodes.read(gpu, base + 1 + kc + lo);
        }
        let next = self.nodes.read(gpu, base + 2 * kc + 1);
        if next == NONE {
            return self.len as u64;
        }
        // Non-empty by construction: splits leave >= 1 key per leaf.
        self.nodes.read(gpu, self.base(next) + 1 + kc)
    }

    fn aux_bytes(&self) -> u64 {
        self.nodes.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windex_sim::{GpuSpec, Scale};

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER))
    }

    /// Stage `keys` and build over them.
    fn load(g: &mut Gpu, keys: &[u64], config: BPlusTreeConfig) -> BPlusTree {
        let col = g.alloc_host_from_vec(keys.to_vec());
        BPlusTree::build(g, &col, config)
    }

    fn tree_with(keys: &[u64], config: BPlusTreeConfig) -> (Gpu, BPlusTree) {
        let mut g = gpu();
        let t = load(&mut g, keys, config);
        (g, t)
    }

    /// The loop bulk load that `fit` replaced, kept as its reference:
    /// the pool, root, height and allocated and pool node counts.
    fn fit_reference(keys: &[u64], config: BPlusTreeConfig) -> (Vec<u64>, u64, u32, usize, usize) {
        let slots = config.node_bytes / 8;
        let key_cap = (slots - 2) / 2;
        let per_leaf = ((key_cap as f64 * config.fill_factor) as usize).max(1);
        let per_internal = ((key_cap as f64 * config.fill_factor) as usize).max(2);
        let mut count = keys.len().div_ceil(per_leaf).max(1);
        let mut total = count;
        while count > 1 {
            count = count.div_ceil(per_internal + 1).max(1);
            total += count;
        }
        let pool_nodes = total + config.spare_nodes;
        let mut pool = vec![0u64; pool_nodes * slots];
        let mut next_node: usize = 0;
        let mut level: Vec<(u64, u64)> = Vec::new();
        let leaf_count = keys.len().div_ceil(per_leaf).max(1);
        for leaf in 0..leaf_count {
            let id = next_node;
            next_node += 1;
            let start = leaf * per_leaf;
            let end = ((leaf + 1) * per_leaf).min(keys.len());
            let base = id * slots;
            pool[base] = (end - start) as u64;
            for (j, i) in (start..end).enumerate() {
                pool[base + 1 + j] = keys[i];
                pool[base + 1 + key_cap + j] = i as u64;
            }
            pool[base + 2 * key_cap + 1] = if leaf + 1 < leaf_count {
                (id + 1) as u64
            } else {
                NONE
            };
            level.push((keys.get(start).copied().unwrap_or(0), id as u64));
        }
        let mut height = 1;
        while level.len() > 1 {
            height += 1;
            let fan = per_internal + 1;
            let groups = level.len().div_ceil(fan);
            let base_size = level.len() / groups;
            let remainder = level.len() % groups;
            let mut upper = Vec::with_capacity(groups);
            let mut at = 0;
            for g in 0..groups {
                let size = base_size + usize::from(g < remainder);
                let group = &level[at..at + size];
                at += size;
                let id = next_node;
                next_node += 1;
                let base = id * slots;
                pool[base] = (group.len() - 1) as u64;
                for (j, &(min_key, child)) in group.iter().enumerate() {
                    if j > 0 {
                        pool[base + j] = min_key;
                    }
                    pool[base + 1 + key_cap + j] = child;
                }
                upper.push((group[0].0, id as u64));
            }
            level = upper;
        }
        (pool, level[0].1, height, next_node, pool_nodes)
    }

    #[test]
    fn write_once_fit_equals_the_loop_bulk_load() {
        let small = |fill_factor, spare_nodes| BPlusTreeConfig {
            node_bytes: 64,
            fill_factor,
            spare_nodes,
        };
        let configs = [
            small(1.0, 0),
            small(0.5, 0),
            small(1.0, 5),
            small(0.5, 3),
            BPlusTreeConfig::default(),
            BPlusTreeConfig {
                fill_factor: 0.5,
                spare_nodes: 2,
                ..Default::default()
            },
        ];
        for config in configs {
            let g = Geometry::new(&config);
            let per_leaf = g.per_leaf;
            // Enough keys for at least three levels at 64-byte nodes.
            let deep = per_leaf * (g.per_internal + 1) * 3 + 1;
            for n in [0, 1, per_leaf - 1, per_leaf, per_leaf + 1, deep] {
                let keys: Vec<u64> = (0..n as u64).map(|i| i * 3 + 7).collect();
                let (pool, root, height, allocated, pool_nodes) = fit_reference(&keys, config);
                let fit = BPlusTree::fit(&keys, g, config.spare_nodes);
                let case = format!("{config:?} n={n}");
                assert_eq!(&fit.nodes[..], &pool[..], "{case}: pool");
                assert_eq!(fit.root, root, "{case}: root");
                assert_eq!(fit.height, height, "{case}: height");
                assert_eq!(fit.allocated_nodes, allocated, "{case}: allocated");
                assert_eq!(fit.pool_nodes, pool_nodes, "{case}: pool nodes");
                assert_eq!(fit.len, n, "{case}: len");
                if config.node_bytes == 64 && n == deep {
                    assert!(height >= 3, "{case}: height {height}");
                }
            }
        }
    }

    #[test]
    fn finds_every_key_multi_level() {
        // Small nodes force several levels.
        let keys: Vec<u64> = (0..5000).map(|i| i * 7 + 3).collect();
        let cfg = BPlusTreeConfig {
            node_bytes: 128,
            ..Default::default()
        };
        let (mut g, t) = tree_with(&keys, cfg);
        assert!(t.height() >= 3, "height {}", t.height());
        for (i, &k) in keys.iter().enumerate().step_by(13) {
            assert_eq!(t.lookup(&mut g, k), Some(i as u64), "key {k}");
        }
    }

    #[test]
    fn rejects_absent_keys() {
        let keys: Vec<u64> = (0..5000).map(|i| i * 7 + 3).collect();
        let (mut g, t) = tree_with(&keys, BPlusTreeConfig::default());
        for miss in [0u64, 1, 2, 4, 9, 7 * 5000 + 3, u64::MAX] {
            assert_eq!(t.lookup(&mut g, miss), None, "key {miss}");
        }
    }

    #[test]
    fn default_nodes_are_4kib() {
        let keys: Vec<u64> = (0..100_000).map(|i| i * 2).collect();
        let (_, t) = tree_with(&keys, BPlusTreeConfig::default());
        assert_eq!(t.node_bytes(), 4096);
        // 255 keys per leaf => ~393 leaves > 256-way root => 3 levels.
        assert!(t.height() == 3, "height {}", t.height());
        assert_eq!(t.len(), 100_000);
    }

    #[test]
    fn scan_returns_sorted_pairs() {
        let keys: Vec<u64> = (0..3000).map(|i| i * 11).collect();
        let cfg = BPlusTreeConfig {
            node_bytes: 256,
            ..Default::default()
        };
        let (_, t) = tree_with(&keys, cfg);
        let scan = t.scan_host();
        assert_eq!(scan.len(), keys.len());
        for (i, (k, rid)) in scan.iter().enumerate() {
            assert_eq!(*k, keys[i]);
            assert_eq!(*rid, i as u64);
        }
    }

    #[test]
    fn insert_then_lookup() {
        let keys: Vec<u64> = (0..2000).map(|i| i * 4).collect();
        let cfg = BPlusTreeConfig {
            node_bytes: 128,
            fill_factor: 0.8,
            spare_nodes: 4096,
        };
        let mut g = gpu();
        let mut t = load(&mut g, &keys, cfg);
        // Insert odd keys between existing ones.
        for i in 0..2000u64 {
            t.insert(i * 4 + 1, 1_000_000 + i).unwrap();
        }
        assert_eq!(t.len(), 4000);
        for i in (0..2000u64).step_by(17) {
            assert_eq!(t.lookup(&mut g, i * 4), Some(i));
            assert_eq!(t.lookup(&mut g, i * 4 + 1), Some(1_000_000 + i));
        }
        // Scan stays sorted after splits.
        let scan = t.scan_host();
        assert_eq!(scan.len(), 4000);
        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn insert_duplicate_fails() {
        let keys: Vec<u64> = (0..100).collect();
        let cfg = BPlusTreeConfig {
            spare_nodes: 16,
            ..Default::default()
        };
        let mut g = gpu();
        let mut t = load(&mut g, &keys, cfg);
        assert_eq!(t.insert(50, 999), Err(IndexError::DuplicateKey(50)));
    }

    #[test]
    fn pool_exhaustion_reported() {
        let keys: Vec<u64> = (0..64).map(|i| i * 2).collect();
        let cfg = BPlusTreeConfig {
            node_bytes: 64,
            fill_factor: 1.0,
            spare_nodes: 0,
        };
        let mut g = gpu();
        let mut t = load(&mut g, &keys, cfg);
        let mut saw_exhaustion = false;
        for i in 0..64u64 {
            match t.insert(i * 2 + 1, i) {
                Ok(()) => {}
                Err(IndexError::CapacityExhausted) => {
                    saw_exhaustion = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(saw_exhaustion);
    }

    #[test]
    fn lower_bound_and_range() {
        let keys: Vec<u64> = (0..3000).map(|i| i * 10).collect();
        let cfg = BPlusTreeConfig {
            node_bytes: 256, // force several levels and leaf-boundary hops
            ..Default::default()
        };
        let (mut g, t) = tree_with(&keys, cfg);
        for probe in [0u64, 5, 10, 11, 14995, 29990, 29991, u64::MAX] {
            let expect = keys.partition_point(|&k| k < probe) as u64;
            assert_eq!(t.lower_bound(&mut g, probe), expect, "probe {probe}");
        }
        // Probe just past every leaf boundary to exercise the next-leaf hop.
        for leaf_last in (14..3000).step_by(15) {
            let probe = keys[leaf_last - 1] + 1;
            let expect = keys.partition_point(|&k| k < probe) as u64;
            assert_eq!(t.lower_bound(&mut g, probe), expect);
        }
        assert_eq!(t.range(&mut g, 100, 200), 10..21);
        assert_eq!(t.range(&mut g, 29995, u64::MAX), 3000..3000);
    }

    #[test]
    fn remove_then_lookup() {
        let keys: Vec<u64> = (0..2000).map(|i| i * 3).collect();
        let cfg = BPlusTreeConfig {
            node_bytes: 128, // deep tree: exercises borrows and merges
            ..Default::default()
        };
        let mut g = gpu();
        let mut t = load(&mut g, &keys, cfg);
        // Remove every third key.
        for i in (0..2000u64).step_by(3) {
            assert_eq!(t.remove(i * 3), Ok(i), "remove {}", i * 3);
        }
        assert_eq!(t.len(), 2000 - 667);
        for i in 0..2000u64 {
            let expect = if i % 3 == 0 { None } else { Some(i) };
            assert_eq!(t.lookup(&mut g, i * 3), expect, "key {}", i * 3);
        }
        // Scan stays sorted and complete.
        let scan = t.scan_host();
        assert_eq!(scan.len(), t.len());
        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn remove_everything_collapses_tree() {
        let keys: Vec<u64> = (0..500).collect();
        let cfg = BPlusTreeConfig {
            node_bytes: 128,
            ..Default::default()
        };
        let mut g = gpu();
        let mut t = load(&mut g, &keys, cfg);
        assert!(t.height() > 1);
        // Delete in an interleaved order to hit left and right siblings.
        let mut order: Vec<u64> = (0..500).collect();
        order.sort_by_key(|k| (k % 7, *k));
        for k in order {
            assert_eq!(t.remove(k), Ok(k));
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 1, "root should collapse to a leaf");
        assert_eq!(t.lookup(&mut g, 0), None);
    }

    #[test]
    fn remove_missing_key_fails() {
        let keys: Vec<u64> = (0..100).map(|i| i * 2).collect();
        let mut g = gpu();
        let mut t = load(&mut g, &keys, BPlusTreeConfig::default());
        assert_eq!(t.remove(3), Err(IndexError::KeyNotFound(3)));
        assert_eq!(t.remove(200), Err(IndexError::KeyNotFound(200)));
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn interleaved_insert_remove() {
        let keys: Vec<u64> = (0..300).map(|i| i * 10).collect();
        let cfg = BPlusTreeConfig {
            node_bytes: 128,
            fill_factor: 0.7,
            spare_nodes: 512,
        };
        let mut g = gpu();
        let mut t = load(&mut g, &keys, cfg);
        for i in 0..300u64 {
            t.insert(i * 10 + 5, 1000 + i).unwrap();
            t.remove(i * 10).unwrap();
        }
        assert_eq!(t.len(), 300);
        for i in (0..300u64).step_by(11) {
            assert_eq!(t.lookup(&mut g, i * 10), None);
            assert_eq!(t.lookup(&mut g, i * 10 + 5), Some(1000 + i));
        }
    }

    #[test]
    fn single_key_tree() {
        let (mut g, t) = tree_with(&[42], BPlusTreeConfig::default());
        assert_eq!(t.height(), 1);
        assert_eq!(t.lookup(&mut g, 42), Some(0));
        assert_eq!(t.lookup(&mut g, 41), None);
    }
}
