//! The common interface of all out-of-core index structures.
//!
//! Indexes answer *lower-bound* point lookups over the sorted base relation
//! *R* stored in CPU memory, returning the matched tuple's position (rid).
//! Lookups are issued warp-at-a-time and advance in SIMT lockstep so that
//! concurrent lanes interleave their memory accesses in the shared TLB and
//! caches — the behaviour §4.1 of the paper analyzes.

use windex_sim::Gpu;

/// The four index structures the paper evaluates (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize)]
pub enum IndexKind {
    /// Plain binary search over the sorted base relation.
    BinarySearch,
    /// Standard B+tree with 4 KiB nodes (§3.2).
    BPlusTree,
    /// Harmonia: GPU-optimized B+tree with 32-key nodes and cooperative
    /// sub-warp traversal (Yan et al., §2.2).
    Harmonia,
    /// RadixSpline: single-pass learned index over the sorted array
    /// (Kipf et al., §2.2).
    RadixSpline,
}

impl IndexKind {
    /// Display name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::BinarySearch => "binary-search",
            IndexKind::BPlusTree => "b+tree",
            IndexKind::Harmonia => "harmonia",
            IndexKind::RadixSpline => "radix-spline",
        }
    }

    /// All kinds, in the order the paper's figures list them.
    pub fn all() -> [IndexKind; 4] {
        [
            IndexKind::BPlusTree,
            IndexKind::BinarySearch,
            IndexKind::Harmonia,
            IndexKind::RadixSpline,
        ]
    }
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An index over the sorted base relation, accessed out-of-core by the GPU.
pub trait OutOfCoreIndex {
    /// Which of the paper's four structures this is.
    fn kind(&self) -> IndexKind;

    /// Number of indexed tuples.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Warp-cooperative lookup of up to one warp of keys, in SIMT lockstep.
    /// `out[i]` receives the base-relation position of `keys[i]` if present,
    /// else `None`. `out` must be at least as long as `keys`, and `keys`
    /// must not exceed the warp size.
    fn lookup_warp(&self, gpu: &mut Gpu, keys: &[u64], out: &mut [Option<u64>]);

    /// Convenience scalar lookup (a warp of one).
    fn lookup(&self, gpu: &mut Gpu, key: u64) -> Option<u64> {
        let mut out = [None];
        self.lookup_warp(gpu, std::slice::from_ref(&key), &mut out);
        out[0]
    }

    /// Position of the first indexed key ≥ `key`, or `len()` if every key
    /// is smaller. Positions refer to the sorted base relation, so a range
    /// of keys maps to a *contiguous* position range — the property range
    /// scans exploit (see [`range`](OutOfCoreIndex::range)).
    ///
    /// For structures that store rids (B+tree, Harmonia) this is the rid at
    /// the lower-bound slot, which equals the position for bulk-loaded
    /// indexes over the sorted column.
    fn lower_bound(&self, gpu: &mut Gpu, key: u64) -> u64;

    /// The contiguous position range of all keys in `lo..=hi`. Empty when
    /// no key falls inside the bounds.
    fn range(&self, gpu: &mut Gpu, lo: u64, hi: u64) -> std::ops::Range<u64> {
        if lo > hi {
            return 0..0;
        }
        let start = self.lower_bound(gpu, lo);
        let end = if hi == u64::MAX {
            self.len() as u64
        } else {
            self.lower_bound(gpu, hi + 1)
        };
        start..end.max(start)
    }

    /// Bytes of auxiliary structure beyond the base relation itself
    /// (0 for binary search).
    fn aux_bytes(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            IndexKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(IndexKind::RadixSpline.to_string(), "radix-spline");
    }
}
