//! GPU data-cache model (L1 and L2).
//!
//! On the paper's platform the GPU caches CPU-memory lines fetched over
//! NVLink in its normal cache hierarchy, which is why "the upper-most tree
//! levels are assumed to be cached and do not incur memory accesses" (§3.1)
//! and why Zipf-skewed lookups hit L1 with high probability (§5.2.2).

use crate::lru::SetAssocLru;

/// Set-associative data cache with LRU replacement, tag-only (no data is
/// stored; the simulator keeps data in host vectors).
#[derive(Debug, Clone)]
pub struct Cache {
    store: SetAssocLru,
    line_bytes: u64,
    line_shift: u32,
}

impl Cache {
    /// Create a cache of `capacity_bytes` with `line_bytes` lines and the
    /// given associativity. The line size must be a power of two. The
    /// geometry is normalized: at least one line is kept, the associativity
    /// is clamped to the line count, and the capacity is rounded down to a
    /// multiple of the associativity — this keeps scaled-down configurations
    /// (where a paper-sized cache shrinks to a handful of lines) valid.
    pub fn new(capacity_bytes: u64, line_bytes: u64, assoc: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = ((capacity_bytes / line_bytes) as usize).max(1);
        let assoc = assoc.clamp(1, lines);
        let lines = lines - lines % assoc;
        Cache {
            store: SetAssocLru::new(lines, assoc),
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
        }
    }

    /// Access the line containing `addr`; returns `true` on a hit and
    /// allocates the line on a miss.
    pub fn access(&mut self, addr: u64) -> bool {
        self.store.access(addr >> self.line_shift)
    }

    /// [`access`](Self::access) with the line tag's hash precomputed via
    /// [`crate::lru::hash_of`]. L1 and L2 share a line size, so the engine's
    /// per-line hot path hashes each tag once and probes both caches with it.
    #[inline]
    pub(crate) fn access_hashed(&mut self, addr: u64, hash: u64) -> bool {
        self.store.access_hashed(addr >> self.line_shift, hash)
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of sets in the underlying tag store.
    pub fn sets(&self) -> usize {
        self.store.sets()
    }

    /// The set the line containing `addr` maps to (pure).
    pub fn set_of(&self, addr: u64) -> usize {
        self.store.set_of(addr >> self.line_shift)
    }

    /// Invalidate all lines.
    pub fn flush(&mut self) {
        self.store.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_granularity() {
        let mut c = Cache::new(1024, 128, 2);
        assert!(!c.access(0));
        assert!(c.access(127));
        assert!(!c.access(128));
    }

    #[test]
    fn capacity_eviction() {
        // 2 lines total, fully associative.
        let mut c = Cache::new(256, 128, 2);
        c.access(0);
        c.access(128);
        c.access(0); // refresh line 0; line 1 is LRU
        assert!(!c.access(256)); // evicts line 1
        assert!(c.access(256));
        assert!(c.access(0));
        assert!(!c.access(128)); // line 1 was evicted
    }
}
