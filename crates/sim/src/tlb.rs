//! GPU last-level TLB model.
//!
//! Modern GPUs have multiple TLB levels; like the paper (§3.3.2) we simplify
//! the discussion to the last level. When a lookup misses, the GPU issues an
//! address-translation request across the interconnect to the CPU's IOMMU —
//! a ~3 µs round trip that dominates out-of-core index lookups once the
//! working set exceeds the covered range (entries × page size; 32 GiB on the
//! paper's V100 with 1 GiB huge pages).

use crate::lru::SetAssocLru;

/// Last-level TLB with LRU replacement.
#[derive(Debug, Clone)]
pub struct Tlb {
    store: SetAssocLru,
    page_bytes: u64,
    page_shift: u32,
}

impl Tlb {
    /// Create a TLB with `entries` ways of associativity `assoc` translating
    /// `page_bytes`-sized pages. `page_bytes` must be a power of two.
    pub fn new(entries: usize, assoc: usize, page_bytes: u64) -> Self {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            store: SetAssocLru::new(entries, assoc),
            page_bytes,
            page_shift: page_bytes.trailing_zeros(),
        }
    }

    /// Translate the page containing `addr`. Returns `true` on a TLB hit;
    /// `false` means an address-translation request must be sent to the CPU.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.store.access(addr >> self.page_shift)
    }

    /// The page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Number of sets in the underlying tag store.
    pub fn sets(&self) -> usize {
        self.store.sets()
    }

    /// The set the page containing `addr` maps to (pure).
    pub fn set_of(&self, addr: u64) -> usize {
        self.store.set_of(addr >> self.page_shift)
    }

    /// Drop all cached translations.
    pub fn flush(&mut self) {
        self.store.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut tlb = Tlb::new(4, 4, 1 << 20);
        assert!(!tlb.access(0));
        assert!(tlb.access(100)); // same 1 MiB page
        assert!(tlb.access((1 << 20) - 1));
        assert!(!tlb.access(1 << 20)); // next page
    }
}
