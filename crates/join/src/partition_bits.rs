//! Partition-bit selection (§4.2 of the paper).
//!
//! Radix partitioning the lookup keys only improves locality if the chosen
//! bits actually distinguish memory pages and traversal paths:
//!
//! - the **most significant** useful bit is the bit that "splits the root
//!   node" — the top bit of the key *domain* (higher bits are identical on
//!   every key and never affect a comparator);
//! - the **least significant** useful bit is the bit just above the page
//!   size: keys differing only below it fall into the same memory page
//!   anyway.
//!
//! The paper's runs use 2048 partitions (11 bits), ignoring the 4 least
//! significant key bits (§4.3.1); [`PartitionBits::select`] reproduces the
//! §4.2 rule for arbitrary data/page geometry, and
//! [`PartitionBits::paper_default`] reproduces the fixed configuration.

use windex_sim::GpuSpec;

/// A contiguous range of key bits used as the radix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PartitionBits {
    /// Right-shift applied to `(key - min_key)` before masking.
    pub shift: u32,
    /// Number of radix bits (`partitions = 2^bits`).
    pub bits: u32,
}

impl PartitionBits {
    /// The paper's fixed configuration: 2048 partitions (11 bits), skipping
    /// the 4 least significant bits.
    pub fn paper_default() -> Self {
        PartitionBits { shift: 4, bits: 11 }
    }

    /// Apply the §4.2 rule: choose up to `max_bits` bits starting at the
    /// domain's top bit (root split) down to the bit above the page size.
    ///
    /// - `key_domain` — `max_key - min_key` of the indexed relation;
    /// - `tuples` — number of indexed tuples (for key density);
    /// - `spec` — supplies the page size.
    pub fn select(key_domain: u64, tuples: u64, spec: &GpuSpec, max_bits: u32) -> Self {
        assert!(max_bits >= 1);
        if key_domain == 0 || tuples == 0 {
            return PartitionBits { shift: 0, bits: 1 };
        }
        let domain_bits = 64 - key_domain.leading_zeros();
        // One page holds page_bytes/8 tuples; with tuples spread over
        // key_domain values, a page spans ~page_bytes/8 * domain/tuples key
        // values. Bits below that boundary land in the same page.
        let keys_per_page =
            (spec.page_bytes as f64 / 8.0 * key_domain as f64 / tuples as f64).max(1.0);
        let page_bit = keys_per_page.log2().ceil() as u32;
        // Take the top `max_bits` of the domain, but never below page_bit.
        let shift = domain_bits
            .saturating_sub(max_bits)
            .max(page_bit.min(domain_bits - 1));
        let bits = (domain_bits - shift).clamp(1, max_bits);
        PartitionBits { shift, bits }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        1usize << self.bits
    }

    /// Partition index of `key` relative to `min_key`.
    #[inline]
    pub fn partition_of(&self, key: u64, min_key: u64) -> usize {
        (((key - min_key) >> self.shift) & ((1u64 << self.bits) - 1)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windex_sim::{GpuSpec, Scale};

    #[test]
    fn paper_default_is_2048_partitions_skip_4_lsb() {
        let b = PartitionBits::paper_default();
        assert_eq!(b.partitions(), 2048);
        assert_eq!(b.shift, 4);
        // Keys differing only in the low 4 bits share a partition.
        assert_eq!(b.partition_of(0x10, 0), b.partition_of(0x1F, 0));
        assert_ne!(b.partition_of(0x10, 0), b.partition_of(0x20, 0));
    }

    #[test]
    fn select_uses_top_domain_bits() {
        let spec = GpuSpec::v100_nvlink2(Scale::PAPER);
        // 2^24 tuples over a 2^28 key domain (domain_bits = 29). A 1 MiB
        // page holds 2^17 tuples, spanning 2^17 · 16 = 2^21 key values, so
        // the usable range is bits 28‥21: 8 bits starting at shift 21.
        let b = PartitionBits::select(1 << 28, 1 << 24, &spec, 11);
        assert_eq!(b.shift, 21);
        assert_eq!(b.bits, 8);
        // shift + bits reach the domain's top bit.
        assert_eq!(b.shift + b.bits, 29);
    }

    #[test]
    fn select_respects_page_floor() {
        let spec = GpuSpec::v100_nvlink2(Scale::PAPER);
        // Tiny domain: all bits fall inside one page; selection degrades
        // gracefully to the top bits it can get.
        let b = PartitionBits::select(1 << 10, 1 << 20, &spec, 11);
        assert!(b.bits >= 1);
        assert!(b.shift + b.bits <= 11);
    }

    #[test]
    fn partition_order_follows_key_order_for_top_bits() {
        let spec = GpuSpec::v100_nvlink2(Scale::PAPER);
        let b = PartitionBits::select(1 << 30, 1 << 22, &spec, 11);
        // With top-of-domain bits, partition index is monotone in the key.
        let mut last = 0;
        for key in (0u64..(1 << 30)).step_by(1 << 22) {
            let p = b.partition_of(key, 0);
            assert!(p >= last, "partition order regressed at key {key}");
            last = p;
        }
    }

    #[test]
    fn degenerate_domain() {
        let spec = GpuSpec::v100_nvlink2(Scale::PAPER);
        let b = PartitionBits::select(0, 100, &spec, 11);
        assert_eq!(b.partitions(), 2);
        assert_eq!(b.partition_of(5, 5), 0);
    }
}
