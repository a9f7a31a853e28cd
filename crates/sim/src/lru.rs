//! A small set-associative LRU array used by both the TLB and the data-cache
//! models.
//!
//! Entries are keyed by an opaque tag (page number for the TLB, line number
//! for caches). Sets are selected by a Fibonacci hash of the tag; within a
//! set, tags live in a flat struct-of-arrays store in *recency order* (way 0
//! is MRU, the last way the LRU victim), so recency is the array order
//! itself and no separate replacement metadata exists.
//!
//! The hot path is specialized at compile time for the associativities the
//! device specs actually use (8-way L1, 16-way L2, 32-way TLB): lookup and
//! move-to-front refile are fused into a single forward pass that carries
//! the displaced tag in a register, so each way is loaded and stored exactly
//! once whether the access hits or misses. Several alternatives were
//! prototyped and measured *slower* on these tiny geometries — a separated
//! recency store (per-way rank bytes updated with SWAR arithmetic), an
//! early-exit scan followed by `copy_within`, a branchless SWAR match mask,
//! and an AVX2 movemask scan — so the fused carry pass stays; see DESIGN.md
//! §"Simulator performance" for the numbers. Associativity equal to the
//! entry count yields a fully associative structure (used for the small GPU
//! TLB).

/// Set-associative LRU tag store.
#[derive(Debug, Clone)]
pub struct SetAssocLru {
    /// Flat `sets × assoc` array; within a set, index 0 is MRU and
    /// `assoc - 1` is the eviction victim. `u64::MAX` marks an empty way
    /// (empties sit at the tail by construction and are consumed first).
    tags: Vec<u64>,
    sets: usize,
    assoc: usize,
    /// Lemire fastmod constant `⌈2^64 / sets⌉` (0 when `sets == 1`): lets
    /// set selection avoid a hardware divide while computing *exactly*
    /// `hash % sets` (the hashed dividend fits in 32 bits).
    fastmod_m: u64,
}

/// Sentinel tag for an empty way. Real tags are page/line numbers, which
/// never reach `u64::MAX` in practice (that would be an address near 2^64).
const EMPTY: u64 = u64::MAX;

/// The Fibonacci multiplicative hash feeding set selection. Hardware TLBs
/// and caches hash their index bits for the same reason: without it,
/// power-of-two page/line strides alias onto a few sets and fake conflict
/// misses. The result fits in 32 bits, which is what makes the fastmod
/// reduction in [`SetAssocLru::set_of`] exact.
#[inline]
pub(crate) fn hash_of(tag: u64) -> u64 {
    tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

/// Fibonacci-hash the tag before set selection (reference definition; the
/// instance path computes the same value divide-free via fastmod, and the
/// tests assert both paths agree).
#[inline]
#[cfg_attr(not(test), allow(dead_code))]
fn set_of(tag: u64, sets: usize) -> usize {
    if sets == 1 {
        0
    } else {
        hash_of(tag) as usize % sets
    }
}

impl SetAssocLru {
    /// Create a structure with `entries` total ways and the given
    /// associativity. `entries` must be a multiple of `assoc`; the set count
    /// may be any positive number (set selection uses a modulo, which is
    /// fine for a simulator and lets scaled-down cache geometries stay
    /// faithful to their capacity).
    pub fn new(entries: usize, assoc: usize) -> Self {
        assert!(
            entries > 0 && assoc > 0,
            "entries and assoc must be non-zero"
        );
        assert!(
            entries.is_multiple_of(assoc),
            "entries must be a multiple of assoc"
        );
        let sets = entries / assoc;
        SetAssocLru {
            tags: vec![EMPTY; entries],
            sets,
            assoc,
            fastmod_m: if sets > 1 {
                u64::MAX / sets as u64 + 1
            } else {
                0
            },
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// The set `tag` maps to (pure; exposed so residency heatmaps can bin
    /// traced accesses by the same hash the replacement logic uses).
    pub fn set_of(&self, tag: u64) -> usize {
        self.set_from_hash(hash_of(tag))
    }

    /// Set selection from a precomputed [`hash_of`] value, so one hash can
    /// be shared between L1 and L2 on the engine's per-line hot path (and
    /// computed for a whole drained batch up front).
    #[inline]
    fn set_from_hash(&self, hash: u64) -> usize {
        if self.sets.is_power_of_two() {
            // `hash % 2^k` is a mask (covers `sets == 1` with mask 0) —
            // identical to the fastmod result, minus the widening multiply.
            hash as usize & (self.sets - 1)
        } else {
            // Lemire's fastmod: exact `hash % sets` because `hash < 2^32`.
            let low = self.fastmod_m.wrapping_mul(hash);
            ((low as u128 * self.sets as u128) >> 64) as usize
        }
    }

    /// Look up `tag`, inserting it on a miss (evicting the set's LRU way).
    /// Returns `true` on a hit.
    #[inline]
    pub fn access(&mut self, tag: u64) -> bool {
        self.access_hashed(tag, hash_of(tag))
    }

    /// [`access`](Self::access) with the tag hash precomputed by the caller.
    /// Dispatches to a compile-time-specialized body for the spec
    /// associativities (one perfectly predicted branch per structure).
    /// Always inlined: the engine's line-walk kernel calls it up to three
    /// times per line, and an outlined call spills the kernel's state
    /// around every one.
    #[inline(always)]
    pub fn access_hashed(&mut self, tag: u64, hash: u64) -> bool {
        debug_assert_ne!(tag, EMPTY, "tag collides with the empty sentinel");
        debug_assert_eq!(hash, hash_of(tag), "hash must be hash_of(tag)");
        match self.assoc {
            8 => self.access_const::<8>(tag, hash),
            16 => self.access_const::<16>(tag, hash),
            32 => self.access_const::<32>(tag, hash),
            _ => self.access_any(tag, hash),
        }
    }

    /// The specialized hot body: with `ASSOC` known at compile time the
    /// residency scan unrolls into a branchless match mask and the
    /// move-to-front shift on a miss is a fixed-size block move.
    #[inline(always)]
    fn access_const<const ASSOC: usize>(&mut self, tag: u64, hash: u64) -> bool {
        debug_assert_eq!(self.assoc, ASSOC);
        let base = self.set_from_hash(hash) * ASSOC;
        let ways: &mut [u64; ASSOC] = (&mut self.tags[base..base + ASSOC]).try_into().unwrap();
        // MRU fast path: repeat hits touch one word and move nothing.
        if ways[0] == tag {
            return true;
        }
        // Fused scan + move-to-front: one forward pass with a register
        // carry. Each way is read once and overwritten by its predecessor;
        // on a hit at depth `i` everything before it has already aged one
        // position and the loop stops — exactly the MTF refile. On a miss
        // the pass runs to the end and the old tail (LRU victim or an
        // empty) falls off in the carry register. Measured against an
        // early-exit scan + `copy_within`, a SWAR bitmask scan, and an
        // AVX2 movemask scan on the three spec geometries: the carry loop
        // wins every pattern (the alternatives pay mispredicts at varying
        // hit depths or a non-inlinable `target_feature` call).
        let mut carry = tag;
        for slot in ways.iter_mut() {
            let cur = *slot;
            *slot = carry;
            if cur == tag {
                return true;
            }
            carry = cur;
        }
        false
    }

    /// Generic fallback for associativities outside the spec presets
    /// (arbitrary test geometries); same semantics as the specialized body,
    /// classic early-exit scan.
    fn access_any(&mut self, tag: u64, hash: u64) -> bool {
        let base = self.set_from_hash(hash) * self.assoc;
        let ways = &mut self.tags[base..base + self.assoc];
        if ways[0] == tag {
            return true;
        }
        for i in 1..ways.len() {
            if ways[i] == tag {
                ways.copy_within(0..i, 1);
                ways[0] = tag;
                return true;
            }
        }
        let last = ways.len() - 1;
        ways.copy_within(0..last, 1);
        ways[0] = tag;
        false
    }

    /// Check residency without updating recency or inserting.
    #[cfg(test)]
    pub fn probe(&self, tag: u64) -> bool {
        let base = self.set_of(tag) * self.assoc;
        self.tags[base..base + self.assoc].contains(&tag)
    }

    /// Invalidate everything (e.g. between queries).
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut l = SetAssocLru::new(4, 4);
        assert!(!l.access(7));
        assert!(l.access(7));
        assert!(l.probe(7));
        assert!(!l.probe(8));
    }

    #[test]
    fn lru_eviction_order_fully_assoc() {
        let mut l = SetAssocLru::new(2, 2);
        l.access(1);
        l.access(2);
        l.access(1); // 2 is now LRU
        l.access(3); // evicts 2
        assert!(l.probe(1));
        assert!(!l.probe(2));
        assert!(l.probe(3));
    }

    #[test]
    fn set_isolation() {
        // 4 entries, 2-way: find three tags sharing a set and one that does
        // not; filling the shared set must not disturb the other.
        let mut l = SetAssocLru::new(4, 2);
        let set = |t: u64| super::set_of(t, 2);
        let s0 = set(0);
        let same: Vec<u64> = (0..100).filter(|&t| set(t) == s0).take(3).collect();
        let other = (0..100).find(|&t| set(t) != s0).unwrap();
        l.access(same[0]);
        l.access(same[1]);
        l.access(same[2]); // evicts same[0]
        assert!(!l.probe(same[0]));
        assert!(!l.access(other));
        assert!(l.probe(other));
        assert!(l.probe(same[1]) && l.probe(same[2]));
    }

    #[test]
    fn fastmod_set_selection_matches_reference_modulo() {
        // The instance path uses Lemire's fastmod; it must agree with the
        // plain `hash % sets` definition for every set count, including
        // non-powers of two (scaled L2 geometries produce e.g. 3 sets).
        for sets in [1usize, 2, 3, 5, 7, 8, 12, 31] {
            let l = SetAssocLru::new(sets * 2, 2);
            for tag in (0..10_000u64).chain([u64::MAX - 1, 1 << 40, (1 << 52) + 17]) {
                assert_eq!(
                    l.set_of(tag),
                    super::set_of(tag, sets),
                    "sets={sets} tag={tag}"
                );
            }
        }
    }

    #[test]
    fn flush_clears() {
        let mut l = SetAssocLru::new(4, 4);
        l.access(42);
        l.flush();
        assert!(!l.probe(42));
        assert!(!l.access(42));
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut l = SetAssocLru::new(32, 32);
        for round in 0..3 {
            for tag in 0..32u64 {
                let hit = l.access(tag);
                if round > 0 {
                    assert!(hit, "tag {tag} should stay resident");
                }
            }
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut l = SetAssocLru::new(32, 32);
        // Cyclic access over 33 tags with LRU: every access misses.
        let mut misses = 0;
        for _ in 0..4 {
            for tag in 0..33u64 {
                if !l.access(tag) {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, 4 * 33);
    }

    /// The compile-time-specialized bodies must answer exactly like the
    /// generic fallback for every spec associativity (same algorithm,
    /// different codegen), including identical end-state tag order.
    #[test]
    fn specialized_matches_generic() {
        for assoc in [8usize, 16, 32] {
            let mut fast = SetAssocLru::new(assoc * 4, assoc);
            let mut slow = SetAssocLru::new(assoc * 4, assoc);
            let mut x = 0x0123_4567_89AB_CDEFu64;
            for _ in 0..6_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let tag = (x >> 33) % (assoc as u64 * 8);
                let hash = hash_of(tag);
                assert_eq!(
                    fast.access_hashed(tag, hash),
                    slow.access_any(tag, hash),
                    "assoc={assoc} tag={tag}"
                );
                assert_eq!(fast.tags, slow.tags, "assoc={assoc} state diverged");
            }
        }
    }

    /// Differential check: the recency-ordered representation must answer
    /// exactly like a classic stamp-based LRU for arbitrary access
    /// sequences.
    #[test]
    fn matches_stamp_lru_reference() {
        struct StampLru {
            tags: Vec<u64>,
            stamps: Vec<u64>,
            sets: usize,
            assoc: usize,
            clock: u64,
        }
        impl StampLru {
            fn access(&mut self, tag: u64) -> bool {
                self.clock += 1;
                let base = super::set_of(tag, self.sets) * self.assoc;
                for i in base..base + self.assoc {
                    if self.tags[i] == tag {
                        self.stamps[i] = self.clock;
                        return true;
                    }
                }
                let (mut victim, mut oldest) = (base, u64::MAX);
                for i in base..base + self.assoc {
                    if self.stamps[i] < oldest {
                        oldest = self.stamps[i];
                        victim = i;
                    }
                }
                self.tags[victim] = tag;
                self.stamps[victim] = self.clock;
                false
            }
        }
        for (entries, assoc) in [(8usize, 2usize), (8, 4), (16, 16), (6, 2), (96, 32)] {
            let mut fast = SetAssocLru::new(entries, assoc);
            let mut reference = StampLru {
                tags: vec![EMPTY; entries],
                stamps: vec![0; entries],
                sets: entries / assoc,
                assoc,
                clock: 0,
            };
            // Deterministic pseudo-random tag stream with reuse.
            let mut x = 0x243F_6A88_85A3_08D3u64;
            for _ in 0..4_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let tag = (x >> 33) % 24;
                assert_eq!(
                    fast.access(tag),
                    reference.access(tag),
                    "entries={entries} assoc={assoc} tag={tag}"
                );
            }
        }
    }
}
