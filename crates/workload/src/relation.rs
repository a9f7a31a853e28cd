//! Join relations and their generators.
//!
//! The paper's workload (§3.2): relation *R* holds unique, sorted 8-byte
//! keys; relation *S* holds foreign keys drawn from *R* (uniformly, or
//! Zipf-skewed in §5.2.2). Each relation is a single 8-byte integer column
//! "to maximize the tree height of indexes". *S* stays fixed while *R*
//! scales, so join selectivity |S|/|R| ranges from 100 % down to 0.4 %.

use crate::zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use windex_sim::SharedColumn;

/// Key-space shape for the unique sorted build side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KeyDistribution {
    /// Keys `0, 1, 2, …, n-1`. Degenerate for learned indexes (a perfect
    /// line); mainly useful in tests.
    Dense,
    /// Unique sorted keys with pseudo-random gaps (average gap ≈ 16), the
    /// realistic case for a learned index like the RadixSpline.
    SparseUniform,
}

/// A single-column relation of 8-byte integer keys.
///
/// The column is a [`SharedColumn`], so cloning a relation (or handing a
/// copy to a query session, a served tenant, or a worker thread) shares the
/// storage instead of duplicating a potentially multi-megabyte column, and
/// every index built over a staged copy of it, on any thread, reuses the
/// fit stored on the column.
#[derive(Debug, Clone)]
pub struct Relation {
    keys: SharedColumn<u64>,
    sorted_unique: bool,
}

impl Relation {
    /// Wrap an existing column. A `sorted_unique` declaration is verified:
    /// keys that are not strictly ascending make an unsorted relation,
    /// which index strategies reject instead of answering wrongly.
    pub fn from_keys(keys: Vec<u64>, sorted_unique: bool) -> Self {
        Relation {
            sorted_unique: sorted_unique && keys.windows(2).all(|w| w[0] < w[1]),
            keys: keys.into(),
        }
    }

    /// Generate `n` unique sorted keys (the indexed relation *R*).
    /// Deterministic in `(n, dist, seed)`.
    pub fn unique_sorted(n: usize, dist: KeyDistribution, seed: u64) -> Self {
        let keys = match dist {
            // Range is `TrustedLen`, so collecting straight into the `Arc`
            // writes the shared allocation once — no staging `Vec`, no copy.
            KeyDistribution::Dense => (0..n as u64).collect::<Arc<[u64]>>().into(),
            KeyDistribution::SparseUniform => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut k: u64 = 0;
                // A mapped range is `TrustedLen` too: one write, no copy.
                (0..n)
                    .map(|_| {
                        // Gap in [1, 31], average 16: keeps the key domain
                        // ~16× larger than the relation, so interpolation
                        // (RadixSpline) has real prediction error to absorb.
                        k += rng.random_range(1..32u64);
                        k
                    })
                    .collect::<Arc<[u64]>>()
                    .into()
            }
        };
        Relation {
            keys,
            sorted_unique: true,
        }
    }

    /// Generate `n` foreign keys drawn uniformly from `r` (the probe
    /// relation *S*). Every key matches exactly one *R* tuple.
    ///
    /// An empty `r` has no keys to draw from: the result is the trivial
    /// empty relation (regardless of `n`) rather than a panic — the join
    /// of anything against an empty build side is empty anyway.
    pub fn foreign_keys_uniform(r: &Relation, n: usize, seed: u64) -> Self {
        if r.is_empty() {
            return Relation::from_keys(Vec::new(), false);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let keys: Arc<[u64]> = (0..n)
            .map(|_| r.keys[rng.random_range(0..r.len())])
            .collect();
        Relation {
            keys: keys.into(),
            sorted_unique: false,
        }
    }

    /// Generate `n` foreign keys drawn from `r` with Zipf-skewed popularity
    /// (§5.2.2). Hot ranks are scattered across the key domain by a fixed
    /// coprime multiplier, so skew does not coincide with key order.
    ///
    /// An empty `r` yields the trivial empty relation, exactly like
    /// [`foreign_keys_uniform`](Self::foreign_keys_uniform) — the modulo
    /// scatter (`rank·scatter % |r|`) would otherwise divide by zero.
    pub fn foreign_keys_zipf(r: &Relation, n: usize, exponent: f64, seed: u64) -> Self {
        if r.is_empty() {
            return Relation::from_keys(Vec::new(), false);
        }
        let sampler = ZipfSampler::new(r.len() as u64, exponent);
        let mut rng = StdRng::seed_from_u64(seed);
        let scatter = scatter_multiplier(r.len() as u64);
        let keys: Arc<[u64]> = (0..n)
            .map(|_| {
                let rank = sampler.sample(&mut rng) - 1;
                let idx = (rank.wrapping_mul(scatter) % r.len() as u64) as usize;
                r.keys[idx]
            })
            .collect();
        Relation {
            keys: keys.into(),
            sorted_unique: false,
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The key column.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The key column itself (an `Arc` clone: no copy). Lets a staged
    /// buffer alias the relation's column, and so share its index fits.
    pub fn keys_shared(&self) -> SharedColumn<u64> {
        self.keys.clone()
    }

    /// Consume into the key column (copies when the column is shared).
    pub fn into_keys(self) -> Vec<u64> {
        self.keys.to_vec()
    }

    /// Whether the column is sorted and duplicate-free (required of the
    /// indexed relation).
    pub fn is_sorted_unique(&self) -> bool {
        self.sorted_unique
    }

    /// Size of the single 8-byte column in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.keys.len() as u64 * 8
    }

    /// Smallest key, if any.
    pub fn min_key(&self) -> Option<u64> {
        if self.sorted_unique {
            self.keys.first().copied()
        } else {
            self.keys.iter().min().copied()
        }
    }

    /// Largest key, if any.
    pub fn max_key(&self) -> Option<u64> {
        if self.sorted_unique {
            self.keys.last().copied()
        } else {
            self.keys.iter().max().copied()
        }
    }
}

/// Join selectivity of probing `r` with `s`, defined as in the paper (§3.2):
/// the fraction of the indexed relation touched, |S| / |R|.
pub fn join_selectivity(r: &Relation, s: &Relation) -> f64 {
    if r.is_empty() {
        0.0
    } else {
        s.len() as f64 / r.len() as f64
    }
}

/// Find a multiplier coprime with `n` to scatter Zipf ranks over positions.
fn scatter_multiplier(n: u64) -> u64 {
    const CANDIDATES: [u64; 6] = [
        0x9E37_79B9_7F4A_7C15, // 2^64 / φ, odd
        0xC2B2_AE3D_27D4_EB4F,
        0xFF51_AFD7_ED55_8CCD,
        104_729, // primes
        15_485_863,
        2_147_483_647,
    ];
    for &c in &CANDIDATES {
        if gcd(c, n) == 1 {
            return c;
        }
    }
    1
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_sorted_invariants() {
        for dist in [KeyDistribution::Dense, KeyDistribution::SparseUniform] {
            let r = Relation::unique_sorted(10_000, dist, 7);
            assert_eq!(r.len(), 10_000);
            assert!(r.is_sorted_unique());
            assert!(r.keys().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn sparse_keys_have_gaps() {
        let r = Relation::unique_sorted(10_000, KeyDistribution::SparseUniform, 7);
        let span = r.max_key().unwrap() - r.min_key().unwrap();
        assert!(span > 8 * r.len() as u64, "span {span} too dense");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Relation::unique_sorted(1000, KeyDistribution::SparseUniform, 9);
        let b = Relation::unique_sorted(1000, KeyDistribution::SparseUniform, 9);
        assert_eq!(a.keys(), b.keys());
        let c = Relation::unique_sorted(1000, KeyDistribution::SparseUniform, 10);
        assert_ne!(a.keys(), c.keys());
    }

    #[test]
    fn foreign_keys_all_match() {
        let r = Relation::unique_sorted(5000, KeyDistribution::SparseUniform, 1);
        let s = Relation::foreign_keys_uniform(&r, 2000, 2);
        assert_eq!(s.len(), 2000);
        for k in s.keys() {
            assert!(r.keys().binary_search(k).is_ok());
        }
    }

    #[test]
    fn zipf_foreign_keys_match_and_skew() {
        let r = Relation::unique_sorted(1000, KeyDistribution::SparseUniform, 1);
        let s = Relation::foreign_keys_zipf(&r, 50_000, 1.5, 3);
        for k in s.keys() {
            assert!(r.keys().binary_search(k).is_ok());
        }
        // The hottest key should dominate under heavy skew.
        let mut counts = std::collections::HashMap::new();
        for k in s.keys() {
            *counts.entry(*k).or_insert(0u64) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        assert!(max > s.len() as u64 / 10, "hottest key count {max}");
    }

    #[test]
    fn empty_relation_yields_empty_foreign_keys_not_panic() {
        // Regression: `foreign_keys_zipf` divided by `r.len() == 0` in the
        // rank-scatter modulo (and `foreign_keys_uniform` asserted) on an
        // empty build side.
        let empty = Relation::from_keys(Vec::new(), true);
        let s = Relation::foreign_keys_zipf(&empty, 100, 1.5, 3);
        assert!(s.is_empty());
        let s = Relation::foreign_keys_uniform(&empty, 100, 3);
        assert!(s.is_empty());
        // n = 0 against a non-empty relation also stays well-formed.
        let r = Relation::unique_sorted(16, KeyDistribution::Dense, 1);
        assert!(Relation::foreign_keys_zipf(&r, 0, 1.0, 1).is_empty());
    }

    #[test]
    fn sorted_declaration_is_verified_in_every_build() {
        // A false declaration used to pass in release builds (the check was
        // a `debug_assert!`) and silently yield wrong index answers.
        for (keys, max) in [(vec![3, 1, 2], 3), (vec![1, 1, 2], 2)] {
            let r = Relation::from_keys(keys, true);
            assert!(!r.is_sorted_unique());
            assert_eq!((r.min_key(), r.max_key()), (Some(1), Some(max)));
        }
        assert!(Relation::from_keys(vec![1, 2, 5], true).is_sorted_unique());
        assert!(!Relation::from_keys(vec![1, 2, 5], false).is_sorted_unique());
    }

    #[test]
    fn selectivity_matches_paper_definition() {
        let r = Relation::unique_sorted(1 << 12, KeyDistribution::Dense, 0);
        let s = Relation::foreign_keys_uniform(&r, 1 << 10, 0);
        assert!((join_selectivity(&r, &s) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn scatter_is_coprime() {
        for n in [2u64, 1000, 104_729, 1 << 16, (1 << 16) + 1] {
            assert_eq!(gcd(scatter_multiplier(n), n), 1);
        }
    }
}
