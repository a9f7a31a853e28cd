//! Property tests for index maintenance: the B+tree under random
//! insert/remove interleavings must behave exactly like a reference
//! ordered map, and Harmonia's batched rebuild must preserve contents.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use windex_index::{
    BPlusTree, BPlusTreeConfig, Harmonia, HarmoniaConfig, IndexError, OutOfCoreIndex,
};
use windex_sim::{Gpu, GpuSpec, Scale};

fn gpu() -> Gpu {
    Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER))
}

/// One maintenance operation.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
    Lookup(u64),
}

fn ops(max_key: u64, n: usize) -> impl Strategy<Value = Vec<Op>> {
    pvec(
        prop_oneof![
            (0..max_key).prop_map(Op::Insert),
            (0..max_key).prop_map(Op::Remove),
            (0..max_key).prop_map(Op::Lookup),
        ],
        1..n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Apply random insert/remove/lookup sequences to a small-node B+tree
    /// and a BTreeMap; every observable result must agree, and the leaf
    /// chain must stay sorted.
    #[test]
    fn btree_matches_reference_map(
        initial in pvec(0u64..500, 0..60),
        script in ops(500, 120),
    ) {
        let mut sorted: Vec<u64> = initial.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let mut reference: BTreeMap<u64, u64> = sorted
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();

        let mut g = gpu();
        let cfg = BPlusTreeConfig {
            node_bytes: 128, // tiny nodes: max structural churn
            fill_factor: 0.8,
            spare_nodes: 4096,
        };
        let col = g.alloc_host_from_vec(sorted.clone());
        let mut tree = BPlusTree::build(&mut g, &col, cfg);
        let mut next_rid = 1_000_000u64;

        for op in script {
            match op {
                Op::Insert(k) => {
                    let expect_dup = reference.contains_key(&k);
                    match tree.insert(k, next_rid) {
                        Ok(()) => {
                            prop_assert!(!expect_dup, "insert {k} should have been dup");
                            reference.insert(k, next_rid);
                            next_rid += 1;
                        }
                        Err(IndexError::DuplicateKey(_)) => prop_assert!(expect_dup),
                        Err(e) => prop_assert!(false, "unexpected {e}"),
                    }
                }
                Op::Remove(k) => {
                    let expect = reference.remove(&k);
                    match tree.remove(k) {
                        Ok(rid) => prop_assert_eq!(Some(rid), expect),
                        Err(IndexError::KeyNotFound(_)) => prop_assert!(expect.is_none()),
                        Err(e) => prop_assert!(false, "unexpected {e}"),
                    }
                }
                Op::Lookup(k) => {
                    prop_assert_eq!(tree.lookup(&mut g, k), reference.get(&k).copied());
                }
            }
            prop_assert_eq!(tree.len(), reference.len());
        }

        // Final structural check: the leaf chain equals the reference.
        let scan = tree.scan_host();
        let expect: Vec<(u64, u64)> = reference.into_iter().collect();
        prop_assert_eq!(scan, expect);
    }

    /// Harmonia's batched rebuild preserves all previous keys and adds the
    /// new batch with correct positional rids.
    #[test]
    fn harmonia_batch_insert_preserves_contents(
        initial in pvec(0u64..10_000, 1..200),
        batch in pvec(0u64..10_000, 1..50),
    ) {
        let mut sorted = initial.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let mut g = gpu();
        let col = g.alloc_host_from_vec(sorted.clone());
        let mut h = Harmonia::build(&mut g, &col, HarmoniaConfig::default());

        let fresh: Vec<u64> = {
            let mut b = batch.clone();
            b.sort_unstable();
            b.dedup();
            b.retain(|k| sorted.binary_search(k).is_err());
            b
        };
        if fresh.is_empty() {
            return Ok(());
        }
        h.insert_batch(&mut g, &fresh).unwrap();

        let mut all = sorted.clone();
        all.extend(&fresh);
        all.sort_unstable();
        prop_assert_eq!(h.len(), all.len());
        for (i, &k) in all.iter().enumerate() {
            prop_assert_eq!(h.lookup(&mut g, k), Some(i as u64), "key {}", k);
        }
    }

    /// `lower_bound` and `range` agree with `partition_point`, and `lookup`
    /// with `lower_bound`, for every index over arbitrary sorted sets and
    /// probes.
    #[test]
    fn lower_bound_agrees_with_reference(
        keys in pvec(0u64..1 << 20, 1..300),
        probes in pvec(0u64..1 << 21, 1..60),
    ) {
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let mut g = gpu();
        let col = std::rc::Rc::new(
            g.alloc_host_from_vec(sorted.clone()),
        );
        let indexes: Vec<Box<dyn OutOfCoreIndex>> = vec![
            Box::new(windex_index::BinarySearchIndex::new(std::rc::Rc::clone(&col))),
            Box::new(BPlusTree::build(&mut g, &col, BPlusTreeConfig {
                node_bytes: 128,
                ..Default::default()
            })),
            Box::new(Harmonia::build(&mut g, &col, HarmoniaConfig::default())),
            Box::new(windex_index::RadixSpline::build(
                &mut g,
                std::rc::Rc::clone(&col),
                windex_index::RadixSplineConfig::default(),
            )),
        ];
        let bound = |p: u64| sorted.partition_point(|&k| k < p) as u64;
        for idx in &indexes {
            for &p in &probes {
                let lb = idx.lower_bound(&mut g, p);
                prop_assert_eq!(lb, bound(p), "{} probe {}", idx.kind(), p);
                let present = sorted.binary_search(&p).is_ok();
                prop_assert_eq!(
                    idx.lookup(&mut g, p),
                    present.then_some(lb),
                    "{} lookup {}",
                    idx.kind(),
                    p
                );
            }
            for w in probes.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                let expect = if lo > hi { 0..0 } else { bound(lo)..bound(hi + 1) };
                prop_assert_eq!(
                    idx.range(&mut g, lo, hi),
                    expect,
                    "{} range {}..={}",
                    idx.kind(),
                    lo,
                    hi
                );
            }
        }
    }
}
