//! Index fits stored on a shared column are invisible to the simulation.
//!
//! RadixSpline, Harmonia and the B+tree store their host-side fit on the
//! staged column (`Buffer::derived`), so a build over a column that another
//! thread already fitted skips the fit. These tests pin that reusing a fit
//! changes wall time only: buffer addresses, counters and lookup answers
//! equal a cold build over a fresh copy of the keys on a fresh `Gpu`, for
//! every config, under a racing first fit and after maintenance on a tree
//! built from the fit, and the artifacts die with the column.

use std::rc::Rc;
use std::sync::{Arc, Barrier};
use windex_index::{
    BPlusTree, BPlusTreeConfig, Harmonia, HarmoniaConfig, OutOfCoreIndex, RadixSpline,
    RadixSplineConfig,
};
use windex_sim::{Counters, Gpu, GpuSpec, Scale, WARP_SIZE};
use windex_workload::{KeyDistribution, Relation};

#[derive(Debug, Clone, Copy)]
enum Config {
    RadixSpline(RadixSplineConfig),
    Harmonia(HarmoniaConfig),
    BPlusTree(BPlusTreeConfig),
}

/// A small-node B+tree with insert headroom.
const SMALL_TREE: BPlusTreeConfig = BPlusTreeConfig {
    node_bytes: 256,
    fill_factor: 0.7,
    spare_nodes: 8,
};

fn configs() -> [Config; 6] {
    [
        Config::RadixSpline(RadixSplineConfig::default()),
        Config::RadixSpline(RadixSplineConfig {
            max_error: 4,
            radix_bits: Some(10),
        }),
        Config::Harmonia(HarmoniaConfig {
            keys_per_node: 16,
            ..HarmoniaConfig::default()
        }),
        Config::Harmonia(HarmoniaConfig {
            keys_per_node: 32,
            ..HarmoniaConfig::default()
        }),
        Config::BPlusTree(BPlusTreeConfig::default()),
        Config::BPlusTree(SMALL_TREE),
    ]
}

/// Everything a build and a fixed lookup batch let the simulation see.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Base of the staged column and of a fence allocated after the build
    /// (the bump allocator makes it a function of every build allocation).
    bases: (u64, u64),
    after_build: Counters,
    after_lookups: Counters,
    answers: Vec<Option<u64>>,
}

fn relation() -> Relation {
    Relation::unique_sorted(20_000, KeyDistribution::SparseUniform, 5)
}

/// Stage `r` on a fresh `Gpu`, build `config` over it, and run a fixed
/// batch of present and absent keys.
fn observe(r: &Relation, config: Config) -> Observed {
    let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
    let col = Rc::new(gpu.alloc_host_shared(r.keys_shared()));
    let index: Box<dyn OutOfCoreIndex> = match config {
        Config::RadixSpline(c) => Box::new(RadixSpline::build(&mut gpu, Rc::clone(&col), c)),
        Config::Harmonia(c) => Box::new(Harmonia::build(&mut gpu, &col, c)),
        Config::BPlusTree(c) => Box::new(BPlusTree::build(&mut gpu, &col, c)),
    };
    let fence = gpu.alloc_host::<u64>(1).base_addr();
    let after_build = gpu.snapshot();
    let keys: Vec<u64> = r
        .keys()
        .iter()
        .step_by(97)
        .flat_map(|&k| [k, k + 1])
        .collect();
    let mut answers = vec![None; keys.len()];
    for (warp, out) in keys.chunks(WARP_SIZE).zip(answers.chunks_mut(WARP_SIZE)) {
        index.lookup_warp(&mut gpu, warp, out);
    }
    Observed {
        bases: (col.base_addr(), fence),
        after_build,
        after_lookups: gpu.snapshot(),
        answers,
    }
}

/// A cold build: a fresh copy of the keys has an empty memo.
fn cold(r: &Relation, config: Config) -> Observed {
    observe(&Relation::from_keys(r.keys().to_vec(), true), config)
}

#[test]
fn fit_from_another_thread_equals_a_cold_build() {
    for config in configs() {
        let r = relation();
        let fitted = std::thread::scope(|s| s.spawn(|| observe(&r, config)).join().unwrap());
        assert_eq!(
            r.keys_shared().derived_len(),
            1,
            "{config:?}: one stored fit"
        );
        let warm = observe(&r, config);
        assert_eq!(
            r.keys_shared().derived_len(),
            1,
            "{config:?}: reused, not refitted"
        );
        let cold = cold(&r, config);
        assert!(cold.answers.iter().any(Option::is_some), "{config:?}");
        assert_eq!(warm, cold, "{config:?}: warm build differs from cold");
        assert_eq!(fitted, cold, "{config:?}: first build differs from cold");
    }
}

#[test]
fn second_config_on_a_fitted_column_equals_its_own_cold_build() {
    let [rs_default, rs_tight, h16, h32, bt_default, bt_small] = configs();
    for (first, second) in [(rs_default, rs_tight), (h32, h16), (bt_default, bt_small)] {
        let r = relation();
        observe(&r, first);
        let warm = observe(&r, second);
        assert_eq!(r.keys_shared().derived_len(), 2, "{second:?}: own fit");
        assert_eq!(warm, cold(&r, second), "{second:?} after {first:?}");
    }
}

#[test]
fn four_threads_fitting_one_fresh_column_agree() {
    for config in configs() {
        let r = relation();
        let start = Barrier::new(4);
        let seen: Vec<Observed> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        observe(&r, config)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let cold = cold(&r, config);
        for o in &seen {
            assert_eq!(*o, cold, "{config:?}");
        }
        assert_eq!(r.keys_shared().derived_len(), 1, "{config:?}: one fit kept");
    }
}

#[test]
fn maintenance_on_a_fitted_tree_leaves_the_fit_alone() {
    let r = relation();
    let keys = r.keys();
    let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
    let col = gpu.alloc_host_shared(r.keys_shared());
    let mut tree = BPlusTree::build(&mut gpu, &col, SMALL_TREE);
    // Keys absent from `r`, and keys to delete from it.
    let fresh: Vec<u64> = keys
        .windows(2)
        .filter(|w| w[1] > w[0] + 1)
        .map(|w| w[0] + 1)
        .step_by(53)
        .take(40)
        .collect();
    let gone: Vec<u64> = keys.iter().step_by(101).take(40).copied().collect();
    for (rid, &k) in (1_000_000..).zip(&fresh) {
        tree.insert(k, rid).unwrap();
    }
    for &k in &gone {
        tree.remove(k).unwrap();
    }
    assert_eq!(r.keys_shared().derived_len(), 1, "one stored fit");

    let config = Config::BPlusTree(SMALL_TREE);
    assert_eq!(
        observe(&r, config),
        cold(&r, config),
        "a build after maintenance differs from cold"
    );
    assert_eq!(r.keys_shared().derived_len(), 1, "reused, not refitted");
    assert_eq!(tree.len(), keys.len() + fresh.len() - gone.len());
    for (rid, &k) in (1_000_000..).zip(&fresh) {
        assert_eq!(tree.lookup(&mut gpu, k), Some(rid), "inserted {k}");
    }
    for &k in &gone {
        assert_eq!(tree.lookup(&mut gpu, k), None, "removed {k}");
    }
}

#[test]
fn dropping_the_last_column_handle_frees_its_artifacts() {
    struct Marker;
    let r = relation();
    for config in configs() {
        observe(&r, config);
    }
    // The index fits share one memo with this marker, so the marker's
    // lifetime is theirs.
    let marker = Arc::downgrade(&r.keys_shared().derived((), |_| Marker));
    assert_eq!(r.keys_shared().derived_len(), configs().len() + 1);
    let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
    let staged = gpu.alloc_host_shared(r.keys_shared());
    drop(r);
    assert!(
        marker.upgrade().is_some(),
        "a staged buffer keeps the column"
    );
    drop(staged);
    assert!(
        marker.upgrade().is_none(),
        "artifacts outlived their column"
    );
}
