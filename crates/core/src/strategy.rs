//! Join strategies and index construction.
//!
//! A [`JoinStrategy`] names one of the paper's execution plans; the query
//! engine builds the required index (pre-query work, §3.2: "we assume the
//! index already exists when the query is run") and runs the plan with
//! every device-side access counted.

use std::rc::Rc;
use windex_index::{
    BPlusTree, BPlusTreeConfig, BinarySearchIndex, Harmonia, HarmoniaConfig, IndexKind,
    OutOfCoreIndex, RadixSpline, RadixSplineConfig,
};
use windex_sim::{Buffer, Gpu};

/// The execution plans evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
pub enum JoinStrategy {
    /// Baseline: WarpCore-style hash join, built on the smaller relation on
    /// the fly, probing with a full scan of the larger one (§3.2).
    HashJoin,
    /// Unpartitioned INLJ over the given index (§3.3, Fig. 3).
    Inlj {
        /// Index structure probed in the inner loop.
        index: IndexKind,
    },
    /// INLJ with the probe keys fully radix-partitioned (materialized)
    /// ahead of the join (§4.3, Fig. 5).
    PartitionedInlj {
        /// Index structure probed in the inner loop.
        index: IndexKind,
    },
    /// The paper's contribution: INLJ over tumbling partitioning windows —
    /// no input materialization (§5, Figs. 7–9).
    WindowedInlj {
        /// Index structure probed in the inner loop.
        index: IndexKind,
        /// Window capacity in probe tuples.
        window_tuples: usize,
    },
}

impl JoinStrategy {
    /// The index kind this strategy probes, if any.
    pub fn index_kind(&self) -> Option<IndexKind> {
        match self {
            JoinStrategy::HashJoin => None,
            JoinStrategy::Inlj { index }
            | JoinStrategy::PartitionedInlj { index }
            | JoinStrategy::WindowedInlj { index, .. } => Some(*index),
        }
    }

    /// Short display label, e.g. `"windowed-inlj(radix-spline)"`.
    pub fn label(&self) -> String {
        match self {
            JoinStrategy::HashJoin => "hash-join".to_string(),
            JoinStrategy::Inlj { index } => format!("inlj({index})"),
            JoinStrategy::PartitionedInlj { index } => format!("partitioned-inlj({index})"),
            JoinStrategy::WindowedInlj {
                index,
                window_tuples,
            } => {
                format!("windowed-inlj({index}, w={window_tuples})")
            }
        }
    }
}

impl std::fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Per-index build parameters (paper defaults, §3.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexConfigs {
    /// B+tree: 4 KiB nodes.
    pub btree: BPlusTreeConfig,
    /// Harmonia: 32 keys per node, sub-warps of 8 lanes.
    pub harmonia: HarmoniaConfig,
    /// RadixSpline: ε = 32, auto radix bits.
    pub radix_spline: RadixSplineConfig,
}

/// One constructed index of any kind.
#[derive(Debug)]
pub enum BuiltIndex {
    /// Binary search (no auxiliary structure).
    BinarySearch(BinarySearchIndex),
    /// 4 KiB-node B+tree.
    BPlusTree(BPlusTree),
    /// Harmonia.
    Harmonia(Harmonia),
    /// RadixSpline.
    RadixSpline(RadixSpline),
}

impl BuiltIndex {
    /// Build an index of `kind` over the CPU-resident sorted column.
    pub fn build(
        gpu: &mut Gpu,
        kind: IndexKind,
        column: &Rc<Buffer<u64>>,
        configs: &IndexConfigs,
    ) -> Self {
        match kind {
            IndexKind::BinarySearch => {
                BuiltIndex::BinarySearch(BinarySearchIndex::new(Rc::clone(column)))
            }
            IndexKind::BPlusTree => {
                BuiltIndex::BPlusTree(BPlusTree::build(gpu, column, configs.btree))
            }
            IndexKind::Harmonia => {
                BuiltIndex::Harmonia(Harmonia::build(gpu, column, configs.harmonia))
            }
            IndexKind::RadixSpline => BuiltIndex::RadixSpline(RadixSpline::build(
                gpu,
                Rc::clone(column),
                configs.radix_spline,
            )),
        }
    }

    /// Trait-object view for the join operators.
    pub fn as_dyn(&self) -> &dyn OutOfCoreIndex {
        match self {
            BuiltIndex::BinarySearch(i) => i,
            BuiltIndex::BPlusTree(i) => i,
            BuiltIndex::Harmonia(i) => i,
            BuiltIndex::RadixSpline(i) => i,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windex_sim::{GpuSpec, Scale};

    #[test]
    fn builds_all_kinds_and_answers_lookups() {
        let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
        let keys: Vec<u64> = (0..5000u64).map(|i| i * 2 + 1).collect();
        let col = Rc::new(gpu.alloc_host_from_vec(keys.clone()));
        for kind in IndexKind::all() {
            let idx = BuiltIndex::build(&mut gpu, kind, &col, &IndexConfigs::default());
            let d = idx.as_dyn();
            assert_eq!(d.kind(), kind);
            assert_eq!(d.len(), 5000);
            assert_eq!(d.lookup(&mut gpu, keys[123]), Some(123), "{kind}");
            assert_eq!(d.lookup(&mut gpu, 0), None, "{kind}");
        }
    }

    #[test]
    fn labels_round_trip() {
        assert_eq!(JoinStrategy::HashJoin.label(), "hash-join");
        assert_eq!(
            JoinStrategy::Inlj {
                index: IndexKind::Harmonia
            }
            .label(),
            "inlj(harmonia)"
        );
        assert!(JoinStrategy::WindowedInlj {
            index: IndexKind::RadixSpline,
            window_tuples: 4096
        }
        .label()
        .contains("w=4096"));
    }

    #[test]
    fn strategy_index_kind() {
        assert_eq!(JoinStrategy::HashJoin.index_kind(), None);
        assert_eq!(
            JoinStrategy::PartitionedInlj {
                index: IndexKind::BPlusTree
            }
            .index_kind(),
            Some(IndexKind::BPlusTree)
        );
    }
}
