//! Streaming probes against a maintained index.
//!
//! Two extensions beyond the paper's batch evaluation, built from its own
//! suggestions:
//!
//! 1. **Stream processing semantics** (§5.1): probe tuples are *pushed* in
//!    batches into a [`StreamingWindowJoin`]; every full window is
//!    partitioned and joined on the fly, holding only one window of state.
//! 2. **Index maintenance** (§6: "Harmonia is a good alternative if the
//!    index must support inserts and updates"): new keys are inserted into
//!    a B+tree between stream epochs — incrementally, with node splits —
//!    and become visible to the next epoch's probes.
//!
//! ```sh
//! cargo run --release --example streaming_updates
//! ```

use windex::prelude::*;
use windex_core::streams::StreamingWindowJoin;
use windex_core::WindowConfig;
use windex_index::{BPlusTree, BPlusTreeConfig};
use windex_join::ResultSink;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));

    // Start with even keys 0, 2, 4, … indexed in a B+tree with insert
    // headroom.
    let n = 1 << 16;
    let initial: Vec<u64> = (0..n as u64).map(|i| i * 2).collect();
    let column = gpu.alloc_host_from_vec(initial.clone());
    let mut tree = BPlusTree::build(
        &mut gpu,
        &column,
        BPlusTreeConfig {
            fill_factor: 0.7,
            spare_nodes: 4096,
            ..Default::default()
        },
    );
    println!(
        "built B+tree: {} keys, height {}, {} nodes",
        tree.len(),
        tree.height(),
        tree.node_count()
    );

    let bits = {
        let r = Relation::from_keys(initial.clone(), true);
        QueryExecutor::new().resolve_bits(&gpu, &r)
    };
    let cfg = WindowConfig {
        window_tuples: 1 << 10,
        bits,
        min_key: 0,
    };

    // Epoch 1: stream probes for even and odd keys; odd keys miss.
    let mut op = StreamingWindowJoin::new(&mut gpu, cfg)?;
    let mut sink = ResultSink::with_capacity(&mut gpu, 1 << 14, MemLocation::Gpu)?;
    let probes: Vec<(u64, u64)> = (0..1u64 << 13).map(|i| (i, i)).collect();
    for chunk in probes.chunks(700) {
        op.push(&mut gpu, &tree, chunk, &mut sink)?;
    }
    let epoch1 = op.finish(&mut gpu, &tree, &mut sink)?;
    println!(
        "epoch 1: {} windows, {} matches of {} probes (odd keys not indexed yet)",
        epoch1.windows,
        epoch1.matches,
        probes.len()
    );

    // Maintenance: insert the odd keys incrementally.
    let inserts = 1u64 << 12;
    for i in 0..inserts {
        tree.insert(i * 2 + 1, n as u64 + i)?;
    }
    println!(
        "inserted {} odd keys (tree now {} keys)",
        inserts,
        tree.len()
    );

    // Epoch 2: the same probe stream now matches the inserted keys too.
    op.reset();
    sink.clear();
    for chunk in probes.chunks(700) {
        op.push(&mut gpu, &tree, chunk, &mut sink)?;
    }
    let epoch2 = op.finish(&mut gpu, &tree, &mut sink)?;
    println!(
        "epoch 2: {} windows, {} matches (+{} from the inserts)",
        epoch2.windows,
        epoch2.matches,
        epoch2.matches - epoch1.matches
    );
    assert_eq!(epoch2.matches - epoch1.matches, inserts as usize);

    // For comparison: the same stream joined via the batched Harmonia path
    // (rebuild-style maintenance), using the high-level executor.
    let all_keys: Vec<u64> = {
        let mut k = initial;
        k.extend((0..inserts).map(|i| i * 2 + 1));
        k.sort_unstable();
        k
    };
    let r = Relation::from_keys(all_keys, true);
    let s = Relation::from_keys(probes.iter().map(|&(k, _)| k).collect(), false);
    let mut gpu2 = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
    let report = QueryExecutor::new().run(
        &mut gpu2,
        &r,
        &s,
        JoinStrategy::WindowedInlj {
            index: IndexKind::Harmonia,
            window_tuples: 1 << 10,
        },
    )?;
    println!(
        "harmonia cross-check: {} matches at {:.2} queries/s",
        report.result_tuples,
        report.queries_per_second()
    );
    assert_eq!(report.result_tuples, epoch2.matches);
    Ok(())
}
