//! Radix partitioner with software write-combining (SWWC) and a linear
//! allocator, after Stehle & Jacobsen (SIGMOD'17) — the algorithm the paper
//! picks "due to its high performance in GPU memory" (§4.3.1).
//!
//! The operator partitions a run of (key, rid) pairs from the probe stream
//! into a GPU-memory buffer ordered by partition:
//!
//! 1. **stage** — the input keys are streamed once across the interconnect
//!    into a GPU staging buffer (pairing each key with its rid);
//! 2. **histogram** — one GPU-memory pass counts keys per partition and a
//!    prefix sum assigns each partition a contiguous output region (the
//!    linear allocator);
//! 3. **scatter** — a second GPU-memory pass routes each pair through a
//!    per-partition write-combining buffer of one cacheline, which is
//!    flushed with a single coalesced write when full.
//!
//! Interconnect cost is therefore exactly one pass over the input, and all
//! device-memory writes are full cachelines — the properties that make SWWC
//! fast on real GPUs.

use crate::error::{with_join_retries, JoinError};
use crate::partition_bits::PartitionBits;
use windex_sim::{try_launch_kernel, Buffer, Gpu, MemLocation};

/// A reusable radix partitioner for (key, rid) pairs.
#[derive(Debug, Clone)]
pub struct RadixPartitioner {
    bits: PartitionBits,
    min_key: u64,
}

/// The result of partitioning one input run.
#[derive(Debug)]
pub struct Partitioned {
    /// Interleaved (key, rid) pairs in GPU memory, grouped by partition.
    pub pairs: Buffer<u64>,
    /// Exclusive prefix offsets: partition `p` occupies pair indices
    /// `offsets[p] .. offsets[p + 1]`.
    pub offsets: Vec<usize>,
}

impl Partitioned {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len() / 2
    }

    /// Whether the run was empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Release the pair buffer back to the device budget.
    pub fn free(self, gpu: &mut Gpu) {
        gpu.free(self.pairs);
    }
}

impl RadixPartitioner {
    /// Create a partitioner with the given bit range. `min_key` anchors the
    /// key domain (§4.2: the high bits shared by all keys carry no
    /// information).
    pub fn new(bits: PartitionBits, min_key: u64) -> Self {
        RadixPartitioner { bits, min_key }
    }

    /// The configured bit range.
    pub fn bits(&self) -> PartitionBits {
        self.bits
    }

    /// Partition `keys[range]` (a run of the CPU-resident probe stream) with
    /// rids equal to their absolute stream positions. Launches the staging
    /// and partitioning kernels and returns partition-ordered pairs in GPU
    /// memory. Device-allocation and injected-fault errors are surfaced
    /// after bounded retries (each kernel is idempotent, so retrying simply
    /// re-runs it); the staging buffer is always released.
    pub fn partition_stream(
        &self,
        gpu: &mut Gpu,
        keys: &Buffer<u64>,
        range: std::ops::Range<usize>,
    ) -> Result<Partitioned, JoinError> {
        let n = range.len();
        let p = self.bits.partitions();
        if n == 0 {
            return Ok(Partitioned {
                pairs: with_join_retries(gpu, |g| {
                    g.alloc(MemLocation::Gpu, 0).map_err(JoinError::from)
                })?,
                offsets: vec![0; p + 1],
            });
        }
        let line_pairs = (gpu.spec().cacheline_bytes as usize / 16).max(1);

        // --- stage: one interconnect pass, paired with rids in GPU memory.
        let mut staging: Buffer<u64> = with_join_retries(gpu, |g| {
            g.alloc(MemLocation::Gpu, n * 2).map_err(JoinError::from)
        })?;
        let staged = with_join_retries(gpu, |gpu| {
            try_launch_kernel(gpu, |gpu| {
                let start = range.start;
                let vals = keys.stream_read(gpu, start, n).to_vec();
                for (i, k) in vals.into_iter().enumerate() {
                    // Written as full lines by the staging kernel.
                    staging.host_mut()[i * 2] = k;
                    staging.host_mut()[i * 2 + 1] = (start + i) as u64;
                }
                gpu.stream_write(MemLocation::Gpu, staging.addr_of(0), (n * 16) as u64);
            })
            .map_err(JoinError::from)
        });
        if let Err(e) = staged {
            gpu.free(staging);
            return Err(e);
        }

        // --- histogram + prefix sum (linear allocator).
        let mut hist = vec![0usize; p];
        let counted = with_join_retries(gpu, |gpu| {
            hist.iter_mut().for_each(|h| *h = 0); // idempotent retries
            try_launch_kernel(gpu, |gpu| {
                gpu.stream_read(MemLocation::Gpu, staging.addr_of(0), (n * 16) as u64);
                for i in 0..n {
                    let key = staging.host()[i * 2];
                    hist[self.bits.partition_of(key, self.min_key)] += 1;
                }
                gpu.op(n as u64 / 32 + p as u64);
            })
            .map_err(JoinError::from)
        });
        if let Err(e) = counted {
            gpu.free(staging);
            return Err(e);
        }
        let mut offsets = vec![0usize; p + 1];
        for i in 0..p {
            offsets[i + 1] = offsets[i] + hist[i];
        }

        // --- scatter through per-partition write-combining buffers.
        let out: Result<Buffer<u64>, JoinError> = with_join_retries(gpu, |g| {
            g.alloc(MemLocation::Gpu, n * 2).map_err(JoinError::from)
        });
        let mut out = match out {
            Ok(b) => b,
            Err(e) => {
                gpu.free(staging);
                return Err(e);
            }
        };
        let scattered = with_join_retries(gpu, |gpu| {
            try_launch_kernel(gpu, |gpu| {
                gpu.stream_read(MemLocation::Gpu, staging.addr_of(0), (n * 16) as u64);
                let mut cursors = offsets[..p].to_vec();
                let mut wc: Vec<Vec<u64>> = vec![Vec::with_capacity(line_pairs * 2); p];
                for i in 0..n {
                    let key = staging.host()[i * 2];
                    let rid = staging.host()[i * 2 + 1];
                    let part = self.bits.partition_of(key, self.min_key);
                    let buf = &mut wc[part];
                    buf.push(key);
                    buf.push(rid);
                    if buf.len() == line_pairs * 2 {
                        // Flush one full cacheline with a coalesced write.
                        out.write_range(gpu, cursors[part] * 2, buf);
                        cursors[part] += line_pairs;
                        buf.clear();
                    }
                }
                // Flush the remaining partial lines.
                for (part, buf) in wc.iter_mut().enumerate() {
                    if !buf.is_empty() {
                        out.write_range(gpu, cursors[part] * 2, buf);
                        cursors[part] += buf.len() / 2;
                        buf.clear();
                    }
                }
                gpu.op(n as u64 / 32);
                debug_assert!(cursors.iter().zip(offsets[1..].iter()).all(|(c, o)| c == o));
            })
            .map_err(JoinError::from)
        });
        gpu.free(staging);
        if let Err(e) = scattered {
            gpu.free(out);
            return Err(e);
        }

        Ok(Partitioned {
            pairs: out,
            offsets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windex_sim::{GpuSpec, Scale};

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER))
    }

    fn keys_buffer(gpu: &mut Gpu, keys: Vec<u64>) -> Buffer<u64> {
        gpu.alloc_host_from_vec(keys)
    }

    #[test]
    fn partitions_are_contiguous_and_complete() {
        let mut g = gpu();
        let keys: Vec<u64> = (0..10_000u64).map(|i| (i * 7919) % 65536).collect();
        let buf = keys_buffer(&mut g, keys.clone());
        let bits = PartitionBits { shift: 4, bits: 6 };
        let part = RadixPartitioner::new(bits, 0);
        let out = part.partition_stream(&mut g, &buf, 0..keys.len()).unwrap();
        assert_eq!(out.len(), keys.len());
        assert_eq!(out.partitions(), 64);
        // Every pair is in its partition's region and rids map back.
        for p in 0..out.partitions() {
            for i in out.offsets[p]..out.offsets[p + 1] {
                let k = out.pairs.host()[i * 2];
                let rid = out.pairs.host()[i * 2 + 1] as usize;
                assert_eq!(bits.partition_of(k, 0), p);
                assert_eq!(keys[rid], k);
            }
        }
        // All rids present exactly once.
        let mut rids: Vec<u64> = (0..out.len())
            .map(|i| out.pairs.host()[i * 2 + 1])
            .collect();
        rids.sort_unstable();
        assert!(rids.iter().enumerate().all(|(i, &r)| r == i as u64));
    }

    #[test]
    fn range_offsets_use_absolute_rids() {
        let mut g = gpu();
        let keys: Vec<u64> = (0..1000u64).collect();
        let buf = keys_buffer(&mut g, keys);
        let part = RadixPartitioner::new(PartitionBits { shift: 0, bits: 4 }, 0);
        let out = part.partition_stream(&mut g, &buf, 500..600).unwrap();
        assert_eq!(out.len(), 100);
        for i in 0..out.len() {
            let rid = out.pairs.host()[i * 2 + 1];
            assert!((500..600).contains(&(rid as usize)));
        }
    }

    #[test]
    fn one_interconnect_pass_only() {
        let mut g = gpu();
        let n = 50_000;
        let keys: Vec<u64> = (0..n as u64).map(|i| i * 3).collect();
        let buf = keys_buffer(&mut g, keys);
        let part = RadixPartitioner::new(PartitionBits::paper_default(), 0);
        let before = g.snapshot();
        let _ = part.partition_stream(&mut g, &buf, 0..n).unwrap();
        let d = g.snapshot() - before;
        assert_eq!(d.ic_bytes_streamed, n as u64 * 8, "exactly one input pass");
        assert_eq!(d.ic_bytes_random, 0);
        // Device traffic: stage write + 2 passes + scatter write ≈ 4–5
        // pair-buffer passes.
        assert!(d.gpu_bytes_written >= 2 * n as u64 * 16);
        assert_eq!(d.kernel_launches, 3);
    }

    #[test]
    fn empty_run() {
        let mut g = gpu();
        let buf = keys_buffer(&mut g, vec![1, 2, 3]);
        let part = RadixPartitioner::new(PartitionBits::paper_default(), 0);
        let out = part.partition_stream(&mut g, &buf, 1..1).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.offsets.last(), Some(&0));
    }

    #[test]
    fn single_partition_degenerate() {
        let mut g = gpu();
        let keys = vec![5u64, 6, 7, 8];
        let buf = keys_buffer(&mut g, keys.clone());
        // All keys share the partition when shift swallows the domain.
        let part = RadixPartitioner::new(PartitionBits { shift: 32, bits: 1 }, 0);
        let out = part.partition_stream(&mut g, &buf, 0..4).unwrap();
        assert_eq!(out.offsets, vec![0, 4, 4]);
        // SWWC preserves arrival order within a partition.
        let got: Vec<u64> = (0..4).map(|i| out.pairs.host()[i * 2]).collect();
        assert_eq!(got, keys);
    }
}
