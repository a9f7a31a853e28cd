//! Reference-model oracle for the engine's line walk.
//!
//! `equivalence.rs` compares the engine's read paths with each other; since
//! they share one line-walk kernel, a kernel bug would pass it. This suite
//! compares every read path — queued single reads, drained by the queue
//! bound and by observations, the same reads accounted on a helper thread
//! (forced by the engine's test hook), and the batch entry point — with an
//! independent model written from the
//! accounting rules: stamp-based LRU for L1, L2 and the TLB, and the
//! per-line counter rules (L1 hit, L2 hit, device-memory read, or a remote
//! line with a TLB lookup whose misses split into sweep and thrash).

use std::collections::HashMap;
use windex_sim::{Buffer, Counters, Gpu, GpuSpec, MemLocation, Scale};

/// Re-miss distance (line accesses) separating a thrashing TLB re-miss from
/// a periodic sweep miss; the engine's constant.
const THRASH_DISTANCE: u64 = 2048;

/// The engine's set-selection hash.
fn hash_of(tag: u64) -> u64 {
    tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

/// Classic set-associative LRU with per-way access stamps.
struct StampLru {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    sets: usize,
    assoc: usize,
    clock: u64,
}

impl StampLru {
    /// The engine's normalized geometry for `entries` ways of `assoc`.
    fn new(entries: usize, assoc: usize) -> Self {
        let entries = entries.max(1);
        let assoc = assoc.clamp(1, entries);
        let entries = entries - entries % assoc;
        StampLru {
            tags: vec![u64::MAX; entries],
            stamps: vec![0; entries],
            sets: entries / assoc,
            assoc,
            clock: 0,
        }
    }

    fn access(&mut self, tag: u64) -> bool {
        self.clock += 1;
        let base = (hash_of(tag) as usize % self.sets) * self.assoc;
        let ways = base..base + self.assoc;
        if let Some(i) = ways.clone().find(|&i| self.tags[i] == tag) {
            self.stamps[i] = self.clock;
            return true;
        }
        let victim = ways.min_by_key(|&i| self.stamps[i]).unwrap();
        self.tags[victim] = tag;
        self.stamps[victim] = self.clock;
        false
    }

    fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
    }
}

/// The accounting rules of one cacheline read, applied to the model state.
struct Model {
    l1: StampLru,
    l2: StampLru,
    tlb: StampLru,
    line_bytes: u64,
    page_bytes: u64,
    clock: u64,
    last_miss: HashMap<u64, u64>,
    c: Counters,
}

impl Model {
    fn new(spec: &GpuSpec) -> Self {
        let line = spec.cacheline_bytes;
        Model {
            l1: StampLru::new((spec.l1_bytes / line) as usize, spec.l1_assoc),
            l2: StampLru::new((spec.l2_bytes / line) as usize, spec.l2_assoc),
            tlb: StampLru::new(spec.tlb_entries, spec.tlb_assoc),
            line_bytes: line,
            page_bytes: spec.page_bytes,
            clock: 0,
            last_miss: HashMap::new(),
            c: Counters::default(),
        }
    }

    fn read(&mut self, loc: MemLocation, addr: u64, bytes: u64) {
        for line in addr / self.line_bytes..=(addr + bytes - 1) / self.line_bytes {
            self.clock += 1;
            if self.l1.access(line) {
                self.c.l1_hits += 1;
                continue;
            }
            self.c.l1_misses += 1;
            if self.l2.access(line) {
                self.c.l2_hits += 1;
                continue;
            }
            self.c.l2_misses += 1;
            match loc {
                MemLocation::Gpu => self.c.gpu_bytes_read += self.line_bytes,
                MemLocation::Cpu => {
                    let page = line * self.line_bytes / self.page_bytes;
                    if self.tlb.access(page) {
                        self.c.tlb_hits += 1;
                    } else {
                        self.c.tlb_misses += 1;
                        let sweep = self
                            .last_miss
                            .insert(page, self.clock)
                            .is_none_or(|last| self.clock - last > THRASH_DISTANCE);
                        if sweep {
                            self.c.tlb_sweep_misses += 1;
                        }
                    }
                    self.c.ic_lines_random += 1;
                    self.c.ic_bytes_random += self.line_bytes;
                }
            }
        }
    }

    fn reset(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.tlb.flush();
        self.last_miss.clear();
    }
}

/// One step of a generated stream: a run of same-width reads of one
/// buffer, or a memory-system reset.
enum Step {
    Reads {
        gpu_side: bool,
        width: usize,
        starts: Vec<usize>,
    },
    Reset,
}

/// Elements per buffer: 64 pages of 4 KiB, twice the TLB's reach.
const ELEMS: usize = 64 * 4096 / 8;

/// The V100 preset with 4 KiB pages, so a small buffer spans many pages
/// and the TLB thrashes, and a 48 KiB L2 (24 sets, a non-power-of-two set
/// count) that holds more than the L1, so L2 hits occur.
fn spec() -> GpuSpec {
    let mut spec = GpuSpec::v100_nvlink2(Scale::PAPER);
    spec.page_bytes = 4096;
    spec.l2_bytes = 48 << 10;
    spec
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A seeded stream mixing a hot region (L1/L2 and TLB hits, repeated
/// lines), uniform reads (TLB thrash) and occasional resets, each followed
/// by a re-read of the last element read before it (a flushed line must
/// miss again, even when it was the last line read). Widths are up to 32 elements, so reads
/// straddle lines and pages.
fn stream(seed: u64, steps: usize) -> Vec<Step> {
    let mut x = seed | 1;
    let mut out: Vec<Step> = Vec::with_capacity(steps);
    while out.len() < steps {
        let r = xorshift(&mut x);
        if r.is_multiple_of(97) {
            if let Some(Step::Reads {
                gpu_side,
                width,
                starts,
            }) = out.last()
            {
                // The last element read: its line is the last line read.
                let again = Step::Reads {
                    gpu_side: *gpu_side,
                    width: 1,
                    starts: vec![starts[starts.len() - 1] + width - 1],
                };
                out.push(Step::Reset);
                out.push(again);
            }
            continue;
        }
        let width = [1usize, 2, 2, 4, 16, 32][(r >> 8) as usize % 6];
        let runs = 1 + (r >> 16) as usize % 40;
        let hot = !(r >> 24).is_multiple_of(3);
        let starts = (0..runs)
            .map(|_| {
                let v = xorshift(&mut x) as usize;
                let span = if hot { 4096 } else { ELEMS - 32 };
                v % span
            })
            .collect();
        out.push(Step::Reads {
            gpu_side: (r >> 32).is_multiple_of(2),
            width,
            starts,
        });
    }
    out
}

/// How a run of reads reaches the engine.
#[derive(Clone, Copy, Debug)]
enum Path {
    Queued,
    /// Queued, with the accountant forced onto a helper thread.
    Helper,
    Batch,
}

/// Drive `steps` through `path` and return the engine's counters.
fn run_engine(path: Path, steps: &[Step]) -> Counters {
    let mut gpu = Gpu::new(spec());
    let dev: Buffer<u64> = gpu.alloc(MemLocation::Gpu, ELEMS).unwrap();
    let host: Buffer<u64> = gpu.alloc_host(ELEMS);
    if let Path::Helper = path {
        // Blocks of 7 records: runs cross blocks at odd offsets.
        gpu.force_helper_accounting(7);
    }
    for (k, step) in steps.iter().enumerate() {
        match step {
            Step::Reset => gpu.reset_memory_system(),
            Step::Reads {
                gpu_side,
                width,
                starts,
            } => {
                let buf = if *gpu_side { &dev } else { &host };
                match path {
                    Path::Queued | Path::Helper => {
                        for &i in starts {
                            buf.read_range(&mut gpu, i, *width);
                        }
                        // Observe every few runs so one drain mixes both
                        // buffers and several widths.
                        if k % 3 == 0 {
                            gpu.counters();
                        }
                    }
                    Path::Batch => buf.read_batch(&mut gpu, starts, *width),
                }
            }
        }
    }
    let c = gpu.counters();
    if let Path::Helper = path {
        assert!(gpu.helper_episodes() > 0, "the helper path ran inline");
    }
    c
}

/// The model's counters for the same stream over the same addresses.
fn run_model(steps: &[Step]) -> Counters {
    let spec = spec();
    // Mirror the engine's bump allocator: the zero page is reserved and
    // every buffer is page-aligned.
    let bytes = (ELEMS * 8) as u64;
    let dev_base = spec.page_bytes;
    let host_base = dev_base + bytes.div_ceil(spec.page_bytes) * spec.page_bytes;
    let mut model = Model::new(&spec);
    for step in steps {
        match step {
            Step::Reset => model.reset(),
            Step::Reads {
                gpu_side,
                width,
                starts,
            } => {
                let (loc, base) = if *gpu_side {
                    (MemLocation::Gpu, dev_base)
                } else {
                    (MemLocation::Cpu, host_base)
                };
                for &i in starts {
                    model.read(loc, base + (i * 8) as u64, (*width * 8) as u64);
                }
            }
        }
    }
    model.c
}

#[test]
fn every_read_path_matches_the_reference_model() {
    for seed in [1u64, 42, 7919, 0xDEAD_BEEF] {
        let steps = stream(seed, 600);
        let expected = run_model(&steps);
        assert!(expected.tlb_sweep_misses > 0, "stream must sweep pages");
        assert!(
            expected.tlb_misses > expected.tlb_sweep_misses,
            "stream must thrash the TLB"
        );
        assert!(expected.l2_hits > 0 && expected.gpu_bytes_read > 0);
        for path in [Path::Queued, Path::Helper, Path::Batch] {
            assert_eq!(
                run_engine(path, &steps),
                expected,
                "{path:?} path diverged from the reference model (seed {seed})"
            );
        }
    }
}

#[test]
fn single_line_reads_match_the_reference_model() {
    // One-element reads only: every access is exactly one line, so the
    // repeated-line short cut and the page-stamp clock are exercised
    // without multi-line spans masking an off-by-one.
    let mut x = 0x5EEDu64;
    let steps: Vec<Step> = (0..400)
        .map(|_| {
            let r = xorshift(&mut x);
            Step::Reads {
                gpu_side: r.is_multiple_of(4),
                width: 1,
                starts: (0..1 + r as usize % 8)
                    .map(|_| {
                        let v = xorshift(&mut x) as usize;
                        if v.is_multiple_of(2) {
                            v % 64
                        } else {
                            v % (ELEMS - 1)
                        }
                    })
                    .collect(),
            }
        })
        .collect();
    let expected = run_model(&steps);
    for path in [Path::Queued, Path::Helper, Path::Batch] {
        assert_eq!(run_engine(path, &steps), expected, "{path:?}");
    }
}
