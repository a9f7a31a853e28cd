//! RadixSpline: a single-pass learned index over a sorted array (Kipf et
//! al., aiDM@SIGMOD'20; §2.2 of the paper).
//!
//! The build fits a *greedy spline corridor* over the (key → position)
//! function with a bounded maximum error ε, and lays a radix table over the
//! most significant key bits pointing into the spline-point array. A lookup
//!
//! 1. reads the two radix-table cells bracketing the key's prefix,
//! 2. binary-searches the (short) spline-point range for the key's segment,
//! 3. interpolates the two bracketing spline points, and
//! 4. binary-searches the base relation within `±(ε+1)` of the estimate.
//!
//! Per key this touches only a handful of cachelines in three compact
//! regions (table, spline, data window) — the fewest of the four structures
//! — which is why the paper finds the RadixSpline fastest once partitioning
//! removes TLB thrashing (§6 recommends it at 1.1–1.8× over Harmonia).
//!
//! The four steps are written once, as the per-lane step: `lookup_warp`
//! hands it to `lockstep` and then verifies the lower-bound slot, and
//! `lower_bound` drives one lane of it in a plain loop and returns the
//! position. The interpolation is one helper for the device and the host.

use crate::traits::{IndexKind, OutOfCoreIndex};
use std::rc::Rc;
use windex_sim::{lockstep, Buffer, Gpu, SharedColumn, WARP_SIZE};

/// Host-side build artifacts: a pure function of (key column, config).
///
/// Fitting the corridor and measuring its observed error are by far the
/// dominant build cost (two O(n) passes over the column), so a build over
/// a staged shared column stores them on the column (see
/// [`Buffer::derived`]): every later build with the same config, on any
/// thread, reuses them.
struct FitArtifacts {
    spline: SharedColumn<u64>,
    radix_table: SharedColumn<u64>,
    min_key: u64,
    max_key: u64,
    shift: u32,
    radix_bits: u32,
    lookup_error: usize,
}

impl FitArtifacts {
    fn fit(keys: &[u64], config: RadixSplineConfig) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        let n = keys.len();
        let min_key = keys.first().copied().unwrap_or(0);
        let max_key = keys.last().copied().unwrap_or(0);

        let spline_pts = greedy_spline_corridor(keys, config.max_error as f64);
        let lookup_error = observed_max_error(keys, &spline_pts).ceil() as usize;

        // Radix table geometry.
        let radix_bits = config.radix_bits.unwrap_or_else(|| {
            let lg = (n.max(2) as f64).log2().floor() as u32;
            lg.saturating_sub(2).clamp(1, 24)
        });
        let domain = max_key - min_key;
        let domain_bits = 64 - domain.leading_zeros();
        let shift = domain_bits.saturating_sub(radix_bits);

        let cells = (1usize << radix_bits) + 1;
        // table[p] = first spline index whose prefix >= p. Built in one
        // append-only pass (each cell is written exactly once) instead of a
        // full default fill followed by a second overwrite pass — the table
        // is megabytes at high bit counts and the double write was ~half
        // the non-spline build cost.
        let mut table = Vec::with_capacity(cells);
        for (i, &(k, _)) in spline_pts.iter().enumerate() {
            let p = ((k - min_key) >> shift) as usize;
            while table.len() <= p {
                table.push(i as u64);
            }
        }
        // Remaining cells (prefixes beyond the last spline key) get len().
        table.resize(cells, spline_pts.len() as u64);

        let mut interleaved = Vec::with_capacity(spline_pts.len() * 2);
        for &(k, p) in &spline_pts {
            interleaved.push(k);
            interleaved.push(p);
        }

        FitArtifacts {
            spline: interleaved.into(),
            radix_table: table.into(),
            min_key,
            max_key,
            shift,
            radix_bits,
            lookup_error,
        }
    }
}

/// RadixSpline tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct RadixSplineConfig {
    /// Maximum interpolation error ε, in tuples.
    pub max_error: usize,
    /// Radix-table bits; `None` picks `log2(n) - 2` clamped to `[1, 24]`.
    pub radix_bits: Option<u32>,
}

impl Default for RadixSplineConfig {
    fn default() -> Self {
        RadixSplineConfig {
            max_error: 32,
            radix_bits: None,
        }
    }
}

/// A built RadixSpline over an out-of-core sorted column.
#[derive(Debug)]
pub struct RadixSpline {
    /// The sorted base relation (shared with the caller).
    data: Rc<Buffer<u64>>,
    /// Interleaved spline points: `[key0, pos0, key1, pos1, …]`, so one
    /// point sits in one cacheline-adjacent pair.
    spline: Buffer<u64>,
    /// `2^bits + 1` entries mapping a key prefix to the index of the first
    /// spline point with that prefix or a larger one.
    radix_table: Buffer<u64>,
    min_key: u64,
    max_key: u64,
    shift: u32,
    radix_bits: u32,
    max_error: usize,
    /// The error bound actually used by lookups: the *observed* maximum
    /// interpolation error of the built spline (≤ the configured ε). For
    /// dense keys the spline is exact and this collapses to 0, making the
    /// bounded search a single-cacheline probe — the reason the paper's
    /// learned index wins on its workload.
    lookup_error: usize,
}

impl RadixSpline {
    /// Build over `data` (sorted ascending, unique). Single pass, host-side
    /// (index construction is pre-query work, §3.2).
    ///
    /// The fit is the column's derived artifact for this config, and
    /// `alloc_host_shared` assigns addresses and accounts like
    /// `alloc_host_from_vec`, so reusing a fit changes wall time only.
    pub fn build(gpu: &mut Gpu, data: Rc<Buffer<u64>>, config: RadixSplineConfig) -> Self {
        assert!(config.max_error >= 1);
        let art = data.derived((config.max_error, config.radix_bits), |keys| {
            FitArtifacts::fit(keys, config)
        });
        RadixSpline {
            data,
            spline: gpu.alloc_host_shared(art.spline.clone()),
            radix_table: gpu.alloc_host_shared(art.radix_table.clone()),
            min_key: art.min_key,
            max_key: art.max_key,
            shift: art.shift,
            radix_bits: art.radix_bits,
            max_error: config.max_error,
            lookup_error: art.lookup_error,
        }
    }

    /// Number of spline points.
    pub fn spline_points(&self) -> usize {
        self.spline.len() / 2
    }

    /// Radix-table bits in use.
    pub fn radix_bits(&self) -> u32 {
        self.radix_bits
    }

    /// Maximum interpolation error ε (build-time corridor width).
    pub fn max_error(&self) -> usize {
        self.max_error
    }

    /// Observed maximum interpolation error of the built spline (the bound
    /// lookups actually search; 0 for perfectly linear data).
    pub fn lookup_error(&self) -> usize {
        self.lookup_error
    }

    /// The shared base column.
    pub fn data(&self) -> &Rc<Buffer<u64>> {
        &self.data
    }

    /// Host-side error validation: max |predicted − true| over all keys
    /// (tests; O(n log s)).
    pub fn max_observed_error_host(&self) -> f64 {
        let s = self.spline.host();
        let points: Vec<&[u64]> = s.chunks_exact(2).collect();
        let mut worst: f64 = 0.0;
        for (i, &key) in self.data.host().iter().enumerate() {
            // The first spline point with key >= `key` ends the segment.
            let seg_end = points.partition_point(|p| p[0] < key);
            let est = interpolate(&s[segment_slots(seg_end, points.len())], key);
            worst = worst.max((est - i as f64).abs());
        }
        worst
    }

    /// One round of a lane's lookup (see [`Phase`]); at `Bound` it returns
    /// the lower-bound position without a read.
    #[inline(always)]
    fn step(&self, gpu: &mut Gpu, lane: &mut Lane) -> Option<u64> {
        lane.phase = match lane.phase {
            Phase::Radix => {
                let p = ((lane.key - self.min_key) >> self.shift) as usize;
                let cells = self.radix_table.read_range(gpu, p, 2);
                Phase::SplineSearch {
                    lo: cells[0],
                    hi: cells[1],
                }
            }
            Phase::SplineSearch { lo, hi } if lo < hi => {
                let mid = lo + (hi - lo) / 2;
                if self.spline.read(gpu, (mid * 2) as usize) < lane.key {
                    Phase::SplineSearch { lo: mid + 1, hi }
                } else {
                    Phase::SplineSearch { lo, hi: mid }
                }
            }
            Phase::SplineSearch { lo, .. } => Phase::Interpolate { seg_end: lo },
            Phase::Interpolate { seg_end } => {
                // Fetch the bracketing points (coalesced: 2–4 adjacent u64
                // slots) and compute the search window.
                let slots = segment_slots(seg_end as usize, self.spline_points());
                let est = interpolate(
                    self.spline.read_range(gpu, slots.start, slots.len()),
                    lane.key,
                );
                gpu.op(1);
                let e = self.lookup_error as f64 + 1.0;
                Phase::DataSearch {
                    lo: (est - e).max(0.0) as u64,
                    hi: ((est + e) as u64 + 1).min(self.data.len() as u64),
                }
            }
            Phase::DataSearch { lo, hi } if lo < hi => {
                let mid = lo + (hi - lo) / 2;
                if self.data.read(gpu, mid as usize) < lane.key {
                    Phase::DataSearch { lo: mid + 1, hi }
                } else {
                    Phase::DataSearch { lo, hi: mid }
                }
            }
            Phase::DataSearch { lo, .. } => Phase::Bound { pos: lo },
            Phase::Bound { pos } => return Some(pos),
        };
        None
    }
}

/// The interleaved spline slots that estimate a key's position when its
/// segment ends at point `seg_end` (the first point with key ≥ the lookup
/// key): both bracketing points, or the one clamping point outside the
/// spline's key range.
fn segment_slots(seg_end: usize, pts: usize) -> std::ops::Range<usize> {
    if seg_end == 0 {
        0..2 // key <= first spline key
    } else if seg_end >= pts {
        (pts - 1) * 2..pts * 2 // key beyond last spline key
    } else {
        (seg_end - 1) * 2..(seg_end + 1) * 2
    }
}

/// Interpolate `key`'s position from the slots [`segment_slots`] names.
#[inline]
fn interpolate(slots: &[u64], key: u64) -> f64 {
    match *slots {
        [k0, p0, k1, p1] => {
            debug_assert!(k1 > k0);
            p0 as f64 + (key - k0) as f64 * (p1 - p0) as f64 / (k1 - k0) as f64
        }
        [_, p] => p as f64,
        _ => unreachable!("a segment is one or two spline points"),
    }
}

/// Exact maximum interpolation error of a fitted spline over its keys.
///
/// Walks the spline segment by segment and evaluates each segment's keys in
/// a tight inner loop with loop-invariant endpoints — the compiler can
/// vectorize it, and since every key sees the exact same expression as the
/// old one-key-at-a-time pass (and `f64::max` over the same set is
/// order-insensitive for non-NaN values), the result is bit-identical.
fn observed_max_error(keys: &[u64], pts: &[(u64, u64)]) -> f64 {
    if pts.len() < 2 {
        return 0.0;
    }
    let s: Vec<u64> = pts.iter().flat_map(|&(k, p)| [k, p]).collect();
    let n_pts = pts.len();
    let mut worst: f64 = 0.0;
    let mut at = 0usize; // next key index to classify
    for seg in 0..=n_pts {
        if at >= keys.len() {
            break;
        }
        // Keys whose first spline key >= them is `seg`: those with
        // key <= s[seg*2] (and > the previous spline key, by construction).
        let end = if seg < n_pts {
            let bound = s[seg * 2];
            at + keys[at..].partition_point(|&k| k <= bound)
        } else {
            keys.len()
        };
        if seg == 0 || seg >= n_pts {
            // Constant prediction outside the spline's key range.
            let est = if seg == 0 {
                s[1] as f64
            } else {
                s[(n_pts - 1) * 2 + 1] as f64
            };
            for (off, _) in keys[at..end].iter().enumerate() {
                worst = worst.max((est - (at + off) as f64).abs());
            }
        } else {
            let (k0, p0) = (s[(seg - 1) * 2], s[(seg - 1) * 2 + 1]);
            let (k1, p1) = (s[seg * 2], s[seg * 2 + 1]);
            let p0f = p0 as f64;
            let dp = (p1 - p0) as f64;
            let dk = (k1 - k0) as f64;
            // Four-lane max reduction: `f64::max` is associative and
            // commutative over these values (all finite, `.abs()` ≥ 0), so
            // folding lanes at the end is bit-identical to the serial scan
            // — but the independent accumulators break the loop-carried
            // `max` dependency and let the divide pipeline 4-wide.
            let seg_keys = &keys[at..end];
            let mut acc = [0.0f64; 4];
            let chunks = seg_keys.len() / 4;
            for c in 0..chunks {
                for (j, a) in acc.iter_mut().enumerate() {
                    let off = c * 4 + j;
                    // Same expression as `interpolate`, term for term.
                    let est = p0f + (seg_keys[off] - k0) as f64 * dp / dk;
                    *a = a.max((est - (at + off) as f64).abs());
                }
            }
            for (off, &key) in seg_keys.iter().enumerate().skip(chunks * 4) {
                let est = p0f + (key - k0) as f64 * dp / dk;
                acc[0] = acc[0].max((est - (at + off) as f64).abs());
            }
            worst = worst.max(acc[0].max(acc[1]).max(acc[2].max(acc[3])));
        }
        at = end;
    }
    worst
}

/// Greedy spline corridor fit (Neumann & Michel's GreedySplineCorridor as
/// used by RadixSpline): one pass, emits the fewest points such that linear
/// interpolation between consecutive points errs by at most ε positions.
fn greedy_spline_corridor(keys: &[u64], eps: f64) -> Vec<(u64, u64)> {
    let n = keys.len();
    if n == 0 {
        return vec![];
    }
    if n == 1 {
        return vec![(keys[0], 0)];
    }
    let mut pts: Vec<(u64, u64)> = vec![(keys[0], 0)];
    let mut base = (keys[0] as f64, 0.0f64);
    // Corridor slope bounds kept as exact rationals `num/den` (den > 0;
    // `1/0` = +∞, `-1/0` = −∞ under the comparison rules below). All
    // comparisons cross-multiply instead of dividing: `a/b > c/d ⟺
    // a·d > c·b` for positive denominators. With integer-valued operands
    // (key deltas, rank deltas, integral ε) the products are exact in f64
    // up to 2^53, so no per-key division — the hot-loop bottleneck — is
    // ever needed, and the fitted points match the divide-based corridor.
    let (mut up_num, mut up_den) = (1.0f64, 0.0f64);
    let (mut lo_num, mut lo_den) = (-1.0f64, 0.0f64);
    let mut prev = (keys[0], 0u64);
    for (i, &k) in keys.iter().enumerate().skip(1) {
        let dx = k as f64 - base.0;
        let y = i as f64 - base.1;
        debug_assert!(dx > 0.0);
        // slope y/dx above the upper bound or below the lower bound?
        if y * up_den > up_num * dx || y * lo_den < lo_num * dx {
            // Corridor violated: the previous point becomes a spline point
            // and the new corridor starts there.
            pts.push(prev);
            base = (prev.0 as f64, prev.1 as f64);
            let dx = k as f64 - base.0;
            let y = i as f64 - base.1;
            (up_num, up_den) = (y + eps, dx);
            (lo_num, lo_den) = (y - eps, dx);
        } else {
            // Tighten: upper = min(upper, (y+eps)/dx), lower likewise.
            if (y + eps) * up_den < up_num * dx {
                (up_num, up_den) = (y + eps, dx);
            }
            if (y - eps) * lo_den > lo_num * dx {
                (lo_num, lo_den) = (y - eps, dx);
            }
        }
        prev = (k, i as u64);
    }
    let last = (keys[n - 1], (n - 1) as u64);
    if pts.last() != Some(&last) {
        pts.push(last);
    }
    pts
}

/// Lookup phases of one lane; each lasts one or more lockstep rounds.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Read the two radix cells bracketing the prefix.
    Radix,
    /// Binary search the spline range for the segment.
    SplineSearch { lo: u64, hi: u64 },
    /// Read the bracketing spline points and compute the window.
    Interpolate { seg_end: u64 },
    /// Bounded binary search in the data window.
    DataSearch { lo: u64, hi: u64 },
    /// The lower-bound position is found.
    Bound { pos: u64 },
}

#[derive(Debug, Clone, Copy)]
struct Lane {
    key: u64,
    phase: Phase,
    result: Option<u64>,
}

impl Lane {
    fn new(key: u64) -> Self {
        Lane {
            key,
            phase: Phase::Radix,
            result: None,
        }
    }
}

impl OutOfCoreIndex for RadixSpline {
    fn kind(&self) -> IndexKind {
        IndexKind::RadixSpline
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn lookup_warp(&self, gpu: &mut Gpu, keys: &[u64], out: &mut [Option<u64>]) {
        assert!(keys.len() <= WARP_SIZE);
        assert!(out.len() >= keys.len());
        let n = self.data.len() as u64;
        let mut lanes: Vec<Lane> = keys.iter().map(|&key| Lane::new(key)).collect();
        lockstep(gpu, &mut lanes, |gpu, lane| {
            if n == 0 || lane.key < self.min_key || lane.key > self.max_key {
                return true;
            }
            let Some(pos) = self.step(gpu, lane) else {
                return false;
            };
            // Verify the lower-bound slot.
            if pos < n && self.data.read(gpu, pos as usize) == lane.key {
                lane.result = Some(pos);
            }
            true
        });
        for (o, lane) in out.iter_mut().zip(&lanes) {
            *o = lane.result;
        }
        gpu.count_lookups(keys.len() as u64);
    }

    fn lower_bound(&self, gpu: &mut Gpu, key: u64) -> u64 {
        let n = self.data.len() as u64;
        if n == 0 || key <= self.min_key {
            return 0;
        }
        if key > self.max_key {
            return n;
        }
        let mut lane = Lane::new(key);
        loop {
            if let Some(pos) = self.step(gpu, &mut lane) {
                return pos;
            }
        }
    }

    fn aux_bytes(&self) -> u64 {
        self.spline.size_bytes() + self.radix_table.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windex_sim::{GpuSpec, Scale};

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER))
    }

    fn build(keys: Vec<u64>, config: RadixSplineConfig) -> (Gpu, RadixSpline) {
        let mut g = gpu();
        let data = Rc::new(g.alloc_host_from_vec(keys));
        let rs = RadixSpline::build(&mut g, data, config);
        (g, rs)
    }

    fn sparse_keys(n: usize, seed: u64) -> Vec<u64> {
        // Deterministic pseudo-random gaps in [1, 31].
        let mut k = 0u64;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                k += 1 + (state % 31);
                k
            })
            .collect()
    }

    #[test]
    fn corridor_error_bound_holds() {
        for seed in 0..5 {
            let keys = sparse_keys(20_000, seed);
            let (_, rs) = build(keys, RadixSplineConfig::default());
            let err = rs.max_observed_error_host();
            assert!(
                err <= rs.max_error() as f64 + 1e-6,
                "seed {seed}: observed error {err} > ε {}",
                rs.max_error()
            );
        }
    }

    #[test]
    fn spline_is_much_smaller_than_data() {
        let keys = sparse_keys(100_000, 1);
        let (_, rs) = build(keys, RadixSplineConfig::default());
        assert!(rs.spline_points() > 1);
        assert!(
            rs.spline_points() < 100_000 / 10,
            "{} points",
            rs.spline_points()
        );
    }

    #[test]
    fn finds_every_key() {
        let keys = sparse_keys(30_000, 2);
        let (mut g, rs) = build(keys.clone(), RadixSplineConfig::default());
        for (i, &k) in keys.iter().enumerate().step_by(97) {
            assert_eq!(rs.lookup(&mut g, k), Some(i as u64), "key {k}");
        }
        // Boundary keys.
        assert_eq!(rs.lookup(&mut g, keys[0]), Some(0));
        assert_eq!(
            rs.lookup(&mut g, *keys.last().unwrap()),
            Some(keys.len() as u64 - 1)
        );
    }

    #[test]
    fn rejects_absent_keys() {
        let keys = sparse_keys(30_000, 3);
        let (mut g, rs) = build(keys.clone(), RadixSplineConfig::default());
        let set: std::collections::HashSet<u64> = keys.iter().copied().collect();
        let mut probed = 0;
        for k in (0..keys.last().copied().unwrap() + 100).step_by(211) {
            if !set.contains(&k) {
                assert_eq!(rs.lookup(&mut g, k), None, "key {k}");
                probed += 1;
            }
        }
        assert!(probed > 50);
        // Out-of-domain.
        assert_eq!(rs.lookup(&mut g, 0), None);
        assert_eq!(rs.lookup(&mut g, u64::MAX), None);
    }

    #[test]
    fn tight_error_bound_still_correct() {
        let keys = sparse_keys(10_000, 4);
        let cfg = RadixSplineConfig {
            max_error: 4,
            radix_bits: Some(10),
        };
        let (mut g, rs) = build(keys.clone(), cfg);
        assert!(rs.max_observed_error_host() <= 4.0 + 1e-6);
        for (i, &k) in keys.iter().enumerate().step_by(53) {
            assert_eq!(rs.lookup(&mut g, k), Some(i as u64));
        }
    }

    #[test]
    fn dense_keys_need_few_points() {
        let keys: Vec<u64> = (0..10_000u64).collect();
        let (mut g, rs) = build(keys, RadixSplineConfig::default());
        // A perfect line needs exactly the two endpoints.
        assert_eq!(rs.spline_points(), 2);
        assert_eq!(rs.lookup(&mut g, 5000), Some(5000));
    }

    #[test]
    fn lookup_touches_few_lines() {
        let keys = sparse_keys(1 << 17, 5);
        let (mut g, rs) = build(keys.clone(), RadixSplineConfig::default());
        g.reset_memory_system();
        let before = g.snapshot();
        let _ = rs.lookup(&mut g, keys[77_777]);
        let d = g.snapshot() - before;
        assert!(
            d.ic_lines_random <= 16,
            "RadixSpline lookup touched {} lines",
            d.ic_lines_random
        );
    }

    #[test]
    fn lower_bound_and_range() {
        let keys = sparse_keys(5000, 9);
        let (mut g, rs) = build(keys.clone(), RadixSplineConfig::default());
        let max = *keys.last().unwrap();
        for probe in [
            0u64,
            keys[0],
            keys[0] + 1,
            keys[777],
            keys[777] + 1,
            max,
            max + 1,
        ] {
            let expect = keys.partition_point(|&k| k < probe) as u64;
            assert_eq!(rs.lower_bound(&mut g, probe), expect, "probe {probe}");
        }
        // Dense sweep over a window of the key domain.
        for probe in keys[100]..keys[110] {
            let expect = keys.partition_point(|&k| k < probe) as u64;
            assert_eq!(rs.lower_bound(&mut g, probe), expect, "probe {probe}");
        }
        let r = rs.range(&mut g, keys[10], keys[20]);
        assert_eq!(r, 10..21);
    }

    #[test]
    fn empty_and_tiny() {
        let (mut g, rs) = build(vec![], RadixSplineConfig::default());
        assert_eq!(rs.lookup(&mut g, 1), None);
        let (mut g, rs) = build(vec![10], RadixSplineConfig::default());
        assert_eq!(rs.lookup(&mut g, 10), Some(0));
        assert_eq!(rs.lookup(&mut g, 9), None);
        let (mut g, rs) = build(vec![10, 20], RadixSplineConfig::default());
        assert_eq!(rs.lookup(&mut g, 10), Some(0));
        assert_eq!(rs.lookup(&mut g, 20), Some(1));
        assert_eq!(rs.lookup(&mut g, 15), None);
    }
}
