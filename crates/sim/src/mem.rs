//! Simulated memory: placement-aware buffers in a shared virtual address
//! space.
//!
//! A [`Buffer`] holds real host data (an owned `Vec<T>`, or a
//! [`SharedColumn`] aliasing a staged column — see `Storage`) and
//! carries a base virtual address plus a placement ([`MemLocation::Cpu`] for out-of-core base
//! relations and indexes, [`MemLocation::Gpu`] for device-resident state such
//! as hash tables and partition buffers). Every device-side access goes
//! through the [`Gpu`] engine, which drives the
//! TLB/cache/interconnect models. Values return at once (data is
//! host-resident) while single reads and writes are accounted when the
//! engine's access queue drains, in program order; host-side accessors
//! (`host`, `host_mut`)
//! bypass accounting and model work the CPU does ahead of query time, such
//! as bulk-loading an index (§3.2: "we assume the index already exists when
//! the query is run").

use crate::column::SharedColumn;
use crate::engine::Gpu;
use std::mem::{size_of, size_of_val};
use std::sync::Arc;

/// Where a buffer physically resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum MemLocation {
    /// GPU device memory (HBM). Fast, capacity-limited, no remote TLB
    /// involvement.
    Gpu,
    /// CPU main memory, accessed by the GPU across the interconnect at
    /// cacheline granularity (§2.1).
    Cpu,
}

/// Backing storage of a [`Buffer`]: exclusively owned, or aliasing a
/// read-mostly column shared with the workload layer (e.g. a staged base
/// relation). Shared storage turns staging a multi-megabyte column into an
/// `Arc` clone, and builds over it find the column's derived artifacts (see
/// [`Buffer::derived`]); the first device-side *write* silently converts to
/// owned (copy-on-write), so buffer semantics are unchanged either way.
#[derive(Debug, Clone)]
enum Storage<T> {
    Owned(Vec<T>),
    Shared(SharedColumn<T>),
}

impl<T: Copy> Storage<T> {
    #[inline]
    fn as_slice(&self) -> &[T] {
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(a) => a,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [T] {
        if let Storage::Shared(a) = self {
            *self = Storage::Owned(a.to_vec());
        }
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(_) => unreachable!("converted to owned above"),
        }
    }
}

/// A typed, placement-aware memory region with a stable virtual base address.
#[derive(Debug, Clone)]
pub struct Buffer<T> {
    data: Storage<T>,
    base: u64,
    loc: MemLocation,
}

impl<T: Copy> Buffer<T> {
    /// Internal constructor; use [`Gpu::alloc`] / [`Gpu::alloc_from_vec`].
    pub(crate) fn from_parts(data: Vec<T>, base: u64, loc: MemLocation) -> Self {
        Buffer {
            data: Storage::Owned(data),
            base,
            loc,
        }
    }

    /// Internal constructor for shared (zero-copy) storage; use
    /// [`Gpu::alloc_host_shared`].
    pub(crate) fn from_shared(data: SharedColumn<T>, base: u64, loc: MemLocation) -> Self {
        Buffer {
            data: Storage::Shared(data),
            base,
            loc,
        }
    }

    /// The artifact `fit` derives from this buffer's contents under `key`
    /// (see [`SharedColumn::derived`]). A buffer aliasing a shared column
    /// stores the artifact on the column, so every build over that column,
    /// on any thread, fits once; an owned buffer fits every time. Host-side
    /// work only: nothing is accounted.
    pub fn derived<K, A>(&self, key: K, fit: impl FnOnce(&[T]) -> A) -> Arc<A>
    where
        K: PartialEq + Send + Sync + 'static,
        A: Send + Sync + 'static,
    {
        match &self.data {
            Storage::Shared(col) => col.derived(key, fit),
            Storage::Owned(v) => Arc::new(fit(v)),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.as_slice().len()
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.as_slice().is_empty()
    }

    /// Placement of this buffer.
    pub fn location(&self) -> MemLocation {
        self.loc
    }

    /// Base virtual address.
    pub fn base_addr(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> u64 {
        std::mem::size_of_val(self.data.as_slice()) as u64
    }

    /// Virtual address of element `i`.
    #[inline]
    pub fn addr_of(&self, i: usize) -> u64 {
        debug_assert!(i <= self.data.as_slice().len());
        self.base + (i * size_of::<T>()) as u64
    }

    /// Device-side read of element `i`: counted by the memory system (see
    /// [`Gpu::touch_read`]).
    #[inline]
    pub fn read(&self, gpu: &mut Gpu, i: usize) -> T {
        gpu.touch_read(self.loc, self.addr_of(i), size_of::<T>() as u64);
        self.data.as_slice()[i]
    }

    /// Device-side read of `count` contiguous elements starting at `i`
    /// (a coalesced access: all covered cachelines are fetched once).
    #[inline]
    pub fn read_range(&self, gpu: &mut Gpu, i: usize, count: usize) -> &[T] {
        gpu.touch_read(self.loc, self.addr_of(i), (count * size_of::<T>()) as u64);
        &self.data.as_slice()[i..i + count]
    }

    /// Device-side reads of `count` contiguous elements at each index of
    /// `starts`, accounted in order in one call, after the queue (see
    /// [`Gpu::touch_read_batch`]). Returns nothing: a caller batching reads
    /// has already read the values through [`Buffer::host`].
    #[inline]
    pub fn read_batch(&self, gpu: &mut Gpu, starts: &[usize], count: usize) {
        let bytes = (count * size_of::<T>()) as u64;
        gpu.touch_read_batch(self.loc, bytes, starts.iter().map(|&i| self.addr_of(i)));
    }

    /// Device-side write of element `i`: counted by the memory system (see
    /// [`Gpu::touch_write`]).
    #[inline]
    pub fn write(&mut self, gpu: &mut Gpu, i: usize, value: T) {
        gpu.touch_write(self.loc, self.addr_of(i), size_of::<T>() as u64);
        self.data.as_mut_slice()[i] = value;
    }

    /// Device-side coalesced write of a contiguous run starting at `i`
    /// (e.g. flushing a software write-combining buffer).
    #[inline]
    pub fn write_range(&mut self, gpu: &mut Gpu, i: usize, values: &[T]) {
        gpu.touch_write(self.loc, self.addr_of(i), size_of_val(values) as u64);
        self.data.as_mut_slice()[i..i + values.len()].copy_from_slice(values);
    }

    /// Sequential streaming read of `count` elements starting at `i`.
    /// Streaming reads achieve full effective interconnect bandwidth and do
    /// not thrash the TLB (one translation per page, §4.3.1: "its table scan
    /// is not subject to frequent TLB misses").
    #[inline]
    pub fn stream_read(&self, gpu: &mut Gpu, i: usize, count: usize) -> &[T] {
        gpu.stream_read(self.loc, self.addr_of(i), (count * size_of::<T>()) as u64);
        &self.data.as_slice()[i..i + count]
    }

    /// Sequential streaming write of a contiguous run starting at `i`.
    #[inline]
    pub fn stream_write(&mut self, gpu: &mut Gpu, i: usize, values: &[T]) {
        gpu.stream_write(self.loc, self.addr_of(i), size_of_val(values) as u64);
        self.data.as_mut_slice()[i..i + values.len()].copy_from_slice(values);
    }

    /// Host-side view (not counted — pre-query work such as data loading).
    pub fn host(&self) -> &[T] {
        self.data.as_slice()
    }

    /// Host-side mutable view (not counted). Copies shared storage to owned
    /// first (copy-on-write).
    pub fn host_mut(&mut self) -> &mut [T] {
        self.data.as_mut_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Gpu;
    use crate::scale::Scale;
    use crate::spec::GpuSpec;

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER))
    }

    #[test]
    fn addresses_are_contiguous_and_page_aligned() {
        let mut gpu = gpu();
        let a: Buffer<u64> = gpu.alloc_host(10);
        let b: Buffer<u64> = gpu.alloc_host(10);
        assert_eq!(a.addr_of(1) - a.addr_of(0), 8);
        assert_eq!(a.base_addr() % gpu.spec().page_bytes, 0);
        assert_eq!(b.base_addr() % gpu.spec().page_bytes, 0);
        assert!(b.base_addr() >= a.base_addr() + a.size_bytes());
    }

    #[test]
    fn read_write_round_trip_counted() {
        let mut gpu = gpu();
        let mut buf: Buffer<u64> = gpu.alloc(MemLocation::Gpu, 4).unwrap();
        buf.write(&mut gpu, 2, 42);
        assert_eq!(buf.read(&mut gpu, 2), 42);
        let c = gpu.counters();
        assert_eq!(c.gpu_bytes_written, 8);
        assert!(c.gpu_bytes_read >= 8);
    }

    #[test]
    fn cpu_read_crosses_interconnect() {
        let mut gpu = gpu();
        let buf = gpu.alloc_host_from_vec(vec![1u64, 2, 3]);
        let _ = buf.read(&mut gpu, 0);
        let c = gpu.counters();
        assert_eq!(c.ic_lines_random, 1);
        assert_eq!(c.ic_bytes_random, gpu.spec().cacheline_bytes);
    }

    #[test]
    fn host_access_not_counted() {
        let mut gpu = gpu();
        let mut buf = gpu.alloc_host_from_vec(vec![0u64; 100]);
        buf.host_mut()[5] = 7;
        assert_eq!(buf.host()[5], 7);
        assert_eq!(gpu.counters().ic_bytes_total(), 0);
    }
}
