//! The shared hugepage region and its chunk allocator.

#![expect(
    clippy::disallowed_types,
    reason = "cross-shard-locks: the region is shared between a guest and the \
              NSMs of one host, all members of the same share lane (lane \
              grouping unions over exactly these edges), so the Mutexes \
              serialise same-lane borrows only; no cross-shard data ever \
              crosses them. `copy_to` is the one place two regions' data locks \
              are held together (the shared-memory NSM copying between two of \
              its VMs, all one lane): it takes them in address order, so even \
              two copies in opposite directions on different threads could not \
              each hold the lock the other waits for."
)]

use nk_types::constants::HUGEPAGE_SIZE;
use nk_types::{DataHandle, DetMap, NkError, NkResult};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

/// Allocation granularity: chunks are rounded up to one cache line so
/// adjacent payloads never share a line (false sharing would defeat the
/// lockless design).
const ALIGN: usize = 64;

/// Statistics about a hugepage region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegionStats {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Bytes currently allocated (after alignment rounding).
    pub used: usize,
    /// Number of live chunks.
    pub chunks: usize,
    /// Total allocations performed over the region's lifetime.
    pub total_allocs: u64,
    /// Allocation failures (region exhausted or fragmented).
    pub failed_allocs: u64,
}

struct Allocator {
    /// Free extents keyed by offset → length. Invariant: extents are
    /// non-overlapping, non-adjacent (coalesced) and aligned.
    free: BTreeMap<usize, usize>,
    /// Live chunks keyed by offset → rounded length; only looked up (one
    /// `span` per payload access), never walked.
    live: DetMap<usize, usize>,
    used: usize,
    total_allocs: u64,
    failed_allocs: u64,
}

impl Allocator {
    fn new(capacity: usize) -> Self {
        let mut free = BTreeMap::new();
        free.insert(0, capacity);
        Allocator {
            free,
            live: DetMap::new(),
            used: 0,
            total_allocs: 0,
            failed_allocs: 0,
        }
    }

    fn alloc(&mut self, len: usize) -> Option<usize> {
        let rounded = round_up(len.max(1));
        // First fit over the free extents.
        let slot = self
            .free
            .iter()
            .find(|(_, &flen)| flen >= rounded)
            .map(|(&off, &flen)| (off, flen));
        let (off, flen) = match slot {
            Some(s) => s,
            None => {
                self.failed_allocs += 1;
                return None;
            }
        };
        self.free.remove(&off);
        if flen > rounded {
            self.free.insert(off + rounded, flen - rounded);
        }
        self.live.insert(off, rounded);
        self.used += rounded;
        self.total_allocs += 1;
        Some(off)
    }

    fn free(&mut self, off: usize) -> NkResult<usize> {
        let len = self.live.remove(&off).ok_or(NkError::NotFound)?;
        self.used -= len;
        // Insert and coalesce with neighbours.
        let mut start = off;
        let mut end = off + len;
        if let Some((&prev_off, &prev_len)) = self.free.range(..off).next_back() {
            if prev_off + prev_len == start {
                self.free.remove(&prev_off);
                start = prev_off;
            }
        }
        if let Some(&next_len) = self.free.get(&end) {
            self.free.remove(&end);
            end += next_len;
        }
        self.free.insert(start, end - start);
        Ok(len)
    }
}

fn round_up(len: usize) -> usize {
    len.div_ceil(ALIGN) * ALIGN
}

/// Lock without honouring poison: a panic under either mutex (a failed
/// bounds assertion in a caller's closure) leaves the bytes and the
/// allocator maps as valid as they were, so the next borrower proceeds.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Inner {
    data: Mutex<Box<[u8]>>,
    alloc: Mutex<Allocator>,
    capacity: usize,
}

/// A shared hugepage region between one VM and one NSM.
///
/// The region is cheaply clonable (`Arc` inside); GuestLib and ServiceLib each
/// hold a clone, mirroring the paper's mmap of the same IVSHMEM pages into
/// both guests.
#[derive(Clone)]
pub struct HugepageRegion {
    inner: Arc<Inner>,
}

impl HugepageRegion {
    /// Create a region of `pages` hugepages of 2 MB each.
    pub fn new(pages: usize) -> Self {
        Self::with_capacity(pages * HUGEPAGE_SIZE)
    }

    /// Create a region with an explicit byte capacity (useful for tests).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = round_up(capacity.max(ALIGN));
        HugepageRegion {
            inner: Arc::new(Inner {
                data: Mutex::new(vec![0u8; capacity].into_boxed_slice()),
                alloc: Mutex::new(Allocator::new(capacity)),
                capacity,
            }),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Allocate a chunk of at least `len` bytes.
    pub fn alloc(&self, len: usize) -> NkResult<DataHandle> {
        if len > self.inner.capacity {
            return Err(NkError::OutOfHugepages);
        }
        let mut a = lock(&self.inner.alloc);
        a.alloc(len)
            .map(|off| DataHandle::from_offset(off as u64))
            .ok_or(NkError::OutOfHugepages)
    }

    /// Free a chunk previously returned by [`HugepageRegion::alloc`].
    pub fn free(&self, handle: DataHandle) -> NkResult<()> {
        if handle.is_null() {
            return Err(NkError::NotFound);
        }
        lock(&self.inner.alloc).free(handle.offset() as usize)?;
        Ok(())
    }

    /// Byte range of the first `len` bytes of the live chunk at `handle`
    /// after skipping `skip`: unknown handle → `NotFound`, range past the
    /// chunk's end → `InvalidState`.
    fn span(&self, handle: DataHandle, skip: usize, len: usize) -> NkResult<Range<usize>> {
        let off = handle.offset() as usize;
        let chunk_len = *lock(&self.inner.alloc)
            .live
            .get(&off)
            .ok_or(NkError::NotFound)?;
        match skip.checked_add(len) {
            Some(end) if end <= chunk_len => Ok(off + skip..off + end),
            _ => Err(NkError::InvalidState),
        }
    }

    /// Copy `data` into the chunk at `handle`.
    ///
    /// Fails when the handle is unknown or the data is larger than the chunk.
    pub fn write(&self, handle: DataHandle, data: &[u8]) -> NkResult<()> {
        self.with_chunk_mut(handle, data.len(), |chunk| chunk.copy_from_slice(data))
    }

    /// Copy `out.len()` bytes from the chunk at `handle` into `out`.
    pub fn read(&self, handle: DataHandle, out: &mut [u8]) -> NkResult<()> {
        self.read_at(handle, 0, out)
    }

    /// Copy bytes `[offset, offset + out.len())` of the chunk at `handle`
    /// into `out` — a partial `recv()` resumes where the last one stopped
    /// without re-reading the chunk's head.
    pub fn read_at(&self, handle: DataHandle, offset: usize, out: &mut [u8]) -> NkResult<()> {
        let span = self.span(handle, offset, out.len())?;
        out.copy_from_slice(&lock(&self.inner.data)[span]);
        Ok(())
    }

    /// Lend the first `len` bytes of the chunk at `handle` to `f`, in place.
    ///
    /// `f` runs under the region's data lock, so it must not call back into
    /// this region (or a clone of it).
    pub fn with_chunk<R>(
        &self,
        handle: DataHandle,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> NkResult<R> {
        let span = self.span(handle, 0, len)?;
        Ok(f(&lock(&self.inner.data)[span]))
    }

    /// Mutable counterpart of [`HugepageRegion::with_chunk`]: `f` fills the
    /// first `len` bytes of the chunk in place.
    pub fn with_chunk_mut<R>(
        &self,
        handle: DataHandle,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> NkResult<R> {
        let span = self.span(handle, 0, len)?;
        Ok(f(&mut lock(&self.inner.data)[span]))
    }

    /// Allocate a chunk, copy `data` into it and return the handle — the
    /// common GuestLib `send()` path (§4.5 "Sending Data").
    pub fn alloc_and_write(&self, data: &[u8]) -> NkResult<DataHandle> {
        let handle = self.alloc(data.len())?;
        // Write cannot fail: the chunk was just allocated with sufficient
        // length, but free it defensively if it somehow does.
        if let Err(e) = self.write(handle, data) {
            let _ = self.free(handle);
            return Err(e);
        }
        Ok(handle)
    }

    /// Copy `len` bytes from a chunk in this region into a chunk of another
    /// region (or the same one). This is the shared-memory NSM's fast path
    /// (§6.4): payload moves hugepage-to-hugepage with one `memcpy`, without
    /// touching a TCP stack or a temporary.
    pub fn copy_to(
        &self,
        src: DataHandle,
        dst_region: &HugepageRegion,
        dst: DataHandle,
        len: usize,
    ) -> NkResult<()> {
        let src_span = self.span(src, 0, len)?;
        let dst_span = dst_region.span(dst, 0, len)?;
        if Arc::ptr_eq(&self.inner, &dst_region.inner) {
            lock(&self.inner.data).copy_within(src_span, dst_span.start);
            return Ok(());
        }
        // Address order, whichever way the copy runs (see the file note).
        let (src_data, mut dst_data);
        if Arc::as_ptr(&self.inner) < Arc::as_ptr(&dst_region.inner) {
            src_data = lock(&self.inner.data);
            dst_data = lock(&dst_region.inner.data);
        } else {
            dst_data = lock(&dst_region.inner.data);
            src_data = lock(&self.inner.data);
        }
        dst_data[dst_span].copy_from_slice(&src_data[src_span]);
        Ok(())
    }

    /// Current statistics.
    pub fn stats(&self) -> RegionStats {
        let a = lock(&self.inner.alloc);
        RegionStats {
            capacity: self.inner.capacity,
            used: a.used,
            chunks: a.live.len(),
            total_allocs: a.total_allocs,
            failed_allocs: a.failed_allocs,
        }
    }

    /// Bytes currently available for allocation.
    pub fn available(&self) -> usize {
        let a = lock(&self.inner.alloc);
        self.inner.capacity - a.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read_roundtrip() {
        let region = HugepageRegion::with_capacity(4096);
        let payload = b"hello netkernel".to_vec();
        let h = region.alloc_and_write(&payload).unwrap();
        let mut out = vec![0u8; payload.len()];
        region.read(h, &mut out).unwrap();
        assert_eq!(out, payload);
        region.free(h).unwrap();
        assert_eq!(region.stats().chunks, 0);
    }

    #[test]
    fn exhaustion_reports_out_of_hugepages() {
        let region = HugepageRegion::with_capacity(256);
        let _a = region.alloc(128).unwrap();
        let _b = region.alloc(128).unwrap();
        assert_eq!(region.alloc(64), Err(NkError::OutOfHugepages));
        assert_eq!(region.stats().failed_allocs, 1);
        assert_eq!(region.alloc(1 << 30), Err(NkError::OutOfHugepages));
    }

    #[test]
    fn free_coalesces_neighbours() {
        let region = HugepageRegion::with_capacity(1024);
        let a = region.alloc(256).unwrap();
        let b = region.alloc(256).unwrap();
        let c = region.alloc(256).unwrap();
        region.free(b).unwrap();
        region.free(a).unwrap();
        region.free(c).unwrap();
        // After freeing everything a full-size allocation must succeed again.
        let big = region.alloc(1024).unwrap();
        region.free(big).unwrap();
    }

    #[test]
    fn double_free_is_rejected() {
        let region = HugepageRegion::with_capacity(1024);
        let a = region.alloc(64).unwrap();
        region.free(a).unwrap();
        assert_eq!(region.free(a), Err(NkError::NotFound));
        assert_eq!(region.free(DataHandle::NULL), Err(NkError::NotFound));
    }

    #[test]
    fn oversized_write_and_read_are_rejected() {
        let region = HugepageRegion::with_capacity(1024);
        let h = region.alloc(64).unwrap();
        assert_eq!(region.write(h, &[0u8; 100]), Err(NkError::InvalidState));
        assert_eq!(region.read(h, &mut [0u8; 100]), Err(NkError::InvalidState));
    }

    #[test]
    fn read_at_copies_a_sub_range_and_checks_bounds() {
        let region = HugepageRegion::with_capacity(4096);
        let h = region.alloc_and_write(b"hello netkernel").unwrap();
        let mut out = [0u8; 9];
        region.read_at(h, 6, &mut out).unwrap();
        assert_eq!(&out, b"netkernel");
        region.read_at(h, 64, &mut []).unwrap();
        // The chunk is one 64-byte line: one byte past its end is refused.
        assert_eq!(
            region.read_at(h, 60, &mut [0u8; 5]),
            Err(NkError::InvalidState)
        );
        assert_eq!(
            region.read_at(h, usize::MAX, &mut [0u8; 2]),
            Err(NkError::InvalidState)
        );
        region.free(h).unwrap();
        assert_eq!(region.read_at(h, 0, &mut out), Err(NkError::NotFound));
    }

    #[test]
    fn lends_a_live_chunk_in_place() {
        let region = HugepageRegion::with_capacity(4096);
        let h = region.alloc(100).unwrap();
        let filled = region
            .with_chunk_mut(h, 100, |chunk| {
                chunk.iter_mut().zip(0u8..).for_each(|(b, i)| *b = i);
                chunk.len()
            })
            .unwrap();
        assert_eq!(filled, 100);
        let sum = region
            .with_chunk(h, 10, |chunk| {
                chunk.iter().map(|&b| u32::from(b)).sum::<u32>()
            })
            .unwrap();
        assert_eq!(sum, 45);
        // 100 bytes round up to two lines; a longer lend is refused.
        assert_eq!(
            region.with_chunk(h, 129, |_| ()),
            Err(NkError::InvalidState)
        );
        assert_eq!(
            region.with_chunk_mut(h, 129, |_| ()),
            Err(NkError::InvalidState)
        );
        region.free(h).unwrap();
        assert_eq!(region.with_chunk(h, 1, |_| ()), Err(NkError::NotFound));
        assert_eq!(region.with_chunk_mut(h, 1, |_| ()), Err(NkError::NotFound));
        assert_eq!(
            region.with_chunk(DataHandle::NULL, 0, |_| ()),
            Err(NkError::NotFound)
        );
    }

    #[test]
    fn copy_to_across_regions_within_one_and_of_nothing() {
        let src_region = HugepageRegion::with_capacity(4096);
        let dst_region = HugepageRegion::with_capacity(4096);
        let src = src_region.alloc_and_write(b"colocated vm payload").unwrap();
        let mut out = vec![0u8; 20];

        // Cross-region, in both lock orders.
        let dst = dst_region.alloc(32).unwrap();
        src_region.copy_to(src, &dst_region, dst, 20).unwrap();
        dst_region.read(dst, &mut out).unwrap();
        assert_eq!(&out, b"colocated vm payload");
        let back = src_region.alloc(32).unwrap();
        dst_region.copy_to(dst, &src_region, back, 9).unwrap();
        src_region.read(back, &mut out[..9]).unwrap();
        assert_eq!(&out[..9], b"colocated");

        // Same region (through a clone): one lock, no deadlock.
        let twin = src_region.alloc(32).unwrap();
        src_region
            .copy_to(src, &src_region.clone(), twin, 20)
            .unwrap();
        src_region.read(twin, &mut out).unwrap();
        assert_eq!(&out, b"colocated vm payload");

        // Zero length copies nothing and still checks both handles.
        src_region.copy_to(src, &dst_region, dst, 0).unwrap();
        src_region.copy_to(src, &src_region, twin, 0).unwrap();
        assert_eq!(
            src_region.copy_to(src, &dst_region, DataHandle::from_offset(64), 0),
            Err(NkError::NotFound)
        );
        // Longer than either chunk is refused, source checked first.
        assert_eq!(
            src_region.copy_to(src, &dst_region, dst, 65),
            Err(NkError::InvalidState)
        );
        dst_region.free(dst).unwrap();
        assert_eq!(
            src_region.copy_to(src, &dst_region, dst, 20),
            Err(NkError::NotFound)
        );
        assert_eq!(
            dst_region.copy_to(dst, &src_region, twin, 20),
            Err(NkError::NotFound)
        );
    }

    #[test]
    fn clones_share_the_same_storage() {
        let guest_side = HugepageRegion::with_capacity(4096);
        let nsm_side = guest_side.clone();
        let h = guest_side.alloc_and_write(b"shared").unwrap();
        let mut out = vec![0u8; 6];
        nsm_side.read(h, &mut out).unwrap();
        assert_eq!(&out, b"shared");
    }

    #[test]
    fn default_region_matches_paper_sizing() {
        let region = HugepageRegion::new(2);
        assert_eq!(region.capacity(), 2 * HUGEPAGE_SIZE);
    }
}
