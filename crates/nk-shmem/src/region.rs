//! The shared hugepage region and its chunk allocator.

#![expect(
    clippy::disallowed_types,
    reason = "cross-shard-locks: the region is shared between a guest and the \
              NSMs of one host, and a host is polled by one thread at a time, \
              so its one Mutex (allocator and bytes together: a hugepage \
              access takes one lock) serialises same-host borrows only; no \
              cross-shard data ever crosses it. `copy_to` between two regions \
              is the one place two of them are held together (the \
              shared-memory NSM copying between two of its VMs, all on one \
              host): it takes them in address order, so even two copies in \
              opposite directions on different threads could not each hold \
              the lock the other waits for."
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
    /// Allocation failures (request larger than the region, region
    /// exhausted or fragmented).
    pub failed_allocs: u64,
}

/// Everything behind the region's one lock: the bytes and the allocator
/// that carves them into chunks.
struct Pages {
    bytes: Box<[u8]>,
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

impl Pages {
    fn new(capacity: usize) -> Self {
        let mut free = BTreeMap::new();
        free.insert(0, capacity);
        Pages {
            bytes: vec![0u8; capacity].into_boxed_slice(),
            free,
            live: DetMap::new(),
            used: 0,
            total_allocs: 0,
            failed_allocs: 0,
        }
    }

    /// First fit over the free extents; every refusal is counted, a request
    /// larger than the whole region included.
    fn alloc(&mut self, len: usize) -> NkResult<usize> {
        let fit = if len <= self.bytes.len() {
            let rounded = round_up(len.max(1));
            self.free
                .iter()
                .find(|(_, &flen)| flen >= rounded)
                .map(|(&off, &flen)| (off, flen, rounded))
        } else {
            None
        };
        let Some((off, flen, rounded)) = fit else {
            self.failed_allocs += 1;
            return Err(NkError::OutOfHugepages);
        };
        self.free.remove(&off);
        if flen > rounded {
            self.free.insert(off + rounded, flen - rounded);
        }
        self.live.insert(off, rounded);
        self.used += rounded;
        self.total_allocs += 1;
        Ok(off)
    }

    fn free(&mut self, off: usize) -> NkResult<()> {
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
        Ok(())
    }

    /// Byte range of the first `len` bytes of the live chunk at `handle`
    /// after skipping `skip`: unknown handle → `NotFound`, range past the
    /// chunk's end → `InvalidState`.
    fn span(&self, handle: DataHandle, skip: usize, len: usize) -> NkResult<Range<usize>> {
        let off = handle.offset() as usize;
        let chunk_len = *self.live.get(&off).ok_or(NkError::NotFound)?;
        match skip.checked_add(len) {
            Some(end) if end <= chunk_len => Ok(off + skip..off + end),
            _ => Err(NkError::InvalidState),
        }
    }
}

fn round_up(len: usize) -> usize {
    len.div_ceil(ALIGN) * ALIGN
}

/// A shared hugepage region between one VM and one NSM.
///
/// The region is cheaply clonable (`Arc` inside); GuestLib and ServiceLib each
/// hold a clone, mirroring the paper's mmap of the same IVSHMEM pages into
/// both guests. Every access — allocate, copy in or out, lend, free — takes
/// the region's one lock once.
#[derive(Clone)]
pub struct HugepageRegion {
    pages: Arc<Mutex<Pages>>,
    capacity: usize,
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
            pages: Arc::new(Mutex::new(Pages::new(capacity))),
            capacity,
        }
    }

    /// Lock without honouring poison: a panic under the lock (a failed
    /// bounds assertion in a caller's closure) leaves the bytes and the
    /// allocator maps as valid as they were, so the next borrower proceeds.
    fn lock(&self) -> MutexGuard<'_, Pages> {
        self.pages.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocate a chunk of at least `len` bytes.
    pub fn alloc(&self, len: usize) -> NkResult<DataHandle> {
        let off = self.lock().alloc(len)?;
        Ok(DataHandle::from_offset(off as u64))
    }

    /// Free a chunk previously returned by [`HugepageRegion::alloc`].
    pub fn free(&self, handle: DataHandle) -> NkResult<()> {
        if handle.is_null() {
            return Err(NkError::NotFound);
        }
        self.lock().free(handle.offset() as usize)
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
        let pages = self.lock();
        let span = pages.span(handle, offset, out.len())?;
        out.copy_from_slice(&pages.bytes[span]);
        Ok(())
    }

    /// Lend the first `len` bytes of the chunk at `handle` to `f`, in place.
    ///
    /// `f` runs under the region's one lock, so it must not call into this
    /// region (or a clone of it) at all — not to read, write, allocate,
    /// free or ask for statistics.
    pub fn with_chunk<R>(
        &self,
        handle: DataHandle,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> NkResult<R> {
        let pages = self.lock();
        let span = pages.span(handle, 0, len)?;
        Ok(f(&pages.bytes[span]))
    }

    /// Mutable counterpart of [`HugepageRegion::with_chunk`]: `f` fills the
    /// first `len` bytes of the chunk in place, under the same rule (it must
    /// not call into the region).
    pub fn with_chunk_mut<R>(
        &self,
        handle: DataHandle,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> NkResult<R> {
        let mut pages = self.lock();
        let span = pages.span(handle, 0, len)?;
        Ok(f(&mut pages.bytes[span]))
    }

    /// Allocate a chunk, copy `data` into it and return the handle — the
    /// common GuestLib `send()` path (§4.5 "Sending Data"), under one lock
    /// hold.
    pub fn alloc_and_write(&self, data: &[u8]) -> NkResult<DataHandle> {
        let mut pages = self.lock();
        let off = pages.alloc(data.len())?;
        pages.bytes[off..off + data.len()].copy_from_slice(data);
        Ok(DataHandle::from_offset(off as u64))
    }

    /// Copy `len` bytes from a chunk in this region into a chunk of another
    /// region (or the same one). This is the shared-memory NSM's fast path
    /// (§6.4): payload moves hugepage-to-hugepage with one `memcpy`, without
    /// touching a TCP stack or a temporary. The source handle is checked
    /// before the destination.
    pub fn copy_to(
        &self,
        src: DataHandle,
        dst_region: &HugepageRegion,
        dst: DataHandle,
        len: usize,
    ) -> NkResult<()> {
        if Arc::ptr_eq(&self.pages, &dst_region.pages) {
            let mut pages = self.lock();
            let src_span = pages.span(src, 0, len)?;
            let dst_span = pages.span(dst, 0, len)?;
            pages.bytes.copy_within(src_span, dst_span.start);
            return Ok(());
        }
        // Address order, whichever way the copy runs (see the file note).
        let (src_pages, mut dst_pages);
        if Arc::as_ptr(&self.pages) < Arc::as_ptr(&dst_region.pages) {
            src_pages = self.lock();
            dst_pages = dst_region.lock();
        } else {
            dst_pages = dst_region.lock();
            src_pages = self.lock();
        }
        let src_span = src_pages.span(src, 0, len)?;
        let dst_span = dst_pages.span(dst, 0, len)?;
        dst_pages.bytes[dst_span].copy_from_slice(&src_pages.bytes[src_span]);
        Ok(())
    }

    /// Current statistics.
    pub fn stats(&self) -> RegionStats {
        let pages = self.lock();
        RegionStats {
            capacity: self.capacity,
            used: pages.used,
            chunks: pages.live.len(),
            total_allocs: pages.total_allocs,
            failed_allocs: pages.failed_allocs,
        }
    }

    /// Bytes currently available for allocation.
    pub fn available(&self) -> usize {
        self.capacity - self.lock().used
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
        // A request larger than the whole region is refused like any
        // other, and counted with them.
        assert_eq!(region.alloc(1 << 30), Err(NkError::OutOfHugepages));
        assert_eq!(region.alloc(usize::MAX), Err(NkError::OutOfHugepages));
        assert_eq!(
            region.alloc_and_write(&[7u8; 300]),
            Err(NkError::OutOfHugepages)
        );
        let stats = region.stats();
        assert_eq!((stats.failed_allocs, stats.total_allocs), (4, 2));
    }

    /// The flat model `region_matches_a_flat_model` checks against: the
    /// region's bytes as one array, occupancy per 64-byte line, the live
    /// chunks and the counters `stats()` reports.
    struct Model {
        bytes: Vec<u8>,
        taken: Vec<bool>,
        live: BTreeMap<usize, usize>,
        total_allocs: u64,
        failed_allocs: u64,
    }

    impl Model {
        fn new(capacity: usize) -> Self {
            Model {
                bytes: vec![0; capacity],
                taken: vec![false; capacity / ALIGN],
                live: BTreeMap::new(),
                total_allocs: 0,
                failed_allocs: 0,
            }
        }

        /// First fit, spelled out: the lowest line that starts a free run
        /// long enough.
        fn alloc(&mut self, len: usize) -> NkResult<usize> {
            let lines = len.max(1).div_ceil(ALIGN);
            let fit = (len <= self.bytes.len())
                .then(|| {
                    (0..self.taken.len().saturating_sub(lines - 1))
                        .find(|&i| self.taken[i..i + lines].iter().all(|t| !t))
                })
                .flatten();
            let Some(line) = fit else {
                self.failed_allocs += 1;
                return Err(NkError::OutOfHugepages);
            };
            self.taken[line..line + lines].fill(true);
            self.live.insert(line * ALIGN, lines * ALIGN);
            self.total_allocs += 1;
            Ok(line * ALIGN)
        }

        fn span(&self, h: DataHandle, skip: usize, len: usize) -> NkResult<Range<usize>> {
            let off = h.offset() as usize;
            let chunk = *self.live.get(&off).ok_or(NkError::NotFound)?;
            match skip.checked_add(len) {
                Some(end) if end <= chunk => Ok(off + skip..off + end),
                _ => Err(NkError::InvalidState),
            }
        }

        fn stats(&self) -> RegionStats {
            RegionStats {
                capacity: self.bytes.len(),
                used: self.live.values().sum(),
                chunks: self.live.len(),
                total_allocs: self.total_allocs,
                failed_allocs: self.failed_allocs,
            }
        }
    }

    /// A live chunk of the modelled region most of the time, else one of
    /// the `stale` handles (freed, never a chunk start, or null), which the
    /// model may since have handed out again.
    fn pick(
        next: &mut impl FnMut(u64) -> usize,
        model: &Model,
        stale: &[DataHandle],
    ) -> DataHandle {
        if model.live.is_empty() || next(8) == 0 {
            stale[next(stale.len() as u64)]
        } else {
            let off = *model
                .live
                .keys()
                .nth(next(model.live.len() as u64))
                .unwrap();
            DataHandle::from_offset(off as u64)
        }
    }

    /// Seeded runs of every region call — `alloc`, `alloc_and_write`,
    /// `write`, `read_at`, `with_chunk{,_mut}`, `copy_to` within and across
    /// two regions, and `free` — against a flat model of offsets, bytes and
    /// `RegionStats`: the one-lock region hands out exactly the offsets
    /// first fit hands out, refuses what the model refuses, and holds the
    /// model's bytes.
    #[test]
    fn region_matches_a_flat_model() {
        const CAP: usize = 2048;
        for seed in 1..=60u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = |below: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % below) as usize
            };
            let regions = [
                HugepageRegion::with_capacity(CAP),
                HugepageRegion::with_capacity(CAP),
            ];
            let mut models = [Model::new(CAP), Model::new(CAP)];
            let mut stale = vec![DataHandle::NULL, DataHandle::from_offset(64)];
            for step in 0..400 {
                let at = format!("seed {seed} step {step}");
                let r = next(2);
                let len = match next(16) {
                    0 => CAP + 1 + next(64),
                    1 => usize::MAX,
                    _ => next(400),
                };
                let n = len % 300;
                match next(8) {
                    0 => {
                        let got = regions[r].alloc(len).map(|h| h.offset() as usize);
                        assert_eq!(got, models[r].alloc(len), "{at}: alloc {len}");
                    }
                    1 => {
                        let len = len.min(CAP + 64);
                        let data: Vec<u8> = (0..len).map(|_| next(256) as u8).collect();
                        let got = regions[r].alloc_and_write(&data);
                        let want = models[r].alloc(len);
                        assert_eq!(got.map(|h| h.offset() as usize), want, "{at}: {len}");
                        if let Ok(off) = want {
                            models[r].bytes[off..off + len].copy_from_slice(&data);
                        }
                    }
                    2 => {
                        let h = pick(&mut next, &models[r], &stale);
                        let data: Vec<u8> = (0..n).map(|_| next(256) as u8).collect();
                        let want = models[r].span(h, 0, n);
                        let got = regions[r].write(h, &data);
                        assert_eq!(got, want.clone().map(|_| ()), "{at}: write");
                        if let Ok(span) = want {
                            models[r].bytes[span].copy_from_slice(&data);
                        }
                    }
                    3 => {
                        let h = pick(&mut next, &models[r], &stale);
                        let skip = next(200);
                        let mut out = vec![0u8; n];
                        let got = regions[r].read_at(h, skip, &mut out).map(|()| out);
                        let want = models[r].span(h, skip, n);
                        let want = want.map(|s| models[r].bytes[s].to_vec());
                        assert_eq!(got, want, "{at}: read_at");
                    }
                    4 => {
                        let h = pick(&mut next, &models[r], &stale);
                        let got = regions[r].with_chunk(h, n, <[u8]>::to_vec);
                        let want = models[r].span(h, 0, n);
                        let want = want.map(|s| models[r].bytes[s].to_vec());
                        assert_eq!(got, want, "{at}: with_chunk");
                    }
                    5 => {
                        let h = pick(&mut next, &models[r], &stale);
                        let fill = next(256) as u8;
                        let got = regions[r].with_chunk_mut(h, n, |chunk| {
                            chunk.fill(fill);
                            chunk.len()
                        });
                        let want = models[r].span(h, 0, n);
                        assert_eq!(got, want.clone().map(|s| s.len()), "{at}: lend");
                        if let Ok(span) = want {
                            models[r].bytes[span].fill(fill);
                        }
                    }
                    6 => {
                        let d = next(2);
                        let src = pick(&mut next, &models[r], &stale);
                        let dst = pick(&mut next, &models[d], &stale);
                        let got = regions[r].copy_to(src, &regions[d], dst, n);
                        let want = models[r]
                            .span(src, 0, n)
                            .and_then(|s| models[d].span(dst, 0, n).map(|t| (s, t)));
                        assert_eq!(got, want.clone().map(|_| ()), "{at}: copy_to");
                        if let Ok((s, t)) = want {
                            let moved = models[r].bytes[s].to_vec();
                            models[d].bytes[t].copy_from_slice(&moved);
                        }
                    }
                    _ => {
                        let h = pick(&mut next, &models[r], &stale);
                        let off = h.offset() as usize;
                        let want = match models[r].live.remove(&off) {
                            Some(chunk) => {
                                models[r].taken[off / ALIGN..(off + chunk) / ALIGN].fill(false);
                                stale.push(h);
                                Ok(())
                            }
                            None => Err(NkError::NotFound),
                        };
                        assert_eq!(regions[r].free(h), want, "{at}: free");
                    }
                }
                for (region, model) in regions.iter().zip(&models) {
                    assert_eq!(region.stats(), model.stats(), "{at}");
                    assert_eq!(region.available(), CAP - model.stats().used, "{at}");
                }
            }
            for (region, model) in regions.iter().zip(&models) {
                for (&off, &chunk) in &model.live {
                    let mut out = vec![0u8; chunk];
                    region
                        .read(DataHandle::from_offset(off as u64), &mut out)
                        .unwrap();
                    assert_eq!(out, model.bytes[off..off + chunk], "seed {seed}");
                }
            }
        }
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
