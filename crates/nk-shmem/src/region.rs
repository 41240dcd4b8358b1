//! The shared hugepage region and its chunk allocator.
//!
//! The allocator is first fit over 64-byte lines, kept as two line bitmaps:
//! `taken` (the line belongs to a live chunk) and `start` (a live chunk
//! begins on it). A chunk is a run of taken lines that begins with a start
//! bit and ends before the next start bit or free line, so allocating is a
//! word scan from the lowest line that may be free, and freeing a chunk or
//! bounds-checking an access to it is a few bit operations. The bitmaps
//! grow only to the highest line ever allocated: a 256 MB region that only
//! ever holds a few small chunks keeps a few words, not a capacity-sized
//! table.
//!
//! Every datapath hop takes the region's one lock once: a guest `send()`
//! allocates and copies in (`alloc_and_write`), an NSM `Send` lends the
//! chunk to the stack and frees it (`lend_and_free`), the NSM's receive
//! path allocates a chunk and lets the stack fill it (`alloc_and_fill`), a
//! guest `recv()` copies out and frees a finished chunk (`read_and_free`),
//! and the shared-memory NSM moves a chunk into a peer's region
//! (`move_to`).

#![expect(
    clippy::disallowed_types,
    reason = "cross-shard-locks: the region is shared between a guest and the \
              NSMs of one host, and a host is polled by one thread at a time, \
              so its one Mutex (bitmaps and bytes together: every hop takes \
              one lock hold) serialises same-host borrows only; no \
              cross-shard data ever crosses it. `move_to` between two regions \
              is the one place two of them are held together (the \
              shared-memory NSM moving a chunk between two of its VMs, all on \
              one host): it takes them in address order, so even two moves in \
              opposite directions on different threads could not each hold \
              the lock the other waits for."
)]

use nk_types::constants::HUGEPAGE_SIZE;
use nk_types::{DataHandle, NkError, NkResult};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

/// Allocation granularity: chunks are rounded up to one cache line so
/// adjacent payloads never share a line (false sharing would defeat the
/// lockless design).
const ALIGN: usize = 64;

/// Lines per bitmap word.
const WORD: usize = u64::BITS as usize;

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
/// that carves them into chunks of whole lines.
struct Pages {
    bytes: Box<[u8]>,
    /// One bit per line, set while the line belongs to a live chunk. Lines
    /// past the end of the vector are free.
    taken: Vec<u64>,
    /// One bit per line, set on the first line of every live chunk; the
    /// same length as `taken`.
    start: Vec<u64>,
    /// Every line below this one is taken: where first fit starts looking.
    first_free: usize,
    chunks: usize,
    used: usize,
    total_allocs: u64,
    failed_allocs: u64,
}

/// Word `w` of a bitmap; words past its end read as zero.
fn word(bits: &[u64], w: usize) -> u64 {
    bits.get(w).copied().unwrap_or(0)
}

/// Set (`on`) or clear the bits of lines `lines` in `bits`, which covers them.
fn mark(bits: &mut [u64], lines: Range<usize>, on: bool) {
    let mut line = lines.start;
    while line < lines.end {
        let bit = line % WORD;
        let n = (WORD - bit).min(lines.end - line);
        let mask = (u64::MAX >> (WORD - n)) << bit;
        if on {
            bits[line / WORD] |= mask;
        } else {
            bits[line / WORD] &= !mask;
        }
        line += n;
    }
}

impl Pages {
    fn new(capacity: usize) -> Self {
        Pages {
            bytes: vec![0u8; capacity].into_boxed_slice(),
            taken: Vec::new(),
            start: Vec::new(),
            first_free: 0,
            chunks: 0,
            used: 0,
            total_allocs: 0,
            failed_allocs: 0,
        }
    }

    fn lines(&self) -> usize {
        self.bytes.len() / ALIGN
    }

    /// The first line in `from..limit` whose bit in `word_at(w)` is set, or
    /// `limit` when none is.
    fn scan(from: usize, limit: usize, word_at: impl Fn(usize) -> u64) -> usize {
        if from >= limit {
            return limit;
        }
        let mut w = from / WORD;
        let mut bits = word_at(w) & (u64::MAX << (from % WORD));
        while bits == 0 {
            w += 1;
            if w * WORD >= limit {
                return limit;
            }
            bits = word_at(w);
        }
        (w * WORD + bits.trailing_zeros() as usize).min(limit)
    }

    fn next_free(&self, from: usize) -> usize {
        Self::scan(from, self.lines(), |w| !word(&self.taken, w))
    }

    fn next_taken(&self, from: usize, limit: usize) -> usize {
        Self::scan(from, limit, |w| word(&self.taken, w))
    }

    /// The first line in `from..limit` that no chunk running through
    /// `from - 1` can reach: a free line or another chunk's start.
    fn next_boundary(&self, from: usize, limit: usize) -> usize {
        Self::scan(from, limit, |w| {
            word(&self.start, w) | !word(&self.taken, w)
        })
    }

    /// The line a live chunk starts on at byte offset `off`, else `NotFound`.
    fn chunk_at(&self, off: usize) -> NkResult<usize> {
        let line = off / ALIGN;
        let live =
            off.is_multiple_of(ALIGN) && (word(&self.start, line / WORD) >> (line % WORD)) & 1 == 1;
        live.then_some(line).ok_or(NkError::NotFound)
    }

    /// First fit over the free lines; every refusal is counted, a request
    /// larger than the whole region included.
    fn alloc(&mut self, len: usize) -> NkResult<usize> {
        let fit = if len <= self.bytes.len() {
            let want = len.max(1).div_ceil(ALIGN);
            let first = self.next_free(self.first_free);
            let mut at = first;
            loop {
                if at + want > self.lines() {
                    break None;
                }
                let end = self.next_taken(at, at + want);
                if end == at + want {
                    break Some((first, at, want));
                }
                at = self.next_free(end);
            }
        } else {
            None
        };
        let Some((first, at, want)) = fit else {
            self.failed_allocs += 1;
            return Err(NkError::OutOfHugepages);
        };
        let words = (at + want).div_ceil(WORD);
        if self.taken.len() < words {
            self.taken.resize(words, 0);
            self.start.resize(words, 0);
        }
        mark(&mut self.taken, at..at + want, true);
        mark(&mut self.start, at..at + 1, true);
        self.first_free = if at == first { at + want } else { first };
        self.chunks += 1;
        self.used += want * ALIGN;
        self.total_allocs += 1;
        Ok(at * ALIGN)
    }

    fn free(&mut self, off: usize) -> NkResult<()> {
        let line = self.chunk_at(off)?;
        let end = self.next_boundary(line + 1, self.lines());
        mark(&mut self.taken, line..end, false);
        mark(&mut self.start, line..line + 1, false);
        self.first_free = self.first_free.min(line);
        self.chunks -= 1;
        self.used -= (end - line) * ALIGN;
        Ok(())
    }

    /// Byte range of the first `len` bytes of the live chunk at `handle`
    /// after skipping `skip`: unknown handle → `NotFound`, range past the
    /// chunk's end → `InvalidState`. Only the lines the range covers are
    /// looked at.
    fn span(&self, handle: DataHandle, skip: usize, len: usize) -> NkResult<Range<usize>> {
        let off = handle.offset() as usize;
        let line = self.chunk_at(off)?;
        let end = skip.checked_add(len).ok_or(NkError::InvalidState)?;
        let reach = line.saturating_add(end.div_ceil(ALIGN));
        if self.next_boundary(line + 1, reach) < reach {
            return Err(NkError::InvalidState);
        }
        Ok(off + skip..off + end)
    }
}

fn round_up(len: usize) -> usize {
    len.div_ceil(ALIGN) * ALIGN
}

/// A shared hugepage region between one VM and one NSM.
///
/// The region is cheaply clonable (`Arc` inside); GuestLib and ServiceLib each
/// hold a clone, mirroring the paper's mmap of the same IVSHMEM pages into
/// both guests. Every call takes the region's one lock once, so a closure
/// lent a chunk must not call into the region (or a clone of it) at all —
/// not to read, allocate, free or ask for statistics: it would deadlock.
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
    /// bitmaps as valid as they were, so the next borrower proceeds.
    fn lock(&self) -> MutexGuard<'_, Pages> {
        self.pages.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free a chunk this region handed out.
    pub fn free(&self, handle: DataHandle) -> NkResult<()> {
        self.lock().free(handle.offset() as usize)
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

    /// [`HugepageRegion::read_at`] of a chunk's last bytes, then free the
    /// chunk — a `recv()` that finishes a chunk, under one lock hold. A
    /// refused read frees nothing.
    pub fn read_and_free(&self, handle: DataHandle, offset: usize, out: &mut [u8]) -> NkResult<()> {
        let mut pages = self.lock();
        let span = pages.span(handle, offset, out.len())?;
        out.copy_from_slice(&pages.bytes[span]);
        pages.free(handle.offset() as usize)
    }

    /// Lend the first `len` bytes of the chunk at `handle` to `f` in place,
    /// then free the chunk — the NSM handing a `Send`'s payload to its
    /// stack, under one lock hold. A refused lend frees nothing.
    pub fn lend_and_free<R>(
        &self,
        handle: DataHandle,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> NkResult<R> {
        let mut pages = self.lock();
        let span = pages.span(handle, 0, len)?;
        let r = f(&pages.bytes[span]);
        pages.free(handle.offset() as usize)?;
        Ok(r)
    }

    /// Allocate a chunk of at least `len` bytes and let `fill` write its
    /// first `len` bytes in place — the NSM landing received bytes, under
    /// one lock hold. A failed fill frees the chunk again and returns its
    /// error.
    pub fn alloc_and_fill<R>(
        &self,
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> NkResult<R>,
    ) -> NkResult<(DataHandle, R)> {
        let mut pages = self.lock();
        let off = pages.alloc(len)?;
        match fill(&mut pages.bytes[off..off + len]) {
            Ok(r) => Ok((DataHandle::from_offset(off as u64), r)),
            Err(e) => {
                pages.free(off)?;
                Err(e)
            }
        }
    }

    /// Allocate a chunk, copy `data` into it and return the handle — the
    /// common GuestLib `send()` path (§4.5 "Sending Data"), under one lock
    /// hold.
    pub fn alloc_and_write(&self, data: &[u8]) -> NkResult<DataHandle> {
        self.alloc_and_fill(data.len(), |chunk| {
            chunk.copy_from_slice(data);
            Ok(())
        })
        .map(|(handle, ())| handle)
    }

    /// Move the first `len` bytes of the chunk at `src` into a fresh chunk
    /// of `dst_region` (or of this region), free `src` and return the new
    /// handle. This is the shared-memory NSM's fast path (§6.4): payload
    /// moves hugepage-to-hugepage with one `memcpy`, without touching a TCP
    /// stack or a temporary, holding each region's lock once. The
    /// destination chunk is allocated before the source is checked; a
    /// refused allocation or source frees nothing.
    pub fn move_to(
        &self,
        src: DataHandle,
        dst_region: &HugepageRegion,
        len: usize,
    ) -> NkResult<DataHandle> {
        let src_off = src.offset() as usize;
        if Arc::ptr_eq(&self.pages, &dst_region.pages) {
            let mut pages = self.lock();
            let dst = pages.alloc(len)?;
            let src_span = match pages.span(src, 0, len) {
                Ok(span) => span,
                Err(e) => {
                    pages.free(dst)?;
                    return Err(e);
                }
            };
            pages.bytes.copy_within(src_span, dst);
            pages.free(src_off)?;
            return Ok(DataHandle::from_offset(dst as u64));
        }
        // Address order, whichever way the move runs (see the file note).
        let (mut src_pages, mut dst_pages);
        if Arc::as_ptr(&self.pages) < Arc::as_ptr(&dst_region.pages) {
            src_pages = self.lock();
            dst_pages = dst_region.lock();
        } else {
            dst_pages = dst_region.lock();
            src_pages = self.lock();
        }
        let dst = dst_pages.alloc(len)?;
        let src_span = match src_pages.span(src, 0, len) {
            Ok(span) => span,
            Err(e) => {
                dst_pages.free(dst)?;
                return Err(e);
            }
        };
        dst_pages.bytes[dst..dst + len].copy_from_slice(&src_pages.bytes[src_span]);
        src_pages.free(src_off)?;
        Ok(DataHandle::from_offset(dst as u64))
    }

    /// Current statistics.
    pub fn stats(&self) -> RegionStats {
        let pages = self.lock();
        RegionStats {
            capacity: self.capacity,
            used: pages.used,
            chunks: pages.chunks,
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
    use std::collections::BTreeMap;

    /// Allocate without writing: a fill that leaves the chunk as it is.
    fn alloc(region: &HugepageRegion, len: usize) -> NkResult<DataHandle> {
        region.alloc_and_fill(len, |_| Ok(())).map(|(h, ())| h)
    }

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
        let _a = alloc(&region, 128).unwrap();
        let _b = alloc(&region, 128).unwrap();
        assert_eq!(alloc(&region, 64), Err(NkError::OutOfHugepages));
        assert_eq!(region.stats().failed_allocs, 1);
        // A request larger than the whole region is refused like any
        // other, and counted with them.
        assert_eq!(alloc(&region, 1 << 30), Err(NkError::OutOfHugepages));
        assert_eq!(alloc(&region, usize::MAX), Err(NkError::OutOfHugepages));
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

    /// Free `h` in the model; a freed handle joins the `stale` ones.
    fn model_free(model: &mut Model, h: DataHandle, stale: &mut Vec<DataHandle>) -> NkResult<()> {
        let off = h.offset() as usize;
        let chunk = model.live.remove(&off).ok_or(NkError::NotFound)?;
        model.taken[off / ALIGN..(off + chunk) / ALIGN].fill(false);
        stale.push(h);
        Ok(())
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

    /// Seeded runs of every region call — `alloc_and_fill` (a fill that
    /// fails included), `alloc_and_write`, `read_at`, `read_and_free`,
    /// `lend_and_free`, `move_to` within and across two regions, and `free`
    /// — against a flat model of offsets, bytes and `RegionStats`: the
    /// bitmap region hands out exactly the offsets first fit hands out,
    /// refuses what the model refuses, and holds the model's bytes.
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
            let mut stale = vec![
                DataHandle::NULL,
                DataHandle::from_offset(64),
                DataHandle::from_offset(65),
                DataHandle::from_offset(CAP as u64),
            ];
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
                        // One fill in four fails, after writing.
                        let fails = next(4) == 0;
                        let fill = next(256) as u8;
                        let got = regions[r].alloc_and_fill(len, |chunk| {
                            chunk.fill(fill);
                            if fails {
                                Err(NkError::WouldBlock)
                            } else {
                                Ok(chunk.len())
                            }
                        });
                        let got = got.map(|(h, filled)| (h.offset() as usize, filled));
                        let want = match models[r].alloc(len) {
                            Ok(off) => {
                                models[r].bytes[off..off + len].fill(fill);
                                if fails {
                                    let h = DataHandle::from_offset(off as u64);
                                    model_free(&mut models[r], h, &mut stale).unwrap();
                                    Err(NkError::WouldBlock)
                                } else {
                                    Ok((off, len))
                                }
                            }
                            Err(e) => Err(e),
                        };
                        assert_eq!(got, want, "{at}: alloc_and_fill {len}");
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
                    2 | 3 => {
                        // A resumed read (skip > 0) or a whole one, which
                        // frees the chunk or leaves it.
                        let h = pick(&mut next, &models[r], &stale);
                        let skip = if next(2) == 0 { 0 } else { next(200) };
                        let and_free = next(2) == 0;
                        let mut out = vec![0u8; n];
                        let got = if and_free {
                            regions[r].read_and_free(h, skip, &mut out)
                        } else {
                            regions[r].read_at(h, skip, &mut out)
                        };
                        let got = got.map(|()| out);
                        let want = models[r].span(h, skip, n);
                        let want = want.map(|s| models[r].bytes[s].to_vec());
                        if want.is_ok() && and_free {
                            model_free(&mut models[r], h, &mut stale).unwrap();
                        }
                        assert_eq!(got, want, "{at}: read (free {and_free})");
                    }
                    4 => {
                        let h = pick(&mut next, &models[r], &stale);
                        let got = regions[r].lend_and_free(h, n, <[u8]>::to_vec);
                        let want = models[r].span(h, 0, n);
                        let want = want.map(|s| models[r].bytes[s].to_vec());
                        if want.is_ok() {
                            model_free(&mut models[r], h, &mut stale).unwrap();
                        }
                        assert_eq!(got, want, "{at}: lend_and_free");
                    }
                    5 => {
                        let d = next(2);
                        let src = pick(&mut next, &models[r], &stale);
                        let got = regions[r].move_to(src, &regions[d], n);
                        let got = got.map(|h| h.offset() as usize);
                        // The destination is allocated first, then the
                        // source checked; a refused source frees it again.
                        let want = match models[d].alloc(n) {
                            Ok(dst) => match models[r].span(src, 0, n) {
                                Ok(s) => {
                                    let moved = models[r].bytes[s].to_vec();
                                    models[d].bytes[dst..dst + n].copy_from_slice(&moved);
                                    model_free(&mut models[r], src, &mut stale).unwrap();
                                    Ok(dst)
                                }
                                Err(e) => {
                                    let h = DataHandle::from_offset(dst as u64);
                                    model_free(&mut models[d], h, &mut stale).unwrap();
                                    Err(e)
                                }
                            },
                            Err(e) => Err(e),
                        };
                        assert_eq!(got, want, "{at}: move_to");
                    }
                    _ => {
                        let h = pick(&mut next, &models[r], &stale);
                        let want = model_free(&mut models[r], h, &mut stale);
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

    /// A region's allocator is sized by the highest line it ever handed
    /// out, not by its capacity: a 256 MB region cycling small and 16 KiB
    /// chunks keeps its bitmaps within a word of the high-water line.
    #[test]
    fn bitmaps_grow_only_to_the_high_water_line() {
        let region = HugepageRegion::new(128);
        let mut high_water = 0;
        for i in 0..100_000usize {
            let len = if i % 2 == 0 { 64 } else { 16 << 10 };
            let keep = alloc(&region, len).unwrap();
            let h = alloc(&region, len).unwrap();
            high_water = high_water.max((h.offset() as usize + len) / ALIGN);
            region.free(h).unwrap();
            region.free(keep).unwrap();
        }
        let pages = region.lock();
        assert_eq!(high_water, 2 * (16 << 10) / ALIGN);
        assert!(pages.taken.len() <= high_water.div_ceil(WORD) + 1);
        assert_eq!(pages.start.len(), pages.taken.len());
        assert!(pages.taken.iter().chain(&pages.start).all(|&w| w == 0));
        assert_eq!((pages.used, pages.chunks, pages.first_free), (0, 0, 0));
    }

    #[test]
    fn free_coalesces_neighbours() {
        let region = HugepageRegion::with_capacity(1024);
        let a = alloc(&region, 256).unwrap();
        let b = alloc(&region, 256).unwrap();
        let c = alloc(&region, 256).unwrap();
        region.free(b).unwrap();
        region.free(a).unwrap();
        region.free(c).unwrap();
        // After freeing everything a full-size allocation must succeed again.
        let big = alloc(&region, 1024).unwrap();
        region.free(big).unwrap();
    }

    #[test]
    fn double_free_is_rejected() {
        let region = HugepageRegion::with_capacity(1024);
        let a = alloc(&region, 64).unwrap();
        region.free(a).unwrap();
        assert_eq!(region.free(a), Err(NkError::NotFound));
        assert_eq!(region.free(DataHandle::NULL), Err(NkError::NotFound));
    }

    #[test]
    fn oversized_reads_are_rejected() {
        let region = HugepageRegion::with_capacity(1024);
        let h = alloc(&region, 64).unwrap();
        let mut out = [0u8; 100];
        assert_eq!(region.read(h, &mut out), Err(NkError::InvalidState));
        assert_eq!(
            region.read_and_free(h, 0, &mut out),
            Err(NkError::InvalidState)
        );
        assert_eq!(region.stats().chunks, 1, "a refused read frees nothing");
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
        // The last bytes, read and freed under one hold.
        let mut tail = [0u8; 3];
        region.read_and_free(h, 12, &mut tail).unwrap();
        assert_eq!(&tail, b"nel");
        assert_eq!(region.read_at(h, 0, &mut out), Err(NkError::NotFound));
        assert_eq!(region.read_and_free(h, 0, &mut []), Err(NkError::NotFound));
    }

    #[test]
    fn lend_and_free_lends_then_frees() {
        let region = HugepageRegion::with_capacity(4096);
        let (h, filled) = region
            .alloc_and_fill(100, |chunk| {
                chunk.iter_mut().zip(0u8..).for_each(|(b, i)| *b = i);
                Ok(chunk.len())
            })
            .unwrap();
        assert_eq!(filled, 100);
        // 100 bytes round up to two lines; a longer lend is refused and
        // frees nothing.
        assert_eq!(
            region.lend_and_free(h, 129, |_| ()),
            Err(NkError::InvalidState)
        );
        let sum = region
            .lend_and_free(h, 10, |chunk| {
                chunk.iter().map(|&b| u32::from(b)).sum::<u32>()
            })
            .unwrap();
        assert_eq!(sum, 45);
        assert_eq!(region.stats().chunks, 0);
        assert_eq!(region.lend_and_free(h, 1, |_| ()), Err(NkError::NotFound));
        assert_eq!(
            region.lend_and_free(DataHandle::NULL, 0, |_| ()),
            Err(NkError::NotFound)
        );
    }

    #[test]
    fn a_failed_fill_frees_its_chunk() {
        let region = HugepageRegion::with_capacity(4096);
        let keep = region.alloc_and_write(b"head").unwrap();
        let got = region.alloc_and_fill(100, |chunk| {
            chunk.fill(9);
            Err::<(), _>(NkError::WouldBlock)
        });
        assert_eq!(got, Err(NkError::WouldBlock));
        let stats = region.stats();
        assert_eq!((stats.chunks, stats.used, stats.total_allocs), (1, 64, 2));
        // The freed lines are handed out again.
        assert_eq!(alloc(&region, 100).unwrap().offset(), 64);
        region.free(keep).unwrap();
    }

    #[test]
    fn move_to_across_regions_within_one_and_of_nothing() {
        let src_region = HugepageRegion::with_capacity(4096);
        let dst_region = HugepageRegion::with_capacity(4096);
        let mut out = vec![0u8; 20];

        // Cross-region, in both lock orders; the source is freed.
        let src = src_region.alloc_and_write(b"colocated vm payload").unwrap();
        let dst = src_region.move_to(src, &dst_region, 20).unwrap();
        dst_region.read(dst, &mut out).unwrap();
        assert_eq!(&out, b"colocated vm payload");
        assert_eq!(src_region.stats().chunks, 0);
        let back = dst_region.move_to(dst, &src_region, 9).unwrap();
        src_region.read(back, &mut out[..9]).unwrap();
        assert_eq!(&out[..9], b"colocated");
        assert_eq!(dst_region.stats().chunks, 0);

        // Same region (through a clone): one lock, no deadlock. The copy
        // is allocated before the source is freed, so it lands beside it.
        let twin = src_region.move_to(back, &src_region.clone(), 9).unwrap();
        assert_eq!(twin.offset(), 64);
        src_region.read(twin, &mut out[..9]).unwrap();
        assert_eq!(&out[..9], b"colocated");

        // Zero length still checks the source; a refused source frees the
        // destination again, and a dead source refuses.
        let moved = src_region.move_to(twin, &dst_region, 0).unwrap();
        dst_region.free(moved).unwrap();
        let dst_allocs = dst_region.stats().total_allocs;
        assert_eq!(
            src_region.move_to(twin, &dst_region, 20),
            Err(NkError::NotFound)
        );
        let stats = dst_region.stats();
        assert_eq!((stats.chunks, stats.total_allocs), (0, dst_allocs + 1));
        let src = src_region.alloc_and_write(b"short").unwrap();
        assert_eq!(
            src_region.move_to(src, &dst_region, 65),
            Err(NkError::InvalidState)
        );
        assert_eq!(src_region.stats().chunks, 1, "a refused move frees nothing");
        // A full destination refuses before the source is looked at.
        let full = HugepageRegion::with_capacity(64);
        let _taken = alloc(&full, 64).unwrap();
        assert_eq!(
            src_region.move_to(src, &full, 5),
            Err(NkError::OutOfHugepages)
        );
        assert_eq!(src_region.stats().chunks, 1);
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
