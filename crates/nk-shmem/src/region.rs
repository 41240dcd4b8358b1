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
//! A live chunk holds its bytes as [`Payload`] runs, not as bytes of an
//! arena: each chunk owns a slot of runs, found through a slot index kept
//! on its first line. Bytes past what a chunk was written with read as
//! zero, so a chunk never shows what an earlier chunk on its lines held.
//! Offsets, bounds and statistics stay line-based, as if the bytes were
//! laid out in the region.
//!
//! Every datapath hop takes the region's one lock once: a guest `send()`
//! allocates and copies in, into a buffer its recycler lends again once
//! every run into it is gone (`alloc_and_write`); an NSM `Send` takes the
//! chunk's runs for its stack and frees the chunk (`lend_and_free`); the
//! NSM's receive path allocates a chunk and lets the stack fill it with
//! runs (`alloc_and_fill`); and a guest `recv()` copies out and frees a
//! finished chunk (`read_and_free`). The guest's two hops copy; the NSM's
//! two move runs by reference, the shared-memory NSM's too: its stack
//! carries the runs a `Send` lent to the chunk its peer's receive fills.

#![expect(
    clippy::disallowed_types,
    reason = "cross-shard-locks: the region is shared between a guest and the \
              NSMs of one host, and a host is polled by one thread at a time, \
              so its one Mutex (bitmaps and runs together: every hop takes \
              one lock hold) serialises same-host borrows only; no \
              cross-shard data ever crosses it, and no hop holds two \
              regions' locks at once."
)]

use nk_types::constants::HUGEPAGE_SIZE;
use nk_types::{DataHandle, NkError, NkResult, Payload, Recycler};
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

/// Everything behind the region's one lock: the allocator that carves the
/// region into chunks of whole lines, and the runs each live chunk holds.
struct Pages {
    capacity: usize,
    /// One bit per line, set while the line belongs to a live chunk. Lines
    /// past the end of the vector are free.
    taken: Vec<u64>,
    /// One bit per line, set on the first line of every live chunk; the
    /// same length as `taken`.
    start: Vec<u64>,
    /// One entry per line of `taken`: on a live chunk's first line, the
    /// index of its slot in `slots`.
    slot_of: Vec<u32>,
    /// The runs of each live chunk, front to back; a freed chunk's slot
    /// joins `spare` empty but with its capacity, for the next chunk.
    slots: Vec<Vec<Payload>>,
    spare: Vec<u32>,
    /// The buffers `alloc_and_write` copies a guest's bytes into.
    recycler: Recycler,
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
            capacity,
            taken: Vec::new(),
            start: Vec::new(),
            slot_of: Vec::new(),
            slots: Vec::new(),
            spare: Vec::new(),
            recycler: Recycler::default(),
            first_free: 0,
            chunks: 0,
            used: 0,
            total_allocs: 0,
            failed_allocs: 0,
        }
    }

    fn lines(&self) -> usize {
        self.capacity / ALIGN
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

    /// First fit for a run of `want` free lines: the first free line, and
    /// the run found, `want` lines from the lowest line that starts one, or,
    /// when no free run is that long, the lowest of the longest ones (0
    /// lines when no line is free).
    fn fit(&self, want: usize) -> (usize, usize, usize) {
        let lines = self.lines();
        let first = self.next_free(self.first_free);
        let (mut at, mut longest) = (first, (first, 0));
        while at < lines {
            let end = self.next_taken(at, (at + want).min(lines));
            if end - at == want {
                return (first, at, want);
            }
            if end - at > longest.1 {
                longest = (at, end - at);
            }
            at = self.next_free(end);
        }
        (first, longest.0, longest.1)
    }

    /// First fit over the free lines; every refusal is counted, a request
    /// larger than the whole region included.
    fn alloc(&mut self, len: usize) -> NkResult<usize> {
        let want = len.max(1).div_ceil(ALIGN);
        match (len <= self.capacity).then(|| self.fit(want)) {
            Some((first, at, lines)) if lines == want => Ok(self.take(first, at, want)),
            _ => {
                self.failed_allocs += 1;
                Err(NkError::OutOfHugepages)
            }
        }
    }

    /// [`Pages::alloc`] of `len` bytes, or of the longest free run when no
    /// free run is that long: the chunk's offset and the bytes it grants,
    /// `len` at most. Refused (and counted) only when no line is free.
    fn alloc_up_to(&mut self, len: usize) -> NkResult<(usize, usize)> {
        let (first, at, lines) = self.fit(len.max(1).div_ceil(ALIGN));
        if lines == 0 {
            self.failed_allocs += 1;
            return Err(NkError::OutOfHugepages);
        }
        Ok((self.take(first, at, lines), len.min(lines * ALIGN)))
    }

    /// Make lines `at..at + want` a live chunk; `first` is the first free
    /// line. Returns the chunk's byte offset.
    fn take(&mut self, first: usize, at: usize, want: usize) -> usize {
        let words = (at + want).div_ceil(WORD);
        if self.taken.len() < words {
            self.taken.resize(words, 0);
            self.start.resize(words, 0);
            self.slot_of.resize(words * WORD, 0);
        }
        mark(&mut self.taken, at..at + want, true);
        mark(&mut self.start, at..at + 1, true);
        self.slot_of[at] = self.spare.pop().unwrap_or_else(|| {
            self.slots.push(Vec::new());
            u32::try_from(self.slots.len() - 1).expect("fewer chunks than lines")
        });
        self.first_free = if at == first { at + want } else { first };
        self.chunks += 1;
        self.used += want * ALIGN;
        self.total_allocs += 1;
        at * ALIGN
    }

    fn free(&mut self, off: usize) -> NkResult<()> {
        let line = self.chunk_at(off)?;
        let end = self.next_boundary(line + 1, self.lines());
        let slot = self.slot_of[line];
        self.slots[slot as usize].clear();
        self.spare.push(slot);
        mark(&mut self.taken, line..end, false);
        mark(&mut self.start, line..line + 1, false);
        self.first_free = self.first_free.min(line);
        self.chunks -= 1;
        self.used -= (end - line) * ALIGN;
        Ok(())
    }

    /// The runs of the live chunk at `handle`, once the first `len` bytes
    /// after skipping `skip` are known to lie inside it: unknown handle →
    /// `NotFound`, range past the chunk's end → `InvalidState`. Only the
    /// lines the range covers are looked at.
    fn span(&mut self, handle: DataHandle, skip: usize, len: usize) -> NkResult<&mut Vec<Payload>> {
        let line = self.chunk_at(handle.offset() as usize)?;
        let end = skip.checked_add(len).ok_or(NkError::InvalidState)?;
        let reach = line.saturating_add(end.div_ceil(ALIGN));
        if self.next_boundary(line + 1, reach) < reach {
            return Err(NkError::InvalidState);
        }
        Ok(&mut self.slots[self.slot_of[line] as usize])
    }

    /// The runs of the chunk just allocated at byte offset `off`.
    fn runs_at(&mut self, off: usize) -> &mut Vec<Payload> {
        &mut self.slots[self.slot_of[off / ALIGN] as usize]
    }

    /// Move the runs of the first `len` bytes of the live chunk at `handle`
    /// onto `out`, by reference, and free the chunk; returns the bytes they
    /// hold, less than `len` when the chunk was written with less. A
    /// refused range frees nothing.
    fn take_runs(
        &mut self,
        handle: DataHandle,
        len: usize,
        out: &mut impl Extend<Payload>,
    ) -> NkResult<usize> {
        let mut moved = 0;
        for run in self.span(handle, 0, len)?.drain(..) {
            if moved == len {
                break;
            }
            let take = run.len().min(len - moved);
            out.extend(Some(if take == run.len() {
                run
            } else {
                run.slice(0..take)
            }));
            moved += take;
        }
        self.free(handle.offset() as usize)?;
        Ok(moved)
    }
}

/// Copy the bytes of `runs` from `skip` on into `out`; what the runs do not
/// reach reads as zero.
fn copy_out(runs: &[Payload], mut skip: usize, out: &mut [u8]) {
    let mut at = 0;
    for run in runs {
        if at == out.len() {
            break;
        }
        if skip >= run.len() {
            skip -= run.len();
            continue;
        }
        let take = (run.len() - skip).min(out.len() - at);
        out[at..at + take].copy_from_slice(&run[skip..skip + take]);
        at += take;
        skip = 0;
    }
    out[at..].fill(0);
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
    /// without re-reading the chunk's head. Bytes past what the chunk was
    /// written with read as zero.
    pub fn read_at(&self, handle: DataHandle, offset: usize, out: &mut [u8]) -> NkResult<()> {
        copy_out(self.lock().span(handle, offset, out.len())?, offset, out);
        Ok(())
    }

    /// [`HugepageRegion::read_at`] of a chunk's last bytes, then free the
    /// chunk — a `recv()` that finishes a chunk, under one lock hold. A
    /// refused read frees nothing.
    pub fn read_and_free(&self, handle: DataHandle, offset: usize, out: &mut [u8]) -> NkResult<()> {
        let mut pages = self.lock();
        copy_out(pages.span(handle, offset, out.len())?, offset, out);
        pages.free(handle.offset() as usize)
    }

    /// Move the first `len` bytes of the chunk at `handle` onto `runs`, as
    /// the runs it holds, then free the chunk — the NSM handing a `Send`'s
    /// payload to its stack by reference, under one lock hold. Bytes past
    /// what the chunk was written with are handed out as zeros. A refused
    /// lend frees nothing.
    pub fn lend_and_free(
        &self,
        handle: DataHandle,
        len: usize,
        runs: &mut impl Extend<Payload>,
    ) -> NkResult<()> {
        let moved = self.lock().take_runs(handle, len, runs)?;
        if moved < len {
            runs.extend(Some(Payload::from(vec![0; len - moved])));
        }
        Ok(())
    }

    /// Allocate a chunk of `len` bytes, or of the longest free run when no
    /// free run is that long, and let `fill` push the runs of its first `n`
    /// bytes at most, where `n` (`len` at most) is what the chunk grants —
    /// the NSM landing received bytes by reference, under one lock hold. So
    /// a region with any free line takes some bytes: only a full one
    /// refuses. A failed fill frees the chunk again and returns its error.
    pub fn alloc_and_fill<R>(
        &self,
        len: usize,
        fill: impl FnOnce(&mut Vec<Payload>, usize) -> NkResult<R>,
    ) -> NkResult<(DataHandle, R)> {
        let mut pages = self.lock();
        let (off, n) = pages.alloc_up_to(len)?;
        let runs = pages.runs_at(off);
        match fill(runs, n) {
            Ok(r) => {
                assert!(
                    runs.iter().map(|run| run.len()).sum::<usize>() <= n,
                    "a fill overran its chunk"
                );
                Ok((DataHandle::from_offset(off as u64), r))
            }
            Err(e) => {
                pages.free(off)?;
                Err(e)
            }
        }
    }

    /// Allocate a chunk, copy `data` into it and return the handle — the
    /// common GuestLib `send()` path (§4.5 "Sending Data"), under one lock
    /// hold. The copy lands in a buffer of the region's recycler, which
    /// lends it again once no run points into it.
    pub fn alloc_and_write(&self, data: &[u8]) -> NkResult<DataHandle> {
        let mut pages = self.lock();
        let off = pages.alloc(data.len())?;
        let run = pages.recycler.write(data);
        if !run.is_empty() {
            pages.runs_at(off).push(run);
        }
        Ok(DataHandle::from_offset(off as u64))
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
    use std::cmp::Reverse;
    use std::collections::BTreeMap;

    /// Allocate exactly `len` bytes without writing, first fit.
    fn alloc(region: &HugepageRegion, len: usize) -> NkResult<DataHandle> {
        let off = region.lock().alloc(len)?;
        Ok(DataHandle::from_offset(off as u64))
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
    /// region's bytes as one array (a chunk's lines zeroed when they are
    /// allocated), occupancy per 64-byte line, the live chunks and the
    /// counters `stats()` reports.
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
            Ok(self.take(line, lines))
        }

        /// First fit for `len` bytes, else the lowest of the longest free
        /// runs; the bytes granted are `len` at most.
        fn alloc_up_to(&mut self, len: usize) -> NkResult<(usize, usize)> {
            let want = len.max(1).div_ceil(ALIGN).min(self.taken.len());
            let mut free = Vec::new();
            let mut line = 0;
            while line < self.taken.len() {
                let start = line;
                while line < self.taken.len() && !self.taken[line] {
                    line += 1;
                }
                if line > start {
                    free.push((start, line - start));
                }
                line += 1;
            }
            let fit = free
                .iter()
                .find(|run| run.1 >= want)
                .map(|&(at, _)| (at, want));
            let longest = free.iter().copied().min_by_key(|&(at, n)| (Reverse(n), at));
            let Some((line, lines)) = fit.or(longest) else {
                self.failed_allocs += 1;
                return Err(NkError::OutOfHugepages);
            };
            Ok((self.take(line, lines), len.min(lines * ALIGN)))
        }

        fn take(&mut self, line: usize, lines: usize) -> usize {
            self.taken[line..line + lines].fill(true);
            self.bytes[line * ALIGN..(line + lines) * ALIGN].fill(0);
            self.live.insert(line * ALIGN, lines * ALIGN);
            self.total_allocs += 1;
            line * ALIGN
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

    /// The bytes of `runs`, front to back.
    fn flatten(runs: &[Payload]) -> Vec<u8> {
        runs.iter().flat_map(|run| run.iter().copied()).collect()
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
    /// `lend_and_free` and `free` on two regions — against a flat model of offsets, bytes and `RegionStats`: the
    /// bitmap region hands out exactly the offsets first fit hands out
    /// (the longest free run to a fill that no run can hold), refuses what
    /// the model refuses, and holds the model's bytes, zeros
    /// past what each chunk was written with included.
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
                        // One fill in four fails, after writing. A fill
                        // pushes two runs that may stop short of what the
                        // chunk grants.
                        let fails = next(4) == 0;
                        let fill = next(256) as u8;
                        let most = next(len.min(CAP) as u64 + 1);
                        let got = regions[r].alloc_and_fill(len, |runs, n| {
                            let k = most.min(n);
                            runs.push(Payload::from(vec![fill; k / 2]));
                            runs.push(Payload::from(vec![!fill; k - k / 2]));
                            if fails {
                                Err(NkError::WouldBlock)
                            } else {
                                Ok(k)
                            }
                        });
                        let got = got.map(|(h, filled)| (h.offset() as usize, filled));
                        let want = match models[r].alloc_up_to(len) {
                            Ok((off, n)) => {
                                let k = most.min(n);
                                models[r].bytes[off..off + k / 2].fill(fill);
                                models[r].bytes[off + k / 2..off + k].fill(!fill);
                                if fails {
                                    let h = DataHandle::from_offset(off as u64);
                                    model_free(&mut models[r], h, &mut stale).unwrap();
                                    Err(NkError::WouldBlock)
                                } else {
                                    Ok((off, k))
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
                        let mut runs = Vec::new();
                        let got = regions[r].lend_and_free(h, n, &mut runs);
                        let got = got.map(|()| flatten(&runs));
                        let want = models[r].span(h, 0, n);
                        let want = want.map(|s| models[r].bytes[s].to_vec());
                        if want.is_ok() {
                            model_free(&mut models[r], h, &mut stale).unwrap();
                        }
                        assert_eq!(got, want, "{at}: lend_and_free");
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
        assert_eq!(pages.slot_of.len(), pages.taken.len() * WORD);
        assert_eq!((pages.slots.len(), pages.spare.len()), (2, 2));
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
            .alloc_and_fill(100, |runs, _| {
                runs.push(Payload::from((0u8..100).collect::<Vec<u8>>()));
                Ok(100)
            })
            .unwrap();
        assert_eq!(filled, 100);
        // 100 bytes round up to two lines; a longer lend is refused and
        // frees nothing.
        let mut runs = Vec::new();
        assert_eq!(
            region.lend_and_free(h, 129, &mut runs),
            Err(NkError::InvalidState)
        );
        region.lend_and_free(h, 10, &mut runs).unwrap();
        let sum = flatten(&runs).iter().map(|&b| u32::from(b)).sum::<u32>();
        assert_eq!(sum, 45);
        assert_eq!(region.stats().chunks, 0);
        assert_eq!(
            region.lend_and_free(h, 1, &mut runs),
            Err(NkError::NotFound)
        );
        assert_eq!(
            region.lend_and_free(DataHandle::NULL, 0, &mut runs),
            Err(NkError::NotFound)
        );
    }

    #[test]
    fn a_failed_fill_frees_its_chunk() {
        let region = HugepageRegion::with_capacity(4096);
        let keep = region.alloc_and_write(b"head").unwrap();
        let got = region.alloc_and_fill(100, |runs, _| {
            runs.push(Payload::from(vec![9; 100]));
            Err::<(), _>(NkError::WouldBlock)
        });
        assert_eq!(got, Err(NkError::WouldBlock));
        let stats = region.stats();
        assert_eq!((stats.chunks, stats.used, stats.total_allocs), (1, 64, 2));
        // The freed lines are handed out again.
        assert_eq!(alloc(&region, 100).unwrap().offset(), 64);
        region.free(keep).unwrap();
    }

    /// A fill no free run can hold takes the longest one instead, so a
    /// region refuses a fill only when it is full; an exact allocation of
    /// the same size is refused.
    #[test]
    fn a_fill_takes_the_longest_free_run_when_none_fits() {
        let region = HugepageRegion::with_capacity(1024);
        let chunks: Vec<_> = (0..8).map(|_| alloc(&region, 128).unwrap()).collect();
        // Free runs of 128 bytes at 128 and of 256 bytes at 512.
        for &h in &[chunks[1], chunks[4], chunks[5]] {
            region.free(h).unwrap();
        }
        assert_eq!(alloc(&region, 300), Err(NkError::OutOfHugepages));
        let (h, n) = region.alloc_and_fill(300, |_, n| Ok(n)).unwrap();
        assert_eq!((h.offset(), n), (512, 256));
        let (h, n) = region.alloc_and_fill(300, |_, n| Ok(n)).unwrap();
        assert_eq!((h.offset(), n), (128, 128));
        assert_eq!(
            region.alloc_and_fill(1, |_, n| Ok(n)),
            Err(NkError::OutOfHugepages)
        );
        let stats = region.stats();
        assert_eq!((stats.used, stats.failed_allocs), (1024, 2));
    }

    /// A chunk's bytes past what it was written with read as zero, never
    /// as what an earlier chunk on the same lines held.
    #[test]
    fn a_reused_line_never_shows_an_earlier_chunks_bytes() {
        let region = HugepageRegion::with_capacity(4096);
        let old = region.alloc_and_write(&[0xAA; 128]).unwrap();
        region.free(old).unwrap();
        let new = region.alloc_and_write(&[1, 2]).unwrap();
        assert_eq!(new, old, "first fit hands the same line out again");
        let mut out = [0xFF; 64];
        region.read(new, &mut out).unwrap();
        let mut want = [0u8; 64];
        want[..2].copy_from_slice(&[1, 2]);
        assert_eq!(out, want);
        // A lend of the whole line hands the same zeros to the stack.
        let mut runs = Vec::new();
        region.lend_and_free(new, 64, &mut runs).unwrap();
        assert_eq!(flatten(&runs), want);
    }

    /// The runs of a live chunk, by reference.
    fn runs_of(region: &HugepageRegion, h: DataHandle) -> Vec<Payload> {
        region.lock().span(h, 0, 0).unwrap().clone()
    }

    /// The NSM hops copy nothing: `lend_and_free` hands out the very run
    /// `alloc_and_write` made, and `alloc_and_fill` lands it in a chunk of
    /// another region, as the shared-memory NSM's stack carries it.
    #[test]
    fn the_hops_move_the_run_alloc_and_write_made() {
        let (a, b) = (
            HugepageRegion::with_capacity(4096),
            HugepageRegion::with_capacity(4096),
        );
        let h = a.alloc_and_write(&[7; 1000]).unwrap();
        let made = runs_of(&a, h);
        assert_eq!(made.len(), 1);
        let mut runs = Vec::new();
        a.lend_and_free(h, 600, &mut runs).unwrap();
        assert_eq!(runs.len(), 1);
        assert!(runs[0].shares_buffer(&made[0]) && runs[0].len() == 600);
        let (h, n) = b
            .alloc_and_fill(600, |out, _| {
                out.append(&mut runs);
                Ok(600)
            })
            .unwrap();
        assert!(runs_of(&b, h)[0].shares_buffer(&made[0]));
        assert_eq!(runs_of(&b, h)[0][..], [7; 600]);
        assert_eq!(n, 600);
        b.free(h).unwrap();
        assert_eq!((a.stats().chunks, b.stats().chunks), (0, 0));
    }

    /// A guest write never lands in a buffer a run still points into: a run
    /// of chunk A held past A's free keeps its bytes while chunk B of the
    /// same size class gets another buffer; once let go, the buffer serves
    /// the next write.
    #[test]
    fn a_held_run_keeps_its_buffer_from_the_next_write() {
        let region = HugepageRegion::with_capacity(1 << 20);
        let a = region.alloc_and_write(&[0xA; 16 << 10]).unwrap();
        let mut held = Vec::new();
        region.lend_and_free(a, 16 << 10, &mut held).unwrap();
        let b = region.alloc_and_write(&[0xB; 16 << 10]).unwrap();
        let mut b_runs = Vec::new();
        region.lend_and_free(b, 16 << 10, &mut b_runs).unwrap();
        assert!(!b_runs[0].shares_buffer(&held[0]), "B got another buffer");
        assert_eq!(held[0][..], [0xA; 16 << 10], "A's bytes are unchanged");
        assert_eq!(b_runs[0][..], [0xB; 16 << 10]);
        let a_buf = held[0].buffer().unwrap().as_ptr();
        drop(held);
        let c = region.alloc_and_write(&[0xC; 10_000]).unwrap();
        assert_eq!(runs_of(&region, c)[0].buffer().unwrap().as_ptr(), a_buf);
        let mut out = vec![0; 10_000];
        region.read_and_free(c, 0, &mut out).unwrap();
        assert_eq!(out, [0xC; 10_000]);
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
