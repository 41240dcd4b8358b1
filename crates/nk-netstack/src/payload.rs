//! The byte queues built from shared payload runs.
//!
//! Bytes are immutable from the moment `write` accepts them, so a data
//! segment never needs its own copy: the send queue, the segment on the
//! wire, the out-of-order stash and the receive queue all point into the
//! run the `write` created ([`Payload`], which lives in `nk-types` so that a
//! hugepage chunk can hold runs too).

pub use nk_types::Payload;
use nk_types::Recycler;
use std::collections::VecDeque;

/// Pushes shorter than this coalesce in the queue's open tail; the tail
/// becomes a run when it reaches this size. Larger pushes are their own run.
const OPEN_RUN: usize = 2048;

/// A FIFO of bytes held as [`Payload`] runs: the send buffer, and the
/// receive buffer. Memory follows the bytes held, not the number of pushes:
/// small pushes gather in an open tail that is frozen into a run when it
/// reaches [`OPEN_RUN`] bytes or when [`ByteQueue::range`] first hands part
/// of it out. Capacity outlives the bytes: [`ByteQueue::clear`] keeps the run
/// table and the open tail, so a connection slot the stack recycles hands
/// them to its next connection instead of allocating them again.
#[derive(Default)]
pub(crate) struct ByteQueue {
    runs: VecDeque<Payload>,
    /// Bytes behind the last run, still growing.
    open: Vec<u8>,
    /// Bytes held: all runs plus the open tail.
    len: usize,
    /// Where the last [`ByteQueue::range`] began: a run's index and the
    /// queue offset of its first byte ([`ByteQueue::seek`] walks on from
    /// here).
    cursor: (usize, usize),
}

impl ByteQueue {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Run-table slots and open-tail bytes held, whatever the bytes.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.runs.capacity() + self.open.capacity()
    }

    /// Forget every byte but keep the capacity of the run table and the
    /// open tail.
    pub(crate) fn clear(&mut self) {
        self.runs.clear();
        self.open.clear();
        self.len = 0;
        self.cursor = (0, 0);
    }

    /// Append a run, by reference. A run that continues the last one in
    /// its buffer extends it, so the in-order segments of one write land
    /// as one run. Only a send queue gathers, and its own appends
    /// ([`ByteQueue::write`], [`ByteQueue::append`]) freeze the open tail
    /// first, so a throwaway recycler serves the freeze here.
    pub(crate) fn push(&mut self, run: Payload) {
        if run.is_empty() {
            return;
        }
        self.freeze(&mut Recycler::default());
        self.len += run.len();
        if !self
            .runs
            .back_mut()
            .is_some_and(|last| last.extend_with(&run))
        {
            self.runs.push_back(run);
        }
    }

    /// Append `run`, by reference when it is a run's worth ([`OPEN_RUN`]
    /// bytes or more) or when it follows one (or nothing): a lone short
    /// message rides in its own buffer. A short run behind a short run is
    /// copied into the open tail as [`ByteQueue::write`] would, so a stream
    /// of small writes still costs a run per [`OPEN_RUN`] bytes, not one
    /// per write.
    pub(crate) fn append(&mut self, run: Payload, recycler: &mut Recycler) {
        let after_short =
            !self.open.is_empty() || self.runs.back().is_some_and(|last| last.len() < OPEN_RUN);
        if run.len() >= OPEN_RUN || !after_short {
            self.freeze(recycler);
            self.push(run);
        } else {
            self.gather(&run, recycler);
        }
    }

    /// Append a copy of `bytes`: the one copy a byte pays on its way in. A
    /// run's worth lands in a buffer `recycler` lends; less gathers in the
    /// open tail.
    pub(crate) fn write(&mut self, bytes: &[u8], recycler: &mut Recycler) {
        if bytes.len() >= OPEN_RUN {
            self.freeze(recycler);
            self.push(recycler.write(bytes));
        } else {
            self.gather(bytes, recycler);
        }
    }

    /// Copy `bytes`, shorter than a run, into the open tail.
    fn gather(&mut self, bytes: &[u8], recycler: &mut Recycler) {
        self.open.extend_from_slice(bytes);
        self.len += bytes.len();
        if self.open.len() >= OPEN_RUN {
            self.freeze(recycler);
        }
    }

    /// Turn the open tail into a run, in a buffer `recycler` lends.
    fn freeze(&mut self, recycler: &mut Recycler) {
        if !self.open.is_empty() {
            self.runs.push_back(recycler.write(&self.open));
            self.open.clear();
        }
    }

    /// Make the first `end` bytes lie in runs.
    fn freeze_to(&mut self, end: usize, recycler: &mut Recycler) {
        assert!(end <= self.len);
        if end > self.len - self.open.len() {
            self.freeze(recycler);
        }
    }

    /// Take the first `n` bytes off the front, handing each to `each` by
    /// move, front to back: whole runs are popped, and the run the cut
    /// falls in gives up its head. A send queue froze every byte it sent,
    /// and a receive queue never gathers, so only an ACK for bytes never
    /// sent freezes here, through a throwaway recycler.
    fn take(&mut self, n: usize, mut each: impl FnMut(Payload)) {
        self.freeze_to(n, &mut Recycler::default());
        self.len -= n;
        let (mut left, mut popped) = (n, 0);
        while left > 0 {
            let front = self.runs.front_mut().expect("runs hold `len` bytes");
            if left < front.len() {
                each(front.take_front(left));
                break;
            }
            left -= front.len();
            each(self.runs.pop_front().expect("front just seen"));
            popped += 1;
        }
        let (idx, base) = self.cursor;
        self.cursor = match idx.checked_sub(popped) {
            Some(idx) if idx > 0 => (idx, base - n),
            _ => (0, 0),
        };
    }

    /// Drop the first `n` bytes.
    pub(crate) fn consume(&mut self, n: usize) {
        self.take(n, drop);
    }

    /// Move up to `buf.len()` bytes from the front into `buf`; returns how
    /// many.
    pub(crate) fn read(&mut self, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.len);
        let mut at = 0;
        self.take(n, |run| {
            buf[at..at + run.len()].copy_from_slice(&run);
            at += run.len();
        });
        n
    }

    /// Move up to `max` bytes from the front onto `out` as runs, by
    /// reference; returns how many.
    pub(crate) fn read_runs(&mut self, max: usize, out: &mut Vec<Payload>) -> usize {
        let n = max.min(self.len);
        self.take(n, |run| out.push(run));
        n
    }

    /// The index of the run holding `offset`, and `offset` within it. The
    /// walk starts where the last one ended, so a sender working its way
    /// through many small runs pays for each once.
    fn seek(&mut self, offset: usize) -> (usize, usize) {
        let (mut idx, mut base) = self.cursor;
        if offset < base {
            (idx, base) = (0, 0); // a rewind: go-back-N re-reads from the front
        }
        while offset >= base + self.runs[idx].len() {
            base += self.runs[idx].len();
            idx += 1;
        }
        self.cursor = (idx, base);
        (idx, offset - base)
    }

    /// The `len` bytes from `offset` on as one payload: a slice of the run
    /// when they lie inside one, else gathered across the seam into a
    /// buffer `recycler` lends.
    pub(crate) fn range(&mut self, offset: usize, len: usize, recycler: &mut Recycler) -> Payload {
        self.freeze_to(offset + len, recycler);
        if len == 0 {
            return Payload::default();
        }
        let (idx, at) = self.seek(offset);
        let run = &self.runs[idx];
        if at + len <= run.len() {
            return run.slice(at..at + len);
        }
        recycler.write_with(len, |dst| {
            let (mut filled, mut skip) = (0, at);
            for run in self.runs.range(idx..) {
                if filled == len {
                    break;
                }
                let take = (run.len() - skip).min(len - filled);
                dst[filled..filled + take].copy_from_slice(&run[skip..skip + take]);
                filled += take;
                skip = 0;
            }
        })
    }

    /// As many whole `unit`s from `offset` on as lie in the run holding it,
    /// at most `max` bytes, as one slice of that run: a train's pieces in
    /// one cut. When less than one unit lies there, the one unit from
    /// `offset` on, gathered across the seam ([`ByteQueue::range`]).
    pub(crate) fn range_units(
        &mut self,
        offset: usize,
        unit: usize,
        max: usize,
        recycler: &mut Recycler,
    ) -> Payload {
        assert!(unit > 0 && max >= unit);
        self.freeze_to(offset + unit, recycler);
        let (idx, at) = self.seek(offset);
        let run = &self.runs[idx];
        let units = (run.len() - at).min(max) / unit;
        if units == 0 {
            return self.range(offset, unit, recycler);
        }
        run.slice(at..at + units * unit)
    }

    /// Every byte held, flattened (the snapshot format).
    pub(crate) fn to_vec(&self) -> Vec<u8> {
        let mut flat = Vec::with_capacity(self.len);
        for run in &self.runs {
            flat.extend_from_slice(run);
        }
        flat.extend_from_slice(&self.open);
        flat
    }

    /// The frozen runs, front to back.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> impl Iterator<Item = &Payload> {
        self.runs.iter()
    }

    /// Payload bytes this queue keeps alive: the buffers behind its runs
    /// (each counted once) and the open tail's bytes.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        let mut buffers: Vec<(*const u8, usize)> = (self.runs.iter())
            .filter_map(Payload::buffer)
            .map(|buf| (buf.as_ptr(), buf.len()))
            .collect();
        buffers.sort_unstable();
        buffers.dedup();
        buffers.iter().map(|(_, len)| len).sum::<usize>() + self.open.len()
    }

    /// Heap bytes this queue keeps: the bytes it holds plus the capacity of
    /// the open tail and the run table.
    #[cfg(test)]
    pub(crate) fn storage_bytes(&self) -> usize {
        self.held_bytes() - self.open.len()
            + self.open.capacity()
            + self.runs.capacity() * std::mem::size_of::<Payload>()
    }
}

impl From<&[u8]> for ByteQueue {
    fn from(bytes: &[u8]) -> Self {
        let mut queue = ByteQueue::default();
        queue.push(Payload::from(bytes));
        queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every operation against a flat `Vec<u8>`: small and large writes
    /// and appends, pushed runs of a few bytes (so one `range` gathers
    /// across many seams) and pushed slices of one buffer in order (which
    /// extend the last run), reads that copy or hand out runs and consumes
    /// that pop runs from under the cursor, and ranges that mostly walk
    /// forward and sometimes rewind: of a length, or of whole units up to a
    /// cap, which take all the units the run holds up to the cap in one
    /// slice and gather one unit across a seam.
    #[test]
    fn byte_queue_matches_a_flat_model() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: usize| {
            rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((rng >> 33) % n as u64) as usize
        };
        let (mut queue, mut model) = (ByteQueue::default(), Vec::<u8>::new());
        let mut recycler = Recycler::default();
        let (mut next, mut at) = (0u8, 0usize);
        let (mut inside, mut gathered, mut units) = (0usize, 0usize, [0usize; 3]);
        let (mut source, mut cut) = (Payload::default(), 0usize);
        let mut bytes = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| (next = next.wrapping_add(1), next).1)
                .collect()
        };
        for _ in 0..20_000 {
            match below(8) {
                0 => {
                    let data = bytes([1, 7, 60, 300, OPEN_RUN - 1, OPEN_RUN][below(6)]);
                    if below(2) == 0 {
                        queue.write(&data, &mut recycler);
                    } else {
                        queue.append(Payload::from(&data[..]), &mut recycler);
                    }
                    model.extend_from_slice(&data);
                }
                1 => {
                    let data = bytes(1 + below(6));
                    queue.push(Payload::from(&data[..]));
                    model.extend_from_slice(&data);
                }
                2 => {
                    if cut == source.len() {
                        (source, cut) = (Payload::from(bytes(64)), 0);
                    }
                    let end = (cut + 1 + below(12)).min(source.len());
                    queue.push(source.slice(cut..end));
                    model.extend_from_slice(&source[cut..end]);
                    cut = end;
                }
                3 => {
                    let n = below(model.len().min(400) + 1);
                    queue.consume(n);
                    model.drain(..n);
                    at = at.saturating_sub(n);
                }
                4 => {
                    let max = below(400);
                    let mut buf = vec![0u8; max];
                    let n = if below(2) == 0 {
                        queue.read(&mut buf)
                    } else {
                        let mut runs = Vec::new();
                        let n = queue.read_runs(max, &mut runs);
                        buf = runs.iter().flat_map(|run| run.iter().copied()).collect();
                        assert_eq!(buf.len(), n);
                        n
                    };
                    assert_eq!(buf[..n], model[..n]);
                    assert_eq!(n, max.min(model.len()));
                    model.drain(..n);
                    at = at.saturating_sub(n);
                }
                _ => {
                    if below(16) == 0 {
                        at = 0; // go-back-N
                    }
                    let unit = [1, 7, 64, 300][below(4)];
                    let got = if below(2) == 0 || at + unit > model.len() {
                        let len = below(300).min(model.len() - at);
                        queue.range(at, len, &mut recycler)
                    } else {
                        let max = unit * (1 + below(4)) + below(unit);
                        let got = queue.range_units(at, unit, max, &mut recycler);
                        let (mut skip, mut runs) = (at, queue.runs());
                        let left_in_run = loop {
                            let len = runs.next().expect("the run holding `at`").len();
                            if skip < len {
                                break len - skip;
                            }
                            skip -= len;
                        };
                        let want = if left_in_run < unit {
                            unit
                        } else {
                            left_in_run.min(max) / unit * unit
                        };
                        assert_eq!(
                            got.len(),
                            want,
                            "{left_in_run} left, unit {unit}, max {max}"
                        );
                        units[usize::from(left_in_run >= unit) + usize::from(got.len() > unit)] +=
                            1;
                        got
                    };
                    let len = got.len();
                    assert_eq!(got[..], model[at..at + len]);
                    let lent = queue.runs().any(|run| run.shares_buffer(&got));
                    inside += usize::from(lent);
                    gathered += usize::from(len > 0 && !lent);
                    at += len;
                }
            }
            assert_eq!(
                (queue.len(), queue.is_empty()),
                (model.len(), model.is_empty())
            );
        }
        assert_eq!(queue.to_vec(), model);
        assert!(inside > 500 && gathered > 500, "{inside} / {gathered}");
        assert!(
            units.iter().all(|&n| n > 100),
            "gathered, one unit, several: {units:?}"
        );
    }

    /// A piece gathered across a seam, and the open tail once a piece
    /// reaches into it, are copied into buffers of the recycler: a buffer
    /// an earlier piece let go of comes back, and one a held piece points
    /// into is never rewritten.
    #[test]
    fn a_gathered_piece_takes_a_recycled_buffer() {
        let (mut queue, mut recycler) = (ByteQueue::default(), Recycler::default());
        for i in 0..4u8 {
            queue.push(Payload::from(vec![i; 1000]));
        }
        let ptr = |run: &Payload| run.buffer().expect("a buffer").as_ptr();
        let seam = |i: u8| [[i; 500], [i + 1; 500]].concat();
        let first = queue.range(500, 1000, &mut recycler);
        let held = queue.range(1500, 1000, &mut recycler);
        assert_ne!(ptr(&held), ptr(&first), "the first is still held");
        let lent = |piece: &Payload| queue.runs().any(|run| run.shares_buffer(piece));
        assert!(!lent(&first) && !lent(&held), "gathered, not sliced");
        let first_buf = ptr(&first);
        drop(first);
        let third = queue.range(2500, 1000, &mut recycler);
        assert_eq!(ptr(&third), first_buf, "let go, so taken again");
        assert_eq!((&held[..], &third[..]), (&seam(1)[..], &seam(2)[..]));

        let held_buf = ptr(&held);
        drop(held);
        queue.write(&[4; 900], &mut recycler);
        assert_eq!(queue.runs().count(), 4, "the tail is open");
        let last = queue.range(3500, 1000, &mut recycler);
        let tail = queue.runs().last().expect("the frozen tail");
        assert_eq!(
            (tail.len(), ptr(tail)),
            (900, held_buf),
            "frozen into a let-go buffer"
        );
        assert!(
            ![first_buf, held_buf].contains(&ptr(&last)),
            "the third is still held"
        );
        assert_eq!((&third[..], &last[..]), (&seam(2)[..], &seam(3)[..]));
    }

    /// The in-order segments of one 16 KiB write land in the receive queue
    /// as one run of the write's buffer. Runs of two buffers stay two, even
    /// when one ends at the offset where the other starts.
    #[test]
    fn push_coalesces_one_writes_segments_but_never_two_buffers() {
        let write: Vec<u8> = (0..16 << 10).map(|i| (i % 251) as u8).collect();
        let write = Payload::from(write);
        let mut queue = ByteQueue::default();
        for at in (0..write.len()).step_by(1460) {
            queue.push(write.slice(at..(at + 1460).min(write.len())));
        }
        assert_eq!(queue.runs().count(), 1);
        assert!(queue.runs().all(|run| run.shares_buffer(&write)));
        assert_eq!(queue.to_vec(), write[..]);

        let (a, b) = (Payload::from(vec![1u8; 100]), Payload::from(vec![2u8; 100]));
        let mut queue = ByteQueue::default();
        queue.push(a.slice(0..50));
        queue.push(b.slice(50..100));
        assert_eq!(queue.runs().count(), 2);
        let mut want = vec![1u8; 50];
        want.extend([2u8; 50]);
        assert_eq!(queue.to_vec(), want);
        let mut runs = Vec::new();
        assert_eq!(queue.read_runs(80, &mut runs), 80);
        assert!(runs[0].shares_buffer(&a) && runs[1].shares_buffer(&b));
        assert_eq!((runs[0].len(), runs[1].len(), queue.len()), (50, 30, 20));
    }
}
