//! Payload bytes shared by reference, and the byte queues built from them.
//!
//! Bytes are immutable from the moment `write` accepts them, so a data
//! segment never needs its own copy: a [`Payload`] is a reference-counted
//! buffer plus a range, and the send queue, the segment on the wire, the
//! out-of-order stash and the receive queue all point into the run the
//! `write` created.

use std::collections::VecDeque;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable run of payload bytes: a shared buffer and a range of it.
/// Cloning and slicing bump a reference count; the empty payload (every
/// control segment's) holds no buffer at all.
#[derive(Clone, Default)]
pub struct Payload {
    buf: Option<Arc<[u8]>>,
    start: u32,
    end: u32,
}

impl Payload {
    /// The whole of a buffer nothing else refers to yet.
    fn whole(buf: Arc<[u8]>) -> Payload {
        let end = u32::try_from(buf.len()).expect("a run is bounded by a socket buffer");
        Payload {
            buf: Some(buf),
            start: 0,
            end,
        }
    }

    /// The sub-run `range` (relative to this one), sharing the buffer.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(range.start <= range.end && range.end <= self.len());
        if range.is_empty() {
            return Payload::default();
        }
        Payload {
            buf: self.buf.clone(),
            start: self.start + range.start as u32,
            end: self.start + range.end as u32,
        }
    }

    /// True when both runs point into one buffer.
    #[cfg(test)]
    pub(crate) fn shares_buffer(&self, other: &Payload) -> bool {
        matches!((&self.buf, &other.buf), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.buf {
            Some(buf) => &buf[self.start as usize..self.end as usize],
            None => &[],
        }
    }
}

/// Copies `bytes` once, into a fresh buffer of exactly that size.
impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        if bytes.is_empty() {
            return Payload::default();
        }
        Payload::whole(Arc::from(bytes))
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload::from(&bytes[..])
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Payload {}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self[..].fmt(f)
    }
}

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
    /// queue offset of its first byte. `range` walks on from here, so a
    /// sender working its way through many small runs pays for each once.
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

    /// Append a run, by reference.
    pub(crate) fn push(&mut self, run: Payload) {
        if !run.is_empty() {
            self.freeze();
            self.len += run.len();
            self.runs.push_back(run);
        }
    }

    /// Append a copy of `bytes`: the one copy a byte pays on its way in.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        if bytes.len() >= OPEN_RUN {
            self.push(Payload::from(bytes));
            return;
        }
        self.open.extend_from_slice(bytes);
        self.len += bytes.len();
        if self.open.len() >= OPEN_RUN {
            self.freeze();
        }
    }

    /// Turn the open tail into a run.
    fn freeze(&mut self) {
        if !self.open.is_empty() {
            self.runs.push_back(Payload::from(&self.open[..]));
            self.open.clear();
        }
    }

    /// Make the first `end` bytes lie in runs.
    fn freeze_to(&mut self, end: usize) {
        assert!(end <= self.len);
        if end > self.len - self.open.len() {
            self.freeze();
        }
    }

    /// Drop the first `n` bytes: whole runs are popped, the next is trimmed.
    pub(crate) fn consume(&mut self, n: usize) {
        self.freeze_to(n);
        self.len -= n;
        let (mut left, mut popped) = (n, 0);
        while left > 0 {
            let front = self.runs.front_mut().expect("runs hold `len` bytes");
            if left < front.len() {
                *front = front.slice(left..front.len());
                break;
            }
            left -= front.len();
            self.runs.pop_front();
            popped += 1;
        }
        let (idx, base) = self.cursor;
        self.cursor = match idx.checked_sub(popped) {
            Some(idx) if idx > 0 => (idx, base - n),
            _ => (0, 0),
        };
    }

    /// Move up to `buf.len()` bytes from the front into `buf`; returns how
    /// many.
    pub(crate) fn read(&mut self, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.len);
        self.freeze_to(n);
        let mut at = 0;
        for run in &self.runs {
            if at == n {
                break;
            }
            let take = run.len().min(n - at);
            buf[at..at + take].copy_from_slice(&run[..take]);
            at += take;
        }
        self.consume(n);
        n
    }

    /// The `len` bytes from `offset` on as one payload: a slice of the run
    /// when they lie inside one, a gathered copy when they straddle a seam.
    pub(crate) fn range(&mut self, offset: usize, len: usize) -> Payload {
        self.freeze_to(offset + len);
        if len == 0 {
            return Payload::default();
        }
        let (mut idx, mut base) = self.cursor;
        if offset < base {
            (idx, base) = (0, 0); // a rewind: go-back-N re-reads from the front
        }
        while offset >= base + self.runs[idx].len() {
            base += self.runs[idx].len();
            idx += 1;
        }
        self.cursor = (idx, base);
        let at = offset - base;
        let run = &self.runs[idx];
        if at + len <= run.len() {
            return run.slice(at..at + len);
        }
        let mut gathered: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        let dst = Arc::get_mut(&mut gathered).expect("not yet shared");
        let mut filled = 0;
        let mut skip = at;
        for run in self.runs.range(idx..) {
            if filled == len {
                break;
            }
            let take = (run.len() - skip).min(len - filled);
            dst[filled..filled + take].copy_from_slice(&run[skip..skip + take]);
            filled += take;
            skip = 0;
        }
        Payload::whole(gathered)
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
            .filter_map(|run| run.buf.as_ref())
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

    #[test]
    fn slices_share_the_buffer_and_the_empty_payload_holds_none() {
        let whole = Payload::from(vec![1u8, 2, 3, 4, 5]);
        let mid = whole.slice(1..4);
        assert_eq!(mid[..], [2, 3, 4]);
        assert!(mid.shares_buffer(&whole) && mid.slice(1..2).shares_buffer(&whole));
        assert_eq!(mid.slice(1..2)[..], [3]);
        assert_eq!(mid, Payload::from(&[2u8, 3, 4][..]), "equal by bytes");
        assert_eq!(format!("{mid:?}"), "[2, 3, 4]");
        for empty in [
            Payload::default(),
            Payload::from(Vec::new()),
            mid.slice(2..2),
        ] {
            assert!(empty.is_empty() && empty.buf.is_none());
        }
    }

    /// Every operation against a flat `Vec<u8>`: small and large writes,
    /// pushed runs of a few bytes (so one `range` gathers across many
    /// seams), reads and consumes that pop runs from under the cursor, and
    /// ranges that mostly walk forward and sometimes rewind.
    #[test]
    fn byte_queue_matches_a_flat_model() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: usize| {
            rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((rng >> 33) % n as u64) as usize
        };
        let (mut queue, mut model) = (ByteQueue::default(), Vec::<u8>::new());
        let (mut next, mut at) = (0u8, 0usize);
        let (mut inside, mut gathered) = (0usize, 0usize);
        let mut bytes = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| (next = next.wrapping_add(1), next).1)
                .collect()
        };
        for _ in 0..20_000 {
            match below(8) {
                0 => {
                    let data = bytes([1, 7, 60, 300, OPEN_RUN - 1, OPEN_RUN][below(6)]);
                    queue.write(&data);
                    model.extend_from_slice(&data);
                }
                1 | 2 => {
                    let data = bytes(1 + below(6));
                    queue.push(Payload::from(&data[..]));
                    model.extend_from_slice(&data);
                }
                3 => {
                    let n = below(model.len().min(400) + 1);
                    queue.consume(n);
                    model.drain(..n);
                    at = at.saturating_sub(n);
                }
                4 => {
                    let mut buf = vec![0u8; below(400)];
                    let n = queue.read(&mut buf);
                    assert_eq!(buf[..n], model[..n]);
                    assert_eq!(n, buf.len().min(model.len()));
                    model.drain(..n);
                    at = at.saturating_sub(n);
                }
                _ => {
                    if below(16) == 0 {
                        at = 0; // go-back-N
                    }
                    let len = below(300).min(model.len() - at);
                    let got = queue.range(at, len);
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
    }
}
