//! Payload bytes shared by reference, and the buffers they are written into.
//!
//! Bytes are immutable from the moment a run is made, so no hop that only
//! moves them needs its own copy: a [`Payload`] is a reference-counted
//! buffer plus a range, and a hugepage chunk, a stack's send queue, the
//! segment on the wire, the out-of-order stash and the receive queue all
//! point into the run its writer made. A [`Recycler`] hands a writer a
//! buffer the last run into it has let go of, so a steady stream of writes
//! of one size allocates nothing.

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
    /// The first `len` bytes of `buf`.
    #[inline]
    fn prefix(buf: Arc<[u8]>, len: usize) -> Payload {
        assert!(len <= buf.len());
        if len == 0 {
            return Payload::default();
        }
        let end = u32::try_from(len).expect("a run is bounded by a socket buffer");
        Payload {
            buf: Some(buf),
            start: 0,
            end,
        }
    }

    /// `len` bytes that `fill` writes, in a buffer of exactly that size.
    fn own(len: usize, fill: impl FnOnce(&mut [u8])) -> Payload {
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        fill(Arc::get_mut(&mut buf).expect("not yet shared"));
        Payload::prefix(buf, len)
    }

    /// Bytes in the run.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True for a run of no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The sub-run `range` (relative to this one), sharing the buffer.
    #[inline]
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

    /// The first `n` bytes of this run, taken off it: this run keeps the
    /// rest. Taking all of it moves the buffer out, leaving the empty run.
    #[inline]
    pub fn take_front(&mut self, n: usize) -> Payload {
        if n == self.len() {
            return std::mem::take(self);
        }
        let head = self.slice(0..n);
        self.start += n as u32;
        head
    }

    /// True when both runs point into one buffer.
    #[inline]
    pub fn shares_buffer(&self, other: &Payload) -> bool {
        matches!((&self.buf, &other.buf), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// The whole buffer this run points into (`None` for the empty run).
    pub fn buffer(&self) -> Option<&Arc<[u8]>> {
        self.buf.as_ref()
    }

    /// Grow this run by `next` when `next` continues it: the same buffer,
    /// from the offset this run ends at. Returns whether it did.
    #[inline]
    pub fn extend_with(&mut self, next: &Payload) -> bool {
        if self.shares_buffer(next) && self.end == next.start {
            self.end = next.end;
            return true;
        }
        false
    }
}

impl Deref for Payload {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.buf {
            Some(buf) => &buf[self.start as usize..self.end as usize],
            None => &[],
        }
    }
}

/// The whole of a buffer, by reference.
impl From<Arc<[u8]>> for Payload {
    #[inline]
    fn from(buf: Arc<[u8]>) -> Self {
        let len = buf.len();
        Payload::prefix(buf, len)
    }
}

/// Copies `bytes` once, into a fresh buffer of exactly that size.
impl From<&[u8]> for Payload {
    #[inline]
    fn from(bytes: &[u8]) -> Self {
        if bytes.is_empty() {
            return Payload::default();
        }
        Payload::from(Arc::<[u8]>::from(bytes))
    }
}

impl From<Vec<u8>> for Payload {
    #[inline]
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

/// The smallest buffer a [`Recycler`] keeps: one 64-byte line.
const MIN_CLASS: u32 = 6;
/// The largest buffer a [`Recycler`] keeps: 64 KiB. A longer write gets a
/// buffer of its own.
const MAX_CLASS: u32 = 16;

/// Buffers a [`Recycler`] tracks per size class. Past it a write allocates
/// a buffer the recycler does not keep. Worst-case retention is this many
/// buffers of every class from 64 B to 64 KiB: 256 × (128 KiB − 64 B)
/// ≈ 32 MiB per recycler, of which 16 MiB in the 64 KiB class; a workload
/// keeps only the classes it writes, as many as it held at once. It sits
/// above a bulk echo's buffers in flight (a 16 KiB write is held by the
/// guest's send budget, the stack's send queue and the peer's receive
/// queue: ~48 per connection at 256 KiB buffers); 64 per class was not.
pub const RECYCLED_PER_CLASS: usize = 256;

/// Write buffers that come back: one FIFO of buffers per power-of-two size
/// class from 64 B to 64 KiB. A write takes the class's oldest buffer when
/// no run points into it any more (`Arc::get_mut` says so) and moves it to
/// the back; else it allocates one and appends it. Buffers written in turn
/// are mostly let go of in turn, so the front is the likeliest to be free.
/// Not thread-local and with no drop hook: a buffer let go of anywhere is
/// found by the next write of its class.
#[derive(Default)]
pub struct Recycler {
    /// Indexed by class − [`MIN_CLASS`]; grown to the largest class used.
    rings: Vec<VecDeque<Arc<[u8]>>>,
}

impl Recycler {
    /// A copy of `bytes` as one run: of the class's oldest buffer when it
    /// is free, else of a fresh one, which the class keeps while it tracks
    /// fewer than [`RECYCLED_PER_CLASS`]. A write longer than the largest
    /// class, or past the bound, gets a buffer of its own.
    pub fn write(&mut self, bytes: &[u8]) -> Payload {
        self.write_with(bytes.len(), |dst| dst.copy_from_slice(bytes))
    }

    /// A run of `len` bytes that `fill` writes, in a buffer picked as
    /// [`Recycler::write`] picks one. `fill` gets exactly `len` bytes, with
    /// whatever the buffer held before, and must write all of them.
    pub fn write_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> Payload {
        if len == 0 {
            return Payload::default();
        }
        let class = len.next_power_of_two().trailing_zeros().max(MIN_CLASS);
        if class > MAX_CLASS {
            return Payload::own(len, fill);
        }
        let at = (class - MIN_CLASS) as usize;
        if self.rings.len() <= at {
            self.rings.resize_with(at + 1, VecDeque::new);
        }
        let ring = &mut self.rings[at];
        if let Some(front) = ring.front_mut().and_then(Arc::get_mut) {
            fill(&mut front[..len]);
            ring.rotate_left(1);
        } else if ring.len() < RECYCLED_PER_CLASS {
            let mut buf: Arc<[u8]> = std::iter::repeat_n(0, 1 << class).collect();
            fill(&mut Arc::get_mut(&mut buf).expect("not yet shared")[..len]);
            ring.push_back(buf);
        } else {
            // A buffer held for long at the front must not stop the ones
            // behind it from coming back.
            ring.rotate_left(1);
            return Payload::own(len, fill);
        }
        let buf = ring.back().expect("just written").clone();
        Payload::prefix(buf, len)
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
            Payload::from(Arc::<[u8]>::from(&[][..])),
            mid.slice(2..2),
        ] {
            assert!(empty.is_empty() && empty.buf.is_none() && empty.buffer().is_none());
        }
    }

    #[test]
    fn a_run_extends_only_with_its_continuation_and_gives_up_its_head() {
        let whole = Payload::from(vec![1u8, 2, 3, 4, 5]);
        let mut run = whole.slice(0..2);
        assert!(!run.extend_with(&whole.slice(3..5)), "a gap");
        let twin = Payload::from(vec![1u8, 2, 3, 4, 5]);
        assert!(!run.extend_with(&twin.slice(2..4)), "another buffer");
        assert!(run.extend_with(&whole.slice(2..4)));
        assert_eq!(run[..], [1, 2, 3, 4]);
        let head = run.take_front(1);
        assert_eq!((&head[..], &run[..]), (&[1][..], &[2, 3, 4][..]));
        assert!(head.shares_buffer(&whole) && run.shares_buffer(&whole));
        assert!(run.take_front(0).buffer().is_none());
        let rest = run.take_front(3);
        assert!(run.is_empty() && run.buffer().is_none());
        assert_eq!(rest[..], [2, 3, 4]);
    }

    /// Buffers the recycler tracks, over all classes.
    fn tracked(recycler: &Recycler) -> usize {
        recycler.rings.iter().map(VecDeque::len).sum()
    }

    fn ptr(run: &Payload) -> *const u8 {
        run.buffer().expect("a buffer").as_ptr()
    }

    /// A class's buffer comes back once nothing points into it, and never
    /// while a run does: the held run's bytes stay as written.
    #[test]
    fn a_recycled_buffer_is_reused_only_once_let_go() {
        let mut recycler = Recycler::default();
        let first = recycler.write(&[1; 100]);
        assert_eq!(first.buffer().unwrap().len(), 128, "the 128-byte class");
        let first_buf = ptr(&first);
        let second = recycler.write(&[2; 70]);
        assert_ne!(ptr(&second), first_buf, "the first is still held");
        assert_eq!((&first[..], &second[..]), (&[1; 100][..], &[2; 70][..]));
        drop(first);
        let third = recycler.write(&[3; 128]);
        assert_eq!(ptr(&third), first_buf, "let go, so taken again");
        assert_eq!(third[..], [3; 128]);
        assert_eq!(second[..], [2; 70], "still held, never rewritten");
        // Another class has a ring of its own; the empty write and one past
        // the largest class are not tracked.
        assert_eq!(recycler.write(&[4; 64]).buffer().unwrap().len(), 64);
        assert!(recycler.write(&[]).buffer().is_none());
        assert_eq!(
            recycler.write(&vec![5; (64 << 10) + 1]).len(),
            (64 << 10) + 1
        );
        assert_eq!(tracked(&recycler), 3);
    }

    /// Past [`RECYCLED_PER_CLASS`] held buffers a write allocates one the
    /// recycler forgets, and a buffer held at the front does not stop the
    /// ones behind it from coming back.
    #[test]
    fn a_class_tracks_a_bounded_number_of_buffers() {
        let mut recycler = Recycler::default();
        let mut held: Vec<Payload> = (0..RECYCLED_PER_CLASS)
            .map(|i| recycler.write(&[i as u8; 1000]))
            .collect();
        let untracked = recycler.write(&[7; 1000]);
        assert!(held.iter().all(|run| !run.shares_buffer(&untracked)));
        assert_eq!(tracked(&recycler), RECYCLED_PER_CLASS);
        let behind = ptr(&held[1]);
        held.remove(1);
        // The front (held) went to the back on the untracked write, so the
        // let-go buffer is at the front now.
        let reused = recycler.write(&[9; 1000]);
        assert_eq!(ptr(&reused), behind);
        for (i, run) in held.iter().enumerate() {
            let i = if i == 0 { 0 } else { i + 1 };
            assert_eq!(run[..], [i as u8; 1000]);
        }
    }
}
