//! A bounded single-producer / single-consumer lock-free ring buffer.
//!
//! Each NetKernel queue is "memory shared with a software switch, so it can be
//! lockless with only a single producer and a single consumer to avoid
//! expensive lock contention" (paper §3). This module implements exactly that
//! discipline: a fixed-capacity ring with one [`Producer`] handle and one
//! [`Consumer`] handle, no locks, and only `Acquire`/`Release` atomics on the
//! head and tail indices.
//!
//! The implementation follows the classic Lamport queue with owner-local
//! indices: each handle keeps its own index (and the slot it maps to) in a
//! plain field and is the only writer of the shared copy, and it caches the
//! other side's index, reloading it only when that view runs out (the
//! producer when the ring looks full, the consumer when its cached tail does
//! not cover what it wants). So a `push` or a `pop` costs one Release store,
//! plus one Acquire load only when the cached view runs out, and never a
//! division; a `pop_batch` takes its whole run and publishes it with one
//! store.
//!
//! A ring writes its slots in turn, so a ring that has carried `capacity`
//! elements has touched all of its storage. [`rewind`] starts an empty ring
//! over at slot 0 from a caller holding both ends, so a ring that is
//! drained between bursts only ever touches the slots one burst needs.

use nk_types::{NkError, NkResult};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads and aligns an index to 128 bytes so `head` and `tail` never share a
/// cache line (nor an adjacent-line prefetch pair on x86_64): the producer's
/// stores to one must not invalidate the consumer's copy of the other.
#[repr(align(128))]
struct CachePadded(AtomicUsize);

struct Inner<T> {
    /// Next slot the producer will write (monotonically increasing); only
    /// the producer stores it.
    tail: CachePadded,
    /// Next slot the consumer will read (monotonically increasing); only
    /// the consumer stores it.
    head: CachePadded,
    /// Ring storage; slot `i % capacity` is owned by the producer when
    /// `head <= i < tail + capacity` and unread data lives in `[head, tail)`.
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

// SAFETY: `Inner` is shared between exactly one producer and one consumer.
// The producer only writes slots in `[tail, head + capacity)` and the
// consumer only reads slots in `[head, tail)`; the Acquire/Release pairs on
// `head`/`tail` order those accesses, so no slot is ever accessed
// concurrently from both sides.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: the argument above, word for word: it covers sharing `&Inner`.
unsafe impl<T: Send> Sync for Inner<T> {}

/// One side's own index: the value it last published and the ring slot it
/// maps to, moved in step so no access divides.
struct Cursor {
    index: usize,
    slot: usize,
}

impl Cursor {
    /// Step one element forward on a ring of `capacity` slots.
    #[inline]
    fn advance(&mut self, capacity: usize) {
        self.index += 1;
        self.slot += 1;
        if self.slot == capacity {
            self.slot = 0;
        }
    }
}

/// Producing half of an SPSC queue. Not clonable: single producer.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// The producer's own `tail`.
    tail: Cursor,
    /// Producer's cached copy of `head`, refreshed only when the ring looks
    /// full.
    cached_head: usize,
}

/// Consuming half of an SPSC queue. Not clonable: single consumer.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// The consumer's own `head`.
    head: Cursor,
    /// Consumer's cached copy of `tail`, refreshed only when it does not
    /// cover the request: empty for `pop`, short of `max` for `pop_batch`.
    cached_tail: usize,
}

/// Create a bounded SPSC channel with room for `capacity` elements.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "SPSC queue capacity must be non-zero");
    let buf = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let inner = Arc::new(Inner {
        tail: CachePadded(AtomicUsize::new(0)),
        head: CachePadded(AtomicUsize::new(0)),
        buf,
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            tail: Cursor { index: 0, slot: 0 },
            cached_head: 0,
        },
        Consumer {
            inner,
            head: Cursor { index: 0, slot: 0 },
            cached_tail: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.inner.buf.len()
    }

    /// Push one element. Returns `Err(value)` when the ring is full, handing
    /// the value back to the caller.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let capacity = self.capacity();
        if self.tail.index - self.cached_head == capacity {
            // Looks full; refresh the cached head and re-check.
            self.cached_head = self.inner.head.0.load(Ordering::Acquire);
            if self.tail.index - self.cached_head == capacity {
                return Err(value);
            }
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "`Cursor::advance` wraps the slot at `buf.len()`"
        )]
        let slot = &self.inner.buf[self.tail.slot];
        // SAFETY: slot index `tail` is exclusively owned by the producer
        // until the Release store below publishes it; the consumer will not
        // read it before observing the new tail.
        unsafe { (*slot.get()).write(value) };
        self.tail.advance(capacity);
        self.inner.tail.0.store(self.tail.index, Ordering::Release);
        Ok(())
    }

    /// Elements pushed since the ring last started at slot 0; it has
    /// touched that many of its slots, up to its capacity.
    pub fn written(&self) -> usize {
        self.tail.index
    }
}

/// Start an empty ring over at slot 0: both cursors, both cached views and
/// both shared indices go back to 0, so the next push writes the first
/// slot again. Holding both ends, the caller is the only one touching the
/// ring. Refuses with `BadConfig` when the two ends are not of one ring,
/// and with `InvalidState` when the ring holds anything; capacity, order
/// and the full-ring rule are as before.
pub fn rewind<T>(tx: &mut Producer<T>, rx: &mut Consumer<T>) -> NkResult<()> {
    if !Arc::ptr_eq(&tx.inner, &rx.inner) {
        return Err(NkError::BadConfig);
    }
    if tx.tail.index != rx.head.index {
        return Err(NkError::InvalidState);
    }
    tx.tail = Cursor { index: 0, slot: 0 };
    tx.cached_head = 0;
    rx.head = Cursor { index: 0, slot: 0 };
    rx.cached_tail = 0;
    tx.inner.tail.0.store(0, Ordering::Release);
    tx.inner.head.0.store(0, Ordering::Release);
    Ok(())
}

impl<T> Consumer<T> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.inner.buf.len()
    }

    /// Pop one element, or `None` when the ring is empty.
    pub fn pop(&mut self) -> Option<T> {
        if self.head.index == self.cached_tail {
            // Looks empty; refresh the cached tail and re-check.
            self.cached_tail = self.inner.tail.0.load(Ordering::Acquire);
            if self.head.index == self.cached_tail {
                return None;
            }
        }
        let value = self.take();
        self.inner.head.0.store(self.head.index, Ordering::Release);
        Some(value)
    }

    /// Pop up to `max` elements into `out`; returns how many were popped.
    /// The paper's NK devices and CoreEngine batch NQEs in exactly this
    /// fashion (§4.6 "Batching").
    ///
    /// When the cached tail covers fewer than `max` elements it is reloaded
    /// once, before the run is taken, so a batch pops everything published
    /// up to `max` — what popping one element at a time until `max` or
    /// empty would pop — and not merely what the last look saw. The run is
    /// published with one Release store.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if self.cached_tail - self.head.index < max {
            self.cached_tail = self.inner.tail.0.load(Ordering::Acquire);
        }
        let n = (self.cached_tail - self.head.index).min(max);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        for _ in 0..n {
            out.push(self.take());
        }
        self.inner.head.0.store(self.head.index, Ordering::Release);
        n
    }

    /// Move the element at `head` out and step past it; the caller has
    /// checked `head < cached_tail` and publishes the new head.
    #[inline]
    fn take(&mut self) -> T {
        debug_assert!(
            self.head.index < self.cached_tail,
            "took an unpublished slot"
        );
        #[expect(
            clippy::indexing_slicing,
            reason = "`Cursor::advance` wraps the slot at `buf.len()`"
        )]
        let slot = &self.inner.buf[self.head.slot];
        // SAFETY: `head < cached_tail <= tail`, so the producer has fully
        // initialised this slot and will not touch it again until we
        // publish a head past it.
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.head.advance(self.inner.buf.len());
        value
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // Drain remaining elements so their destructors run. The producer may
        // still push afterwards; those elements are leaked only if T needs
        // Drop and the producer outlives the consumer, which does not happen
        // in NetKernel (queue pairs are torn down together), and NQEs are
        // Copy anyway.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::thread;

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = channel::<u32>(0);
    }

    #[test]
    fn fifo_order_single_thread() {
        let (mut tx, mut rx) = channel(8);
        for i in 0..8 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99));
        for i in 0..8 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn wraparound_many_times() {
        let (mut tx, mut rx) = channel(3);
        for round in 0..1000u32 {
            tx.push(round * 2).unwrap();
            tx.push(round * 2 + 1).unwrap();
            assert_eq!(rx.pop(), Some(round * 2));
            assert_eq!(rx.pop(), Some(round * 2 + 1));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn batch_pop() {
        let (mut tx, mut rx) = channel(16);
        for i in 0..10 {
            tx.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.pop_batch(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
    }

    /// The tightest ring: every push wraps. Exercises the cached-index
    /// refresh on both sides every single operation.
    #[test]
    fn capacity_one_ring_alternates() {
        let (mut tx, mut rx) = channel(1);
        for i in 0..100u32 {
            tx.push(i).unwrap();
            assert_eq!(tx.push(u32::MAX), Err(u32::MAX));
            assert_eq!(rx.pop(), Some(i));
            assert_eq!(rx.pop(), None);
        }
    }

    /// Backpressure releases exactly one slot per pop when the ring is full,
    /// across the index wrap boundary: the producer's stale cached head must
    /// be refreshed on the looks-full path, never sooner.
    #[test]
    fn backpressure_releases_one_slot_per_pop_at_wrap() {
        let (mut tx, mut rx) = channel(4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        // 20 iterations walk the head/tail pair well past one wrap.
        for i in 4..24u32 {
            assert_eq!(tx.push(999), Err(999), "ring must be full before pop");
            assert_eq!(rx.pop(), Some(i - 4));
            tx.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 10), 4);
        assert_eq!(out, vec![20, 21, 22, 23]);
    }

    /// Alternating full-drain cycles leave both sides with maximally stale
    /// caches; every cycle must still move exactly `capacity` elements.
    #[test]
    fn repeated_fill_drain_cycles_with_stale_caches() {
        let (mut tx, mut rx) = channel(8);
        for round in 0..50u32 {
            let pushed = (0..100).take_while(|i| tx.push(round * 100 + i).is_ok());
            assert_eq!(pushed.count(), 8);
            let mut out = Vec::new();
            assert_eq!(rx.pop_batch(&mut out, 100), 8);
            assert_eq!(out[0], round * 100);
            assert_eq!(out[7], round * 100 + 7);
            assert_eq!(rx.pop(), None);
        }
    }

    #[test]
    fn cross_thread_stress_preserves_order_and_count() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = channel(1024);
        let producer = thread::spawn(move || {
            let mut i = 0u64;
            while i < N {
                if tx.push(i).is_ok() {
                    i += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let consumer = thread::spawn(move || {
            let mut expected = 0u64;
            let mut sum = 0u64;
            while expected < N {
                if let Some(v) = rx.pop() {
                    assert_eq!(v, expected, "FIFO order violated");
                    sum += v;
                    expected += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
            sum
        });
        producer.join().unwrap();
        let sum = consumer.join().unwrap();
        assert_eq!(sum, N * (N - 1) / 2);
    }

    /// Seeded interleavings of `push`, `pop` and `pop_batch(max)` on rings
    /// of capacity 1, 3, 7 and 8, with `max` in {1, 2, 5, cap, cap + 3},
    /// checked op by op against a `VecDeque` bounded at `cap`. The run also
    /// counts the batches issued while the consumer's cached tail covered
    /// less than the batch should take (the producer pushed past a partial
    /// batch), and requires some: those are the batches that must reload.
    #[test]
    fn ring_matches_a_vecdeque_model() {
        let mut stale_batches = 0;
        let mut ops = 0;
        for seed in 1..=40u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = |below: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % below
            };
            let cap = [1, 3, 7, 8][seed as usize % 4];
            let (mut tx, mut rx) = channel(cap);
            let mut model = VecDeque::new();
            let mut pushed = 0u32;
            for _ in 0..600 {
                ops += 1;
                match next(5) {
                    0 | 1 => {
                        let got = tx.push(pushed);
                        if model.len() < cap {
                            assert_eq!(got, Ok(()), "seed {seed}");
                            model.push_back(pushed);
                        } else {
                            assert_eq!(got, Err(pushed), "seed {seed}: full");
                        }
                        pushed += 1;
                    }
                    2 => assert_eq!(rx.pop(), model.pop_front(), "seed {seed}"),
                    _ => {
                        let max = [1, 2, 5, cap, cap + 3][next(5) as usize];
                        let want: Vec<u32> = model.drain(..model.len().min(max)).collect();
                        if rx.cached_tail - rx.head.index < want.len() {
                            stale_batches += 1;
                        }
                        let mut out = vec![u32::MAX];
                        assert_eq!(rx.pop_batch(&mut out, max), want.len(), "seed {seed}");
                        assert_eq!(out[1..], want[..], "seed {seed}: batch of {max}");
                    }
                }
            }
        }
        assert!(ops >= 20_000);
        assert!(
            stale_batches > 0,
            "no batch ever found its cached tail short"
        );
    }

    /// A producer thread pushes 200 000 values while the consumer drains
    /// them with `pop_batch` at a `max` that cycles through 1, 2, 5, the
    /// capacity and more: every value arrives exactly once, in order.
    #[test]
    fn cross_thread_batches_preserve_order_and_count() {
        const N: u64 = 200_000;
        const CAP: usize = 64;
        let (mut tx, mut rx) = channel(CAP);
        let producer = thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                while let Err(back) = tx.push(v) {
                    v = back;
                    std::hint::spin_loop();
                }
            }
        });
        let mut expected = 0u64;
        let mut out = Vec::with_capacity(CAP + 3);
        for max in [1, 2, 5, CAP, CAP + 3].into_iter().cycle() {
            if expected == N {
                break;
            }
            out.clear();
            if rx.pop_batch(&mut out, max) == 0 {
                std::hint::spin_loop();
            }
            assert!(out.len() <= max);
            for &v in &out {
                assert_eq!(v, expected, "FIFO order violated");
                expected += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.pop(), None, "a value arrived twice");
    }

    /// A ring that holds anything is not rewound, and keeps its order and
    /// contents; once drained, it is.
    #[test]
    fn rewind_refuses_a_ring_that_holds_anything() {
        let (mut tx, mut rx) = channel(4);
        for i in 0..3u32 {
            tx.push(i).unwrap();
        }
        assert_eq!(rx.pop(), Some(0));
        assert_eq!(rewind(&mut tx, &mut rx), Err(NkError::InvalidState));
        assert_eq!(tx.written(), 3);
        tx.push(3).unwrap();
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 8), 3);
        assert_eq!(out, [1, 2, 3]);
        assert_eq!(rewind(&mut tx, &mut rx), Ok(()));
        assert_eq!(tx.written(), 0);
    }

    /// Two empty rings whose ends stand at the same index are still two
    /// rings: a rewind over one's producer and the other's consumer is
    /// refused, and both keep working from where they were.
    #[test]
    fn rewind_refuses_ends_of_two_rings() {
        let (mut a_tx, mut a_rx) = channel(4);
        let (mut b_tx, mut b_rx) = channel(4);
        for i in 0..3u32 {
            a_tx.push(i).unwrap();
            b_tx.push(10 + i).unwrap();
        }
        let mut out = Vec::new();
        a_rx.pop_batch(&mut out, 8);
        b_rx.pop_batch(&mut out, 8);
        // Both calls before the check: were either taken, the two would
        // still leave all four ends at 0, and a failing test unwinds clean.
        let crossed = (rewind(&mut a_tx, &mut b_rx), rewind(&mut b_tx, &mut a_rx));
        let refused = Err(NkError::BadConfig);
        assert_eq!(crossed, (refused, refused));
        assert_eq!((a_tx.written(), b_tx.written()), (3, 3));
        a_tx.push(3).unwrap();
        b_tx.push(13).unwrap();
        assert_eq!((a_rx.pop(), b_rx.pop()), (Some(3), Some(13)));
        assert_eq!((a_rx.pop(), b_rx.pop()), (None, None));
    }

    /// A rewound ring starts at slot 0 and is as big as before: it takes
    /// exactly `capacity` elements, refuses the next, and returns them in
    /// order.
    #[test]
    fn a_rewound_ring_holds_its_capacity_in_order() {
        for cap in [1, 3, 8] {
            let (mut tx, mut rx) = channel(cap);
            for i in 0..(2 * cap as u32 + 1) {
                tx.push(i).unwrap();
                assert_eq!(rx.pop(), Some(i));
            }
            assert_eq!(rewind(&mut tx, &mut rx), Ok(()));
            assert_eq!(tx.written(), 0);
            for i in 0..cap as u32 {
                tx.push(100 + i).unwrap();
            }
            assert_eq!(tx.push(999), Err(999), "capacity {cap}");
            let mut out = Vec::new();
            assert_eq!(rx.pop_batch(&mut out, cap + 3), cap);
            assert_eq!(out, (100..100 + cap as u32).collect::<Vec<_>>());
            assert_eq!(rx.pop(), None);
        }
    }

    /// Seeded interleavings of `push`, `pop_batch` and `rewind` on rings of
    /// capacity 1, 3, 7 and 8 against a `VecDeque` bounded at `cap`: a
    /// rewind succeeds exactly when the model is empty, and then the ring
    /// writes from slot 0 again; nothing else about the ring changes.
    #[test]
    fn rewinds_match_a_vecdeque_model() {
        let mut rewound = 0;
        for seed in 1..=40u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = |below: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % below
            };
            let cap = [1, 3, 7, 8][seed as usize % 4];
            let (mut tx, mut rx) = channel(cap);
            let mut model = VecDeque::new();
            let (mut pushed, mut written) = (0u32, 0);
            for _ in 0..600 {
                match next(5) {
                    0 | 1 => {
                        let got = tx.push(pushed);
                        if model.len() < cap {
                            assert_eq!(got, Ok(()), "seed {seed}");
                            model.push_back(pushed);
                            written += 1;
                        } else {
                            assert_eq!(got, Err(pushed), "seed {seed}: full");
                        }
                        pushed += 1;
                    }
                    2 | 3 => {
                        let max = [1, 2, 5, cap, cap + 3][next(5) as usize];
                        let want: Vec<u32> = model.drain(..model.len().min(max)).collect();
                        let mut out = Vec::new();
                        assert_eq!(rx.pop_batch(&mut out, max), want.len(), "seed {seed}");
                        assert_eq!(out, want, "seed {seed}: batch of {max}");
                    }
                    _ => {
                        let got = rewind(&mut tx, &mut rx);
                        if model.is_empty() {
                            assert_eq!(got, Ok(()), "seed {seed}");
                            rewound += (written > 0) as u32;
                            written = 0;
                        } else {
                            assert_eq!(got, Err(NkError::InvalidState), "seed {seed}");
                        }
                    }
                }
                assert_eq!(tx.written(), written, "seed {seed}");
            }
        }
        assert!(rewound > 1_000, "only {rewound} rewinds moved a ring");
    }

    #[test]
    fn drops_remaining_elements() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let (mut tx, rx) = channel(8);
            assert!(tx.push(Counted).is_ok());
            assert!(tx.push(Counted).is_ok());
            drop(rx);
            drop(tx);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }
}
