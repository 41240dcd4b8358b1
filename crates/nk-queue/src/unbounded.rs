//! An unbounded single-producer / single-consumer lock-free queue.
//!
//! Where [`crate::spsc`] is the paper's fixed-capacity NQE ring (backpressure
//! by design), this queue never refuses a push — it grows instead. No
//! datapath code uses it: the sharded cluster's cross-shard edges are each
//! written in one phase of the round barrier and read in the other, so they
//! never see contention and are plain barrier-ordered `Mutex`es. nkbench's
//! `queue.unbounded_ns` drive names it, which pins it until ROADMAP item 7.
//!
//! The implementation is the classic Vyukov node-based queue specialised to
//! one producer and one consumer: a singly linked list with a stub node,
//! where the producer appends at `tail` and the consumer advances `head`.
//! Both operations are wait-free — one allocation plus one Release store to
//! publish, one Acquire load to observe — so neither side can stall the
//! other ("A Wait-Free Universal Construct for Large Objects" makes the case
//! for wait-free hand-offs under contention).

use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

struct Node<T> {
    next: AtomicPtr<Node<T>>,
    /// `None` only in the stub node (and in consumed nodes awaiting free).
    value: Option<T>,
}

struct Inner<T> {
    /// Consumer-owned: the node *before* the next value (stub or last
    /// consumed). Only the consumer reads or writes this field.
    head: AtomicPtr<Node<T>>,
    /// Producer-owned: the most recently appended node. Only the producer
    /// reads or writes this field.
    tail: AtomicPtr<Node<T>>,
    /// Occupancy, maintained on both sides for `len`/`is_empty`.
    len: AtomicUsize,
}

// SAFETY: exactly one producer touches `tail` (and appended nodes' `next`
// fields) and exactly one consumer touches `head` (and takes values out of
// published nodes). The Release store on `next` in `push` paired with the
// Acquire load in `pop` orders the node's initialisation before the
// consumer's read. The consumer frees only nodes strictly *behind* the next
// value, which the producer no longer references.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: the argument above, word for word: it covers sharing `&Inner`.
unsafe impl<T: Send> Sync for Inner<T> {}

/// Producing half of an unbounded SPSC queue. Not clonable: single producer.
pub struct UnboundedProducer<T> {
    inner: Arc<Inner<T>>,
}

/// Consuming half of an unbounded SPSC queue. Not clonable: single consumer.
pub struct UnboundedConsumer<T> {
    inner: Arc<Inner<T>>,
}

/// Create an unbounded SPSC channel.
pub fn unbounded<T>() -> (UnboundedProducer<T>, UnboundedConsumer<T>) {
    let stub = Box::into_raw(Box::new(Node {
        next: AtomicPtr::new(ptr::null_mut()),
        value: None,
    }));
    let inner = Arc::new(Inner {
        head: AtomicPtr::new(stub),
        tail: AtomicPtr::new(stub),
        len: AtomicUsize::new(0),
    });
    (
        UnboundedProducer {
            inner: Arc::clone(&inner),
        },
        UnboundedConsumer { inner },
    )
}

impl<T> UnboundedProducer<T> {
    /// Append one element. Never fails, never blocks.
    pub fn push(&mut self, value: T) {
        let node = Box::into_raw(Box::new(Node {
            next: AtomicPtr::new(ptr::null_mut()),
            value: Some(value),
        }));
        // Relaxed: `tail` is producer-private, only this thread accesses it.
        let tail = self.inner.tail.load(Ordering::Relaxed);
        // SAFETY: `tail` is the last appended node (or the stub); the
        // consumer never frees it while the producer can still reach it.
        unsafe { (*tail).next.store(node, Ordering::Release) };
        self.inner.tail.store(node, Ordering::Relaxed);
        self.inner.len.fetch_add(1, Ordering::Release);
    }

    /// Number of elements currently queued (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.inner.len.load(Ordering::Acquire)
    }

    /// True when no element is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> UnboundedConsumer<T> {
    /// Pop one element, or `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<T> {
        // Relaxed: `head` is consumer-private, only this thread accesses it.
        let head = self.inner.head.load(Ordering::Relaxed);
        // SAFETY: `head` is the stub or the last consumed node; only the
        // consumer frees nodes, so it is alive. The Acquire load pairs with
        // the producer's Release store and makes the node's value visible.
        let next = unsafe { (*head).next.load(Ordering::Acquire) };
        if next.is_null() {
            return None;
        }
        #[expect(
            clippy::expect_used,
            reason = "the producer publishes a node only after it stored the value"
        )]
        // SAFETY: `next` was fully initialised before being published.
        let value = unsafe { (*next).value.take().expect("published node has a value") };
        self.inner.head.store(next, Ordering::Relaxed);
        // SAFETY: the old head is strictly behind the new one; the producer
        // only ever touches the node `tail` points at, which is `next` or
        // later, so nobody else can reach the node being freed.
        unsafe { drop(Box::from_raw(head)) };
        self.inner.len.fetch_sub(1, Ordering::Release);
        Some(value)
    }

    /// Number of elements currently queued (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.inner.len.load(Ordering::Acquire)
    }

    /// True when no element is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Both handles are gone: walk the list and free every node (the
        // stub/consumed ones carry no value; pending ones drop theirs).
        let mut cur = self.head.load(Ordering::Relaxed);
        while !cur.is_null() {
            // SAFETY: both handles are dropped, so this thread is the sole
            // owner of the whole list; every node from `head` onward is a
            // live Box allocation published by the producer.
            let next = unsafe { (*cur).next.load(Ordering::Relaxed) };
            // SAFETY: `cur` came from `Box::into_raw` in `push` (or the stub
            // in `unbounded`), is non-null, and nothing else can reach it —
            // `next` was read out above before the backing memory goes away.
            unsafe { drop(Box::from_raw(cur)) };
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_single_thread() {
        let (mut tx, mut rx) = unbounded();
        assert!(rx.pop().is_none());
        for i in 0..100 {
            tx.push(i);
        }
        assert_eq!(tx.len(), 100);
        for i in 0..100 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert!(rx.pop().is_none());
        assert!(rx.is_empty() && tx.is_empty());
    }

    /// A burst far past any plausible ring size: the queue grows instead of
    /// refusing.
    #[test]
    fn grows_without_bound() {
        let (mut tx, mut rx) = unbounded();
        for i in 0..100_000u64 {
            tx.push(i);
        }
        assert_eq!(rx.len(), 100_000);
        let mut expected = 0;
        while let Some(v) = rx.pop() {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, 100_000);
    }

    #[test]
    fn interleaved_push_pop_reuses_nothing_stale() {
        let (mut tx, mut rx) = unbounded();
        for round in 0..1000u32 {
            tx.push(round * 2);
            tx.push(round * 2 + 1);
            assert_eq!(rx.pop(), Some(round * 2));
            assert_eq!(rx.pop(), Some(round * 2 + 1));
            assert!(rx.is_empty());
        }
    }

    #[test]
    fn cross_thread_stress_preserves_order_and_count() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = unbounded();
        let producer = thread::spawn(move || {
            for i in 0..N {
                tx.push(i);
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
            let (mut tx, rx) = unbounded();
            tx.push(Counted);
            tx.push(Counted);
            tx.push(Counted);
            drop(rx);
            drop(tx);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 3);
    }
}
