//! The NK device: per-entity queue sets plus event notification.
//!
//! Every VM and every NSM owns one *NK device* "consisting of one or more
//! sets of lockless queues" — one queue set per vCPU (paper §4, §4.3). The
//! device also carries the wake flag of the *interrupt-driven polling*
//! notification scheme of §4.6: a guest that gives up polling arms an
//! interrupt with CoreEngine, and CoreEngine wakes the device when new NQEs
//! are switched to it.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Shared wake flag between a device and CoreEngine.
///
/// The device arms it when it gives up polling; CoreEngine rings it when it
/// switches new NQEs to the device. Both sides may live on different threads
/// (threaded mode) or be co-scheduled by the simulator, so the state is a
/// single atomic byte.
#[derive(Clone)]
pub struct WakeState {
    state: Arc<AtomicU8>,
}

const STATE_POLLING: u8 = 0;
const STATE_ARMED: u8 = 1;
const STATE_WOKEN: u8 = 2;

impl WakeState {
    /// New wake state, initially in polling mode.
    pub fn new() -> Self {
        WakeState {
            state: Arc::new(AtomicU8::new(STATE_POLLING)),
        }
    }

    /// Device side: arm the interrupt (device is about to stop polling).
    pub fn arm(&self) {
        self.state.store(STATE_ARMED, Ordering::Release);
    }

    /// Switch side: wake the device if it is armed. Returns `true` when a
    /// wake-up (virtual interrupt) was actually delivered — CoreEngine counts
    /// these for its overhead accounting.
    pub fn wake(&self) -> bool {
        self.state
            .compare_exchange(
                STATE_ARMED,
                STATE_WOKEN,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Device side: true when armed (sleeping, waiting for an interrupt).
    pub fn is_armed(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_ARMED
    }

    /// Device side: consume a pending wake-up and return to polling mode.
    /// Returns `true` when a wake-up was pending.
    pub fn take_wake(&self) -> bool {
        self.state
            .compare_exchange(
                STATE_WOKEN,
                STATE_POLLING,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Device side: unconditionally return to polling mode.
    pub fn resume_polling(&self) {
        self.state.store(STATE_POLLING, Ordering::Release);
    }
}

impl Default for WakeState {
    fn default() -> Self {
        Self::new()
    }
}

/// An NK device: a set of per-vCPU queue-set ends plus notification state.
///
/// The type is generic over the end type so the same container serves
/// GuestLib (requester ends), ServiceLib (responder ends) and the two switch
/// ports CoreEngine holds for each device.
pub struct NkDevice<E> {
    queue_sets: Vec<E>,
    wake: WakeState,
    /// Round-robin cursor used by [`NkDevice::next_index`].
    rr_cursor: usize,
}

impl<E> NkDevice<E> {
    /// Build a device from its queue-set ends and a wake flag shared with the
    /// switch side.
    pub fn new(queue_sets: Vec<E>, wake: WakeState) -> Self {
        NkDevice {
            queue_sets,
            wake,
            rr_cursor: 0,
        }
    }

    /// Number of queue sets (one per vCPU).
    pub fn queue_sets(&self) -> usize {
        self.queue_sets.len()
    }

    /// Access one queue-set end by index.
    pub fn queue_set(&mut self, idx: usize) -> Option<&mut E> {
        self.queue_sets.get_mut(idx)
    }

    /// Iterate mutably over all queue-set ends.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut E)> {
        self.queue_sets.iter_mut().enumerate()
    }

    /// Advance the round-robin cursor and return the next queue-set index.
    /// Returns `None` when the device has no queue sets.
    pub fn next_index(&mut self) -> Option<usize> {
        if self.queue_sets.is_empty() {
            return None;
        }
        let idx = self.rr_cursor % self.queue_sets.len();
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        Some(idx)
    }

    /// The wake flag shared with the switch side.
    pub fn wake(&self) -> &WakeState {
        &self.wake
    }

    /// Append an additional queue set (queues "can be dynamically added or
    /// removed with the number of vCPUs", §4.4).
    pub fn add_queue_set(&mut self, end: E) {
        self.queue_sets.push(end);
    }

    /// Remove the last queue set, if any.
    pub fn remove_queue_set(&mut self) -> Option<E> {
        self.queue_sets.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_state_transitions() {
        let w = WakeState::new();
        assert!(!w.is_armed());
        // Waking a polling device is a no-op.
        assert!(!w.wake());
        w.arm();
        assert!(w.is_armed());
        // First wake delivers the interrupt, the second finds it already woken.
        assert!(w.wake());
        assert!(!w.wake());
        assert!(w.take_wake());
        assert!(!w.take_wake());
        assert!(!w.is_armed());
    }

    /// After a wake-up is consumed the device is back in polling mode: a
    /// further wake without re-arming must not deliver another interrupt.
    /// CoreEngine relies on this to count at most one wake-up per sleep.
    #[test]
    fn wake_after_take_requires_rearm() {
        let w = WakeState::new();
        w.arm();
        assert!(w.wake());
        assert!(w.take_wake());
        assert!(!w.wake(), "woke a device that never re-armed");
        w.arm();
        assert!(w.wake(), "re-armed device must be wakeable again");
    }

    /// Resuming polling from the armed state discards the pending arm: the
    /// device found work on its own, so no interrupt should fire afterwards.
    #[test]
    fn resume_polling_discards_armed_state() {
        let w = WakeState::new();
        w.arm();
        w.resume_polling();
        assert!(!w.is_armed());
        assert!(!w.wake());
        assert!(!w.take_wake());
    }

    #[test]
    fn wake_state_is_shared_between_clones() {
        let device_side = WakeState::new();
        let switch_side = device_side.clone();
        device_side.arm();
        assert!(switch_side.wake());
        assert!(device_side.take_wake());
    }

    #[test]
    fn device_round_robin_cursor() {
        let mut dev: NkDevice<u32> = NkDevice::new(vec![10, 20, 30], WakeState::new());
        assert_eq!(dev.queue_sets(), 3);
        assert_eq!(dev.next_index(), Some(0));
        assert_eq!(dev.next_index(), Some(1));
        assert_eq!(dev.next_index(), Some(2));
        assert_eq!(dev.next_index(), Some(0));
        let empty: NkDevice<u32> = NkDevice::new(vec![], WakeState::new());
        let mut empty = empty;
        assert_eq!(dev.queue_set(1), Some(&mut 20));
        assert_eq!(empty.next_index(), None);
    }

    #[test]
    fn device_dynamic_queue_sets() {
        let mut dev: NkDevice<u32> = NkDevice::new(vec![1], WakeState::new());
        dev.add_queue_set(2);
        assert_eq!(dev.queue_sets(), 2);
        assert_eq!(dev.remove_queue_set(), Some(2));
        assert_eq!(dev.remove_queue_set(), Some(1));
        assert_eq!(dev.remove_queue_set(), None);
    }
}
