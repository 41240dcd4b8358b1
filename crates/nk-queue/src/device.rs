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
    ///
    /// A device that is not armed is told so by one load, linearized there,
    /// so a polling device costs CoreEngine a load per response rather than
    /// a locked compare-and-swap that always fails.
    pub fn wake(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_ARMED
            && self
                .state
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
}

impl<E> NkDevice<E> {
    /// Build a device from its queue-set ends and a wake flag shared with the
    /// switch side.
    pub fn new(queue_sets: Vec<E>, wake: WakeState) -> Self {
        NkDevice { queue_sets, wake }
    }

    /// Number of queue sets (one per vCPU).
    pub fn queue_sets(&self) -> usize {
        self.queue_sets.len()
    }

    /// Access one queue-set end by index.
    pub fn queue_set(&mut self, idx: usize) -> Option<&mut E> {
        self.queue_sets.get_mut(idx)
    }

    /// Every queue-set end, in index order.
    pub fn queue_sets_mut(&mut self) -> &mut [E] {
        &mut self.queue_sets
    }

    /// The wake flag shared with the switch side.
    pub fn wake(&self) -> &WakeState {
        &self.wake
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

    #[test]
    fn wake_state_is_shared_between_clones() {
        let device_side = WakeState::new();
        let switch_side = device_side.clone();
        device_side.arm();
        assert!(switch_side.wake());
        assert!(device_side.take_wake());
    }

    #[test]
    fn device_indexes_its_queue_sets() {
        let mut dev: NkDevice<u32> = NkDevice::new(vec![10, 20, 30], WakeState::new());
        assert_eq!(dev.queue_sets(), 3);
        assert_eq!(dev.queue_set(1), Some(&mut 20));
        assert_eq!(dev.queue_set(3), None);
    }
}
