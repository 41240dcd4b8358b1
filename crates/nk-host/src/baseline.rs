//! The baseline the evaluation compares against (paper §7.1 "Baseline").

use nk_fabric::switch::VirtualSwitch;
use nk_netstack::{Segment, StackConfig, TcpStack};

/// The baseline architecture: the network stack runs inside the guest. A
/// [`TcpStack`] on a switch *is* that architecture — it implements the same
/// [`nk_types::SocketApi`] as GuestLib, so identical application code runs
/// against either — and this type only names it: hand
/// [`BaselineVm::stack_mut`] to the application.
pub struct BaselineVm {
    stack: TcpStack,
}

impl BaselineVm {
    /// Create a baseline VM attached to `switch` at address `ip`.
    pub fn new(ip: u32, switch: &mut VirtualSwitch<Segment>) -> Self {
        let port = switch.attach(ip);
        BaselineVm {
            stack: TcpStack::new(StackConfig::new(ip), port),
        }
    }

    /// Advance the in-guest stack to `now_ns` and run its protocol work.
    pub fn step(&mut self, now_ns: u64) -> usize {
        let work = self.stack.tick(now_ns);
        // Readiness is read through `poll`/`epoll_wait`, never the events.
        self.stack.discard_events();
        work
    }

    /// The in-guest stack: the VM's socket API.
    pub fn stack_mut(&mut self) -> &mut TcpStack {
        &mut self.stack
    }
}
