//! Per-VM shared congestion windows for the fair-sharing NSM (use case 2).

use nk_netstack::cc::{Cc, SharedVmWindow, VmSharedCc};
use nk_types::VmId;
use std::collections::BTreeMap;

/// Registry handing out one [`SharedVmWindow`] per VM.
///
/// The fair-share NSM consults the registry whenever it opens a connection on
/// behalf of a VM, so all of that VM's flows share a single congestion window
/// regardless of how many connections or destinations it uses (paper §6.2,
/// Figure 9). Ordered like every other datapath map, per the workspace
/// determinism rule: iteration order must not depend on hash seeds.
#[derive(Default)]
pub struct VmWindowRegistry {
    windows: BTreeMap<VmId, SharedVmWindow>,
}

impl VmWindowRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared window of `vm`, created on first use.
    pub fn window(&mut self, vm: VmId) -> SharedVmWindow {
        self.windows.entry(vm).or_default().clone()
    }

    /// Build a congestion-control instance joining `vm`'s shared window.
    pub fn cc_for(&mut self, vm: VmId) -> Cc {
        Cc::VmShared(VmSharedCc::new(self.window(vm)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_netstack::cc::CongestionControl;
    use nk_types::constants::MSS;

    #[test]
    fn same_vm_shares_a_window_different_vms_do_not() {
        let mut reg = VmWindowRegistry::new();
        let mut a1 = reg.cc_for(VmId(1));
        let a2 = reg.cc_for(VmId(1));
        let b1 = reg.cc_for(VmId(2));
        assert_eq!(reg.windows.len(), 2);

        // Grow VM 1's shared window through flow a1; flow a2 sees the growth,
        // VM 2's flow does not.
        for _ in 0..200 {
            a1.on_ack(MSS, 0);
        }
        assert!(a2.cwnd() > b1.cwnd());
    }

    #[test]
    fn window_is_stable_across_lookups() {
        let mut reg = VmWindowRegistry::new();
        let w1 = reg.window(VmId(7));
        let w2 = reg.window(VmId(7));
        assert_eq!(w1.total_cwnd(), w2.total_cwnd());
        assert_eq!(reg.windows.len(), 1);
    }
}
