//! The typed event ring and its filter queries.

use nk_ctrl::PlanEventKind;
use nk_types::{ClusterAction, ControlAction, HostId, VmId};
use std::collections::VecDeque;

/// What kind of event a ring entry carries — the filter vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventClass {
    /// Cluster-scope milestones (migrations, drains, evacuations, kills).
    Cluster,
    /// A host control plane's applied action (scaling, rebalancing).
    Control,
    /// An evacuation plan's step-level record.
    Plan,
    /// Fault events applied at a host's step open.
    Fault,
}

/// One captured event. The payloads are the system's own serializable
/// types, not strings — a dump consumer filters and matches structurally.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ObsEventKind {
    /// A [`ClusterAction`] as pushed to the cluster event log.
    Cluster(ClusterAction),
    /// A host control plane applied `action`.
    Control {
        /// The host whose control plane acted.
        host: HostId,
        /// The action it applied.
        action: ControlAction,
    },
    /// An evacuation plan event.
    Plan(PlanEventKind),
    /// `faults` fault events fired at `host`'s step open.
    Fault {
        /// The host the faults applied to.
        host: HostId,
        /// How many fault events fired together.
        faults: u32,
    },
}

serde::impl_serialize!(enum ObsEventKind {
    Cluster(action),
    Control { host, action },
    Plan(kind),
    Fault { host, faults },
});

impl ObsEventKind {
    /// The event's class (the coarse filter axis).
    pub fn class(&self) -> EventClass {
        match self {
            ObsEventKind::Cluster(_) => EventClass::Cluster,
            ObsEventKind::Control { .. } => EventClass::Control,
            ObsEventKind::Plan(_) => EventClass::Plan,
            ObsEventKind::Fault { .. } => EventClass::Fault,
        }
    }

    /// Whether the event references `host` in any role (source,
    /// destination, owner).
    pub fn mentions_host(&self, host: HostId) -> bool {
        match *self {
            ObsEventKind::Cluster(action) => match action {
                ClusterAction::MigrateVm { from, to, .. }
                | ClusterAction::WarmMigrateVm { from, to, .. } => from == host || to == host,
                ClusterAction::DrainComplete { host: h, .. }
                | ClusterAction::ScaleToZero { host: h, .. }
                | ClusterAction::HostEvacuated { host: h, .. }
                | ClusterAction::HostKilled { host: h } => h == host,
                ClusterAction::WarmHandoverComplete { to, .. } => to == host,
            },
            ObsEventKind::Control { host: h, .. } => h == host,
            ObsEventKind::Plan(kind) => match kind {
                PlanEventKind::PlanStarted { host: h, .. }
                | PlanEventKind::PlanCommitted { host: h }
                | PlanEventKind::PlanRolledBack { host: h, .. } => h == host,
                _ => false,
            },
            ObsEventKind::Fault { host: h, .. } => h == host,
        }
    }

    /// Whether the event references `vm`.
    pub fn mentions_vm(&self, vm: VmId) -> bool {
        match *self {
            ObsEventKind::Cluster(
                ClusterAction::MigrateVm { vm: v, .. }
                | ClusterAction::DrainComplete { vm: v, .. }
                | ClusterAction::WarmMigrateVm { vm: v, .. }
                | ClusterAction::WarmHandoverComplete { vm: v, .. },
            ) => v == vm,
            ObsEventKind::Control { action, .. } => {
                matches!(action, ControlAction::Rebalance { vm: v, .. } if v == vm)
            }
            _ => false,
        }
    }
}

/// One event ring entry: the payload plus its capture stamps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObsEvent {
    /// Monotonic capture sequence number. Survives wraparound: after the
    /// ring overwrote old entries, the retained entries' numbers still say
    /// exactly how many were captured before them.
    pub seq: u64,
    /// Virtual time of capture.
    pub at_ns: u64,
    /// The event.
    pub kind: ObsEventKind,
}

serde::impl_serialize!(struct ObsEvent { seq, at_ns, kind });

/// A fixed-capacity ring of [`ObsEvent`]s: wraparound keeps the newest N.
/// Internal state — a dump serializes the retained events as a `Vec`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventRing {
    capacity: usize,
    next_seq: u64,
    buf: VecDeque<ObsEvent>,
}

impl EventRing {
    /// A ring retaining the newest `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            capacity,
            next_seq: 0,
            buf: VecDeque::with_capacity(capacity.min(1024)),
        }
    }

    /// Capture one event.
    pub fn push(&mut self, at_ns: u64, kind: ObsEventKind) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(ObsEvent {
            seq: self.next_seq,
            at_ns,
            kind,
        });
        self.next_seq += 1;
    }

    /// Events captured over the ring's lifetime (retained or not).
    pub fn captured(&self) -> u64 {
        self.next_seq
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &ObsEvent> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A conjunctive filter over the event ring: every set axis must match.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ObsFilter {
    /// Keep events mentioning this host.
    pub host: Option<HostId>,
    /// Keep events mentioning this VM.
    pub vm: Option<VmId>,
    /// Keep events of this class.
    pub class: Option<EventClass>,
}

impl ObsFilter {
    /// The match-everything filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keep events mentioning `host` (builder style).
    pub fn with_host(mut self, host: HostId) -> Self {
        self.host = Some(host);
        self
    }

    /// Keep events mentioning `vm` (builder style).
    pub fn with_vm(mut self, vm: VmId) -> Self {
        self.vm = Some(vm);
        self
    }

    /// Keep events of `class` (builder style).
    pub fn with_class(mut self, class: EventClass) -> Self {
        self.class = Some(class);
        self
    }

    /// Whether `event` passes every set axis.
    pub fn matches(&self, event: &ObsEvent) -> bool {
        if let Some(host) = self.host {
            if !event.kind.mentions_host(host) {
                return false;
            }
        }
        if let Some(vm) = self.vm {
            if !event.kind.mentions_vm(vm) {
                return false;
            }
        }
        if let Some(class) = self.class {
            if event.kind.class() != class {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_types::NsmId;

    fn kill(host: u8) -> ObsEventKind {
        ObsEventKind::Cluster(ClusterAction::HostKilled { host: HostId(host) })
    }

    /// Wraparound keeps the newest N entries and their original sequence
    /// numbers: after 10 pushes into a 4-slot ring, entries 6..=9 remain.
    #[test]
    fn wraparound_keeps_newest_with_correct_seq() {
        let mut ring = EventRing::new(4);
        for i in 0..10u64 {
            ring.push(i * 100, kill(i as u8));
        }
        assert_eq!(ring.captured(), 10);
        assert_eq!(ring.len(), 4);
        let seqs: Vec<u64> = ring.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let at: Vec<u64> = ring.iter().map(|e| e.at_ns).collect();
        assert_eq!(at, vec![600, 700, 800, 900]);
    }

    #[test]
    fn filters_conjoin_over_all_axes() {
        let mut ring = EventRing::new(16);
        ring.push(
            0,
            ObsEventKind::Cluster(ClusterAction::MigrateVm {
                vm: VmId(1),
                from: HostId(1),
                to: HostId(2),
                to_nsm: NsmId(1),
            }),
        );
        ring.push(
            10,
            ObsEventKind::Fault {
                host: HostId(2),
                faults: 1,
            },
        );
        ring.push(20, kill(3));

        let all: Vec<&ObsEvent> = ring.iter().collect();
        assert!(all.iter().all(|e| ObsFilter::new().matches(e)));

        let by_class = ObsFilter::new().with_class(EventClass::Fault);
        assert_eq!(all.iter().filter(|e| by_class.matches(e)).count(), 1);

        // Host 2 is mentioned by the migration (destination) and the fault.
        let by_host = ObsFilter::new().with_host(HostId(2));
        assert_eq!(all.iter().filter(|e| by_host.matches(e)).count(), 2);

        let by_vm = ObsFilter::new().with_vm(VmId(1));
        assert_eq!(all.iter().filter(|e| by_vm.matches(e)).count(), 1);

        let narrow = ObsFilter::new()
            .with_class(EventClass::Cluster)
            .with_host(HostId(3));
        assert_eq!(all.iter().filter(|e| narrow.matches(e)).count(), 1);
    }
}
