//! The recorder proper: capture surface, freeze trigger, snapshot.

use crate::event::{EventRing, ObsEvent, ObsEventKind};
use nk_types::{HostId, ObsConfig, VmId};
use std::collections::VecDeque;

/// How many of the newest events the recorder retains, and as many phase
/// windows.
pub const EVENT_CAPACITY: usize = 4096;

/// The named windows of a migration or evacuation handover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationPhase {
    /// Engine ingress paused, mini-steps draining the wire to quiescence.
    Freeze,
    /// Identity plus per-connection stack state leaving the source.
    Export,
    /// `/32` detours steering transplanted addresses to the destination.
    Reroute,
    /// State installing on the destination host.
    Install,
    /// The VM serving again (destination side up, source share retiring).
    Thaw,
    /// A drained NSM share scaling to zero at an evacuation's tail.
    Retire,
}

serde::impl_serialize!(
    enum MigrationPhase {
        Freeze,
        Export,
        Reroute,
        Install,
        Thaw,
        Retire,
    }
);

/// One phase window in virtual time. Phases that complete without
/// advancing virtual time (an export is a single action of the plan
/// coordinator) have `start_ns == end_ns`; the freeze window, which runs
/// wire-draining mini-steps, has real width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseWindow {
    /// The VM the window belongs to (`None` for share retirement).
    pub vm: Option<VmId>,
    /// Which phase.
    pub phase: MigrationPhase,
    /// Virtual time the phase opened.
    pub start_ns: u64,
    /// Virtual time the phase closed.
    pub end_ns: u64,
    /// The evacuation-plan step that ran the phase (`None` for a direct
    /// warm migration outside any plan).
    pub step: Option<u32>,
    /// Whether the phase succeeded (`false`: it failed and a rollback or
    /// revert followed).
    pub ok: bool,
}

serde::impl_serialize!(struct PhaseWindow { vm, phase, start_ns, end_ns, step, ok });

impl PhaseWindow {
    /// The window's width in virtual ns.
    pub fn width_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Why capture stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FreezeReason {
    /// An evacuation plan failed mid-flight and rolled back.
    PlanRolledBack {
        /// The host the plan was evacuating.
        host: HostId,
    },
    /// A host was killed (fault injection or operator action).
    HostKilled {
        /// The host that died.
        host: HostId,
    },
}

serde::impl_serialize!(enum FreezeReason { PlanRolledBack { host }, HostKilled { host } });

/// The dump-on-fault stamp: where and why the ring froze.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FreezeInfo {
    /// Virtual time of the trigger.
    pub at_ns: u64,
    /// The trigger.
    pub reason: FreezeReason,
}

serde::impl_serialize!(struct FreezeInfo { at_ns, reason });

/// A serializable snapshot of everything the recorder retains.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsDump {
    /// Set when a dump-on-fault trigger froze capture.
    pub frozen: Option<FreezeInfo>,
    /// Events captured over the recorder's lifetime (retained or evicted).
    pub events_captured: u64,
    /// Retained events, oldest first.
    pub events: Vec<ObsEvent>,
    /// Migration / evacuation phase windows, capture order.
    pub phases: Vec<PhaseWindow>,
}

serde::impl_serialize!(struct ObsDump { frozen, events_captured, events, phases });

/// The cluster-scope flight recorder. Owned by `Cluster` (one per run) and
/// written only from the caller's thread between steps, in an order fixed
/// by `HostId` — which is why its serialized snapshot is byte-identical for
/// any datapath thread count.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    enabled: bool,
    /// The event ring's capacity, which bounds the phase windows too.
    capacity: usize,
    ring: EventRing,
    phases: VecDeque<PhaseWindow>,
    frozen: Option<FreezeInfo>,
}

impl FlightRecorder {
    /// A recorder shaped by `cfg`. A disabled config produces a recorder
    /// whose every capture hook is a no-op.
    pub fn new(cfg: ObsConfig) -> Self {
        let on = |cap| if cfg.enabled { cap } else { 0 };
        FlightRecorder {
            enabled: cfg.enabled,
            capacity: on(EVENT_CAPACITY),
            ring: EventRing::new(on(EVENT_CAPACITY)),
            phases: VecDeque::new(),
            frozen: None,
        }
    }

    /// An enabled recorder whose event ring and phase windows keep
    /// `capacity` entries.
    #[cfg(test)]
    fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            capacity,
            ring: EventRing::new(capacity),
            ..Self::new(ObsConfig::new())
        }
    }

    /// Whether capture hooks do anything right now (configured on and not
    /// frozen).
    pub fn active(&self) -> bool {
        self.enabled && self.frozen.is_none()
    }

    /// Capture one event.
    pub fn record_event(&mut self, at_ns: u64, kind: ObsEventKind) {
        if !self.active() {
            return;
        }
        self.ring.push(at_ns, kind);
    }

    /// Capture one phase window. Windows share the event ring's capacity
    /// bound: the newest [`EVENT_CAPACITY`] are retained.
    pub fn record_phase(&mut self, window: PhaseWindow) {
        if !self.active() {
            return;
        }
        push_bounded(&mut self.phases, self.capacity, window);
    }

    /// The dump-on-fault trigger: stop capture at exactly this point. The
    /// triggering events themselves are expected to be recorded *before*
    /// the freeze; everything after is dropped. Only the first trigger
    /// sticks — a later fault must not overwrite the record of the first.
    pub fn freeze(&mut self, at_ns: u64, reason: FreezeReason) {
        if !self.enabled || self.frozen.is_some() {
            return;
        }
        self.frozen = Some(FreezeInfo { at_ns, reason });
    }

    /// Snapshot everything retained.
    pub fn snapshot(&self) -> ObsDump {
        ObsDump {
            frozen: self.frozen,
            events_captured: self.ring.captured(),
            events: self.ring.iter().copied().collect(),
            phases: self.phases.iter().copied().collect(),
        }
    }
}

/// Append `item` to `ring`, keeping the newest `cap` entries and nothing
/// at all at capacity 0 (as [`EventRing::push`] does).
fn push_bounded<T>(ring: &mut VecDeque<T>, cap: usize, item: T) {
    if cap == 0 {
        return;
    }
    if ring.len() == cap {
        ring.pop_front();
    }
    ring.push_back(item);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_ctrl::PlanEventKind;
    use nk_sim::SplitMix64;
    use nk_types::{ClusterAction, ControlAction, NsmId};

    fn kill(host: u8) -> ObsEventKind {
        ObsEventKind::Cluster(ClusterAction::HostKilled { host: HostId(host) })
    }

    /// The freeze trigger stops capture at exactly the triggering point:
    /// events recorded before it stay, everything after is dropped, and a
    /// second trigger does not overwrite the first stamp.
    #[test]
    fn freeze_stops_capture_at_the_trigger() {
        let mut rec = FlightRecorder::new(ObsConfig::new());
        rec.record_event(100, kill(1));
        rec.freeze(100, FreezeReason::HostKilled { host: HostId(1) });
        rec.record_event(200, kill(2));
        rec.record_phase(PhaseWindow {
            vm: Some(VmId(1)),
            phase: MigrationPhase::Freeze,
            start_ns: 150,
            end_ns: 250,
            step: None,
            ok: true,
        });
        rec.freeze(300, FreezeReason::PlanRolledBack { host: HostId(2) });

        let dump = rec.snapshot();
        assert_eq!(dump.events.len(), 1);
        assert_eq!(dump.events[0].at_ns, 100);
        assert!(dump.phases.is_empty());
        let info = dump.frozen.expect("frozen");
        assert_eq!(info.at_ns, 100);
        assert_eq!(info.reason, FreezeReason::HostKilled { host: HostId(1) });
    }

    /// Every ring stays within its capacity, 0 included: an enabled
    /// recorder of any capacity bounds its memory.
    #[test]
    fn every_ring_stays_within_its_capacity() {
        for cap in [0, 2] {
            let mut rec = FlightRecorder::with_capacity(cap);
            for i in 0..100u64 {
                rec.record_phase(PhaseWindow {
                    vm: Some(VmId(1)),
                    phase: MigrationPhase::Export,
                    start_ns: i,
                    end_ns: i,
                    step: None,
                    ok: true,
                });
                rec.record_event(i, kill(1));
            }
            let dump = rec.snapshot();
            assert_eq!((dump.phases.len(), dump.events.len()), (cap, cap));
            if cap > 0 {
                assert_eq!(dump.phases[cap - 1].start_ns, 99, "the newest stay");
                assert_eq!(dump.events[cap - 1].at_ns, 99);
            }
        }
    }

    /// A disabled recorder captures nothing.
    #[test]
    fn disabled_recorder_is_a_no_op() {
        let mut rec = FlightRecorder::new(ObsConfig::disabled());
        rec.record_event(100, kill(1));
        let dump = rec.snapshot();
        assert!(dump.events.is_empty());
    }

    /// A small dump's serialized form, with one event of each kind and one
    /// entry in every other section: the bytes `flight_recorder` prints and
    /// the mode-invariance tests compare.
    #[test]
    fn a_dump_serializes_to_pinned_json() {
        let event = |seq, at_ns, kind| ObsEvent { seq, at_ns, kind };
        let dump = ObsDump {
            frozen: Some(FreezeInfo {
                at_ns: 300,
                reason: FreezeReason::PlanRolledBack { host: HostId(2) },
            }),
            events_captured: 5,
            events: vec![
                event(1, 100, kill(1)),
                event(
                    2,
                    150,
                    ObsEventKind::Control {
                        host: HostId(1),
                        action: ControlAction::Rebalance {
                            vm: VmId(3),
                            from: NsmId(1),
                            to: NsmId(2),
                        },
                    },
                ),
                event(
                    3,
                    200,
                    ObsEventKind::Plan(PlanEventKind::ActionDone { step: 4 }),
                ),
                event(
                    4,
                    200,
                    ObsEventKind::Fault {
                        host: HostId(2),
                        faults: 1,
                    },
                ),
            ],
            phases: vec![PhaseWindow {
                vm: Some(VmId(3)),
                phase: MigrationPhase::Freeze,
                start_ns: 150,
                end_ns: 250,
                step: None,
                ok: true,
            }],
        };
        let want = [
            r#"{"frozen":{"at_ns":300,"reason":{"PlanRolledBack":{"host":2}}},"#,
            r#""events_captured":5,"events":["#,
            r#"{"seq":1,"at_ns":100,"kind":{"Cluster":{"HostKilled":{"host":1}}}},"#,
            r#"{"seq":2,"at_ns":150,"kind":{"Control":{"host":1,"#,
            r#""action":{"Rebalance":{"vm":3,"from":1,"to":2}}}}},"#,
            r#"{"seq":3,"at_ns":200,"kind":{"Plan":{"ActionDone":{"step":4}}}},"#,
            r#"{"seq":4,"at_ns":200,"kind":{"Fault":{"host":2,"faults":1}}}],"#,
            r#""phases":[{"vm":3,"phase":"Freeze","start_ns":150,"end_ns":250,"#,
            r#""step":null,"ok":true}]}"#,
        ]
        .concat();
        assert_eq!(serde_json::to_string(&dump).unwrap(), want);

        // The shapes the dump above leaves out: no freeze, a host kill, and
        // every other phase, one of them a share retirement run by a plan.
        let phase = |vm, phase, step| PhaseWindow {
            vm,
            phase,
            start_ns: 300,
            end_ns: 300,
            step,
            ok: false,
        };
        let bare = ObsDump {
            frozen: None,
            events_captured: 0,
            events: vec![],
            phases: vec![
                phase(Some(VmId(3)), MigrationPhase::Export, None),
                phase(Some(VmId(3)), MigrationPhase::Reroute, None),
                phase(Some(VmId(3)), MigrationPhase::Install, None),
                phase(Some(VmId(3)), MigrationPhase::Thaw, None),
                phase(None, MigrationPhase::Retire, Some(7)),
            ],
        };
        let want = [
            r#"{"frozen":null,"events_captured":0,"events":[],"phases":["#,
            r#"{"vm":3,"phase":"Export","start_ns":300,"end_ns":300,"#,
            r#""step":null,"ok":false},"#,
            r#"{"vm":3,"phase":"Reroute","start_ns":300,"end_ns":300,"#,
            r#""step":null,"ok":false},"#,
            r#"{"vm":3,"phase":"Install","start_ns":300,"end_ns":300,"#,
            r#""step":null,"ok":false},"#,
            r#"{"vm":3,"phase":"Thaw","start_ns":300,"end_ns":300,"#,
            r#""step":null,"ok":false},"#,
            r#"{"vm":null,"phase":"Retire","start_ns":300,"end_ns":300,"#,
            r#""step":7,"ok":false}]}"#,
        ]
        .concat();
        assert_eq!(serde_json::to_string(&bare).unwrap(), want);
        let killed = FreezeInfo {
            at_ns: 400,
            reason: FreezeReason::HostKilled { host: HostId(4) },
        };
        assert_eq!(
            serde_json::to_string(&killed).unwrap(),
            r#"{"at_ns":400,"reason":{"HostKilled":{"host":4}}}"#
        );
    }

    /// Damaged dump text is an `Err`, never a panic: every proper prefix is
    /// refused, and seeded single-byte ASCII mutations either parse or are
    /// refused. The undamaged text parses to a `Value` that writes back the
    /// same bytes.
    #[test]
    fn damaged_dump_json_is_an_error_never_a_panic() {
        let mut rec = FlightRecorder::new(ObsConfig::new());
        rec.record_event(100, kill(1));
        rec.record_event(
            150,
            ObsEventKind::Plan(PlanEventKind::ActionFailed { step: 2, code: 7 }),
        );
        rec.freeze(1_000, FreezeReason::HostKilled { host: HostId(1) });
        let json = serde_json::to_string(&rec.snapshot()).unwrap();

        let value = serde_json::from_str(&json).expect("the writer's own text parses");
        assert_eq!(serde_json::to_string(&value).unwrap(), json);
        for end in 0..json.len() {
            assert!(serde_json::from_str(&json[..end]).is_err(), "{end}");
        }
        let mut rng = SplitMix64::new(35);
        for _ in 0..2_000 {
            let mut bytes = json.clone().into_bytes();
            let at = rng.next_below(bytes.len() as u64) as usize;
            bytes[at] = b' ' + rng.next_below(95) as u8;
            let text = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            let _ = serde_json::from_str(&text);
        }
    }
}
