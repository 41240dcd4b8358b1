//! The recorder proper: capture surface, freeze trigger, snapshot.

use crate::event::{EventRing, ObsEvent, ObsEventKind, ObsFilter};
use crate::flows::{FlowKey, FlowStat, FlowTable};
use crate::latency::{EpochLatency, LatencySummary};
use nk_sim::Histogram;
use nk_types::{HostId, ObsConfig, VmId};
use std::collections::VecDeque;

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
    /// Placement epoch at capture.
    pub epoch: u64,
    /// The evacuation-plan step that ran the phase (`None` for a direct
    /// warm migration outside any plan).
    pub step: Option<u32>,
    /// Whether the phase succeeded (`false`: it failed and a rollback or
    /// revert followed).
    pub ok: bool,
}

serde::impl_serialize!(struct PhaseWindow { vm, phase, start_ns, end_ns, epoch, step, ok });

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
    /// Placement epoch of the trigger.
    pub epoch: u64,
    /// The trigger.
    pub reason: FreezeReason,
}

serde::impl_serialize!(struct FreezeInfo { at_ns, epoch, reason });

/// A serializable snapshot of everything the recorder retains.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsDump {
    /// Set when a dump-on-fault trigger froze capture.
    pub frozen: Option<FreezeInfo>,
    /// Events captured over the recorder's lifetime (retained or evicted).
    pub events_captured: u64,
    /// Retained events, oldest first.
    pub events: Vec<ObsEvent>,
    /// Sealed latency epochs, oldest first.
    pub epochs: Vec<EpochLatency>,
    /// Migration / evacuation phase windows, capture order.
    pub phases: Vec<PhaseWindow>,
    /// Hot flows, heaviest first.
    pub flows: Vec<(FlowKey, FlowStat)>,
}

serde::impl_serialize!(struct ObsDump { frozen, events_captured, events, epochs, phases, flows });

/// The cluster-scope flight recorder. Owned by `Cluster` (one per run) and
/// written only from the caller's thread: every capture call happens either
/// outside the sharded step or at the round barrier with every helper
/// parked, in an order fixed by `HostId` — which is why its serialized
/// snapshot is byte-identical for any datapath thread count.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    cfg: ObsConfig,
    ring: EventRing,
    epochs: VecDeque<EpochLatency>,
    next_epoch: u64,
    epoch_start_ns: u64,
    next_epoch_ns: u64,
    phases: VecDeque<PhaseWindow>,
    flows: FlowTable,
    frozen: Option<FreezeInfo>,
}

impl FlightRecorder {
    /// A recorder shaped by `cfg`. A disabled config produces a recorder
    /// whose every capture hook is a no-op.
    pub fn new(cfg: ObsConfig) -> Self {
        FlightRecorder {
            cfg,
            ring: EventRing::new(if cfg.enabled { cfg.event_capacity } else { 0 }),
            epochs: VecDeque::new(),
            next_epoch: 0,
            epoch_start_ns: 0,
            next_epoch_ns: cfg.epoch_ns,
            phases: VecDeque::new(),
            flows: FlowTable::new(if cfg.enabled { cfg.flow_k } else { 0 }),
            frozen: None,
        }
    }

    /// The shape the recorder was built with.
    pub fn config(&self) -> &ObsConfig {
        &self.cfg
    }

    /// Whether capture hooks do anything right now (configured on and not
    /// frozen).
    pub fn active(&self) -> bool {
        self.cfg.enabled && self.frozen.is_none()
    }

    /// The dump-on-fault stamp, if a trigger fired.
    pub fn frozen(&self) -> Option<&FreezeInfo> {
        self.frozen.as_ref()
    }

    /// Capture one event.
    pub fn record_event(&mut self, at_ns: u64, epoch: u64, kind: ObsEventKind) {
        if !self.active() {
            return;
        }
        self.ring.push(at_ns, epoch, kind);
    }

    /// Capture one phase window. Windows share the event ring's capacity
    /// bound: the newest `event_capacity` are retained.
    pub fn record_phase(&mut self, window: PhaseWindow) {
        if !self.active() {
            return;
        }
        push_bounded(&mut self.phases, self.cfg.event_capacity, window);
    }

    /// Observe a delivered frame on `key`: `frames` wire frames (a train's
    /// count) of `bytes` wire bytes in all.
    pub fn observe_flow(&mut self, key: FlowKey, frames: u64, bytes: u64) {
        if !self.active() {
            return;
        }
        self.flows.observe(key, frames, bytes);
    }

    /// Whether a latency epoch is due to seal at `now_ns`.
    pub fn epoch_due(&self, now_ns: u64) -> bool {
        self.active() && now_ns >= self.next_epoch_ns
    }

    /// Seal the latency epoch ending at `now_ns` from every host's drained
    /// histogram, pre-sorted ascending by `HostId` (the caller iterates its
    /// host map in order). The cluster-wide summary is the merge of the
    /// per-host histograms — moments and min/max combine exactly, so the
    /// merged quantiles equal the quantiles of the union of samples.
    pub fn seal_epoch(&mut self, now_ns: u64, hosts: Vec<(HostId, Histogram)>) {
        if !self.active() {
            return;
        }
        let mut cluster = Histogram::new();
        let mut summaries = Vec::with_capacity(hosts.len());
        for (id, hist) in &hosts {
            cluster.merge(hist);
            summaries.push((*id, LatencySummary::of(hist)));
        }
        let sealed = EpochLatency {
            epoch: self.next_epoch,
            start_ns: self.epoch_start_ns,
            end_ns: now_ns,
            cluster: LatencySummary::of(&cluster),
            hosts: summaries,
        };
        push_bounded(&mut self.epochs, self.cfg.latency_epochs, sealed);
        self.next_epoch += 1;
        self.epoch_start_ns = now_ns;
        self.next_epoch_ns = now_ns + self.cfg.epoch_ns;
    }

    /// The dump-on-fault trigger: stop capture at exactly this point. The
    /// triggering events themselves are expected to be recorded *before*
    /// the freeze; everything after is dropped. Only the first trigger
    /// sticks — a later fault must not overwrite the record of the first.
    pub fn freeze(&mut self, at_ns: u64, epoch: u64, reason: FreezeReason) {
        if !self.cfg.enabled || self.frozen.is_some() {
            return;
        }
        self.frozen = Some(FreezeInfo {
            at_ns,
            epoch,
            reason,
        });
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ObsEvent> {
        self.ring.iter()
    }

    /// Events passing `filter`, oldest first.
    pub fn query(&self, filter: &ObsFilter) -> Vec<ObsEvent> {
        self.ring
            .iter()
            .filter(|e| filter.matches(e))
            .copied()
            .collect()
    }

    /// Phase windows, capture order.
    pub fn phases(&self) -> impl Iterator<Item = &PhaseWindow> {
        self.phases.iter()
    }

    /// Sealed latency epochs, oldest first.
    pub fn latency_epochs(&self) -> impl Iterator<Item = &EpochLatency> {
        self.epochs.iter()
    }

    /// Snapshot everything retained.
    pub fn snapshot(&self) -> ObsDump {
        self.snapshot_filtered(&ObsFilter::new())
    }

    /// Snapshot with the event ring narrowed by `filter` (latency epochs,
    /// phases and flows are cluster-scoped aggregates and stay whole).
    pub fn snapshot_filtered(&self, filter: &ObsFilter) -> ObsDump {
        ObsDump {
            frozen: self.frozen,
            events_captured: self.ring.captured(),
            events: self.query(filter),
            epochs: self.epochs.iter().cloned().collect(),
            phases: self.phases.iter().copied().collect(),
            flows: self.flows.top(),
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
    use crate::event::EventClass;
    use nk_ctrl::{DecisionOutcome, PlanEventKind};
    use nk_sim::SplitMix64;
    use nk_types::{ClusterAction, ControlAction, NsmId};

    fn kill(host: u8) -> ObsEventKind {
        ObsEventKind::Cluster(ClusterAction::HostKilled { host: HostId(host) })
    }

    fn ns_hist(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for s in samples {
            h.record(*s as f64);
        }
        h
    }

    /// The freeze trigger stops capture at exactly the triggering point:
    /// events recorded before it stay, everything after is dropped, and a
    /// second trigger does not overwrite the first stamp.
    #[test]
    fn freeze_stops_capture_at_the_trigger() {
        let mut rec = FlightRecorder::new(ObsConfig::new());
        rec.record_event(100, 0, kill(1));
        rec.freeze(100, 0, FreezeReason::HostKilled { host: HostId(1) });
        rec.record_event(200, 0, kill(2));
        rec.record_phase(PhaseWindow {
            vm: Some(VmId(1)),
            phase: MigrationPhase::Freeze,
            start_ns: 150,
            end_ns: 250,
            epoch: 0,
            step: None,
            ok: true,
        });
        rec.freeze(300, 0, FreezeReason::PlanRolledBack { host: HostId(2) });

        let dump = rec.snapshot();
        assert_eq!(dump.events.len(), 1);
        assert_eq!(dump.events[0].at_ns, 100);
        assert!(dump.phases.is_empty());
        let info = dump.frozen.expect("frozen");
        assert_eq!(info.at_ns, 100);
        assert_eq!(info.reason, FreezeReason::HostKilled { host: HostId(1) });
    }

    /// Sealed epochs merge per-host histograms into a cluster summary whose
    /// quantiles equal the union's, and the epoch ring drops the oldest.
    #[test]
    fn epochs_seal_and_merge_in_host_order() {
        let mut cfg = ObsConfig::new().with_epoch_ns(1_000);
        cfg.latency_epochs = 2;
        let mut rec = FlightRecorder::new(cfg);
        assert!(!rec.epoch_due(999));
        assert!(rec.epoch_due(1_000));
        let a = ns_hist(&[100, 200]);
        let b = ns_hist(&[300, 400]);
        let mut union = a.clone();
        union.merge(&b);
        rec.seal_epoch(1_000, vec![(HostId(1), a), (HostId(2), b)]);
        rec.seal_epoch(2_000, vec![]);
        rec.seal_epoch(3_000, vec![]);

        let dump = rec.snapshot();
        assert_eq!(dump.epochs.len(), 2, "oldest epoch dropped");
        assert_eq!(dump.epochs[0].epoch, 1);
        // Epoch 0 was dropped but its content was correct while retained;
        // re-check via a fresh recorder for the merge property.
        let mut rec2 = FlightRecorder::new(ObsConfig::new());
        rec2.seal_epoch(
            1_000,
            vec![
                (HostId(1), ns_hist(&[100, 200])),
                (HostId(2), ns_hist(&[300, 400])),
            ],
        );
        let sealed = rec2.snapshot().epochs[0].clone();
        assert_eq!(sealed.cluster, LatencySummary::of(&union));
        assert_eq!(sealed.hosts.len(), 2);
        assert_eq!(sealed.hosts[0].0, HostId(1));
        assert_eq!(sealed.hosts[0].1.count, 2);
    }

    /// Every ring stays within its capacity, 0 included: an enabled
    /// recorder built without `ObsConfig::validate` still bounds its memory.
    #[test]
    fn every_ring_stays_within_its_capacity() {
        for cap in [0, 2] {
            let mut cfg = ObsConfig::new().with_epoch_ns(1_000);
            (cfg.event_capacity, cfg.latency_epochs) = (cap, cap);
            let mut rec = FlightRecorder::new(cfg);
            for i in 0..100u64 {
                rec.record_phase(PhaseWindow {
                    vm: Some(VmId(1)),
                    phase: MigrationPhase::Export,
                    start_ns: i,
                    end_ns: i,
                    epoch: 0,
                    step: None,
                    ok: true,
                });
                rec.seal_epoch((i + 1) * 1_000, vec![(HostId(1), ns_hist(&[100]))]);
            }
            let dump = rec.snapshot();
            assert_eq!((dump.phases.len(), dump.epochs.len()), (cap, cap));
            if cap > 0 {
                assert_eq!(dump.phases[cap - 1].start_ns, 99, "the newest stay");
                assert_eq!(dump.epochs[cap - 1].epoch, 99);
            }
            assert!(
                rec.epoch_due(101_000) && !rec.epoch_due(100_999),
                "epochs still advance"
            );
        }
    }

    /// A disabled recorder captures nothing and never seals.
    #[test]
    fn disabled_recorder_is_a_no_op() {
        let mut rec = FlightRecorder::new(ObsConfig::disabled());
        rec.record_event(100, 0, kill(1));
        rec.observe_flow(
            FlowKey {
                src_ip: 1,
                src_port: 2,
                dst_ip: 3,
                dst_port: 4,
            },
            1,
            100,
        );
        assert!(!rec.epoch_due(u64::MAX));
        rec.seal_epoch(1_000, vec![(HostId(1), ns_hist(&[100]))]);
        let dump = rec.snapshot();
        assert!(dump.events.is_empty());
        assert!(dump.epochs.is_empty());
        assert!(dump.flows.is_empty());
    }

    /// The filtered snapshot narrows only the event ring.
    #[test]
    fn a_filtered_snapshot_narrows_only_the_events() {
        let mut rec = FlightRecorder::new(ObsConfig::new());
        rec.record_event(100, 0, kill(1));
        rec.record_event(
            200,
            1,
            ObsEventKind::Fault {
                host: HostId(2),
                faults: 1,
            },
        );
        rec.seal_epoch(1_000, vec![(HostId(1), ns_hist(&[100]))]);

        let full = rec.snapshot();
        let narrowed = rec.snapshot_filtered(&ObsFilter::new().with_class(EventClass::Fault));
        assert_eq!(narrowed.events.len(), 1);
        assert_eq!(narrowed.epochs, full.epochs);
        assert_eq!(narrowed.events_captured, 2);
    }

    /// A small dump's serialized form, with one event of each kind and one
    /// entry in every other section: the bytes `flight_recorder` prints and
    /// the mode-invariance tests compare.
    #[test]
    fn a_dump_serializes_to_pinned_json() {
        let summary = LatencySummary {
            count: 2,
            p50_ns: 100,
            p99_ns: 200,
            max_ns: 200,
        };
        let event = |seq, at_ns, epoch, kind| ObsEvent {
            seq,
            at_ns,
            epoch,
            kind,
        };
        let dump = ObsDump {
            frozen: Some(FreezeInfo {
                at_ns: 300,
                epoch: 2,
                reason: FreezeReason::PlanRolledBack { host: HostId(2) },
            }),
            events_captured: 6,
            events: vec![
                event(1, 100, 0, kill(1)),
                event(
                    2,
                    150,
                    0,
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
                    1,
                    ObsEventKind::Plan(PlanEventKind::ActionDone { step: 4 }),
                ),
                event(
                    4,
                    200,
                    1,
                    ObsEventKind::Fault {
                        host: HostId(2),
                        faults: 1,
                    },
                ),
                event(
                    5,
                    250,
                    2,
                    ObsEventKind::Decision(DecisionOutcome {
                        epoch: 2,
                        vm: VmId(3),
                        from: HostId(1),
                        to: HostId(2),
                        applied: false,
                    }),
                ),
            ],
            epochs: vec![EpochLatency {
                epoch: 0,
                start_ns: 0,
                end_ns: 1_000,
                cluster: summary,
                hosts: vec![(HostId(1), summary)],
            }],
            phases: vec![PhaseWindow {
                vm: Some(VmId(3)),
                phase: MigrationPhase::Freeze,
                start_ns: 150,
                end_ns: 250,
                epoch: 1,
                step: None,
                ok: true,
            }],
            flows: vec![(
                FlowKey {
                    src_ip: 1,
                    src_port: 2,
                    dst_ip: 3,
                    dst_port: 4,
                },
                FlowStat {
                    bytes: 1500,
                    ops: 1,
                },
            )],
        };
        let summary = r#"{"count":2,"p50_ns":100,"p99_ns":200,"max_ns":200}"#;
        let want = [
            r#"{"frozen":{"at_ns":300,"epoch":2,"reason":{"PlanRolledBack":{"host":2}}},"#,
            r#""events_captured":6,"events":["#,
            r#"{"seq":1,"at_ns":100,"epoch":0,"kind":{"Cluster":{"HostKilled":{"host":1}}}},"#,
            r#"{"seq":2,"at_ns":150,"epoch":0,"kind":{"Control":{"host":1,"#,
            r#""action":{"Rebalance":{"vm":3,"from":1,"to":2}}}}},"#,
            r#"{"seq":3,"at_ns":200,"epoch":1,"kind":{"Plan":{"ActionDone":{"step":4}}}},"#,
            r#"{"seq":4,"at_ns":200,"epoch":1,"kind":{"Fault":{"host":2,"faults":1}}},"#,
            r#"{"seq":5,"at_ns":250,"epoch":2,"kind":{"Decision":"#,
            r#"{"epoch":2,"vm":3,"from":1,"to":2,"applied":false}}}],"#,
            r#""epochs":[{"epoch":0,"start_ns":0,"end_ns":1000,"#,
            &format!(r#""cluster":{summary},"hosts":[[1,{summary}]]}}],"#),
            r#""phases":[{"vm":3,"phase":"Freeze","start_ns":150,"end_ns":250,"#,
            r#""epoch":1,"step":null,"ok":true}],"#,
            r#""flows":[[{"src_ip":1,"src_port":2,"dst_ip":3,"dst_port":4},"#,
            r#"{"bytes":1500,"ops":1}]]}"#,
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
            epoch: 2,
            step,
            ok: false,
        };
        let bare = ObsDump {
            frozen: None,
            events_captured: 0,
            events: vec![],
            epochs: vec![],
            phases: vec![
                phase(Some(VmId(3)), MigrationPhase::Export, None),
                phase(Some(VmId(3)), MigrationPhase::Reroute, None),
                phase(Some(VmId(3)), MigrationPhase::Install, None),
                phase(Some(VmId(3)), MigrationPhase::Thaw, None),
                phase(None, MigrationPhase::Retire, Some(7)),
            ],
            flows: vec![],
        };
        let want = [
            r#"{"frozen":null,"events_captured":0,"events":[],"epochs":[],"phases":["#,
            r#"{"vm":3,"phase":"Export","start_ns":300,"end_ns":300,"#,
            r#""epoch":2,"step":null,"ok":false},"#,
            r#"{"vm":3,"phase":"Reroute","start_ns":300,"end_ns":300,"#,
            r#""epoch":2,"step":null,"ok":false},"#,
            r#"{"vm":3,"phase":"Install","start_ns":300,"end_ns":300,"#,
            r#""epoch":2,"step":null,"ok":false},"#,
            r#"{"vm":3,"phase":"Thaw","start_ns":300,"end_ns":300,"#,
            r#""epoch":2,"step":null,"ok":false},"#,
            r#"{"vm":null,"phase":"Retire","start_ns":300,"end_ns":300,"#,
            r#""epoch":2,"step":7,"ok":false}],"flows":[]}"#,
        ]
        .concat();
        assert_eq!(serde_json::to_string(&bare).unwrap(), want);
        let killed = FreezeInfo {
            at_ns: 400,
            epoch: 3,
            reason: FreezeReason::HostKilled { host: HostId(4) },
        };
        assert_eq!(
            serde_json::to_string(&killed).unwrap(),
            r#"{"at_ns":400,"epoch":3,"reason":{"HostKilled":{"host":4}}}"#
        );
    }

    /// Damaged dump text is an `Err`, never a panic: every proper prefix is
    /// refused, and seeded single-byte ASCII mutations either parse or are
    /// refused. The undamaged text parses to a `Value` that writes back the
    /// same bytes.
    #[test]
    fn damaged_dump_json_is_an_error_never_a_panic() {
        let mut rec = FlightRecorder::new(ObsConfig::new());
        rec.record_event(100, 0, kill(1));
        rec.record_event(
            150,
            0,
            ObsEventKind::Plan(PlanEventKind::ActionFailed { step: 2, code: 7 }),
        );
        rec.observe_flow(
            FlowKey {
                src_ip: 0x0A01_0001,
                src_port: 40_000,
                dst_ip: 0x0A02_0001,
                dst_port: 7,
            },
            1,
            1_500,
        );
        rec.seal_epoch(1_000, vec![(HostId(1), ns_hist(&[100, 2_500]))]);
        rec.freeze(1_000, 1, FreezeReason::HostKilled { host: HostId(1) });
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
