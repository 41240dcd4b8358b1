//! Planned, revertible host evacuation.
//!
//! Warm migration ([`nk_types::VmWarmExport`] and friends) moves *one* VM;
//! evacuating a whole host — many VMs across many NSM shares, under faults —
//! needs ordering, pacing and a partial-failure story. This module is the
//! *deciding* half of that story, in the same mechanism-free spirit as the
//! rest of `nk-ctrl`: an [`EvacPlan`] compiles a host evacuation into an
//! ordered list of typed [`EvacAction`]s (freeze → export → reroute →
//! install → thaw per VM, scale-to-zero retirement of the emptied shares at
//! the tail), every action has a well-defined revert, and steps run in list
//! order — so a failure at step `k` unwinds steps `k − 1` down to `0`, back
//! to a clean pre-plan state. [`PlanRun`] is the run's event log.
//!
//! The executor lives in `nk-cluster` (`Cluster::evacuate_host`), which owns
//! the hosts and the fabric; this module owns the *shape* of the operation:
//! which steps exist, in what order, how concurrency is paced (`pace` VMs
//! per wave), and the [`PlanEvent`] log that makes an
//! evacuation as replayable as every other cluster decision.

use nk_types::{HostId, NkError, NkResult, NsmId, VmId};

/// How a VM travels during an evacuation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvacMode {
    /// Freeze the VM, export live connection state, reroute its addresses
    /// and install on the destination — zero reconnects, zero drain wait.
    /// Requires the VM to be its source share's only tenant.
    Warm,
    /// Export identity only; pinned connections keep draining on the source
    /// until their count hits zero.
    Drained,
}

/// One typed action of an evacuation plan. Every variant has a revert the
/// executor applies when a later action fails (see `nk-cluster`):
/// freeze ↔ thaw, export ↔ re-import/cancel, reroute ↔ route restore,
/// install ↔ uninstall, thaw ↔ re-freeze + home restore, retire ↔ revive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvacAction {
    /// Open the warm-migration freeze window on the VM (warm chains only).
    Freeze {
        /// The VM to freeze.
        vm: VmId,
    },
    /// Export the VM off the evacuating host, warm or drained.
    Export {
        /// The VM to export.
        vm: VmId,
        /// Whether live connection state travels with it.
        mode: EvacMode,
    },
    /// Steer the VM's transplanted addresses to the destination trunk
    /// (warm chains only).
    Reroute {
        /// The VM whose addresses move.
        vm: VmId,
        /// The destination host.
        to: HostId,
    },
    /// Install the export on the destination host.
    Install {
        /// The VM to install.
        vm: VmId,
        /// The destination host.
        to: HostId,
    },
    /// Resume the VM on the destination: thaw (warm) or flip its home and
    /// begin the source-side drain (drained).
    Thaw {
        /// The VM to resume.
        vm: VmId,
        /// Its new home.
        to: HostId,
    },
    /// Scale an emptied source NSM share to zero cores (plan tail; a share
    /// that still serves connections simply declines, which is not a
    /// failure).
    RetireShare {
        /// The source share to retire.
        nsm: NsmId,
    },
}

/// One entry of the compiled list: an action and the wave it is paced into.
#[derive(Clone, Debug, PartialEq)]
pub struct EvacStep {
    /// Position in the plan; doubles as the execution order.
    pub id: usize,
    /// Concurrency wave (VM chains are paced `pace` per wave; retirements
    /// run in a final wave of their own).
    pub wave: usize,
    /// The action.
    pub action: EvacAction,
}

/// One VM's travel order, as the planner decided it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvacMove {
    /// The VM leaving the evacuating host.
    pub vm: VmId,
    /// Its destination host.
    pub to: HostId,
    /// Warm or drained.
    pub mode: EvacMode,
}

/// A compiled evacuation: the ordered action list for clearing one host.
#[derive(Clone, Debug, PartialEq)]
pub struct EvacPlan {
    /// The host being evacuated.
    pub host: HostId,
    /// VM chains started per wave (the bounded concurrency knob).
    pub pace: usize,
    /// The moves the plan executes, in chain order.
    pub moves: Vec<EvacMove>,
    /// The compiled steps, in execution order (`steps[i].id == i`).
    pub steps: Vec<EvacStep>,
}

impl EvacPlan {
    /// Compile an evacuation of `host` into its ordered step list.
    ///
    /// VM chains are partitioned into waves of `pace`; inside a wave the
    /// steps are laid out phase-major (all freezes, then all exports, …) so
    /// the executor can share one freeze window per wave, and each VM's
    /// chain stays in phase order. `retire` shares are scaled to zero in a
    /// final wave, after every chain.
    ///
    /// Refuses (`BadConfig`) a zero pace, a move targeting the evacuating
    /// host itself, or a VM listed twice.
    pub fn compile(
        host: HostId,
        moves: &[EvacMove],
        retire: &[NsmId],
        pace: usize,
    ) -> NkResult<EvacPlan> {
        if pace == 0 {
            return Err(NkError::BadConfig);
        }
        let mut seen = std::collections::BTreeSet::new();
        for m in moves {
            if m.to == host || !seen.insert(m.vm) {
                return Err(NkError::BadConfig);
            }
        }
        let mut steps: Vec<EvacStep> = Vec::new();
        let mut push = |wave, action| {
            let id = steps.len();
            steps.push(EvacStep { id, wave, action });
        };
        let waves = moves.len().div_ceil(pace);
        for wave in 0..waves {
            let chains = wave * pace..((wave + 1) * pace).min(moves.len());
            for phase in 0..5usize {
                for chain in chains.clone() {
                    let m = &moves[chain];
                    let action = match (phase, m.mode) {
                        (0, EvacMode::Warm) => EvacAction::Freeze { vm: m.vm },
                        (1, _) => EvacAction::Export {
                            vm: m.vm,
                            mode: m.mode,
                        },
                        (2, EvacMode::Warm) => EvacAction::Reroute { vm: m.vm, to: m.to },
                        (3, _) => EvacAction::Install { vm: m.vm, to: m.to },
                        (4, _) => EvacAction::Thaw { vm: m.vm, to: m.to },
                        // Drained chains have no freeze window and no
                        // address reroute.
                        _ => continue,
                    };
                    push(wave, action);
                }
            }
        }
        // Scale-to-zero tail, after every chain.
        let mut retire_sorted: Vec<NsmId> = retire.to_vec();
        retire_sorted.sort();
        retire_sorted.dedup();
        for nsm in retire_sorted {
            push(waves, EvacAction::RetireShare { nsm });
        }
        Ok(EvacPlan {
            host,
            pace,
            moves: moves.to_vec(),
            steps,
        })
    }

    /// Waves in the plan (chain waves plus the retirement tail).
    pub fn waves(&self) -> usize {
        self.steps.last().map(|s| s.wave + 1).unwrap_or(0)
    }

    /// The VMs a wave moves warm (the freeze window the executor shares
    /// across the wave covers exactly these).
    pub fn warm_vms_of_wave(&self, wave: usize) -> Vec<VmId> {
        self.steps
            .iter()
            .filter(|s| s.wave == wave)
            .filter_map(|s| match s.action {
                EvacAction::Freeze { vm } => Some(vm),
                _ => None,
            })
            .collect()
    }
}

/// One entry of the plan log, as a flight-recorder dump writes it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlanEventKind {
    /// The plan was admitted and execution begins.
    PlanStarted {
        /// The evacuating host.
        host: HostId,
        /// Total steps compiled.
        steps: u32,
        /// Total waves (including the retirement tail).
        waves: u32,
    },
    /// A step began executing.
    ActionStarted {
        /// The step id.
        step: u32,
    },
    /// A step completed.
    ActionDone {
        /// The step id.
        step: u32,
    },
    /// A step failed; rollback follows.
    ActionFailed {
        /// The step id.
        step: u32,
        /// [`NkError::code`] of the failure.
        code: u32,
    },
    /// A completed step was unwound.
    ActionReverted {
        /// The step id.
        step: u32,
    },
    /// Every step completed; the evacuation is final.
    PlanCommitted {
        /// The evacuated host.
        host: HostId,
    },
    /// The rollback finished; the cluster is back in its pre-plan state.
    PlanRolledBack {
        /// The host that kept its VMs.
        host: HostId,
        /// Steps unwound.
        reverted: u32,
    },
}

serde::impl_serialize!(enum PlanEventKind {
    PlanStarted { host, steps, waves },
    ActionStarted { step },
    ActionDone { step },
    ActionFailed { step, code },
    ActionReverted { step },
    PlanCommitted { host },
    PlanRolledBack { host, reverted },
});

/// A [`PlanEventKind`] stamped with virtual time and a per-plan sequence
/// number. The log is coordinator-only (plans never run concurrently with
/// each other), so it is identical at any thread count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanEvent {
    /// Virtual time of the event.
    pub at_ns: u64,
    /// Position in this plan's log.
    pub seq: u32,
    /// What happened.
    pub kind: PlanEventKind,
}

/// The event log of one plan run. The executor runs the steps in list
/// order and logs each: [`PlanRun::started`] / [`PlanRun::done`] around
/// each action, [`PlanRun::failed`] on the first error, then
/// [`PlanRun::reverted`] per completed step it unwinds, newest first, and
/// one of [`PlanRun::committed`] / [`PlanRun::rolled_back`] to close it.
#[derive(Clone, Debug)]
pub struct PlanRun {
    events: Vec<PlanEvent>,
}

impl PlanRun {
    /// Admit a compiled plan and log `PlanStarted`.
    pub fn new(plan: &EvacPlan, at_ns: u64) -> Self {
        let mut run = PlanRun { events: Vec::new() };
        let kind = PlanEventKind::PlanStarted {
            host: plan.host,
            steps: plan.steps.len() as u32,
            waves: plan.waves() as u32,
        };
        run.push(kind, at_ns);
        run
    }

    /// Log that step `id` began executing.
    pub fn started(&mut self, id: usize, at_ns: u64) {
        self.push(PlanEventKind::ActionStarted { step: id as u32 }, at_ns);
    }

    /// Log that step `id` completed.
    pub fn done(&mut self, id: usize, at_ns: u64) {
        self.push(PlanEventKind::ActionDone { step: id as u32 }, at_ns);
    }

    /// Log that step `id` failed; the rollback follows.
    pub fn failed(&mut self, id: usize, error: NkError, at_ns: u64) {
        let kind = PlanEventKind::ActionFailed {
            step: id as u32,
            code: error.code(),
        };
        self.push(kind, at_ns);
    }

    /// Log that a completed step was unwound.
    pub fn reverted(&mut self, id: usize, at_ns: u64) {
        self.push(PlanEventKind::ActionReverted { step: id as u32 }, at_ns);
    }

    /// Close the log: every step done, the evacuation of `host` is final.
    pub fn committed(&mut self, host: HostId, at_ns: u64) {
        self.push(PlanEventKind::PlanCommitted { host }, at_ns);
    }

    /// Close the log after a rollback, counting the steps it unwound.
    pub fn rolled_back(&mut self, host: HostId, at_ns: u64) {
        let reverted = self
            .events
            .iter()
            .filter(|e| matches!(e.kind, PlanEventKind::ActionReverted { .. }))
            .count() as u32;
        let kind = PlanEventKind::PlanRolledBack { host, reverted };
        self.push(kind, at_ns);
    }

    /// Consume the run, yielding its event log.
    pub fn into_events(self) -> Vec<PlanEvent> {
        self.events
    }

    fn push(&mut self, kind: PlanEventKind, at_ns: u64) {
        let seq = self.events.len() as u32;
        self.events.push(PlanEvent { at_ns, seq, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warm(vm: u8, to: u8) -> EvacMove {
        EvacMove {
            vm: VmId(vm),
            to: HostId(to),
            mode: EvacMode::Warm,
        }
    }

    fn drained(vm: u8, to: u8) -> EvacMove {
        EvacMove {
            vm: VmId(vm),
            to: HostId(to),
            mode: EvacMode::Drained,
        }
    }

    /// One warm chain compiles to the five phases in order, each step
    /// depending on its predecessor, plus the retirement tail.
    #[test]
    fn single_warm_chain_compiles_in_phase_order() {
        let plan =
            EvacPlan::compile(HostId(1), &[warm(1, 2)], &[NsmId(1)], 4).expect("plan compiles");
        let actions: Vec<&EvacAction> = plan.steps.iter().map(|s| &s.action).collect();
        assert!(matches!(actions[0], EvacAction::Freeze { vm: VmId(1) }));
        assert!(matches!(
            actions[1],
            EvacAction::Export {
                vm: VmId(1),
                mode: EvacMode::Warm
            }
        ));
        assert!(matches!(actions[2], EvacAction::Reroute { .. }));
        assert!(matches!(actions[3], EvacAction::Install { .. }));
        assert!(matches!(actions[4], EvacAction::Thaw { .. }));
        assert!(matches!(
            actions[5],
            EvacAction::RetireShare { nsm: NsmId(1) }
        ));
        for (i, step) in plan.steps.iter().enumerate() {
            assert_eq!(step.id, i, "ids equal execution order");
        }
        assert_eq!(plan.steps[5].wave, 1, "retire runs after the chain");
        assert_eq!(plan.waves(), 2);
        assert_eq!(plan.warm_vms_of_wave(0), vec![VmId(1)]);
    }

    /// Drained chains skip freeze and reroute; pace bounds the wave width.
    #[test]
    fn pace_partitions_chains_into_waves() {
        let plan = EvacPlan::compile(
            HostId(1),
            &[drained(1, 2), drained(2, 3), drained(3, 2)],
            &[],
            2,
        )
        .expect("plan compiles");
        // Wave 0: two chains × (export, install, thaw); wave 1: one chain.
        assert_eq!(plan.steps.len(), 9);
        assert_eq!(plan.waves(), 2);
        assert!(plan.steps[..6].iter().all(|s| s.wave == 0));
        assert!(plan.steps[6..].iter().all(|s| s.wave == 1));
        assert!(plan
            .steps
            .iter()
            .all(|s| !matches!(s.action, EvacAction::Freeze { .. })));
        assert!(plan.warm_vms_of_wave(0).is_empty());
        // Phase-major inside the wave: both exports before both installs.
        assert!(matches!(
            plan.steps[0].action,
            EvacAction::Export { vm: VmId(1), .. }
        ));
        assert!(matches!(
            plan.steps[1].action,
            EvacAction::Export { vm: VmId(2), .. }
        ));
        assert!(matches!(
            plan.steps[2].action,
            EvacAction::Install { vm: VmId(1), .. }
        ));
    }

    /// Invalid plans are refused outright.
    #[test]
    fn invalid_plans_are_rejected() {
        assert_eq!(
            EvacPlan::compile(HostId(1), &[warm(1, 2)], &[], 0),
            Err(NkError::BadConfig),
            "zero pace"
        );
        assert_eq!(
            EvacPlan::compile(HostId(1), &[warm(1, 1)], &[], 1),
            Err(NkError::BadConfig),
            "move targets the evacuating host"
        );
        assert_eq!(
            EvacPlan::compile(HostId(1), &[warm(1, 2), drained(1, 3)], &[], 1),
            Err(NkError::BadConfig),
            "duplicate VM"
        );
    }

    /// A rolled-back log records the failed step, one revert per completed
    /// step, newest first, and their count.
    #[test]
    fn a_rolled_back_log_counts_its_reverts() {
        let plan = EvacPlan::compile(HostId(1), &[drained(1, 2)], &[NsmId(1)], 1).unwrap();
        let mut run = PlanRun::new(&plan, 0);
        for step in 0..2 {
            run.started(step, 10);
            run.done(step, 10);
        }
        run.failed(2, NkError::InvalidState, 30);
        for step in (0..2).rev() {
            run.reverted(step, 40);
        }
        run.rolled_back(plan.host, 60);
        let events = run.into_events();
        assert!(matches!(
            events.last().unwrap().kind,
            PlanEventKind::PlanRolledBack { reverted: 2, .. }
        ));
        // seq is strictly increasing: the log's own order.
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.seq, i as u32);
        }
    }

    /// The serialized form of each plan-event variant, as a flight-recorder
    /// dump writes it.
    #[test]
    fn plan_events_serialize_to_pinned_json() {
        for (kind, json) in [
            (
                PlanEventKind::PlanStarted {
                    host: HostId(1),
                    steps: 9,
                    waves: 2,
                },
                r#"{"PlanStarted":{"host":1,"steps":9,"waves":2}}"#,
            ),
            (
                PlanEventKind::ActionStarted { step: 0 },
                r#"{"ActionStarted":{"step":0}}"#,
            ),
            (
                PlanEventKind::ActionDone { step: 0 },
                r#"{"ActionDone":{"step":0}}"#,
            ),
            (
                PlanEventKind::ActionFailed { step: 3, code: 7 },
                r#"{"ActionFailed":{"step":3,"code":7}}"#,
            ),
            (
                PlanEventKind::ActionReverted { step: 2 },
                r#"{"ActionReverted":{"step":2}}"#,
            ),
            (
                PlanEventKind::PlanCommitted { host: HostId(1) },
                r#"{"PlanCommitted":{"host":1}}"#,
            ),
            (
                PlanEventKind::PlanRolledBack {
                    host: HostId(1),
                    reverted: 3,
                },
                r#"{"PlanRolledBack":{"host":1,"reverted":3}}"#,
            ),
        ] {
            assert_eq!(serde_json::to_string(&kind).unwrap(), json);
        }
    }
}
