//! The drain-until-quiescent scheduler driving the host datapath.
//!
//! The host used to advance its components with a hard-coded two-pass sweep
//! (engine → NSMs → remotes → switch, twice), which capped how much of a
//! request → NSM → response round trip could complete in one step and baked
//! scheduling policy into the host layer. The scheduler replaces that sweep:
//! every component is a [`Pollable`], and each host step polls all of them
//! in rounds until a full round reports no work (quiescence) or the
//! configured round bound is hit. Round trips therefore complete within one
//! step regardless of queue depth, while the bound keeps a misbehaving
//! component from stalling virtual time.

pub use nk_sim::poll::{poll_round, Pollable};

/// The three phases of one scheduled host step.
///
/// Fault injection gets its own phase so timed infrastructure events (NSM
/// crashes, migrations, link changes) land at one deterministic point — the
/// start of the step, before any component is polled — instead of wherever
/// the host happens to interleave them. The control phase runs once at the
/// end of the step, after the datapath has drained, so operator decisions
/// (autoscaling, rebalancing) observe a settled view of the step's load and
/// take effect from the next step onwards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedPhase {
    /// Apply infrastructure events due at this virtual time (runs once, at
    /// the start of the step).
    Inject,
    /// Poll every datapath component once (runs up to `max_rounds` times).
    Poll,
    /// Run the operator control plane (runs once, at the end of the step).
    Control,
}

/// Cumulative scheduler behaviour counters, for observability and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Host steps executed.
    pub steps: u64,
    /// Scheduler rounds executed across all steps.
    pub rounds: u64,
    /// Steps that ended early because a full round reported no work.
    pub quiescent_exits: u64,
    /// Steps whose final allowed round still reported work. Quiescence was
    /// never observed in such a step — the backlog may have drained exactly
    /// on the last round, or work may remain for the next step.
    pub round_limit_hits: u64,
    /// Total work items (NQEs, segments, frames) reported by components.
    pub work_items: u64,
    /// Fault events applied in inject phases across all steps.
    pub fault_events: u64,
    /// Control-plane actions applied in control phases across all steps.
    pub control_actions: u64,
}

/// Polls a set of [`Pollable`] components until quiescence, within a bound.
#[derive(Clone, Copy, Debug)]
pub struct Scheduler {
    max_rounds: usize,
    stats: SchedStats,
}

impl Scheduler {
    /// A scheduler running at most `max_rounds` rounds per step (clamped to
    /// at least one).
    pub fn new(max_rounds: usize) -> Self {
        Scheduler {
            max_rounds: max_rounds.max(1),
            stats: SchedStats::default(),
        }
    }

    /// The configured per-step round bound.
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// Behaviour counters accumulated so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// One full step with injection and control hooks: `f(Inject, now)` runs
    /// exactly once before the first round and returns the number of fault
    /// events applied, `f(Poll, now)` runs as rounds until quiescence or the
    /// bound, and `f(Control, now)` runs exactly once afterwards, returning
    /// the number of control-plane actions applied. A single closure carries
    /// all phases so the caller can borrow its whole datapath mutably across
    /// them.
    ///
    /// Fault events and control actions count as step work: a step that only
    /// crashed an NSM or only resized one is not "idle".
    pub fn drain_with_hook(
        &mut self,
        now_ns: u64,
        mut f: impl FnMut(SchedPhase, u64) -> usize,
    ) -> usize {
        self.stats.steps += 1;
        let injected = f(SchedPhase::Inject, now_ns);
        self.stats.fault_events += injected as u64;
        let mut total = injected;
        let mut quiescent = false;
        for _ in 0..self.max_rounds {
            let work = f(SchedPhase::Poll, now_ns);
            self.stats.rounds += 1;
            total += work;
            if work == 0 {
                quiescent = true;
                break;
            }
        }
        if quiescent {
            self.stats.quiescent_exits += 1;
        } else {
            self.stats.round_limit_hits += 1;
        }
        let controlled = f(SchedPhase::Control, now_ns);
        self.stats.control_actions += controlled as u64;
        total += controlled;
        self.stats.work_items += total as u64;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reports `work` items once per distinct poll instant, mimicking a
    /// component that has a fixed amount of queued work per step.
    struct OneShot {
        work: usize,
        last_polled: Option<u64>,
    }

    impl OneShot {
        fn new(work: usize) -> Self {
            OneShot {
                work,
                last_polled: None,
            }
        }
    }

    impl Pollable for OneShot {
        fn poll(&mut self, now_ns: u64) -> usize {
            if self.last_polled == Some(now_ns) {
                0
            } else {
                self.last_polled = Some(now_ns);
                self.work
            }
        }
    }

    /// One step whose poll phase is a plain round over `parts`, with no
    /// fault or control work.
    fn drain(sched: &mut Scheduler, parts: &mut [&mut dyn Pollable], now_ns: u64) -> usize {
        sched.drain_with_hook(now_ns, |phase, now| match phase {
            SchedPhase::Inject | SchedPhase::Control => 0,
            SchedPhase::Poll => poll_round(parts, now),
        })
    }

    /// Always reports work: the round bound must stop it.
    struct Chatterbox;

    impl Pollable for Chatterbox {
        fn poll(&mut self, _now_ns: u64) -> usize {
            1
        }
    }

    #[test]
    fn drain_stops_at_quiescence() {
        let mut a = OneShot::new(3);
        let mut b = OneShot::new(2);
        let mut sched = Scheduler::new(16);
        let mut parts: Vec<&mut dyn Pollable> = vec![&mut a, &mut b];
        assert_eq!(drain(&mut sched, &mut parts, 100), 5);
        // One working round plus the quiescent round that ended the step.
        assert_eq!(sched.stats().rounds, 2);
        assert_eq!(sched.stats().quiescent_exits, 1);
        assert_eq!(sched.stats().round_limit_hits, 0);
    }

    #[test]
    fn drain_is_bounded_for_always_busy_components() {
        let mut noisy = Chatterbox;
        let mut sched = Scheduler::new(4);
        let mut parts: Vec<&mut dyn Pollable> = vec![&mut noisy];
        assert_eq!(drain(&mut sched, &mut parts, 0), 4);
        assert_eq!(sched.stats().rounds, 4);
        assert_eq!(sched.stats().round_limit_hits, 1);
        assert_eq!(sched.stats().quiescent_exits, 0);
    }

    /// The inject phase runs exactly once, before the first poll round, and
    /// its events count as step work and into the stats.
    #[test]
    fn hook_injects_before_polling_and_counts_fault_work() {
        let mut sched = Scheduler::new(8);
        let mut phases = Vec::new();
        let mut polls = 0;
        let total = sched.drain_with_hook(42, |phase, now| {
            assert_eq!(now, 42);
            phases.push(phase);
            match phase {
                SchedPhase::Inject => 3,
                SchedPhase::Poll => {
                    polls += 1;
                    if polls == 1 {
                        5
                    } else {
                        0
                    }
                }
                SchedPhase::Control => 0,
            }
        });
        assert_eq!(total, 8);
        assert_eq!(
            phases,
            vec![
                SchedPhase::Inject,
                SchedPhase::Poll,
                SchedPhase::Poll,
                SchedPhase::Control,
            ]
        );
        let stats = sched.stats();
        assert_eq!(stats.fault_events, 3);
        assert_eq!(stats.work_items, 8);
        assert_eq!(stats.quiescent_exits, 1);
    }

    /// The control phase runs exactly once, after the last poll round, and
    /// its actions count as step work and into the stats.
    #[test]
    fn control_phase_runs_last_and_counts_actions() {
        let mut sched = Scheduler::new(4);
        let mut phases = Vec::new();
        let total = sched.drain_with_hook(7, |phase, _| {
            phases.push(phase);
            match phase {
                SchedPhase::Inject => 0,
                SchedPhase::Poll => 0,
                SchedPhase::Control => 2,
            }
        });
        assert_eq!(total, 2);
        assert_eq!(
            phases,
            vec![SchedPhase::Inject, SchedPhase::Poll, SchedPhase::Control]
        );
        let stats = sched.stats();
        assert_eq!(stats.control_actions, 2);
        assert_eq!(stats.work_items, 2);
        assert_eq!(stats.quiescent_exits, 1, "control work is not poll work");
    }

    /// A step whose only activity is a fault application still terminates
    /// (the first poll round is quiescent) and is accounted as work.
    #[test]
    fn fault_only_step_is_not_idle() {
        let mut sched = Scheduler::new(4);
        let total = sched.drain_with_hook(0, |phase, _| match phase {
            SchedPhase::Inject => 1,
            SchedPhase::Poll | SchedPhase::Control => 0,
        });
        assert_eq!(total, 1);
        assert_eq!(sched.stats().rounds, 1);
        assert_eq!(sched.stats().fault_events, 1);
    }

    #[test]
    fn zero_round_bound_is_clamped_to_one() {
        let mut sched = Scheduler::new(0);
        assert_eq!(sched.max_rounds(), 1);
        let mut parts: Vec<&mut dyn Pollable> = Vec::new();
        // An empty component set is immediately quiescent.
        assert_eq!(drain(&mut sched, &mut parts, 0), 0);
        assert_eq!(sched.stats().quiescent_exits, 1);
    }
}
