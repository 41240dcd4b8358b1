//! Accounting for the drain-until-quiescent host step.
//!
//! [`crate::NetKernelHost::step`] has three phases. Fault injection comes
//! first, so timed infrastructure events (NSM crashes, migrations, link
//! changes) land at one deterministic point — before any component is
//! polled. Then every datapath component is polled in rounds until a full
//! round reports no work (quiescence) or `HostConfig::max_poll_rounds` is
//! hit: round trips complete within one step regardless of queue depth,
//! while the bound keeps a misbehaving component from stalling virtual time.
//! The control phase closes the step, after the datapath has drained, so
//! operator decisions (autoscaling, rebalancing) observe a settled view of
//! the step's load and take effect from the next step onwards.

/// Cumulative step behaviour counters, for observability and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Host steps executed.
    pub steps: u64,
    /// Poll rounds executed across all steps.
    pub rounds: u64,
    /// Steps that ended early because a full round reported no work.
    pub quiescent_exits: u64,
    /// Steps whose final allowed round still reported work. Quiescence was
    /// never observed in such a step — the backlog may have drained exactly
    /// on the last round, or work may remain for the next step.
    pub round_limit_hits: u64,
    /// Total work items (fault events, NQEs, segments, frames, control
    /// actions) across all steps: a step that only crashed an NSM or only
    /// resized one is not "idle".
    pub work_items: u64,
    /// Fault events applied in inject phases across all steps.
    pub fault_events: u64,
    /// Control-plane actions applied in control phases across all steps.
    pub control_actions: u64,
}
