//! Per-core cycle accounting.
//!
//! The evaluation's CPU-overhead tables (paper §7.8, Tables 6 and 7) compare
//! "the total number of cycles spent by the VM in Baseline, and the total
//! cycles spent by the VM and the NSM together in NetKernel". The simulator
//! reproduces that methodology: every simulated component owns a [`CoreSet`]
//! whose cores receive a cycle budget each step, work is charged against the
//! budget, and the cumulative ledger yields utilisation and overhead ratios.

use nk_types::constants::CYCLES_PER_SECOND;
use nk_types::NsmId;
use std::collections::BTreeMap;

/// Cumulative cycle ledger of one component (a VM, an NSM, or CoreEngine).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleLedger {
    /// Cycles actually spent doing work.
    pub busy: u64,
    /// Cycles offered by the cores over the component's lifetime.
    pub offered: u64,
}

impl CycleLedger {
    /// Utilisation in `[0, 1]` over the component's lifetime.
    pub fn utilisation(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.busy as f64 / self.offered as f64
        }
    }
}

/// A set of cores with a per-step cycle budget.
///
/// At the beginning of every simulation step the owner calls
/// [`CoreSet::begin_step`] with the step length; components then charge work
/// with [`CoreSet::try_charge`]/[`CoreSet::charge_up_to`] until the budget
/// runs out.
/// The budget models the aggregate capacity of all cores in the set — the
/// NetKernel data path pins connections to queue sets and queue sets to
/// cores, so treating the set as a fluid pool is accurate for the workloads
/// the evaluation uses (many connections spread over all cores).
#[derive(Clone, Debug)]
pub struct CoreSet {
    cores: usize,
    cycles_per_core_per_sec: u64,
    /// Remaining cycle budget for the current step.
    budget: u64,
    ledger: CycleLedger,
    /// The ledger as the host control plane last saw it. The mark lives
    /// beside the ledger, so a component that is removed and registered
    /// again starts its deltas from zero, with no cursor left behind.
    mark: CycleLedger,
}

impl CoreSet {
    /// A set of `cores` cores at the testbed clock rate (2.3 GHz).
    pub fn new(cores: usize) -> Self {
        Self::with_clock(cores, CYCLES_PER_SECOND)
    }

    /// A set of `cores` cores with an explicit per-core clock rate.
    pub fn with_clock(cores: usize, cycles_per_core_per_sec: u64) -> Self {
        CoreSet {
            cores,
            cycles_per_core_per_sec,
            budget: 0,
            ledger: CycleLedger::default(),
            mark: CycleLedger::default(),
        }
    }

    /// Number of cores in the set.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Change the number of cores (cores "can be readily added to or removed
    /// from a NSM", paper §3). Takes effect from the next step.
    pub fn set_cores(&mut self, cores: usize) {
        self.cores = cores;
    }

    /// Start a new step of `dt_ns` nanoseconds: refill the budget.
    ///
    /// Unused budget from the previous step is discarded (idle cycles do not
    /// accumulate).
    pub fn begin_step(&mut self, dt_ns: u64) {
        let offered = (self.cores as u128 * self.cycles_per_core_per_sec as u128 * dt_ns as u128
            / 1_000_000_000u128) as u64;
        self.budget = offered;
        self.ledger.offered += offered;
    }

    /// Remaining budget for this step.
    pub fn remaining(&self) -> u64 {
        self.budget
    }

    /// True when the budget for this step is exhausted.
    pub fn exhausted(&self) -> bool {
        self.budget == 0
    }

    /// Charge exactly `cycles` if the budget covers it. Returns `true` on
    /// success, `false` (charging nothing) otherwise.
    pub fn try_charge(&mut self, cycles: u64) -> bool {
        if cycles <= self.budget {
            self.budget -= cycles;
            self.ledger.busy += cycles;
            true
        } else {
            false
        }
    }

    /// Charge up to `cycles`, clamping to the remaining budget. Returns the
    /// cycles actually charged.
    pub fn charge_up_to(&mut self, cycles: u64) -> u64 {
        let charged = cycles.min(self.budget);
        self.budget -= charged;
        self.ledger.busy += charged;
        charged
    }

    /// Cumulative ledger.
    pub fn ledger(&self) -> CycleLedger {
        self.ledger
    }

    /// What the ledger gained since the last call; moves the mark.
    pub fn take_delta(&mut self) -> CycleLedger {
        let prev = std::mem::replace(&mut self.mark, self.ledger);
        CycleLedger {
            busy: self.ledger.busy - prev.busy,
            offered: self.ledger.offered - prev.offered,
        }
    }
}

/// A component whose core allocation the operator can resize.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum PoolMember {
    /// The CoreEngine NQE switch.
    Engine,
    /// One Network Stack Module.
    Nsm(NsmId),
}

/// A registry of [`CoreSet`]s, one per resizable component of a host.
///
/// The host registers CoreEngine and every NSM, refills all budgets at the
/// start of each step, and charges each component's datapath work against
/// its own set. The control plane reads the cumulative ledgers to derive
/// per-epoch utilisation and calls [`CorePool::set_cores`] to act — the
/// paper's "cores can be readily added to or removed from a NSM" (§3) as an
/// operation rather than a configuration constant. A `BTreeMap` keyed by
/// [`PoolMember`] keeps every iteration order deterministic.
#[derive(Clone, Debug)]
pub struct CorePool {
    members: BTreeMap<PoolMember, CoreSet>,
    cycles_per_core_per_sec: u64,
}

impl CorePool {
    /// An empty pool at the testbed clock rate.
    pub fn new() -> Self {
        Self::with_clock(CYCLES_PER_SECOND)
    }

    /// An empty pool with an explicit per-core clock rate.
    pub fn with_clock(cycles_per_core_per_sec: u64) -> Self {
        CorePool {
            members: BTreeMap::new(),
            cycles_per_core_per_sec: cycles_per_core_per_sec.max(1),
        }
    }

    /// Register a component with an initial core count. Re-registering an
    /// existing member resets its set (fresh ledger) — a restarted NSM
    /// starts a new accounting life.
    pub fn register(&mut self, member: PoolMember, cores: usize) {
        self.members.insert(
            member,
            CoreSet::with_clock(cores, self.cycles_per_core_per_sec),
        );
    }

    /// Remove a component (a crashed NSM stops offering cycles).
    pub fn remove(&mut self, member: PoolMember) {
        self.members.remove(&member);
    }

    /// True when the member is registered.
    pub fn contains(&self, member: PoolMember) -> bool {
        self.members.contains_key(&member)
    }

    /// Registered members, in deterministic order.
    pub fn members(&self) -> impl Iterator<Item = PoolMember> + '_ {
        self.members.keys().copied()
    }

    /// Start a new step: refill every member's budget.
    pub fn begin_step(&mut self, dt_ns: u64) {
        for set in self.members.values_mut() {
            set.begin_step(dt_ns);
        }
    }

    /// Resize a member (takes effect from the next step, like
    /// [`CoreSet::set_cores`]). Returns `false` for unknown members.
    pub fn set_cores(&mut self, member: PoolMember, cores: usize) -> bool {
        match self.members.get_mut(&member) {
            Some(set) => {
                set.set_cores(cores);
                true
            }
            None => false,
        }
    }

    /// Current core count of a member.
    pub fn cores(&self, member: PoolMember) -> Option<usize> {
        self.members.get(&member).map(CoreSet::cores)
    }

    /// Charge up to `cycles` against a member's step budget; returns the
    /// cycles actually charged (0 for unknown members).
    pub fn charge_up_to(&mut self, member: PoolMember, cycles: u64) -> u64 {
        self.members
            .get_mut(&member)
            .map(|set| set.charge_up_to(cycles))
            .unwrap_or(0)
    }

    /// Cumulative ledger of a member.
    pub fn ledger(&self, member: PoolMember) -> Option<CycleLedger> {
        self.members.get(&member).map(CoreSet::ledger)
    }

    /// [`CoreSet::take_delta`] of a member (`None` when it is not registered).
    pub fn take_delta(&mut self, member: PoolMember) -> Option<CycleLedger> {
        self.members.get_mut(&member).map(CoreSet::take_delta)
    }
}

impl Default for CorePool {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_scales_with_cores_and_step() {
        let mut one = CoreSet::with_clock(1, 1_000_000_000);
        one.begin_step(1_000_000); // 1 ms at 1 GHz = 1M cycles
        assert_eq!(one.remaining(), 1_000_000);

        let mut four = CoreSet::with_clock(4, 1_000_000_000);
        four.begin_step(1_000_000);
        assert_eq!(four.remaining(), 4_000_000);
    }

    #[test]
    fn charging_respects_budget() {
        let mut c = CoreSet::with_clock(1, 1_000_000_000);
        c.begin_step(1_000); // 1000 cycles
        assert!(c.try_charge(400));
        assert!(c.try_charge(600));
        assert!(!c.try_charge(1));
        assert!(c.exhausted());
        assert_eq!(c.ledger().busy, 1_000);
        assert_eq!(c.ledger().offered, 1_000);
        assert!((c.ledger().utilisation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn charge_up_to_clamps() {
        let mut c = CoreSet::with_clock(1, 1_000_000_000);
        c.begin_step(1_000);
        assert_eq!(c.charge_up_to(700), 700);
        assert_eq!(c.charge_up_to(700), 300);
        assert_eq!(c.charge_up_to(700), 0);
    }

    #[test]
    fn unused_budget_does_not_accumulate() {
        let mut c = CoreSet::with_clock(1, 1_000_000_000);
        c.begin_step(1_000);
        c.begin_step(1_000);
        assert_eq!(c.remaining(), 1_000);
        assert_eq!(c.ledger().offered, 2_000);
        assert_eq!(c.ledger().busy, 0);
        assert_eq!(c.ledger().utilisation(), 0.0);
    }

    #[test]
    fn empty_ledger_utilisation_is_zero() {
        assert_eq!(CycleLedger::default().utilisation(), 0.0);
    }

    #[test]
    fn resizing_cores_takes_effect_next_step() {
        let mut c = CoreSet::with_clock(1, 1_000_000_000);
        c.begin_step(1_000);
        assert_eq!(c.remaining(), 1_000);
        c.set_cores(3);
        assert_eq!(c.cores(), 3);
        c.begin_step(1_000);
        assert_eq!(c.remaining(), 3_000);
    }

    /// Shrinking mid-step below what was already charged must not disturb
    /// the current budget or the ledger: the charged cycles stay charged,
    /// the remaining budget stays spendable, and only the next refill
    /// reflects the smaller set.
    #[test]
    fn shrinking_mid_step_below_charged_cycles_is_safe() {
        let mut c = CoreSet::with_clock(4, 1_000_000_000);
        c.begin_step(1_000); // 4000 cycles offered
        assert!(c.try_charge(3_000));
        c.set_cores(1); // 1 core could only ever offer 1000
        assert_eq!(c.remaining(), 1_000, "mid-step budget is untouched");
        assert!(c.try_charge(1_000), "remaining budget stays spendable");
        assert_eq!(c.ledger().busy, 4_000);
        assert_eq!(c.ledger().offered, 4_000);
        c.begin_step(1_000);
        assert_eq!(c.remaining(), 1_000, "refill uses the shrunk set");
        assert_eq!(c.ledger().offered, 5_000);
    }

    /// Shrinking all the way to zero cores offers no cycles but never
    /// divides by zero or panics; utilisation stays well-defined.
    #[test]
    fn zero_core_set_offers_nothing() {
        let mut c = CoreSet::with_clock(2, 1_000_000_000);
        c.begin_step(1_000);
        c.charge_up_to(500);
        c.set_cores(0);
        c.begin_step(1_000);
        assert_eq!(c.remaining(), 0);
        assert!(c.exhausted());
        assert!(!c.try_charge(1));
        assert_eq!(c.charge_up_to(100), 0);
        let l = c.ledger();
        assert_eq!(l.busy, 500);
        assert_eq!(l.offered, 2_000);
    }

    #[test]
    fn pool_registers_resizes_and_charges_members() {
        let mut pool = CorePool::with_clock(1_000_000_000);
        pool.register(PoolMember::Engine, 1);
        pool.register(PoolMember::Nsm(NsmId(1)), 2);
        assert!(pool.contains(PoolMember::Engine));
        assert_eq!(pool.cores(PoolMember::Nsm(NsmId(1))), Some(2));

        pool.begin_step(1_000);
        assert_eq!(pool.charge_up_to(PoolMember::Engine, 1_500), 1_000);
        assert_eq!(pool.charge_up_to(PoolMember::Nsm(NsmId(1)), 1_500), 1_500);
        let l = pool.ledger(PoolMember::Nsm(NsmId(1))).unwrap();
        assert_eq!(l.busy, 1_500);
        assert_eq!(l.offered, 2_000);

        assert!(pool.set_cores(PoolMember::Nsm(NsmId(1)), 4));
        pool.begin_step(1_000);
        assert_eq!(pool.charge_up_to(PoolMember::Nsm(NsmId(1)), 10_000), 4_000);
    }

    #[test]
    fn pool_handles_unknown_and_removed_members() {
        let mut pool = CorePool::new();
        assert!(!pool.set_cores(PoolMember::Nsm(NsmId(9)), 2));
        assert_eq!(pool.cores(PoolMember::Nsm(NsmId(9))), None);
        assert_eq!(pool.charge_up_to(PoolMember::Nsm(NsmId(9)), 100), 0);
        assert!(pool.ledger(PoolMember::Nsm(NsmId(9))).is_none());

        pool.register(PoolMember::Nsm(NsmId(1)), 1);
        pool.remove(PoolMember::Nsm(NsmId(1)));
        assert!(!pool.contains(PoolMember::Nsm(NsmId(1))));
        assert_eq!(pool.members().count(), 0);
    }

    /// Re-registering a member (an NSM restart) starts a fresh ledger and a
    /// fresh mark.
    #[test]
    fn reregistration_resets_the_ledger_and_its_marks() {
        let nsm = PoolMember::Nsm(NsmId(1));
        let mut pool = CorePool::with_clock(1_000_000_000);
        pool.register(nsm, 1);
        pool.begin_step(1_000);
        pool.charge_up_to(nsm, 800);
        let ledger = |busy, offered| Some(CycleLedger { busy, offered });
        assert_eq!(pool.take_delta(nsm), ledger(800, 1_000));
        assert_eq!(pool.take_delta(nsm), ledger(0, 0));
        pool.register(nsm, 1);
        assert_eq!(pool.ledger(nsm), ledger(0, 0));
        pool.begin_step(1_000);
        pool.charge_up_to(nsm, 300);
        assert_eq!(pool.take_delta(nsm), ledger(300, 1_000));
        assert_eq!(pool.take_delta(PoolMember::Engine), None);
    }

    #[test]
    fn pool_members_iterate_in_deterministic_order() {
        let mut pool = CorePool::new();
        pool.register(PoolMember::Nsm(NsmId(2)), 1);
        pool.register(PoolMember::Engine, 1);
        pool.register(PoolMember::Nsm(NsmId(1)), 1);
        let order: Vec<PoolMember> = pool.members().collect();
        assert_eq!(
            order,
            vec![
                PoolMember::Engine,
                PoolMember::Nsm(NsmId(1)),
                PoolMember::Nsm(NsmId(2)),
            ]
        );
    }
}
