//! The cluster-step executor: one round loop over pollable units, spread
//! over as many OS threads as asked for, byte-identical at any count.
//!
//! A cluster step's poll phase is "every unit polls, then the hub runs,
//! until a whole round reports no work". This module owns that loop —
//! once — and nothing else of the step:
//!
//! * **Units** are whatever implements [`Pollable`] — the one poll trait
//!   every datapath component already answers to — and is `Send`: whole
//!   [`nk_host::NetKernelHost`]s, or the [`nk_host::ShareLane`]s a host
//!   splits into. Within a round a unit only touches its own state plus the
//!   sending end of its cross-shard edges (the uplink trunk's port, the lane
//!   report edge), which the hub reads only after the round barrier, so
//!   units never share mutable state and their polls commute.
//! * **Dealing.** Units go onto `min(threads, units)` shards heaviest first
//!   (each unit arrives with its weight, normally its last step's work),
//!   each onto the lightest shard — longest-processing-time dealing. A
//!   weight of 0 counts as 1, so equal weights deal round-robin in list
//!   order. The assignment is a pure function of (weights, list order,
//!   shard count) and only ever affects scheduling.
//! * **A round runs one way.** The caller's thread polls shard 0 itself and
//!   one scoped helper thread polls each further shard, so `threads = N`
//!   is N busy OS threads, the caller included, and `threads = 1` is the
//!   same code with no helper. All of them meet at a spin-then-yield
//!   barrier before and after each round; between rounds the caller runs
//!   the hub with every helper parked — so the hub is free of data races
//!   and drains the cross-shard edges in the same order at any thread
//!   count. A panic on any thread poisons the barrier: the others leave it
//!   and the panic reaches the caller.
//! * **Quiescence is a sum.** The exit decision (`work == 0`, round bound)
//!   depends only on the *total* work of a round, and sums are independent
//!   of shard assignment — every thread count runs the same rounds.
//!
//! Opening and closing a step (fault injection, the control phase) are not
//! the executor's business: [`crate::Cluster`] runs them serially on whole
//! hosts in `HostId` order around the poll phase, in every mode.
//!
//! The executor also keeps the model numbers the `par01`/`par02`
//! experiments report: `serial_work` (what one thread executes) next to
//! `critical_work` (per round the maximum shard plus the hub — the
//! schedule's critical path). Their ratio is the thread-count-independent
//! speedup of the sharding itself, which matters because CI runners and
//! the development container often pin the process to a single core where
//! wall clock cannot show it.

use nk_sim::Pollable;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread::ScopedJoinHandle;

/// A unit of a poll phase as [`ShardedExecutor::drive`] takes it.
pub type Unit<'u> = &'u mut (dyn Pollable + Send);

/// What one driven poll phase did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepOutcome {
    /// Total work items (unit rounds + hub).
    pub work: usize,
    /// Rounds executed.
    pub rounds: usize,
    /// True when the phase ended because a full round reported no work
    /// (false: the round bound cut it off).
    pub quiescent: bool,
}

/// Executor counters: totals and the serial-vs-critical-path work model.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// OS threads busy in the latest poll phase, the caller included (the
    /// configured count clamped to the unit count).
    pub threads: usize,
    /// Steps driven.
    pub steps: u64,
    /// Rounds executed across all steps.
    pub rounds: u64,
    /// Work done by units in poll rounds, all shards.
    pub poll_work: u64,
    /// Work done by the hub at round barriers.
    pub hub_work: u64,
    /// Frames the ToR forwarded at round barriers (the cross-shard edge).
    pub barrier_frames: u64,
    /// Total work items — what a single thread executes.
    pub serial_work: u64,
    /// Critical-path work items: per round the *maximum* shard (shards run
    /// in parallel) plus the full hub (it runs serially at the barrier).
    /// Begin and close phases run serially outside the executor and always
    /// count in full ([`ShardedExecutor::note_serial_work`]).
    /// `serial_work / critical_work` is the modeled speedup of the
    /// sharding, independent of how many cores the process actually gets.
    pub critical_work: u64,
}

impl ExecStats {
    /// Modeled speedup of the sharded schedule over the serial walk:
    /// `serial_work / critical_work` (1.0 when nothing ran yet).
    ///
    /// `serial_work` is every work item executed — what one thread would
    /// run. `critical_work` is the schedule's critical path, accumulated as
    /// the work happens, so the serial hub share is accounted per round
    /// rather than assumed away:
    ///
    /// ```text
    /// critical_work = Σ over rounds ( max(shard poll work) + hub work )
    ///               + Σ over steps  ( begin work + close work )
    /// ```
    ///
    /// Worked example: one round, 8 lanes × 12 work items dealt 2-per-shard
    /// onto 4 shards, and a hub doing 8 items at the barrier. Serially
    /// that's `8 × 12 + 8 = 104` items; the critical path is one shard's
    /// `2 × 12 = 24` plus the hub's 8 = 32, so the model reports
    /// `104 / 32 = 3.25`:
    ///
    /// ```
    /// use nk_cluster::ExecStats;
    /// let stats = ExecStats {
    ///     serial_work: 104,
    ///     critical_work: 32,
    ///     ..Default::default()
    /// };
    /// assert!((stats.modeled_speedup() - 3.25).abs() < 1e-12);
    /// assert_eq!(ExecStats::default().modeled_speedup(), 1.0);
    /// ```
    pub fn modeled_speedup(&self) -> f64 {
        if self.critical_work == 0 {
            1.0
        } else {
            self.serial_work as f64 / self.critical_work as f64
        }
    }
}

/// How many times a waiter spin-loops before each wait falls back to
/// [`std::thread::yield_now`]. Small on purpose: the common case (every
/// other party is about to arrive) resolves within a few dozen iterations,
/// and anything longer means the machine is oversubscribed — more runnable
/// threads than cores, the normal state of CI runners — where burning the
/// timeslice spinning *prevents* the thread we're waiting for from running.
const BARRIER_SPIN_LIMIT: u32 = 128;

/// A sense-reversing barrier that spins briefly and then yields.
///
/// `std::sync::Barrier` parks on a condvar — a syscall per round per
/// thread, paid 10–30 times per step. Poll rounds are microseconds long, so
/// the barrier spins up to [`BARRIER_SPIN_LIMIT`] iterations (the common
/// case: every other party is about to arrive) and then yields its
/// timeslice between polls, so an oversubscribed machine (CI pinning
/// everything to one core) still makes progress instead of collapsing into
/// N−1 threads busy-waiting on the one that holds the core.
///
/// A party that dies never arrives, so every party holds a
/// [`PoisonOnPanic`] guard: unwinding sets `poisoned`, and every waiter
/// gives up instead of spinning forever.
struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Wait for every party. Returns `false` — without all parties having
    /// arrived — once the barrier is poisoned; the caller must then stop
    /// using it.
    #[must_use]
    fn wait(&self) -> bool {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arriver: reset the count *before* publishing the new
            // generation, so early risers find a clean barrier.
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if self.poisoned.load(Ordering::Acquire) {
                    return false;
                }
                spins += 1;
                if spins < BARRIER_SPIN_LIMIT {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        true
    }
}

/// Held by every barrier party for as long as it may still arrive: if the
/// holder unwinds, the barrier is poisoned and the other parties' waits
/// return instead of hanging on an arrival that will never come.
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

/// The caller's side of a barrier wait. If the barrier was poisoned a
/// helper panicked: the survivors are already leaving, so join everyone and
/// re-raise the helper's own panic on the caller's thread — the same thing
/// the caller sees when a unit of its own shard panics.
fn wait_for_helpers(barrier: &SpinBarrier, helpers: &mut Vec<ScopedJoinHandle<'_, ()>>) {
    if barrier.wait() {
        return;
    }
    for helper in helpers.drain(..) {
        if let Err(payload) = helper.join() {
            std::panic::resume_unwind(payload);
        }
    }
    unreachable!("barrier poisoned, yet every helper exited cleanly");
}

/// One round of one shard: every unit polls, in list order.
fn poll_shard(shard: &mut [Unit<'_>], now_ns: u64) -> usize {
    shard.iter_mut().map(|unit| unit.poll(now_ns)).sum()
}

/// Deal `units` onto `shard_count` shards: heaviest first (list order
/// breaks ties), each onto the lightest shard; shard occupancy, then shard
/// index, break load ties. A weight of 0 counts as 1, so a fresh topology
/// still spreads across shards instead of piling onto shard 0 — and equal
/// weights deal round-robin in list order. Within a shard, units keep
/// their list order.
fn deal<'u>(units: Vec<(u64, Unit<'u>)>, shard_count: usize) -> Vec<Vec<Unit<'u>>> {
    let mut order: Vec<(usize, u64)> = units
        .iter()
        .map(|(weight, _)| (*weight).max(1))
        .enumerate()
        .collect();
    // Stable: equal weights stay in list order.
    order.sort_by_key(|(_, weight)| std::cmp::Reverse(*weight));
    let mut filled = vec![(0u64, 0usize); shard_count]; // (load, occupancy)
    let mut assignment = vec![0usize; order.len()];
    for (index, weight) in order {
        let target = (0..shard_count)
            .min_by_key(|i| (filled[*i], *i))
            .expect("shard_count >= 1");
        filled[target].0 += weight;
        filled[target].1 += 1;
        assignment[index] = target;
    }
    let mut shards: Vec<Vec<Unit<'u>>> = filled
        .iter()
        .map(|(_, occupancy)| Vec::with_capacity(*occupancy))
        .collect();
    for ((_, unit), shard) in units.into_iter().zip(assignment) {
        shards[shard].push(unit);
    }
    shards
}

/// Drives the poll phase of cluster steps over a set of [`Pollable`] units.
pub struct ShardedExecutor {
    threads: usize,
    stats: ExecStats,
}

impl ShardedExecutor {
    /// An executor that keeps `threads` OS threads busy in a poll phase,
    /// the caller's included (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ShardedExecutor {
            threads: threads.max(1),
            stats: ExecStats::default(),
        }
    }

    /// Configured count of OS threads busy in a poll phase, the caller
    /// included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Accumulated executor counters.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Account work the caller ran serially outside the poll phase — a
    /// step's begin and close phases, run on whole hosts in `HostId` order.
    /// It genuinely is serial, so it counts in full on both sides of the
    /// work model and is attributed to no shard.
    pub fn note_serial_work(&mut self, work: usize) {
        self.stats.serial_work += work as u64;
        self.stats.critical_work += work as u64;
    }

    /// Drive the poll phase of one step: rounds of every unit's
    /// [`Pollable::poll`] followed by the hub — which must run the
    /// cross-unit fabric (host hubs when the units are lanes, the ToR, the
    /// cluster's endpoint stacks) and return `(work, frames_forwarded)` —
    /// until a full round reports no work or `max_rounds` is hit.
    ///
    /// `units` is an ordered list of `(weight, unit)`, dealt onto
    /// `min(threads, units.len())` shards (see the module docs; equal
    /// weights deal round-robin). The caller's thread polls shard 0 and a
    /// scoped helper thread polls each other shard; all of them meet at one
    /// barrier twice per round — once to start it, once when it is done —
    /// and with one shard that is a one-party barrier and no helper. The
    /// hub always runs on the caller's thread with every helper parked, so
    /// everything it touches is free of data races and ordered identically
    /// for any thread count, and the rounds executed never depend on the
    /// dealing.
    ///
    /// A panic in a unit or in the hub propagates to the caller at any
    /// thread count, after every helper has exited.
    pub fn drive(
        &mut self,
        units: Vec<(u64, Unit<'_>)>,
        mut hub: impl FnMut(u64) -> (usize, usize),
        now_ns: u64,
        max_rounds: usize,
    ) -> StepOutcome {
        let shard_count = self.threads.min(units.len()).max(1);
        let stats = &mut self.stats;
        stats.threads = shard_count;
        let mut shards = deal(units, shard_count).into_iter();
        let mut own = shards.next().expect("shard_count >= 1");
        let barrier = SpinBarrier::new(shard_count);
        let stop = AtomicBool::new(false);
        // Per-helper cells carry each round's work back to the caller.
        let cells: Vec<AtomicUsize> = (1..shard_count).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            let _poison = PoisonOnPanic(&barrier);
            let mut helpers = Vec::with_capacity(cells.len());
            for (mut shard, cell) in shards.zip(&cells) {
                let (barrier, stop) = (&barrier, &stop);
                helpers.push(scope.spawn(move || {
                    let _poison = PoisonOnPanic(barrier);
                    // Round start (or stop) … round done → hub runs.
                    while barrier.wait() && !stop.load(Ordering::Acquire) {
                        cell.store(poll_shard(&mut shard, now_ns), Ordering::Release);
                        if !barrier.wait() {
                            break;
                        }
                    }
                }));
            }
            let mut total = 0usize;
            let mut rounds = 0usize;
            let quiescent = loop {
                wait_for_helpers(&barrier, &mut helpers); // round start
                let own_work = poll_shard(&mut own, now_ns);
                wait_for_helpers(&barrier, &mut helpers); // round done
                let mut poll_sum = own_work;
                let mut poll_max = own_work;
                for cell in &cells {
                    let work = cell.load(Ordering::Acquire);
                    poll_sum += work;
                    poll_max = poll_max.max(work);
                }
                let (hub_work, frames) = hub(now_ns);
                let work = poll_sum + hub_work;
                rounds += 1;
                total += work;
                stats.poll_work += poll_sum as u64;
                stats.hub_work += hub_work as u64;
                stats.barrier_frames += frames as u64;
                stats.serial_work += work as u64;
                stats.critical_work += (poll_max + hub_work) as u64;
                if work == 0 {
                    break true;
                }
                if rounds >= max_rounds {
                    break false;
                }
            };
            stop.store(true, Ordering::Release);
            wait_for_helpers(&barrier, &mut helpers); // helpers observe stop
            stats.steps += 1;
            stats.rounds += rounds as u64;
            StepOutcome {
                work: total,
                rounds,
                quiescent,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_fabric::{uplink_pair, Frame, HostUplink, TorUplink};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A synthetic unit: does `load` work items per round for `busy_rounds`
    /// rounds, sending a frame tagged `(id, item)` per item up its trunk, and
    /// panics on entering round `panic_in_round` when that is set. It notes
    /// the OS thread of every poll, so a test can count a unit's polls and
    /// tell which units shared a shard.
    struct MockUnit {
        id: u32,
        load: usize,
        busy_rounds: usize,
        rounds_done: usize,
        panic_in_round: Option<usize>,
        uplink: HostUplink<usize>,
        #[expect(
            clippy::disallowed_types,
            reason = "thread-identity: test observes scheduling, feeds no data path"
        )]
        polled_on: Vec<std::thread::ThreadId>,
    }

    impl Pollable for MockUnit {
        fn poll(&mut self, _now_ns: u64) -> usize {
            #[expect(
                clippy::disallowed_methods,
                reason = "thread-identity: test observes scheduling, feeds no data path"
            )]
            self.polled_on.push(std::thread::current().id());
            if self.panic_in_round == Some(self.rounds_done + 1) {
                panic!("unit {} blew up", self.id);
            }
            if self.rounds_done >= self.busy_rounds {
                return 0;
            }
            self.rounds_done += 1;
            for item in 0..self.load {
                self.uplink.send(Frame {
                    src: self.id,
                    dst: 0,
                    flow_hash: 0,
                    wire_bytes: 0,
                    payload: item,
                });
            }
            self.load
        }
    }

    /// The units in list order, and the ToR ends of their trunks in the
    /// same order — the shape of hosts behind a ToR.
    type Rig = (Vec<MockUnit>, Vec<TorUplink<usize>>);

    /// Build `n` units with *uneven* loads (unit i does `3*i + 1` items per
    /// round, for `i + 1` rounds).
    fn rig(n: u32) -> Rig {
        (0..n)
            .map(|id| {
                let (uplink, tor) = uplink_pair(id);
                let unit = MockUnit {
                    id,
                    load: 3 * id as usize + 1,
                    busy_rounds: id as usize + 1,
                    rounds_done: 0,
                    panic_in_round: None,
                    uplink,
                    polled_on: Vec::new(),
                };
                (unit, tor)
            })
            .unzip()
    }

    /// Drive one step over the rig at `threads`, unit i weighing
    /// `weights[i]` (0 past the end of the slice), the hub merging every
    /// trunk at the barrier in list order (and panicking on entering round
    /// `hub_panic_in_round`, when set); 5 items of serial begin/close work
    /// are noted around it. Returns (outcome, merged log, executor stats).
    fn run_step(
        threads: usize,
        (units, tors): &mut Rig,
        weights: &[u64],
        max_rounds: usize,
        hub_panic_in_round: Option<usize>,
    ) -> (StepOutcome, Vec<(u32, usize)>, ExecStats) {
        let mut log = Vec::new();
        let mut frames = Vec::new();
        let mut hub_calls = 0;
        let mut exec = ShardedExecutor::new(threads);
        exec.note_serial_work(5);
        let units = units
            .iter_mut()
            .enumerate()
            .map(|(i, unit)| (weights.get(i).copied().unwrap_or(0), unit as Unit<'_>))
            .collect();
        let outcome = exec.drive(
            units,
            |_now| {
                hub_calls += 1;
                assert_ne!(hub_panic_in_round, Some(hub_calls), "hub blew up");
                for tor in tors.iter_mut() {
                    tor.drain_into(&mut frames);
                }
                let n = frames.len();
                log.extend(frames.drain(..).map(|f| (f.src, f.payload)));
                (n, n)
            },
            0,
            max_rounds,
        );
        (outcome, log, exec.stats().clone())
    }

    /// A deliberately misleading weight vector: placement may be bad,
    /// bytes must not change.
    fn skewed(n: u32) -> Vec<u64> {
        (0..n).map(|id| 1000 - id as u64).collect()
    }

    /// Work per round of each shard of the last step, ascending: units
    /// polled on the same OS thread were dealt to the same shard.
    fn shard_loads(units: &[MockUnit]) -> Vec<usize> {
        let mut shards = Vec::new();
        for unit in units {
            let thread = unit.polled_on[0];
            match shards.iter_mut().find(|(t, _)| *t == thread) {
                Some((_, load)) => *load += unit.load,
                None => shards.push((thread, unit.load)),
            }
        }
        let mut loads: Vec<usize> = shards.into_iter().map(|(_, load)| load).collect();
        loads.sort_unstable();
        loads
    }

    /// The executor's core promise: under uneven shard load, the merged
    /// cross-shard frame stream, the outcome and every
    /// thread-count-independent counter are identical for any thread count
    /// and any weight vector, because the hub drains the trunks in list
    /// order with every helper parked.
    #[test]
    fn merge_order_and_counters_are_identical_for_any_threads_and_weights() {
        let (serial, log1, s1) = run_step(1, &mut rig(8), &[], 64, None);
        for threads in [1, 2, 3, 4, 8] {
            for weights in [&[][..], &skewed(8)] {
                let mut rig = rig(8);
                let (sharded, log_n, sn) = run_step(threads, &mut rig, weights, 64, None);
                assert_eq!(sharded, serial, "outcome diverged at {threads} threads");
                assert_eq!(log_n, log1, "merge order diverged at {threads} threads");
                assert_eq!(sn.steps, 1);
                assert_eq!(sn.rounds, s1.rounds);
                assert_eq!(sn.serial_work, s1.serial_work);
                assert_eq!(sn.poll_work, s1.poll_work);
                assert_eq!(sn.hub_work, s1.hub_work);
                assert_eq!(sn.barrier_frames, s1.barrier_frames);
                assert_eq!(sn.threads, threads);
                // Every unit was dealt to exactly one shard: one poll per
                // round each, and the shards' work adds up to the total.
                for unit in &rig.0 {
                    assert_eq!(unit.polled_on.len(), serial.rounds, "unit {}", unit.id);
                }
                assert_eq!(shard_loads(&rig.0).len(), threads);
                assert!(sn.critical_work <= sn.serial_work);
            }
        }
        // Sanity: the log really is the full uneven workload, in list order
        // within each round, and the step ran to quiescence.
        let expected: usize = (0..8usize).map(|i| (3 * i + 1) * (i + 1)).sum();
        assert_eq!(log1.len(), expected);
        assert_eq!(s1.poll_work, expected as u64);
        assert_eq!(log1[0], (0, 0), "round 1 starts with unit 0");
        assert!(serial.quiescent);
        assert_eq!(serial.rounds, 9, "8 busy rounds + the quiescent one");
        assert_eq!(s1.serial_work, s1.poll_work + s1.hub_work + 5);
    }

    /// `threads = N` is N busy OS threads and the caller is one of them:
    /// over 8 units exactly N distinct thread ids poll, the caller's among
    /// them, and at N = 1 nothing but the caller's thread ever polls.
    #[test]
    fn the_callers_thread_is_one_of_exactly_n_polling_threads() {
        #[expect(
            clippy::disallowed_methods,
            reason = "thread-identity: test observes scheduling, feeds no data path"
        )]
        let caller = std::thread::current().id();
        for threads in [1, 2, 4] {
            let mut rig = rig(8);
            run_step(threads, &mut rig, &[], 64, None);
            let mut seen = Vec::new();
            for thread in rig.0.iter().flat_map(|unit| &unit.polled_on) {
                if !seen.contains(thread) {
                    seen.push(*thread);
                }
            }
            assert_eq!(seen.len(), threads, "distinct polling threads");
            assert!(seen.contains(&caller), "the caller polls a shard itself");
        }
    }

    /// The work model: critical-path work equals serial work on one shard,
    /// shrinks with more shards and never counts the serial begin/close
    /// work or the hub as overlapped.
    #[test]
    fn work_model_tracks_the_critical_path() {
        for weights in [&[][..], &skewed(8)] {
            let (_, _, s1) = run_step(1, &mut rig(8), weights, 64, None);
            let (_, _, s4) = run_step(4, &mut rig(8), weights, 64, None);
            assert_eq!(s1.critical_work, s1.serial_work, "one shard: no overlap");
            assert!(
                s4.critical_work < s4.serial_work,
                "four shards overlap work: {} < {}",
                s4.critical_work,
                s4.serial_work
            );
            assert!(s4.critical_work >= s4.hub_work + 5);
            assert!(s4.modeled_speedup() > 1.0);
        }
    }

    /// The round bound cuts a step that never quiesces, at the same round
    /// count for any thread count.
    #[test]
    fn round_bound_applies_identically() {
        for threads in [1, 2, 4] {
            let mut rig = rig(3);
            for unit in rig.0.iter_mut() {
                unit.busy_rounds = usize::MAX; // never goes quiet
            }
            let (outcome, _, stats) = run_step(threads, &mut rig, &[], 8, None);
            assert_eq!(outcome.rounds, 8);
            assert!(!outcome.quiescent);
            assert_eq!(stats.rounds, 8);
        }
    }

    /// More threads than units degrades gracefully to one unit per shard.
    #[test]
    fn threads_clamp_to_unit_count() {
        let mut rig = rig(2);
        let (_, _, stats) = run_step(16, &mut rig, &[], 64, None);
        assert_eq!(stats.threads, 2);
        assert_eq!(shard_loads(&rig.0), vec![1, 4], "one unit per shard");
    }

    /// Weighted dealing beats round-robin where it matters: heavy units
    /// spread across shards instead of stacking, so the critical path sits
    /// near the heaviest unit's own work rather than a pile of them.
    #[test]
    fn weighted_dealing_balances_uneven_units() {
        // 8 units with loads 2, 7, …, 37, each busy for exactly one round:
        // the round's critical path is its heaviest shard.
        let uneven = || {
            let mut rig = rig(8);
            for unit in rig.0.iter_mut() {
                unit.load = 5 * unit.id as usize + 2;
                unit.busy_rounds = 1;
            }
            rig
        };
        let heaviest_shard = |stats: &ExecStats| stats.critical_work - stats.hub_work - 5;
        // Weights matching the loads (as a converged previous step would
        // report): LPT on 4 shards pairs 37+2, 32+7, 27+12, 22+17 — every
        // shard polls exactly 39.
        let weights: Vec<u64> = (0..8).map(|id| 5 * id + 2).collect();
        let mut rig = uneven();
        let (_, _, stats) = run_step(4, &mut rig, &weights, 64, None);
        assert_eq!(stats.threads, 4);
        assert_eq!(
            shard_loads(&rig.0),
            vec![39; 4],
            "LPT must balance the loads"
        );
        assert_eq!(heaviest_shard(&stats), 39);
        assert!(stats.modeled_speedup() > 1.0);
        // No weights deals round-robin in list order — units {i, i + 4} on
        // shard i — which stacks {3, 7} for 17 + 37 = 54 on the critical
        // path.
        let mut rig = uneven();
        let (_, _, stats) = run_step(4, &mut rig, &[], 64, None);
        assert_eq!(shard_loads(&rig.0), vec![24, 34, 44, 54]);
        assert_eq!(heaviest_shard(&stats), 54);
    }

    /// A panic on any thread of the step — a unit's round on the caller's
    /// shard or on a helper's, or the hub — reaches the caller with its own
    /// payload at any thread count. Equal weights deal round-robin, so with
    /// N shards unit 0 is the caller's and unit 1 a helper's (at N = 1 both
    /// are the caller's); when the caller's unit panics, the helpers are
    /// mid-`wait` at the round-done rendezvous and must leave through the
    /// poisoned barrier. The scope joins every helper before returning, so
    /// this test finishing *is* the proof nobody was left spinning.
    #[test]
    fn a_panic_mid_step_reaches_the_caller_and_releases_every_worker() {
        let message = |payload: Box<dyn std::any::Any + Send>| {
            payload
                .downcast::<String>()
                .map(|s| *s)
                .expect("a formatted panic")
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "thread-identity: test observes scheduling, feeds no data path"
        )]
        let caller = std::thread::current().id();
        for threads in [1, 2, 4] {
            for (victim, on_caller) in [(0, true), (1, threads == 1)] {
                let mut rig = rig(6);
                rig.0[victim].panic_in_round = Some(2);
                let died = catch_unwind(AssertUnwindSafe(|| {
                    run_step(threads, &mut rig, &[], 64, None)
                }));
                let payload = died.expect_err("the unit's panic must propagate");
                assert_eq!(
                    message(payload),
                    format!("unit {victim} blew up"),
                    "threads {threads}"
                );
                let polled_on = &rig.0[victim].polled_on;
                assert_eq!(polled_on.len(), 2, "it died entering round 2");
                assert_eq!(polled_on[1] == caller, on_caller, "threads {threads}");
            }

            let died = catch_unwind(AssertUnwindSafe(|| {
                run_step(threads, &mut rig(6), &[], 64, Some(2))
            }));
            let payload = died.expect_err("the hub's panic must propagate");
            assert!(
                message(payload).contains("hub blew up"),
                "threads {threads}"
            );
        }
    }

    /// The barrier round-trips under heavy oversubscription: far more
    /// parties than this machine has cores, over many generations. With a
    /// pure busy-wait this dies on a small runner (every spinning waiter
    /// steals the timeslice the late arriver needs); the bounded spin +
    /// yield backoff must keep it live.
    #[test]
    fn spin_barrier_round_trips_oversubscribed() {
        const PARTIES: usize = 33;
        const GENERATIONS: usize = 500;
        let barrier = SpinBarrier::new(PARTIES);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..PARTIES {
                let barrier = &barrier;
                let counter = &counter;
                scope.spawn(move || {
                    for gen in 0..GENERATIONS {
                        counter.fetch_add(1, Ordering::Relaxed);
                        assert!(barrier.wait());
                        // Everyone must have bumped the counter for this
                        // generation before anyone proceeds past the wait.
                        assert!(counter.load(Ordering::Relaxed) >= (gen + 1) * PARTIES);
                        assert!(barrier.wait());
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), PARTIES * GENERATIONS);
    }
}
