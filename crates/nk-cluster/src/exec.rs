//! The cluster-step executor: one round loop over pollable units, spread
//! over as many OS threads as asked for, byte-identical at any count.
//!
//! A cluster step's poll phase is "every unit polls, then the hub runs,
//! until a whole round reports no work". This module owns that loop —
//! once — and nothing else of the step:
//!
//! * **Units** are whatever implements [`Pollable`] and is `Send` — the one
//!   poll trait every datapath component already answers to. The cluster's
//!   units are whole [`nk_host::NetKernelHost`]s, moved as boxes: a host is
//!   the one parallel unit. The executor owns the units for the length of a
//!   step and hands them back in list order. Within a round a unit only
//!   touches its own state plus the sending end of its uplink trunk's port,
//!   which the hub reads only once every helper reported the round done, so
//!   units never share mutable state and their polls commute.
//! * **Dealing.** Units go onto `min(threads, units)` shards round-robin in
//!   list order: unit *i* onto shard *i mod n*. The assignment is a pure
//!   function of (list length, shard count) and only ever affects
//!   scheduling.
//! * **A round runs one way.** The caller's thread polls shard 0 itself and
//!   one helper of the executor's crew polls each further shard, so
//!   `threads = N` is N busy OS threads, the caller included, and
//!   `threads = 1` is the same code with no helper. The crew outlives the
//!   step: a helper is spawned the first time a step deals a shard to it
//!   and joined when the executor drops. A round is one release and one
//!   rendezvous — the caller bumps each dealt helper's release counter,
//!   polls shard 0, and waits until every released helper reports the
//!   round done — and then the caller runs the hub while every helper
//!   idles, so the hub is free of data races and drains the cross-shard
//!   edges in the same order at any thread count. Only the caller ever
//!   waits on another thread's work, and only on work it released. An idle
//!   helper spins, then yields, then parks; the next release unparks it.
//!   A helper catches a panic of its shard and reports the round done;
//!   the caller re-raises it, so the panic reaches the caller with its own
//!   payload and the crew is ready for the next step.
//! * **Quiescence is a sum.** The exit decision (`work == 0`, round bound)
//!   depends only on the *total* work of a round, and sums are independent
//!   of shard assignment — every thread count runs the same rounds.
//!
//! Opening and closing a step (fault injection, the control phase) are not
//! the executor's business: [`crate::Cluster`] runs them serially on whole
//! hosts in `HostId` order around the poll phase, in every mode.
//!
//! The executor also keeps work counters: `serial_work` (what one thread
//! executes) next to `critical_work` (per round the maximum shard plus the
//! hub — the schedule's critical path) and `hub_work`. Only nkbench reads
//! them (its `cluster.modeled_speedup` and `cluster.hub_share`); the
//! measured `xhost_t2` / `xhost_t1` rate ratio is the parallel number that
//! counts (ROADMAP item 7 deletes the counters).

use nk_sim::Pollable;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, MutexGuard, PoisonError};
use std::thread::JoinHandle;

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
    /// Work done by the hub between rounds.
    pub hub_work: u64,
    /// Frames the ToR forwarded in the hub (the cross-shard edge).
    pub barrier_frames: u64,
    /// Total work items — what a single thread executes.
    pub serial_work: u64,
    /// Critical-path work items: per round the *maximum* shard (shards run
    /// in parallel) plus the full hub (it runs serially between rounds).
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
    /// Worked example: one round, 8 hosts × 12 work items dealt 2-per-shard
    /// onto 4 shards, and a hub doing 8 items after the round. Serially
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

/// How many times a waiter spin-loops before it falls back to
/// [`std::thread::yield_now`]. Small on purpose: the common case (the
/// awaited thread is about to get there) resolves within a few dozen
/// iterations, and anything longer means the machine is oversubscribed —
/// more runnable threads than cores, the normal state of CI runners —
/// where burning the timeslice spinning *prevents* the thread we're waiting
/// for from running.
const SPIN_LIMIT: u32 = 128;

/// How many times an idle helper yields, after spinning, before it parks.
/// Long enough to span the serial gap between two steps of a busy cluster
/// (begin, close and the caller's own work), so a helper is still awake
/// for the next step's first release; short enough that the helpers of an
/// idle cluster soon stop taking turns on the cores.
const YIELD_LIMIT: u32 = 1024;

/// A waiter's backoff: spin, then yield, then — for an idle helper — park.
#[derive(Default)]
struct Backoff(u32);

impl Backoff {
    /// One wait of the caller: it spins, then yields, but never parks —
    /// nobody would unpark it, and the work it waits for is already
    /// released.
    fn snooze(&mut self) {
        if self.0 < SPIN_LIMIT {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
        self.0 = self.0.saturating_add(1);
    }

    /// One wait of an idle helper: past the spin and yield bounds it parks
    /// until the next release unparks it.
    fn idle(&mut self) {
        if self.0 < SPIN_LIMIT + YIELD_LIMIT {
            self.snooze();
        } else {
            std::thread::park();
        }
    }
}

/// What a helper works on in a step, and what it hands back each round.
struct Slot<U> {
    /// The helper's shard for the current step, in list order.
    shard: Vec<U>,
    now_ns: u64,
    /// The work of the latest round, or the panic that ended it.
    outcome: Result<usize, Box<dyn Any + Send>>,
}

impl<U> Default for Slot<U> {
    fn default() -> Self {
        Slot {
            shard: Vec::new(),
            now_ns: 0,
            outcome: Ok(0),
        }
    }
}

/// One helper's end of the rendezvous. Only the caller bumps `release` and
/// only the helper advances `done`; while `done == release` the helper is
/// idle and its slot is the caller's.
struct Seat<U> {
    release: AtomicUsize,
    done: AtomicUsize,
    stop: AtomicBool,
    #[expect(
        clippy::disallowed_types,
        reason = "cross-shard-locks: a helper's slot. The caller fills and \
                  empties it while `done == release` and the helper locks it \
                  only between seeing a release and storing `done`, so the \
                  release/done rendezvous orders every access and the lock is \
                  never contended. A unit's panic is caught inside the lock, \
                  so it is never poisoned either."
    )]
    slot: std::sync::Mutex<Slot<U>>,
}

impl<U> Seat<U> {
    fn slot(&self) -> MutexGuard<'_, Slot<U>> {
        self.slot
            .lock()
            .expect("no thread panics holding a slot: a unit's panic is caught inside it")
    }
}

/// A helper's loop: wait for a release, poll the shard once, report done —
/// until the executor drops. A panic of the shard is caught and handed to
/// the caller as the round's outcome; the helper waits for the next release.
fn serve<U: Pollable>(seat: &Seat<U>) {
    let mut seen = 0;
    loop {
        let mut wait = Backoff::default();
        // Acquire pairs with the caller's Release store of `release`, so
        // `stop`, written before it, is visible here.
        loop {
            let release = seat.release.load(Ordering::Acquire);
            if release != seen {
                seen = release;
                break;
            }
            wait.idle();
        }
        if seat.stop.load(Ordering::Relaxed) {
            return;
        }
        {
            let mut slot = seat.slot();
            let Slot {
                shard,
                now_ns,
                outcome,
            } = &mut *slot;
            *outcome = catch_unwind(AssertUnwindSafe(|| poll_shard(shard, *now_ns)));
        }
        // Release pairs with the caller's Acquire load in `wait_done`.
        seat.done.store(seen, Ordering::Release);
    }
}

/// A spawned helper: its seat and its thread.
struct Helper<U> {
    seat: Arc<Seat<U>>,
    thread: JoinHandle<()>,
}

impl<U> Helper<U> {
    /// Release the next round: the helper polls its shard once.
    fn release(&self) {
        let next = self.seat.release.load(Ordering::Relaxed).wrapping_add(1);
        self.seat.release.store(next, Ordering::Release);
        // Cheap when the helper is awake: it only leaves a token that makes
        // its next park return at once.
        self.thread.thread().unpark();
    }

    /// Wait until the helper finished every round released to it.
    fn wait_done(&self) {
        let released = self.seat.release.load(Ordering::Relaxed);
        let mut wait = Backoff::default();
        while self.seat.done.load(Ordering::Acquire) != released {
            wait.snooze();
        }
    }

    /// The work of the round the helper just finished; re-raises its panic
    /// on the caller's thread.
    fn take_work(&self) -> usize {
        let outcome = std::mem::replace(&mut self.seat.slot().outcome, Ok(0));
        outcome.unwrap_or_else(|payload| resume_unwind(payload))
    }
}

/// The executor's helper threads, spawned on demand and joined on drop.
struct Crew<U> {
    helpers: Vec<Helper<U>>,
}

impl<U: Pollable + Send + 'static> Crew<U> {
    /// The first `count` helpers, spawning the ones that do not exist yet.
    fn hire(&mut self, count: usize) -> &[Helper<U>] {
        while self.helpers.len() < count {
            let seat = Arc::new(Seat {
                release: AtomicUsize::new(0),
                done: AtomicUsize::new(0),
                stop: AtomicBool::new(false),
                // Only the field, under its `expect`, names the lock type.
                slot: Default::default(),
            });
            let theirs = Arc::clone(&seat);
            let thread = std::thread::spawn(move || serve(&theirs));
            self.helpers.push(Helper { seat, thread });
        }
        &self.helpers[..count]
    }
}

impl<U> Drop for Crew<U> {
    fn drop(&mut self) {
        for helper in &self.helpers {
            // Relaxed: the Release store in `release` publishes it.
            helper.seat.stop.store(true, Ordering::Relaxed);
            helper.release();
        }
        for helper in self.helpers.drain(..) {
            // A helper catches every panic of its units and hands it to the
            // caller, so its thread ends cleanly and there is nothing to
            // report here.
            let _ = helper.thread.join();
        }
    }
}

/// Held by the caller while helpers hold units. If the caller unwinds — a
/// unit of its own shard, the hub, or a helper's re-raised panic — it waits
/// out the round in flight and drops the helpers' units, so the crew is
/// idle and empty-handed for the next step.
struct Recall<'a, U>(&'a [Helper<U>]);

impl<U> Drop for Recall<'_, U> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        for helper in self.0 {
            helper.wait_done();
            let mut slot = helper
                .seat
                .slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            slot.shard.clear();
            slot.outcome = Ok(0);
        }
    }
}

/// One round of one shard: every unit polls, in list order.
fn poll_shard<U: Pollable>(shard: &mut [U], now_ns: u64) -> usize {
    shard.iter_mut().map(|unit| unit.poll(now_ns)).sum()
}

/// Drives the poll phase of cluster steps over a set of [`Pollable`] units,
/// with a crew of helper threads that lives as long as the executor.
pub struct ShardedExecutor<U> {
    threads: usize,
    stats: ExecStats,
    crew: Crew<U>,
    /// Shard buffers between steps (the caller's first), kept for their
    /// capacity.
    shards: Vec<Vec<U>>,
}

impl<U: Pollable + Send + 'static> ShardedExecutor<U> {
    /// An executor that keeps `threads` OS threads busy in a poll phase,
    /// the caller's included (clamped to at least 1). No thread is spawned
    /// before a step deals more than one shard.
    pub fn new(threads: usize) -> Self {
        ShardedExecutor {
            threads: threads.max(1),
            stats: ExecStats::default(),
            crew: Crew {
                helpers: Vec::new(),
            },
            shards: Vec::new(),
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
    /// cross-unit fabric (the ToR, the cluster's endpoint stacks) and return
    /// `(work, frames_forwarded)` — until a full round reports no work or
    /// `max_rounds` is hit. Returns what the phase did and the units, in
    /// list order.
    ///
    /// `units` is an ordered list, dealt round-robin onto
    /// `min(threads, units.len())` shards. The caller's thread polls shard
    /// 0 and helper `i` of the crew polls shard `i + 1`; a round releases every
    /// dealt helper once and waits until each reports it done, and with
    /// one shard there is no helper to release. The hub always runs on the
    /// caller's thread while every helper idles, so everything it touches
    /// is free of data races and ordered identically for any thread count,
    /// and the rounds executed never depend on the dealing.
    ///
    /// A panic in a unit or in the hub propagates to the caller with its
    /// own payload at any thread count, once no helper is polling; the
    /// step's units are dropped, its counters are not booked, and the
    /// executor drives the next step as a new one would.
    pub fn drive(
        &mut self,
        units: Vec<U>,
        mut hub: impl FnMut(u64) -> (usize, usize),
        now_ns: u64,
        max_rounds: usize,
    ) -> (StepOutcome, Vec<U>) {
        let count = units.len();
        let shard_count = self.threads.min(count).max(1);
        let mut shards = std::mem::take(&mut self.shards);
        shards.resize_with(shard_count, Vec::new);
        for (i, unit) in units.into_iter().enumerate() {
            shards[i % shard_count].push(unit);
        }
        let (own, theirs) = shards.split_first_mut().expect("at least one shard");
        let helpers = self.crew.hire(theirs.len());
        for (helper, shard) in helpers.iter().zip(theirs.iter_mut()) {
            let mut slot = helper.seat.slot();
            std::mem::swap(&mut slot.shard, shard);
            slot.now_ns = now_ns;
        }
        let recall = Recall(helpers);
        // This step's counters, booked once it completes.
        let mut step = ExecStats::default();
        let quiescent = loop {
            for helper in helpers {
                helper.release();
            }
            let mut poll_sum = poll_shard(own, now_ns);
            let mut poll_max = poll_sum;
            for helper in helpers {
                helper.wait_done();
                let work = helper.take_work();
                poll_sum += work;
                poll_max = poll_max.max(work);
            }
            let (hub_work, frames) = hub(now_ns);
            let work = poll_sum + hub_work;
            step.rounds += 1;
            step.poll_work += poll_sum as u64;
            step.hub_work += hub_work as u64;
            step.barrier_frames += frames as u64;
            step.serial_work += work as u64;
            step.critical_work += (poll_max + hub_work) as u64;
            if work == 0 {
                break true;
            }
            if step.rounds >= max_rounds as u64 {
                break false;
            }
        };
        for (helper, shard) in helpers.iter().zip(theirs.iter_mut()) {
            std::mem::swap(&mut helper.seat.slot().shard, shard);
        }
        drop(recall);
        // Within a shard units keep list order, so popping each unit's
        // shard in reverse list order yields the list reversed.
        let mut back = Vec::with_capacity(count);
        for i in (0..count).rev() {
            back.push(shards[i % shard_count].pop().expect("every unit was dealt"));
        }
        back.reverse();
        self.shards = shards;

        let stats = &mut self.stats;
        stats.threads = shard_count;
        stats.steps += 1;
        stats.rounds += step.rounds;
        stats.poll_work += step.poll_work;
        stats.hub_work += step.hub_work;
        stats.barrier_frames += step.barrier_frames;
        stats.serial_work += step.serial_work;
        stats.critical_work += step.critical_work;
        let outcome = StepOutcome {
            work: step.serial_work as usize,
            rounds: step.rounds as usize,
            quiescent,
        };
        (outcome, back)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_fabric::{uplink_pair, Frame, HostUplink, TorUplink};
    use std::cell::RefCell;

    #[expect(
        clippy::disallowed_types,
        reason = "thread-identity: test observes scheduling, feeds no data path"
    )]
    type Thread = std::thread::ThreadId;

    /// Every poll a rig's units made, in the order they made them:
    /// `(unit id, polling thread)`. Shared, so it outlives units a panic
    /// dropped inside the executor.
    #[expect(
        clippy::disallowed_types,
        reason = "cross-shard-locks: test record, feeds no data path"
    )]
    type Polls = Arc<std::sync::Mutex<Vec<(u32, Thread)>>>;

    /// Counts the threads that end after polling a unit carrying it: each
    /// such thread keeps one in a thread-local, dropped when it exits.
    struct CountOnExit(Arc<AtomicUsize>);

    impl Drop for CountOnExit {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    thread_local! {
        static ON_EXIT: RefCell<Option<CountOnExit>> = const { RefCell::new(None) };
    }

    /// A synthetic unit: does `load` work items per round for `busy_rounds`
    /// rounds, sending a frame tagged `(id, item)` per item up its trunk, and
    /// panics on entering round `panic_in_round` when that is set. It logs
    /// the OS thread of every poll to its rig's record, so a test can count
    /// a unit's polls and tell which units shared a shard.
    struct MockUnit {
        id: u32,
        load: usize,
        busy_rounds: usize,
        rounds_done: usize,
        panic_in_round: Option<usize>,
        uplink: HostUplink<usize>,
        polls: Polls,
        /// When set, every thread that polls this unit counts here when it
        /// exits.
        exits: Option<Arc<AtomicUsize>>,
        /// Held while the unit lives: the rig counts its units by it.
        _alive: Arc<()>,
    }

    impl Pollable for MockUnit {
        fn poll(&mut self, _now_ns: u64) -> usize {
            #[expect(
                clippy::disallowed_methods,
                reason = "thread-identity: test observes scheduling, feeds no data path"
            )]
            let thread = std::thread::current().id();
            self.polls.lock().unwrap().push((self.id, thread));
            if let Some(exits) = &self.exits {
                ON_EXIT.with(|on_exit| {
                    on_exit
                        .borrow_mut()
                        .get_or_insert_with(|| CountOnExit(Arc::clone(exits)));
                });
            }
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

    /// The units in list order, the ToR ends of their trunks in the same
    /// order — the shape of hosts behind a ToR — the record of polls, and a
    /// token every unit holds a clone of.
    struct Rig {
        units: Vec<MockUnit>,
        tors: Vec<TorUplink<usize>>,
        polls: Polls,
        alive: Arc<()>,
    }

    impl Rig {
        /// The threads that polled unit `id`, one per poll, in order.
        fn polled_on(&self, id: u32) -> Vec<Thread> {
            let polls = self.polls.lock().unwrap();
            polls
                .iter()
                .filter(|(unit, _)| *unit == id)
                .map(|(_, thread)| *thread)
                .collect()
        }
    }

    /// Build `n` units with *uneven* loads (unit i does `3*i + 1` items per
    /// round, for `i + 1` rounds).
    fn rig(n: u32) -> Rig {
        let polls = Polls::default();
        let alive = Arc::new(());
        let (units, tors) = (0..n)
            .map(|id| {
                let (uplink, tor) = uplink_pair(id);
                let unit = MockUnit {
                    id,
                    load: 3 * id as usize + 1,
                    busy_rounds: id as usize + 1,
                    rounds_done: 0,
                    panic_in_round: None,
                    uplink,
                    polls: Arc::clone(&polls),
                    exits: None,
                    _alive: Arc::clone(&alive),
                };
                (unit, tor)
            })
            .unzip();
        Rig {
            units,
            tors,
            polls,
            alive,
        }
    }

    /// Drive one step of `exec` over the rig, the hub merging every trunk
    /// in list order (and panicking on entering round `hub_panic_in_round`,
    /// when set). The units come back into the rig. Returns (outcome,
    /// merged log).
    fn drive_rig(
        exec: &mut ShardedExecutor<MockUnit>,
        rig: &mut Rig,
        max_rounds: usize,
        hub_panic_in_round: Option<usize>,
    ) -> (StepOutcome, Vec<(u32, usize)>) {
        let mut log = Vec::new();
        let mut frames = Vec::new();
        let mut hub_calls = 0;
        let tors = &mut rig.tors;
        let (outcome, units) = exec.drive(
            std::mem::take(&mut rig.units),
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
        rig.units = units;
        (outcome, log)
    }

    /// One step over the rig on a new executor at `threads`, with 5 items
    /// of serial begin/close work noted around it. Returns (outcome, merged
    /// log, executor stats).
    fn run_step(
        threads: usize,
        rig: &mut Rig,
        max_rounds: usize,
        hub_panic_in_round: Option<usize>,
    ) -> (StepOutcome, Vec<(u32, usize)>, ExecStats) {
        let mut exec = ShardedExecutor::new(threads);
        exec.note_serial_work(5);
        let (outcome, log) = drive_rig(&mut exec, rig, max_rounds, hub_panic_in_round);
        (outcome, log, exec.stats().clone())
    }

    /// Work per round of each shard of the last step, ascending: units
    /// polled on the same OS thread were dealt to the same shard.
    fn shard_loads(rig: &Rig) -> Vec<usize> {
        let mut shards = Vec::new();
        for unit in &rig.units {
            let thread = rig.polled_on(unit.id)[0];
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
    /// thread-count-independent counter are identical for any thread count,
    /// because the hub drains the trunks in list order while every helper
    /// idles — and the units come back in list order whatever the dealing
    /// did with them.
    #[test]
    fn merge_order_and_counters_are_identical_for_any_threads() {
        let (serial, log1, s1) = run_step(1, &mut rig(8), 64, None);
        for threads in [1, 2, 3, 4, 8] {
            let mut rig = rig(8);
            let (sharded, log_n, sn) = run_step(threads, &mut rig, 64, None);
            assert_eq!(sharded, serial, "outcome diverged at {threads} threads");
            assert_eq!(log_n, log1, "merge order diverged at {threads} threads");
            assert_eq!(sn.steps, 1);
            assert_eq!(sn.rounds, s1.rounds);
            assert_eq!(sn.serial_work, s1.serial_work);
            assert_eq!(sn.poll_work, s1.poll_work);
            assert_eq!(sn.hub_work, s1.hub_work);
            assert_eq!(sn.barrier_frames, s1.barrier_frames);
            assert_eq!(sn.threads, threads);
            let ids: Vec<u32> = rig.units.iter().map(|unit| unit.id).collect();
            assert_eq!(
                ids,
                (0..8).collect::<Vec<_>>(),
                "units come back in list order"
            );
            // Every unit was dealt to exactly one shard: one poll per round
            // each, and the shards' work adds up to the total.
            for unit in &rig.units {
                assert_eq!(
                    rig.polled_on(unit.id).len(),
                    serial.rounds,
                    "unit {}",
                    unit.id
                );
            }
            assert_eq!(shard_loads(&rig).len(), threads);
            assert!(sn.critical_work <= sn.serial_work);
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
            run_step(threads, &mut rig, 64, None);
            let mut seen = Vec::new();
            for (_, thread) in rig.polls.lock().unwrap().iter() {
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
        let (_, _, s1) = run_step(1, &mut rig(8), 64, None);
        let (_, _, s4) = run_step(4, &mut rig(8), 64, None);
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

    /// The round bound cuts a step that never quiesces, at the same round
    /// count for any thread count.
    #[test]
    fn round_bound_applies_identically() {
        for threads in [1, 2, 4] {
            let mut rig = rig(3);
            for unit in rig.units.iter_mut() {
                unit.busy_rounds = usize::MAX; // never goes quiet
            }
            let (outcome, _, stats) = run_step(threads, &mut rig, 8, None);
            assert_eq!(outcome.rounds, 8);
            assert!(!outcome.quiescent);
            assert_eq!(stats.rounds, 8);
        }
    }

    /// More threads than units degrades gracefully to one unit per shard,
    /// and the crew hires only the helpers a step deals a shard to: 16
    /// threads over 2 units spawn one helper. A helper left without a shard
    /// by a later, smaller step is never released.
    #[test]
    fn threads_clamp_to_unit_count() {
        let mut two = rig(2);
        let mut exec = ShardedExecutor::new(16);
        drive_rig(&mut exec, &mut two, 64, None);
        assert_eq!(exec.stats().threads, 2);
        assert_eq!(
            exec.crew.helpers.len(),
            1,
            "one helper for the second shard"
        );
        assert_eq!(shard_loads(&two), vec![1, 4], "one unit per shard");

        let mut exec = ShardedExecutor::new(4);
        drive_rig(&mut exec, &mut rig(8), 64, None);
        let released = |exec: &ShardedExecutor<MockUnit>| -> Vec<usize> {
            let helpers = exec.crew.helpers.iter();
            helpers
                .map(|helper| helper.seat.release.load(Ordering::Relaxed))
                .collect()
        };
        let before = released(&exec);
        assert_eq!(before, vec![9; 3], "three helpers, one release per round");
        let (outcome, _) = drive_rig(&mut exec, &mut rig(2), 64, None);
        assert_eq!(exec.stats().threads, 2);
        assert_eq!(
            released(&exec),
            vec![9 + outcome.rounds, 9, 9],
            "only the dealt helper is released"
        );
    }

    /// Units deal round-robin in list order: unit i onto shard i mod N.
    #[test]
    fn units_deal_round_robin_in_list_order() {
        // 8 units with loads 2, 7, …, 37, each busy for exactly one round:
        // the round's critical path is its heaviest shard. On 4 shards,
        // units {i, i + 4} share shard i, which stacks {3, 7} for
        // 17 + 37 = 54 on the critical path.
        let mut rig = rig(8);
        for unit in rig.units.iter_mut() {
            unit.load = 5 * unit.id as usize + 2;
            unit.busy_rounds = 1;
        }
        let (_, _, stats) = run_step(4, &mut rig, 64, None);
        assert_eq!(stats.threads, 4);
        assert_eq!(shard_loads(&rig), vec![24, 34, 44, 54]);
        assert_eq!(stats.critical_work - stats.hub_work - 5, 54);
        for id in 0..4 {
            assert_eq!(rig.polled_on(id), rig.polled_on(id + 4), "unit {id}");
        }
    }

    /// A panic on any thread of the step — a unit's round on the caller's
    /// shard or on a helper's, or the hub — reaches the caller with its own
    /// payload at any thread count. Units deal round-robin, so with
    /// N shards unit 0 is the caller's and unit 1 a helper's (at N = 1 both
    /// are the caller's); when the caller's unit panics, the helpers are
    /// mid-round and the caller waits them out while it unwinds. Every unit
    /// of the step is dropped, none kept in a helper's slot, and the *same*
    /// executor then drives a fresh rig exactly as a new one does — same
    /// log, outcome and stats — so no helper was left polling.
    #[test]
    fn a_panic_mid_step_reaches_the_caller_and_releases_every_worker() {
        let message = |payload: Box<dyn Any + Send>| {
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
            let fresh = {
                let mut exec = ShardedExecutor::new(threads);
                let (outcome, log) = drive_rig(&mut exec, &mut rig(6), 64, None);
                (outcome, log, exec.stats().clone())
            };
            let recovers = |exec: &mut ShardedExecutor<MockUnit>| {
                let (outcome, log) = drive_rig(exec, &mut rig(6), 64, None);
                assert_eq!(
                    (outcome, log, exec.stats().clone()),
                    fresh,
                    "threads {threads}"
                );
            };
            for (victim, on_caller) in [(0, true), (1, threads == 1)] {
                let mut exec = ShardedExecutor::new(threads);
                let mut rig = rig(6);
                rig.units[victim].panic_in_round = Some(2);
                let died = catch_unwind(AssertUnwindSafe(|| {
                    drive_rig(&mut exec, &mut rig, 64, None)
                }));
                let payload = died.expect_err("the unit's panic must propagate");
                assert_eq!(
                    message(payload),
                    format!("unit {victim} blew up"),
                    "threads {threads}"
                );
                assert_eq!(Arc::strong_count(&rig.alive), 1, "every unit dropped");
                let polled_on = rig.polled_on(victim as u32);
                assert_eq!(polled_on.len(), 2, "it died entering round 2");
                assert_eq!(polled_on[1] == caller, on_caller, "threads {threads}");
                // When its own unit died, the caller waited out the round in
                // flight: every unit of a helper's shard finished round 2
                // (round-robin puts unit i on shard i mod threads).
                let helpers_units = (0..6).filter(|id| victim == 0 && id % threads != 0);
                for id in helpers_units {
                    assert_eq!(rig.polled_on(id as u32).len(), 2, "unit {id}");
                }
                recovers(&mut exec);
            }

            // Two helpers' units panic in one round: the first shard's
            // panic reaches the caller, and the other's is not left behind.
            if threads > 2 {
                let mut exec = ShardedExecutor::new(threads);
                let mut rig = rig(6);
                rig.units[1].panic_in_round = Some(2);
                rig.units[2].panic_in_round = Some(2);
                let died = catch_unwind(AssertUnwindSafe(|| {
                    drive_rig(&mut exec, &mut rig, 64, None)
                }));
                let payload = died.expect_err("the units' panic must propagate");
                assert_eq!(message(payload), "unit 1 blew up", "threads {threads}");
                assert_eq!(Arc::strong_count(&rig.alive), 1, "every unit dropped");
                recovers(&mut exec);
            }

            let mut exec = ShardedExecutor::new(threads);
            let mut rig = rig(6);
            let died = catch_unwind(AssertUnwindSafe(|| {
                drive_rig(&mut exec, &mut rig, 64, Some(2))
            }));
            let payload = died.expect_err("the hub's panic must propagate");
            assert!(
                message(payload).contains("hub blew up"),
                "threads {threads}"
            );
            assert_eq!(Arc::strong_count(&rig.alive), 1, "every unit dropped");
            recovers(&mut exec);
        }
    }

    /// A helper idle past its spin and yield bounds parks, and the next
    /// release wakes it: no wakeup is lost between steps however long the
    /// crew sat idle.
    #[test]
    fn a_parked_helper_wakes_on_the_next_release() {
        let (serial, log1, _) = run_step(1, &mut rig(4), 64, None);
        let mut exec = ShardedExecutor::new(2);
        for _ in 0..3 {
            let (outcome, log) = drive_rig(&mut exec, &mut rig(4), 64, None);
            assert_eq!((outcome, log), (serial, log1.clone()));
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    /// Dropping the executor joins every helper: each thread that polled
    /// a unit counts itself as it exits, and the count is complete the
    /// moment the drop returns.
    #[test]
    fn dropping_the_executor_joins_every_helper() {
        let exits = Arc::new(AtomicUsize::new(0));
        let mut rig = rig(8);
        for unit in rig.units.iter_mut() {
            unit.exits = Some(Arc::clone(&exits));
        }
        let mut exec = ShardedExecutor::new(4);
        drive_rig(&mut exec, &mut rig, 64, None);
        drive_rig(&mut exec, &mut rig, 64, None);
        assert_eq!(
            exits.load(Ordering::SeqCst),
            0,
            "the crew outlives the step"
        );
        drop(exec);
        // The caller's own thread counts only when this test ends.
        assert_eq!(exits.load(Ordering::SeqCst), 3, "three helpers joined");
    }

    /// The crew round-trips under heavy oversubscription: far more helpers
    /// than this machine has cores, over many rounds. With a pure
    /// busy-wait this crawls on a small runner (every spinning waiter steals
    /// the timeslice the late one needs); the spin, yield and park backoff
    /// must keep it live.
    #[test]
    fn crew_round_trips_oversubscribed() {
        const HELPERS: usize = 33;
        const ROUNDS: usize = 500;
        let mut rig = rig(HELPERS as u32 + 1);
        for unit in rig.units.iter_mut() {
            unit.load = 1;
            unit.busy_rounds = usize::MAX;
        }
        let mut exec = ShardedExecutor::new(HELPERS + 1);
        let (outcome, log) = drive_rig(&mut exec, &mut rig, ROUNDS, None);
        assert_eq!(exec.crew.helpers.len(), HELPERS);
        assert_eq!(outcome.rounds, ROUNDS);
        // Every unit's frame of a round reached the hub in that round.
        assert_eq!(log.len(), ROUNDS * (HELPERS + 1));
        assert_eq!(outcome.work, 2 * log.len());
        for unit in &rig.units {
            assert_eq!(rig.polled_on(unit.id).len(), ROUNDS);
        }
    }
}
