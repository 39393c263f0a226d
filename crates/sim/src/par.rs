//! Conservative parallel coordinator: bounded-lag windows over
//! partitioned [`Simulation`]s.
//!
//! The actor graph is split across worker threads; each partition runs a
//! private calendar over the *global* actor-id space (non-owned slots
//! stay empty). Synchronization is conservative, in the
//! null-message tradition but window-based so no protocol events pollute
//! dispatch counts: each round, every partition publishes the arrival
//! time of its earliest pending event and — because every cross-partition
//! send carries at least `L` (the lookahead) of virtual latency — derives
//! a safe per-partition dispatch horizon from the published vector (see
//! *Adaptive lookahead* below). Cross-partition sends buffered during the
//! window are exchanged at the boundary through per-`(src, dst)` mailbox
//! slots, each touched by exactly one writer and one reader per round.
//!
//! # Adaptive lookahead
//!
//! With `NT_q` the published next-event time of partition `q`, any event
//! partition `p` has not yet heard about must travel a chain of one or
//! more cross-partition hops starting from some partition's current
//! calendar, so its arrival time is bounded below by
//!
//! * `min_{q≠p} NT_q + L` — a direct send out of a peer's pending work
//!   (one hop), and
//! * `NT_p + 2L` — any longer chain, including responses bounced back to
//!   `p`'s own outgoing mail: two or more hops from a calendar whose
//!   earliest entry is at least the global minimum.
//!
//! `p` may therefore dispatch through
//! `min(min_{q≠p} NT_q + L, NT_p + 2L) − 1` — never narrower than the
//! classic fleet-wide `[T, T+L)` window, and much wider whenever peers
//! are ahead of the global minimum, which is what lets faulted and
//! rebalanced runs amortize barriers past four threads.
//!
//! Determinism does not depend on thread interleaving: partitions mint
//! their event keys ([`crate::event::EventKey`]) so that they totally
//! order events exactly as the sequential engine's `(time, 0, seq)` keys
//! would, and keys are unique, so each partition's dispatch order is a
//! pure function of the event set. The two barriers per round make the
//! slot reads/writes race-free (slots are written only before barrier A
//! and read only between A and B).

use crate::engine::{RemoteEvent, Simulation};
use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a partition that reaches a barrier early polls for its peers
/// before it parks. A window is a few hundred events, so peers are
/// typically tens to a few hundred microseconds apart, and a job crosses
/// thousands of barriers: parking at every one costs a futex sleep and
/// wake each time (tens of microseconds on a virtual CPU, more and less
/// predictably the busier the host). The 256-node faulted sort crosses
/// ~3000 barriers per partition in ~270 ms; polling instead of parking
/// took it from 345 ms to 265 ms on 2 threads. Budgets from 0.2 ms to
/// 5 ms measured the same; past the budget a partition parks, which
/// bounds what an idle partition burns while a peer runs a long window.
const BARRIER_POLL: Duration = Duration::from_millis(1);

/// Polls made with a bare spin hint before the first `yield_now`.
const BARRIER_SPINS: u32 = 64;

/// A reusable barrier that can be *poisoned* by a panicking partition.
/// `std::sync::Barrier` would leave the surviving partitions deadlocked
/// mid-round; this one wakes them so the whole run fails loudly instead
/// of hanging the test suite.
///
/// Early arrivers poll the generation counter for up to `poll` — a few
/// spins, then `yield_now` so that any other runnable thread on the core
/// goes first — and only then park on the condition variable.
struct PoisonBarrier {
    n: usize,
    poll: Duration,
    /// Arrivals in the current generation; the last arriver resets it.
    count: AtomicUsize,
    generation: AtomicU64,
    poisoned: AtomicBool,
    /// Waiters that gave up polling. The releaser bumps `generation`,
    /// then reads `parked`; a parker bumps `parked` (holding `lock`), then
    /// re-reads `generation` (all `SeqCst`): either the releaser sees the
    /// parker and notifies under `lock`, or the parker sees the new
    /// generation and does not sleep.
    parked: AtomicUsize,
    lock: Mutex<()>,
    cvar: Condvar,
}

impl PoisonBarrier {
    /// Polls before parking only when every partition can have a core of
    /// its own; on fewer cores a polling partition would hold up the peer
    /// it waits for.
    fn new(n: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let poll = if cores >= n {
            BARRIER_POLL
        } else {
            Duration::ZERO
        };
        Self::with_poll(n, poll)
    }

    fn with_poll(n: usize, poll: Duration) -> Self {
        PoisonBarrier {
            n,
            poll,
            count: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cvar: Condvar::new(),
        }
    }

    fn wait(&self) {
        if self.poisoned.load(Ordering::SeqCst) {
            panic!("a peer partition panicked");
        }
        // Cannot change before our own arrival is counted.
        let generation = self.generation.load(Ordering::SeqCst);
        if self.count.fetch_add(1, Ordering::SeqCst) + 1 == self.n {
            self.count.store(0, Ordering::SeqCst);
            self.generation.store(generation + 1, Ordering::SeqCst);
            if self.parked.load(Ordering::SeqCst) > 0 {
                let _held = self.lock.lock().unwrap_or_else(|e| e.into_inner());
                self.cvar.notify_all();
            }
            return;
        }
        let released = || {
            self.generation.load(Ordering::SeqCst) != generation
                || self.poisoned.load(Ordering::SeqCst)
        };
        if !self.poll.is_zero() {
            for _ in 0..BARRIER_SPINS {
                if released() {
                    break;
                }
                std::hint::spin_loop();
            }
            let start = Instant::now();
            while !released() && start.elapsed() < self.poll {
                std::thread::yield_now();
            }
        }
        if !released() {
            let mut held = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.parked.fetch_add(1, Ordering::SeqCst);
            while !released() {
                held = self.cvar.wait(held).unwrap_or_else(|e| e.into_inner());
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
        if self.poisoned.load(Ordering::SeqCst) {
            panic!("a peer partition panicked");
        }
    }

    /// Never panics: called from `Drop` during unwinding.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        let _held = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.cvar.notify_all();
    }
}

/// Poisons the shared barrier if its thread unwinds, releasing peers
/// parked mid-round.
struct PoisonOnPanic<'a>(&'a PoisonBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// One partition's build/finish hooks for [`run_partitioned`].
///
/// `build` runs on the worker thread before the clock starts: reserve the
/// global id space, install owned actors, seed initial messages (in
/// ascending actor-id order). `finish` runs after the fleet drains, still
/// on the worker thread, and may use [`ParOps`] for collective reductions
/// (every partition must issue the same sequence of collectives).
///
/// `Built` carries thread-local state (e.g. `Rc` handles shared with the
/// actors) from `build` to `finish`; it never crosses threads, so it need
/// not be `Send`.
pub trait PartitionWorker<M, T>: Send {
    /// Thread-local state handed from `build` to `finish`.
    type Built;

    /// Install this partition's actors and seeds.
    fn build(&mut self, sim: &mut Simulation<M>) -> Self::Built;

    /// Harvest results once the fleet has drained.
    fn finish(self, built: Self::Built, sim: Simulation<M>, ops: &ParOps<'_>) -> T;
}

/// Collective operations available to [`PartitionWorker::finish`].
pub struct ParOps<'a> {
    me: usize,
    slots: &'a [AtomicU64],
    barrier: &'a PoisonBarrier,
}

impl ParOps<'_> {
    /// This partition's index.
    pub fn partition(&self) -> usize {
        self.me
    }

    /// Barrier-synchronized max-reduction over all partitions. Every
    /// partition must call this the same number of times, in the same
    /// order.
    pub fn allreduce_max(&self, v: u64) -> u64 {
        self.slots[self.me].store(v, Ordering::SeqCst);
        self.barrier.wait();
        let m = self
            .slots
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .max()
            .unwrap_or(0);
        self.barrier.wait();
        m
    }
}

/// A log₂-bucketed histogram: bucket `i` counts values `v` with
/// `floor(log2(v)) == i` (zero lands in bucket 0). Cheap enough to
/// record per window, merges by bucket-wise sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogHist {
    /// Bucket counts, index = floor(log2(value)).
    pub buckets: [u64; 64],
}

impl LogHist {
    /// All-zero histogram.
    pub fn new() -> Self {
        LogHist { buckets: [0; 64] }
    }

    /// Count one value.
    pub fn record(&mut self, v: u64) {
        let i = if v == 0 { 0 } else { 63 - v.leading_zeros() as usize };
        self.buckets[i] += 1;
    }

    /// Bucket-wise accumulate another histogram.
    pub fn absorb(&mut self, other: &LogHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Total count across all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// `(bucket_index, count)` for every non-empty bucket, ascending.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

/// What a partitioned run produced, plus fleet-level counters.
#[derive(Debug)]
pub struct ParOutcome<T> {
    /// Per-partition results, in partition order.
    pub results: Vec<T>,
    /// Total dispatches across all partitions (equals the sequential
    /// dispatch count for an equivalent run).
    pub dispatched: u64,
    /// Number of lookahead windows executed.
    pub windows: u64,
    /// Critical-path dispatches: `Σ_w max_p dispatches(p, w)`. The
    /// virtual-parallelism analogue of wall-clock — what a `P`-core
    /// machine cannot go below. `dispatched / critical_dispatched` is the
    /// model speedup.
    pub critical_dispatched: u64,
    /// Cross-partition messages exchanged.
    pub remote_messages: u64,
    /// Adaptive window widths (virtual nanoseconds past the round's
    /// global minimum), one sample per partition per window.
    /// Deterministic: a pure function of the event set.
    pub window_width_hist: LogHist,
    /// Wall-clock nanoseconds spent parked at barriers, one sample per
    /// partition per barrier. *Not* deterministic — never diff it; it
    /// exists to make synchronization cost measurable in benches.
    pub barrier_wait_hist: LogHist,
}

/// Run one partitioned simulation to completion.
///
/// `owners[actor_id]` names the partition owning each global actor id;
/// `workers[p]` builds and harvests partition `p`. `lookahead` must be a
/// positive lower bound on the virtual latency of every cross-partition
/// send (enforced per send; violations panic).
pub fn run_partitioned<M, T, W>(
    seed: u64,
    owners: Arc<Vec<u32>>,
    lookahead: SimDuration,
    workers: Vec<W>,
) -> ParOutcome<T>
where
    M: Send,
    T: Send,
    W: PartitionWorker<M, T>,
{
    let nparts = workers.len();
    assert!(nparts > 0, "need at least one partition");
    assert!(
        owners.iter().all(|&o| (o as usize) < nparts),
        "actor owner out of partition range"
    );
    let la = lookahead.as_nanos();
    assert!(la > 0, "lookahead must be positive");

    let slots: Vec<AtomicU64> = (0..nparts).map(|_| AtomicU64::new(0)).collect();
    let barrier = PoisonBarrier::new(nparts);
    // One slot per (src, dst) pair: src writes between the barriers, dst
    // drains at the top of the next round, so each lock is uncontended
    // and a whole window's mail moves with one swap per pair.
    let mailboxes: Vec<Mutex<Vec<RemoteEvent<M>>>> =
        (0..nparts * nparts).map(|_| Mutex::new(Vec::new())).collect();

    struct PartOut<T> {
        result: T,
        dispatched: u64,
        remote: u64,
        per_window: Vec<u64>,
        width_hist: LogHist,
        wait_hist: LogHist,
    }

    let per_part: Vec<PartOut<T>> = std::thread::scope(|scope| {
        let joins: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(p, mut worker)| {
                let owners = owners.clone();
                let slots = &slots;
                let barrier = &barrier;
                let mailboxes = &mailboxes;
                scope.spawn(move || {
                    let _guard = PoisonOnPanic(barrier);
                    let mut sim =
                        Simulation::new_partition(seed, p as u32, owners, lookahead, nparts);
                    let built = worker.build(&mut sim);
                    let mut per_window: Vec<u64> = Vec::new();
                    let mut width_hist = LogHist::new();
                    let mut wait_hist = LogHist::new();
                    let timed_wait = |h: &mut LogHist| {
                        let t0 = Instant::now();
                        barrier.wait();
                        h.record(t0.elapsed().as_nanos() as u64);
                    };
                    loop {
                        // Accept mail posted at the previous boundary, then
                        // publish our next-event time.
                        for q in 0..nparts {
                            let slot = &mailboxes[q * nparts + p];
                            for ev in std::mem::take(&mut *slot.lock().unwrap()) {
                                sim.par_push_remote(ev);
                            }
                        }
                        let nt = sim.par_next_time();
                        slots[p].store(nt, Ordering::SeqCst);
                        timed_wait(&mut wait_hist); // A: all slots published
                        let mut t = nt;
                        let mut peer_min = u64::MAX;
                        for (q, s) in slots.iter().enumerate() {
                            let v = s.load(Ordering::SeqCst);
                            t = t.min(v);
                            if q != p {
                                peer_min = peer_min.min(v);
                            }
                        }
                        if t == u64::MAX {
                            // Every calendar is empty and (by protocol
                            // phasing) no mail is in flight: drained. The
                            // extra barrier keeps peers from reusing the
                            // slots (finish-time collectives) while
                            // laggards are still reading them.
                            barrier.wait();
                            break;
                        }
                        // Adaptive horizon (module docs): unheard-of events
                        // reach us at >= min(min_{q!=p} NT_q + L, NT_p + 2L).
                        // Never narrower than the classic [t, t+L) window.
                        let horizon = if nparts == 1 {
                            u64::MAX - 1
                        } else {
                            // bound >= t + L >= 1, so the -1 cannot wrap.
                            peer_min
                                .saturating_add(la)
                                .min(nt.saturating_add(la).saturating_add(la))
                                - 1
                        };
                        debug_assert!(horizon >= t, "horizon below the global minimum");
                        width_hist.record(horizon.saturating_sub(t).saturating_add(1));
                        per_window.push(sim.run_window(SimTime(horizon)));
                        for (dst, bucket) in sim.par_outbox_mut().iter_mut().enumerate() {
                            if !bucket.is_empty() {
                                let mut slot =
                                    mailboxes[p * nparts + dst].lock().unwrap();
                                debug_assert!(slot.is_empty(), "mailbox not drained");
                                // The drained slot's allocation swaps back
                                // into the bucket for reuse next window.
                                std::mem::swap(&mut *slot, bucket);
                            }
                        }
                        timed_wait(&mut wait_hist); // B: all mail delivered
                    }
                    let dispatched = sim.dispatched();
                    let remote = sim.par_remote_sent();
                    let ops = ParOps { me: p, slots, barrier };
                    let result = worker.finish(built, sim, &ops);
                    PartOut { result, dispatched, remote, per_window, width_hist, wait_hist }
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("partition worker panicked"))
            .collect()
    });

    let windows = per_part[0].per_window.len();
    debug_assert!(per_part.iter().all(|o| o.per_window.len() == windows));
    let critical_dispatched: u64 = (0..windows)
        .map(|w| per_part.iter().map(|o| o.per_window[w]).max().unwrap_or(0))
        .sum();
    let mut window_width_hist = LogHist::new();
    let mut barrier_wait_hist = LogHist::new();
    for o in &per_part {
        window_width_hist.absorb(&o.width_hist);
        barrier_wait_hist.absorb(&o.wait_hist);
    }
    ParOutcome {
        dispatched: per_part.iter().map(|o| o.dispatched).sum(),
        remote_messages: per_part.iter().map(|o| o.remote).sum(),
        windows: windows as u64,
        critical_dispatched,
        window_width_hist,
        barrier_wait_hist,
        results: per_part.into_iter().map(|o| o.result).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Actor, ActorId, Ctx, RunOutcome};
    use std::cell::RefCell;
    use std::rc::Rc;

    const RING: usize = 4;
    const HOPS: u32 = 40;
    const DELAY: u64 = 100;
    const LOOKAHEAD: u64 = 50;

    type Log = Vec<(u64, usize, u32)>;

    /// Install ring actor `i` (forwards a countdown token to `(i+1)%RING`
    /// after DELAY ns) into `sim`, logging every visit.
    type RingActor = Box<dyn FnMut(&mut Ctx<'_, u32>, u32)>;

    fn ring_actor(i: usize, log: Rc<RefCell<Log>>) -> RingActor {
        Box::new(move |ctx: &mut Ctx<'_, u32>, hops: u32| {
            log.borrow_mut().push((ctx.now().as_nanos(), i, hops));
            if hops > 0 {
                ctx.send(
                    ActorId((i + 1) % RING),
                    SimDuration::from_nanos(DELAY),
                    hops - 1,
                );
            }
        })
    }

    fn sequential_log() -> Log {
        let log: Rc<RefCell<Log>> = Rc::default();
        let mut sim: Simulation<u32> = Simulation::new(9);
        for i in 0..RING {
            let l = log.clone();
            sim.add_actor(Box::new(ring_actor(i, l)));
        }
        sim.seed_message(ActorId(0), SimTime(0), HOPS);
        assert_eq!(sim.run(), RunOutcome::Drained);
        let out = log.borrow().clone();
        out
    }

    struct RingWorker {
        part: u32,
        owners: Arc<Vec<u32>>,
    }

    impl PartitionWorker<u32, Log> for RingWorker {
        type Built = Rc<RefCell<Log>>;

        fn build(&mut self, sim: &mut Simulation<u32>) -> Self::Built {
            let log: Rc<RefCell<Log>> = Rc::default();
            sim.reserve_to(RING);
            for i in 0..RING {
                if self.owners[i] == self.part {
                    sim.install(ActorId(i), Box::new(ring_actor(i, log.clone())));
                }
            }
            if self.owners[0] == self.part {
                sim.seed_message(ActorId(0), SimTime(0), HOPS);
            }
            log
        }

        fn finish(self, built: Self::Built, sim: Simulation<u32>, ops: &ParOps<'_>) -> Log {
            let end = ops.allreduce_max(sim.now().as_nanos());
            assert_eq!(end, (HOPS as u64) * DELAY);
            drop(sim); // actors (and their Rc clones) die with the engine
            Rc::try_unwrap(built).expect("sole owner").into_inner()
        }
    }

    fn parallel_log(owners: Vec<u32>, nparts: usize) -> (Log, ParOutcome<Log>) {
        let owners = Arc::new(owners);
        let workers: Vec<RingWorker> = (0..nparts)
            .map(|p| RingWorker { part: p as u32, owners: owners.clone() })
            .collect();
        let mut outcome =
            run_partitioned(9, owners, SimDuration::from_nanos(LOOKAHEAD), workers);
        let mut merged: Log = outcome.results.iter().flatten().copied().collect();
        merged.sort_unstable();
        outcome.results = vec![];
        (merged, outcome)
    }

    /// `n` threads cross the barrier in lock step: after the first wait of
    /// a round all `n` arrivals of that round are counted, and none of
    /// the next round before the second.
    fn cross_in_lock_step(n: u64, poll: Duration) {
        const ROUNDS: u64 = 300;
        let barrier = PoisonBarrier::with_poll(n as usize, poll);
        let arrived = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..n {
                scope.spawn(|| {
                    // A failed assertion must fail the test, not hang it.
                    let _guard = PoisonOnPanic(&barrier);
                    for round in 1..=ROUNDS {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        barrier.wait();
                        assert_eq!(arrived.load(Ordering::SeqCst), round * n);
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn barrier_holds_every_round_parking_polling_and_both() {
        for n in [1, 2, 4] {
            cross_in_lock_step(n, Duration::ZERO);
            cross_in_lock_step(n, Duration::from_nanos(1));
            cross_in_lock_step(n, BARRIER_POLL);
        }
    }

    #[test]
    fn poison_releases_a_parked_and_a_polling_waiter() {
        for poll in [Duration::ZERO, Duration::from_secs(3600)] {
            let barrier = PoisonBarrier::with_poll(2, poll);
            let waiter_panicked = std::thread::scope(|scope| {
                let waiter = scope.spawn(|| barrier.wait());
                barrier.poison();
                waiter.join().is_err()
            });
            assert!(waiter_panicked, "poll {poll:?}");
        }
    }

    #[test]
    fn partitioned_ring_matches_sequential() {
        let seq = sequential_log();
        for (owners, nparts) in [
            (vec![0, 0, 0, 0], 1),
            (vec![0, 1, 0, 1], 2),
            (vec![0, 1, 2, 3], 4),
        ] {
            let (par, stats) = parallel_log(owners, nparts);
            assert_eq!(par, seq, "{nparts}-way partition diverged");
            assert_eq!(stats.dispatched, (HOPS as u64) + 1);
            if nparts > 1 {
                assert!(stats.remote_messages > 0, "ring must cross partitions");
            } else {
                assert_eq!(stats.remote_messages, 0);
            }
        }
    }

    #[test]
    fn one_partition_dispatches_exactly_as_the_sequential_engine() {
        // Two actors; every odd countdown fans out a same-instant send to
        // each actor (the lane) and one delayed send (the heap), with
        // delays that collide on purpose. Both actors are double-seeded at
        // t=0 and once more at a later shared instant.
        type Seen = Vec<(u64, usize, u32)>;
        fn actor(i: usize, log: Rc<RefCell<Seen>>) -> Box<dyn Actor<u32>> {
            Box::new(move |ctx: &mut Ctx<'_, u32>, n: u32| {
                log.borrow_mut().push((ctx.now().as_nanos(), i, n));
                if n == 0 {
                    return;
                }
                let (me, peer) = (ActorId(i), ActorId(1 - i));
                if n % 2 == 1 {
                    ctx.send_now(peer, n - 1);
                    ctx.send_now(me, n / 2);
                }
                ctx.send(peer, SimDuration::from_nanos(10 * (n as u64 % 3)), n - 1);
            })
        }
        fn seed(sim: &mut Simulation<u32>) {
            let seeds = [(0, 0, 5), (1, 0, 4), (0, 0, 3), (1, 0, 5), (1, 20, 2), (0, 20, 3)];
            for (to, at, n) in seeds {
                sim.seed_message(ActorId(to), SimTime(at), n);
            }
        }
        struct Solo;
        impl PartitionWorker<u32, Seen> for Solo {
            type Built = Rc<RefCell<Seen>>;
            fn build(&mut self, sim: &mut Simulation<u32>) -> Self::Built {
                let log: Rc<RefCell<Seen>> = Rc::default();
                sim.reserve_to(2);
                for i in 0..2 {
                    sim.install(ActorId(i), actor(i, log.clone()));
                }
                seed(sim);
                log
            }
            fn finish(self, built: Self::Built, sim: Simulation<u32>, _: &ParOps<'_>) -> Seen {
                drop(sim);
                Rc::try_unwrap(built).expect("sole owner").into_inner()
            }
        }

        let log: Rc<RefCell<Seen>> = Rc::default();
        let mut sim: Simulation<u32> = Simulation::new(1);
        for i in 0..2 {
            sim.add_actor(actor(i, log.clone()));
        }
        seed(&mut sim);
        assert_eq!(sim.run(), RunOutcome::Drained);

        let lookahead = SimDuration::from_nanos(LOOKAHEAD);
        let mut par = run_partitioned(1, Arc::new(vec![0, 0]), lookahead, vec![Solo]);
        assert_eq!(par.results.pop().expect("one partition"), *log.borrow());
        assert_eq!(par.dispatched, sim.dispatched());
        assert!(par.dispatched > 100, "the cascade is long enough to interleave");
    }

    #[test]
    fn partitioned_run_is_repeatable() {
        let (a, sa) = parallel_log(vec![0, 1, 0, 1], 2);
        let (b, sb) = parallel_log(vec![0, 1, 0, 1], 2);
        assert_eq!(a, b);
        assert_eq!(sa.windows, sb.windows);
        assert_eq!(sa.critical_dispatched, sb.critical_dispatched);
        assert_eq!(sa.remote_messages, sb.remote_messages);
        // Window widths are virtual quantities: deterministic across runs
        // (barrier waits are wall-clock and deliberately not compared).
        assert_eq!(sa.window_width_hist.buckets, sb.window_width_hist.buckets);
        assert_eq!(sa.window_width_hist.total(), sa.windows * 2);
    }

    #[test]
    fn adaptive_horizon_widens_past_the_static_window() {
        // Partition 0 runs a dense local chain (hops every 10 ns) while
        // partition 1 stays idle: its published next-event time is MAX, so
        // partition 0's horizon stretches to NT_p + 2L = NT_p + 100 each
        // round instead of the static NT_p + 50 — half the rounds.
        const CHAIN: u32 = 50;
        const STEP: u64 = 10;
        struct ChainWorker {
            part: u32,
        }
        impl PartitionWorker<u32, u64> for ChainWorker {
            type Built = ();
            fn build(&mut self, sim: &mut Simulation<u32>) {
                sim.reserve_to(2);
                if self.part == 0 {
                    sim.install(
                        ActorId(0),
                        Box::new(|ctx: &mut Ctx<'_, u32>, hops: u32| {
                            if hops > 0 {
                                let me = ctx.me();
                                ctx.send(me, SimDuration::from_nanos(STEP), hops - 1);
                            }
                        }),
                    );
                    sim.seed_message(ActorId(0), SimTime(0), CHAIN);
                } else {
                    sim.install(ActorId(1), Box::new(|_: &mut Ctx<'_, u32>, _| {}));
                }
            }
            fn finish(self, (): (), sim: Simulation<u32>, _: &ParOps<'_>) -> u64 {
                sim.dispatched()
            }
        }
        let owners = Arc::new(vec![0u32, 1]);
        let workers = vec![ChainWorker { part: 0 }, ChainWorker { part: 1 }];
        let outcome = run_partitioned(
            3,
            owners,
            SimDuration::from_nanos(LOOKAHEAD),
            workers,
        );
        assert_eq!(outcome.dispatched, CHAIN as u64 + 1);
        let static_rounds = (CHAIN as u64 * STEP).div_ceil(LOOKAHEAD);
        assert!(
            outcome.windows <= static_rounds / 2 + 1,
            "adaptive lookahead used {} rounds; static would need {}",
            outcome.windows,
            static_rounds
        );
    }

    #[test]
    #[should_panic(expected = "partition worker panicked")]
    fn lookahead_violation_is_fatal() {
        struct Eager {
            part: u32,
        }
        impl PartitionWorker<(), ()> for Eager {
            type Built = ();
            fn build(&mut self, sim: &mut Simulation<()>) {
                sim.reserve_to(2);
                if self.part == 0 {
                    // Sends to the remote actor with zero delay: inside
                    // the lookahead window, which the engine must reject.
                    sim.install(
                        ActorId(0),
                        Box::new(|ctx: &mut Ctx<'_, ()>, ()| {
                            ctx.send_now(ActorId(1), ());
                        }),
                    );
                    sim.seed_message(ActorId(0), SimTime(0), ());
                } else {
                    sim.install(ActorId(1), Box::new(|_: &mut Ctx<'_, ()>, ()| {}));
                }
            }
            fn finish(self, _: (), _: Simulation<()>, _: &ParOps<'_>) {}
        }
        let owners = Arc::new(vec![0u32, 1]);
        let workers = vec![Eager { part: 0 }, Eager { part: 1 }];
        run_partitioned::<(), (), _>(0, owners, SimDuration::from_nanos(50), workers);
    }
}
