//! The simulation engine: an actor loop over the event calendar.
//!
//! The engine owns a set of actors and an [`EventQueue`] of addressed
//! messages. `run` repeatedly pops the earliest message, advances virtual
//! time, and dispatches to the destination actor, which may send further
//! messages (to itself or others, now or later) through the [`Ctx`] handle.
//!
//! The paper's emulator stores per-node execution context in OS threads and
//! lets the event queue drive context switches. We keep the same semantics
//! — nodes make progress only when the calendar says so, in causal order —
//! but express each node as an explicit state machine, which needs no
//! threads and is deterministic by construction.
//!
//! # Partitioned mode
//!
//! A `Simulation` can alternatively be created as one *partition* of a
//! parallel run (see the [`crate::par`] coordinator). The actor-id space is
//! global — every partition calls [`Simulation::reserve_to`] so ids agree —
//! but each partition installs only the actors it owns. It runs the same
//! calendar and the same dispatch loop as a sequential simulation; what a
//! partition adds is a remote half (`Remote`): sends to non-owned actors are
//! buffered in an outbox and flushed between lookahead windows, and event
//! keys are minted from partition-local counters instead of the global
//! sequence number ([`crate::event::EventKey`]), which reproduces the
//! sequential dispatch order exactly, so virtual time is byte-identical to
//! a single-threaded run.

use crate::event::{EventKey, EventQueue};
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use std::sync::Arc;

/// Identifies an actor registered with a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub usize);

/// A simulation participant. Actors are state machines: all behaviour
/// happens in response to a delivered message.
pub trait Actor<M> {
    /// Handle a message delivered at the current virtual time.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, msg: M);
}

/// Blanket impl so closures can serve as simple actors in tests.
impl<M, F: FnMut(&mut Ctx<'_, M>, M)> Actor<M> for F {
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, msg: M) {
        self(ctx, msg)
    }
}

struct Envelope<M> {
    to: ActorId,
    msg: M,
}

/// A cross-partition message in flight: the destination partition pushes
/// it into its calendar at the next window boundary.
pub(crate) struct RemoteEvent<M> {
    pub(crate) key: EventKey,
    pub(crate) to: ActorId,
    pub(crate) msg: M,
}

/// What one partition of a parallel run adds to a calendar: the
/// bookkeeping that makes locally-minted keys globally consistent, and
/// the outbox for sends that leave the partition.
struct Remote<M> {
    /// This partition's index.
    part: u32,
    /// Owning partition of every actor id (global, shared).
    owners: Arc<Vec<u32>>,
    /// Minimum virtual latency of any cross-partition send.
    lookahead: SimDuration,
    /// Partition-chronological send counter (bits 15..63 of the event
    /// key). Increments on *every* send this partition makes, in dispatch
    /// order — the local restriction of the sequential engine's global
    /// sequence number, and exactly that number when the run has a
    /// single partition.
    ctr: u64,
    /// Partition-chronological *seed* counter (bits 15..63 of a seed's
    /// event key, kind bit clear). Same-instant seeds to one actor would
    /// collide under any id-derived tiebreak; issuance order is the
    /// sequential insertion order, so the counter reproduces it exactly.
    seed_ctr: u64,
    /// Cross-partition sends buffered until the window boundary, bucketed
    /// by destination partition so the coordinator can hand each bucket
    /// over with a single lock acquisition.
    outbox: Vec<Vec<RemoteEvent<M>>>,
    remote_sent: u64,
}

impl<M> Remote<M> {
    /// Key of the `c`-th seed (`kind` 0) or runtime send (`kind` 1) this
    /// partition issues.
    fn key(&self, at: SimTime, sched: SimTime, kind: u64, c: u64) -> EventKey {
        assert!(c < 1 << 48, "partition counter overflows the event key");
        let packed = (kind << 63) | (c << 15) | self.part as u64;
        EventKey { at, sched: sched.as_nanos(), packed }
    }
}

/// The event calendar: one queue, plus the remote half when this
/// simulation is a partition. The only thing the two modes do differently
/// is mint a key: the queue's global sequence number, or a [`Remote`]
/// counter.
struct Calendar<M> {
    queue: EventQueue<Envelope<M>>,
    /// Key `(sched, packed)` of the event currently being dispatched.
    cur: (u64, u64),
    remote: Option<Box<Remote<M>>>,
}

impl<M> Calendar<M> {
    /// File a message sent at `now` for delivery at `at`.
    fn send(&mut self, now: SimTime, to: ActorId, at: SimTime, msg: M) {
        let Some(r) = &mut self.remote else {
            return self.queue.schedule(at, Envelope { to, msg });
        };
        let key = r.key(at, now, 1, r.ctr);
        r.ctr += 1;
        let dest = r.owners[to.0];
        if dest == r.part {
            self.queue.push(key, Envelope { to, msg });
        } else {
            // Conservative synchronization is only sound if every remote
            // arrival lands beyond the current lookahead window.
            assert!(
                at >= now + r.lookahead,
                "cross-partition send violates the lookahead bound"
            );
            r.remote_sent += 1;
            r.outbox[dest as usize].push(RemoteEvent { key, to, msg });
        }
    }

    /// File a message issued outside dispatch (before or between runs).
    fn seed(&mut self, to: ActorId, at: SimTime, msg: M) {
        let Some(r) = &mut self.remote else {
            return self.queue.schedule(at, Envelope { to, msg });
        };
        assert_eq!(r.owners[to.0], r.part, "seeded a non-owned actor");
        // Kind bit 0, sched 0: seeds order before any runtime send at the
        // same instant, exactly like pre-run sequence numbers. Same-instant
        // seeds tiebreak on (issuance order, partition) — unique even when
        // one actor is seeded twice at the same instant (e.g. several
        // fault-plan events firing together).
        let key = r.key(at, SimTime::ZERO, 0, r.seed_ctr);
        r.seed_ctr += 1;
        self.queue.push(key, Envelope { to, msg });
    }

    fn remote(&self) -> &Remote<M> {
        self.remote.as_deref().expect("not a partition of a parallel run")
    }

    fn remote_mut(&mut self) -> &mut Remote<M> {
        self.remote.as_deref_mut().expect("not a partition of a parallel run")
    }
}

/// Handle through which an actor interacts with the engine during dispatch.
pub struct Ctx<'a, M> {
    now: SimTime,
    me: ActorId,
    cal: &'a mut Calendar<M>,
    rng: &'a mut DetRng,
}

impl<'a, M> Ctx<'a, M> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor being dispatched.
    #[inline]
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Send `msg` to `to` after `delay`.
    pub fn send(&mut self, to: ActorId, delay: SimDuration, msg: M) {
        self.send_at(to, self.now + delay, msg)
    }

    /// Send `msg` to `to` at the current instant (fires after all messages
    /// already scheduled for this instant — scheduling order is preserved).
    pub fn send_now(&mut self, to: ActorId, msg: M) {
        self.send(to, SimDuration::ZERO, msg)
    }

    /// Send `msg` to `to` at absolute time `at` (must be >= now).
    pub fn send_at(&mut self, to: ActorId, at: SimTime, msg: M) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.cal.send(self.now, to, at, msg)
    }

    /// Engine-level RNG stream (distinct from per-component streams an
    /// actor may own). Deterministic across runs. In partitioned mode each
    /// partition owns an independent stream (partition 0 matches the
    /// sequential stream).
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// The ordering key `(sched, packed)` of the event being dispatched
    /// on a partition of a parallel run; `(0, 0)` on the plain calendar,
    /// where side effects already happen in dispatch order. Higher layers
    /// stamp order-sensitive side effects (trace lines, backlog
    /// mutations, violation notes) with it, so per-partition logs merge
    /// back into the sequential order ([`merge_keyed`]).
    pub fn dispatch_key(&self) -> (u64, u64) {
        self.cal.remote.as_ref().map_or((0, 0), |_| self.cal.cur)
    }
}

/// A side effect stamped with the instant and [`Ctx::dispatch_key`] of
/// the dispatch that caused it.
pub type Keyed<T> = (SimTime, (u64, u64), T);

/// Merge per-partition logs, each in its own partition's dispatch order,
/// into the order a sequential run would have produced them in.
///
/// `(instant, dispatch key)` is the partitioned engine's total dispatch
/// order, and the sort is stable, so entries of one dispatch keep their
/// program order. A single log of the plain calendar (every key
/// `(0, 0)`, instants non-decreasing) comes back unchanged.
pub fn merge_keyed<T, P>(parts: impl IntoIterator<Item = P>) -> Vec<Keyed<T>>
where
    P: IntoIterator<Item = Keyed<T>>,
{
    let mut parts = parts.into_iter();
    let mut all: Vec<Keyed<T>> = parts.next().map_or_else(Vec::new, |p| p.into_iter().collect());
    for p in parts {
        all.extend(p);
    }
    all.sort_by_key(|e| (e.0, e.1));
    all
}

/// Outcome of [`Simulation::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The calendar drained: no live events remain.
    Drained,
    /// The time horizon passed before the calendar drained.
    HorizonReached,
}

/// A deterministic discrete-event simulation over actors exchanging
/// messages of type `M`.
pub struct Simulation<M> {
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    cal: Calendar<M>,
    now: SimTime,
    rng: DetRng,
    dispatched: u64,
}

impl<M> Simulation<M> {
    /// New simulation at `t=0` with the given master seed.
    pub fn new(seed: u64) -> Self {
        Self::with_remote(seed, 0, None)
    }

    /// New simulation acting as partition `part` of a parallel run (see
    /// [`crate::par::run_partitioned`]): locally-minted keys, outbox for
    /// cross-partition sends, per-partition RNG stream.
    pub(crate) fn new_partition(
        seed: u64,
        part: u32,
        owners: Arc<Vec<u32>>,
        lookahead: SimDuration,
        nparts: usize,
    ) -> Self {
        assert!(
            lookahead.as_nanos() > 0,
            "partitioned mode needs a positive lookahead"
        );
        assert!(part < 1 << 15, "partition index overflows the event key");
        let remote = Remote {
            part,
            owners,
            lookahead,
            ctr: 0,
            seed_ctr: 0,
            outbox: (0..nparts).map(|_| Vec::new()).collect(),
            remote_sent: 0,
        };
        Self::with_remote(seed, part, Some(Box::new(remote)))
    }

    fn with_remote(seed: u64, part: u32, remote: Option<Box<Remote<M>>>) -> Self {
        Simulation {
            actors: Vec::new(),
            cal: Calendar { queue: EventQueue::new(), cur: (0, 0), remote },
            now: SimTime::ZERO,
            // Partition 0's stream is the sequential engine's stream;
            // others are disjoint SplitMix64 streams.
            rng: DetRng::stream(seed, u64::MAX ^ part as u64),
            dispatched: 0,
        }
    }

    /// Register an actor; returns its id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = ActorId(self.actors.len());
        self.actors.push(Some(actor));
        id
    }

    /// Pre-allocate an actor slot to obtain its id before construction
    /// (for mutually referencing actors). The slot must be filled with
    /// [`Simulation::install`] before any message reaches it.
    pub fn reserve_actor(&mut self) -> ActorId {
        let id = ActorId(self.actors.len());
        self.actors.push(None);
        id
    }

    /// Grow the actor-id space to at least `n` reserved slots (installing
    /// none). Partitioned builds call this so every partition agrees on
    /// the global id assignment while instantiating only the actors it
    /// owns; non-owned slots simply stay empty.
    pub fn reserve_to(&mut self, n: usize) {
        while self.actors.len() < n {
            self.actors.push(None);
        }
    }

    /// Fill a slot created by [`Simulation::reserve_actor`].
    pub fn install(&mut self, id: ActorId, actor: Box<dyn Actor<M>>) {
        assert!(
            self.actors[id.0].is_none(),
            "actor slot {id:?} already installed"
        );
        self.actors[id.0] = Some(actor);
    }

    /// Schedule an initial message before the run starts.
    ///
    /// Partitioned runs may only seed actors the partition owns, and every
    /// partition must issue its seeds in the same relative order the
    /// sequential build does (the natural build order), so the per-partition
    /// seed counter reproduces the sequential insertion sequence at one
    /// partition and a stable total order at several.
    pub fn seed_message(&mut self, to: ActorId, at: SimTime, msg: M) {
        self.cal.seed(to, at, msg)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total messages dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Dispatch every event arriving at or before `horizon` (inclusive),
    /// in key order, until none is left. The one dispatch loop of both
    /// modes.
    ///
    /// It allocates nothing per dispatch: envelopes are recycled through
    /// the calendar's slot free list, and the horizon check is folded into
    /// the pop ([`EventQueue::pop_not_after`]) instead of a separate peek.
    fn dispatch_through(&mut self, horizon: SimTime) {
        while let Some((key, env)) = self.cal.queue.pop_not_after(horizon) {
            debug_assert!(key.at >= self.now, "time went backwards");
            self.now = key.at;
            self.cal.cur = (key.sched, key.packed);
            self.dispatched += 1;
            let mut actor = self.actors[env.to.0]
                .take()
                .unwrap_or_else(|| panic!("message to uninstalled actor {:?}", env.to));
            {
                let mut ctx = Ctx {
                    now: self.now,
                    me: env.to,
                    cal: &mut self.cal,
                    rng: &mut self.rng,
                };
                actor.on_message(&mut ctx, env.msg);
            }
            self.actors[env.to.0] = Some(actor);
        }
    }

    /// Run until the calendar drains or virtual time would exceed
    /// `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        assert!(
            self.cal.remote.is_none(),
            "run_until is sequential-only; partitions advance via the coordinator"
        );
        self.dispatch_through(horizon);
        if self.cal.queue.is_empty() {
            RunOutcome::Drained
        } else {
            RunOutcome::HorizonReached
        }
    }

    /// Run until the calendar drains.
    pub fn run(&mut self) -> RunOutcome {
        // NEVER-1 keeps the horizon comparison strict but unreachable.
        self.run_until(SimTime(u64::MAX - 1))
    }

    /// Partitioned mode: dispatch every owned event arriving at or before
    /// `horizon` (inclusive), in key order. Cross-partition sends
    /// accumulate in the outbox. Returns the number of dispatches.
    pub(crate) fn run_window(&mut self, horizon: SimTime) -> u64 {
        let before = self.dispatched;
        self.dispatch_through(horizon);
        self.dispatched - before
    }

    /// Partitioned mode: arrival time of this partition's earliest pending
    /// event in nanoseconds, or `u64::MAX` when idle.
    pub(crate) fn par_next_time(&self) -> u64 {
        self.cal.queue.peek_time().map_or(u64::MAX, |t| t.as_nanos())
    }

    /// Partitioned mode: accept a cross-partition message routed here by
    /// the coordinator.
    pub(crate) fn par_push_remote(&mut self, ev: RemoteEvent<M>) {
        let r = self.cal.remote();
        debug_assert_eq!(r.owners[ev.to.0], r.part, "remote event misrouted");
        self.cal.queue.push(ev.key, Envelope { to: ev.to, msg: ev.msg });
    }

    /// Partitioned mode: the buffered cross-partition sends, bucketed by
    /// destination partition. The coordinator swaps each non-empty bucket
    /// into the matching `(src, dst)` mailbox slot at the window boundary
    /// (recycling the slot's empty allocation back into the bucket).
    pub(crate) fn par_outbox_mut(&mut self) -> &mut Vec<Vec<RemoteEvent<M>>> {
        &mut self.cal.remote_mut().outbox
    }

    /// Partitioned mode: lifetime count of cross-partition sends.
    pub(crate) fn par_remote_sent(&self) -> u64 {
        self.cal.remote().remote_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn ping_pong_alternates_in_time() {
        #[derive(Debug, PartialEq)]
        enum Msg {
            Ping(u32),
            Pong(u32),
        }
        let log: Rc<RefCell<Vec<(u64, String)>>> = Rc::default();
        let mut sim: Simulation<Msg> = Simulation::new(0);
        let a = sim.reserve_actor();
        let b = sim.reserve_actor();

        let log_a = log.clone();
        sim.install(
            a,
            Box::new(move |ctx: &mut Ctx<'_, Msg>, msg: Msg| {
                if let Msg::Pong(n) = msg {
                    log_a.borrow_mut().push((ctx.now().as_nanos(), format!("pong{n}")));
                    if n < 3 {
                        ctx.send(b, SimDuration::from_nanos(10), Msg::Ping(n + 1));
                    }
                }
            }),
        );
        let log_b = log.clone();
        sim.install(
            b,
            Box::new(move |ctx: &mut Ctx<'_, Msg>, msg: Msg| {
                if let Msg::Ping(n) = msg {
                    log_b.borrow_mut().push((ctx.now().as_nanos(), format!("ping{n}")));
                    ctx.send(a, SimDuration::from_nanos(5), Msg::Pong(n));
                }
            }),
        );
        sim.seed_message(b, SimTime(0), Msg::Ping(1));
        assert_eq!(sim.run(), RunOutcome::Drained);
        let got = log.borrow().clone();
        assert_eq!(
            got,
            vec![
                (0, "ping1".into()),
                (5, "pong1".into()),
                (15, "ping2".into()),
                (20, "pong2".into()),
                (30, "ping3".into()),
                (35, "pong3".into()),
            ]
        );
    }

    #[test]
    fn horizon_stops_before_late_events() {
        let fired: Rc<RefCell<u32>> = Rc::default();
        let mut sim: Simulation<()> = Simulation::new(0);
        let f = fired.clone();
        let a = sim.add_actor(Box::new(move |_: &mut Ctx<'_, ()>, ()| {
            *f.borrow_mut() += 1;
        }));
        sim.seed_message(a, SimTime(10), ());
        sim.seed_message(a, SimTime(1000), ());
        assert_eq!(sim.run_until(SimTime(100)), RunOutcome::HorizonReached);
        assert_eq!(*fired.borrow(), 1);
        // The late event is still pending; a later run picks it up.
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*fired.borrow(), 2);
    }

    #[test]
    fn determinism_same_seed_same_dispatch_trace() {
        fn run(seed: u64) -> Vec<u64> {
            let trace: Rc<RefCell<Vec<u64>>> = Rc::default();
            let mut sim: Simulation<u32> = Simulation::new(seed);
            let t = trace.clone();
            let a = sim.add_actor(Box::new(move |ctx: &mut Ctx<'_, u32>, hops: u32| {
                t.borrow_mut().push(ctx.now().as_nanos());
                if hops > 0 {
                    let d = SimDuration::from_nanos(ctx.rng().gen_range(100) + 1);
                    let me = ctx.me();
                    ctx.send(me, d, hops - 1);
                }
            }));
            sim.seed_message(a, SimTime(0), 50);
            sim.run();
            let out = trace.borrow().clone();
            out
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn send_at_past_panics() {
        let mut sim: Simulation<()> = Simulation::new(0);
        let a = sim.add_actor(Box::new(|ctx: &mut Ctx<'_, ()>, ()| {
            let me = ctx.me();
            ctx.send_at(me, SimTime(0), ());
        }));
        sim.seed_message(a, SimTime(10), ());
        sim.run();
    }

    #[test]
    fn seeds_between_runs_keep_time_then_issue_order() {
        // After a horizon stop the calendar's "current instant" is the last
        // dispatch (t=10). Seeds issued then — at that very instant (the
        // fast lane), later, and tied with an event still pending — must
        // fire in (time, issue order) like any others.
        let log: Rc<RefCell<Vec<(u64, &'static str)>>> = Rc::default();
        let mut sim: Simulation<&'static str> = Simulation::new(0);
        let l = log.clone();
        let a = sim.add_actor(Box::new(move |ctx: &mut Ctx<'_, &'static str>, m| {
            l.borrow_mut().push((ctx.now().as_nanos(), m));
        }));
        sim.seed_message(a, SimTime(10), "first");
        sim.seed_message(a, SimTime(1000), "pending");
        assert_eq!(sim.run_until(SimTime(100)), RunOutcome::HorizonReached);
        sim.seed_message(a, SimTime(1000), "tied-after-pending");
        sim.seed_message(a, SimTime(10), "at-front-a");
        sim.seed_message(a, SimTime(500), "between");
        sim.seed_message(a, SimTime(10), "at-front-b");
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(
            *log.borrow(),
            [
                (10, "first"),
                (10, "at-front-a"),
                (10, "at-front-b"),
                (500, "between"),
                (1000, "pending"),
                (1000, "tied-after-pending"),
            ]
        );
    }

    #[test]
    fn reserve_to_grows_without_installing() {
        let mut sim: Simulation<()> = Simulation::new(0);
        let a = sim.reserve_actor();
        sim.reserve_to(5);
        sim.reserve_to(3); // never shrinks
        let b = sim.add_actor(Box::new(|_: &mut Ctx<'_, ()>, ()| {}));
        assert_eq!(a, ActorId(0));
        assert_eq!(b, ActorId(5));
        sim.install(a, Box::new(|_: &mut Ctx<'_, ()>, ()| {}));
    }
}
