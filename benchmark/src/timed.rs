//! `TimedFunctor`: host time spent inside functor code, measured from
//! outside the emulator.
//!
//! A built [`Job`] is rebuilt through the public `FlowGraph` API with
//! every stage factory wrapped, so each `process` / `flush` / `cost`
//! call adds its duration to a shared [`FunctorClock`]. The span around
//! `run_job` minus the clock is the emulator's own time: engine,
//! runtime, routing, resources and report assembly.

use lmas_core::{Emit, FlowGraph, Functor, FunctorKind, Packet, Record, Work};
use lmas_emulator::Job;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Nanoseconds and calls accumulated by every wrapped functor of a job.
/// Atomics because the partitioned engine runs functors on its worker
/// threads; `Relaxed` because the totals are read only after the run
/// has joined them.
#[derive(Default)]
pub struct FunctorClock {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl FunctorClock {
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

struct TimedFunctor<R: Record> {
    inner: Box<dyn Functor<R>>,
    clock: Arc<FunctorClock>,
}

impl<R: Record> Functor<R> for TimedFunctor<R> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn out_ports(&self) -> usize {
        self.inner.out_ports()
    }
    fn kind(&self) -> FunctorKind {
        self.inner.kind()
    }
    fn process(&mut self, input: Packet<R>, out: &mut Emit<R>) {
        self.clock.time(|| self.inner.process(input, out))
    }
    fn flush(&mut self, out: &mut Emit<R>) {
        self.clock.time(|| self.inner.flush(out))
    }
    fn cost(&self, input: &Packet<R>) -> Work {
        self.clock.time(|| self.inner.cost(input))
    }
    fn flush_cost(&self) -> Work {
        self.inner.flush_cost()
    }
    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }
    fn read_ahead_hint(&self) -> usize {
        self.inner.read_ahead_hint()
    }
}

/// The same job — stages, edges, placement, inputs — with every functor
/// timed by `clock`. Stage ids are positional, so placement and input
/// keys carry over unchanged.
pub fn wrap_job<R: Record>(job: Job<R>, clock: &Arc<FunctorClock>) -> Job<R> {
    let mut graph: FlowGraph<R> = FlowGraph::new();
    for stage in job.graph.stages() {
        let factory = stage.factory_handle();
        let clock = Arc::clone(clock);
        let timed = move |i: usize| {
            Box::new(TimedFunctor {
                inner: factory(i),
                clock: Arc::clone(&clock),
            }) as Box<dyn Functor<R>>
        };
        if stage.is_source {
            graph.add_source_stage(stage.replication, timed);
        } else {
            graph.add_stage(stage.replication, timed);
        }
    }
    for e in job.graph.edges() {
        graph
            .connect_coded(e.from, e.to, e.routing, e.kind, e.scope, e.coded_group)
            .expect("an edge of a valid graph is valid in its copy");
    }
    Job {
        graph,
        placement: job.placement,
        inputs: job.inputs,
    }
}
