//! Wall-clock microbenchmarks for the simulation kernel: the event
//! calendar and FCFS resources pace every emulated run, so their
//! per-operation cost bounds how large an experiment the harness can
//! afford. Runs as a plain main under `cargo bench --bench sim_micro`
//! and writes the per-event figures to `BENCH_sim.json` in the results
//! directory.
//!
//! The scenarios mirror the calendar's hot paths in the emulator:
//! random-time schedule/pop (pass boundaries), the same under explicit
//! keys (what a partition of a parallel run inserts), same-instant FIFO
//! cascades (`send_now` chains) on the bare calendar, the sequential
//! engine and a one-partition parallel run, FCFS grants, and an
//! end-to-end DSM-Sort emulation on the default config.

use lmas_bench::{GateFailure, Report};
use lmas_core::{generate_rec128, KeyDist};
use lmas_emulator::ClusterConfig;
use lmas_sim::{
    run_partitioned, Ctx, DetRng, EventKey, EventQueue, ParOps, PartitionWorker, Resource,
    SimDuration, SimTime, Simulation,
};
use lmas_sort::{run_dsm_sort, DsmConfig, LoadMode};
use std::sync::Arc;

/// One actor that re-sends a countdown to itself at the current instant:
/// `n` dispatches, all at t=0.
fn install_cascade(sim: &mut Simulation<u64>, n: u64) {
    let a = sim.add_actor(Box::new(|ctx: &mut Ctx<'_, u64>, left: u64| {
        if left > 0 {
            let me = ctx.me();
            ctx.send_now(me, left - 1);
        }
    }));
    sim.seed_message(a, SimTime::ZERO, n - 1);
}

fn main() -> Result<(), GateFailure> {
    let mut report = Report::new("BENCH_sim.json");
    let n = 1 << 16;

    report.bench("calendar/schedule_pop_random_64k", n, || {
        let mut rng = DetRng::new(1);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime(rng.gen_range(1_000_000)), i);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        acc
    });

    report.bench("calendar/push_pop_keyed_64k", n, || {
        // A partition's inserts: the same arrival times as above under
        // explicit keys, scheduling instants tying in runs of 16.
        let mut rng = DetRng::new(1);
        let mut q = EventQueue::new();
        for i in 0..n {
            let at = SimTime(rng.gen_range(1_000_000));
            q.push(
                EventKey {
                    at,
                    sched: i / 16,
                    packed: (1 << 63) | (i << 15),
                },
                i,
            );
        }
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        acc
    });

    report.bench("calendar/same_instant_fifo_64k", n, || {
        // A send_now cascade: every pop schedules a successor at the very
        // instant just popped, so the whole run plays out at t=42.
        let mut q = EventQueue::new();
        q.schedule(SimTime(42), 0u64);
        let mut acc = 0u64;
        let mut left = n - 1;
        while let Some((t, v)) = q.pop() {
            acc = acc.wrapping_add(v);
            if left > 0 {
                left -= 1;
                q.schedule(t, v + 1);
            }
        }
        acc
    });

    report.bench("engine/send_now_cascade_64k", n, || {
        let mut sim: Simulation<u64> = Simulation::new(0);
        install_cascade(&mut sim, n);
        sim.run();
        sim.dispatched()
    });

    report.bench("engine/one_partition_cascade_64k", n, || {
        // The same cascade as one partition of a parallel run: keys come
        // from the partition's counters, the lane still takes them.
        struct Cascade(u64);
        impl PartitionWorker<u64, u64> for Cascade {
            type Built = ();
            fn build(&mut self, sim: &mut Simulation<u64>) {
                install_cascade(sim, self.0);
            }
            fn finish(self, (): (), sim: Simulation<u64>, _: &ParOps<'_>) -> u64 {
                sim.dispatched()
            }
        }
        let lookahead = SimDuration::from_nanos(1);
        run_partitioned(0, Arc::new(vec![0]), lookahead, vec![Cascade(n)]).dispatched
    });

    report.bench("resource/acquire_100k", 100_000, || {
        let mut r = Resource::new("cpu", SimDuration::from_millis(100));
        let mut t = SimTime::ZERO;
        for _ in 0..100_000 {
            let grant = r.acquire(t, SimDuration::from_micros(3));
            t = grant.end;
        }
        t
    });

    let mut rng = DetRng::new(7);
    report.bench("rng/gen_range_1k", 1_000, || {
        let mut acc = 0u64;
        for _ in 0..1_000 {
            acc = acc.wrapping_add(rng.gen_range(1_000));
        }
        acc
    });

    // End-to-end: the default DSM-Sort emulation. ns/unit here is ns per
    // dispatched simulator event, the paper-harness figure of merit.
    let sort_n = 30_000u64;
    let cluster = ClusterConfig::era_2002(1, 4, 8.0);
    let dsm = DsmConfig::new(16, 256, 4, 64);
    let data = generate_rec128(sort_n, KeyDist::Uniform, 1);
    let probe = run_dsm_sort(&cluster, data.clone(), &dsm, LoadMode::Static)
        .expect("default DSM-Sort runs");
    let events = probe.pass1.dispatched + probe.pass2.dispatched;
    println!(
        "emulation/dsm_sort_default: {events} events, makespan {}",
        probe.total
    );
    report.bench("emulation/dsm_sort_default_per_event", events, || {
        run_dsm_sort(&cluster, data.clone(), &dsm, LoadMode::Static).expect("sort runs")
    });

    report.headline(&["emulation/dsm_sort_default_per_event"]);
    report.write()
}
