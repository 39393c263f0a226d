//! Per-layer figures taken from outside the program: counts read from
//! the returned reports, and floors — the same work replayed through a
//! layer's public functions with nothing else around it.

use crate::metrics::Metrics;
use crate::stats::median;
use lmas_core::kernels::{block_sort, bucket_of, merge_runs};
use lmas_core::{packetize, NodeId, Record};
use lmas_emulator::EmulationReport;
use lmas_sim::{ActorId, Ctx, DetRng, EventQueue, SimDuration, SimTime, Simulation};
use lmas_sort::{choose_splitters, DsmConfig};
use std::hint::black_box;
use std::time::Instant;

/// Floors are cheap next to a rep; three takes keep a stray preemption
/// out of the reported figure.
const FLOOR_TAKES: usize = 3;

/// Median wall-clock ms of `FLOOR_TAKES` calls of `f`, which returns the
/// nanoseconds it measured (so it can keep its own set-up untimed).
fn floor_ms(mut f: impl FnMut() -> u64) -> f64 {
    let takes: Vec<f64> = (0..FLOOR_TAKES).map(|_| f() as f64 / 1e6).collect();
    median(&takes)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// Counts and virtual-time figures summed over the passes of one job.
/// They repeat exactly from run to run.
pub fn report_counts<R: Record>(reports: &[&EmulationReport<R>], m: &mut Metrics) {
    let sum =
        |f: &dyn Fn(&EmulationReport<R>) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let events = sum(&|r| r.dispatched);
    m.set("sim.events", events);
    m.set("emulator.records_processed", sum(&|r| r.records_processed));
    m.set(
        "emulator.nic_bytes_tx",
        sum(&|r| r.nodes.iter().map(|n| n.nic_bytes_tx).sum()),
    );
    m.set(
        "emulator.disk_bytes",
        sum(&|r| r.nodes.iter().map(|n| n.disk.2 + n.disk.3).sum()),
    );
    m.set("emulator.fault.retries", sum(&|r| r.fault.retries));
    m.set("emulator.fault.nacks", sum(&|r| r.fault.nacks));
    m.set("emulator.fault.drops", sum(&|r| r.fault.drops));
    m.set("emulator.fault.detections", sum(&|r| r.fault.detections));
    m.set("emulator.balance.reweights", sum(&|r| r.reweights));
    m.set("emulator.repair.completed", sum(&|r| r.repair.completed));
    m.set("emulator.repair.bytes", sum(&|r| r.repair.bytes_repaired));
    m.set(
        "storage.pool.hits",
        sum(&|r| r.nodes.iter().map(|n| n.pool.hits).sum()),
    );
    m.set(
        "storage.pool.misses",
        sum(&|r| r.nodes.iter().map(|n| n.pool.misses).sum()),
    );
    m.set(
        "storage.pool.writebacks",
        sum(&|r| r.nodes.iter().map(|n| n.pool.writebacks).sum()),
    );
    let disks = |f: &dyn Fn(&lmas_emulator::BteStats) -> u64| {
        sum(&|r| r.nodes.iter().flat_map(|n| &n.per_disk).map(f).sum())
    };
    m.set("storage.disk.reads", disks(&|d| d.reads));
    m.set("storage.disk.writes", disks(&|d| d.writes));
    let busy_ns = sum(&|r| {
        r.nodes
            .iter()
            .flat_map(|n| &n.per_disk_busy)
            .map(|b| b.as_nanos())
            .sum()
    });
    m.set("storage.disk.busy_ms", busy_ns / 1e6);

    // Occupancy of the modelled cluster: CPU busy time over the time the
    // nodes of that kind were available, across all passes.
    let util = |hosts: bool| {
        let (mut busy, mut avail) = (0.0, 0.0);
        for r in reports {
            for n in r
                .nodes
                .iter()
                .filter(|n| matches!(n.id, NodeId::Host(_)) == hosts)
            {
                busy += n.cpu_busy.as_nanos() as f64;
                avail += r.makespan.as_nanos() as f64;
            }
        }
        if avail > 0.0 {
            100.0 * busy / avail
        } else {
            0.0
        }
    };
    m.set("emulator.host_cpu_util", util(true));
    m.set("emulator.asu_cpu_util", util(false));

    // The partitioned kernel leaves `par` on every pass it ran.
    let par: Vec<_> = reports.iter().filter_map(|r| r.par.as_ref()).collect();
    if let Some(first) = par.first() {
        let critical: u64 = reports
            .iter()
            .map(|r| {
                r.par
                    .as_ref()
                    .map_or(r.dispatched, |p| p.critical_dispatched)
            })
            .sum();
        m.set("sim.par.partitions", first.partitions as f64);
        m.set(
            "sim.par.windows",
            par.iter().map(|p| p.windows).sum::<u64>() as f64,
        );
        m.set(
            "sim.par.remote_msgs",
            par.iter().map(|p| p.remote_messages).sum::<u64>() as f64,
        );
        m.set("sim.par.critical_events", critical as f64);
        m.set("sim.par.model_speedup", events / critical.max(1) as f64);
        // Bucket i of the log2 histogram holds waits in [2^i, 2^(i+1)) ns;
        // its midpoint stands for each of them.
        let wait_ns: f64 = par
            .iter()
            .flat_map(|p| p.barrier_wait_hist.nonzero())
            .map(|(i, c)| c as f64 * 1.5 * (1u64 << i) as f64)
            .sum();
        m.set("sim.par.barrier_wait_ms", wait_ns / 1e6);
    }
}

/// Events held in the bare calendar while it is exercised: the order of
/// an emulated job's pending-event population, not of its total count.
const CALENDAR_DEPTH: u64 = 1024;

/// `events` schedule + pop pairs through a bare [`EventQueue`] held at
/// [`CALENDAR_DEPTH`] pending events: what the calendar alone would cost
/// the job.
pub fn calendar_floor_ms(events: u64) -> f64 {
    floor_ms(|| {
        let mut rng = DetRng::new(1);
        let mut q = EventQueue::new();
        for i in 0..CALENDAR_DEPTH {
            q.schedule(SimTime(rng.gen_range(1_000_000)), i);
        }
        let (acc, ns) = timed(|| {
            let mut acc = 0u64;
            for _ in 0..events {
                let (t, v) = q.pop().expect("the calendar is held non-empty");
                acc = acc.wrapping_add(v);
                q.schedule(SimTime(t.0 + 1 + rng.gen_range(1_000_000)), v);
            }
            acc
        });
        black_box(acc);
        ns
    })
}

/// `events` dispatches through a bare [`Simulation`]: a ring of actors,
/// each forwarding a countdown to the next after a virtual delay. Calendar
/// plus actor dispatch, with no emulator on top. `events` is at least 1.
pub fn engine_floor_ms(events: u64) -> f64 {
    const RING: usize = 64;
    floor_ms(|| {
        let mut sim: Simulation<u64> = Simulation::new(0);
        let ids: Vec<ActorId> = (0..RING).map(|_| sim.reserve_actor()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let next = ids[(i + 1) % RING];
            sim.install(
                id,
                Box::new(move |ctx: &mut Ctx<'_, u64>, left: u64| {
                    if left > 0 {
                        ctx.send(next, SimDuration::from_nanos(1 + (left & 0xff)), left - 1);
                    }
                }),
            );
        }
        // Sixteen tokens in flight keep the calendar from being trivial.
        let tokens = 16.min(events);
        for k in 0..tokens {
            let share = events / tokens + u64::from(k < events % tokens);
            sim.seed_message(ids[k as usize], SimTime::ZERO, share - 1);
        }
        let (_, ns) = timed(|| sim.run());
        assert_eq!(sim.dispatched(), events);
        ns
    })
}

/// DSM-Sort's data path on the job's own records, outside the emulator:
/// `packetize` of the whole input at the input packet size; `bucket_of`
/// per record; `block_sort` per β-block of each subset; `merge_runs` γ₁
/// at a time and then γ₂ at a time until each subset is one run. Only
/// the kernel calls are timed; regrouping between them is not.
pub fn kernel_and_packet_floors<R: Record>(data: &[R], dsm: &DsmConfig, m: &mut Metrics) {
    let packetize_ms = floor_ms(|| {
        let input = data.to_vec();
        let (packets, ns) = timed(|| packetize(input, dsm.input_packet_records));
        black_box(packets);
        ns
    });
    m.set("core.packet.packetize_ms", packetize_ms);

    let splitters = &choose_splitters(data, dsm.alpha);
    let mut takes = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..FLOOR_TAKES {
        let (idx, bucket_ns) = timed(|| {
            data.iter()
                .map(|r| bucket_of(r.key(), splitters) as u32)
                .collect::<Vec<u32>>()
        });
        let mut subsets: Vec<Vec<R>> = vec![Vec::new(); splitters.len() + 1];
        for (r, &b) in data.iter().zip(&idx) {
            subsets[b as usize].push(r.clone());
        }
        let (mut sort_ns, mut merge_ns, mut merged_records) = (0, 0, 0);
        for subset in subsets {
            let mut runs: Vec<Vec<R>> = subset.chunks(dsm.beta).map(<[R]>::to_vec).collect();
            for run in &mut runs {
                sort_ns += timed(|| block_sort(run)).1;
            }
            let mut fan_in = dsm.gamma1.max(2);
            while runs.len() > 1 {
                let mut next = Vec::with_capacity(runs.len().div_ceil(fan_in));
                let mut it = runs.into_iter().peekable();
                while it.peek().is_some() {
                    let group: Vec<Vec<R>> = it.by_ref().take(fan_in).collect();
                    let ((run, _), ns) = timed(|| merge_runs(group));
                    merge_ns += ns;
                    next.push(run);
                }
                runs = next;
                fan_in = dsm.gamma2.max(2);
            }
            for run in &runs {
                assert!(
                    lmas_core::kernels::is_sorted_by_key(run),
                    "kernel replay left a subset unsorted"
                );
                merged_records += run.len();
            }
        }
        assert_eq!(merged_records, data.len(), "kernel replay lost records");
        takes.0.push(sort_ns as f64 / 1e6);
        takes.1.push(merge_ns as f64 / 1e6);
        takes.2.push(bucket_ns as f64 / 1e6);
    }
    m.set("core.kernels.sort_floor_ms", median(&takes.0));
    m.set("core.kernels.merge_floor_ms", median(&takes.1));
    m.set("core.kernels.bucket_floor_ms", median(&takes.2));
}
