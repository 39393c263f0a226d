//! Wall-clock microbenchmarks for the verified sort/merge kernels that
//! every DSM-Sort pass leans on, plus the packet fan-out path.
//!
//! Runs as a plain main under `cargo bench --bench kernels`; writes the
//! per-record figures to `BENCH_kernels.json` in the results directory
//! (`LMAS_RESULTS_DIR`, default `results/`). These are the numbers the
//! zero-copy packet and radix/loser-tree kernel work is judged by —
//! virtual-time results are unchanged by construction, so wall clock is
//! the whole story.

use lmas_bench::timing::BenchReport;
use lmas_bench::write_results;
use lmas_core::kernels::{block_sort, bucket_of, merge_runs, radix_sort_u32, select_splitters};
use lmas_core::{generate_rec128, generate_rec8, KeyDist, Packet, Rec128, Rec8, Record};
use lmas_emulator::ClusterConfig;
use lmas_plan::ResidualCapacity;
use lmas_sim::DetRng;
use lmas_sort::{choose_splitters, lost_records, DsmConfig, Pass1Planner};

fn main() {
    let mut report = BenchReport::new();

    // Block sort (dispatches to radix for these records) vs the raw
    // kernels, on the 8-byte test record and the paper's 128-byte record.
    for &n in &[1usize << 10, 1 << 13, 1 << 16] {
        let data = generate_rec8(n as u64, KeyDist::Uniform, 1);
        report.bench(&format!("block_sort_rec8/n={n}"), n as u64, || {
            let mut v = data.clone();
            block_sort(&mut v)
        });
    }
    for &n in &[1usize << 13, 1 << 16] {
        let data = generate_rec128(n as u64, KeyDist::Uniform, 1);
        report.bench(&format!("radix_sort_rec128/n={n}"), n as u64, || {
            let mut v = data.clone();
            radix_sort_u32(&mut v);
            v.len()
        });
        report.bench(&format!("comparison_sort_rec128/n={n}"), n as u64, || {
            let mut v = data.clone();
            v.sort_by_key(lmas_core::Record::key);
            v.len()
        });
    }

    // Loser-tree merge across fan-ins.
    for &k in &[2usize, 8, 64] {
        let n = 1usize << 14;
        let data = generate_rec8(n as u64, KeyDist::Uniform, 2);
        let mut runs: Vec<Vec<Rec8>> = data.chunks(n / k).map(|c| c.to_vec()).collect();
        for r in &mut runs {
            r.sort_by_key(|x| x.key);
        }
        report.bench(&format!("merge_runs/k={k}"), n as u64, || {
            merge_runs(runs.clone())
        });
    }

    // Packet fan-out: cloning a packet to many destinations is a
    // refcount bump per destination, not a record copy — the per-record
    // figure should be orders of magnitude below the sort kernels.
    let big = Packet::new(generate_rec128(1 << 16, KeyDist::Uniform, 3));
    let fanout = 64u64;
    report.bench(
        &format!("packet_fanout/records={},clones={fanout}", 1 << 16),
        (1u64 << 16) * fanout,
        || {
            let clones: Vec<Packet<_>> = (0..fanout).map(|_| big.clone()).collect();
            clones.len()
        },
    );

    // Splitter machinery (unchanged by this round, kept for trend lines).
    let sample = generate_rec8(1 << 14, KeyDist::Uniform, 3);
    report.bench("select_splitters_256", 1 << 14, || {
        select_splitters(sample.clone(), 256)
    });
    let splitters = select_splitters(sample.clone(), 256);
    let keys: Vec<u32> = sample.iter().map(|r| r.key).collect();
    report.bench("bucket_of_256", 1 << 14, || {
        let mut acc = 0usize;
        for &k in &keys {
            acc = acc.wrapping_add(bucket_of(k, &splitters));
        }
        acc
    });

    // Fault recovery's tag diff at the fleet job's size: 524 288 records
    // of which 0.3 % are lost, the survivors shuffled into 256-record
    // runs over 192 ASUs. Dense tags are the generator's 0..n; the
    // sparse variant spreads them over all of u64 (multiplying by an odd
    // constant is a bijection, so they stay unique).
    let n = 1usize << 19;
    let dense = generate_rec128(n as u64, KeyDist::Uniform, 4);
    let sparse: Vec<Rec128> = dense
        .iter()
        .map(|r| Rec128::new(r.key(), r.tag().wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    let mut rng = DetRng::new(5);
    for (name, data) in [("tag_diff", &dense), ("tag_diff_sparse", &sparse)] {
        let mut survivors: Vec<Rec128> = data
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 333 != 0)
            .map(|(_, r)| r.clone())
            .collect();
        rng.shuffle(&mut survivors);
        let mut runs: Vec<Vec<Packet<Rec128>>> = vec![Vec::new(); 192];
        for (i, run) in survivors.chunks(256).enumerate() {
            runs[i % 192].push(Packet::new(run.to_vec()));
        }
        report.bench(&format!("{name}/n={n},lost=0.3%"), n as u64, || {
            lost_records(data, &runs).expect("tags are unique").len()
        });
    }

    // The scheduler's per-arrival control plane at the benchmark's
    // `sched_mix` geometry (4 hosts, 4 ASUs, α = 2, 2 500 records): one
    // residual plan against a half-loaded cluster and one solo estimate,
    // on a planner kept across calls as `run_scheduled` keeps it (ns per
    // call); and sampled splitter selection at the scheduler's and the
    // fleet job's sizes (ns per input record).
    let cluster = ClusterConfig::era_2002(4, 4, 2.0);
    let dsm = DsmConfig::new(2, 256, 4, 64);
    let mut planner = Pass1Planner::new::<Rec8>(&cluster, &dsm, 2_500);
    let mut res = ResidualCapacity::full(8);
    for u in 0..8 {
        let share = 0.1 * (u % 4) as f64;
        res.occupy(u, share, share / 2.0, share / 4.0);
    }
    report.bench("plan/residual_4h4a", 1, || {
        planner.plan_residual(&res).expect("plans").estimate.makespan_ns
    });
    let layout = planner.plan_residual(&res).expect("plans").assignment;
    report.bench("plan/estimate_4h4a", 1, || {
        planner.estimate_solo(&layout).makespan_ns
    });
    let small = generate_rec8(10_000, KeyDist::Uniform, 6);
    report.bench("splitters/n=10000,k=2", 10_000, || choose_splitters(&small, 2));
    report.bench("splitters/n=524288,k=16", 1 << 19, || {
        choose_splitters(&dense, 16)
    });

    write_results("BENCH_kernels.json", &report.to_json());
}
