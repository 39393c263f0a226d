//! Audit regression tests: `Resource` utilization
//! accounting under *overlapping jobs*.
//!
//! Historically every emulation ran one job, so each resource only ever
//! saw one job's stage windows. The multi-tenant scheduler interleaves
//! acquire calls from concurrent jobs on the same `Resource`. The audit
//! conclusion these tests pin down: the accounting is already correct
//! under interleaving — an FCFS single server serializes every grant,
//! the ledger records exactly the granted busy windows (which are
//! disjoint by construction), and total busy time equals the sum of
//! service demands regardless of which job issued which request.

use lmas_sim::{Resource, SimDuration, SimTime, UtilizationLedger};

#[test]
fn interleaved_jobs_serialize_and_account_exactly() {
    let mut cpu = Resource::new("cpu", SimDuration::from_micros(10));
    // Two jobs interleave requests at the same instants; service times
    // differ so misattribution would show up in total_busy.
    let a1 = cpu.acquire(SimTime(0), SimDuration::from_nanos(300)); // job A
    let b1 = cpu.acquire(SimTime(0), SimDuration::from_nanos(500)); // job B
    let a2 = cpu.acquire(SimTime(100), SimDuration::from_nanos(200)); // job A
    // FCFS: grants are back-to-back, no overlap, no gap while queued.
    assert_eq!(a1.start, SimTime(0));
    assert_eq!(a1.end, SimTime(300));
    assert_eq!(b1.start, SimTime(300));
    assert_eq!(b1.end, SimTime(800));
    assert_eq!(a2.start, SimTime(800));
    assert_eq!(a2.end, SimTime(1000));
    // Queue delay is waiting only, never service.
    assert_eq!(b1.queue_delay(SimTime(0)), SimDuration::from_nanos(300));
    assert_eq!(a2.queue_delay(SimTime(100)), SimDuration::from_nanos(700));
    // Busy time is the exact sum of service demands across both jobs.
    assert_eq!(cpu.total_busy(), SimDuration::from_nanos(1000));
    assert_eq!(cpu.grants(), 3);
    // The utilization series integrates to the same total: no window is
    // double-counted when jobs interleave.
    let series = cpu.utilization_series(SimTime(1000));
    let integrated: f64 = series.iter().sum::<f64>() * 10_000.0; // bins of 10µs
    assert!(
        (integrated - 1000.0).abs() < 1e-6,
        "series integral {integrated} != busy 1000"
    );
}

#[test]
fn ledger_windows_from_two_jobs_never_double_count() {
    // Jobs ping-pong disjoint busy windows into one ledger (exactly the
    // pattern FCFS grants produce); the per-bin series must integrate
    // to the exact sum and never exceed 1.0 per bin.
    let bin = SimDuration::from_nanos(100);
    let mut ledger = UtilizationLedger::new(bin);
    let mut t = 0u64;
    let mut total = 0u64;
    for i in 0..50u64 {
        let len = 30 + (i % 7) * 13; // varied, bin-straddling windows
        ledger.add_busy(SimTime(t), SimTime(t + len));
        total += len;
        t += len; // back-to-back: the FCFS invariant
    }
    assert_eq!(ledger.total_busy(), SimDuration::from_nanos(total));
    let series = ledger.series(SimTime(t));
    for (i, u) in series.iter().enumerate() {
        assert!(
            (0.0..=1.0 + 1e-9).contains(u),
            "bin {i} utilization {u} out of range"
        );
    }
    let integrated: f64 = series.iter().sum::<f64>() * 100.0;
    assert!(
        (integrated - total as f64).abs() < 1e-6,
        "integral {integrated} != total busy {total}"
    );
}
