//! Fixed-seed golden test: freezes every virtual-time observable of a
//! pinned DSM-Sort emulation so calendar/dispatch/accounting rewrites in
//! `lmas-sim` are provably behaviour-preserving. The constants below were
//! captured from the pre-rewrite simulator (tombstoned `BinaryHeap`
//! calendar, per-call resource accounting); the indexed-calendar rewrite
//! must reproduce them byte-for-byte.
//!
//! `crates/bench/src/bin/determinism.rs` prints the same figures for
//! run-to-run diffing within one build; this test pins them across
//! builds. If a change legitimately alters virtual time (a new cost
//! model, a protocol change), re-freeze by running that binary and
//! updating the constants — never to paper over an accidental drift.

use lmas_core::{generate_rec128, KeyDist, Record};
use lmas_emulator::{ClusterConfig, EmulationReport};
use lmas_sim::fnv1a;
use lmas_sort::{run_dsm_sort, DsmConfig, LoadMode};

fn cpu_series_fnv<R: Record>(report: &EmulationReport<R>) -> u64 {
    fnv1a(
        report
            .nodes
            .iter()
            .flat_map(|nr| nr.cpu_series.iter())
            .flat_map(|u| u.to_bits().to_le_bytes()),
    )
}

#[test]
fn pinned_dsm_sort_reproduces_frozen_virtual_time() {
    let cluster = ClusterConfig::era_2002(1, 2, 8.0).with_trace(4096);
    let dsm = DsmConfig::new(4, 256, 4, 64);
    let data = generate_rec128(5_000, KeyDist::Uniform, 1);
    let out = run_dsm_sort(&cluster, data, &dsm, LoadMode::Static).expect("pinned sort runs");

    // Makespans and event counts.
    assert_eq!(out.pass1.makespan.as_nanos(), 16_725_632);
    assert_eq!(out.pass2.makespan.as_nanos(), 23_332_828);
    assert_eq!(out.total.as_nanos(), 40_058_460);
    assert_eq!(out.pass1.dispatched, 128);
    assert_eq!(out.pass2.dispatched, 116);
    assert_eq!(out.pass1.records_processed, 15_000);
    assert_eq!(out.pass2.records_processed, 15_000);

    // Output contents (key stream in emission order).
    let out_records: usize = out.output.iter().map(|p| p.len()).sum();
    assert_eq!(out_records, 5_000);
    let key_fnv = fnv1a(
        out.output
            .iter()
            .flat_map(|p| p.records())
            .flat_map(|r| r.key().to_le_bytes()),
    );
    assert_eq!(key_fnv, 0x5ff3_a122_8ca4_5147);

    // Per-node CPU utilization series, bit-exact.
    assert_eq!(cpu_series_fnv(&out.pass1), 0x5050_9ea5_ec3c_258b);
    assert_eq!(cpu_series_fnv(&out.pass2), 0x554d_b312_2cc3_f175);

    // Trace renders (timestamps, subjects, details), byte-exact.
    assert_eq!(out.pass1.trace.len(), 66);
    assert_eq!(fnv1a(out.pass1.trace.render().bytes()), 0x6805_ad8f_ff08_52f2);
    assert_eq!(out.pass2.trace.len(), 52);
    assert_eq!(fnv1a(out.pass2.trace.render().bytes()), 0x5b5f_3e97_4813_e521);
}

#[test]
fn tracing_does_not_perturb_virtual_time() {
    let dsm = DsmConfig::new(4, 256, 4, 64);
    let data = generate_rec128(2_000, KeyDist::Uniform, 7);
    let quiet = ClusterConfig::era_2002(1, 2, 8.0);
    let traced = quiet.with_trace(1024);
    let a = run_dsm_sort(&quiet, data.clone(), &dsm, LoadMode::Static).expect("runs");
    let b = run_dsm_sort(&traced, data, &dsm, LoadMode::Static).expect("runs");
    assert_eq!(a.total, b.total);
    assert_eq!(a.pass1.dispatched, b.pass1.dispatched);
    assert_eq!(a.pass2.dispatched, b.pass2.dispatched);
    assert!(a.pass1.trace.is_empty(), "tracing off by default");
    assert!(!b.pass1.trace.is_empty(), "trace captured when asked");
}
