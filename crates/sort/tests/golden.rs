//! The pinned sort's virtual-time figures live in the golden ledger
//! (`lmas_bench::ledger`, recorded in `results/determinism.txt`); this
//! file holds the property those pins rely on: tracing observes a run
//! without moving it.

use lmas_core::{generate_rec128, KeyDist};
use lmas_emulator::ClusterConfig;
use lmas_sort::{run_dsm_sort, DsmConfig, LoadMode};

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
