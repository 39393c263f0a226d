//! Fixed-seed golden test: freezes the virtual-time observables and the
//! labels of two pinned TerraFlow runs, so a rewrite of the time-forward
//! queue (`pqueue.rs`) or of the labeling step is provably
//! behaviour-preserving. `WatershedFunctor::cost` reads the queue length
//! per packet, so `t3` moves if the queue ever holds a different number
//! of messages. The constants were captured at PR 22, from the
//! sort-per-access `ExternalPq`, before the heap-buffered rewrite; a
//! change that means to move them says why and re-records.

use lmas_emulator::ClusterConfig;
use lmas_gis::{fractal_terrain, matches_oracle, run_terraflow};
use lmas_sort::{DsmConfig, LoadMode};

/// FNV-1a over a byte stream; stable and dependency-free.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// What one pinned run must reproduce.
struct Pin {
    side: usize,
    seed: u64,
    asus: usize,
    times_ns: (u64, u64, u64),
    watersheds: u32,
    colors_fnv: u64,
    step3_dispatched: u64,
}

fn check(pin: &Pin) {
    let cluster = ClusterConfig::era_2002(1, pin.asus, 8.0);
    let grid = fractal_terrain(pin.side, pin.side, 0.55, pin.seed);
    let mut dsm = DsmConfig::new(4, 128, 4, 64);
    dsm.input_packet_records = 128;
    let out = run_terraflow(&cluster, &grid, &dsm, LoadMode::Static).expect("pinned run");
    let (t1, t2, t3) = out.times;
    let got = (
        (t1.as_nanos(), t2.as_nanos(), t3.as_nanos()),
        out.watersheds,
        fnv1a(out.colors.iter().flat_map(|c| c.to_le_bytes())),
        out.step3.dispatched,
    );
    let want = (
        pin.times_ns,
        pin.watersheds,
        pin.colors_fnv,
        pin.step3_dispatched,
    );
    assert_eq!(
        got, want,
        "{0}x{0} seed {1}: (times_ns, watersheds, colors_fnv, step3.dispatched), got {got:x?}",
        pin.side, pin.seed
    );
    assert!(matches_oracle(&grid, &out));
}

#[test]
fn pinned_terraflow_33_reproduces_frozen_run() {
    check(&Pin {
        side: 33,
        seed: 4,
        asus: 2,
        times_ns: (6_794_126, 7_318_028, 4_412_024),
        watersheds: 68,
        colors_fnv: 0x4f60_5ad8_3fe1_0de2,
        step3_dispatched: 50,
    });
}

#[test]
fn pinned_terraflow_65_reproduces_frozen_run() {
    check(&Pin {
        side: 65,
        seed: 6,
        asus: 4,
        times_ns: (13_343_270, 17_516_298, 17_789_544),
        watersheds: 158,
        colors_fnv: 0xe292_28ea_d056_7048,
        step3_dispatched: 175,
    });
}
