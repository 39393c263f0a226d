//! Fault recovery's tag diff ([`lost_records`]) against the `BTreeMap`
//! algorithm it replaced, kept here as the reference: identical records
//! in identical (ascending tag) order. What that order means for virtual
//! time is pinned by `par_golden.rs`'s faulted golden.

use lmas_core::{Packet, Rec128, Record};
use lmas_sim::DetRng;
use lmas_sort::lost_records;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The replaced algorithm: clone every record into a map by tag, remove
/// each survivor's tag, and read out what is left in key (= tag) order.
fn reference_lost(data: &[Rec128], runs: &[Vec<Packet<Rec128>>]) -> Vec<Rec128> {
    let mut by_tag: BTreeMap<u64, Rec128> = data.iter().map(|r| (r.tag64(), r.clone())).collect();
    for r in runs.iter().flatten().flat_map(|run| run.records()) {
        by_tag.remove(&r.tag64());
    }
    by_tag.into_values().collect()
}

/// `n` records in shuffled tag order: a permutation of `0..n`, or tags
/// spread over all of `u64` (an odd multiplier is a bijection, so they
/// stay unique; the one preimage of `u64::MAX` is far outside `0..n`).
fn input(n: u64, sparse: bool, rng: &mut DetRng) -> Vec<Rec128> {
    let mut data: Vec<Rec128> = (0..n)
        .map(|i| {
            let tag = if sparse {
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            } else {
                i
            };
            Rec128::new(rng.next_u32(), tag)
        })
        .collect();
    rng.shuffle(&mut data);
    data
}

/// Shuffle the records of `data` that `keep` selects into runs of up to
/// 16 records, dealt onto `asus` ASUs at random.
fn surviving_runs(
    data: &[Rec128],
    asus: usize,
    rng: &mut DetRng,
    mut keep: impl FnMut(&mut DetRng) -> bool,
) -> Vec<Vec<Packet<Rec128>>> {
    let mut survivors: Vec<Rec128> = data.iter().filter(|_| keep(rng)).cloned().collect();
    rng.shuffle(&mut survivors);
    let mut runs = vec![Vec::new(); asus];
    let mut rest = survivors.as_slice();
    while !rest.is_empty() {
        let (run, tail) = rest.split_at((1 + rng.gen_index(16)).min(rest.len()));
        runs[rng.gen_index(asus)].push(Packet::new(run.to_vec()));
        rest = tail;
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lost_records_match_the_btreemap_reference(
        n in 0u64..700,
        sparse in any::<bool>(),
        loss_pct in 0u64..101,
        asus in 1usize..7,
        seed in any::<u64>(),
    ) {
        let mut rng = DetRng::new(seed);
        let data = input(n, sparse, &mut rng);
        let runs = surviving_runs(&data, asus, &mut rng, |rng| rng.gen_range(100) >= loss_pct);
        let lost = lost_records(&data, &runs).expect("unique tags, each survivor held once");
        prop_assert_eq!(lost, reference_lost(&data, &runs));
    }
}

#[test]
fn empty_all_lost_and_none_lost() {
    let mut rng = DetRng::new(11);
    for sparse in [false, true] {
        let no_runs = vec![Vec::new(); 3];
        assert!(lost_records::<Rec128>(&[], &no_runs).unwrap().is_empty());

        let data = input(500, sparse, &mut rng);
        let all_lost = lost_records(&data, &no_runs).unwrap();
        assert_eq!(all_lost.len(), 500);
        assert!(all_lost.windows(2).all(|w| w[0].tag() < w[1].tag()));
        assert_eq!(all_lost, reference_lost(&data, &no_runs));

        let everything = surviving_runs(&data, 3, &mut rng, |_| true);
        assert!(lost_records(&data, &everything).unwrap().is_empty());
    }
}
