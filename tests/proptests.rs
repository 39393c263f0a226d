//! Property-based tests over the core invariants of the stack.

use lmas::core::kernels::{
    bucket_of, is_sorted_by_key, merge_runs, radix_sort_u32, select_splitters,
};
use lmas::core::{packetize, Packet, Rec128, Rec8, Record, Router, RoutingPolicy};
use lmas::emulator::balance::MIN_WEIGHT;
use lmas::emulator::ClusterConfig;
use lmas::sort::{
    check_tag_permutation, reconstruct_sorted, run_dsm_sort, DsmConfig, LoadMode,
};
use proptest::prelude::*;

fn rec8s(max_len: usize) -> impl Strategy<Value = Vec<Rec8>> {
    prop::collection::vec(any::<u32>(), 0..max_len).prop_map(|keys| {
        keys.into_iter()
            .enumerate()
            .map(|(i, key)| Rec8 { key, tag: i as u32 })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge_runs equals a plain sort of the concatenation.
    #[test]
    fn merge_runs_equals_sort(data in rec8s(500), k in 1usize..8) {
        let mut runs: Vec<Vec<Rec8>> = data
            .chunks(data.len().max(1).div_ceil(k))
            .map(|c| c.to_vec())
            .collect();
        for r in &mut runs {
            r.sort_by_key(|x| x.key);
        }
        let (merged, _) = merge_runs(runs);
        let mut expect = data.clone();
        expect.sort_by_key(|x| x.key);
        prop_assert_eq!(
            merged.iter().map(|r| r.key).collect::<Vec<_>>(),
            expect.iter().map(|r| r.key).collect::<Vec<_>>()
        );
        // And nothing was lost: tags are the same multiset.
        let mut mt: Vec<u32> = merged.iter().map(|r| r.tag).collect();
        let mut et: Vec<u32> = expect.iter().map(|r| r.tag).collect();
        mt.sort_unstable();
        et.sort_unstable();
        prop_assert_eq!(mt, et);
    }

    /// Splitters always partition the key space consistently: bucket ids
    /// are monotone in the key.
    #[test]
    fn bucket_of_is_monotone(sample in rec8s(300), k in 1usize..32, probes in prop::collection::vec(any::<u32>(), 0..50)) {
        let splitters = select_splitters(sample, k);
        prop_assert!(splitters.len() < k.max(1));
        let mut sorted_probes = probes;
        sorted_probes.sort_unstable();
        let buckets: Vec<usize> = sorted_probes.iter().map(|&p| bucket_of(p, &splitters)).collect();
        prop_assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(buckets.iter().all(|&b| b < k.max(1)));
    }

    /// packetize never loses, duplicates, or reorders records.
    #[test]
    fn packetize_partitions_exactly(data in rec8s(400), sz in 1usize..64) {
        let packets = packetize(data.clone(), sz);
        let flat: Vec<Rec8> = packets.iter().flat_map(|p| p.records().iter().copied()).collect();
        prop_assert_eq!(flat, data.clone());
        for (i, p) in packets.iter().enumerate() {
            if i + 1 < packets.len() {
                prop_assert_eq!(p.len(), sz);
            } else {
                prop_assert!(p.len() <= sz && !p.is_empty());
            }
        }
    }

    /// Reconstructing stripes of any sorted sequence recovers it.
    #[test]
    fn reconstruct_recovers_striped_sorted_sequence(
        data in rec8s(400),
        stripe in 1usize..50,
        nsinks in 1usize..6,
    ) {
        let mut sorted = data;
        sorted.sort_by_key(|r| r.key);
        // Stripe round-robin across sinks, as the collectors do.
        let mut sinks: Vec<Vec<Packet<Rec8>>> = vec![Vec::new(); nsinks];
        for (i, chunk) in sorted.chunks(stripe).enumerate() {
            sinks[i % nsinks].push(Packet::new(chunk.to_vec()));
        }
        let stripes: Vec<Packet<Rec8>> = sinks.into_iter().flatten().collect();
        let back = reconstruct_sorted(&stripes).expect("reconstructs");
        prop_assert_eq!(
            back.iter().map(|r| r.key).collect::<Vec<_>>(),
            sorted.iter().map(|r| r.key).collect::<Vec<_>>()
        );
    }

    /// Tag-permutation checking accepts permutations and rejects losses.
    #[test]
    fn permutation_check_sound(n in 1u64..200, drop_one in any::<bool>()) {
        let mut tags: Vec<u64> = (0..n).collect();
        tags.reverse();
        if drop_one {
            tags.pop();
            prop_assert!(check_tag_permutation(tags, n).is_err());
        } else {
            prop_assert!(check_tag_permutation(tags, n).is_ok());
        }
    }

    /// The radix kernel equals a stable comparison sort for arbitrary
    /// Rec128 inputs (narrow mode forces duplicate keys so stability —
    /// equal keys keep input order — is actually exercised).
    #[test]
    fn radix_equals_stable_sort(keys in prop::collection::vec(any::<u32>(), 0..400), narrow in any::<bool>()) {
        let recs: Vec<Rec128> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Rec128::new(if narrow { k % 13 } else { k }, i as u64))
            .collect();
        let mut a = recs.clone();
        radix_sort_u32(&mut a);
        let mut b = recs;
        b.sort_by_key(|r| r.key());
        prop_assert_eq!(
            a.iter().map(|r| (r.key(), r.tag())).collect::<Vec<_>>(),
            b.iter().map(|r| (r.key(), r.tag())).collect::<Vec<_>>()
        );
    }

    /// Packet clones share one buffer (a clone never splits or copies
    /// the records), and copy-on-write mutation equals the deep-copy
    /// semantics it replaced, leaving every other clone untouched.
    #[test]
    fn packet_clone_shares_and_cow_matches(data in rec8s(200)) {
        let p = Packet::new(data.clone());
        let q = p.clone();
        prop_assert!(p.shares_buffer(&q));
        prop_assert_eq!(p.len(), q.len());
        prop_assert_eq!(p.records(), q.records());
        // Mutate a clone: same result as mutating an independent copy.
        let mut cow = q.clone();
        cow.records_mut().sort_by_key(|r| r.key);
        let mut deep = data.clone();
        deep.sort_by_key(|r| r.key);
        prop_assert_eq!(cow.records(), &deep[..]);
        // The original pair still shares its (unchanged) buffer.
        prop_assert_eq!(p.records(), &data[..]);
        prop_assert!(p.shares_buffer(&q));
        prop_assert!(!cow.shares_buffer(&p), "write must detach the writer only");
    }

    /// Record serialization round-trips.
    #[test]
    fn rec8_bytes_roundtrip(key in any::<u32>(), tag in any::<u32>()) {
        let r = Rec8 { key, tag };
        let mut buf = [0u8; 8];
        r.to_bytes(&mut buf);
        prop_assert_eq!(Rec8::from_bytes(&buf), r);
    }

    /// The router conserves work (cf. the liveness property "no idle
    /// capacity left while client load remains"): under every policy,
    /// whenever some replica is up with a positive weight the packet goes
    /// to such a replica, and it is refused only when there is none. `n`
    /// reaches 130; a short weight slice leaves its tail
    /// at weight 1, an empty one is the unweighted call.
    #[test]
    fn router_routes_iff_an_eligible_replica_exists(
        n in 0usize..131,
        mask_kind in 0usize..4,
        up_bits in prop::collection::vec(any::<bool>(), 130..131),
        weighted in any::<bool>(),
        weight_ix in prop::collection::vec(0usize..4, 0..131),
        backlog in prop::collection::vec(0u64..1000, 0..131),
        port in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let up = |i: usize| match mask_kind {
            0 => true,
            1 => up_bits[i],
            2 => i == port % n,
            _ => false,
        };
        let weights: Vec<f64> = if weighted {
            weight_ix.iter().map(|&w| [0.0, -1.0, 0.5, 3.0][w]).collect()
        } else {
            Vec::new()
        };
        let eligible = |i: usize| up(i) && weights.get(i).is_none_or(|&w| w > 0.0);
        let any_eligible = (0..n).any(eligible);
        for policy in POLICIES {
            let mut router = Router::new(policy, seed, 3);
            // Several picks: the round-robin cursor and the RNG both move.
            for k in 0..8 {
                match router.pick_routed(n, port.wrapping_add(k), &backlog, &[], &weights, up) {
                    Some(i) => prop_assert!(i < n && eligible(i), "{policy:?} picked ineligible {i}"),
                    None => prop_assert!(!any_eligible, "{policy:?} refused with a replica free"),
                }
            }
        }
    }

    /// A signal a policy does not read never moves its pick. A policy
    /// that does not `reads_weights` makes, under any weights in the
    /// balancer's range `[MIN_WEIGHT, 1)`, the 8 picks it makes under
    /// `&[]`; one that does not `reads_backlog` makes, under any
    /// backlogs, the picks it makes under `&[]`. Same seed, same mask.
    #[test]
    fn unread_signals_never_move_a_pick(
        n in 1usize..9,
        masked in any::<bool>(),
        up_bits in prop::collection::vec(any::<bool>(), 8..9),
        weights in prop::collection::vec(MIN_WEIGHT..1.0, 0..9),
        backlog in prop::collection::vec(0u64..1000, 0..9),
        port in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let up = |i: usize| !masked || up_bits[i];
        for policy in POLICIES {
            let picks = |backlog: &[u64], weights: &[f64]| {
                let mut router = Router::new(policy, seed, 3);
                (0..8)
                    .map(|k| router.pick_routed(n, port.wrapping_add(k), backlog, &[], weights, up))
                    .collect::<Vec<_>>()
            };
            if !policy.reads_weights() {
                prop_assert_eq!(picks(&backlog, &weights), picks(&backlog, &[]), "{:?}", policy);
            }
            if !policy.reads_backlog() {
                prop_assert_eq!(picks(&backlog, &weights), picks(&[], &weights), "{:?}", policy);
            }
        }
    }
}

/// Every routing policy, in declaration order.
const POLICIES: [RoutingPolicy; 5] = [
    RoutingPolicy::Static,
    RoutingPolicy::RoundRobin,
    RoutingPolicy::SimpleRandomization,
    RoutingPolicy::LoadAware,
    RoutingPolicy::PowerOfTwoChoices,
];

/// The other half of `unread_signals_never_move_a_pick`: every policy
/// that claims to read a signal has a fixed case where that signal
/// moves its picks, so neither predicate can claim a signal it ignores.
#[test]
fn read_signals_move_a_pick() {
    let picks = |policy, backlog: &[u64], weights: &[f64]| {
        let mut router = Router::new(policy, 7, 3);
        (0..8)
            .map(|k| router.pick_routed(3, k, backlog, &[], weights, |_| true))
            .collect::<Vec<_>>()
    };
    // Equal backlogs; the weights all but exclude instances 0 and 2.
    let (even, weights) = ([10, 10, 10], [MIN_WEIGHT, 1.0, MIN_WEIGHT]);
    // Instance 0, the unloaded default winner, carries the most backlog.
    let skewed = [50, 0, 25];
    for policy in POLICIES {
        if policy.reads_weights() {
            assert_ne!(
                picks(policy, &even, &weights),
                picks(policy, &even, &[]),
                "{policy:?}"
            );
        }
        if policy.reads_backlog() {
            assert_ne!(
                picks(policy, &skewed, &[]),
                picks(policy, &[], &[]),
                "{policy:?}"
            );
        }
    }
}

proptest! {
    // Emulated runs are costly; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full DSM-Sort emulation sorts any input under any valid
    /// geometry and both load modes.
    #[test]
    fn dsm_sort_always_sorts(
        n in 500u64..4000,
        alpha_pow in 0u32..4,
        hosts in 1usize..3,
        asus_pow in 0u32..3,
        managed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let alpha = 1usize << alpha_pow;
        let asus = 2usize << asus_pow;
        let cluster = ClusterConfig::era_2002(hosts, asus, 8.0);
        let dsm = DsmConfig::new(alpha, 128, 4, 512);
        let data = lmas::core::generate_rec128(n, lmas::core::KeyDist::Uniform, seed);
        let mode = if managed { LoadMode::managed_sr() } else { LoadMode::Static };
        let out = run_dsm_sort(&cluster, data, &dsm, mode).expect("sort runs");
        let sorted = reconstruct_sorted(&out.output).expect("sorted");
        prop_assert_eq!(sorted.len() as u64, n);
        prop_assert!(is_sorted_by_key(&sorted));
        check_tag_permutation(sorted.iter().map(|r| r.tag()), n).expect("permutation");
    }

    /// The external PQ against a flat model, for any operation sequence
    /// over (key, value) items: the same key comes out of every pop,
    /// every key carries the same multiset of values, and `len()` /
    /// `spilled_items()` / `in_memory_items()` agree after every op. The
    /// model is the queue's contract with nothing clever in it: a bag in
    /// memory, emptied into a second bag once it holds more than `cap`
    /// items; the minimum comes from the first bag on a tie. (`lmas-gis`
    /// runs the same differential against the sort-based queue this one
    /// replaced, which is test-only there.)
    #[test]
    fn external_pq_matches_heap(
        ops in prop::collection::vec((any::<bool>(), 0u64..1000, any::<u32>()), 1..300),
        cap in 1usize..32,
    ) {
        fn min_at(bag: &[(u64, u32)]) -> Option<(u64, usize)> {
            bag.iter().enumerate().map(|(i, &(k, _))| (k, i)).min()
        }
        let mut pq = lmas::gis::ExternalPq::new(cap);
        let (mut memory, mut spilled) = (Vec::new(), Vec::new());
        let mut spilled_items = 0u64;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (push, key, value) in ops {
            if push || memory.len() + spilled.len() == 0 {
                pq.push(key, value);
                memory.push((key, value));
                if memory.len() > cap {
                    spilled_items += memory.len() as u64;
                    spilled.append(&mut memory);
                }
            } else {
                let popped = match (min_at(&memory), min_at(&spilled)) {
                    (Some((m, i)), Some((s, _))) if m <= s => memory.swap_remove(i),
                    (Some((_, i)), None) => memory.swap_remove(i),
                    (_, Some((_, i))) => spilled.swap_remove(i),
                    (None, None) => unreachable!("the model is non-empty here"),
                };
                prop_assert_eq!(pq.peek_min_key(), Some(popped.0));
                want.push(popped);
                got.extend(pq.pop_min());
                prop_assert_eq!(got.last().map(|p| p.0), Some(popped.0));
            }
            prop_assert_eq!(
                (pq.len(), pq.spilled_items(), pq.in_memory_items()),
                (memory.len() + spilled.len(), spilled_items, memory.len())
            );
        }
        // Equal keys pop in the queue's own order: compare per key.
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// R-tree queries equal linear scans for arbitrary points/queries.
    #[test]
    fn rtree_equals_linear_scan(
        coords in prop::collection::vec((0.0f32..1.0, 0.0f32..1.0), 0..300),
        q in (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
        fanout in 2usize..20,
    ) {
        use lmas::gis::{linear_scan, PointRec, RTree, Rect};
        let points: Vec<PointRec> = coords
            .into_iter()
            .enumerate()
            .map(|(i, (x, y))| PointRec { id: i as u64, x, y })
            .collect();
        let tree = RTree::bulk_load(points.clone(), fanout);
        let rect = Rect::new(q.0, q.1, q.2, q.3);
        let mut got = tree.query(&rect).ids;
        let mut want = linear_scan(&points, &rect);
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
