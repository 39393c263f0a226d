//! Verified in-memory kernels: block sort and k-way merge.
//!
//! The paper permits "more complex read/modify/write operations … in
//! common, verified computation kernels, e.g., for useful primitives such
//! as sorting" (Section 3.1). These are those kernels. Each reports the
//! comparison count it actually performed so the work identity
//! `Total Work = n·log(αβγ)` (Section 4.3) can be audited, not assumed.

use crate::record::Record;

/// Below this length the comparison sort's constant factors win; the
/// threshold only affects wall-clock, never output (both paths are
/// stable) or charging.
const RADIX_MIN_LEN: usize = 64;

/// Sort `records` by key in place; returns the number of comparisons a
/// binary-insertion-counted mergesort would charge, `n·ceil(log2 n)`,
/// which is the paper's accounting unit for a β-record block sort.
///
/// Records that expose a faithful `u32` key image
/// ([`Record::RADIX32`]) are sorted by a stable LSB radix sort;
/// everything else falls back to `sort_by_key`. Both paths are stable,
/// so the permutation produced is identical either way, and the charge
/// is the paper's unit regardless of the kernel actually used — the
/// work identity `T1 = n·log(αβγ)` is a property of the accounting, not
/// of the machine instructions.
pub fn block_sort<R: Record>(records: &mut [R]) -> u64 {
    let n = records.len() as u64;
    if R::RADIX32 && records.len() >= RADIX_MIN_LEN {
        radix_sort_u32(records);
    } else {
        records.sort_by_key(|r| r.key());
    }
    n * crate::cost::log2_ceil(n)
}

/// Stable LSB radix sort for records with a `u32` key image
/// ([`Record::RADIX32`] must be true).
///
/// Sorts `(key, index)` pairs through four 8-bit counting passes —
/// moving 8-byte pairs instead of whole records — then gathers the
/// records into place with a single permutation pass. Passes whose byte
/// is constant across the block (common under skewed or small-range
/// keys) are skipped. Output order equals a stable `sort_by_key`.
pub fn radix_sort_u32<R: Record>(records: &mut [R]) {
    debug_assert!(R::RADIX32, "record type did not opt into radix sorting");
    let n = records.len();
    if n < 2 {
        return;
    }
    debug_assert!(n <= u32::MAX as usize, "block exceeds u32 indexing");
    let mut pairs: Vec<(u32, u32)> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.radix_key(), i as u32))
        .collect();
    let mut scratch: Vec<(u32, u32)> = vec![(0, 0); n];
    for shift in [0u32, 8, 16, 24] {
        let mut counts = [0usize; 256];
        for &(k, _) in &pairs {
            counts[((k >> shift) & 0xFF) as usize] += 1;
        }
        if counts.contains(&n) {
            continue; // this byte is constant: the pass is the identity
        }
        let mut offsets = [0usize; 256];
        let mut acc = 0usize;
        for (o, &c) in offsets.iter_mut().zip(&counts) {
            *o = acc;
            acc += c;
        }
        for &(k, i) in &pairs {
            let b = ((k >> shift) & 0xFF) as usize;
            scratch[offsets[b]] = (k, i);
            offsets[b] += 1;
        }
        std::mem::swap(&mut pairs, &mut scratch);
    }
    // One gather pass puts each record in place (records move once, not
    // once per radix pass).
    let gathered: Vec<R> = pairs
        .iter()
        .map(|&(_, i)| records[i as usize].clone())
        .collect();
    for (dst, src) in records.iter_mut().zip(gathered) {
        *dst = src;
    }
}

/// Does run `a`'s head strictly beat run `b`'s in the tournament?
///
/// Exhausted runs (`None`) lose to everything; equal keys break toward
/// the lower run index, reproducing the `(key, run)` order of the merge
/// this replaced, so the merge stays stable across runs.
fn beats<R: Record>(heads: &[Option<R>], a: usize, b: usize, compares: &mut u64) -> bool {
    match (&heads[a], &heads[b]) {
        (Some(x), Some(y)) => {
            *compares += 1;
            (x.key(), a) < (y.key(), b)
        }
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => a < b,
    }
}

/// Merge `runs` (each sorted by key) into one sorted vector using a
/// loser tree; returns `(merged, compares)` where `compares` counts the
/// comparisons actually performed (~`m·ceil(log2 k)` for `m` records
/// over `k` live runs — sentinel matches are free).
///
/// The tree is two flat arrays: `losers[1..m]` holds the run index
/// parked at each internal node, `heads[r]` holds run `r`'s current
/// front record, **moved** out of the run (records are drained, never
/// cloned). Emitting the winner costs one root-to-leaf replay; no
/// per-step heap state is rebuilt or copied.
pub fn merge_runs<R: Record>(runs: Vec<Vec<R>>) -> (Vec<R>, u64) {
    let mut runs: Vec<Vec<R>> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    let k = runs.len();
    if k == 0 {
        return (Vec::new(), 0);
    }
    if k == 1 {
        return (runs.pop().expect("k==1"), 0);
    }
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out: Vec<R> = Vec::with_capacity(total);
    let mut compares = 0u64;

    // m leaves (next power of two ≥ k); leaves k..m are permanent
    // sentinels. Leaf r is tree node m + r; internal nodes are 1..m.
    let m = k.next_power_of_two();
    let mut tails: Vec<std::vec::IntoIter<R>> = runs.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<R>> = Vec::with_capacity(m);
    for t in &mut tails {
        heads.push(t.next());
    }
    heads.resize_with(m, || None);

    // Build: play each match bottom-up, parking losers, bubbling winners.
    let mut losers = vec![0usize; m];
    let mut winner_at = vec![0usize; 2 * m];
    for (r, w) in winner_at[m..].iter_mut().enumerate() {
        *w = r;
    }
    for node in (1..m).rev() {
        let a = winner_at[2 * node];
        let b = winner_at[2 * node + 1];
        let (w, l) = if beats(&heads, a, b, &mut compares) {
            (a, b)
        } else {
            (b, a)
        };
        winner_at[node] = w;
        losers[node] = l;
    }
    let mut winner = winner_at[1];

    while let Some(rec) = heads[winner].take() {
        out.push(rec);
        heads[winner] = tails[winner].next();
        // Replay from the winner's leaf to the root.
        let mut node = (m + winner) / 2;
        let mut w = winner;
        while node >= 1 {
            if beats(&heads, losers[node], w, &mut compares) {
                std::mem::swap(&mut losers[node], &mut w);
            }
            node /= 2;
        }
        winner = w;
    }
    debug_assert_eq!(out.len(), total);
    (out, compares)
}

/// Check that `records` is sorted by key (non-decreasing).
pub fn is_sorted_by_key<R: Record>(records: &[R]) -> bool {
    records.windows(2).all(|w| w[0].key() <= w[1].key())
}

/// Choose `k - 1` splitter keys that partition `sample` into `k` roughly
/// equal buckets (the classic sampled-quantile splitter selection used by
/// distribution sorts). `sample` need not be sorted. Returns an ascending
/// splitter vector of length `k - 1` (may contain duplicates when the
/// sample is highly skewed).
pub fn select_splitters<R: Record>(sample: Vec<R>, k: usize) -> Vec<R::Key> {
    splitters_of_keys(sample.iter().map(Record::key).collect(), k)
}

/// [`select_splitters`] over a sample's keys alone: splitter `i` is the
/// key at rank `i·n/k` of the sample in key order. Only those `k - 1`
/// order statistics are computed (a multi-select, O(n log k)); the
/// sample is never fully sorted and no record is moved.
pub fn splitters_of_keys<K: Ord + Copy>(mut keys: Vec<K>, k: usize) -> Vec<K> {
    assert!(k >= 1, "need at least one bucket");
    if k == 1 || keys.is_empty() {
        return Vec::new();
    }
    let n = keys.len();
    let rank = |i: usize| (i * n / k).min(n - 1);
    // Distinct ranks, ascending (a sample shorter than k repeats some).
    let mut ranks: Vec<usize> = (1..k).map(rank).collect();
    ranks.dedup();
    place_ranks(&mut keys, 0, &ranks);
    (1..k).map(|i| keys[rank(i)]).collect()
}

/// Permute `keys` (positions `base..base + keys.len()` of the sample)
/// so that every position in `ranks` — ascending, distinct, within that
/// range — holds the key a full sort would put there: select the middle
/// rank, which splits the slice around it, and recurse into each side
/// with the ranks that fall there.
fn place_ranks<K: Ord>(keys: &mut [K], base: usize, ranks: &[usize]) {
    if ranks.is_empty() {
        return;
    }
    let mid = ranks.len() / 2;
    let at = ranks[mid] - base;
    let (below, _, above) = keys.select_nth_unstable(at);
    place_ranks(below, base, &ranks[..mid]);
    place_ranks(above, base + at + 1, &ranks[mid + 1..]);
}

/// Bucket index of `key` given ascending `splitters` (`len = k-1`):
/// bucket `i` holds keys in `[splitters[i-1], splitters[i])`.
pub fn bucket_of<K: Ord + Copy>(key: K, splitters: &[K]) -> usize {
    splitters.partition_point(|&s| s <= key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{generate_rec8, KeyDist, Rec8};

    fn recs(keys: &[u32]) -> Vec<Rec8> {
        keys.iter().map(|&k| Rec8 { key: k, tag: k }).collect()
    }

    #[test]
    fn block_sort_sorts_and_charges() {
        let mut v = recs(&[5, 3, 9, 1]);
        let compares = block_sort(&mut v);
        assert!(is_sorted_by_key(&v));
        assert_eq!(compares, 4 * 2); // n·ceil(log2 4)
    }

    #[test]
    fn block_sort_charge_is_size_only() {
        // The charge is the paper's accounting unit, independent of
        // whether the radix or comparison kernel ran.
        let mut small = recs(&[2, 1]);
        assert_eq!(block_sort(&mut small), 2);
        let mut big = generate_rec8(1 << 10, KeyDist::Uniform, 9);
        assert_eq!(block_sort(&mut big), (1 << 10) * 10);
        assert!(is_sorted_by_key(&big));
    }

    #[test]
    fn radix_matches_stable_sort() {
        // Modulo 0 means full-range keys; small moduli force duplicates,
        // stressing stability (equal keys must keep input order).
        for (n, modulus) in [(3u64, 0u32), (1000, 0), (1000, 97), (4096, 5)] {
            let data = generate_rec8(n, KeyDist::Uniform, n);
            let mut a: Vec<Rec8> = data
                .iter()
                .map(|r| Rec8 {
                    key: if modulus == 0 { r.key } else { r.key % modulus },
                    tag: r.tag,
                })
                .collect();
            let mut b = a.clone();
            radix_sort_u32(&mut a);
            b.sort_by_key(|r| r.key);
            assert_eq!(
                a.iter().map(|r| (r.key, r.tag)).collect::<Vec<_>>(),
                b.iter().map(|r| (r.key, r.tag)).collect::<Vec<_>>(),
                "radix must equal a stable comparison sort (n={n}, mod={modulus})"
            );
        }
    }

    #[test]
    fn radix_skips_constant_bytes() {
        // All keys share the upper three bytes: three passes are skipped,
        // but the result must still be fully sorted.
        let mut v: Vec<Rec8> = (0..300u32)
            .rev()
            .map(|i| Rec8 { key: 0xABCD_0000 | (i % 256), tag: i })
            .collect();
        let mut expect = v.clone();
        radix_sort_u32(&mut v);
        expect.sort_by_key(|r| r.key);
        assert_eq!(v, expect);
    }

    #[test]
    fn radix_trivial_sizes() {
        let mut empty: Vec<Rec8> = vec![];
        radix_sort_u32(&mut empty);
        let mut one = recs(&[5]);
        radix_sort_u32(&mut one);
        assert_eq!(one[0].key, 5);
    }

    #[test]
    fn merge_runs_produces_global_order() {
        let runs = vec![
            recs(&[1, 4, 7]),
            recs(&[2, 5, 8]),
            recs(&[0, 3, 6, 9]),
        ];
        let (merged, compares) = merge_runs(runs);
        assert_eq!(
            merged.iter().map(|r| r.key).collect::<Vec<_>>(),
            (0..10).collect::<Vec<u32>>()
        );
        assert!(compares > 0);
    }

    #[test]
    fn merge_handles_empty_and_single() {
        let (m, c) = merge_runs::<Rec8>(vec![]);
        assert!(m.is_empty());
        assert_eq!(c, 0);
        let (m, c) = merge_runs(vec![recs(&[1, 2])]);
        assert_eq!(m.len(), 2);
        assert_eq!(c, 0, "single run needs no compares");
        let (m, _) = merge_runs(vec![recs(&[]), recs(&[1])]);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn merge_preserves_duplicates() {
        let (m, _) = merge_runs(vec![recs(&[2, 2]), recs(&[2, 2, 2])]);
        assert_eq!(m.len(), 5);
        assert!(m.iter().all(|r| r.key == 2));
    }

    #[test]
    fn merge_is_stable_across_equal_keys() {
        // Equal keys must come out in run order (run 0 before run 1
        // before run 2), and in input order within a run.
        let tagged = |keys: &[(u32, u32)]| -> Vec<Rec8> {
            keys.iter().map(|&(k, t)| Rec8 { key: k, tag: t }).collect()
        };
        let runs = vec![
            tagged(&[(1, 10), (5, 11), (5, 12)]),
            tagged(&[(1, 20), (5, 21), (9, 22)]),
            tagged(&[(1, 30), (1, 31), (5, 32)]),
        ];
        let (m, _) = merge_runs(runs);
        let got: Vec<(u32, u32)> = m.iter().map(|r| (r.key, r.tag)).collect();
        assert_eq!(
            got,
            [
                (1, 10), (1, 20), (1, 30), (1, 31),
                (5, 11), (5, 12), (5, 21), (5, 32),
                (9, 22),
            ]
        );
    }

    #[test]
    fn merge_compare_count_is_m_log_k_scale() {
        // 8 runs of 512 records: a loser tree does exactly log2(k) real
        // comparisons per emitted record once sentinels are free.
        let data = generate_rec8(4096, KeyDist::Uniform, 41);
        let mut runs: Vec<Vec<Rec8>> = data.chunks(512).map(|c| c.to_vec()).collect();
        for r in &mut runs {
            r.sort_by_key(|x| x.key);
        }
        let (merged, compares) = merge_runs(runs);
        assert!(is_sorted_by_key(&merged));
        let m = merged.len() as u64;
        assert!(
            compares <= m * 3 + 64,
            "compares={compares} should be ~m·log2(8)={}",
            m * 3
        );
        assert!(compares >= m * 2, "compares={compares} suspiciously low");
    }

    #[test]
    fn merge_many_runs_randomized() {
        let data = generate_rec8(5_000, KeyDist::Uniform, 77);
        let mut runs: Vec<Vec<Rec8>> = data.chunks(250).map(|c| c.to_vec()).collect();
        for r in &mut runs {
            r.sort_by_key(|x| x.key);
        }
        let (merged, _) = merge_runs(runs);
        assert_eq!(merged.len(), 5_000);
        assert!(is_sorted_by_key(&merged));
        // Permutation check via tags.
        let mut tags: Vec<u32> = merged.iter().map(|r| r.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..5_000).collect::<Vec<u32>>());
    }

    #[test]
    fn splitters_balance_uniform_data() {
        let data = generate_rec8(10_000, KeyDist::Uniform, 3);
        let splitters = select_splitters(data.clone(), 8);
        assert_eq!(splitters.len(), 7);
        assert!(splitters.windows(2).all(|w| w[0] <= w[1]));
        let mut counts = [0usize; 8];
        for r in &data {
            counts[bucket_of(r.key, &splitters)] += 1;
        }
        for c in counts {
            assert!((900..1600).contains(&c), "bucket sizes {counts:?}");
        }
    }

    #[test]
    fn bucket_of_edges() {
        let sp = vec![10u32, 20, 30];
        assert_eq!(bucket_of(5, &sp), 0);
        assert_eq!(bucket_of(10, &sp), 1, "splitter key goes right");
        assert_eq!(bucket_of(19, &sp), 1);
        assert_eq!(bucket_of(30, &sp), 3);
        assert_eq!(bucket_of(99, &sp), 3);
        assert_eq!(bucket_of(5u32, &[]), 0, "k=1 has a single bucket");
    }

    /// The definition: stable-sort the sample by key, read rank i·n/k.
    fn splitters_by_sorting(mut sample: Vec<Rec8>, k: usize) -> Vec<u32> {
        if k == 1 || sample.is_empty() {
            return Vec::new();
        }
        sample.sort_by_key(|r| r.key);
        let n = sample.len();
        (1..k).map(|i| sample[(i * n / k).min(n - 1)].key).collect()
    }

    #[test]
    fn rank_selected_splitters_equal_the_sorted_definition() {
        let uniform = generate_rec8(5_000, KeyDist::Uniform, 11);
        let skewed: Vec<Rec8> = uniform
            .iter()
            .map(|r| Rec8 { key: if r.key % 10 < 7 { 42 } else { r.key % 97 }, tag: r.tag })
            .collect();
        let all_equal = recs(&[9; 300]);
        let short = recs(&[5, 1, 4]);
        let descending: Vec<Rec8> = recs(&(0..1_000).rev().collect::<Vec<u32>>());
        for sample in [uniform, skewed, all_equal, short, descending, recs(&[3]), recs(&[])] {
            for k in [1usize, 2, 3, 16, 64] {
                let want = splitters_by_sorting(sample.clone(), k);
                assert_eq!(
                    select_splitters(sample.clone(), k),
                    want,
                    "n={} k={k}",
                    sample.len()
                );
                let keys: Vec<u32> = sample.iter().map(|r| r.key).collect();
                assert_eq!(splitters_of_keys(keys, k), want, "n={} k={k}", sample.len());
            }
        }
    }

    #[test]
    fn splitters_degenerate_cases() {
        assert!(select_splitters::<Rec8>(vec![], 4).is_empty());
        assert!(select_splitters(recs(&[1, 2, 3]), 1).is_empty());
        // Constant data: all splitters equal; everything lands rightmost.
        let sp = select_splitters(recs(&[7, 7, 7, 7]), 4);
        assert!(sp.iter().all(|&s| s == 7));
        assert_eq!(bucket_of(7, &sp), 3);
    }
}
