//! Verified in-memory kernels: block sort and k-way merge.
//!
//! The paper permits "more complex read/modify/write operations … in
//! common, verified computation kernels, e.g., for useful primitives such
//! as sorting" (Section 3.1). These are those kernels. Each reports the
//! comparison count it actually performed so the work identity
//! `Total Work = n·log(αβγ)` (Section 4.3) can be audited, not assumed.

use crate::container::Packet;
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
/// moving 8-byte pairs instead of whole records — then puts the records
/// where the pairs say. Records wider than a pair are permuted in place,
/// one cycle at a time, so each is written once. Walking a cycle is a
/// chain of dependent loads, which costs more than a second copy of a
/// record no wider than the pair (8-byte records, 256-record blocks:
/// 11.0 vs 7.6 ns per record on a 2.1 GHz Xeon), so those are gathered
/// into a scratch block and copied back. Passes whose byte is constant
/// across the block (common under skewed or small-range keys) are
/// skipped. Output order equals a stable `sort_by_key`.
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
    // Position j takes the record at pairs[j].1.
    if std::mem::size_of::<R>() <= std::mem::size_of::<(u32, u32)>() {
        let gathered: Vec<R> = pairs
            .iter()
            .map(|&(_, i)| records[i as usize].clone())
            .collect();
        records.clone_from_slice(&gathered);
        return;
    }
    // In place: walking each cycle writes every record once (plus one
    // carried clone per cycle); a visited position is marked by making
    // it a fixed point.
    for start in 0..n {
        if pairs[start].1 as usize == start {
            continue;
        }
        let carried = records[start].clone();
        let mut cur = start;
        loop {
            let src = pairs[cur].1 as usize;
            pairs[cur].1 = cur as u32;
            if src == start {
                break;
            }
            records[cur] = records[src].clone();
            cur = src;
        }
        records[cur] = carried;
    }
}

/// A run's front as the loser tree stores and compares it: ordered by
/// `(key, run)`, with every exhausted run's word above every live one.
/// Internal nodes hold these words, not run indices, so a match reads
/// nothing but the two words it compares.
trait HeadWord<R: Record>: Copy + Ord {
    /// The word of run `run` whose front record is `r`.
    fn live(r: &R, run: u32) -> Self;
    /// The word of run `run` once it is exhausted; `last` is any record
    /// (the one just taken from the run).
    fn exhausted(last: &R, run: u32) -> Self;
    fn is_live(self) -> bool;
    /// The run a live word belongs to.
    fn run(self) -> usize;
}

/// [`Record::RADIX32`] records: `(radix_key << 32) | run`, one integer
/// compare per match. `u64::MAX` is the exhausted word: a live run index
/// is below `u32::MAX`, so no live word reaches it.
impl<R: Record> HeadWord<R> for u64 {
    #[inline]
    fn live(r: &R, run: u32) -> u64 {
        (u64::from(r.radix_key()) << 32) | u64::from(run)
    }
    #[inline]
    fn exhausted(_: &R, _: u32) -> u64 {
        u64::MAX
    }
    #[inline]
    fn is_live(self) -> bool {
        self != u64::MAX
    }
    #[inline]
    fn run(self) -> usize {
        self as u32 as usize
    }
}

/// Every other record: `(exhausted, key, run)`, compared field by field.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct KeyHead<K>(bool, K, u32);

impl<R: Record> HeadWord<R> for KeyHead<R::Key> {
    #[inline]
    fn live(r: &R, run: u32) -> Self {
        KeyHead(false, r.key(), run)
    }
    #[inline]
    fn exhausted(last: &R, run: u32) -> Self {
        KeyHead(true, last.key(), run)
    }
    #[inline]
    fn is_live(self) -> bool {
        !self.0
    }
    #[inline]
    fn run(self) -> usize {
        self.2 as usize
    }
}

/// Merge `runs` (each sorted by key, read in place) with a loser tree,
/// handing the output to `emit` in vectors of `chunk` records (the last
/// may be short); returns the comparisons actually performed
/// (~`m·ceil(log2 k)` for `m` records over `k` non-empty runs — a match
/// against an exhausted run is free).
///
/// The tree is flat arrays over *head words*: each internal node keeps
/// its loser's word, which orders by `(key, run)` and ranks an exhausted
/// run last. [`Record::RADIX32`] records pack the word into one `u64`
/// (`(radix_key << 32) | run`, `u64::MAX` once exhausted); others use
/// `(exhausted, key, run)`. So a match never touches a record, and the
/// leaf-to-root replay is a branch-free `min`/`max` per level. After each
/// pop the record two ahead in the winner's run is loaded, so its cache
/// miss overlaps the replay instead of stalling the next one. Each winner
/// is cloned exactly once, into the chunk being filled. Empty runs are
/// dropped first, and equal keys break toward the lower index among the
/// rest, so ties come out in run order.
pub fn merge_slices<R: Record>(runs: &[&[R]], chunk: usize, emit: impl FnMut(Vec<R>)) -> u64 {
    if R::RADIX32 {
        merge_words::<R, u64>(runs, chunk, emit)
    } else {
        merge_words::<R, KeyHead<R::Key>>(runs, chunk, emit)
    }
}

/// [`merge_slices`] over head words of type `W`.
fn merge_words<R: Record, W: HeadWord<R>>(
    runs: &[&[R]],
    chunk: usize,
    mut emit: impl FnMut(Vec<R>),
) -> u64 {
    assert!(chunk > 0, "chunk size must be positive");
    // The unread tail of each non-empty run.
    let mut tails: Vec<&[R]> = runs.iter().copied().filter(|r| !r.is_empty()).collect();
    let Some(any) = tails.first().map(|r| &r[0]) else {
        return 0;
    };
    let k = tails.len();
    assert!(k < u32::MAX as usize, "{k} runs exceed the head word's run index");
    let mut remaining: usize = tails.iter().map(|r| r.len()).sum();
    let mut compares = 0u64;

    // m leaves (next power of two ≥ k); leaves k..m are permanently
    // exhausted. Leaf r is tree node m + r; internal nodes are 1..m.
    // Build: play each match bottom-up, parking losers, bubbling winners.
    let m = k.next_power_of_two();
    let mut winners = vec![W::exhausted(any, 0); 2 * m];
    for (r, w) in winners[m..].iter_mut().enumerate() {
        *w = match tails.get(r) {
            Some(run) => W::live(&run[0], r as u32),
            None => W::exhausted(any, r as u32),
        };
    }
    let mut losers = vec![W::exhausted(any, 0); m];
    for node in (1..m).rev() {
        let (a, b) = (winners[2 * node], winners[2 * node + 1]);
        winners[node] = a.min(b);
        losers[node] = a.max(b);
        compares += u64::from(losers[node].is_live());
    }
    let mut winner = winners[1];

    let mut out: Vec<R> = Vec::with_capacity(chunk.min(remaining));
    while winner.is_live() {
        let r = winner.run();
        let run = tails[r];
        out.push(run[0].clone());
        tails[r] = &run[1..];
        // The record after the new head: load it now, off the critical
        // path, so it is in cache when it becomes the head.
        if let Some(ahead) = run.get(2) {
            std::hint::black_box(ahead.key());
        }
        let mut w = match run.get(1) {
            Some(next) => W::live(next, r as u32),
            None => W::exhausted(&run[0], r as u32),
        };
        if out.len() == chunk {
            remaining -= chunk;
            emit(std::mem::replace(&mut out, Vec::with_capacity(chunk.min(remaining))));
        }
        // Replay from the winner's leaf to the root: the smaller word
        // moves up, the larger stays parked. Exhausted words rank last,
        // so the larger is live exactly when both are: a real compare.
        let mut node = (m + r) / 2;
        while node >= 1 {
            let l = losers[node];
            let parked = l.max(w);
            compares += u64::from(parked.is_live());
            losers[node] = parked;
            w = l.min(w);
            node /= 2;
        }
        winner = w;
    }
    if !out.is_empty() {
        emit(out);
    }
    compares
}

/// Merge `runs` (each sorted by key) into one sorted vector; returns
/// `(merged, compares)`. The owned-input form of [`merge_slices`], with
/// its order and comparison count: a lone non-empty run is returned as
/// is, otherwise each record is cloned once out of its run.
pub fn merge_runs<R: Record>(runs: Vec<Vec<R>>) -> (Vec<R>, u64) {
    let mut runs: Vec<Vec<R>> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    if runs.len() <= 1 {
        return (runs.pop().unwrap_or_default(), 0);
    }
    let total: usize = runs.iter().map(Vec::len).sum();
    let slices: Vec<&[R]> = runs.iter().map(Vec::as_slice).collect();
    let mut merged = Vec::new();
    let compares = merge_slices(&slices, total, |out| merged = out);
    (merged, compares)
}

/// [`merge_slices`] over buffered run packets, read in place: the merged
/// records leave as packets of at most `chunk` records. A lone non-empty
/// run that fits one chunk leaves as the very packet it came in (no
/// compares, no copy).
pub fn merge_packets<R: Record>(
    runs: &[Packet<R>],
    chunk: usize,
    mut emit: impl FnMut(Packet<R>),
) -> u64 {
    let live: Vec<&Packet<R>> = runs.iter().filter(|p| !p.is_empty()).collect();
    if let [only] = live[..] {
        if only.len() <= chunk {
            emit(only.clone());
            return 0;
        }
    }
    let slices: Vec<&[R]> = live.iter().map(|p| p.records()).collect();
    merge_slices(&slices, chunk, |out| emit(Packet::new(out)))
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
    use crate::record::{generate_rec8, KeyDist, Rec128, Rec8};

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
    fn in_place_radix_follows_long_and_short_cycles() {
        // Key (i + 1) mod n puts every record one slot left of where it
        // sorts: the permutation is a single n-cycle. Swapped key pairs
        // make n/2 two-cycles; dividing them by 4 adds duplicate keys.
        // Rec128 takes the in-place path, Rec8 the gather.
        const N: u32 = 1000;
        let keys: [fn(u32) -> u32; 3] = [|i| (i + 1) % N, |i| i ^ 1, |i| (i ^ 1) / 4];
        for key in keys {
            let wide: Vec<Rec128> = (0..N).map(|i| Rec128::new(key(i), i as u64)).collect();
            let mut got = wide.clone();
            radix_sort_u32(&mut got);
            let mut want = wide;
            want.sort_by_key(|r| r.key());
            assert_eq!(got, want);

            let narrow: Vec<Rec8> = (0..N).map(|i| Rec8 { key: key(i), tag: i }).collect();
            let mut got = narrow.clone();
            radix_sort_u32(&mut got);
            let mut want = narrow;
            want.sort_by_key(|r| r.key);
            assert_eq!(got, want);
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
        let (merged, compares) = merge_runs(runs.clone());
        assert!(is_sorted_by_key(&merged));
        let m = merged.len() as u64;
        assert_eq!(compares, merge_by_move(runs).1, "every real compare, no sentinel");
        assert!(
            compares <= m * 3,
            "compares={compares} should be ~m·log2(8)={}",
            m * 3
        );
        assert!(compares >= m * 2, "compares={compares} suspiciously low");

        // k not a power of two and runs of unequal length: runs empty
        // early, so a count that charged matches against an exhausted
        // run (a sentinel) would exceed the reference's.
        let data = generate_rec8(3_000, KeyDist::Uniform, 43);
        let lens = [17, 900, 3, 411, 1, 640, 260, 38, 730];
        let mut runs: Vec<Vec<Rec8>> = Vec::new();
        let mut rest = &data[..];
        for len in lens {
            let (run, tail) = rest.split_at(len);
            let mut run = run.to_vec();
            run.sort_by_key(|x| x.key);
            runs.push(run);
            rest = tail;
        }
        let k = runs.len() as u64;
        let (merged, compares) = merge_runs(runs.clone());
        assert!(is_sorted_by_key(&merged));
        let m = merged.len() as u64;
        assert_eq!(compares, merge_by_move(runs).1, "every real compare, no sentinel");
        let levels = u64::from(k.next_power_of_two().trailing_zeros());
        assert!(
            compares <= m * levels,
            "compares={compares} exceed m·⌈log2 k⌉={}",
            m * levels
        );
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

    /// The move-based loser tree the merges ran before they read their
    /// runs in place: each head record moved out of its run into an
    /// `Option`, then into the output. Kept as the reference the borrowed
    /// merge must match record for record and compare for compare.
    fn merge_by_move<R: Record>(runs: Vec<Vec<R>>) -> (Vec<R>, u64) {
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
        let mut runs: Vec<Vec<R>> = runs.into_iter().filter(|r| !r.is_empty()).collect();
        let k = runs.len();
        if k <= 1 {
            return (runs.pop().unwrap_or_default(), 0);
        }
        let mut out = Vec::new();
        let mut compares = 0u64;
        let m = k.next_power_of_two();
        let mut tails: Vec<std::vec::IntoIter<R>> = runs.into_iter().map(Vec::into_iter).collect();
        let mut heads: Vec<Option<R>> = tails.iter_mut().map(Iterator::next).collect();
        heads.resize_with(m, || None);
        let mut losers = vec![0usize; m];
        let mut winner_at = vec![0usize; 2 * m];
        for (r, w) in winner_at[m..].iter_mut().enumerate() {
            *w = r;
        }
        for node in (1..m).rev() {
            let (a, b) = (winner_at[2 * node], winner_at[2 * node + 1]);
            let (w, l) = if beats(&heads, a, b, &mut compares) { (a, b) } else { (b, a) };
            winner_at[node] = w;
            losers[node] = l;
        }
        let mut winner = winner_at[1];
        while let Some(rec) = heads[winner].take() {
            out.push(rec);
            heads[winner] = tails[winner].next();
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
        (out, compares)
    }

    fn key_tags<R: Record>(records: &[R]) -> Vec<(R::Key, u64)> {
        records.iter().map(|r| (r.key(), r.tag64())).collect()
    }

    /// A record without [`Record::RADIX32`] and with a composite key, as
    /// a terrain cell's `(elevation, position)`: the merge compares it
    /// through `(exhausted, key, run)` head words.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct PairRec {
        key: (u32, u16),
        tag: u32,
    }

    impl Record for PairRec {
        const SIZE: usize = 10;
        type Key = (u32, u16);

        fn key(&self) -> (u32, u16) {
            self.key
        }
        fn tag64(&self) -> u64 {
            u64::from(self.tag)
        }
        fn to_bytes(&self, out: &mut [u8]) {
            out[..4].copy_from_slice(&self.key.0.to_le_bytes());
            out[4..6].copy_from_slice(&self.key.1.to_le_bytes());
            out[6..10].copy_from_slice(&self.tag.to_le_bytes());
        }
        fn from_bytes(b: &[u8]) -> Self {
            PairRec {
                key: (
                    u32::from_le_bytes(b[..4].try_into().expect("4 bytes")),
                    u16::from_le_bytes(b[4..6].try_into().expect("2 bytes")),
                ),
                tag: u32::from_le_bytes(b[6..10].try_into().expect("4 bytes")),
            }
        }
    }

    /// Sort each of `raw`'s key lists into a run of records made by
    /// `make(key, tag)`, tags counting up across all runs.
    fn tagged_runs<R: Record>(raw: &[Vec<u32>], make: impl Fn(u32, u32) -> R) -> Vec<Vec<R>> {
        let mut tag = 0u32;
        raw.iter()
            .map(|keys| {
                let mut run: Vec<R> = keys
                    .iter()
                    .map(|&k| {
                        tag += 1;
                        make(k, tag)
                    })
                    .collect();
                run.sort_by_key(Record::key);
                run
            })
            .collect()
    }

    /// The three entry points against [`merge_by_move`] on `runs`: the
    /// same `(key, tag)` sequence, chunking and comparison count.
    fn check_against_move<R: Record>(runs: Vec<Vec<R>>) {
        let total: usize = runs.iter().map(Vec::len).sum();
        let (want, want_compares) = merge_by_move(runs.clone());
        let want = key_tags(&want);

        let slices: Vec<&[R]> = runs.iter().map(Vec::as_slice).collect();
        for chunk in [1, 7, total.max(1), total + 1] {
            let mut chunks: Vec<Vec<R>> = Vec::new();
            let compares = merge_slices(&slices, chunk, |c| chunks.push(c));
            proptest::prop_assert_eq!(compares, want_compares, "chunk {}", chunk);
            let (last, full) = chunks.split_last().map_or((0, &[][..]), |(l, f)| (l.len(), f));
            proptest::prop_assert!(full.iter().all(|c| c.len() == chunk), "chunk {}", chunk);
            proptest::prop_assert!(chunks.is_empty() || (1..=chunk).contains(&last));
            proptest::prop_assert_eq!(key_tags(&chunks.concat()), want.clone(), "chunk {}", chunk);
        }

        let (merged, compares) = merge_runs(runs.clone());
        proptest::prop_assert_eq!((key_tags(&merged), compares), (want.clone(), want_compares));

        let packets: Vec<Packet<R>> = runs.into_iter().map(Packet::new).collect();
        let mut out: Vec<Packet<R>> = Vec::new();
        let compares = merge_packets(&packets, total.max(1), |p| out.push(p));
        let flat: Vec<R> = out.iter().flat_map(|p| p.records().iter().cloned()).collect();
        proptest::prop_assert_eq!((key_tags(&flat), compares), (want, want_compares));
        proptest::prop_assert!(out.len() <= 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The borrowed merge against the move-based reference on 1–130
        /// runs (so trees up to 128 leaves, most k not a power of two),
        /// empty and one-record runs included, with all-equal, narrow,
        /// full-range and {0, `u32::MAX`} keys — the last puts live heads
        /// in the packed word's sentinel key half. Checked on a
        /// `RADIX32` record (packed `u64` head words) and on a
        /// composite-key record (`(exhausted, key, run)` words).
        #[test]
        fn borrowed_merge_equals_move_merge(
            raw in proptest::collection::vec(proptest::collection::vec(proptest::any::<u32>(), 0..40), 1..131),
            key_mode in 0usize..4,
        ) {
            let key = |k: u32| [0, k % 5, k, if k.is_multiple_of(2) { 0 } else { u32::MAX }][key_mode];
            check_against_move(tagged_runs(&raw, |k, tag| Rec8 { key: key(k), tag }));
            check_against_move(tagged_runs(&raw, |k, tag| PairRec {
                key: (key(k) / 3, (key(k) % 3) as u16),
                tag,
            }));
        }
    }

    #[test]
    fn lone_run_packet_passes_through_unchanged() {
        let run = Packet::new(recs(&[1, 2, 3]));
        let runs = [Packet::new(vec![]), run.clone(), Packet::new(vec![])];
        let mut out = Vec::new();
        assert_eq!(merge_packets(&runs, 3, |p| out.push(p)), 0);
        assert_eq!(out.len(), 1);
        assert!(out[0].shares_buffer(&run), "a lone fitting run is not copied");
        // Longer than a chunk: cut into chunks, still without compares.
        out.clear();
        assert_eq!(merge_packets(&runs, 2, |p| out.push(p)), 0);
        assert_eq!(out.iter().map(Packet::len).collect::<Vec<_>>(), [2, 1]);
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
