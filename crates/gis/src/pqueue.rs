//! External-memory priority queue.
//!
//! TerraFlow's step 3 uses *time-forward processing* [Chiang et al.,
//! SODA'95]: cells processed in elevation order send messages "forward"
//! to cells processed later, buffered in an external priority queue.
//! Inserts accumulate in a bounded in-memory binary heap; on overflow the
//! heap is drained into one ascending run and spilled; `pop_min` draws
//! from the heap and all run heads. Pending work is buffered and applied
//! in sorted batches, never re-sorted per access (the Roomy rule), so a
//! push or pop costs O(log buffer) plus one scan of at most eight run
//! heads.
//!
//! Only the key orders the queue. Which of several equal-key items pops
//! first is unspecified: a cell drains *every* message addressed to it
//! and picks among them by sender, so that order is free.
//!
//! Spills are counted ([`ExternalPq::spilled_items`]) but charged
//! nowhere: the runs live in host memory, nothing reads the counter, and
//! `WatershedFunctor::cost` charges compares by queue length only.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A min-priority queue with bounded memory and sorted-run spills.
#[derive(Debug)]
pub struct ExternalPq<K: Ord + Copy, V> {
    buffer: BinaryHeap<Entry<K, V>>,
    buffer_limit: usize,
    runs: Vec<Run<K, V>>,
    len: usize,
    spilled_items: u64,
}

/// A queued item, ordered on the key alone and reversed, so that std's
/// max-heap keeps the minimum key on top.
#[derive(Debug)]
struct Entry<K, V> {
    key: K,
    value: V,
}

impl<K: Ord, V> PartialEq for Entry<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<K: Ord, V> Eq for Entry<K, V> {}
impl<K: Ord, V> PartialOrd for Entry<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, V> Ord for Entry<K, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// A spilled run: ascending by key, consumed from the front by move.
type Run<K, V> = std::vec::IntoIter<Entry<K, V>>;

/// Where the minimum key sits.
#[derive(Clone, Copy)]
enum Source {
    Buffer,
    Run(usize),
}

impl<K: Ord + Copy, V> ExternalPq<K, V> {
    /// A queue spilling once more than `buffer_limit` items are buffered.
    pub fn new(buffer_limit: usize) -> Self {
        assert!(buffer_limit > 0, "buffer must hold at least one item");
        ExternalPq {
            buffer: BinaryHeap::new(),
            buffer_limit,
            runs: Vec::new(),
            len: 0,
            spilled_items: 0,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Items spilled to runs over the queue's lifetime. A statistic:
    /// nothing charges virtual time for it.
    pub fn spilled_items(&self) -> u64 {
        self.spilled_items
    }

    /// Live in-memory footprint in items (buffer only; runs are
    /// conceptually external).
    pub fn in_memory_items(&self) -> usize {
        self.buffer.len()
    }

    /// Insert an item.
    // `push` and `pop_all_eq` are the watershed labeler's per-cell calls.
    // Without the hint, whether they inline into `WatershedLabeler::label`
    // depends on how rustc splits the crates into codegen units; not
    // inlined, TerraFlow's wall clock is about 9 % higher.
    #[inline]
    pub fn push(&mut self, key: K, value: V) {
        self.buffer.push(Entry { key, value });
        self.len += 1;
        if self.buffer.len() > self.buffer_limit {
            self.spill();
        }
    }

    fn spill(&mut self) {
        let mut items = std::mem::take(&mut self.buffer).into_vec();
        items.sort_unstable_by_key(|e| e.key);
        self.spilled_items += items.len() as u64;
        self.runs.retain(|r| !r.as_slice().is_empty());
        self.runs.push(items.into_iter());
        // Keep the run count bounded: merge all runs once there are more
        // than a handful (a miniature multiway merge pass).
        if self.runs.len() > 8 {
            self.merge_runs();
        }
    }

    fn merge_runs(&mut self) {
        // The concatenation is a handful of ascending runs, which is the
        // input a stable merge sort is fastest on.
        let mut merged: Vec<Entry<K, V>> = Vec::with_capacity(self.len - self.buffer.len());
        merged.extend(self.runs.drain(..).flatten());
        merged.sort_by_key(|e| e.key);
        self.runs.push(merged.into_iter());
    }

    /// The minimum key and where it sits: the buffer on a tie with a run,
    /// the lowest-numbered run on a tie between runs.
    fn min_source(&self) -> Option<(K, Source)> {
        let mut best = self.buffer.peek().map(|e| (e.key, Source::Buffer));
        for (i, run) in self.runs.iter().enumerate() {
            if let Some(head) = run.as_slice().first() {
                if best.is_none_or(|(k, _)| head.key < k) {
                    best = Some((head.key, Source::Run(i)));
                }
            }
        }
        best
    }

    fn take(&mut self, source: Source) -> (K, V) {
        let e = match source {
            Source::Buffer => self.buffer.pop(),
            Source::Run(i) => self.runs[i].next(),
        }
        .expect("min_source names a non-empty source");
        self.len -= 1;
        (e.key, e.value)
    }

    /// The minimum key currently queued.
    pub fn peek_min_key(&self) -> Option<K> {
        self.min_source().map(|(k, _)| k)
    }

    /// Remove and return the minimum item.
    pub fn pop_min(&mut self) -> Option<(K, V)> {
        let (_, source) = self.min_source()?;
        Some(self.take(source))
    }

    /// Pop every item whose key equals `key`, handing each value to
    /// `each` (in unspecified order), provided `key` is the minimum.
    /// Used to collect all messages addressed to one cell.
    #[inline]
    pub fn pop_all_eq(&mut self, key: K, mut each: impl FnMut(V)) {
        while let Some((k, source)) = self.min_source() {
            if k != key {
                break;
            }
            each(self.take(source).1);
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order_across_spills() {
        let mut pq = ExternalPq::new(4);
        let keys = [9u32, 3, 7, 1, 8, 2, 6, 0, 5, 4];
        for &k in &keys {
            pq.push(k, k * 10);
        }
        assert_eq!(pq.len(), 10);
        assert!(pq.spilled_items() > 0, "small buffer must spill");
        let mut got = Vec::new();
        while let Some((k, v)) = pq.pop_min() {
            assert_eq!(v, k * 10);
            got.push(k);
        }
        assert_eq!(got, (0..10).collect::<Vec<u32>>());
        assert!(pq.is_empty());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut pq = ExternalPq::new(2);
        pq.push(5u32, ());
        pq.push(1, ());
        assert_eq!(pq.pop_min().unwrap().0, 1);
        pq.push(3, ());
        pq.push(0, ());
        assert_eq!(pq.pop_min().unwrap().0, 0);
        assert_eq!(pq.pop_min().unwrap().0, 3);
        assert_eq!(pq.pop_min().unwrap().0, 5);
        assert!(pq.pop_min().is_none());
    }

    #[test]
    fn duplicate_keys_all_pop() {
        let mut pq = ExternalPq::new(3);
        for i in 0..7u32 {
            pq.push(42u32, i);
        }
        pq.push(7, 99);
        let below = pq.pop_min().unwrap();
        assert_eq!(below.0, 7);
        let mut all = Vec::new();
        pq.pop_all_eq(42, |v| all.push(v));
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<u32>>());
        assert!(pq.is_empty());
    }

    #[test]
    fn pop_all_eq_on_absent_key_is_empty() {
        let mut pq: ExternalPq<u32, ()> = ExternalPq::new(4);
        pq.push(5, ());
        pq.pop_all_eq(3, |()| panic!("nothing is keyed 3"));
        pq.pop_all_eq(7, |()| panic!("7 is not the minimum"));
        assert_eq!(pq.len(), 1);
    }

    #[test]
    fn many_spills_merge_runs() {
        let mut pq = ExternalPq::new(1);
        for k in (0..100u32).rev() {
            pq.push(k, ());
        }
        let got: Vec<u32> = std::iter::from_fn(|| pq.pop_min().map(|(k, _)| k)).collect();
        assert_eq!(got, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn matches_binary_heap_on_random_ops() {
        use lmas_sim::DetRng;
        use std::collections::BinaryHeap;
        let mut rng = DetRng::new(77);
        let mut pq = ExternalPq::new(8);
        let mut oracle: BinaryHeap<std::cmp::Reverse<u64>> = BinaryHeap::new();
        for _ in 0..2_000 {
            if rng.gen_f64() < 0.6 || oracle.is_empty() {
                let k = rng.gen_range(1000);
                pq.push(k, ());
                oracle.push(std::cmp::Reverse(k));
            } else {
                let got = pq.pop_min().map(|(k, _)| k);
                let want = oracle.pop().map(|r| r.0);
                assert_eq!(got, want);
            }
            assert_eq!(pq.len(), oracle.len());
        }
    }

    #[test]
    fn peek_is_shared_and_pop_moves_values_out() {
        // `peek_min_key` takes `&self`; values need not be `Clone`.
        struct Token(u32);
        let mut pq = ExternalPq::new(2);
        for k in [4u64, 2, 9, 1, 7] {
            pq.push(k, Token(k as u32));
        }
        let shared = &pq;
        assert_eq!(shared.peek_min_key(), Some(1));
        assert_eq!(shared.peek_min_key(), Some(1));
        let got: Vec<u32> = std::iter::from_fn(|| pq.pop_min().map(|(_, t)| t.0)).collect();
        assert_eq!(got, [1, 2, 4, 7, 9]);
    }

    #[test]
    fn spill_fires_past_the_limit_not_at_it() {
        let mut pq = ExternalPq::new(3);
        for k in 0..3u32 {
            pq.push(k, ());
        }
        assert_eq!((pq.spilled_items(), pq.in_memory_items()), (0, 3));
        pq.push(3, ());
        assert_eq!((pq.spilled_items(), pq.in_memory_items()), (4, 0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Differential against the sort-based queue this one replaced:
        /// the same key comes out of every pop, every key carries the
        /// same multiset of values, and `len` / `spilled_items` /
        /// `in_memory_items` agree after every operation.
        #[test]
        fn differential_against_sort_based_reference(
            ops in proptest::collection::vec((0u8..4, 0u64..48, proptest::any::<u32>()), 1..400),
            cap in 1usize..32,
        ) {
            let mut pq = ExternalPq::new(cap);
            let mut old = reference::ExternalPq::new(cap);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (op, key, value) in ops {
                match op {
                    // Pushes outnumber pops so that the queue grows and spills.
                    0 | 1 => {
                        pq.push(key, value);
                        old.push(key, value);
                    }
                    2 => {
                        proptest::prop_assert_eq!(pq.peek_min_key(), old.peek_min_key());
                        got.extend(pq.pop_min());
                        want.extend(old.pop_min());
                    }
                    _ => {
                        // Drain the minimum key, whatever it is by now.
                        let min = old.peek_min_key().unwrap_or(key);
                        pq.pop_all_eq(min, |v| got.push((min, v)));
                        want.extend(old.pop_all_eq(min).into_iter().map(|v| (min, v)));
                    }
                }
                proptest::prop_assert_eq!(
                    (pq.len(), pq.spilled_items(), pq.in_memory_items()),
                    (old.len(), old.spilled_items(), old.in_memory_items())
                );
            }
            got.extend(std::iter::from_fn(|| pq.pop_min()));
            want.extend(std::iter::from_fn(|| old.pop_min()));
            let keys = |popped: &[(u64, u32)]| popped.iter().map(|&(k, _)| k).collect::<Vec<_>>();
            proptest::prop_assert_eq!(keys(&got), keys(&want));
            // Equal keys pop in either queue's own order: compare per key.
            got.sort_unstable();
            want.sort_unstable();
            proptest::prop_assert_eq!(got, want);
        }
    }
}
