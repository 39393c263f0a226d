//! The sort-based `ExternalPq` this crate shipped through PR 22, kept
//! verbatim as the differential reference for the heap-buffered queue:
//! the pending buffer is a `Vec` re-sorted (descending) on the first
//! access after a push. Correct, and O(pending) per access under the
//! push -> pop rhythm of time-forward processing. Test-only.

/// A min-priority queue with bounded memory and sorted-run spills.
#[derive(Debug)]
pub struct ExternalPq<K: Ord + Copy, V: Clone> {
    buffer: Vec<(K, V)>,
    buffer_sorted: bool,
    buffer_limit: usize,
    runs: Vec<Run<K, V>>,
    len: usize,
    spilled_items: u64,
}

#[derive(Debug)]
struct Run<K, V> {
    items: Vec<(K, V)>, // ascending by key
    cursor: usize,
}

impl<K: Ord + Copy, V: Clone> Run<K, V> {
    fn head(&self) -> Option<&(K, V)> {
        self.items.get(self.cursor)
    }
}

impl<K: Ord + Copy, V: Clone> ExternalPq<K, V> {
    /// A queue spilling once more than `buffer_limit` items are buffered.
    pub fn new(buffer_limit: usize) -> Self {
        assert!(buffer_limit > 0, "buffer must hold at least one item");
        ExternalPq {
            buffer: Vec::new(),
            buffer_sorted: true,
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

    /// Items spilled to runs over the queue's lifetime (I/O accounting).
    pub fn spilled_items(&self) -> u64 {
        self.spilled_items
    }

    /// Live in-memory footprint in items (buffer only; runs are
    /// conceptually external).
    pub fn in_memory_items(&self) -> usize {
        self.buffer.len()
    }

    /// Insert an item.
    pub fn push(&mut self, key: K, value: V) {
        self.buffer.push((key, value));
        self.buffer_sorted = false;
        self.len += 1;
        if self.buffer.len() > self.buffer_limit {
            self.spill();
        }
    }

    fn spill(&mut self) {
        let mut items = std::mem::take(&mut self.buffer);
        items.sort_by_key(|&(k, _)| k);
        self.spilled_items += items.len() as u64;
        self.runs.push(Run { items, cursor: 0 });
        self.buffer_sorted = true;
        // Keep the run count bounded: merge all runs once there are more
        // than a handful (a miniature multiway merge pass).
        if self.runs.len() > 8 {
            self.merge_runs();
        }
    }

    fn merge_runs(&mut self) {
        let runs = std::mem::take(&mut self.runs);
        let mut merged: Vec<(K, V)> = Vec::with_capacity(
            runs.iter().map(|r| r.items.len() - r.cursor).sum(),
        );
        for r in runs {
            merged.extend(r.items.into_iter().skip(r.cursor));
        }
        merged.sort_by_key(|&(k, _)| k);
        self.runs.push(Run { items: merged, cursor: 0 });
    }

    fn ensure_buffer_sorted(&mut self) {
        if !self.buffer_sorted {
            // Descending, so the minimum is at the tail (O(1) pop).
            self.buffer.sort_by_key(|&(k, _)| std::cmp::Reverse(k));
            self.buffer_sorted = true;
        }
    }

    /// The minimum key currently queued.
    pub fn peek_min_key(&mut self) -> Option<K> {
        self.ensure_buffer_sorted();
        let buf_min = self.buffer.last().map(|&(k, _)| k);
        let run_min = self
            .runs
            .iter()
            .filter_map(|r| r.head().map(|&(k, _)| k))
            .min();
        match (buf_min, run_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Remove and return the minimum item.
    pub fn pop_min(&mut self) -> Option<(K, V)> {
        self.ensure_buffer_sorted();
        let buf_min = self.buffer.last().map(|&(k, _)| k);
        let run_idx = self
            .runs
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.head().map(|&(k, _)| (k, i)))
            .min_by_key(|&(k, i)| (k, i))
            .map(|(_, i)| i);
        let take_buffer = match (buf_min, run_idx) {
            (Some(b), Some(i)) => b <= self.runs[i].head().expect("head").0,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        self.len -= 1;
        if take_buffer {
            self.buffer.pop()
        } else {
            let i = run_idx.expect("run index");
            let r = &mut self.runs[i];
            let item = r.items[r.cursor].clone();
            r.cursor += 1;
            Some(item)
        }
    }

    /// Pop every item whose key equals `key` (in insertion-independent
    /// order). Used to collect all messages addressed to one cell.
    pub fn pop_all_eq(&mut self, key: K) -> Vec<V> {
        let mut out = Vec::new();
        while self.peek_min_key() == Some(key) {
            out.push(self.pop_min().expect("peeked").1);
        }
        out
    }
}
