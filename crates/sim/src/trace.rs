//! Structured event tracing for debugging and reports.
//!
//! A [`Trace`] is a bounded ring buffer of `(time, subject, detail)`
//! entries. Tracing is cheap enough to leave on in tests but is entirely
//! optional: production runs construct a disabled trace and pay only a
//! branch per record — [`Trace::record_with`] takes a closure, so a
//! disabled trace never materialises the subject or detail strings at
//! all. Subjects are interned ([`crate::intern`](mod@crate::intern)): the hot path stamps a
//! shared pointer rather than allocating a fresh `String` per entry.

use crate::intern::{intern, Name};
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// One recorded occurrence.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// When it happened.
    pub at: SimTime,
    /// Which component reported it (e.g. `"host0.cpu"`), interned.
    pub subject: Name,
    /// Free-form description.
    pub detail: String,
    /// Dispatch ordering key within the instant, `(sched, packed)` from
    /// the partitioned engine ([`crate::engine::Ctx::par_key`]); `(0, 0)`
    /// for sequential runs. Lets [`Trace::merge`] interleave per-partition
    /// traces back into the exact sequential order. Bookkeeping only —
    /// excluded from equality and rendering.
    key: (u64, u64),
}

impl PartialEq for TraceEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.subject == other.subject && self.detail == other.detail
    }
}
impl Eq for TraceEntry {}

/// A bounded in-memory event trace.
#[derive(Debug, Clone)]
pub struct Trace {
    entries: VecDeque<TraceEntry>,
    capacity: usize,
    enabled: bool,
    dropped: u64,
}

impl Trace {
    /// An enabled trace holding up to `capacity` most-recent entries.
    pub fn enabled(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            entries: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            enabled: true,
            dropped: 0,
        }
    }

    /// A disabled trace: `record` is a no-op.
    pub fn disabled() -> Self {
        Trace {
            entries: VecDeque::new(),
            capacity: 0,
            enabled: false,
            dropped: 0,
        }
    }

    /// Whether entries are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an entry (no-op when disabled). Oldest entries are evicted
    /// once capacity is reached. Prefer [`Trace::record_with`] on hot
    /// paths: this eager variant builds its arguments even when the
    /// trace is disabled.
    pub fn record(&mut self, at: SimTime, subject: impl AsRef<str>, detail: impl Into<String>) {
        if !self.enabled {
            return;
        }
        self.push(at, (0, 0), intern(subject.as_ref()), detail.into());
    }

    /// Record an entry built lazily: `f` runs — and its strings are
    /// allocated — only when the trace is enabled. This is the zero-cost
    /// variant for dispatch loops.
    pub fn record_with<S, D, F>(&mut self, at: SimTime, f: F)
    where
        S: AsRef<str>,
        D: Into<String>,
        F: FnOnce() -> (S, D),
    {
        self.record_with_key(at, (0, 0), f)
    }

    /// [`Trace::record_with`], additionally stamping the entry with its
    /// dispatch ordering key so per-partition traces can be merged in
    /// exact sequential order. Sequential callers pass `(0, 0)` (or use
    /// `record_with`).
    pub fn record_with_key<S, D, F>(&mut self, at: SimTime, key: (u64, u64), f: F)
    where
        S: AsRef<str>,
        D: Into<String>,
        F: FnOnce() -> (S, D),
    {
        if !self.enabled {
            return;
        }
        let (subject, detail) = f();
        self.push(at, key, intern(subject.as_ref()), detail.into());
    }

    fn push(&mut self, at: SimTime, key: (u64, u64), subject: Name, detail: String) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(TraceEntry { at, subject, detail, key });
    }

    /// Merge per-partition traces into the trace an equivalent sequential
    /// run would have produced.
    ///
    /// Entries are ordered canonically by `(time, dispatch key)` — the
    /// partitioned engine's total dispatch order — with a stable sort, so
    /// entries recorded in one dispatch keep their emission order. Each
    /// partition's ring buffer retains a *suffix* of its own (ordered)
    /// pushes, and the global tail window of `capacity` entries is
    /// contained in the union of those suffixes, so the merged trace is
    /// byte-identical to the sequential ring buffer, including the
    /// dropped count.
    pub fn merge(parts: Vec<Trace>) -> Trace {
        if !parts.iter().any(|t| t.enabled) {
            return Trace::disabled();
        }
        let capacity = parts.iter().map(|t| t.capacity).max().expect("non-empty parts");
        let pushes: u64 = parts
            .iter()
            .map(|t| t.entries.len() as u64 + t.dropped)
            .sum();
        let mut all: Vec<TraceEntry> = Vec::new();
        for t in parts {
            all.extend(t.entries);
        }
        all.sort_by_key(|e| (e.at, e.key));
        let skip = all.len().saturating_sub(capacity);
        let entries: VecDeque<TraceEntry> = all.into_iter().skip(skip).collect();
        let dropped = pushes - entries.len() as u64;
        Trace { entries, capacity, enabled: true, dropped }
    }

    /// Entries currently retained, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Number of entries evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render retained entries, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(out, "{} [{}] {}", e.at, e.subject, e.detail);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut t = Trace::enabled(8);
        t.record(SimTime(1), "a", "x");
        t.record(SimTime(2), "b", "y");
        let subjects: Vec<&str> = t.entries().map(|e| e.subject.as_str()).collect();
        assert_eq!(subjects, ["a", "b"]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut t = Trace::enabled(2);
        t.record(SimTime(1), "a", "");
        t.record(SimTime(2), "b", "");
        t.record(SimTime(3), "c", "");
        let subjects: Vec<&str> = t.entries().map(|e| e.subject.as_str()).collect();
        assert_eq!(subjects, ["b", "c"]);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn disabled_trace_is_noop() {
        let mut t = Trace::disabled();
        t.record(SimTime(1), "a", "");
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn record_with_skips_closure_when_disabled() {
        let mut t = Trace::disabled();
        let mut called = false;
        t.record_with(SimTime(1), || {
            called = true;
            ("a", "x")
        });
        assert!(!called, "disabled trace must not build its strings");
        assert!(t.is_empty());

        let mut t = Trace::enabled(4);
        t.record_with(SimTime(2), || (format!("s{}", 1), format!("n={}", 42)));
        assert_eq!(t.len(), 1);
        let e = t.entries().next().unwrap();
        assert_eq!(e.subject, "s1");
        assert_eq!(e.detail, "n=42");
    }

    #[test]
    fn merge_reconstructs_sequential_order() {
        // Two partitions record interleaved instants; within one instant
        // the dispatch key decides. The merge must equal a single trace
        // that saw every record in (at, key) order.
        let mut a = Trace::enabled(16);
        let mut b = Trace::enabled(16);
        a.record_with_key(SimTime(1), (0, 2), || ("p0", "e1"));
        a.record_with_key(SimTime(3), (1, 0), || ("p0", "e3"));
        b.record_with_key(SimTime(1), (0, 7), || ("p1", "e2"));
        b.record_with_key(SimTime(2), (1, 1), || ("p1", "early"));
        let merged = Trace::merge(vec![a, b]);
        let got: Vec<(u64, String)> = merged
            .entries()
            .map(|e| (e.at.as_nanos(), e.detail.clone()))
            .collect();
        assert_eq!(
            got,
            vec![
                (1, "e1".into()),
                (1, "e2".into()),
                (2, "early".into()),
                (3, "e3".into())
            ]
        );
        assert_eq!(merged.dropped(), 0);
    }

    #[test]
    fn merge_respects_capacity_and_counts_drops() {
        // Global capacity 2: merging 4 retained entries keeps the last
        // two in canonical order and accounts the rest (plus any entries
        // the partitions had already evicted) as dropped.
        let mut a = Trace::enabled(2);
        let mut b = Trace::enabled(2);
        for t in [1u64, 5, 9] {
            a.record_with_key(SimTime(t), (t, 0), || ("a", "x")); // t=1 evicted locally
        }
        b.record_with_key(SimTime(3), (3, 0), || ("b", "y"));
        b.record_with_key(SimTime(7), (7, 0), || ("b", "y"));
        let merged = Trace::merge(vec![a, b]);
        let ats: Vec<u64> = merged.entries().map(|e| e.at.as_nanos()).collect();
        assert_eq!(ats, [7, 9]);
        assert_eq!(merged.dropped(), 3);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn merge_of_single_partition_is_identity() {
        let mut a = Trace::enabled(4);
        a.record(SimTime(1), "s", "d1");
        a.record(SimTime(2), "s", "d2");
        let before = a.render();
        let merged = Trace::merge(vec![a]);
        assert_eq!(merged.render(), before);
        assert!(Trace::merge(vec![Trace::disabled(), Trace::disabled()]).is_empty());
    }

    #[test]
    fn render_contains_fields() {
        let mut t = Trace::enabled(4);
        t.record(SimTime(1_000_000_000), "host0.cpu", "segment done");
        let s = t.render();
        assert!(s.contains("host0.cpu"));
        assert!(s.contains("segment done"));
    }
}
