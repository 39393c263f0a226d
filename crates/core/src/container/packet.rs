//! Packets: groups of records that are always processed as a whole.
//!
//! Section 3.2: "a mechanism to group related records within a data
//! collection into units called Packets … They impose a partial order on
//! the records in a set, and constrain the distribution of records across
//! functor instances." A sorted run produced by a pre-sort functor is the
//! canonical packet: keeping it whole preserves its internal order through
//! later phases (Figure 4).
//!
//! # Zero-copy sharing
//!
//! A packet is a shared, immutable record buffer (`Arc<Vec<R>>`).
//! `Clone` is O(1) — it bumps a reference count, never copies records —
//! so routing fan-out, NIC transfer, metrics capture, and sink capture
//! all view one buffer. Mutation goes through [`Packet::records_mut`],
//! which is copy-on-write: it detaches (deep-copies) only when the buffer
//! is actually shared, so in-place kernels on uniquely-owned packets stay
//! zero-copy. [`Packet::shares_buffer`] observes sharing for tests.

use crate::record::Record;
use std::sync::Arc;

/// An indivisible group of records backed by a shared buffer.
#[derive(Debug, PartialEq, Eq)]
pub struct Packet<R> {
    records: Arc<Vec<R>>,
}

impl<R> Clone for Packet<R> {
    /// O(1): clones share the record buffer (no records are copied).
    fn clone(&self) -> Packet<R> {
        Packet {
            records: Arc::clone(&self.records),
        }
    }
}

impl<R: Record> Packet<R> {
    /// A packet owning `records`. Empty packets are allowed (e.g. an
    /// empty bucket after a distribute).
    pub fn new(records: Vec<R>) -> Packet<R> {
        Packet {
            records: Arc::new(records),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the packet holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Storage footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.records.len() * R::SIZE
    }

    /// The records, immutably.
    pub fn records(&self) -> &[R] {
        &self.records
    }

    /// The records, mutably (e.g. for an in-place sort kernel).
    ///
    /// Copy-on-write: detaches from clones sharing this buffer, copying
    /// the records only if such clones exist.
    pub fn records_mut(&mut self) -> &mut Vec<R> {
        Arc::make_mut(&mut self.records)
    }

    /// Consume into the record vector. Zero-copy when this packet is the
    /// buffer's sole owner; otherwise the records are copied out and the
    /// other owners keep the shared buffer.
    pub fn into_records(self) -> Vec<R> {
        Arc::try_unwrap(self.records).unwrap_or_else(|shared| (*shared).clone())
    }

    /// True when `self` and `other` view the same underlying buffer
    /// (i.e. one is an O(1) clone of the other and neither has detached).
    pub fn shares_buffer(&self, other: &Packet<R>) -> bool {
        Arc::ptr_eq(&self.records, &other.records)
    }

    /// Whether records are in non-decreasing key order.
    pub fn is_sorted(&self) -> bool {
        self.records.windows(2).all(|w| w[0].key() <= w[1].key())
    }

    /// Key of the first record, if any.
    pub fn min_key(&self) -> Option<R::Key> {
        self.records.iter().map(|r| r.key()).min()
    }

    /// Key of the last record, if any.
    pub fn max_key(&self) -> Option<R::Key> {
        self.records.iter().map(|r| r.key()).max()
    }
}

impl<R: Record> FromIterator<R> for Packet<R> {
    fn from_iter<I: IntoIterator<Item = R>>(iter: I) -> Self {
        Packet::new(iter.into_iter().collect())
    }
}

/// Split a record vector into packets of at most `packet_records` each
/// (the last packet may be short). Packet size is typically bounded by an
/// ASU memory limit (Section 3.2).
pub fn packetize<R: Record>(records: Vec<R>, packet_records: usize) -> Vec<Packet<R>> {
    assert!(packet_records > 0, "packet size must be positive");
    let mut out = Vec::with_capacity(records.len().div_ceil(packet_records));
    let mut it = records.into_iter();
    loop {
        let chunk: Vec<R> = it.by_ref().take(packet_records).collect();
        if chunk.is_empty() {
            break;
        }
        out.push(Packet::new(chunk));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Rec8;

    fn r(k: u32) -> Rec8 {
        Rec8 { key: k, tag: 0 }
    }

    #[test]
    fn packet_basics() {
        let p = Packet::new(vec![r(3), r(1), r(2)]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.bytes(), 24);
        assert!(!p.is_sorted());
        assert_eq!(p.min_key(), Some(1));
        assert_eq!(p.max_key(), Some(3));
    }

    #[test]
    fn sorted_detection() {
        let p: Packet<Rec8> = [r(1), r(2), r(2), r(9)].into_iter().collect();
        assert!(p.is_sorted());
        assert!(Packet::<Rec8>::new(vec![]).is_sorted());
    }

    #[test]
    fn singleton_and_empty() {
        let s = Packet::new(vec![r(5)]);
        assert_eq!(s.len(), 1);
        let e = Packet::<Rec8>::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.min_key(), None);
    }

    #[test]
    fn clone_shares_buffer() {
        let p = Packet::new(vec![r(1), r(2)]);
        let q = p.clone();
        assert!(p.shares_buffer(&q));
        assert_eq!(p, q);
    }

    #[test]
    fn records_mut_detaches_shared_buffer() {
        let mut p = Packet::new(vec![r(1), r(2)]);
        let q = p.clone();
        p.records_mut()[0] = r(9);
        assert!(!p.shares_buffer(&q), "COW must detach on write");
        assert_eq!(p.records()[0].key, 9);
        assert_eq!(q.records()[0].key, 1, "clone must keep original data");
    }

    #[test]
    fn records_mut_in_place_when_unique() {
        let mut p = Packet::new(vec![r(2), r(1)]);
        let before = p.records().as_ptr();
        p.records_mut().sort_by_key(|x| x.key);
        assert_eq!(p.records().as_ptr(), before, "sole owner mutates in place");
        assert!(p.is_sorted());
    }

    #[test]
    fn into_records_zero_copy_when_unique() {
        let p = Packet::new(vec![r(1), r(2), r(3)]);
        let before = p.records().as_ptr();
        let v = p.into_records();
        assert_eq!(v.as_ptr(), before, "unique owner unwraps without copying");
    }

    #[test]
    fn into_records_leaves_clones_intact() {
        let p = Packet::new(vec![r(1), r(2)]);
        let q = p.clone();
        let v = p.into_records();
        assert_eq!(v, vec![r(1), r(2)]);
        assert_eq!(q.records(), &[r(1), r(2)]);
    }

    #[test]
    fn packetize_splits_evenly_with_short_tail() {
        let recs: Vec<Rec8> = (0..10).map(r).collect();
        let ps = packetize(recs, 4);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].len(), 4);
        assert_eq!(ps[1].len(), 4);
        assert_eq!(ps[2].len(), 2);
        let total: usize = ps.iter().map(|p| p.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn packetize_empty_input() {
        let ps = packetize(Vec::<Rec8>::new(), 4);
        assert!(ps.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn packetize_zero_size_panics() {
        packetize(vec![r(1)], 0);
    }
}
