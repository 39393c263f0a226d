//! The functor library: map, filter, tally, distribute, block-sort, merge.
//!
//! Distribute / block-sort / merge are the three operations DSM-Sort
//! composes (Section 4.3); map/filter/tally are the scan-style primitives
//! active-storage work classically offloads (searching, filtering,
//! aggregation — Section 2).
//!
//! Cost contracts: `cost(input)` must be evaluated against the functor's
//! state *immediately before* `process(input)` is called with the same
//! packet — stateful functors (block-sort, merge) price the work the
//! packet will actually trigger.

use crate::container::Packet;
use crate::cost::{log2_ceil, Work};
use crate::functor::{Emit, Functor, FunctorKind};
use crate::kernels::{block_sort, bucket_of, merge_packets};
use crate::record::Record;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Forwards packets unchanged at zero CPU cost: a *passive* stage.
///
/// Used for conventional (non-active) storage sources — the disk streams
/// blocks without computing on them — and for ASU collectors whose only
/// job is the disk write the runtime charges at the sink.
pub struct RelayFunctor {
    name: String,
}

impl RelayFunctor {
    /// A relay with the given display name.
    pub fn new(name: impl Into<String>) -> RelayFunctor {
        RelayFunctor { name: name.into() }
    }
}

impl<R: Record> Functor<R> for RelayFunctor {
    fn name(&self) -> String {
        self.name.clone()
    }
    fn kind(&self) -> FunctorKind {
        FunctorKind::AsuEligible { max_state_bytes: 0 }
    }
    fn process(&mut self, input: Packet<R>, out: &mut Emit<R>) {
        out.push0(input);
    }
    fn flush(&mut self, _out: &mut Emit<R>) {}
    fn cost(&self, _input: &Packet<R>) -> Work {
        Work::ZERO
    }
}

/// Applies a pure per-record transform.
pub struct MapFunctor<R, F> {
    name: String,
    f: F,
    /// Declared compares-equivalent per record.
    unit_cost: Work,
    _marker: std::marker::PhantomData<fn(R) -> R>,
}

impl<R: Record, F: FnMut(R) -> R + Send> MapFunctor<R, F> {
    /// A map with a declared per-record cost.
    pub fn new(name: impl Into<String>, unit_cost: Work, f: F) -> Self {
        MapFunctor {
            name: name.into(),
            f,
            unit_cost,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<R: Record, F: FnMut(R) -> R + Send> Functor<R> for MapFunctor<R, F> {
    fn name(&self) -> String {
        self.name.clone()
    }
    fn kind(&self) -> FunctorKind {
        FunctorKind::AsuEligible { max_state_bytes: 0 }
    }
    fn process(&mut self, input: Packet<R>, out: &mut Emit<R>) {
        let mapped: Packet<R> = input.into_records().into_iter().map(&mut self.f).collect();
        out.push0(mapped);
    }
    fn flush(&mut self, _out: &mut Emit<R>) {}
    fn cost(&self, input: &Packet<R>) -> Work {
        let n = input.len() as u64;
        Work {
            compares: self.unit_cost.compares * n,
            record_moves: self.unit_cost.record_moves * n + n,
            bytes: self.unit_cost.bytes * n,
        }
    }
}

/// Drops records failing a predicate — the canonical ASU offload
/// (filtering at the storage reduces interconnect traffic, Section 2).
pub struct FilterFunctor<R, P> {
    name: String,
    pred: P,
    kept: u64,
    dropped: u64,
    _marker: std::marker::PhantomData<fn(&R) -> bool>,
}

impl<R: Record, P: FnMut(&R) -> bool + Send> FilterFunctor<R, P> {
    /// A filter keeping records satisfying `pred`.
    pub fn new(name: impl Into<String>, pred: P) -> Self {
        FilterFunctor {
            name: name.into(),
            pred,
            kept: 0,
            dropped: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// `(kept, dropped)` counters.
    pub fn counts(&self) -> (u64, u64) {
        (self.kept, self.dropped)
    }
}

impl<R: Record, P: FnMut(&R) -> bool + Send> Functor<R> for FilterFunctor<R, P> {
    fn name(&self) -> String {
        self.name.clone()
    }
    fn kind(&self) -> FunctorKind {
        FunctorKind::AsuEligible { max_state_bytes: 16 }
    }
    fn process(&mut self, input: Packet<R>, out: &mut Emit<R>) {
        let before = input.len() as u64;
        let kept: Packet<R> = input
            .into_records()
            .into_iter()
            .filter(|r| (self.pred)(r))
            .collect();
        self.kept += kept.len() as u64;
        self.dropped += before - kept.len() as u64;
        out.push0(kept);
    }
    fn flush(&mut self, _out: &mut Emit<R>) {}
    fn cost(&self, input: &Packet<R>) -> Work {
        Work::compares(input.len() as u64) + Work::moves(input.len() as u64)
    }
}

/// Counts records and sums keys; emits nothing (a pure aggregation sink
/// whose result is read through shared counters).
pub struct TallyFunctor<R> {
    name: String,
    count: Arc<AtomicU64>,
    key_sum: Arc<AtomicU64>,
    _marker: std::marker::PhantomData<fn(R)>,
}

impl<R> TallyFunctor<R>
where
    R: Record,
    u64: From<R::Key>,
{
    /// A tally; read results from the returned handles.
    pub fn new(name: impl Into<String>) -> (Self, Arc<AtomicU64>, Arc<AtomicU64>) {
        let count = Arc::new(AtomicU64::new(0));
        let key_sum = Arc::new(AtomicU64::new(0));
        let f = Self::with_counters(name, count.clone(), key_sum.clone());
        (f, count, key_sum)
    }

    /// A tally feeding externally owned counters — lets replicated
    /// instances (and the graph's probe instance) accumulate into one
    /// shared pair.
    pub fn with_counters(
        name: impl Into<String>,
        count: Arc<AtomicU64>,
        key_sum: Arc<AtomicU64>,
    ) -> Self {
        TallyFunctor {
            name: name.into(),
            count,
            key_sum,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<R> Functor<R> for TallyFunctor<R>
where
    R: Record,
    u64: From<R::Key>,
{
    fn name(&self) -> String {
        self.name.clone()
    }
    fn kind(&self) -> FunctorKind {
        FunctorKind::AsuEligible { max_state_bytes: 16 }
    }
    fn process(&mut self, input: Packet<R>, _out: &mut Emit<R>) {
        self.count.fetch_add(input.len() as u64, Ordering::Relaxed);
        let s: u64 = input.records().iter().map(|r| u64::from(r.key())).sum();
        self.key_sum.fetch_add(s, Ordering::Relaxed);
    }
    fn flush(&mut self, _out: &mut Emit<R>) {}
    fn cost(&self, input: &Packet<R>) -> Work {
        Work::bytes(input.bytes() as u64)
    }
}

/// α-way distribute by splitter keys: record with key in bucket `i` goes
/// out on port `i`. `ceil(log2 α)` compares per record (binary search).
pub struct DistributeFunctor<R: Record> {
    splitters: Vec<R::Key>,
}

impl<R: Record> DistributeFunctor<R> {
    /// A distribute over `splitters.len() + 1` buckets; splitters must be
    /// ascending.
    pub fn new(splitters: Vec<R::Key>) -> Self {
        assert!(
            splitters.windows(2).all(|w| w[0] <= w[1]),
            "splitters must be ascending"
        );
        DistributeFunctor { splitters }
    }

    /// The fan-out α.
    pub fn alpha(&self) -> usize {
        self.splitters.len() + 1
    }
}

impl<R: Record> Functor<R> for DistributeFunctor<R> {
    fn name(&self) -> String {
        format!("distribute(α={})", self.alpha())
    }
    fn out_ports(&self) -> usize {
        self.alpha()
    }
    fn kind(&self) -> FunctorKind {
        // State: the splitter table only.
        FunctorKind::AsuEligible {
            max_state_bytes: self.splitters.len() * std::mem::size_of::<R::Key>() + 64,
        }
    }
    fn process(&mut self, input: Packet<R>, out: &mut Emit<R>) {
        // A count pass sizes every bucket exactly, so each record is
        // copied once, straight into its bucket.
        let records = input.records();
        let mut counts = vec![0usize; self.alpha()];
        let of: Vec<u32> = records
            .iter()
            .map(|r| {
                let b = bucket_of(r.key(), &self.splitters);
                counts[b] += 1;
                b as u32
            })
            .collect();
        let mut buckets: Vec<Vec<R>> = counts.into_iter().map(Vec::with_capacity).collect();
        for (r, &b) in records.iter().zip(&of) {
            buckets[b as usize].push(r.clone());
        }
        for (port, b) in buckets.into_iter().enumerate() {
            out.push(port, Packet::new(b));
        }
    }
    fn flush(&mut self, _out: &mut Emit<R>) {}
    fn cost(&self, input: &Packet<R>) -> Work {
        let n = input.len() as u64;
        Work::compares(n * log2_ceil(self.alpha() as u64)) + Work::moves(n)
    }
    fn state_bytes(&self) -> usize {
        self.splitters.len() * std::mem::size_of::<R::Key>()
    }
    fn read_ahead_hint(&self) -> usize {
        // Distribute is pure streaming — CPU per packet is small, so a
        // couple of staged packets keep the media ahead of the processor.
        2
    }
}

/// The block hand-off of the block-forming functors: copy records from
/// the front of `input` into `block` until it holds `beta`, and return
/// the records not taken together with the block if it is now full. A
/// full block is moved out whole, leaving `block` empty; an empty block
/// reserves exactly β before its first record, so filling never
/// reallocates.
pub fn fill_block<'a, R: Clone>(
    block: &mut Vec<R>,
    beta: usize,
    input: &'a [R],
) -> (&'a [R], Option<Vec<R>>) {
    if block.is_empty() {
        block.reserve_exact(beta);
    }
    let take = (beta - block.len()).min(input.len());
    block.extend_from_slice(&input[..take]);
    let full = (block.len() == beta).then(|| std::mem::take(block));
    (&input[take..], full)
}

/// Buffers records to blocks of β, sorts each block, emits sorted-run
/// packets (Figure 4's pre-sort functor). A verified kernel with state
/// bounded by β records.
pub struct BlockSortFunctor<R> {
    beta: usize,
    buffer: Vec<R>,
    compares_done: u64,
}

impl<R: Record> BlockSortFunctor<R> {
    /// Sort blocks of `beta` records. Panics on zero β.
    pub fn new(beta: usize) -> Self {
        assert!(beta > 0, "β must be positive");
        BlockSortFunctor {
            beta,
            buffer: Vec::new(),
            compares_done: 0,
        }
    }

    /// Comparisons actually performed so far (for the work audit).
    pub fn compares_done(&self) -> u64 {
        self.compares_done
    }

    fn emit_block(&mut self, mut block: Vec<R>, out: &mut Emit<R>) {
        self.compares_done += block_sort(&mut block);
        out.push0(Packet::new(block));
    }
}

impl<R: Record> Functor<R> for BlockSortFunctor<R> {
    fn name(&self) -> String {
        format!("block-sort(β={})", self.beta)
    }
    fn kind(&self) -> FunctorKind {
        FunctorKind::VerifiedKernel {
            max_state_bytes: 2 * self.beta * R::SIZE,
        }
    }
    fn process(&mut self, input: Packet<R>, out: &mut Emit<R>) {
        let mut rest = input.records();
        while !rest.is_empty() {
            let (left, full) = fill_block(&mut self.buffer, self.beta, rest);
            rest = left;
            if let Some(block) = full {
                self.emit_block(block, out);
            }
        }
    }
    fn flush(&mut self, out: &mut Emit<R>) {
        if !self.buffer.is_empty() {
            let tail = std::mem::take(&mut self.buffer);
            self.emit_block(tail, out);
        }
    }
    fn cost(&self, input: &Packet<R>) -> Work {
        // Buffering pays one move per record; the β·log β sort is charged
        // when blocks actually complete (here for full blocks, at flush
        // for the tail) so no record is ever double-counted.
        let n = input.len() as u64;
        let total = self.buffer.len() + input.len();
        let full_blocks = (total / self.beta) as u64;
        Work::compares(full_blocks * self.beta as u64 * log2_ceil(self.beta as u64))
            + Work::moves(n)
    }
    fn flush_cost(&self) -> Work {
        let n = self.buffer.len() as u64;
        Work::compares(n * log2_ceil(self.beta as u64)) + Work::moves(n)
    }
    fn state_bytes(&self) -> usize {
        self.buffer.len() * R::SIZE
    }
}

/// γ-way merge kernel: buffers sorted-run packets; when γ runs are
/// buffered, merges them in place and emits one combined run; `flush`
/// merges the rest. State is bounded by γ runs (enforced by the ASU
/// buffer limit on γ, Section 4.3).
pub struct MergeFunctor<R> {
    gamma: usize,
    runs: Vec<Packet<R>>,
    buffered_records: usize,
    compares_done: u64,
}

impl<R: Record> MergeFunctor<R> {
    /// A γ-way merge. Panics unless γ >= 2.
    pub fn new(gamma: usize) -> Self {
        assert!(gamma >= 2, "merge fan-in must be at least 2");
        MergeFunctor {
            gamma,
            runs: Vec::new(),
            buffered_records: 0,
            compares_done: 0,
        }
    }

    /// Comparisons actually performed so far.
    pub fn compares_done(&self) -> u64 {
        self.compares_done
    }

    fn merge_buffered(&mut self, out: &mut Emit<R>) {
        let runs = std::mem::take(&mut self.runs);
        let m = std::mem::take(&mut self.buffered_records);
        self.compares_done += merge_packets(&runs, m.max(1), |p| out.push0(p));
    }
}

impl<R: Record> Functor<R> for MergeFunctor<R> {
    fn name(&self) -> String {
        format!("merge(γ={})", self.gamma)
    }
    fn kind(&self) -> FunctorKind {
        FunctorKind::VerifiedKernel {
            // Bound assumes runs of packet scale; the emulator checks the
            // live figure via state_bytes().
            max_state_bytes: usize::MAX,
        }
    }
    fn process(&mut self, input: Packet<R>, out: &mut Emit<R>) {
        debug_assert!(input.is_sorted(), "merge input must be a sorted run");
        self.buffered_records += input.len();
        self.runs.push(input);
        if self.runs.len() == self.gamma {
            self.merge_buffered(out);
        }
    }
    fn flush(&mut self, out: &mut Emit<R>) {
        if !self.runs.is_empty() {
            self.merge_buffered(out);
        }
    }
    fn cost(&self, input: &Packet<R>) -> Work {
        if self.runs.len() + 1 == self.gamma {
            let m = (self.buffered_records + input.len()) as u64;
            Work::compares(m * log2_ceil(self.gamma as u64)) + Work::moves(m)
        } else {
            Work::moves(input.len() as u64)
        }
    }
    fn flush_cost(&self) -> Work {
        let m = self.buffered_records as u64;
        let k = self.runs.len() as u64;
        Work::compares(m * log2_ceil(k)) + Work::moves(m)
    }
    fn state_bytes(&self) -> usize {
        self.buffered_records * R::SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{generate_rec8, KeyDist, Rec8};

    fn pkt(keys: &[u32]) -> Packet<Rec8> {
        Packet::new(keys.iter().map(|&k| Rec8 { key: k, tag: k }).collect())
    }

    fn run<F: Functor<Rec8>>(f: &mut F, inputs: Vec<Packet<Rec8>>) -> Vec<(usize, Packet<Rec8>)> {
        let mut out = Emit::new(f.out_ports());
        for p in inputs {
            f.process(p, &mut out);
        }
        f.flush(&mut out);
        out.take()
    }

    #[test]
    fn map_transforms_records() {
        let mut m = MapFunctor::new("inc", Work::compares(1), |mut r: Rec8| {
            r.key += 1;
            r
        });
        let got = run(&mut m, vec![pkt(&[1, 2])]);
        assert_eq!(got[0].1.records().iter().map(|r| r.key).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(m.cost(&pkt(&[1, 2])).compares, 2);
    }

    #[test]
    fn filter_keeps_and_counts() {
        let mut f = FilterFunctor::new("evens", |r: &Rec8| r.key.is_multiple_of(2));
        let got = run(&mut f, vec![pkt(&[1, 2, 3, 4])]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.records().iter().map(|r| r.key).collect::<Vec<_>>(), [2, 4]);
        assert_eq!(f.counts(), (2, 2));
    }

    #[test]
    fn filter_emits_nothing_when_all_dropped() {
        let mut f = FilterFunctor::new("none", |_: &Rec8| false);
        let got = run(&mut f, vec![pkt(&[1, 2])]);
        assert!(got.is_empty(), "empty packets are swallowed");
        assert_eq!(f.counts(), (0, 2));
    }

    #[test]
    fn tally_accumulates_without_emitting() {
        let (mut t, count, sum) = TallyFunctor::<Rec8>::new("tally");
        let got = run(&mut t, vec![pkt(&[1, 2]), pkt(&[3])]);
        assert!(got.is_empty());
        assert_eq!(count.load(Ordering::Relaxed), 3);
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn distribute_routes_by_bucket() {
        let mut d = DistributeFunctor::new(vec![10u32, 20]);
        assert_eq!(d.alpha(), 3);
        assert_eq!(d.out_ports(), 3);
        let got = run(&mut d, vec![pkt(&[5, 15, 25, 10])]);
        let by_port: Vec<(usize, Vec<u32>)> = got
            .into_iter()
            .map(|(p, pk)| (p, pk.records().iter().map(|r| r.key).collect()))
            .collect();
        assert_eq!(by_port[0], (0, vec![5]));
        assert_eq!(by_port[1], (1, vec![15, 10]));
        assert_eq!(by_port[2], (2, vec![25]));
    }

    #[test]
    fn distribute_cost_is_log_alpha_per_record() {
        let d = DistributeFunctor::<Rec8>::new((1..16u32).collect()); // α=16
        let w = d.cost(&pkt(&[1, 2, 3]));
        assert_eq!(w.compares, 3 * 4);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn distribute_rejects_unsorted_splitters() {
        DistributeFunctor::<Rec8>::new(vec![20u32, 10]);
    }

    #[test]
    fn block_sort_emits_full_blocks_then_tail() {
        let mut b = BlockSortFunctor::new(4);
        let got = run(&mut b, vec![pkt(&[9, 1, 8, 2, 7, 3])]);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1.len(), 4);
        assert!(got[0].1.is_sorted());
        assert_eq!(got[1].1.len(), 2);
        assert!(got[1].1.is_sorted());
        assert!(b.compares_done() > 0);
        assert_eq!(b.state_bytes(), 0, "flushed");
    }

    /// The blocks the drain-based block sort emitted: append each packet
    /// to one buffer, cut β-record blocks off its front, sort each, and
    /// sort the tail at flush.
    fn blocks_by_drain(packets: &[Vec<Rec8>], beta: usize) -> (Vec<Vec<Rec8>>, u64) {
        let (mut buffer, mut blocks, mut compares) = (Vec::new(), Vec::new(), 0);
        for p in packets {
            buffer.extend_from_slice(p);
            while buffer.len() >= beta {
                let mut block: Vec<Rec8> = buffer.drain(..beta).collect();
                compares += block_sort(&mut block);
                blocks.push(block);
            }
        }
        if !buffer.is_empty() {
            compares += block_sort(&mut buffer);
            blocks.push(buffer);
        }
        (blocks, compares)
    }

    #[test]
    fn block_sort_blocks_match_the_drain_reference() {
        // Duplicate keys (mod 50) make any reordering of a block visible
        // through the tags.
        let data: Vec<Rec8> = generate_rec8(3_000, KeyDist::Uniform, 12)
            .into_iter()
            .map(|r| Rec8 { key: r.key % 50, tag: r.tag })
            .collect();
        for beta in [1usize, 7, 64, 100] {
            for packet in [1, beta.saturating_sub(1).max(1), beta, beta + 1, 2 * beta + 3, 1_000] {
                let packets: Vec<Vec<Rec8>> = data.chunks(packet).map(<[Rec8]>::to_vec).collect();
                let (want, want_compares) = blocks_by_drain(&packets, beta);
                let mut f = BlockSortFunctor::new(beta);
                let got = run(&mut f, packets.into_iter().map(Packet::new).collect());
                let got: Vec<Vec<Rec8>> = got.iter().map(|(_, p)| p.records().to_vec()).collect();
                assert_eq!(got, want, "β={beta} packet={packet}");
                assert_eq!(f.compares_done(), want_compares, "β={beta} packet={packet}");
            }
        }
    }

    #[test]
    fn block_sort_state_bounded_by_beta() {
        let mut b = BlockSortFunctor::<Rec8>::new(100);
        let mut e = Emit::new(1);
        b.process(pkt(&[1, 2, 3]), &mut e);
        assert_eq!(b.state_bytes(), 3 * 8);
        match b.kind() {
            FunctorKind::VerifiedKernel { max_state_bytes } => {
                assert!(max_state_bytes >= 100 * 8)
            }
            _ => panic!("block sort is a verified kernel"),
        }
    }

    #[test]
    fn merge_collects_gamma_runs_then_merges() {
        let mut m = MergeFunctor::new(2);
        let got = run(&mut m, vec![pkt(&[1, 5]), pkt(&[2, 6]), pkt(&[0, 9])]);
        // Two runs trigger a merge; third is flushed alone.
        assert_eq!(got.len(), 2);
        assert_eq!(
            got[0].1.records().iter().map(|r| r.key).collect::<Vec<_>>(),
            [1, 2, 5, 6]
        );
        assert_eq!(
            got[1].1.records().iter().map(|r| r.key).collect::<Vec<_>>(),
            [0, 9]
        );
    }

    #[test]
    fn merge_cost_prices_the_triggering_packet() {
        let mut m = MergeFunctor::<Rec8>::new(2);
        let p1 = pkt(&[1, 2]);
        assert_eq!(m.cost(&p1).compares, 0, "first run only buffers");
        let mut e = Emit::new(1);
        m.process(p1, &mut e);
        let p2 = pkt(&[3, 4]);
        assert_eq!(m.cost(&p2).compares, 4, "4 records × log2(2)");
    }

    #[test]
    fn pipeline_distribute_sort_merge_sorts_everything() {
        // End-to-end through the three DSM stages, single instance each.
        let data = generate_rec8(1_000, KeyDist::Uniform, 5);
        let splitters =
            crate::kernels::select_splitters(data.clone(), 4);
        let mut dist = DistributeFunctor::new(splitters);
        let mut out = Emit::new(dist.out_ports());
        for chunk in data.chunks(100) {
            dist.process(Packet::new(chunk.to_vec()), &mut out);
        }
        dist.flush(&mut out);
        // Per-bucket: block-sort then merge.
        let mut buckets: Vec<Vec<Packet<Rec8>>> = (0..4).map(|_| vec![]).collect();
        for (port, p) in out.take() {
            buckets[port].push(p);
        }
        let mut global = Vec::new();
        for bucket in buckets {
            let mut bs = BlockSortFunctor::new(64);
            let runs = run(&mut bs, bucket);
            let mut mg = MergeFunctor::new(16);
            let merged = run(&mut mg, runs.into_iter().map(|(_, p)| p).collect());
            for (_, p) in merged {
                global.extend(p.into_records());
            }
        }
        assert_eq!(global.len(), 1_000);
        assert!(crate::kernels::is_sorted_by_key(&global));
    }
}
