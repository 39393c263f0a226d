//! DSM-Sort's merge-phase functors.
//!
//! Pass 2 (Figure 7, "Second Pass") runs γ₁-way merges on the ASUs over
//! locally stored runs, then a γ₂-way merge per subset on the hosts, and
//! stripes the sorted output back across the ASUs.
//!
//! [`SubsetMergeFunctor`] is the ASU side: it keeps per-subset run
//! buffers, merges γ₁ runs of a subset as they stream off the disk, and
//! emits each merged run on the port of its subset — so static routing
//! carries subset `b` to host-merge instance `b`.
//!
//! [`FullMergeFunctor`] is the host side: it buffers every run of its
//! subset and performs one k-way merge at end of stream, writing the
//! sorted subset straight into stripe-sized packets. `k` must respect the
//! declared γ₂ bound; the functor records the actual fan-in so
//! configuration errors are observable rather than silent.
//!
//! Both merges buffer the run packets as they arrive and read them in
//! place ([`merge_packets`]), so each record is written once per merge.

use lmas_core::functor::lib::fill_block;
use lmas_core::functor::{Emit, Functor, FunctorKind};
use lmas_core::kernels::{bucket_of, merge_packets};
use lmas_core::{log2_ceil, Packet, Record, Work};
use std::slice;

/// Fused distribute+sort for the conventional-host baseline.
///
/// A real single-host external sort streams each record once per pass:
/// it pays `log α + log β` comparisons but only *one* per-record handling
/// charge, not the two a naive distribute→sort pipeline of separate
/// functors would incur. Figure 9's baseline ("all computation occurs on
/// the host") uses this functor so active-vs-passive comparisons are not
/// distorted by double-counted buffer traffic.
///
/// Emits β-record sorted runs on port = subset.
pub struct DistributeSortFunctor<R: Record> {
    splitters: Vec<R::Key>,
    beta: usize,
    buffers: Vec<Vec<R>>,
    buffered: usize,
}

impl<R: Record> DistributeSortFunctor<R> {
    /// Fused α-way distribute (by `splitters`) + β-block sort.
    pub fn new(splitters: Vec<R::Key>, beta: usize) -> Self {
        assert!(beta > 0, "β must be positive");
        assert!(
            splitters.windows(2).all(|w| w[0] <= w[1]),
            "splitters must be ascending"
        );
        let alpha = splitters.len() + 1;
        DistributeSortFunctor {
            splitters,
            beta,
            buffers: (0..alpha).map(|_| Vec::new()).collect(),
            buffered: 0,
        }
    }

    /// The distribute order α.
    pub fn alpha(&self) -> usize {
        self.buffers.len()
    }

    fn emit_run(&mut self, b: usize, mut run: Vec<R>, out: &mut Emit<R>) {
        self.buffered -= run.len();
        lmas_core::kernels::block_sort(&mut run);
        out.push(b, Packet::new(run));
    }
}

impl<R: Record> Functor<R> for DistributeSortFunctor<R> {
    fn name(&self) -> String {
        format!("dist-sort(α={}, β={})", self.alpha(), self.beta)
    }
    fn out_ports(&self) -> usize {
        self.alpha()
    }
    fn kind(&self) -> FunctorKind {
        // The conventional baseline path: hosts only.
        FunctorKind::HostOnly
    }
    fn process(&mut self, input: Packet<R>, out: &mut Emit<R>) {
        for r in input.records() {
            let b = bucket_of(r.key(), &self.splitters);
            self.buffered += 1;
            let (_, full) = fill_block(&mut self.buffers[b], self.beta, slice::from_ref(r));
            if let Some(run) = full {
                self.emit_run(b, run, out);
            }
        }
    }
    fn flush(&mut self, out: &mut Emit<R>) {
        for b in 0..self.buffers.len() {
            if !self.buffers[b].is_empty() {
                let tail = std::mem::take(&mut self.buffers[b]);
                self.emit_run(b, tail, out);
            }
        }
    }
    fn cost(&self, input: &Packet<R>) -> Work {
        let n = input.len() as u64;
        let alpha = self.alpha() as u64;
        Work::compares(n * (log2_ceil(alpha) + log2_ceil(self.beta as u64)))
            + Work::moves(n)
    }
    fn flush_cost(&self) -> Work {
        // Residual-block sorts were already priced per record in cost().
        Work::ZERO
    }
    fn state_bytes(&self) -> usize {
        self.buffered * R::SIZE
    }
}

/// ASU-side γ₁-way merge with per-subset run separation.
pub struct SubsetMergeFunctor<R: Record> {
    splitters: Vec<R::Key>,
    gamma1: usize,
    /// Per-subset buffered run packets (merged in place).
    buffers: Vec<Vec<Packet<R>>>,
    buffered_records: usize,
}

impl<R: Record> SubsetMergeFunctor<R> {
    /// A γ₁-way subset merge over `splitters.len() + 1` subsets.
    pub fn new(splitters: Vec<R::Key>, gamma1: usize) -> Self {
        assert!(gamma1 >= 1, "γ₁ must be positive");
        let alpha = splitters.len() + 1;
        SubsetMergeFunctor {
            splitters,
            gamma1,
            buffers: (0..alpha).map(|_| Vec::new()).collect(),
            buffered_records: 0,
        }
    }

    /// Number of subsets α.
    pub fn alpha(&self) -> usize {
        self.buffers.len()
    }

    fn subset_of(&self, p: &Packet<R>) -> usize {
        let key = p.records()[0].key();
        let b = bucket_of(key, &self.splitters);
        debug_assert!(
            p.records().iter().all(|r| bucket_of(r.key(), &self.splitters) == b),
            "run spans subsets"
        );
        b
    }

    fn merge_subset(&mut self, b: usize, out: &mut Emit<R>) {
        let runs = std::mem::take(&mut self.buffers[b]);
        let m: usize = runs.iter().map(Packet::len).sum();
        self.buffered_records -= m;
        merge_packets(&runs, m, |p| out.push(b, p));
    }
}

impl<R: Record> Functor<R> for SubsetMergeFunctor<R> {
    fn name(&self) -> String {
        format!("asu-merge(γ1={}, α={})", self.gamma1, self.alpha())
    }
    fn out_ports(&self) -> usize {
        self.alpha()
    }
    fn kind(&self) -> FunctorKind {
        // Bounded by α·γ₁ run buffers; the live figure is checked
        // dynamically through state_bytes().
        FunctorKind::VerifiedKernel {
            max_state_bytes: usize::MAX,
        }
    }
    fn process(&mut self, input: Packet<R>, out: &mut Emit<R>) {
        if input.is_empty() {
            return;
        }
        debug_assert!(input.is_sorted(), "merge input must be a sorted run");
        let b = self.subset_of(&input);
        self.buffered_records += input.len();
        self.buffers[b].push(input);
        if self.buffers[b].len() == self.gamma1 {
            self.merge_subset(b, out);
        }
    }
    fn flush(&mut self, out: &mut Emit<R>) {
        for b in 0..self.buffers.len() {
            if !self.buffers[b].is_empty() {
                self.merge_subset(b, out);
            }
        }
    }
    fn cost(&self, input: &Packet<R>) -> Work {
        if input.is_empty() {
            return Work::ZERO;
        }
        let b = bucket_of(input.records()[0].key(), &self.splitters);
        if self.buffers[b].len() + 1 == self.gamma1 {
            let m: usize = self.buffers[b].iter().map(Packet::len).sum::<usize>() + input.len();
            Work::compares(m as u64 * log2_ceil(self.gamma1 as u64))
                + Work::moves(m as u64)
        } else {
            Work::moves(input.len() as u64)
        }
    }
    fn flush_cost(&self) -> Work {
        let mut w = Work::ZERO;
        for runs in &self.buffers {
            let m: usize = runs.iter().map(Packet::len).sum();
            w += Work::compares(m as u64 * log2_ceil(runs.len() as u64))
                + Work::moves(m as u64);
        }
        w
    }
    fn state_bytes(&self) -> usize {
        self.buffered_records * R::SIZE
    }
    fn read_ahead_hint(&self) -> usize {
        // A γ₁-way merge consumes one run from each of γ₁ streams per
        // output run: staging up to γ₁ input packets keeps the media
        // ahead of the merge loop (capped — deep windows waste frames).
        self.gamma1.clamp(1, 8)
    }
}

/// Host-side final merge: buffers all runs, k-way merges at flush, and
/// emits the sorted result in stripe-sized packets.
pub struct FullMergeFunctor<R: Record> {
    declared_gamma2: usize,
    stripe_records: usize,
    runs: Vec<Packet<R>>,
    buffered_records: usize,
}

impl<R: Record> FullMergeFunctor<R> {
    /// A final merge declaring fan-in bound `gamma2`, striping output in
    /// `stripe_records`-record packets.
    pub fn new(gamma2: usize, stripe_records: usize) -> Self {
        assert!(gamma2 >= 1, "γ₂ must be positive");
        assert!(stripe_records >= 1, "stripe must be positive");
        FullMergeFunctor {
            declared_gamma2: gamma2,
            stripe_records,
            runs: Vec::new(),
            buffered_records: 0,
        }
    }
}

impl<R: Record> Functor<R> for FullMergeFunctor<R> {
    fn name(&self) -> String {
        format!("host-merge(γ2={})", self.declared_gamma2)
    }
    fn kind(&self) -> FunctorKind {
        FunctorKind::HostOnly
    }
    fn process(&mut self, input: Packet<R>, _out: &mut Emit<R>) {
        if input.is_empty() {
            return;
        }
        debug_assert!(input.is_sorted(), "merge input must be a sorted run");
        self.buffered_records += input.len();
        self.runs.push(input);
    }
    fn flush(&mut self, out: &mut Emit<R>) {
        if self.runs.is_empty() {
            return;
        }
        let k = self.runs.len();
        debug_assert!(
            k <= self.declared_gamma2,
            "fan-in {k} exceeds declared γ₂ = {}: configuration under-provisioned",
            self.declared_gamma2
        );
        let runs = std::mem::take(&mut self.runs);
        self.buffered_records = 0;
        merge_packets(&runs, self.stripe_records, |p| out.push0(p));
    }
    fn cost(&self, input: &Packet<R>) -> Work {
        Work::moves(input.len() as u64)
    }
    fn flush_cost(&self) -> Work {
        let m = self.buffered_records as u64;
        Work::compares(m * log2_ceil(self.runs.len() as u64)) + Work::moves(m)
    }
    fn state_bytes(&self) -> usize {
        self.buffered_records * R::SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmas_core::Rec8;

    fn run_pkt(keys: &[u32]) -> Packet<Rec8> {
        let mut v: Vec<Rec8> = keys.iter().map(|&k| Rec8 { key: k, tag: k }).collect();
        v.sort_by_key(|r| r.key);
        Packet::new(v)
    }

    #[test]
    fn subset_merge_separates_subsets() {
        // Splitter 100: subset 0 < 100 <= subset 1.
        let mut f = SubsetMergeFunctor::<Rec8>::new(vec![100], 2);
        assert_eq!(f.alpha(), 2);
        assert_eq!(<SubsetMergeFunctor<Rec8> as Functor<Rec8>>::out_ports(&f), 2);
        let mut e = Emit::new(2);
        f.process(run_pkt(&[1, 5]), &mut e);
        f.process(run_pkt(&[200, 300]), &mut e);
        f.process(run_pkt(&[2, 7]), &mut e); // second run of subset 0 → merge
        let got = e.take();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 0, "emitted on subset 0's port");
        assert_eq!(
            got[0].1.records().iter().map(|r| r.key).collect::<Vec<_>>(),
            [1, 2, 5, 7]
        );
        // Flush releases the lone run of subset 1.
        let mut e2 = Emit::new(2);
        f.flush(&mut e2);
        let got2 = e2.take();
        assert_eq!(got2.len(), 1);
        assert_eq!(got2[0].0, 1);
        assert_eq!(f.state_bytes(), 0);
    }

    #[test]
    fn subset_merge_cost_prices_triggering_run() {
        let mut f = SubsetMergeFunctor::<Rec8>::new(vec![100], 2);
        let r1 = run_pkt(&[1, 2]);
        assert_eq!(f.cost(&r1).compares, 0);
        let mut e = Emit::new(2);
        f.process(r1, &mut e);
        let r2 = run_pkt(&[3, 4]);
        assert_eq!(f.cost(&r2).compares, 4, "4 records × log2(γ1=2)");
    }

    #[test]
    fn full_merge_buffers_then_stripes() {
        let mut f = FullMergeFunctor::<Rec8>::new(8, 3);
        let mut e = Emit::new(1);
        f.process(run_pkt(&[1, 4, 7]), &mut e);
        f.process(run_pkt(&[2, 5, 8]), &mut e);
        f.process(run_pkt(&[0, 3, 6]), &mut e);
        assert!(e.is_empty(), "nothing until flush");
        assert_eq!(f.state_bytes(), 9 * 8);
        f.flush(&mut e);
        let got = e.take();
        assert_eq!(got.len(), 3, "9 records in stripes of 3");
        let all: Vec<u32> = got
            .iter()
            .flat_map(|(_, p)| p.records().iter().map(|r| r.key))
            .collect();
        assert_eq!(all, (0..9).collect::<Vec<u32>>());
    }

    #[test]
    fn full_merge_flush_on_empty_is_noop() {
        let mut f = FullMergeFunctor::<Rec8>::new(4, 10);
        let mut e = Emit::new(1);
        f.flush(&mut e);
        assert!(e.is_empty());
    }

    #[test]
    fn subset_merge_flush_cost_covers_all_buffers() {
        let mut f = SubsetMergeFunctor::<Rec8>::new(vec![100], 4);
        let mut e = Emit::new(2);
        f.process(run_pkt(&[1, 2]), &mut e);
        f.process(run_pkt(&[200]), &mut e);
        f.process(run_pkt(&[3]), &mut e);
        let fc = f.flush_cost();
        // Subset 0: 3 records × log2(2 runs) = 3; subset 1: 1 × log2(1) = 0.
        assert_eq!(fc.compares, 3);
        assert_eq!(fc.record_moves, 4);
    }

    #[test]
    fn empty_packets_ignored() {
        let mut f = SubsetMergeFunctor::<Rec8>::new(vec![100], 2);
        let mut e = Emit::new(2);
        f.process(Packet::new(vec![]), &mut e);
        assert_eq!(f.cost(&Packet::new(vec![])), Work::ZERO);
        assert!(e.is_empty());
    }
}
