//! Property tests for the simulation kernel's ordering and accounting
//! invariants.

use lmas_sim::{DetRng, EventQueue, Resource, SimDuration, SimTime, UtilizationLedger};
use proptest::prelude::*;

proptest! {
    /// The calendar is a total order: pops are sorted by time, and ties
    /// preserve scheduling order.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO among ties");
            }
        }
    }

    /// FCFS resource: grants never overlap, never start before request,
    /// and total busy time equals the sum of service times.
    #[test]
    fn resource_grants_are_serial_and_conserve_time(
        reqs in prop::collection::vec((0u64..10_000, 0u64..500), 1..100),
    ) {
        let mut r = Resource::new(SimDuration(1_000));
        let mut reqs = reqs;
        reqs.sort_by_key(|&(t, _)| t);
        let mut prev_end = SimTime::ZERO;
        let mut service_sum = 0u64;
        for &(t, s) in &reqs {
            let g = r.acquire(SimTime(t), SimDuration(s));
            prop_assert!(g.start >= SimTime(t), "no service before request");
            prop_assert!(g.start >= prev_end, "no overlap");
            prop_assert_eq!(g.end.since(g.start), SimDuration(s));
            prev_end = g.end;
            service_sum += s;
        }
        prop_assert_eq!(r.total_busy(), SimDuration(service_sum));
        prop_assert_eq!(r.grants(), reqs.len() as u64);
    }

    /// The utilization ledger conserves busy time across bins.
    #[test]
    fn ledger_conserves_busy_time(
        intervals in prop::collection::vec((0u64..10_000, 0u64..500), 0..50),
        bin in 1u64..1_000,
    ) {
        let mut l = UtilizationLedger::new(SimDuration(bin));
        let mut total = 0u64;
        let mut horizon = 0u64;
        for &(start, len) in &intervals {
            l.add_busy(SimTime(start), SimTime(start + len));
            total += len;
            horizon = horizon.max(start + len);
        }
        prop_assert_eq!(l.total_busy(), SimDuration(total));
        let series = l.series(SimTime(horizon));
        let series_sum: f64 = series.iter().sum::<f64>() * bin as f64;
        prop_assert!((series_sum - total as f64).abs() < 1e-6 * (total.max(1) as f64) + 1e-6);
    }

    /// Differential model check: the calendar agrees with a naive
    /// `BinaryHeap` of full keys under arbitrary interleavings of
    /// `schedule` (key `(time, 0, seq)`), explicit-key `push` (what a
    /// partition does), pop, and horizon-bounded pop. Timestamps come
    /// from a tiny range so same-instant ties — and the FIFO fast lane
    /// behind them — are exercised constantly, and explicit keys land
    /// above, below and between the lane's.
    #[test]
    fn event_queue_matches_reference_model(
        ops in prop::collection::vec((0u8..6, 0u64..8, any::<u16>()), 1..400),
    ) {
        use lmas_sim::EventKey;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut q: EventQueue<usize> = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(EventKey, usize)>> = BinaryHeap::new();
        let mut next_seq = 0u64;

        fn model_pop(
            model: &mut BinaryHeap<Reverse<(EventKey, usize)>>,
            horizon: u64,
        ) -> Option<(EventKey, usize)> {
            let &Reverse((key, _)) = model.peek()?;
            if key.at.as_nanos() > horizon {
                return None;
            }
            model.pop().map(|Reverse(e)| e)
        }

        for (id, &(kind, t, sel)) in ops.iter().enumerate() {
            match kind {
                0 | 1 => {
                    q.schedule(SimTime(t), id);
                    model.push(Reverse((EventKey { at: SimTime(t), sched: 0, packed: next_seq }, id)));
                    next_seq += 1;
                }
                2 | 3 => {
                    // `sched` from 0..4 ties with and brackets other keys;
                    // the id in `packed` (above any seq) keeps keys unique.
                    let key = EventKey {
                        at: SimTime(t),
                        sched: u64::from(sel % 4),
                        packed: (1 << 32) | id as u64,
                    };
                    q.push(key, id);
                    model.push(Reverse((key, id)));
                }
                4 => prop_assert_eq!(
                    q.pop(),
                    model_pop(&mut model, u64::MAX).map(|(key, id)| (key.at, id))
                ),
                _ => prop_assert_eq!(q.pop_not_after(SimTime(t)), model_pop(&mut model, t)),
            }
            prop_assert_eq!(q.live_len(), model.len());
            prop_assert_eq!(q.peek_time(), model.peek().map(|Reverse((key, _))| key.at));
        }
        // Drain both; the remaining sequences must agree one-for-one.
        loop {
            let want = model_pop(&mut model, u64::MAX);
            prop_assert_eq!(q.pop_not_after(SimTime::NEVER), want);
            if want.is_none() {
                break;
            }
        }
        prop_assert!(q.is_empty());
    }

    /// Derived RNG streams are reproducible and stream-independent.
    #[test]
    fn rng_streams_reproducible(seed in any::<u64>(), a in 0u64..1_000, b in 0u64..1_000) {
        let xs: Vec<u64> = { let mut r = DetRng::stream(seed, a); (0..16).map(|_| r.next_u64()).collect() };
        let ys: Vec<u64> = { let mut r = DetRng::stream(seed, a); (0..16).map(|_| r.next_u64()).collect() };
        prop_assert_eq!(&xs, &ys);
        if a != b {
            let zs: Vec<u64> = { let mut r = DetRng::stream(seed, b); (0..16).map(|_| r.next_u64()).collect() };
            prop_assert_ne!(xs, zs);
        }
    }
}
