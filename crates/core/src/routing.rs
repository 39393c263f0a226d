//! Routing policies: how records flow across replicated functor instances.
//!
//! Section 3.3: "sets and replicated functors allow ASUs and host nodes to
//! perform dataflow routing between functors intelligently. The routing of
//! records across functor instances may be responsive to dynamic load
//! conditions visible to the system. In some cases, randomized routing
//! techniques like simple randomization (SR) may reduce data dependencies
//! and interference…"
//!
//! - [`RoutingPolicy::Static`] pins each source port (e.g. each distribute
//!   subset) to a fixed instance — the *no load control* baseline of
//!   Figure 10.
//! - [`RoutingPolicy::RoundRobin`] cycles instances.
//! - [`RoutingPolicy::SimpleRandomization`] picks uniformly at random —
//!   the SR policy of Vitter–Hutchinson the paper cites, and the
//!   *load-managed* configuration of Figure 10.
//! - [`RoutingPolicy::LoadAware`] picks the least-loaded instance by
//!   observed backlog, breaking ties by static capacity weight.
//! - [`RoutingPolicy::PowerOfTwoChoices`] samples two candidates at
//!   random and keeps the one with less backlog — the classic
//!   load-balancing compromise between SR's obliviousness and
//!   LoadAware's full scan.
//!
//! The runtime load balancer (emulator `balance` module) feeds per-edge
//! *weights* through [`Router::pick_routed`]: a weight scales an
//! instance's attractiveness, and weight `0.0` excludes the instance
//! outright — even when every other replica is masked down, a
//! zero-weight replica is never chosen (the router returns `None`
//! instead of silently falling back).

use lmas_sim::DetRng;

/// Per-instance liveness, as seen by a router (a *detected* view: a
/// failure detector may lag reality).
///
/// [`UpMask::All`] is the fault-free fast path — every policy makes
/// exactly the decisions (and RNG draws) it made before masks existed,
/// so enabling the fault layer with no faults perturbs nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpMask {
    /// Every instance is live.
    All,
    /// Explicit liveness bitset; bit `i` of word `i / 64` is instance `i`.
    /// Indices beyond the stored words read as down.
    Bits(Vec<u64>),
}

impl UpMask {
    /// The fault-free mask.
    pub fn all() -> UpMask {
        UpMask::All
    }

    /// Build an explicit mask over `n` instances from a predicate.
    pub fn from_fn(n: usize, f: impl Fn(usize) -> bool) -> UpMask {
        let mut words = vec![0u64; n.div_ceil(64)];
        for (i, word) in words.iter_mut().enumerate() {
            for b in 0..64 {
                let idx = i * 64 + b;
                if idx < n && f(idx) {
                    *word |= 1u64 << b;
                }
            }
        }
        UpMask::Bits(words)
    }

    /// Is instance `i` live?
    pub fn is_up(&self, i: usize) -> bool {
        match self {
            UpMask::All => true,
            UpMask::Bits(words) => {
                words.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
            }
        }
    }

    /// How many of the first `n` instances are live.
    pub fn count_up(&self, n: usize) -> usize {
        match self {
            UpMask::All => n,
            UpMask::Bits(_) => (0..n).filter(|&i| self.is_up(i)).count(),
        }
    }
}

/// Which routing rule an edge uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Port `p` always goes to instance `p mod n`.
    Static,
    /// Cycle through instances.
    RoundRobin,
    /// Uniformly random instance (SR).
    SimpleRandomization,
    /// Least backlog wins; ties to the higher-capacity, then lower index.
    LoadAware,
    /// Sample two instances uniformly at random, keep the one with less
    /// normalized backlog (ties to the lower index).
    PowerOfTwoChoices,
}

/// Stateful router for one edge.
#[derive(Debug, Clone)]
pub struct Router {
    policy: RoutingPolicy,
    rr_next: usize,
    rng: DetRng,
}

impl Router {
    /// A router applying `policy`, with a deterministic RNG stream for
    /// randomized policies. Round-robin starts at an offset derived from
    /// `stream` so that many single-emission senders sharing an edge
    /// (e.g. one run per block-sort instance) stripe across destinations
    /// instead of all hitting instance 0.
    pub fn new(policy: RoutingPolicy, seed: u64, stream: u64) -> Router {
        Router {
            policy,
            rr_next: stream as usize,
            rng: DetRng::stream(seed, stream),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Choose a destination among `n` instances: the ones `up` marks
    /// live and `weights` (set by the runtime load balancer) leaves
    /// eligible.
    ///
    /// * `port` — the source port the packet left on (static hint);
    /// * `backlog` — per-instance observed load (e.g. queued work in ns);
    ///   empty when unknown;
    /// * `capacity` — per-instance static capacity weights; empty when
    ///   homogeneous;
    /// * `weights` — per-instance routing weights. Instances beyond the
    ///   slice default to `1.0`, so an empty slice means "unweighted" and
    ///   a balancer that never re-weights perturbs nothing. Weight `0.0`
    ///   (or negative) makes an instance ineligible — it is never picked,
    ///   even when every other replica is masked down.
    ///
    /// Semantics per policy:
    ///
    /// * **Static** — the pinned instance `port % n`, or the next
    ///   eligible index (wrapping linear probe) when it is not;
    /// * **RoundRobin** — advances the cursor past ineligible instances;
    /// * **SimpleRandomization** — proportional to weight over the
    ///   eligible instances; unweighted, uniform over the live ones;
    /// * **LoadAware** — least backlog divided by `capacity × weight`
    ///   among the eligible instances, so a heavier weight absorbs
    ///   proportionally more traffic and a down instance can never win;
    /// * **PowerOfTwoChoices** — both samples are drawn among the
    ///   eligible instances only, compared on the same normalized load.
    ///
    /// Returns `None` when no instance is eligible (including `n == 0`) —
    /// a typed "nowhere to route" the caller must surface (e.g. as
    /// `JobError::AllReplicasDown`) rather than a silent fallback or a
    /// process abort.
    pub fn pick_routed(
        &mut self,
        n: usize,
        port: usize,
        backlog: &[u64],
        capacity: &[f64],
        weights: &[f64],
        up: &UpMask,
    ) -> Option<usize> {
        if n == 0 {
            return None;
        }
        let w = |i: usize| weights.get(i).copied().unwrap_or(1.0);
        let eligible = |i: usize| up.is_up(i) && w(i) > 0.0;
        match self.policy {
            RoutingPolicy::Static => {
                let pinned = port % n;
                (0..n).map(|d| (pinned + d) % n).find(|&i| eligible(i))
            }
            RoutingPolicy::RoundRobin => {
                for _ in 0..n {
                    let i = self.rr_next % n;
                    self.rr_next = self.rr_next.wrapping_add(1);
                    if eligible(i) {
                        return Some(i);
                    }
                }
                None
            }
            // Three draw shapes, not one: the goldens pin the exact RNG
            // draws of the two unweighted ones.
            RoutingPolicy::SimpleRandomization => match (weights, up) {
                ([], UpMask::All) => Some(self.rng.gen_index(n)),
                ([], UpMask::Bits(_)) => {
                    let live = up.count_up(n);
                    if live == 0 {
                        return None;
                    }
                    let k = self.rng.gen_index(live);
                    (0..n).filter(|&i| up.is_up(i)).nth(k)
                }
                _ => {
                    let total: f64 =
                        (0..n).filter(|&i| eligible(i)).map(w).sum();
                    if total <= 0.0 || !total.is_finite() {
                        return None;
                    }
                    let mut x = self.rng.gen_f64() * total;
                    let mut last = None;
                    for i in (0..n).filter(|&i| eligible(i)) {
                        last = Some(i);
                        x -= w(i);
                        if x < 0.0 {
                            break;
                        }
                    }
                    last
                }
            },
            RoutingPolicy::LoadAware => {
                let score = |i: usize| {
                    normalized_load(i, backlog, capacity, weights)
                };
                let capw = |i: usize| {
                    capacity.get(i).copied().unwrap_or(1.0) * w(i)
                };
                // Ties to larger capacity, then lower index for
                // determinism.
                (0..n).filter(|&i| eligible(i)).min_by(|&a, &b| {
                    score(a)
                        .total_cmp(&score(b))
                        .then(capw(b).total_cmp(&capw(a)))
                        .then(a.cmp(&b))
                })
            }
            RoutingPolicy::PowerOfTwoChoices => {
                let live: Vec<usize> =
                    (0..n).filter(|&i| eligible(i)).collect();
                self.two_choices(&live, backlog, capacity, weights)
            }
        }
    }

    /// Two uniform samples among `live`, lower normalized backlog wins
    /// (ties to the lower instance index). Always burns exactly two RNG
    /// draws when any instance is live, so the stream stays aligned
    /// regardless of how many candidates remain.
    fn two_choices(
        &mut self,
        live: &[usize],
        backlog: &[u64],
        capacity: &[f64],
        weights: &[f64],
    ) -> Option<usize> {
        if live.is_empty() {
            return None;
        }
        let a = live[self.rng.gen_index(live.len())];
        let b = live[self.rng.gen_index(live.len())];
        let la = normalized_load(a, backlog, capacity, weights);
        let lb = normalized_load(b, backlog, capacity, weights);
        match la.total_cmp(&lb) {
            std::cmp::Ordering::Greater => Some(b),
            std::cmp::Ordering::Less => Some(a),
            std::cmp::Ordering::Equal => Some(a.min(b)),
        }
    }
}

/// Backlog of instance `i` normalized by `capacity × weight`; a
/// non-positive or non-finite divisor reads as infinite load so the
/// instance can never win a comparison (and 0-backlog/0-capacity can
/// never produce a NaN that would poison the ordering).
fn normalized_load(
    i: usize,
    backlog: &[u64],
    capacity: &[f64],
    weights: &[f64],
) -> f64 {
    let cap = capacity.get(i).copied().unwrap_or(1.0);
    let w = weights.get(i).copied().unwrap_or(1.0);
    let div = cap * w;
    if div > 0.0 && div.is_finite() {
        backlog.get(i).copied().unwrap_or(0) as f64 / div
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unweighted call shapes most of these tests use.
    impl Router {
        fn pick(
            &mut self,
            n: usize,
            port: usize,
            backlog: &[u64],
            capacity: &[f64],
        ) -> Option<usize> {
            self.pick_routed(n, port, backlog, capacity, &[], &UpMask::All)
        }

        fn pick_available(
            &mut self,
            n: usize,
            port: usize,
            backlog: &[u64],
            capacity: &[f64],
            up: &UpMask,
        ) -> Option<usize> {
            self.pick_routed(n, port, backlog, capacity, &[], up)
        }
    }

    #[test]
    fn static_pins_port_to_instance() {
        let mut r = Router::new(RoutingPolicy::Static, 0, 0);
        assert_eq!(r.pick(2, 0, &[], &[]), Some(0));
        assert_eq!(r.pick(2, 1, &[], &[]), Some(1));
        assert_eq!(r.pick(2, 5, &[], &[]), Some(1));
        // Repeated picks are stable.
        assert_eq!(r.pick(2, 5, &[], &[]), Some(1));
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = Router::new(RoutingPolicy::RoundRobin, 0, 0);
        let picks: Vec<Option<usize>> = (0..6).map(|_| r.pick(3, 0, &[], &[])).collect();
        let want: Vec<Option<usize>> = [0, 1, 2, 0, 1, 2].into_iter().map(Some).collect();
        assert_eq!(picks, want);
    }

    #[test]
    fn sr_is_uniformish_and_deterministic() {
        let mut r1 = Router::new(RoutingPolicy::SimpleRandomization, 9, 1);
        let mut r2 = Router::new(RoutingPolicy::SimpleRandomization, 9, 1);
        let picks1: Vec<usize> =
            (0..3000).map(|_| r1.pick(3, 0, &[], &[]).unwrap()).collect();
        let picks2: Vec<usize> =
            (0..3000).map(|_| r2.pick(3, 0, &[], &[]).unwrap()).collect();
        assert_eq!(picks1, picks2, "same seed, same stream");
        let mut counts = [0usize; 3];
        for p in picks1 {
            counts[p] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "skewed SR: {counts:?}");
        }
    }

    #[test]
    fn load_aware_prefers_least_backlog() {
        let mut r = Router::new(RoutingPolicy::LoadAware, 0, 0);
        assert_eq!(r.pick(3, 0, &[50, 10, 90], &[]), Some(1));
        // Tie on backlog → lower index.
        assert_eq!(r.pick(3, 0, &[10, 10, 90], &[]), Some(0));
        // Missing backlog info defaults to 0 → picks index 0.
        assert_eq!(r.pick(3, 0, &[], &[]), Some(0));
    }

    #[test]
    fn load_aware_normalizes_by_capacity() {
        let mut r = Router::new(RoutingPolicy::LoadAware, 0, 0);
        // Instance 1 is 4× faster; backlog 30 on it is "shorter" than 10
        // on the slow one.
        assert_eq!(r.pick(2, 0, &[10, 30], &[1.0, 4.0]), Some(1));
        // Equal normalized load → higher capacity wins.
        assert_eq!(r.pick(2, 0, &[10, 40], &[1.0, 4.0]), Some(1));
    }

    #[test]
    fn zero_instances_yields_none_not_panic() {
        let mut r = Router::new(RoutingPolicy::Static, 0, 0);
        assert_eq!(r.pick(0, 0, &[], &[]), None);
        assert_eq!(r.pick_available(0, 0, &[], &[], &UpMask::All), None);
    }

    #[test]
    fn up_mask_bit_accounting() {
        let m = UpMask::from_fn(70, |i| i % 3 != 0);
        for i in 0..70 {
            assert_eq!(m.is_up(i), i % 3 != 0, "bit {i}");
        }
        assert_eq!(m.count_up(70), 46);
        // Indices past the stored words read as down.
        assert!(!m.is_up(128));
        assert_eq!(UpMask::All.count_up(5), 5);
        assert!(UpMask::All.is_up(12345));
    }

    /// Every policy, three masks: all up / one down / all down.
    #[test]
    fn failover_semantics_per_policy() {
        let all = UpMask::all();
        let one_down = UpMask::from_fn(3, |i| i != 1); // instance 1 dead
        let all_down = UpMask::from_fn(3, |_| false);

        // Static: pinned while up; wrapping probe to next live when down.
        let mut r = Router::new(RoutingPolicy::Static, 0, 0);
        assert_eq!(r.pick_available(3, 1, &[], &[], &all), Some(1));
        assert_eq!(r.pick_available(3, 1, &[], &[], &one_down), Some(2));
        assert_eq!(r.pick_available(3, 4, &[], &[], &one_down), Some(2));
        assert_eq!(r.pick_available(3, 2, &[], &[], &one_down), Some(2));
        assert_eq!(r.pick_available(3, 1, &[], &[], &all_down), None);

        // RoundRobin: cursor skips the dead instance but keeps cycling.
        let mut r = Router::new(RoutingPolicy::RoundRobin, 0, 0);
        let picks: Vec<Option<usize>> = (0..4)
            .map(|_| r.pick_available(3, 0, &[], &[], &one_down))
            .collect();
        assert_eq!(picks, [Some(0), Some(2), Some(0), Some(2)]);
        assert_eq!(r.pick_available(3, 0, &[], &[], &all_down), None);
        let mut r = Router::new(RoutingPolicy::RoundRobin, 0, 0);
        assert_eq!(r.pick_available(3, 0, &[], &[], &all), Some(0));

        // SR: never picks a dead instance.
        let mut masked = Router::new(RoutingPolicy::SimpleRandomization, 9, 1);
        let mut hit = [0usize; 3];
        for _ in 0..600 {
            let p = masked
                .pick_available(3, 0, &[], &[], &one_down)
                .expect("live instances exist");
            hit[p] += 1;
        }
        assert_eq!(hit[1], 0, "dead instance picked");
        assert!(hit[0] > 100 && hit[2] > 100, "skewed failover SR: {hit:?}");
        assert_eq!(masked.pick_available(3, 0, &[], &[], &all_down), None);

        // LoadAware: a dead instance loses even with zero backlog.
        let mut r = Router::new(RoutingPolicy::LoadAware, 0, 0);
        assert_eq!(r.pick_available(3, 0, &[50, 0, 90], &[], &all), Some(1));
        assert_eq!(
            r.pick_available(3, 0, &[50, 0, 90], &[], &one_down),
            Some(0)
        );
        assert_eq!(r.pick_available(3, 0, &[50, 0, 90], &[], &all_down), None);

        // PowerOfTwoChoices: never samples a dead instance.
        let mut r = Router::new(RoutingPolicy::PowerOfTwoChoices, 9, 1);
        for _ in 0..300 {
            let p = r
                .pick_available(3, 0, &[5, 5, 5], &[], &one_down)
                .expect("live instances exist");
            assert_ne!(p, 1, "dead instance sampled");
        }
        assert_eq!(r.pick_available(3, 0, &[], &[], &all_down), None);
    }

    #[test]
    fn load_aware_survives_zero_and_nan_capacity() {
        let mut r = Router::new(RoutingPolicy::LoadAware, 0, 0);
        // Zero capacity with zero backlog used to compute 0/0 = NaN and
        // abort inside the comparator; it must instead read as infinitely
        // loaded and lose to any sane instance.
        assert_eq!(r.pick(2, 0, &[0, 10], &[0.0, 1.0]), Some(1));
        assert_eq!(r.pick(2, 0, &[0, 0], &[f64::NAN, 1.0]), Some(1));
        // All instances broken: a deterministic answer, not a panic.
        assert_eq!(r.pick(2, 0, &[0, 0], &[0.0, 0.0]), Some(0));
    }

    #[test]
    fn two_choices_prefers_less_loaded_and_is_deterministic() {
        let mut r1 = Router::new(RoutingPolicy::PowerOfTwoChoices, 7, 2);
        let mut r2 = Router::new(RoutingPolicy::PowerOfTwoChoices, 7, 2);
        let p1: Vec<_> =
            (0..500).map(|_| r1.pick(4, 0, &[0, 100, 100, 100], &[])).collect();
        let p2: Vec<_> =
            (0..500).map(|_| r2.pick(4, 0, &[0, 100, 100, 100], &[])).collect();
        assert_eq!(p1, p2, "same seed, same stream");
        // Instance 0 is idle: it wins every duel it is sampled into, so
        // it must collect well over its uniform 1/4 share.
        let zero_share =
            p1.iter().filter(|&&p| p == Some(0)).count();
        assert!(zero_share > 200, "idle instance underused: {zero_share}");
        // Single instance still resolves.
        let mut r = Router::new(RoutingPolicy::PowerOfTwoChoices, 7, 2);
        assert_eq!(r.pick(1, 0, &[], &[]), Some(0));
    }

    /// Pick sequences recorded at the commit before the three entry
    /// points were folded into one: FNV-1a over 200 picks per policy ×
    /// mask × weighting. Unit weights must route exactly as no weights
    /// do; SimpleRandomization alone is excused, because it draws a
    /// float when weighted and an index when not.
    #[test]
    fn pick_sequences_match_recorded_golden() {
        // Columns: no weights, unit weights, skewed weights.
        const GOLDEN: [(RoutingPolicy, [[u64; 3]; 2]); 5] = [
            (
                RoutingPolicy::Static,
                [
                    [0x74be2a12d3cc7ae5, 0x74be2a12d3cc7ae5, 0x74be2a12d3cc7ae5],
                    [0xc0fa27131ea8028d, 0xc0fa27131ea8028d, 0xc0fa27131ea8028d],
                ],
            ),
            (
                RoutingPolicy::RoundRobin,
                [
                    [0x48857fb505788925, 0x48857fb505788925, 0x48857fb505788925],
                    [0xc4adebbf88aaa6a5, 0xc4adebbf88aaa6a5, 0xc4adebbf88aaa6a5],
                ],
            ),
            (
                RoutingPolicy::SimpleRandomization,
                [
                    [0x1d477ecf97193ec2, 0x1d477ecf97193ec2, 0x5549c166d58d59f3],
                    [0x1f965ec7bba7b6a1, 0x1f965ec7bba7b6a1, 0xee9c95d80cb9d28a],
                ],
            ),
            (
                RoutingPolicy::LoadAware,
                [
                    [0xa79ffab8eb520579, 0xa79ffab8eb520579, 0x13df72106eb75af7],
                    [0x12086a8834d27379, 0x12086a8834d27379, 0x5c6c34e2f49425f9],
                ],
            ),
            (
                RoutingPolicy::PowerOfTwoChoices,
                [
                    [0xb24b5cf2575dfeec, 0xb24b5cf2575dfeec, 0x10cb168c0d1c8ca2],
                    [0x87a13c76e04cefc2, 0x87a13c76e04cefc2, 0x2c2dca20d8660886],
                ],
            ),
        ];
        // All up / instance 2 down.
        let masks = [UpMask::all(), UpMask::from_fn(5, |i| i != 2)];
        let weightings: [&[f64]; 3] =
            [&[], &[1.0; 5], &[1.0, 3.0, 0.5, 2.0, 0.25]];
        for (policy, want) in GOLDEN {
            for (mask, want_row) in masks.iter().zip(want) {
                let row = weightings.map(|weights| {
                    let mut r = Router::new(policy, 11, 3);
                    (0..200).fold(0xcbf2_9ce4_8422_2325u64, |h, port| {
                        let p = port as u64;
                        let backlog = [p % 7, 3, p * 5 % 11, 5, p % 3];
                        let pick = r
                            .pick_routed(5, port, &backlog, &[], weights, mask)
                            .expect("a live replica exists");
                        (h ^ pick as u64).wrapping_mul(0x0000_0100_0000_01b3)
                    })
                });
                assert_eq!(row, want_row, "{policy:?} under {mask:?}: got {row:#018x?}");
                if policy != RoutingPolicy::SimpleRandomization {
                    assert_eq!(row[0], row[1], "{policy:?}: unit weights moved a pick");
                }
            }
        }
    }

    /// Zero-weight replicas are never picked, even when every positive-
    /// weight replica is masked down — `None`, not a silent fallback.
    #[test]
    fn zero_weight_never_picked_across_policies() {
        let policies = [
            RoutingPolicy::Static,
            RoutingPolicy::RoundRobin,
            RoutingPolicy::SimpleRandomization,
            RoutingPolicy::LoadAware,
            RoutingPolicy::PowerOfTwoChoices,
        ];
        // Weight 0 on instance 1; mask kills instances 0 and 2.
        let weights = [1.0, 0.0, 1.0];
        let others_down = UpMask::from_fn(3, |i| i == 1);
        let all_zero = [0.0, 0.0, 0.0];
        for policy in policies {
            let mut r = Router::new(policy, 5, 0);
            for port in 0..20 {
                assert_eq!(
                    r.pick_routed(3, port, &[], &[], &weights, &others_down),
                    None,
                    "{policy:?} fell back to a zero-weight replica"
                );
                assert_eq!(
                    r.pick_routed(3, port, &[], &[], &all_zero, &UpMask::all()),
                    None,
                    "{policy:?} picked from an all-zero weighting"
                );
            }
            // The zero-weight instance is skipped while healthy peers
            // exist…
            let mut r = Router::new(policy, 5, 0);
            for port in 0..200 {
                let p = r
                    .pick_routed(3, port, &[1, 1, 1], &[], &weights, &UpMask::all())
                    .expect("positive-weight replicas exist");
                assert_ne!(p, 1, "{policy:?} picked the zero-weight replica");
            }
            // …and weights compose with the mask: weight selects among
            // the live instances only.
            let mut r = Router::new(policy, 5, 0);
            let up0_only = UpMask::from_fn(3, |i| i == 0);
            for port in 0..20 {
                assert_eq!(
                    r.pick_routed(3, port, &[], &[], &weights, &up0_only),
                    Some(0),
                    "{policy:?} ignored the mask under weights"
                );
            }
        }
    }

    #[test]
    fn weighted_sr_skews_toward_heavy_weight() {
        let mut r =
            Router::new(RoutingPolicy::SimpleRandomization, 13, 4);
        let weights = [1.0, 3.0];
        let mut hit = [0usize; 2];
        for _ in 0..4000 {
            let p = r
                .pick_routed(2, 0, &[], &[], &weights, &UpMask::all())
                .unwrap();
            hit[p] += 1;
        }
        // Expected 1000 / 3000 split; allow generous slack.
        assert!(hit[1] > 2 * hit[0], "weighted SR not skewed: {hit:?}");
        assert!(hit[0] > 500, "light replica starved: {hit:?}");
    }

    #[test]
    fn weighted_load_aware_divides_backlog_by_weight() {
        let mut r = Router::new(RoutingPolicy::LoadAware, 0, 0);
        // Backlog 30 at weight 4 (norm 7.5) beats backlog 10 at
        // weight 1 (norm 10).
        assert_eq!(
            r.pick_routed(2, 0, &[10, 30], &[], &[1.0, 4.0], &UpMask::all()),
            Some(1)
        );
        // Short weight slices default the tail to 1.0.
        assert_eq!(
            r.pick_routed(2, 0, &[10, 2], &[], &[1.0], &UpMask::all()),
            Some(1)
        );
    }
}
