//! Planner property tests: over randomized graph shapes, declared
//! workloads, and cluster geometries, the planner must (a) always emit
//! a placement passing `Placement::validate` — memory contracts
//! respected, no unassigned instance — or a typed error, never an
//! invalid artifact, and (b) be a pure function of its inputs: planning
//! the same spec twice is byte-identical.

use lmas_core::cost::Work;
use lmas_core::functor::FunctorKind;
use lmas_core::placement::NodeId;
use lmas_plan::{plan, ClusterShape, PlanEdge, PlanSpec, StageSpec};
use proptest::prelude::*;

/// Build a randomized linear pipeline spec from drawn parameters.
#[allow(clippy::too_many_arguments)]
fn build_spec(
    nstages: usize,
    repls: &[usize],
    kinds: &[u8],
    compares: &[u64],
    records: u64,
    state_bytes: &[usize],
    pin_first_per_asu: bool,
    asus: usize,
) -> PlanSpec {
    let stages = (0..nstages)
        .map(|s| {
            let kind = match kinds[s] % 3 {
                0 => FunctorKind::AsuEligible {
                    max_state_bytes: state_bytes[s],
                },
                1 => FunctorKind::VerifiedKernel {
                    max_state_bytes: state_bytes[s],
                },
                _ => FunctorKind::HostOnly,
            };
            let mut spec = StageSpec::new(&format!("s{s}"), repls[s], kind)
                .with_work(
                    Work::compares(compares[s]) + Work::moves(1),
                    records,
                );
            if s == 0 {
                // Sources are ASU-eligible scans, optionally pinned to
                // their resident bricks.
                spec = StageSpec::new(
                    "scan",
                    repls[0],
                    FunctorKind::AsuEligible { max_state_bytes: 0 },
                )
                .with_work(Work::moves(1), records)
                .with_source(records * 128);
                if pin_first_per_asu {
                    spec = spec.pinned_per_asu(asus);
                }
            }
            if s + 1 == nstages {
                spec = spec.with_sink_bytes(records * 128);
            }
            spec
        })
        .collect();
    PlanSpec {
        record_bytes: 128,
        stages,
        edges: (1..nstages)
            .map(|s| PlanEdge {
                from: s - 1,
                to: s,
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the graph and cluster shape, a successful plan always
    /// passes `Placement::validate` and covers every instance.
    #[test]
    fn planned_placements_always_validate(
        nstages in 2usize..5,
        hosts in 1usize..4,
        asus in 1usize..5,
        c in 2u32..12,
        records in 1_000u64..200_000,
        seed_bits in any::<u64>(),
        pin in any::<bool>(),
    ) {
        // Derive per-stage parameters deterministically from seed_bits
        // so the case is reproducible from the printed inputs.
        let mut x = seed_bits;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        let repls: Vec<usize> = (0..nstages).map(|_| 1 + (next() % 6) as usize).collect();
        let kinds: Vec<u8> = (0..nstages).map(|_| next() as u8).collect();
        let compares: Vec<u64> = (0..nstages).map(|_| next() % 40).collect();
        let state: Vec<usize> = (0..nstages)
            .map(|_| if next() % 4 == 0 { 64 << 20 } else { (next() % 4096) as usize })
            .collect();
        let spec = build_spec(nstages, &repls, &kinds, &compares, records, &state, pin, asus);
        let shape = ClusterShape::era_2002(hosts, asus, c as f64);
        match plan(&spec, &shape) {
            Ok(out) => {
                out.placement
                    .validate(&spec.placement_rows(), shape.asu_mem)
                    .expect("planner emitted an invalid placement");
                for (s, st) in spec.stages.iter().enumerate() {
                    for i in 0..st.replication {
                        let node = out
                            .placement
                            .node_of(lmas_core::placement::StageId(s), i)
                            .expect("unassigned instance");
                        if let NodeId::Asu(_) = node {
                            prop_assert!(
                                st.kind.asu_placeable(shape.asu_mem),
                                "ineligible stage {s} landed on an ASU"
                            );
                        }
                    }
                }
                prop_assert!(out.estimate.makespan_ns >= 1.0);
            }
            // Typed failure is acceptable (e.g. a host-only stage pinned
            // into an impossible corner); an invalid artifact is not.
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(!msg.is_empty());
            }
        }
    }

    /// Planning is a pure function: same spec + shape twice gives
    /// byte-identical assignments, estimates, and report JSON.
    #[test]
    fn same_inputs_plan_byte_identically(
        nstages in 2usize..5,
        hosts in 1usize..4,
        asus in 1usize..5,
        c in 2u32..12,
        records in 1_000u64..200_000,
        seed_bits in any::<u64>(),
    ) {
        let mut x = seed_bits;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        let repls: Vec<usize> = (0..nstages).map(|_| 1 + (next() % 6) as usize).collect();
        let kinds: Vec<u8> = (0..nstages).map(|_| next() as u8).collect();
        let compares: Vec<u64> = (0..nstages).map(|_| next() % 40).collect();
        let state: Vec<usize> = (0..nstages).map(|_| (next() % 4096) as usize).collect();
        let spec = build_spec(nstages, &repls, &kinds, &compares, records, &state, false, asus);
        let shape = ClusterShape::era_2002(hosts, asus, c as f64);
        let a = plan(&spec, &shape);
        let b = plan(&spec, &shape);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.assignment, b.assignment);
                prop_assert_eq!(
                    a.estimate.makespan_ns.to_bits(),
                    b.estimate.makespan_ns.to_bits()
                );
                prop_assert_eq!(a.render_json(&spec), b.render_json(&spec));
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "diverged: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }
}
