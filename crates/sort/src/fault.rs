//! Degraded-mode DSM-Sort: run under a fault plan, then repair.
//!
//! The emulator's fault layer ([`lmas_emulator::fault`]) masks crashes
//! *inside* a pass: deliveries bounce off dead nodes and fail over to
//! surviving replicas. What it cannot recover by itself are records that
//! were lost **with** a node — queued packets, in-flight work, and runs
//! already stored on an ASU that is still offline when the pass ends.
//! This module closes that gap at the orchestration level:
//!
//! 1. run pass 1 under the plan (non-fatal mode: undeliverable records
//!    are dropped and counted, the pass drains);
//! 2. diff the per-record identity tags ([`Record::tag64`]) of the
//!    surviving, *reachable* runs against the input ([`lost_records`]:
//!    one sort of each side's tags and one merge scan) — the difference
//!    is exactly the lost records, wherever they died;
//! 3. re-dispatch the lost records through a repair pass on the
//!    surviving nodes (input extents are assumed replicated across the
//!    ASU pool, the paper's storage-redundancy premise, so lost extents
//!    can be re-read from surviving replicas);
//! 4. merge as usual in pass 2, with the dead ASUs contributing nothing.
//!
//! When recovery succeeds, [`canonical_equal`](crate::verify) proves the
//! final output byte-identical to a fault-free run: every input record
//! present exactly once, bytes and all. The whole procedure is
//! deterministic — same seed and plan, same output, same virtual times.

use crate::config::{DsmConfig, LoadMode};
use crate::dsm::{
    choose_splitters, run_pass1_with, run_pass2_in_mode, split_across_asus, DsmError, Pass1Result,
};
use lmas_core::{NodeId, Packet, Record};
use lmas_emulator::{ClusterConfig, EmulationReport, FaultSpec};
use lmas_sim::SimDuration;

/// Outcome of a fault-injected DSM-Sort with repair.
pub struct FaultyDsmOutcome<R: Record> {
    /// Pass-1 report (ran under the fault plan).
    pub pass1: EmulationReport<R>,
    /// The repair pass, when one was needed.
    pub repair: Option<EmulationReport<R>>,
    /// Pass-2 report.
    pub pass2: EmulationReport<R>,
    /// Total emulated time including repair.
    pub total: SimDuration,
    /// Final sorted stripes.
    pub output: Vec<Packet<R>>,
    /// The splitters used.
    pub splitters: Vec<<R as Record>::Key>,
    /// Records the tag diff found missing and re-dispatched.
    pub recovered_records: u64,
    /// ASUs still down at the end of pass 1 (their stored runs were
    /// unreachable and their records went through repair).
    pub lost_asus: Vec<usize>,
}

/// The input's identity tags, sorted, each with the position of its
/// record in the input: 12 B of payload (16 B with padding) per record,
/// where the records themselves stay in the caller's `data`.
struct TagIndex(Vec<(u64, u32)>);

impl TagIndex {
    /// Index `data` by [`Record::tag64`]. Repair can only name a lost
    /// record by its tag, so a record without one (`u64::MAX`) or a tag
    /// carried twice is an input error.
    fn build<R: Record>(data: &[R]) -> Result<TagIndex, DsmError> {
        if u32::try_from(data.len()).is_err() {
            return Err(DsmError::InputShape(format!(
                "fault repair indexes at most 2^32 - 1 records ({} given)",
                data.len()
            )));
        }
        let mut by_tag: Vec<(u64, u32)> = data
            .iter()
            .enumerate()
            .map(|(i, r)| (r.tag64(), i as u32))
            .collect();
        by_tag.sort_unstable();
        if by_tag.last().is_some_and(|&(t, _)| t == u64::MAX) {
            return Err(DsmError::InputShape(
                "fault repair requires per-record tags (Record::tag64)".into(),
            ));
        }
        if let Some(w) = by_tag.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(DsmError::InputShape(format!(
                "fault repair requires unique tags (tag {} repeats)",
                w[0].0
            )));
        }
        Ok(TagIndex(by_tag))
    }

    /// The records of `data` (the slice this index was built from) that
    /// no run of `runs_per_asu` holds, in ascending tag order.
    ///
    /// One sort of the survivors' tags and one merge scan against the
    /// index; only lost records are cloned. The scan also proves
    /// exactly-once delivery: a survivor that appears twice, or whose tag
    /// the input never carried, is an error, not a silently ignored
    /// record that pass 2 would then merge into the output.
    fn lost<R: Record>(
        &self,
        data: &[R],
        runs_per_asu: &[Vec<Packet<R>>],
    ) -> Result<Vec<R>, DsmError> {
        debug_assert_eq!(self.0.len(), data.len(), "index built from other data");
        let mut survivors: Vec<u64> = Vec::with_capacity(data.len());
        survivors.extend(
            runs_per_asu
                .iter()
                .flatten()
                .flat_map(|run| run.records())
                .map(Record::tag64),
        );
        survivors.sort_unstable();

        let mut lost = Vec::new();
        let mut next = 0;
        for &(tag, pos) in &self.0 {
            match survivors.get(next) {
                Some(&s) if s == tag => next += 1,
                Some(&s) if s < tag => break,
                _ => lost.push(data[pos as usize].clone()),
            }
        }
        // Every survivor matched one input tag unless the scan stopped
        // at (or ran out of input before) one that repeats the previous
        // survivor or that the input does not carry.
        let Some(&tag) = survivors.get(next) else {
            return Ok(lost);
        };
        let asus = runs_per_asu
            .iter()
            .enumerate()
            .filter(|(_, runs)| {
                runs.iter()
                    .flat_map(|run| run.records())
                    .any(|r| r.tag64() == tag)
            })
            .map(|(d, _)| d)
            .collect();
        Err(if next > 0 && survivors[next - 1] == tag {
            DsmError::DuplicateSurvivor { tag, asus }
        } else {
            DsmError::ForeignSurvivor { tag, asus }
        })
    }
}

/// The records of `data` that no run of `runs_per_asu` (one list of runs
/// per ASU) holds, found by their [`Record::tag64`] and returned in
/// ascending tag order.
///
/// `data` must carry unique tags, none of them `u64::MAX`
/// ([`DsmError::InputShape`] otherwise), and every run record must be
/// one of `data`'s, held exactly once ([`DsmError::ForeignSurvivor`],
/// [`DsmError::DuplicateSurvivor`]).
pub fn lost_records<R: Record>(
    data: &[R],
    runs_per_asu: &[Vec<Packet<R>>],
) -> Result<Vec<R>, DsmError> {
    TagIndex::build(data)?.lost(data, runs_per_asu)
}

/// Run the full two-pass DSM-Sort on `data` under `spec`'s fault plan,
/// repairing lost records between the passes.
///
/// Repair identifies lost records by [`Record::tag64`], so the input
/// must carry unique tags (`Rec128`'s permutation tag, or any unique
/// `Rec8::tag`); a record without one (`u64::MAX`) is rejected up
/// front rather than silently unrecoverable.
pub fn run_dsm_sort_faulty<R: Record>(
    cluster: &ClusterConfig,
    spec: &FaultSpec,
    data: Vec<R>,
    dsm: &DsmConfig,
    mode: LoadMode,
) -> Result<FaultyDsmOutcome<R>, DsmError> {
    dsm.validate_for(data.len() as u64)?;
    let splitters = choose_splitters(&data, dsm.alpha);

    // Built (and the tags checked) before pass 1 runs. Under an active
    // plan the input stays alive as the "replica" lost records are
    // re-read from; without one nothing can be lost and it is freed
    // once split.
    let index = if spec.is_active() {
        Some(TagIndex::build(&data)?)
    } else {
        None
    };
    let per_asu = split_across_asus(&data, cluster.asus);
    let replica = index.map(|index| (index, data));

    let Pass1Result {
        report: pass1,
        runs_per_asu: mut runs,
        ..
    } = run_pass1_with(cluster, spec, per_asu, splitters.clone(), dsm, mode)?;

    // Runs stored on an ASU that is still offline are unreachable.
    let mut lost_asus = Vec::new();
    let mut hosts_down = 0;
    for id in &pass1.down_nodes {
        match *id {
            NodeId::Asu(d) => lost_asus.push(d),
            NodeId::Host(_) => hosts_down += 1,
        }
    }
    let mut asu_down = vec![false; cluster.asus];
    for &d in &lost_asus {
        asu_down[d] = true;
        runs[d].clear();
    }

    // Tag diff: whatever the reachable runs don't cover was lost —
    // dropped in flight, discarded with a crashed instance, or stored on
    // an ASU that is still offline.
    let lost = match replica {
        Some((index, data)) => index.lost(&data, &runs)?,
        None => Vec::new(),
    };
    let recovered_records = lost.len() as u64;

    let repair = if lost.is_empty() {
        None
    } else {
        // Re-dispatch the lost records through a pass-1-shaped job on
        // the surviving nodes only (modeled as a cluster of just the
        // live hosts and ASUs).
        let live_asus: Vec<usize> = (0..cluster.asus).filter(|&d| !asu_down[d]).collect();
        let live_hosts = cluster.hosts - hosts_down;
        if live_asus.is_empty() || live_hosts == 0 {
            return Err(DsmError::InputShape(
                "no surviving nodes to repair on".into(),
            ));
        }
        let mut repair_cluster = *cluster;
        repair_cluster.hosts = live_hosts;
        repair_cluster.asus = live_asus.len();
        let lost_per_asu = split_across_asus(&lost, live_asus.len());
        let rp = run_pass1_with(
            &repair_cluster,
            &FaultSpec::none(),
            lost_per_asu,
            splitters.clone(),
            dsm,
            mode,
        )?;
        // Repair ASU i stands in for the i-th surviving original ASU;
        // its new runs land alongside that ASU's surviving runs.
        for (i, extra) in rp.runs_per_asu.into_iter().enumerate() {
            runs[live_asus[i]].extend(extra);
        }
        Some(rp.report)
    };

    // Pass 2 runs fault-free on the original cluster: the plan's events
    // already fired, and offline ASUs simply hold no runs to merge.
    let p2 = run_pass2_in_mode(cluster, runs, splitters.clone(), dsm, mode)?;
    let total = pass1.makespan
        + repair.as_ref().map_or(SimDuration::ZERO, |r| r.makespan)
        + p2.report.makespan;
    Ok(FaultyDsmOutcome {
        pass1,
        repair,
        pass2: p2.report,
        total,
        output: p2.output,
        splitters,
        recovered_records,
        lost_asus,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmas_core::{Rec128, RoutingPolicy};
    use lmas_emulator::asu_index;
    use lmas_sim::{FaultPlan, SimTime};

    fn recs(tags: &[u64]) -> Vec<Rec128> {
        tags.iter().map(|&t| Rec128::new(t as u32, t)).collect()
    }

    /// One run per ASU holding the records tagged `tags[asu]`.
    fn runs(tags: &[&[u64]]) -> Vec<Vec<Packet<Rec128>>> {
        tags.iter().map(|t| vec![Packet::new(recs(t))]).collect()
    }

    #[test]
    fn tagless_input_record_is_rejected() {
        let err = lost_records(&recs(&[3, u64::MAX, 5]), &runs(&[&[3, 5]])).unwrap_err();
        assert!(
            matches!(&err, DsmError::InputShape(m) if m.contains("per-record tags")),
            "{err}"
        );
    }

    #[test]
    fn repeated_input_tag_is_rejected_by_name() {
        let err = lost_records(&recs(&[9, 7, 4, 7]), &runs(&[&[9]])).unwrap_err();
        assert!(
            matches!(&err, DsmError::InputShape(m) if m.contains("tag 7 repeats")),
            "{err}"
        );
    }

    #[test]
    fn survivor_held_twice_names_tag_and_asus() {
        let data = recs(&[10, 20, 30, 40]);
        let err = lost_records(&data, &runs(&[&[10, 30], &[], &[40, 30]])).unwrap_err();
        assert!(
            matches!(&err, DsmError::DuplicateSurvivor { tag: 30, asus } if asus == &[0, 2]),
            "{err}"
        );
        // Also when the repeat is the largest tag and the scan runs out
        // of input first.
        let err = lost_records(&data, &runs(&[&[40, 40]])).unwrap_err();
        assert!(
            matches!(&err, DsmError::DuplicateSurvivor { tag: 40, asus } if asus == &[0]),
            "{err}"
        );
    }

    #[test]
    fn survivor_not_in_the_input_names_tag_and_asu() {
        let data = recs(&[10, 20, 30]);
        for foreign in [5, 25, 35, u64::MAX] {
            let err = lost_records(&data, &runs(&[&[10], &[foreign, 30]])).unwrap_err();
            assert!(
                matches!(&err, DsmError::ForeignSurvivor { tag, asus }
                    if *tag == foreign && asus == &[1]),
                "{err}"
            );
        }
    }

    /// The entry point raises the input errors itself, under an active
    /// plan only: a fault-free run needs no tags.
    #[test]
    fn entry_checks_tags_only_under_an_active_plan() {
        let cluster = ClusterConfig::era_2002(1, 2, 8.0);
        let dsm = DsmConfig::new(4, 256, 4, 64);
        let mode = LoadMode::Managed(RoutingPolicy::SimpleRandomization);
        let mut data = lmas_core::generate_rec128(1_000, lmas_core::KeyDist::Uniform, 1);
        data[17] = Rec128::new(data[17].key(), 400);
        let crash = FaultPlan::new().crash(asu_index(&cluster, 1), SimTime(1_000_000));
        let err = run_dsm_sort_faulty(
            &cluster,
            &FaultSpec::with_plan(crash),
            data.clone(),
            &dsm,
            mode,
        )
        .err()
        .expect("repeated tag under an active plan");
        assert!(
            matches!(&err, DsmError::InputShape(m) if m.contains("tag 400 repeats")),
            "{err}"
        );
        let out = run_dsm_sort_faulty(&cluster, &FaultSpec::none(), data, &dsm, mode)
            .expect("fault-free run takes any tags");
        assert_eq!(out.recovered_records, 0);
        assert!(out.repair.is_none());
    }
}
