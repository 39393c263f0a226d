//! Degraded-mode DSM-Sort: run under a fault plan, then repair.
//!
//! The emulator's fault layer ([`lmas_emulator::fault`]) masks crashes
//! *inside* a pass: deliveries bounce off dead nodes and fail over to
//! surviving replicas. What it cannot recover by itself are records that
//! were lost **with** a node — queued packets, in-flight work, and runs
//! already stored on an ASU that is still offline when the pass ends.
//! [`run_dsm_sort_faulty`] closes that gap at the orchestration level,
//! in the one sort driver ([`crate::dsm`]) with this module's repair
//! step between the passes:
//!
//! 1. run pass 1 under the plan (non-fatal mode: undeliverable records
//!    are dropped and counted, the pass drains);
//! 2. diff the per-record identity tags ([`Record::tag64`]) of the
//!    surviving, *reachable* runs against the input ([`lost_records`]) —
//!    the difference is exactly the lost records, wherever they died.
//!    When the input's tags are dense (the generator's `0..n`), the
//!    input is indexed by a direct-address table over its tag span and
//!    the diff is two linear passes, no sort; a sparse tag set is sorted
//!    and merge-scanned against the sorted survivors;
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
    dsm_sort, run_pass1, split_into_packets, DsmError, DsmOutcome, MergePasses, RunsPerAsu,
};
use lmas_core::{NodeId, Packet, Record};
use lmas_emulator::{ClusterConfig, EmulationReport, FaultSpec};

/// The input's identity tags, each with the position of its record in
/// the input; the records themselves stay in the caller's `data`.
pub(crate) enum TagIndex {
    /// A direct-address table over the input's tag span `base..=max`:
    /// bit `t - base` of `present` says whether the input carries tag
    /// `t`, and slot `t - base` holds that record's position. Built
    /// and diffed in O(n + span) with no sort, and chosen only when it
    /// costs no more memory than the sorted index ([`dense_fits`]); the
    /// generator's tags `0..n` always qualify.
    Dense {
        /// The smallest input tag.
        base: u64,
        /// One position per tag of the span (unset slots hold 0).
        slots: Vec<u32>,
        /// One bit per tag of the span: is it an input tag?
        present: Vec<u64>,
    },
    /// The tags sorted, each with its position: 12 B of payload (16 B
    /// with padding) per record, whatever the span. The only form that
    /// indexes a sparse tag set in bounded memory.
    Sorted(Vec<(u64, u32)>),
}

/// Whether a [`TagIndex::Dense`] table over `span` tags costs no more
/// memory than a [`TagIndex::Sorted`] index of `n` records.
fn dense_fits(span: u64, n: usize) -> bool {
    let table = u128::from(span) * 4 + u128::from(span.div_ceil(64)) * 8;
    table <= (n * std::mem::size_of::<(u64, u32)>()) as u128
}

impl TagIndex {
    /// Index `data` by [`Record::tag64`]. Repair can only name a lost
    /// record by its tag, so a record without one (`u64::MAX`) or a tag
    /// carried twice is an input error; a repeat is named by the
    /// smallest repeated tag.
    pub(crate) fn build<R: Record>(data: &[R]) -> Result<TagIndex, DsmError> {
        TagIndex::from_tags(data.iter().map(Record::tag64).collect())
    }

    /// [`build`](Self::build) from the input's tags, in input order.
    pub(crate) fn from_tags(tags: Vec<u64>) -> Result<TagIndex, DsmError> {
        if u32::try_from(tags.len()).is_err() {
            return Err(DsmError::InputShape(format!(
                "fault repair indexes at most 2^32 - 1 records ({} given)",
                tags.len()
            )));
        }
        let (min, max) = tags
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &t| (lo.min(t), hi.max(t)));
        if max == u64::MAX {
            return Err(DsmError::InputShape(
                "fault repair requires per-record tags (Record::tag64)".into(),
            ));
        }
        if !tags.is_empty() && dense_fits(max - min + 1, tags.len()) {
            TagIndex::dense(&tags, min, max)
        } else {
            TagIndex::sorted(tags)
        }
    }

    /// The direct-address table of `tags` (the input's, in input order),
    /// which all lie in `base..=max`: one pass, no sort.
    fn dense(tags: &[u64], base: u64, max: u64) -> Result<TagIndex, DsmError> {
        let span = (max - base) as usize + 1;
        let mut slots = vec![0u32; span];
        let mut present = vec![0u64; span.div_ceil(64)];
        let mut repeat = None;
        for (pos, &tag) in tags.iter().enumerate() {
            let i = (tag - base) as usize;
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            if present[word] & bit == 0 {
                present[word] |= bit;
                slots[i] = pos as u32;
            } else {
                note_smallest(&mut repeat, tag);
            }
        }
        match repeat {
            Some(tag) => Err(repeated(tag)),
            None => Ok(TagIndex::Dense {
                base,
                slots,
                present,
            }),
        }
    }

    /// The sorted index of `tags` (the input's, in input order), none of
    /// them `u64::MAX`.
    fn sorted(tags: Vec<u64>) -> Result<TagIndex, DsmError> {
        let mut by_tag: Vec<(u64, u32)> = tags
            .into_iter()
            .enumerate()
            .map(|(pos, tag)| (tag, pos as u32))
            .collect();
        by_tag.sort_unstable();
        match by_tag.windows(2).find(|w| w[0].0 == w[1].0) {
            Some(w) => Err(repeated(w[0].0)),
            None => Ok(TagIndex::Sorted(by_tag)),
        }
    }

    /// The records of `data` (the slice this index was built from) that
    /// no run of `runs_per_asu` holds, in ascending tag order.
    ///
    /// Only lost records are cloned. The diff also proves exactly-once
    /// delivery: a survivor that appears twice, or whose tag the input
    /// never carried, is an error, not a silently ignored record that
    /// pass 2 would then merge into the output. Of several such
    /// survivors the one with the smallest tag is named, whichever form
    /// the index has.
    fn lost<R: Record>(
        &self,
        data: &[R],
        runs_per_asu: &[Vec<Packet<R>>],
    ) -> Result<Vec<R>, DsmError> {
        let survivors = runs_per_asu
            .iter()
            .flatten()
            .flat_map(|run| run.records())
            .map(Record::tag64);
        let (lost, offending) = match self {
            TagIndex::Dense {
                base,
                slots,
                present,
            } => dense_diff((*base, slots, present), data, survivors),
            TagIndex::Sorted(by_tag) => sorted_diff(by_tag, data, survivors),
        };
        let Some((tag, in_input)) = offending else {
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
        Err(if in_input {
            DsmError::DuplicateSurvivor { tag, asus }
        } else {
            DsmError::ForeignSurvivor { tag, asus }
        })
    }
}

/// The input error for a tag `data` carries twice.
fn repeated(tag: u64) -> DsmError {
    DsmError::InputShape(format!(
        "fault repair requires unique tags (tag {tag} repeats)"
    ))
}

/// Keep in `smallest` the least of the values noted.
fn note_smallest<T: Ord + Copy>(smallest: &mut Option<T>, value: T) {
    if smallest.is_none_or(|s| value < s) {
        *smallest = Some(value);
    }
}

/// What a tag diff found: the lost records in ascending tag order, and
/// the smallest survivor tag that is held twice or is foreign, with
/// whether the input carries it.
type Diff<R> = (Vec<R>, Option<(u64, bool)>);

/// The diff against a [`TagIndex::Dense`] table: one pass setting each
/// survivor's bit in a `seen` set over the span, then one pass over the
/// set's words. A word's `present & !seen` bits are lost records, its
/// `seen & !present` bits foreign survivors.
fn dense_diff<R: Record>(
    (base, slots, present): (u64, &[u32], &[u64]),
    data: &[R],
    survivor_tags: impl Iterator<Item = u64>,
) -> Diff<R> {
    let span = slots.len() as u64;
    let mut seen = vec![0u64; present.len()];
    let mut offending = None;
    survivor_tags.for_each(|tag| {
        let i = tag.wrapping_sub(base);
        if i >= span {
            return note_smallest(&mut offending, (tag, false));
        }
        let (word, bit) = ((i / 64) as usize, 1u64 << (i % 64));
        if seen[word] & bit == 0 {
            seen[word] |= bit;
        } else {
            note_smallest(&mut offending, (tag, present[word] & bit != 0));
        }
    });
    let mut lost = Vec::new();
    for (word, (&seen, &present)) in seen.iter().zip(present).enumerate() {
        let foreign = seen & !present;
        if foreign != 0 {
            let tag = base + (word * 64) as u64 + u64::from(foreign.trailing_zeros());
            note_smallest(&mut offending, (tag, false));
        }
        let mut missing = present & !seen;
        while missing != 0 {
            let i = word * 64 + missing.trailing_zeros() as usize;
            lost.push(data[slots[i] as usize].clone());
            missing &= missing - 1;
        }
    }
    (lost, offending)
}

/// The diff against a [`TagIndex::Sorted`] index: one sort of the
/// survivors' tags and one merge scan.
fn sorted_diff<R: Record>(
    by_tag: &[(u64, u32)],
    data: &[R],
    survivor_tags: impl Iterator<Item = u64>,
) -> Diff<R> {
    debug_assert_eq!(by_tag.len(), data.len(), "index built from other data");
    let mut survivors: Vec<u64> = Vec::with_capacity(data.len());
    survivors.extend(survivor_tags);
    survivors.sort_unstable();
    let mut lost = Vec::new();
    let mut next = 0;
    for &(tag, pos) in by_tag {
        match survivors.get(next) {
            Some(&s) if s == tag => next += 1,
            Some(&s) if s < tag => break,
            _ => lost.push(data[pos as usize].clone()),
        }
    }
    // Every survivor matched one input tag unless the scan stopped at
    // (or ran out of input before) the smallest one that repeats the
    // previous survivor or that the input does not carry.
    let offending = survivors
        .get(next)
        .map(|&tag| (tag, next > 0 && survivors[next - 1] == tag));
    (lost, offending)
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
) -> Result<DsmOutcome<R>, DsmError> {
    dsm_sort(cluster, spec, data, dsm, mode, MergePasses::Two)
}

/// What [`repair_lost`] did: the repair pass's report (`None` when
/// nothing was lost), the recovered-record count and the lost ASUs.
pub(crate) type Repaired<R> = (Option<EmulationReport<R>>, u64, Vec<usize>);

/// The repair step between pass 1 and the merges, under an active plan:
/// drop the runs of ASUs still down after `pass1`, diff the reachable
/// runs' tags against the input `replica` (indexed by tag), and
/// re-dispatch the lost records through a repair pass whose new runs
/// join `runs`.
pub(crate) fn repair_lost<R: Record>(
    cluster: &ClusterConfig,
    (index, data): (TagIndex, Vec<R>),
    pass1: &EmulationReport<R>,
    runs: &mut RunsPerAsu<R>,
    splitters: &[R::Key],
    dsm: &DsmConfig,
    mode: LoadMode,
) -> Result<Repaired<R>, DsmError> {
    // Runs stored on an ASU that is still offline are unreachable.
    let mut lost_asus = Vec::new();
    let mut hosts_down = 0;
    for id in &pass1.down_nodes {
        match *id {
            NodeId::Asu(d) => {
                lost_asus.push(d);
                runs[d].clear();
            }
            NodeId::Host(_) => hosts_down += 1,
        }
    }

    // Tag diff: whatever the reachable runs don't cover was lost —
    // dropped in flight, discarded with a crashed instance, or stored on
    // an ASU that is still offline. The input is freed once diffed.
    let lost = index.lost(&data, runs)?;
    drop(data);
    if lost.is_empty() {
        return Ok((None, 0, lost_asus));
    }

    // Re-dispatch the lost records through a pass-1-shaped job on the
    // surviving nodes only (modeled as a cluster of just the live hosts
    // and ASUs).
    let live_asus: Vec<usize> = (0..cluster.asus).filter(|d| !lost_asus.contains(d)).collect();
    let live_hosts = cluster.hosts - hosts_down;
    if live_asus.is_empty() || live_hosts == 0 {
        return Err(DsmError::InputShape(
            "no surviving nodes to repair on".into(),
        ));
    }
    let mut repair_cluster = *cluster;
    repair_cluster.hosts = live_hosts;
    repair_cluster.asus = live_asus.len();
    let lost_per_asu = split_into_packets(&lost, live_asus.len(), dsm.input_packet_records);
    let rp = run_pass1(&repair_cluster, lost_per_asu, splitters.to_vec(), dsm, mode)?;
    // Repair ASU i stands in for the i-th surviving original ASU; its
    // new runs land alongside that ASU's surviving runs.
    for (i, extra) in rp.runs_per_asu.into_iter().enumerate() {
        runs[live_asus[i]].extend(extra);
    }
    Ok((Some(rp.report), lost.len() as u64, lost_asus))
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

    /// One input under each index form: id `i` is tag `100 + i` on a
    /// dense span (ids an input skips are holes inside it, and `build`
    /// chooses the direct-address table) or `100 + i·2^40` on a sparse
    /// one (`build` chooses the sorted index). `u64::MAX` maps to itself,
    /// the missing tag.
    const FORMS: [(&str, IdToTag); 2] = [("dense", |i| 100 + i), ("sparse", |i| 100 + (i << 40))];

    type IdToTag = fn(u64) -> u64;

    fn tags_of(ids: &[u64], tag: IdToTag) -> Vec<u64> {
        ids.iter()
            .map(|&i| if i == u64::MAX { i } else { tag(i) })
            .collect()
    }

    /// The form `build` chooses for records tagged `tags`.
    fn form(tags: &[u64]) -> &'static str {
        match TagIndex::build(&recs(tags)) {
            Ok(TagIndex::Dense { .. }) => "dense",
            Ok(TagIndex::Sorted(_)) => "sparse",
            Err(e) => panic!("{e}"),
        }
    }

    /// `lost_records` over input ids `data` and per-ASU survivor ids
    /// `survivors`, with tags mapped by `tag`.
    fn lost_ids(data: &[u64], survivors: &[&[u64]], tag: IdToTag) -> Result<Vec<Rec128>, DsmError> {
        let held: Vec<Vec<u64>> = survivors.iter().map(|ids| tags_of(ids, tag)).collect();
        let held: Vec<&[u64]> = held.iter().map(Vec::as_slice).collect();
        lost_records(&recs(&tags_of(data, tag)), &runs(&held))
    }

    #[test]
    fn tagless_input_record_is_rejected() {
        // Checked before the form is chosen, so both forms share it.
        for (name, tag) in FORMS {
            assert_eq!(form(&tags_of(&[3, 5], tag)), name);
            let err = lost_ids(&[3, u64::MAX, 5], &[&[3, 5]], tag).unwrap_err();
            assert!(
                matches!(&err, DsmError::InputShape(m) if m.contains("per-record tags")),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn repeated_input_tag_is_rejected_by_name() {
        // The smallest repeated tag is named, wherever it first repeats.
        for (name, tag) in FORMS {
            assert_eq!(form(&tags_of(&[9, 7, 4], tag)), name);
            for (ids, repeat) in [
                (&[9, 7, 4, 7][..], 7),
                (&[9, 7, 9, 4, 7][..], 7),
                (&[4, 9, 9][..], 9),
            ] {
                let err = lost_ids(ids, &[&[9]], tag).unwrap_err();
                let want = format!("tag {} repeats", tag(repeat));
                assert!(
                    matches!(&err, DsmError::InputShape(m) if m.contains(&want)),
                    "{name} {ids:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn survivor_held_twice_names_tag_and_asus() {
        for (name, tag) in FORMS {
            let data = [1, 2, 3, 4];
            assert_eq!(form(&tags_of(&data, tag)), name);
            // Also when the repeat is the largest tag (the sorted scan
            // runs out of input first), and when a larger one repeats
            // earlier in the runs.
            for (survivors, dup, asus) in [
                (&[&[1, 3][..], &[], &[4, 3]][..], 3, &[0, 2][..]),
                (&[&[4, 4][..]][..], 4, &[0][..]),
                (&[&[4, 4][..], &[3, 3]][..], 3, &[1][..]),
            ] {
                let err = lost_ids(&data, survivors, tag).unwrap_err();
                assert!(
                    matches!(&err, DsmError::DuplicateSurvivor { tag: t, asus: a }
                        if *t == tag(dup) && a == asus),
                    "{name} {survivors:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn survivor_not_in_the_input_names_tag_and_asu() {
        for (name, tag) in FORMS {
            // Id 3 is a hole: a foreign tag inside the input's span.
            let data = [1, 2, 4];
            assert_eq!(form(&tags_of(&data, tag)), name);
            for foreign in [0, 3, 5, u64::MAX] {
                let err = lost_ids(&data, &[&[1], &[foreign, 4]], tag).unwrap_err();
                let want = tags_of(&[foreign], tag)[0];
                assert!(
                    matches!(&err, DsmError::ForeignSurvivor { tag: t, asus }
                        if *t == want && asus == &[1]),
                    "{name} foreign {foreign}: {err}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The direct-address table against the sorted index on the same
        /// input: a random dense tag set (`span` tags from `base`, up to
        /// half of them holes), random loss, survivors held twice, and
        /// foreign tags just below and above the span and in its holes.
        /// The same lost records in the same order, or the same error.
        #[test]
        fn dense_diff_equals_sorted_diff(span in 1u64..300, seed in proptest::any::<u64>()) {
            let mut rng = lmas_sim::DetRng::new(seed);
            let base = if seed.is_multiple_of(4) { 0 } else { rng.next_u64() >> 1 };
            let mut tags = Vec::new();
            let mut holes = Vec::new();
            for t in base..base + span {
                let hole = t != base && t + 1 != base + span && holes.len() < span as usize / 2
                    && rng.gen_index(4) == 0;
                if hole { holes.push(t) } else { tags.push(t) }
            }
            rng.shuffle(&mut tags);
            let data = recs(&tags);

            let pct = |rng: &mut lmas_sim::DetRng, p: usize| rng.gen_index(100) < p;
            let (loss, dup, foreign) = (rng.gen_index(30), rng.gen_index(3), rng.gen_index(3));
            let mut held: Vec<u64> = Vec::new();
            for &t in &tags {
                if !pct(&mut rng, loss) {
                    held.push(t);
                    if pct(&mut rng, dup) {
                        held.push(t);
                    }
                }
            }
            let mut outside = holes.clone();
            outside.push(base + span);
            if base > 0 {
                outside.push(base - 1);
            }
            for t in outside {
                if pct(&mut rng, foreign * 10) {
                    held.push(t);
                }
            }
            rng.shuffle(&mut held);
            let mut runs: Vec<Vec<Packet<Rec128>>> = vec![Vec::new(); 3];
            for chunk in held.chunks(5) {
                runs[rng.gen_index(3)].push(Packet::new(recs(chunk)));
            }

            let dense = TagIndex::build(&data).expect("unique tags");
            proptest::prop_assert!(matches!(dense, TagIndex::Dense { .. }), "span {span}, {} tags", tags.len());
            let sorted = TagIndex::sorted(tags).expect("unique tags");
            let outcome = |index: &TagIndex| {
                index
                    .lost(&data, &runs)
                    .map(|lost| lost.iter().map(Record::tag64).collect::<Vec<_>>())
                    .map_err(|e| e.to_string())
            };
            proptest::prop_assert_eq!(outcome(&dense), outcome(&sorted));
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
        let crash = FaultSpec::with_plan(
            FaultPlan::new().crash(asu_index(&cluster, 1), SimTime(1_000_000)),
        );
        let mut untagged = data.clone();
        untagged[900] = Rec128::new(untagged[900].key(), u64::MAX);
        for (input, want) in [
            (data.clone(), "tag 400 repeats"),
            (untagged, "per-record tags"),
        ] {
            let err = run_dsm_sort_faulty(&cluster, &crash, input, &dsm, mode)
                .err()
                .expect("bad tags under an active plan");
            assert!(
                matches!(&err, DsmError::InputShape(m) if m.contains(want)),
                "{err}"
            );
        }
        let out = run_dsm_sort_faulty(&cluster, &FaultSpec::none(), data, &dsm, mode)
            .expect("fault-free run takes any tags");
        assert_eq!(out.recovered_records, 0);
        assert!(out.repair.is_none());
    }
}
