//! Shared helpers for the sort tests (`par_golden.rs`, `par_diff.rs`,
//! `dsm_end_to_end.rs`): deterministic report fingerprints, key-stream
//! hashes and the two-tier trace-equality contract.
//!
//! The contract (see DESIGN.md "Parallel kernel"):
//!
//! * **One partition** (any thread count on a one-host cluster): the
//!   run is bit-for-bit the sequential run — every observable,
//!   including the trace render, is byte-identical.
//! * **Equal partition counts**: two runs that resolve to the same
//!   partition count (e.g. `threads ∈ {2, 4}` on a two-host cluster)
//!   are byte-identical to each other.
//! * **Two or more partitions vs. sequential**: events scheduled
//!   concurrently on different partitions for the *same virtual
//!   instant* may be delivered in a different relative order than the
//!   sequential engine's global FIFO (reproducing that order would
//!   serialize the partitions). Such ties can legally permute packet
//!   *contents* flowing through an instant, so only conserved
//!   aggregates (dispatch counts, record conservation, per-stage work,
//!   fault accounting) and the final sorted output are asserted
//!   against the sequential run. Representative multi-host
//!   configurations are additionally pinned byte-exact in
//!   `par_golden.rs`.

#![allow(dead_code)] // each test binary uses a subset of these helpers

use lmas_core::Record;
use lmas_emulator::EmulationReport;
use lmas_sim::fnv1a;
use lmas_sort::DsmOutcome;
use std::fmt::Write as _;

/// Every *state* observable of a report — everything except `par` (the
/// one field the parallel kernel is allowed to differ on) and the trace
/// (compared separately under [`TraceEq`]) — rendered deterministically.
/// Two runs have identical state iff their fingerprints are equal.
pub fn fingerprint<R: Record>(r: &EmulationReport<R>) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "makespan={:?} dispatched={} records={} reweights={}",
        r.makespan, r.dispatched, r.records_processed, r.reweights
    );
    let _ = writeln!(
        s,
        "mem_violations={:?} down={:?} fault={:?}",
        r.mem_violations, r.down_nodes, r.fault
    );
    let _ = writeln!(s, "stage_work={:?}", r.stage_work);
    let _ = writeln!(s, "stage_records_in={:?}", r.stage_records_in);
    for n in &r.nodes {
        // Debug covers every field bit-exactly (f64 Debug is shortest
        // round-trip, so equal strings ⇔ equal bits).
        let _ = writeln!(s, "{n:?}");
    }
    for q in &r.queue_stats {
        let _ = writeln!(s, "{q:?}");
    }
    for ((stage, inst), ports) in &r.sink_outputs {
        for (port, p) in ports {
            let keys = fnv1a(p.records().iter().flat_map(|r| format!("{:?},", r.key()).into_bytes()));
            let _ = writeln!(s, "sink {stage}.{inst} port {port}: n={} keys={keys:#x}", p.len());
        }
    }
    let _ = writeln!(s, "trace n={} dropped={}", r.trace.len(), r.trace.dropped());
    s
}

/// The trace render with same-instant lines put into a canonical
/// (lexicographic) order. Invariant under the one permitted
/// multi-partition reordering, so canonical renders must be equal at
/// every partition count, sequential included.
pub fn canonical_trace<R: Record>(r: &EmulationReport<R>) -> String {
    let mut lines: Vec<(u64, String)> = r
        .trace
        .entries()
        .map(|e| {
            (
                e.at.as_nanos(),
                format!("{} [{}] {}", e.at, e.subject, e.detail),
            )
        })
        .collect();
    lines.sort();
    let mut s = String::new();
    for (_, l) in lines {
        let _ = writeln!(s, "{l}");
    }
    s
}

/// FNV over the canonically emitted key stream of a finished sort.
pub fn output_keys_fnv<R: Record>(out: &DsmOutcome<R>) -> u64 {
    keys_fnv(&out.output)
}

/// FNV over the key stream of a packet list, in emission order.
pub fn keys_fnv<R: Record>(packets: &[lmas_core::Packet<R>]) -> u64 {
    fnv1a(
        packets
            .iter()
            .flat_map(|p| p.records().iter())
            .flat_map(|r| format!("{:?},", r.key()).into_bytes()),
    )
}

/// How strictly two runs must match.
#[derive(Clone, Copy, PartialEq)]
pub enum TraceEq {
    /// State and trace render byte-for-byte equal (sequential vs. one
    /// partition, or two runs of the same partitioning).
    Exact,
    /// State byte-identical, traces equal under canonical within-instant
    /// ordering (sequential vs. two or more partitions).
    Canonical,
    /// Whatever the two runs' partitioning admits: only the
    /// [`conserved_fingerprint`] when either side ran on two or more
    /// partitions, [`TraceEq::Exact`] otherwise.
    Conserved,
}

/// Assert two finished sorts are equivalent: the same passes, each
/// compared at strictness `eq`, and the same emitted key stream and
/// recovery accounting.
pub fn assert_same_sort<R: Record>(a: &DsmOutcome<R>, b: &DsmOutcome<R>, eq: TraceEq) {
    assert_eq!(output_keys_fnv(a), output_keys_fnv(b), "emitted key streams diverge");
    assert_eq!(a.recovered_records, b.recovered_records);
    assert_eq!(a.lost_asus, b.lost_asus);
    assert_eq!(a.repair.is_some(), b.repair.is_some(), "repair presence diverges");
    assert_eq!(a.intermediate.len(), b.intermediate.len(), "pass counts diverge");
    for (i, (ra, rb)) in a.passes().zip(b.passes()).enumerate() {
        assert_same_report(ra, rb, eq, &format!("pass {i}"));
    }
}

/// Observables conserved at ANY partition count: dispatch and record
/// accounting, per-stage work, fault statistics. Excludes everything a
/// legal same-instant cross-partition reorder may perturb (per-node
/// gauges, queue statistics, intermediate packet contents, virtual
/// times — the pinned goldens cover those byte-exactly).
pub fn conserved_fingerprint<R: Record>(r: &EmulationReport<R>) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "dispatched={} records={} reweights={}",
        r.dispatched, r.records_processed, r.reweights
    );
    let _ = writeln!(s, "down={:?} fault={:?}", r.down_nodes, r.fault);
    let _ = writeln!(s, "stage_work={:?}", r.stage_work);
    let _ = writeln!(s, "stage_records_in={:?}", r.stage_records_in);
    s
}

fn assert_same_report<R: Record>(
    a: &EmulationReport<R>,
    b: &EmulationReport<R>,
    eq: TraceEq,
    pass: &str,
) {
    let multi = |r: &EmulationReport<R>| r.par.as_ref().is_some_and(|s| s.partitions > 1);
    if eq == TraceEq::Conserved && (multi(a) || multi(b)) {
        assert_eq!(
            conserved_fingerprint(a),
            conserved_fingerprint(b),
            "{pass}: conserved observables diverge"
        );
        return;
    }
    assert_eq!(fingerprint(a), fingerprint(b), "{pass} reports diverge");
    if eq == TraceEq::Canonical {
        assert_eq!(
            canonical_trace(a),
            canonical_trace(b),
            "{pass} traces diverge beyond same-instant order"
        );
    } else {
        assert_eq!(a.trace.render(), b.trace.render(), "{pass} trace renders diverge");
    }
}
