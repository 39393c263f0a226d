//! Plain-text rendering of emulation reports.

use crate::runtime::EmulationReport;
use lmas_core::Record;
use std::fmt::Write as _;

/// Render a one-screen summary of a run: makespan, per-node utilization,
/// per-stage work.
pub fn render_summary<R: Record>(r: &EmulationReport<R>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "makespan: {}", r.makespan);
    let _ = writeln!(out, "records processed: {}", r.records_processed);
    let _ = writeln!(out, "-- nodes --");
    for n in &r.nodes {
        let (dr, dw, dbr, dbw) = n.disk;
        let _ = writeln!(
            out,
            "{:>7}  cpu {:>5.1}%  busy {:>12}  recs {:>10}  disk r/w {}/{} ({}/{} B)  nic {}",
            n.id.to_string(),
            n.mean_cpu_util * 100.0,
            n.cpu_busy.to_string(),
            n.records,
            dr,
            dw,
            dbr,
            dbw,
            n.nic_busy
        );
        if n.per_disk.len() > 1 {
            for (i, (d, busy)) in n.per_disk.iter().zip(&n.per_disk_busy).enumerate() {
                let _ = writeln!(
                    out,
                    "         disk{} r/w {}/{} ({}/{} B)  busy {}",
                    i, d.reads, d.writes, d.bytes_read, d.bytes_written, busy
                );
            }
        }
        let pool = n.pool;
        if pool.hits + pool.misses > 0 {
            let _ = writeln!(
                out,
                "         pool hit {:>5.1}%  ({} hits / {} misses, {} evict, {} wb blocks, {} flushed)",
                pool.hit_rate() * 100.0,
                pool.hits,
                pool.misses,
                pool.evictions,
                pool.writeback_blocks,
                pool.flushed_blocks
            );
        }
    }
    let _ = writeln!(out, "-- stages --");
    for (i, (name, w)) in r.stage_work.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>2} {:<24} in {:>10} recs  work: {} cmp, {} mov, {} B",
            i, name, r.stage_records_in[i], w.compares, w.record_moves, w.bytes
        );
    }
    let queued: Vec<_> = r.queue_stats.iter().filter(|q| q.max_peak() > 0).collect();
    if !queued.is_empty() {
        let _ = writeln!(out, "-- queues (records, time-weighted) --");
        for q in queued {
            let means: Vec<String> = q
                .instances
                .iter()
                .map(|i| format!("{:.1}", i.mean_depth))
                .collect();
            let _ = writeln!(
                out,
                "{:<24} peak {:>8}  mean/instance [{}]",
                q.stage,
                q.max_peak(),
                means.join(", ")
            );
        }
    }
    if r.reweights > 0 {
        let _ = writeln!(out, "balancer reweights: {}", r.reweights);
    }
    if !r.mem_violations.is_empty() {
        let _ = writeln!(out, "-- memory violations --");
        for v in &r.mem_violations {
            let _ = writeln!(out, "  {v}");
        }
    }
    out
}
