//! The metric tables: every name, unit and direction the benchmark
//! reports. `BENCHMARK.json` at the repository root lists the same
//! entries (a self-test compares the two); README.md explains each.

use std::fmt::Write as _;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
    }
}

/// Reported by untraced runs (`--trace 0`), on every workload.
pub const END_TO_END: &[Def] = &[
    lo("setup_s", "s"),
    lo("wall_ms_p50", "ms"),
    hi("records_per_s", "1/s"),
    lo("peak_rss_mb", "MiB"),
    lo("sim_makespan_ms", "sim_ms"),
];

/// Reported by traced runs (`--trace 1`), on every workload; a layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[Def] = &[
    // lmas-sim: calendar, actor dispatch, partitioned kernel.
    lo("sim.events", "count"),
    lo("sim.ns_per_event", "ns"),
    lo("sim.calendar_floor_ms", "ms"),
    lo("sim.engine_floor_ms", "ms"),
    hi("sim.par.partitions", "count"),
    lo("sim.par.windows", "count"),
    lo("sim.par.remote_msgs", "count"),
    lo("sim.par.critical_events", "count"),
    hi("sim.par.model_speedup", "x"),
    lo("sim.par.barrier_wait_ms", "ms"),
    hi("sim.par.wall_speedup", "x"),
    // lmas-core: kernels, packets, functors.
    lo("core.kernels.sort_floor_ms", "ms"),
    lo("core.kernels.merge_floor_ms", "ms"),
    lo("core.kernels.bucket_floor_ms", "ms"),
    lo("core.packet.packetize_ms", "ms"),
    lo("core.functor.pass1_self_ms", "ms"),
    lo("core.functor.pass1_calls", "count"),
    lo("core.functor.share_pct", "%"),
    // lmas-emulator: runtime around the functors, modelled cluster.
    lo("emulator.run_job.pass1_ms", "ms"),
    lo("emulator.run_job.pass1_self_ms", "ms"),
    lo("emulator.self_ns_per_event", "ns"),
    lo("emulator.build_ms", "ms"),
    hi("emulator.records_processed", "count"),
    lo("emulator.nic_bytes_tx", "bytes"),
    lo("emulator.disk_bytes", "bytes"),
    hi("emulator.host_cpu_util", "%"),
    hi("emulator.asu_cpu_util", "%"),
    lo("emulator.fault.retries", "count"),
    lo("emulator.fault.nacks", "count"),
    lo("emulator.fault.drops", "count"),
    lo("emulator.fault.detections", "count"),
    lo("emulator.balance.reweights", "count"),
    hi("emulator.repair.completed", "count"),
    lo("emulator.repair.bytes", "bytes"),
    // lmas-storage: buffer pool and spindles (virtual).
    hi("storage.pool.hits", "count"),
    lo("storage.pool.misses", "count"),
    lo("storage.pool.writebacks", "count"),
    lo("storage.disk.reads", "count"),
    lo("storage.disk.writes", "count"),
    lo("storage.disk.busy_ms", "sim_ms"),
    // lmas-plan: search cost and prediction error.
    lo("plan.search_ms", "ms"),
    lo("plan.pred_err_pct", "%"),
    // lmas-sort: the DSM-Sort orchestration, one span per public step.
    lo("sort.dsm.splitters_ms", "ms"),
    lo("sort.dsm.split_ms", "ms"),
    lo("sort.dsm.pass1_ms", "ms"),
    lo("sort.dsm.pass2_ms", "ms"),
    lo("sort.verify_ms", "ms"),
    lo("sort.fault.recovered_records", "count"),
    // lmas-gis: TerraFlow steps and their floors outside the emulator.
    lo("gis.step1_ms", "ms"),
    lo("gis.sort_ms", "ms"),
    lo("gis.step3_ms", "ms"),
    lo("gis.label_floor_ms", "ms"),
    lo("gis.restructure_floor_ms", "ms"),
    lo("gis.watersheds", "count"),
    // lmas-sched: the multi-tenant run.
    hi("sched.jobs_completed", "count"),
    lo("sched.jobs_rejected", "count"),
    lo("sched.queue_wait_ms", "sim_ms"),
    lo("sched.sim_job_ms_p50", "sim_ms"),
    lo("sched.sim_job_ms_p95", "sim_ms"),
    lo("sched.us_per_job", "us"),
    lo("sched.naive_wall_ms", "ms"),
    lo("sched.aware_overhead_ms", "ms"),
    // The harness itself: noise and overhead accounting.
    hi("bench.reps", "count"),
    lo("bench.wall_ms_min", "ms"),
    lo("bench.wall_ms_iqr", "ms"),
    lo("bench.wall_ms_tail", "ms"),
    hi("bench.tail_pct", "%"),
    lo("bench.clone_ms", "ms"),
    lo("bench.trace_overhead_pct", "%"),
    hi("bench.host_cores", "count"),
];

/// One value per entry of a metric table; unset entries read 0.
pub struct Metrics {
    defs: &'static [Def],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(defs: &'static [Def]) -> Metrics {
        Metrics {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    fn index(&self, name: &str) -> usize {
        self.defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite");
        let i = self.index(name);
        self.values[i] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[self.index(name)]
    }

    /// `name value unit (direction)`, one line per metric.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (d, v) in self.defs.iter().zip(&self.values) {
            let _ = writeln!(
                s,
                "{:<34} {:>18.4} {:<7} ({} is better)",
                d.name, v, d.unit, d.better
            );
        }
        s
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above name the same metrics with
    /// the same units and directions, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str, next: &str| {
            let from = text.find(&format!("\"{key}\"")).expect(key);
            let to = text[from..]
                .find(&format!("\"{next}\""))
                .map_or(text.len(), |i| from + i);
            text[from..to].to_string()
        };
        for (defs, body) in [
            (END_TO_END, section("end_to_end", "per_layer")),
            (PER_LAYER, section("per_layer", "zzz")),
        ] {
            assert_eq!(body.matches("\"name\"").count(), defs.len());
            let mut at = 0;
            for d in defs {
                let want = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    d.name, d.unit, d.better
                );
                at += body[at..]
                    .find(&want)
                    .unwrap_or_else(|| panic!("missing or out of order: {want}"));
            }
        }
    }

    #[test]
    fn json_carries_every_metric() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 0.125);
        assert_eq!(m.get("setup_s"), 0.125);
        let j = m.json();
        assert!(j.starts_with("{\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
        assert_eq!(j.matches("\"value\"").count(), END_TO_END.len());
    }
}
