//! # lmas-bench — the experiment harness
//!
//! One binary per figure/table of the paper (plus the extension
//! experiments registered in `DESIGN.md` §4):
//!
//! | target | artifact | gates |
//! |--------|----------|-------|
//! | `fig9` | Figure 9 — DSM-Sort pass-1 speedup vs #ASUs per α (`fig9_speedup.csv`) | |
//! | `fig10` | Figure 10 — host utilization under skew ± load management (`fig10_utilization.csv`) | |
//! | `work_table` | T1 — the `n·log(αβγ)` work identity (`work_table.csv`) | |
//! | `c_sensitivity` | T2 — Figure 9 at c = 4 vs c = 8 (`c_sensitivity.csv`) | |
//! | `gamma_split` | T3 — merge-pass time vs (γ₁, γ₂) split (`gamma_split.csv`) | |
//! | `routing_ablation` | T4 — routing policies under skew (`routing_ablation.csv`) | |
//! | `rtree_layouts` | F5 — partition vs stripe query latency/throughput (`rtree_layouts.csv`, `rtree_hot_region.csv`) | |
//! | `terraflow_steps` | F-TF — per-step TerraFlow scaling (`terraflow_steps.csv`) | |
//! | `interference` | T5 — shared-ASU interference and adaptation (`interference.csv`) | |
//! | `fault_sweep` | F-FT — makespan inflation under a masked crash (`BENCH_faults.json`) | 1 |
//! | `disk_scaling` | BENCH-storage — spindles, buffer pool, read-ahead (`BENCH_storage.json`) | |
//! | `placement_sweep` | F-PLACE — planned vs naive layouts (`BENCH_placement.json`) | 2 |
//! | `fleet_scale` | BENCH-fleet-scale — wall clock and peak RSS from 256 to 16 384 nodes (`BENCH_fleet_scale.json`, wall-clock) | 3 |
//! | `par_scaling` | BENCH-par-sim — partitioned kernel scaling (`BENCH_par_sim.json`, wall-clock) | 2 |
//! | `coded_shuffle` | F-CS — coded-shuffle r-sweep vs the planner (`BENCH_coded.json`) | 4 |
//! | `repair_fleet` | F-RF — re-replication vs the mean-field ODE (`BENCH_repair.json`) | 1 |
//! | `multi_tenant` | F-MT — job latency under open arrivals (`BENCH_sched.json`) | 4 |
//! | `determinism` | the golden ledger, [`ledger::render`] (`results/determinism.txt` is its stdout) | |
//!
//! `benches/` holds the wall-clock micro-benches (`kernels`, `sim_micro`,
//! `gis_micro` → `BENCH_{kernels,sim,gis}.json`).
//!
//! Every artifact goes through one writer. A bench declares its columns
//! once in a [`Table`]; the same rows print as an aligned stdout table
//! and render the CSV ([`write_csv`]) or the `BENCH_*.json`
//! ([`Report`]). A report declares its gates as booleans:
//! [`Report::write`] writes the artifact, then fails naming every gate
//! that is false. Only wall-clock reports declare a headline, and with it
//! record `host_cores`; the deterministic artifacts hold no
//! machine-dependent field, so CI diffs them against the checked-in copy.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub mod ledger;

/// Directory where experiment artifacts land (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("LMAS_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    fs::create_dir_all(&p).expect("create results dir");
    p
}

fn write_file(dir: &Path, name: &str, contents: &str) {
    let path = dir.join(name);
    fs::write(&path, contents).expect("write results file");
    println!("[wrote {}]", path.display());
}

/// A JSON value whose numbers are already formatted: the text a table
/// cell shows is the text the artifact holds.
#[derive(Clone, Debug)]
pub enum Json {
    Num(String),
    Str(String),
    Bool(bool),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// `x` with `digits` after the point.
pub fn fx(x: f64, digits: usize) -> Json {
    assert!(x.is_finite(), "bench figures are finite, got {x}");
    Json::Num(format!("{x:.digits$}"))
}

/// An object of `(key, value)` members, in order.
pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

macro_rules! json_num_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n.to_string())
            }
        }
    )*};
}
json_num_from!(u32, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl Json {
    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// A container holding a container: rendered one member per line.
    fn is_deep(&self) -> bool {
        match self {
            Json::Arr(items) => items.iter().any(Json::is_container),
            Json::Obj(members) => members.iter().any(|(_, v)| v.is_container()),
            _ => false,
        }
    }

    /// The text of a CSV or stdout cell: strings unquoted.
    fn cell(&self) -> String {
        match self {
            Json::Str(s) => s.clone(),
            other => {
                let mut out = String::new();
                other.render(&mut out, 0);
                out
            }
        }
    }

    /// Append the JSON text. A container of scalars stays on one line; a
    /// deep one puts each member on its own line, indented two spaces past
    /// `indent`.
    fn render(&self, out: &mut String, indent: usize) {
        let (brackets, members): (&str, Vec<(Option<&str>, &Json)>) = match self {
            Json::Num(n) => return out.push_str(n),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => return quote(s, out),
            Json::Arr(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
            Json::Obj(m) => ("{}", m.iter().map(|(k, v)| (Some(k.as_str()), v)).collect()),
        };
        let deep = self.is_deep();
        out.push_str(&brackets[..1]);
        for (i, (key, v)) in members.into_iter().enumerate() {
            if deep {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&" ".repeat(indent + 2));
            } else if i > 0 {
                out.push_str(", ");
            }
            if let Some(k) = key {
                quote(k, out);
                out.push_str(": ");
            }
            v.render(out, indent + 2);
        }
        if deep {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
        }
        out.push_str(&brackets[1..]);
    }
}

fn quote(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Rows under columns declared once: [`Table::print`] shows them aligned
/// on stdout, and the same cells render the CSV or the JSON artifact.
pub struct Table {
    cols: Vec<String>,
    rows: Vec<Vec<Json>>,
}

impl Table {
    /// An empty table; `cols` names the columns, separated by whitespace.
    pub fn new(cols: &str) -> Table {
        Table {
            cols: cols.split_whitespace().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row, a cell per declared column.
    pub fn row(&mut self, cells: Vec<Json>) {
        assert_eq!(
            cells.len(),
            self.cols.len(),
            "row width differs from the columns {:?}",
            self.cols
        );
        self.rows.push(cells);
    }

    /// Append the row `label`, then `values` with `digits` after the point.
    pub fn series(&mut self, label: impl Into<Json>, values: &[f64], digits: usize) {
        let cells = std::iter::once(label.into()).chain(values.iter().map(|&v| fx(v, digits)));
        self.row(cells.collect());
    }

    /// The header, then each row's cell texts.
    fn lines(&self) -> impl Iterator<Item = Vec<String>> + '_ {
        let rows = self.rows.iter().map(|r| r.iter().map(Json::cell).collect());
        std::iter::once(self.cols.clone()).chain(rows)
    }

    /// Header and rows, right-aligned, two spaces between columns.
    /// Columns holding nested values (histograms) are left to the artifact.
    fn aligned(&self) -> String {
        let shown: Vec<usize> = (0..self.cols.len())
            .filter(|&c| !self.rows.iter().any(|r| r[c].is_container()))
            .collect();
        let lines: Vec<Vec<String>> = self.lines().collect();
        let widths: Vec<usize> = (0..self.cols.len())
            .map(|c| {
                lines
                    .iter()
                    .map(|l| l[c].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        lines
            .iter()
            .map(|l| {
                let cells: Vec<String> = shown
                    .iter()
                    .map(|&c| format!("{:>w$}", l[c], w = widths[c]))
                    .collect();
                cells.join("  ") + "\n"
            })
            .collect()
    }

    /// Print the aligned table to stdout.
    pub fn print(&self) {
        print!("{}", self.aligned());
    }

    fn csv(&self) -> String {
        self.lines()
            .map(|cells| {
                assert!(
                    cells.iter().all(|c| !c.contains([',', '\n'])),
                    "CSV cells hold no comma or newline: {cells:?}"
                );
                cells.join(",") + "\n"
            })
            .collect()
    }

    /// The rows as a list of objects, one member per column.
    pub fn list(&self) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .map(|r| Json::Obj(self.cols.iter().cloned().zip(r.iter().cloned()).collect()))
                .collect(),
        )
    }
}

/// Print `table` and write it as the CSV `results/<file>`.
pub fn write_csv(file: &str, table: &Table) {
    table.print();
    write_file(&results_dir(), file, &table.csv());
}

/// A `BENCH_*.json` artifact: its members in order, then — for a
/// wall-clock report — the headline and `host_cores`, then the gates.
pub struct Report {
    file: String,
    members: Vec<(String, Json)>,
    headline: Option<Vec<String>>,
    gates: Vec<(String, bool)>,
}

impl Report {
    /// An empty report that [`Report::write`] saves as `results/<file>`.
    pub fn new(file: &str) -> Report {
        Report {
            file: file.to_string(),
            members: Vec::new(),
            headline: None,
            gates: Vec::new(),
        }
    }

    /// Add the member `key`, printing it when it fits on one line.
    pub fn put(&mut self, key: impl Into<String>, value: Json) {
        let key = key.into();
        if !value.is_deep() {
            println!("{key}: {}", value.cell());
        }
        self.members.push((key, value));
    }

    /// Print `table` and add each row as a member: the key is the row's
    /// first cell, the value an object of the other columns.
    pub fn keyed(&mut self, table: &Table) {
        table.print();
        for r in &table.rows {
            let fields = table.cols[1..]
                .iter()
                .cloned()
                .zip(r[1..].iter().cloned())
                .collect();
            self.members.push((r[0].cell(), Json::Obj(fields)));
        }
    }

    /// Print `table` and add its rows as the list `key`.
    pub fn list(&mut self, key: &str, table: &Table) {
        table.print();
        self.members.push((key.to_string(), table.list()));
    }

    /// Declare a gate: `ok` is the condition the bench exists to check.
    pub fn gate(&mut self, name: &str, ok: bool) {
        self.gates.push((name.to_string(), ok));
    }

    /// Declare the headline: the numeric member at `path` (a member key,
    /// then keys into nested objects). A headline marks the report as
    /// wall-clock, so it also records the `host_cores` it ran on.
    pub fn headline(&mut self, path: &[&str]) {
        self.headline = Some(path.iter().map(|k| k.to_string()).collect());
    }

    fn render(&self) -> String {
        let mut members = self.members.clone();
        if let Some(path) = &self.headline {
            let mut at = &Json::Obj(self.members.clone());
            for key in path {
                at = match at {
                    Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                    _ => None,
                }
                .unwrap_or_else(|| panic!("{}: no headline member {path:?}", self.file));
            }
            assert!(
                matches!(at, Json::Num(_)),
                "{}: headline {path:?} is not a number",
                self.file
            );
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            members.push((
                "headline".into(),
                obj([("name", path.join(".").into()), ("value", at.clone())]),
            ));
            members.push(("host_cores".into(), cores.into()));
        }
        if !self.gates.is_empty() {
            members.push(("gates".into(), self.gates()));
        }
        let mut out = String::new();
        Json::Obj(members).render(&mut out, 0);
        out + "\n"
    }

    fn gates(&self) -> Json {
        Json::Obj(
            self.gates
                .iter()
                .map(|(k, ok)| (k.clone(), Json::Bool(*ok)))
                .collect(),
        )
    }

    /// Write `results/<file>`, then fail naming every gate that is false.
    /// A bench's `main` returns this, so a false gate exits non-zero.
    pub fn write(&self) -> Result<(), GateFailure> {
        self.write_to(&results_dir())
    }

    fn write_to(&self, dir: &Path) -> Result<(), GateFailure> {
        if !self.gates.is_empty() {
            println!("gates: {}", self.gates().cell());
        }
        write_file(dir, &self.file, &self.render());
        let failed: Vec<String> = self
            .gates
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(k, _)| k.clone())
            .collect();
        if failed.is_empty() {
            Ok(())
        } else {
            Err(GateFailure {
                file: self.file.clone(),
                gates: failed,
            })
        }
    }
}

/// The gates of a written report that came out false.
pub struct GateFailure {
    file: String,
    gates: Vec<String>,
}

// `main` returning `Err` prints the Debug form: make it the message.
impl fmt::Debug for GateFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: gate false: {}", self.file, self.gates.join(", "))
    }
}

/// Wall-clock micro-benchmark support: a median-of-iterations timer
/// feeding a [`Report`]. Used by the `benches/` targets, which run as
/// plain `harness = false` mains under `cargo bench`.
mod timing {
    use crate::{fx, Report};
    use std::time::Instant;

    /// Timed iterations per measurement (`LMAS_BENCH_ITERS`, default 15).
    fn iters() -> usize {
        std::env::var("LMAS_BENCH_ITERS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(15)
            .max(1)
    }

    /// Median wall-clock nanoseconds of one call to `f`, over
    /// [`iters`] timed iterations after a few warmup calls. The median
    /// (not the mean) keeps one preempted iteration from skewing the
    /// figure.
    fn median_ns<T>(mut f: impl FnMut() -> T) -> f64 {
        for _ in 0..3 {
            std::hint::black_box(f());
        }
        let mut samples: Vec<f64> = (0..iters())
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_nanos() as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        if n % 2 == 1 {
            samples[n / 2]
        } else {
            (samples[n / 2 - 1] + samples[n / 2]) / 2.0
        }
    }

    impl Report {
        /// Time `f` and record `median / per` (e.g. per-record ns) as the
        /// member `name`.
        pub fn bench<T>(&mut self, name: &str, per: u64, f: impl FnMut() -> T) {
            self.put(name, fx(median_ns(f) / per.max(1) as f64, 3));
        }
    }
}

/// Quick scale helper: read `LMAS_SCALE` (float, default 1.0) to shrink
/// or grow experiment sizes without editing code.
pub fn scale() -> f64 {
    std::env::var("LMAS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scale a record count by `LMAS_SCALE`, keeping at least `min`.
pub fn scaled_n(base: u64, min: u64) -> u64 {
    ((base as f64 * scale()) as u64).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_aligns_right() {
        let mut t = Table::new("a long");
        t.row(vec!["α".into(), 42u64.into()]);
        t.row(vec!["bb".into(), obj([("h", 1u64.into())])]);
        // The nested column is artifact-only; widths count characters.
        assert_eq!(t.aligned(), " a\n α\nbb\n");
        let mut t = Table::new("a long");
        t.row(vec!["α".into(), 42u64.into()]);
        assert_eq!(t.aligned(), "a  long\nα    42\n");
    }

    #[test]
    fn fig9_table_renders_the_checked_in_csv() {
        let rows: [(&str, [f64; 6]); 6] = [
            ("1", [0.9923, 0.9956, 0.9956, 0.9956, 0.9956, 0.9956]),
            ("4", [0.9756, 1.1138, 1.1233, 1.1282, 1.1282, 1.1282]),
            ("16", [0.7206, 1.1141, 1.2028, 1.2472, 1.2579, 1.2579]),
            ("64", [0.5564, 0.7978, 1.0468, 1.2175, 1.3360, 1.3360]),
            ("256", [0.4865, 0.7099, 0.9595, 1.1946, 1.3633, 1.3991]),
            ("adaptive", [0.9923, 1.1141, 0.9595, 1.1946, 1.3633, 1.3991]),
        ];
        let mut t = Table::new("alpha D2 D4 D8 D16 D32 D64");
        for (alpha, series) in rows {
            t.series(alpha, &series, 4);
        }
        assert_eq!(
            t.csv(),
            "alpha,D2,D4,D8,D16,D32,D64\n\
             1,0.9923,0.9956,0.9956,0.9956,0.9956,0.9956\n\
             4,0.9756,1.1138,1.1233,1.1282,1.1282,1.1282\n\
             16,0.7206,1.1141,1.2028,1.2472,1.2579,1.2579\n\
             64,0.5564,0.7978,1.0468,1.2175,1.3360,1.3360\n\
             256,0.4865,0.7099,0.9595,1.1946,1.3633,1.3991\n\
             adaptive,0.9923,1.1141,0.9595,1.1946,1.3633,1.3991\n"
        );
    }

    #[test]
    fn keyed_rows_and_strings_render_as_json() {
        let mut t = Table::new("cell policy rho hist");
        t.row(vec![
            "d16/bw4".into(),
            "say \"hi\"\\".into(),
            fx(0.28444, 4),
            obj([]),
        ]);
        t.row(vec![
            "H2D4c8".into(),
            "fcfs".into(),
            fx(1.0, 2),
            obj([("15", 3u64.into())]),
        ]);
        let mut r = Report::new("BENCH_test.json");
        r.keyed(&t);
        r.put("tolerances", obj([("sat_tol", Json::Num(1.6.to_string()))]));
        r.gate("verified_ok", true);
        assert_eq!(
            r.render(),
            "{\n  \"d16/bw4\": {\n    \"policy\": \"say \\\"hi\\\"\\\\\",\n    \
             \"rho\": 0.2844,\n    \"hist\": {}\n  },\n  \"H2D4c8\": {\n    \
             \"policy\": \"fcfs\",\n    \"rho\": 1.00,\n    \"hist\": {\"15\": 3}\n  },\n  \
             \"tolerances\": {\"sat_tol\": 1.6},\n  \"gates\": {\"verified_ok\": true}\n}\n"
        );
    }

    #[test]
    fn headline_names_a_member_and_adds_host_cores() {
        let mut r = Report::new("BENCH_test.json");
        r.put("cell", obj([("speedup", fx(5.12345, 4))]));
        r.headline(&["cell", "speedup"]);
        let text = r.render();
        assert!(text.contains("\"headline\": {\"name\": \"cell.speedup\", \"value\": 5.1235}"));
        assert!(text.contains("\"host_cores\": "));
    }

    #[test]
    fn false_gate_writes_then_fails_naming_it() {
        let dir = std::env::temp_dir().join(format!("lmas-bench-gate-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        let mut r = Report::new("BENCH_gate.json");
        r.put("x", 1u64.into());
        r.gate("verified_holds", true);
        r.gate("verified_broken", false);
        let err = r.write_to(&dir).expect_err("a false gate fails the write");
        assert_eq!(
            format!("{err:?}"),
            "BENCH_gate.json: gate false: verified_broken"
        );
        let written = fs::read_to_string(dir.join("BENCH_gate.json")).expect("artifact written");
        assert!(written.contains("\"verified_broken\": false"));
        fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn scaled_n_respects_min() {
        assert!(scaled_n(100, 10) >= 10);
    }
}
