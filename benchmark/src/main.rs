//! Wall-clock benchmark of the LMAS emulator (see README.md).
//!
//! One process measures one workload in one mode:
//!
//! ```text
//! lmas-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--quick] [--out DIR]
//! ```
//!
//! `--trace 0` times the workload's top-level entry in a closed loop and
//! reports the end-to-end metrics; `--trace 1` recomposes the job from
//! the layers' public functions under spans and reports the per-layer
//! metrics. The last line of stdout is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `run.sh` builds and
//! runs every workload in both modes, each in its own process.

mod layers;
mod metrics;
mod stats;
mod timed;
mod trace;
mod workloads;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use stats::{median, WallStats};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{SchedWl, SortWl, TerraWl, Workload};

/// Timed reps a run makes at the least, however short `--seconds` is.
const MIN_REPS: usize = 5;
/// Share of `--seconds` a traced run spends on untraced reps first, to
/// have its own `wall_ms_p50` to hold the spans against.
const TRACED_RUN_UNTRACED_SHARE: f64 = 0.4;
/// Traced reps of the recomposed job: at least the first number, then
/// until they have taken their share of `--seconds`, at most the second.
const TRACED_REPS: (usize, usize) = (3, 30);
const TRACED_SHARE: f64 = 0.2;
/// Set-up (input generation, probe, warm-up rep, verification) runs at
/// least three times and then until the takes add up to this long, so
/// that `setup_s` is a median even where one set-up takes milliseconds.
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 21;
/// Reps per workload under `--quick`: wiring smoke test, not numbers.
const QUICK_REPS: usize = 2;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 2002,
        seconds: 12.0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?,
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => o.quick = true,
            "--out" => o.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&o.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if !(o.seconds > 0.0 && o.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(o)
}

/// What one run measured, ready to print.
struct Outcome {
    metrics: Metrics,
    wall: WallStats,
    /// Every timed rep, in order, for looking at noise over a run.
    wall_ms: Vec<f64>,
    setups: usize,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    digest: u64,
    threads: usize,
    /// Human-readable notes on the traced run's self-consistency.
    notes: Vec<String>,
    chrome_trace: Option<String>,
}

/// One set-up from scratch: inputs from the seed, configuration, probe
/// run where the workload needs one, then the warm-up rep and its full
/// verification. `since` is when this set-up began.
struct SetUp<W: Workload> {
    wl: W,
    warm: W::Out,
    digest: u64,
    problem: Option<String>,
    secs: f64,
}

fn set_up<W: Workload>(make: &impl Fn() -> W, since: Instant) -> SetUp<W> {
    let wl = make();
    let warm = wl.rep().out;
    let problem = wl.verify(&warm).err();
    let digest = wl.digest(&warm);
    SetUp {
        secs: since.elapsed().as_secs_f64(),
        wl,
        warm,
        digest,
        problem,
    }
}

/// What the traced part of a `--trace 1` run yields.
struct Traced {
    metrics: Metrics,
    reps: usize,
    /// Traced reps whose digest differs from the warm-up's.
    mismatches: usize,
    notes: Vec<String>,
    chrome_trace: String,
}

/// The recomposed job under spans, then every per-layer metric: counts
/// from the warm-up's reports, span-derived figures, floors, and the
/// harness's own accounting of the untraced reps in `wall`.
fn trace_layers<W: Workload>(
    wl: &W,
    warm: &W::Out,
    digest: u64,
    wall: &WallStats,
    opts: &Opts,
) -> Traced {
    let mut tr = Tracer::new();
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        tr.set_rep(reps.len() as u32);
        reps.push(wl.traced_rep(&mut tr));
        let n = reps.len();
        let done = if opts.quick {
            n >= QUICK_REPS
        } else {
            let spent = start.elapsed().as_secs_f64() >= opts.seconds * TRACED_SHARE;
            n >= TRACED_REPS.1 || (n >= TRACED_REPS.0 && spent)
        };
        if done {
            break;
        }
    }

    let mut m = Metrics::new(PER_LAYER);
    wl.counts(warm, &mut m);
    wl.layers(warm, &tr, &reps, wall.p50, &mut m);
    let events = m.get("sim.events");
    if events > 0.0 {
        m.set("sim.ns_per_event", wall.p50 * 1e6 / events);
        m.set(
            "sim.calendar_floor_ms",
            layers::calendar_floor_ms(events as u64),
        );
        m.set(
            "sim.engine_floor_ms",
            layers::engine_floor_ms(events as u64),
        );
    }
    m.set("bench.reps", wall.reps as f64);
    m.set("bench.wall_ms_min", wall.min);
    m.set("bench.wall_ms_iqr", wall.iqr);
    m.set("bench.wall_ms_tail", wall.tail);
    m.set("bench.tail_pct", wall.tail_pct as f64);
    m.set("bench.host_cores", host_cores() as f64);

    let top = tr.median_ms("rep");
    let shares: Vec<String> = tr
        .self_shares("rep")
        .iter()
        .take(6)
        .map(|(name, share)| format!("{name} {:.1} %", 100.0 * share))
        .collect();
    let notes = vec![
        format!(
            "top-level traced span p50 {top:.3} ms vs untraced wall_ms_p50 {:.3} ms ({:+.2} %)",
            wall.p50,
            100.0 * (top / wall.p50 - 1.0)
        ),
        format!(
            "self-time shares of the top-level span: {}",
            shares.join(", ")
        ),
    ];
    Traced {
        metrics: m,
        reps: reps.len(),
        mismatches: reps.iter().filter(|r| r.digest != digest).count(),
        notes,
        chrome_trace: tr.chrome_json(),
    }
}

fn drive<W: Workload>(make: impl Fn() -> W, opts: &Opts, t0: Instant) -> Outcome {
    // The first set-up starts at process start.
    let SetUp {
        wl,
        warm,
        digest,
        problem,
        secs,
    } = set_up(&make, t0);
    let mut setups_s = vec![secs];
    let mut problems: Vec<String> = problem.into_iter().collect();

    // The closed loop: clone the input, time the entry, digest the output.
    let budget_s = if opts.trace {
        opts.seconds * TRACED_RUN_UNTRACED_SHARE
    } else {
        opts.seconds
    };
    let (mut wall_ms, mut clone_ms) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let loop_start = Instant::now();
    loop {
        let rep = wl.rep();
        if wl.digest(&rep.out) != digest || !wl.engaged(&rep.out) {
            failed += 1;
        }
        wall_ms.push(rep.wall_ns as f64 / 1e6);
        clone_ms.push(rep.clone_ns as f64 / 1e6);
        drop(rep);
        let n = wall_ms.len();
        let done = if opts.quick {
            n >= QUICK_REPS
        } else {
            n >= MIN_REPS && loop_start.elapsed().as_secs_f64() >= budget_s
        };
        if done {
            break;
        }
    }
    let wall = WallStats::of(&wall_ms);
    let mut attempted = wall_ms.len();
    let (mut notes, mut chrome_trace) = (Vec::new(), None);

    let mut metrics = if opts.trace {
        let traced = trace_layers(&wl, &warm, digest, &wall, opts);
        attempted += traced.reps;
        failed += traced.mismatches;
        notes = traced.notes;
        chrome_trace = Some(traced.chrome_trace);
        let mut m = traced.metrics;
        m.set("bench.clone_ms", median(&clone_ms));
        m
    } else {
        let mut m = Metrics::new(END_TO_END);
        m.set("wall_ms_p50", wall.p50);
        m.set("records_per_s", wl.records() as f64 / (wall.p50 / 1e3));
        m.set("peak_rss_mb", peak_rss_mib());
        m.set("sim_makespan_ms", wl.sim_makespan_ms(&warm));
        m
    };

    // `setup_s` is a median, so set-up repeats — after the timed loop,
    // where the repeats cannot disturb what the loop measures (rep time
    // depends on the allocator's state, and so on what ran before), and
    // with the first generation of inputs dropped, so that only one is
    // alive at a time.
    let threads = wl.threads();
    drop((wl, warm));
    if !opts.trace {
        while !opts.quick
            && setups_s.len() < MAX_SETUPS
            && (setups_s.len() < 3 || setups_s.iter().sum::<f64>() < SETUP_BUDGET_S)
        {
            let again = set_up(&make, Instant::now());
            problems.extend(again.problem);
            if again.digest != digest {
                problems.push("a repeated set-up produced a different digest".into());
            }
            setups_s.push(again.secs);
        }
        metrics.set("setup_s", median(&setups_s));
    }

    if !problems.is_empty() {
        // An unverified warm-up voids every rep measured after it.
        failed = attempted;
    }
    Outcome {
        metrics,
        wall,
        wall_ms,
        setups: setups_s.len(),
        attempted,
        failed,
        problems,
        digest,
        threads,
        notes,
        chrome_trace,
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM`: the process's peak resident set, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(0.0, |k| k / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lmas-benchmark: {e}");
            eprintln!(
                "usage: lmas-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--quick] [--out DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let seed = opts.seed;
    let o = match opts.workload.as_str() {
        "sort_default" => drive(|| SortWl::sort_default(seed), &opts, t0),
        "sort_bulk" => drive(|| SortWl::sort_bulk(seed), &opts, t0),
        "fleet_chaos" => drive(|| SortWl::fleet_chaos(seed, 1), &opts, t0),
        "fleet_chaos_par" => drive(|| SortWl::fleet_chaos(seed, 2), &opts, t0),
        "sched_mix" => drive(|| SchedWl::sched_mix(seed), &opts, t0),
        "terraflow" => drive(|| TerraWl::terraflow(seed), &opts, t0),
        other => unreachable!("parse_args admitted {other}"),
    };

    let correct = o.problems.is_empty() && o.failed == 0;
    let mode = if opts.trace { "traced" } else { "untraced" };
    println!(
        "== {} ({mode}, seed {seed}, {} reps{}) ==",
        opts.workload,
        o.wall.reps,
        if opts.quick {
            ", QUICK: not for numbers"
        } else {
            ""
        }
    );
    print!("{}", o.metrics.table());
    println!("{:<34} {:>18} count", "ops_attempted", o.attempted);
    println!("{:<34} {:>18} count", "ops_failed", o.failed);
    println!("{:<34} {:>#18x}", "sim_digest", o.digest);
    for p in &o.problems {
        println!("VERIFICATION FAILED: {p}");
    }
    for n in &o.notes {
        println!("trace: {n}");
    }

    let env = |k: &str| json_str(&std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    let problems: Vec<String> = o.problems.iter().map(|p| json_str(p)).collect();
    let samples: Vec<String> = o.wall_ms.iter().map(|v| format!("{v:.4}")).collect();
    let wall_ms = format!(
        "{{\"p50\": {}, \"min\": {}, \"iqr\": {}, \"tail\": {}, \"tail_pct\": {}, \"samples\": [{}]}}",
        o.wall.p50,
        o.wall.min,
        o.wall.iqr,
        o.wall.tail,
        o.wall.tail_pct,
        samples.join(", ")
    );
    let fields = [
        ("workload", json_str(&opts.workload)),
        ("trace", (opts.trace as u8).to_string()),
        ("quick", opts.quick.to_string()),
        ("seed", seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("host_cores", host_cores().to_string()),
        ("emulator_threads", o.threads.to_string()),
        ("oversubscribed", (o.threads > host_cores()).to_string()),
        ("rustc", env("LMAS_BENCH_RUSTC")),
        ("commit", env("LMAS_BENCH_COMMIT")),
        ("setups", o.setups.to_string()),
        ("reps", o.wall.reps.to_string()),
        ("wall_ms", wall_ms),
        ("correct", correct.to_string()),
        ("ops_attempted", o.attempted.to_string()),
        ("ops_failed", o.failed.to_string()),
        ("sim_digest", format!("\"{:#x}\"", o.digest)),
        ("problems", format!("[{}]", problems.join(", "))),
        ("metrics", o.metrics.json()),
    ];
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let file = format!("{{\n{}\n}}\n", fields.join(",\n"));
    let stem = if opts.trace { "layers_" } else { "" };
    let written = std::fs::create_dir_all(&opts.out)
        .and_then(|()| std::fs::write(opts.out.join(format!("{stem}{}.json", opts.workload)), file))
        .and_then(|()| match &o.chrome_trace {
            Some(t) => std::fs::write(opts.out.join(format!("trace_{}.json", opts.workload)), t),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!(
            "lmas-benchmark: cannot write under {}: {e}",
            opts.out.display()
        );
        return ExitCode::FAILURE;
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.attempted,
        o.failed,
        o.metrics.json()
    );
    ExitCode::SUCCESS
}
