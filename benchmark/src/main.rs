//! The repository's benchmark. See `README.md` beside this package for
//! the workloads, the metrics and why they were chosen.
//!
//! Two ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload
//!   once in this process and prints its rows, then — as the last line —
//!   the JSON object the benchmark contract asks for. `--trace 0` gives
//!   the end-to-end metrics; `--trace 1` a traced run of the workload
//!   plus the layer probes, for the per-layer metrics.
//! * without `--workload`, runs full sets: every workload untraced, then
//!   traced, each in a fresh child process, and prints a summary.
//!   `--repeat N` runs N sets (seed, seed+1, …) and checks each
//!   end-to-end metric's spread against its bound.

mod client;
mod cpus;
mod engine;
mod gen;
mod pool;
mod probes;
mod recorder;
mod report;
mod sim;
mod spans;
mod tcp;

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use recorder::{median, quartiles};
use report::{contract_line, json_num, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;
const DEFAULT_SEED: u64 = 42;

/// A traced run alternates this many untraced and traced stretches.
pub const TRACE_ROUNDS: u32 = 5;

/// The program names its pool threads `preemptdb-worker-<n>`; the kernel
/// keeps the first fifteen bytes.
pub const WORKER_THREADS: &str = "preemptdb-worke";

/// How one run of one workload is sized.
pub struct Plan {
    pub seed: u64,
    pub trace: bool,
    /// Length of a measured stretch. A traced run has two (an untraced
    /// reference, then the traced one), each a quarter of `--seconds`,
    /// and leaves the rest to the layer probes.
    pub measure: Duration,
    /// Load applied before measuring; its samples are dropped.
    pub warmup: Duration,
    /// How many times set-up is done and timed (the median is reported).
    pub setups: usize,
    pub probe_batches: usize,
    /// Where trace files go: `out/` beside this package's manifest.
    pub out_dir: PathBuf,
}

impl Plan {
    fn new(seed: u64, seconds: u64, trace: bool, quick: bool) -> Plan {
        let seconds = Duration::from_secs(seconds.max(1));
        Plan {
            seed,
            trace,
            measure: if trace { seconds / 4 } else { seconds },
            warmup: Duration::from_secs(match (quick, trace) {
                (true, _) => 1,
                (false, true) => 2,
                (false, false) => 3,
            }),
            setups: if quick { 2 } else { 9 },
            probe_batches: if quick { 1 } else { 9 },
            out_dir: out_dir(),
        }
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: Option<bool>,
    repeat: usize,
    quick: bool,
}

const USAGE: &str =
    "usage: preemptdb-benchmark [--workload tcp_mixed|pool_preempt|engine_oltp|sim_mixed]
       [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--quick]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        repeat: 1,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = Some(number(value()?)?.clamp(1, 60)),
            "--trace" => args.trace = Some(number(value()?)? != 0),
            "--repeat" => args.repeat = number(value()?)?.max(1) as usize,
            "--quick" => args.quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 3 } else { DEFAULT_SECONDS });
    match &args.workload {
        Some(w) => run_one(
            w,
            &Plan::new(args.seed, seconds, args.trace.unwrap_or(false), args.quick),
            seconds,
        ),
        None => run_sets(&args, seconds),
    }
}

/// Host and build facts carried on every result row.
struct Provenance {
    git: String,
    nproc: usize,
    tsc_hz: u64,
}

impl Provenance {
    fn probe() -> Provenance {
        // Only ask git when this package sits in a repository of its own;
        // the driver's checkout is not one, and git would walk out of it.
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
        let git = root
            .join(".git")
            .exists()
            .then(|| {
                Command::new("git")
                    .arg("-C")
                    .arg(&root)
                    .args(["rev-parse", "--short", "HEAD"])
                    .stderr(Stdio::null())
                    .output()
                    .ok()
                    .filter(|o| o.status.success())
                    .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            })
            .flatten()
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            git,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            tsc_hz: preemptdb::uintr::cycles::tsc_hz(),
        }
    }
}

/// Contract mode: one workload, once, in this process.
fn run_one(workload: &str, plan: &Plan, seconds: u64) -> ExitCode {
    let prov = Provenance::probe();
    let trace = u8::from(plan.trace);
    println!(
        "meta {workload} trace={trace} seed={} seconds={seconds} git={} nproc={} tsc_hz={}",
        plan.seed, prov.git, prov.nproc, prov.tsc_hz
    );
    let mut out = match workload {
        "tcp_mixed" => tcp::run(plan),
        "pool_preempt" => pool::run(plan),
        "engine_oltp" => engine::run(plan),
        _ => sim::run(plan),
    };
    let defs = if plan.trace {
        let probed = probes::run(plan);
        out.checks.extend(probed.checks);
        out.failed += probed.failed;
        out.metrics.extend(probed.metrics);
        PER_LAYER
    } else {
        for d in END_TO_END {
            let present = out.get(d.name).is_some_and(|m| m.stat.value > 0.0);
            if !present {
                out.check("end_to_end_metric_present", false, d.name.to_string());
            }
        }
        END_TO_END
    };
    print_rows(workload, trace, &out);
    println!("{}", contract_line(&out, defs));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_rows(workload: &str, trace: u8, out: &Outcome) {
    for m in &out.metrics {
        let spread = m
            .stat
            .spread
            .map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0));
        println!(
            "metric {workload} trace={trace} {} {} {} n={} spread={spread}",
            m.name,
            json_num(m.stat.value),
            m.unit,
            m.stat.n
        );
    }
    for c in &out.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!(
            "check {workload} trace={trace} {} {verdict} {}",
            c.name, c.detail
        );
    }
    println!(
        "ops {workload} trace={trace} attempted={} failed={} failed_frac={}",
        out.attempted,
        out.failed,
        json_num(out.failed as f64 / out.attempted.max(1) as f64)
    );
}

/// One parsed `metric` row of a child run.
struct Row {
    workload: String,
    trace: u8,
    name: String,
    value: f64,
    unit: String,
    n: String,
    spread: String,
    seed: u64,
}

fn parse_row(line: &str, seed: u64) -> Option<Row> {
    let mut f = line.split(' ');
    if f.next()? != "metric" {
        return None;
    }
    Some(Row {
        workload: f.next()?.to_string(),
        trace: f.next()?.strip_prefix("trace=")?.parse().ok()?,
        name: f.next()?.to_string(),
        value: f.next()?.parse().ok()?,
        unit: f.next()?.to_string(),
        n: f.next()?.strip_prefix("n=")?.to_string(),
        spread: f.next()?.strip_prefix("spread=")?.to_string(),
        seed,
    })
}

/// Runs one workload in a fresh child process, passing its rows through.
/// Returns the rows and whether the child reported a correct run.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool, quick: bool) -> (Vec<Row>, bool) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if quick {
        cmd.arg("--quick");
    }
    let output = match cmd.output() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{workload}: could not start a child run: {e}");
            return (Vec::new(), false);
        }
    };
    let text = String::from_utf8_lossy(&output.stdout);
    let mut rows = Vec::new();
    for line in text.lines() {
        if line.starts_with('{') {
            continue;
        }
        println!("{line}");
        rows.extend(parse_row(line, seed));
    }
    (rows, output.status.success())
}

/// Set mode: every workload untraced then traced, `repeat` times.
fn run_sets(args: &Args, seconds: u64) -> ExitCode {
    let prov = Provenance::probe();
    let modes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut rows: Vec<Row> = Vec::new();
    let mut all_correct = true;
    for set in 0..args.repeat {
        let seed = args.seed + set as u64;
        println!("set {} of {} seed={seed}", set + 1, args.repeat);
        for &trace in modes {
            for w in WORKLOADS {
                let (r, ok) = child(w, seed, seconds, trace, args.quick);
                all_correct &= ok;
                rows.extend(r);
            }
        }
    }
    if !args.quick {
        if let Err(e) = append_results(&rows, &prov, seconds) {
            eprintln!("could not write results: {e}");
        }
    }
    let within = summarize(&rows, args.repeat);
    if !all_correct {
        println!("FAILED: a run reported failed operations or a failed check");
    }
    if all_correct && within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per workload and end-to-end metric: median and quartiles over the
/// sets, and whether the spread is inside the metric's bound. With one
/// set there is no spread to judge. The host floors are printed beside
/// the `tcp_mixed` rows so a host shift can be told from a program change.
fn summarize(rows: &[Row], sets: usize) -> bool {
    let mut within = true;
    println!("summary ({sets} set{})", if sets == 1 { "" } else { "s" });
    for w in WORKLOADS {
        let of = |name: &str, trace: u8| -> Vec<f64> {
            rows.iter()
                .filter(|r| r.workload == w && r.name == name && r.trace == trace)
                .map(|r| r.value)
                .collect()
        };
        for d in END_TO_END {
            let values = of(d.name, 0);
            if values.is_empty() {
                continue;
            }
            let bound = d.bound.unwrap_or(0.0);
            let verdict = match quartiles(&values) {
                Some([q1, q2, q3]) => {
                    let spread = (q3 - q1) / q2;
                    // `setup_s` is gated on its median alone, as the driver does.
                    let ok = spread <= bound || d.name == "setup_s";
                    within &= ok;
                    format!(
                        "q1 {q1:.4} q3 {q3:.4} spread {:.2}% bound {:.0}% {}",
                        spread * 100.0,
                        bound * 100.0,
                        if ok { "inside" } else { "OUTSIDE" }
                    )
                }
                None => format!("bound {:.0}%", bound * 100.0),
            };
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            println!(
                "  {w:<14} {:<20} median {:>12.4} {:<4} ({better} is better) {verdict}",
                d.name,
                median(&values),
                d.unit
            );
        }
        for extra in ["low_ops_per_s", "bench.trace_overhead_frac"] {
            let values = of(extra, 1);
            if !values.is_empty() {
                println!(
                    "  {w:<14} {extra:<20} median {:>12.4} (traced run)",
                    median(&values)
                );
            }
        }
        if w.starts_with("tcp_") {
            for floor in [
                "host.tcp_echo_rtt_p50_us",
                "host.tcp_echo_window8_per_s",
                "host.thread_wake_p50_us",
            ] {
                let values = of(floor, 1);
                if !values.is_empty() {
                    println!(
                        "  {w:<14} {floor:<28} median {:>12.4} (host floor)",
                        median(&values)
                    );
                }
            }
        }
    }
    within
}

/// Appends one JSON line per row to `out/results.jsonl`.
fn append_results(rows: &[Row], prov: &Provenance, seconds: u64) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("results.jsonl"))?;
    for r in rows {
        writeln!(
            f,
            "{{\"workload\":\"{}\",\"trace\":{},\"metric\":\"{}\",\"value\":{},\"unit\":\"{}\",\
             \"samples\":{},\"spread\":\"{}\",\"seed\":{},\"seconds\":{seconds},\"git\":\"{}\",\
             \"nproc\":{},\"tsc_hz\":{}}}",
            r.workload,
            r.trace,
            r.name,
            json_num(r.value),
            r.unit,
            r.n,
            r.spread,
            r.seed,
            prov.git,
            prov.nproc,
            prov.tsc_hz
        )?;
    }
    Ok(())
}
