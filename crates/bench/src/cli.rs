//! The `run_all` command line: `run_all [NAME…] [--full] [--check]`.
//!
//! The leading arguments that appear in [`NAMES`] select experiments;
//! everything after them is handed to each selected experiment
//! unchanged (`--full`, `--check`/`--quick`, `--addr HOST:PORT`,
//! `--dump DIR`, `trace_dump`'s output path, `autotune_threshold`'s
//! target share). With no name, `--check` runs the tier-1 [`GATES`] and
//! anything else prints the eight-step report behind `EXPERIMENTS.md`.
//! The first failing experiment ends the run with its exit code.

use std::process::ExitCode;

use crate::{
    ablation_delivery, attr_gate, autotune_threshold, ext_ycsb, fig01, fig08, fig09, fig10, fig11,
    fig12, fig13, fig_adaptive, metrics_dump, server_bench, trace_dump, uintr_latency, Scenario,
};

/// An experiment's entry point: its arguments in, its exit code out.
pub type Run = fn(&[String]) -> ExitCode;

/// Every experiment `run_all` knows, by the name it is invoked with.
pub const NAMES: [(&str, Run); 16] = [
    ("uintr_latency", |args| {
        uintr_latency_step(flag(args, "--full"));
        println!(
            "note: on a single-core host both paths include OS-scheduler noise;\n\
             medians carry the comparison (see DESIGN.md §1.1)."
        );
        ExitCode::SUCCESS
    }),
    ("fig01", |args| figure(fig01_step, args)),
    ("fig08", |args| figure(fig08_step, args)),
    ("fig09", fig09::run),
    ("fig10", |args| figure(fig10_step, args)),
    ("fig11", |args| figure(fig11_step, args)),
    ("fig12", |args| figure(fig12_step, args)),
    ("fig13", |args| figure(fig13_step, args)),
    ("ablation_delivery", |args| {
        let sc = Scenario::pick(flag(args, "--full"));
        ablation_delivery(&sc, &[0.1, 0.5, 2.0, 10.0, 50.0, 200.0]).print();
        println!(
            "expected: NewOrder latency tracks the delivery latency only once it\n\
             dominates the transaction scale (>=10us); below that the mechanism's\n\
             exact delivery cost is immaterial — hardware UINTR (<1us) and this\n\
             emulation live on the flat part of the curve."
        );
        ExitCode::SUCCESS
    }),
    ("autotune_threshold", autotune_threshold::run),
    ("ext_ycsb", ext_ycsb::run),
    ("fig_adaptive", fig_adaptive::run),
    ("server_bench", server_bench::run),
    ("attr_gate", attr_gate::run),
    ("metrics_dump", metrics_dump::run),
    ("trace_dump", trace_dump::run),
];

/// The self-checking experiments `run_all --check` runs for
/// `scripts/tier1.sh`, in order.
pub const GATES: [&str; 4] = ["fig_adaptive", "fig09", "server_bench", "attr_gate"];

/// Looks `name` up in [`NAMES`].
pub fn lookup(name: &str) -> Option<Run> {
    NAMES.iter().find(|(n, _)| *n == name).map(|&(_, run)| run)
}

/// Whether `name` (e.g. `"--full"`) is among `args`.
pub fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// One step of the report: a figure's tables, printed at the quick
/// (`false`) or the `--full` scale.
type Step = fn(bool);

fn uintr_latency_step(full: bool) {
    uintr_latency(if full { 5_000 } else { 1_000 }).print();
}

fn fig01_step(full: bool) {
    fig01(&Scenario::pick(full)).print();
}

fn fig08_step(full: bool) {
    let workers: &[usize] = if full { &[1, 2, 4, 8, 16] } else { &[4, 16] };
    fig08(&Scenario::pick(full), workers).print();
}

fn fig10_step(full: bool) {
    let (top, bottom) = fig10(&Scenario::pick(full));
    top.print();
    bottom.print();
}

fn fig11_step(full: bool) {
    let intervals: &[u64] = if full {
        &[1, 10, 100, 1_000, 10_000, 100_000]
    } else {
        &[10, 1_000, 10_000, 100_000]
    };
    fig11(&Scenario::pick(full), intervals).print();
}

fn fig12_step(full: bool) {
    let thresholds: &[f64] = if full {
        &[0.0, 0.25, 0.5, 0.75, 1.0, 100.0]
    } else {
        &[0.0, 0.75, 100.0]
    };
    fig12(&Scenario::pick(full), thresholds).print();
}

fn fig13_step(full: bool) {
    let arrivals: &[u64] = if full {
        &[50, 158, 500, 1_580, 5_000, 15_800, 50_000]
    } else {
        &[50, 500, 5_000, 50_000]
    };
    fig13(&Scenario::pick(full), arrivals).print();
}

/// A named figure that is nothing but its report step.
fn figure(step: Step, args: &[String]) -> ExitCode {
    step(flag(args, "--full"));
    ExitCode::SUCCESS
}

/// The no-name report: every paper figure in sequence as one markdown
/// document on stdout, progress on stderr.
fn report(full: bool) {
    let sc = Scenario::pick(full);
    println!("# PreemptDB reproduction — experiment report\n");
    println!(
        "scenario: {} workers, {} ms virtual duration, {} us arrivals, \
         high queue {}\n",
        sc.workers, sc.duration_ms, sc.arrival_us, sc.high_queue
    );
    let steps: [(&str, Step); 8] = [
        ("uintr delivery latency", uintr_latency_step),
        ("fig01", fig01_step),
        ("fig08", fig08_step),
        ("fig09", fig09::mixed_step),
        ("fig10", fig10_step),
        ("fig11", fig11_step),
        ("fig12", fig12_step),
        ("fig13", fig13_step),
    ];
    for (i, (label, step)) in steps.iter().enumerate() {
        eprintln!("[{}/{}] {label} ...", i + 1, steps.len());
        step(full);
    }
    eprintln!("done.");
}

/// `run_all`'s `main`, minus reading the process arguments.
pub fn main(args: &[String]) -> ExitCode {
    let n_names = args.iter().take_while(|a| lookup(a).is_some()).count();
    let (names, rest) = args.split_at(n_names);
    let mut selected: Vec<&str> = names.iter().map(String::as_str).collect();
    if selected.is_empty() {
        match rest.first() {
            Some(stray) if !stray.starts_with("--") => {
                eprintln!("run_all: unknown experiment `{stray}`; the names are:");
                for (name, _) in NAMES {
                    eprintln!("  {name}");
                }
                return ExitCode::FAILURE;
            }
            _ if flag(rest, "--check") => selected = GATES.to_vec(),
            _ => {
                report(flag(rest, "--full"));
                return ExitCode::SUCCESS;
            }
        }
    }
    for name in selected {
        eprintln!("== {name} ==");
        let run = lookup(name).expect("names and gates are in the table");
        let code = run(rest);
        if code != ExitCode::SUCCESS {
            return code;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn check_runs_the_four_tier1_gates_in_order() {
        // The four `--bin <gate> -- --check` steps tier1.sh had before
        // they were folded into `run_all --check`, in that order.
        assert_eq!(GATES, ["fig_adaptive", "fig09", "server_bench", "attr_gate"]);
        for gate in GATES {
            assert!(lookup(gate).is_some(), "{gate} is not in the name table");
        }
    }

    #[test]
    fn names_are_unique_and_strays_are_rejected() {
        for (i, (name, _)) in NAMES.iter().enumerate() {
            assert!(NAMES[..i].iter().all(|(n, _)| n != name), "{name} listed twice");
        }
        assert!(lookup("fig99").is_none());
        assert_eq!(main(&["fig99".to_string()]), ExitCode::FAILURE);
    }

    /// The docs, scripts and CI may name only what this crate builds —
    /// the one binary, and experiment names the table resolves — and not
    /// the accounting machinery that was removed.
    #[test]
    fn docs_scripts_and_ci_name_only_run_all_and_known_experiments() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files: Vec<_> = [
            "README.md",
            "EXPERIMENTS.md",
            "DESIGN.md",
            ".github/workflows/ci.yml",
            ".claude/skills/verify/SKILL.md",
        ]
        .iter()
        .map(|f| root.join(f))
        .collect();
        let scripts = std::fs::read_dir(root.join("scripts")).expect("scripts/ exists");
        files.extend(
            scripts
                .map(|e| e.expect("readable dir entry").path())
                .filter(|p| p.extension().is_some_and(|x| x == "sh")),
        );
        assert!(files.len() > 5, "no scripts found under scripts/");

        let mut commands = 0;
        for file in files {
            let text = std::fs::read_to_string(&file)
                .unwrap_or_else(|e| panic!("reading {}: {e}", file.display()));
            // Prose wraps commands across lines; compare token by token.
            let bare = |t| str::trim_matches(t, |c: char| !c.is_alphanumeric() && c != '_' && c != '-');
            let tokens: Vec<&str> = text.split_whitespace().map(bare).collect();
            let at = |i: usize| tokens.get(i).copied().unwrap_or("");
            for i in 0..tokens.len() {
                assert!(
                    !(at(i) == "cargo" && at(i + 1) == "bench"),
                    "{}: still says `cargo bench` (there are no bench targets)",
                    file.display()
                );
                // One accounting plane: the cross-checker between two and
                // the registry the scheduler used to make for itself are gone.
                assert!(
                    at(i) != "cross_check_registry"
                        && !(at(i) == "fallback" && at(i + 1) == "registry"),
                    "{}: names `{} {}`, which no longer exists",
                    file.display(),
                    at(i),
                    at(i + 1)
                );
                if at(i) == "-p" && at(i + 1) == "preempt-bench" && at(i + 2) == "--bin" {
                    commands += 1;
                    assert_eq!(
                        at(i + 3),
                        "run_all",
                        "{}: `--bin {}` is not a binary of preempt-bench",
                        file.display(),
                        at(i + 3)
                    );
                }
                if at(i) == "run_all" && at(i + 1) == "--" && !at(i + 2).starts_with("--") {
                    assert!(
                        lookup(at(i + 2)).is_some(),
                        "{}: `run_all -- {}` names no experiment",
                        file.display(),
                        at(i + 2)
                    );
                }
            }
        }
        assert!(commands >= 10, "the scan matched only {commands} commands; did the docs move?");
    }
}
