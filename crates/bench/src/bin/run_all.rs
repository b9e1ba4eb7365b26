//! The bench crate's one binary: every figure, extension experiment and
//! self-checking gate by name, the tier-1 gates with `--check`, or the
//! whole report behind `EXPERIMENTS.md` (see `preempt_bench::cli`).
//!
//! ```sh
//! cargo run --release -p preempt-bench --bin run_all                  # report, quick
//! cargo run --release -p preempt-bench --bin run_all -- --full        # report, longer
//! cargo run --release -p preempt-bench --bin run_all -- --check       # tier-1 gates
//! cargo run --release -p preempt-bench --bin run_all -- fig10 --full  # one experiment
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    preempt_bench::cli::main(&args)
}
