//! Regenerates Figure 9: mixed-workload throughput scalability across
//! worker counts under Wait / Cooperative / PreemptDB — plus the
//! sharded-plane scaling gate (ISSUE 8), which is self-checking:
//!
//! 1. at every sweep point with >= 4 workers, the sharded plane's
//!    throughput is at least the single-global-queue baseline's;
//! 2. sharded throughput grows strictly monotonically with the worker
//!    count (the per-shard dispatch cores keep the plane worker-bound
//!    where one scheduler saturates).
//!
//! ```sh
//! cargo run --release -p preempt-bench --bin run_all -- fig09 [--check|--full]
//! ```
//!
//! `--check` runs only the scaling gate at CI scale (no tables, no file
//! output). `--full` stretches the sweep and rewrites `BENCH_fig09.json`
//! at the repo root (the checked-in machine-readable record).

use std::process::ExitCode;

use crate::cli::flag;
use crate::{fig09, fig09_sharded, Scenario, ShardScalePoint};

fn write_json(path: &str, duration_ms: u64, points: &[ShardScalePoint]) -> std::io::Result<()> {
    let mut rows = String::new();
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"workers\": {}, \"shards\": {}, \"single_queue_tps\": {:.0}, \
             \"sharded_tps\": {:.0}, \"speedup\": {:.3}}}",
            p.workers, p.shards, p.baseline_tps, p.sharded_tps, p.speedup()
        ));
    }
    let doc = format!(
        "{{\n  \"figure\": \"fig09_sharded\",\n  \"description\": \"dispatch-bound point-transaction \
         throughput, sharded scheduler plane vs single global run queue\",\n  \
         \"duration_ms\": {duration_ms},\n  \"rows\": [\n{rows}\n  ]\n}}\n"
    );
    std::fs::write(path, doc)
}

fn check_points(points: &[ShardScalePoint]) -> Vec<String> {
    let mut failures = Vec::new();
    for p in points {
        if p.workers >= 4 && p.sharded_tps < p.baseline_tps {
            failures.push(format!(
                "{} workers: sharded {:.0} tps fell below the single-queue baseline {:.0} tps",
                p.workers, p.sharded_tps, p.baseline_tps
            ));
        }
    }
    for w in points.windows(2) {
        if w[1].sharded_tps <= w[0].sharded_tps {
            failures.push(format!(
                "sharded throughput is not monotonic: {:.0} tps at {} workers vs {:.0} at {}",
                w[1].sharded_tps, w[1].workers, w[0].sharded_tps, w[0].workers
            ));
        }
    }
    failures
}

/// The paper's Figure 9 table (no gate): `run_all`'s report step.
pub fn mixed_step(full: bool) {
    let workers: &[usize] = if full {
        &[1, 2, 4, 8, 16]
    } else {
        &[2, 8, 16]
    };
    fig09(&Scenario::pick(full), workers).print();
}

pub fn run(args: &[String]) -> ExitCode {
    let full = flag(args, "--full");
    if !flag(args, "--check") {
        eprintln!("running fig09 ({}) ...", if full { "full" } else { "quick" });
        mixed_step(full);
    }

    let (duration_ms, counts): (u64, &[usize]) = if full {
        (50, &[1, 2, 4, 8, 16])
    } else {
        (15, &[2, 4, 8])
    };
    eprintln!("running fig09 sharded-plane sweep ({duration_ms} ms, workers {counts:?}) ...");
    let (table, points) = fig09_sharded(duration_ms, counts);
    table.print();

    let failures = check_points(&points);
    if full && failures.is_empty() {
        match write_json("BENCH_fig09.json", duration_ms, &points) {
            Ok(()) => println!("wrote BENCH_fig09.json"),
            Err(e) => eprintln!("fig09: could not write BENCH_fig09.json: {e}"),
        }
    }

    if failures.is_empty() {
        println!("fig09: sharded scaling gate passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("fig09 FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(workers: usize, baseline_tps: f64, sharded_tps: f64) -> ShardScalePoint {
        ShardScalePoint {
            workers,
            shards: (workers / 2).max(1),
            baseline_tps,
            sharded_tps,
        }
    }

    #[test]
    fn healthy_sweep_passes() {
        let points = [point(2, 5.0e6, 5.0e6), point(4, 8.0e6, 9.0e6), point(8, 9.0e6, 18.0e6)];
        assert_eq!(check_points(&points), Vec::<String>::new());
    }

    #[test]
    fn non_monotonic_series_fails() {
        let points = [point(2, 5.0e6, 5.0e6), point(4, 8.0e6, 9.0e6), point(8, 8.5e6, 9.0e6)];
        let failures = check_points(&points);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("not monotonic") && failures[0].contains("at 8 workers"));
    }

    #[test]
    fn sharded_below_baseline_fails_only_from_four_workers() {
        // Below four workers the planes may tie or trail; at four the
        // sharded plane must at least match the single queue.
        let points = [point(2, 5.0e6, 4.0e6), point(4, 9.0e6, 8.0e6)];
        let failures = check_points(&points);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("4 workers") && failures[0].contains("below the single-queue"));
    }
}
