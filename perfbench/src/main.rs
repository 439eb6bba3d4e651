//! Served-path benchmark for the PolarDB-X reproduction.
//!
//! One command drives `PolarDbx` through `FrontDoor`/`FrontClient` over
//! the real wire, from one process, for one of two workloads:
//!
//! * `point-oltp` — point/range SELECT and point UPDATE on a 20k-row
//!   sysbench-style table (the TP statement path);
//! * `htap-mix` — a TPC-H-lite AP loop over column indexes next to an
//!   open-loop TP stream on `orders` (executor, columnar, scheduler).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload point-oltp --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Every workload reports the same end-to-end metrics, so the latency
//! metrics name a role rather than a statement: `main_p50_us` is the
//! workload's defining operation (point SELECT, AP query),
//! `read_p50_us` its other read (10-row range SELECT, point SELECT on
//! `orders`) and `write_p50_us` its one write statement (point UPDATE,
//! `orders` UPDATE). Throughput is `ops_per_s` (statements) and
//! `rows_per_s` (rows written).
//!
//! With `--trace 0` the run measures end to end and prints the
//! end-to-end metrics. With `--trace 1` the same measurement is followed
//! by a traced replay (see [`trace`]) and the per-layer metrics are
//! printed instead. Human-readable report lines go first; the last line
//! of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The process exits
//! nonzero when a correctness check fails.

mod htap;
mod point;
mod rig;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics every workload reports: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("rows_per_s", "1/s"),
    ("main_p50_us", "us"),
    ("read_p50_us", "us"),
    ("write_p50_us", "us"),
];

/// Per-layer metrics every traced run reports: (name, unit).
const PER_LAYER: &[(&str, &str)] = &[
    ("front.server_us", "us"),
    ("front.self_us", "us"),
    ("front.throttled", "count"),
    ("front.errors", "count"),
    ("sql.parse_us", "us"),
    ("optimizer.plan_us", "us"),
    ("optimizer.ap_share", "ratio"),
    ("core.query_us", "us"),
    ("core.dml_us", "us"),
    ("core.self_us", "us"),
    ("executor.exec_us", "us"),
    ("executor.rows_scanned_per_row", "ratio"),
    ("txn.begin_us", "us"),
    ("txn.read_us", "us"),
    ("txn.scan_shards_us", "us"),
    ("txn.write_us", "us"),
    ("txn.commit_us", "us"),
    ("storage.read_us", "us"),
    ("storage.scan_rows_per_ms", "1/ms"),
    ("storage.pool_flushes", "count"),
    ("columnar.build_ms", "ms"),
    ("wal.commits", "count"),
    ("wal.flushes", "count"),
    ("bench.tracing_overhead_pct", "%"),
    ("bench.attributed_share_min", "ratio"),
    ("bench.attributed_share_max", "ratio"),
    ("bench.flagged_kinds", "count"),
    ("bench.stale_after_ack", "count"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub run: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        run: Duration::from_secs(seconds),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when an end check found a discrepancy that the counted
    /// failures do not explain.
    pub correct: bool,
    pub metrics: Vec<(&'static str, f64)>,
}

/// The checked-out revision, read from `.git` in the working directory
/// only (the benchmark never looks outside its checkout).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| r.to_string()),
        None => head,
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "provenance: rev={} nproc={} workload={} seed={} seconds={} trace={}",
        git_rev(),
        nproc,
        args.workload,
        args.seed,
        args.run.as_secs(),
        args.trace as u8
    );
    let result = match args.workload.as_str() {
        "point-oltp" => point::run(&args),
        "htap-mix" => htap::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("workload {} did not report {name}", args.workload));
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
