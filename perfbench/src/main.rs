//! `perfbench`: the repository benchmark. Runs one workload for a fixed
//! time, checks every sampled answer, and prints its metrics; the last
//! line of standard output is the one-line JSON result.
//!
//! ```text
//! perfbench --workload <serve_engine|serve_hot|serve_reload|partitioned_sssp>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--engine-rate <ops/s>] [--trace-check <path>] [--out-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics of a traced replay and validates the trace files it
//! writes with the `trace_check` binary. See `README.md` beside this crate.

use std::path::PathBuf;
use std::process::ExitCode;

use sgl_observe::Json;

mod loadgen;
mod partitioned;
mod report;
mod serve;
mod spans;
mod stats;

use report::Metric;

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Open-loop arrival rate of `serve_engine`, ops/s: a property of the
    /// machine (about half its single-shard capacity), so it is set in
    /// `BENCHMARK.json` rather than here.
    engine_rate: Option<f64>,
    /// The repository's `trace_check` binary.
    trace_check: PathBuf,
    /// Where trace files are written.
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        engine_rate: None,
        trace_check: PathBuf::from("trace_check"),
        out_dir: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--engine-rate" => args.engine_rate = Some(value.parse().map_err(|e| bad(&e))?),
            "--trace-check" => args.trace_check = value.into(),
            "--out-dir" => args.out_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.engine_rate.is_none_or(|r| r > 0.0)) {
        return Err("--seconds and --engine-rate must be positive".into());
    }
    Ok(args)
}

/// Set-ups per run: repeated until [`SETUP_BUDGET`] has passed, within
/// these bounds; `setup_s` is their median.
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 3..=25;
const SETUP_BUDGET: std::time::Duration = std::time::Duration::from_secs(1);

/// Runs `once` (which returns what it set up and how long that took)
/// repeatedly per [`SETUP_REPEATS`], keeping the last result. Earlier
/// results are dropped as the next one is made.
fn repeat_setup<T>(
    mut once: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut kept = None;
    while secs.len() < *SETUP_REPEATS.start()
        || (secs.len() < *SETUP_REPEATS.end()
            && secs.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        drop(kept.take());
        let (t, s) = once()?;
        kept = Some(t);
        secs.push(s);
    }
    Ok((kept.expect("at least one set-up"), secs))
}

/// Every per-layer metric a traced run reports, with its unit. A workload
/// that does not exercise a layer reports it as 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("engine.event.run_ms", "ms"),
    ("engine.event.ns_per_delivery", "ns"),
    ("engine.bitplane.run_ms", "ms"),
    ("engine.bitplane.ns_per_delivery", "ns"),
    ("engine.readout_us", "us"),
    ("engine.sim_steps", "count"),
    ("engine.spikes", "count"),
    ("engine.deliveries", "count"),
    ("partition.plan_compile_ms", "ms"),
    ("partition.run_ms", "ms"),
    ("partition.supersteps", "count"),
    ("partition.cut_messages", "count"),
    ("partition.spilled", "count"),
    ("partition.busy_frac", "ratio"),
    ("partition.barrier_wait_frac", "ratio"),
    ("partition.imbalance_max", "ratio"),
    ("core.sssp_build_ms", "ms"),
    ("core.khop_build_ms", "ms"),
    ("io.parse_ms", "ms"),
    ("io.dimacs_mb", "MB"),
    ("cache.compile_ms", "ms"),
    ("cache.compile_load_ms", "ms"),
    ("cache.compiles", "count"),
    ("cache.memo_hit_ratio", "ratio"),
    ("cache.net_hit_ratio", "ratio"),
    ("cache.memo_mb", "MB"),
    ("cache.net_mb", "MB"),
    ("protocol.parse_us", "us"),
    ("protocol.render_us", "us"),
    ("protocol.response_kb", "KB"),
    ("admission.queue_wait_p50_us", "us"),
    ("admission.queue_wait_p99_us", "us"),
    ("admission.depth_at_pop_p50", "count"),
    ("shard.io_residual_p50_us", "us"),
    ("gen.late_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Prints a traced run's result: `measured` in [`PER_LAYER`] order, with
/// every layer the workload did not exercise reported as 0.
fn finish_traced(report: Json, measured: Vec<Metric>, attempted: usize, failed: usize) {
    for m in &measured {
        assert!(
            PER_LAYER.contains(&(m.name, m.unit)),
            "per-layer metric {} [{}] is not in the published list",
            m.name,
            m.unit
        );
    }
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit, 0))
        })
        .collect();
    report::finish(report, &metrics, attempted, failed);
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        std::fs::create_dir_all(&args.out_dir)
            .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
        match args.workload.as_str() {
            "serve_engine" => serve::run(serve::Kind::Engine, &args),
            "serve_hot" => serve::run(serve::Kind::Hot, &args),
            "serve_reload" => serve::run(serve::Kind::Reload, &args),
            "partitioned_sssp" => partitioned::run(&args),
            other => Err(format!("unknown workload {other:?}")),
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
