//! Run telemetry end to end: builds a spiking SSSP network, runs it under
//! a [`TimeSeriesObserver`] with wall-clock phases, prints a terminal
//! summary (sparkline wavefront, latency quantiles, scheduler pressure,
//! audit findings), then re-runs the *same network* from every source as
//! one batch (the APSP workload) and renders the per-source makespan and
//! spike distributions. Everything is also written as a JSON-lines
//! [`RunReport`] — the same format the `sgl-bench` bins commit under
//! `artifacts/`.
//!
//! Run with: `cargo run --release --example run_report`
//!
//! Given a path to a committed report it instead renders that report's
//! view, dispatching on the report name:
//!
//! - `BENCH_serve.json` (written by `sgl-stress`): per-op latency
//!   quantiles with a p50 sparkline across ops, queue pressure, and the
//!   compiled-network cache hit ratio:
//!   `cargo run --release --example run_report -- artifacts/BENCH_serve.json`
//! - `BENCH_compile.json` (written by the `compile` bench): bulk vs
//!   incremental graph→SNN construction medians, speedups, and resident
//!   synapse memory at each size:
//!   `cargo run --release --example run_report -- artifacts/BENCH_compile.json`
//! - `BENCH_engines.json` (raw `SGL_BENCH_JSON` lines from the `engines`
//!   bench bin, not a [`RunReport`]): one row per benchmark, plus a
//!   bitplane-vs-dense speedup table over the paired rows the perf_check
//!   ordering rule is enforced on:
//!   `cargo run --release --example run_report -- artifacts/BENCH_engines.json`
//! - `BENCH_partition.json` (written by the `partition` bench): the
//!   cut-traffic vs partition-count table per problem size with a
//!   speedup-over-event sparkline, plus the threaded-driver
//!   worker-balance table (speedup over one thread, superstep imbalance,
//!   barrier waits):
//!   `cargo run --release --example run_report -- artifacts/BENCH_partition.json`
//! - Chrome trace-event files (written by `sgl-stress --trace` /
//!   `sgl-serve --trace-out`): the ten slowest requests broken down by
//!   pipeline stage, plus a sparkline of where traced time goes:
//!   `cargo run --release --example run_report -- TRACE_serve.json`

use rand::SeedableRng;
use spiking_graphs::algorithms::sssp_pseudo::SpikingSssp;
use spiking_graphs::graph::generators;
use spiking_graphs::observe::{sparkline, Json, LogHistogram, PhaseProfiler, RunReport};
use spiking_graphs::snn::audit::audit;
use spiking_graphs::snn::engine::{
    BatchRunner, EngineChoice, RunConfig, RunScratch, RunSpec, TimeSeriesObserver,
};
use spiking_graphs::snn::NeuronId;

/// Renders a [`LogHistogram`] as quantiles plus a bucket-count sparkline —
/// the distribution view for "n independent runs" that a single run's
/// time series cannot give.
fn print_histogram(label: &str, hist: &LogHistogram) {
    let (Some(min), Some(max)) = (hist.min(), hist.max()) else {
        println!("{label}: empty");
        return;
    };
    let quantiles: Vec<String> = [0.1, 0.5, 0.9, 0.99]
        .iter()
        .filter_map(|&q| hist.quantile(q).map(|v| format!("p{:.0} {v}", q * 100.0)))
        .collect();
    let counts: Vec<u64> = hist.nonzero_buckets().iter().map(|&(_, c)| c).collect();
    println!("\n{label}: min {min}, {}, max {max}", quantiles.join(", "));
    println!("  {}", sparkline(&counts, 64));
}

/// Renders a committed report file, dispatching on the report name
/// (`serve` and `compile` have dedicated views).
fn render_report_file(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    // `SGL_BENCH_JSON` line files are flat benchmark rows, not
    // RunReports; Chrome trace files (`sgl-stress --trace`) are one JSON
    // object with `traceEvents`. Dispatch on shape.
    if let Some(first) = text.lines().find(|l| !l.trim().is_empty()) {
        if let Ok(v) = spiking_graphs::observe::parse_json(first) {
            if v.get("traceEvents").is_some() {
                render_trace_file(&v, path);
                return;
            }
            if v.get("median_ns").is_some() {
                render_bench_lines(&text, path);
                return;
            }
        }
    }
    let report = RunReport::from_jsonl(&text).unwrap_or_else(|e| panic!("bad report: {e:?}"));
    match report.name.as_str() {
        "serve" => render_serve_report(&report, path),
        "compile" => render_compile_report(&report, path),
        "partition" => render_partition_report(&report, path),
        other => panic!("no renderer for report `{other}` (expected serve, compile, or partition)"),
    }
}

/// Renders a `BENCH_partition.json` report written by the `partition`
/// bench: per problem size, the cut-traffic vs partition-count table
/// (static cut, messages carried through the mailboxes, median) plus a
/// sparkline of the speedup each partition rung achieves over the
/// event-engine baseline — the terminal view of the von Seeler cut-traffic tradeoff —
/// followed by the threaded-driver worker-balance tables (speedup over
/// the one-worker `p<K>` run, superstep imbalance, max barrier wait per
/// rung).
fn render_partition_report(report: &RunReport, path: &str) {
    println!("# partitioned SSSP report `{}` ({path})\n", report.name);

    let mut rendered = 0usize;
    for (name, data) in &report.sections {
        let Some(size) = name.strip_prefix("table:cut_traffic_") else {
            continue;
        };
        let (Some(Json::Arr(header)), Some(Json::Arr(rows))) =
            (data.get("header"), data.get("rows"))
        else {
            continue;
        };
        rendered += 1;
        println!("cut traffic vs partitions, n = {size}:");
        let cells = |row: &Json| -> Vec<String> {
            row.as_arr()
                .map(|r| {
                    r.iter()
                        .map(|c| c.as_str().unwrap_or("?").to_string())
                        .collect()
                })
                .unwrap_or_default()
        };
        let head: Vec<String> = header
            .iter()
            .map(|c| c.as_str().unwrap_or("?").to_string())
            .collect();
        let line = |c: &[String]| {
            let mut out = format!("  {:<8}", c[0]);
            for cell in &c[1..] {
                out.push_str(&format!(" {cell:>13}"));
            }
            out
        };
        println!("{}", line(&head));
        // Speedup per rung = event_median / rung_median, i.e. the
        // inverse of the emitted `vs_event` ratio; 100 = parity.
        let vs_event = head.iter().position(|h| h == "vs_event");
        let mut speedups = Vec::new();
        for row in rows {
            let c = cells(row);
            if c.len() != head.len() {
                continue;
            }
            println!("{}", line(&c));
            if c[0] != "event" {
                if let Some(Ok(ratio)) = vs_event.map(|i| c[i].parse::<f64>()) {
                    speedups.push((100.0 / ratio.max(0.01)).round() as u64);
                }
            }
        }
        if !speedups.is_empty() {
            let worst = speedups.iter().min().copied().unwrap_or(0);
            println!(
                "  speedup vs event across rungs: {}  (worst {:.2}x)",
                sparkline(&speedups, 32),
                worst as f64 / 100.0
            );
        }
        println!();
    }
    assert!(rendered > 0, "no cut_traffic tables in {path}");

    // Threaded-driver worker balance, one table per problem size: the
    // speedup each thread count buys over t1 (the `p<K>` run: one
    // inline worker) and
    // how evenly the supersteps split across the worker pool.
    for (name, data) in &report.sections {
        let Some(size) = name.strip_prefix("table:threaded_") else {
            continue;
        };
        let (Some(Json::Arr(header)), Some(Json::Arr(rows))) =
            (data.get("header"), data.get("rows"))
        else {
            continue;
        };
        println!("worker balance (threaded driver), n = {size}:");
        let head: Vec<String> = header
            .iter()
            .map(|c| c.as_str().unwrap_or("?").to_string())
            .collect();
        println!(
            "  {:<8} {:>8} {:>14} {:>7} {:>14} {:>12}",
            head[0], head[1], head[2], head[3], head[4], head[5]
        );
        let mut speedups = Vec::new();
        for row in rows {
            let Some(c) = row.as_arr() else { continue };
            let c: Vec<String> = c
                .iter()
                .map(|v| v.as_str().unwrap_or("?").to_string())
                .collect();
            if c.len() != head.len() {
                continue;
            }
            println!(
                "  {:<8} {:>8} {:>14} {:>7} {:>14} {:>12}",
                c[0], c[1], c[2], c[3], c[4], c[5]
            );
            // `vs_t1` is median / t1_median; invert for speedup bars.
            if let Ok(ratio) = c[3].parse::<f64>() {
                speedups.push((100.0 / ratio.max(0.01)).round() as u64);
            }
        }
        if !speedups.is_empty() {
            let best = speedups.iter().max().copied().unwrap_or(0);
            println!(
                "  speedup vs t1 across rows: {}  (best {:.2}x)",
                sparkline(&speedups, 32),
                best as f64 / 100.0
            );
        }
        println!();
    }

    if let Some(summary) = report.get("summary") {
        println!("completed runs:");
        for key in ["n_10k", "n_100k", "n_1m"] {
            let Some(s) = summary.get(key) else { continue };
            let f = |k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(0);
            println!(
                "  n = {:>8}: m = {}, {} supersteps, {}/{} nodes reached, event median {:.3} ms{}",
                f("n"),
                f("m"),
                f("steps"),
                f("reached"),
                f("n"),
                f("event_median_ns") as f64 / 1e6,
                if matches!(s.get("completed"), Some(Json::Bool(true))) {
                    ""
                } else {
                    " (INCOMPLETE)"
                },
            );
        }
    }
}

/// Renders a Chrome trace-event file written by `sgl-stress --trace` or
/// `sgl-serve --trace-out`: the ten slowest requests as a stage
/// breakdown table (queue / compile / run / write µs), then a sparkline
/// of where the traced wall time goes across the whole file — the
/// terminal answer to "what is the slow part" without opening Perfetto.
fn render_trace_file(v: &Json, path: &str) {
    let summary = spiking_graphs::observe::validate_chrome(v)
        .unwrap_or_else(|e| panic!("{path} failed trace validation: {e}"));
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("validated trace has traceEvents");

    // Per trace: total wall µs (the `request` root span) and summed
    // duration per stage name. Durations are in µs as f64 in the file.
    struct Trace {
        id: u64,
        total: f64,
        by_stage: std::collections::BTreeMap<String, f64>,
    }
    let mut traces: Vec<Trace> = Vec::new();
    for ev in events {
        let (Some("X"), Some(name), Some(dur), Some(id)) = (
            ev.get("ph").and_then(Json::as_str),
            ev.get("name").and_then(Json::as_str),
            ev.get("dur").and_then(Json::as_f64),
            ev.get("args")
                .and_then(|a| a.get("trace_id"))
                .and_then(Json::as_u64),
        ) else {
            continue;
        };
        let t = match traces.iter_mut().find(|t| t.id == id) {
            Some(t) => t,
            None => {
                traces.push(Trace {
                    id,
                    total: 0.0,
                    by_stage: std::collections::BTreeMap::new(),
                });
                traces.last_mut().expect("just pushed")
            }
        };
        if name == "request" {
            t.total += dur;
        } else {
            *t.by_stage.entry(name.to_string()).or_insert(0.0) += dur;
        }
    }
    println!(
        "# trace report ({path}): {} events, {} traces, nesting ok\n",
        summary.events,
        traces.len()
    );

    traces.sort_by(|a, b| b.total.total_cmp(&a.total));
    const COLS: [(&str, &str); 4] = [
        ("queue_wait", "queue"),
        ("compile", "compile"),
        ("engine_run", "run"),
        ("write", "write"),
    ];
    println!(
        "slowest requests (µs):\n  {:<10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "trace", "total", COLS[0].1, COLS[1].1, COLS[2].1, COLS[3].1
    );
    for t in traces.iter().take(10) {
        let stage = |s: &str| t.by_stage.get(s).copied().unwrap_or(0.0);
        println!(
            "  {:<#10x} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            t.id,
            t.total,
            stage(COLS[0].0),
            stage(COLS[1].0),
            stage(COLS[2].0),
            stage(COLS[3].0),
        );
    }

    // Where the time goes, summed over every trace in the file. The
    // sparkline is scaled to the largest stage, so the tall bar is the
    // bottleneck stage.
    let totals: Vec<(&str, f64)> = COLS
        .iter()
        .map(|&(stage, label)| {
            (
                label,
                traces
                    .iter()
                    .map(|t| t.by_stage.get(stage).copied().unwrap_or(0.0))
                    .sum(),
            )
        })
        .collect();
    let grand: f64 = traces.iter().map(|t| t.total).sum();
    let bars: Vec<u64> = totals.iter().map(|&(_, v)| v.round() as u64).collect();
    println!("\nstage shares of traced wall time:");
    println!(
        "  {}  ({})",
        sparkline(&bars, totals.len()),
        totals
            .iter()
            .map(|&(label, v)| format!("{label} {:.1}%", v / grand.max(1.0) * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

/// Renders an `SGL_BENCH_JSON` line file (the format of
/// `BENCH_engines.json`): every row's median, then — for each
/// `bitplane*` row with a `dense*` sibling under the same parameter —
/// the speedup the bit-plane engine delivers, with a sparkline. This is
/// the human view of the `bitplane <= dense` perf_check ordering rule.
fn render_bench_lines(text: &str, path: &str) {
    let mut rows: Vec<(String, u64)> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = spiking_graphs::observe::parse_json(line)
            .unwrap_or_else(|e| panic!("bad bench line in {path}: {e:?}"));
        let (Some(group), Some(id), Some(median)) = (
            v.get("group").and_then(Json::as_str),
            v.get("id").and_then(Json::as_str),
            v.get("median_ns").and_then(Json::as_u64),
        ) else {
            panic!("bench line in {path} is missing group/id/median_ns: {line}");
        };
        rows.push((format!("{group}/{id}"), median));
    }
    println!("# bench lines report ({path})\n");
    println!("  {:<36} {:>14}", "benchmark", "median_ns");
    for (name, median) in &rows {
        println!("  {name:<36} {median:>14}");
    }

    let mut speedups = Vec::new();
    let mut printed_header = false;
    for (name, bp) in &rows {
        let Some((prefix, rest)) = name.split_once("bitplane") else {
            continue;
        };
        let sibling = format!("{prefix}dense{rest}");
        let Some(&(_, dense)) = rows.iter().find(|(n, _)| n == &sibling) else {
            continue;
        };
        if !printed_header {
            println!(
                "\n  {:<36} {:>9}",
                "bitplane row vs dense sibling", "speedup"
            );
            printed_header = true;
        }
        let speedup = dense as f64 / (*bp).max(1) as f64;
        speedups.push((speedup * 100.0).round() as u64);
        println!("  {name:<36} {speedup:>8.2}x");
    }
    if !speedups.is_empty() {
        println!("\n  speedup across pairs: {}", sparkline(&speedups, 32));
        let worst = speedups.iter().min().copied().unwrap_or(0);
        println!(
            "  worst pair: {:.2}x — {}",
            worst as f64 / 100.0,
            if worst >= 100 {
                "bitplane never loses to dense (the perf_check ordering rule)"
            } else {
                "BITPLANE SLOWER THAN DENSE — perf_check would flag this run"
            }
        );
    }
}

/// Renders a `BENCH_compile.json` report written by the `compile` bench:
/// one row per (construction, n) pair with bulk vs incremental medians,
/// the speedup, and the resident memory of each form — plus a speedup
/// sparkline so a regression is visible at a glance.
fn render_compile_report(report: &RunReport, path: &str) {
    println!(
        "# graph→SNN compilation report `{}` ({path})\n",
        report.name
    );
    println!(
        "  {:<12} {:>12} {:>14} {:>8}   {:>12} {:>12}",
        "pair", "bulk_ns", "incremental_ns", "speedup", "bulk_mem", "inc_mem"
    );
    let mut speedups = Vec::new();
    for (name, data) in &report.sections {
        // Measurement sections are `<construction>_<n>`; skip meta/table.
        let field = |k: &str| data.get(k).and_then(Json::as_u64);
        let (Some(bulk), Some(inc)) = (field("bulk_median_ns"), field("incremental_median_ns"))
        else {
            continue;
        };
        let speedup = data.get("speedup").and_then(Json::as_f64).unwrap_or(0.0);
        // Scale for the sparkline: 1.00x -> 100, so parity is visible.
        speedups.push((speedup * 100.0).round() as u64);
        println!(
            "  {:<12} {:>12} {:>14} {:>7.2}x   {:>12} {:>12}",
            name,
            bulk,
            inc,
            speedup,
            field("bulk_memory_bytes").unwrap_or(0),
            field("incremental_memory_bytes").unwrap_or(0),
        );
    }
    assert!(!speedups.is_empty(), "no measurement sections in {path}");
    println!("\n  speedup across pairs: {}", sparkline(&speedups, 32));
    let worst = speedups.iter().min().copied().unwrap_or(0);
    println!(
        "  worst pair: {:.2}x — {}",
        worst as f64 / 100.0,
        if worst >= 100 {
            "bulk never loses to incremental (the perf_check ordering rule)"
        } else {
            "BULK SLOWER THAN INCREMENTAL — perf_check would fail this run"
        }
    );
}

/// Renders the serve-side view of a `BENCH_serve.json` report written by
/// `sgl-stress`: per-op latency quantiles (p50 sparkline across ops),
/// queue pressure, and the compiled-network cache hit ratio.
fn render_serve_report(report: &RunReport, path: &str) {
    println!("# sgl-serve report `{}` ({path})\n", report.name);

    if let Some(config) = report.get("config") {
        let field = |k: &str| config.get(k).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "workload: {} ops, {} connections × pipeline {}, mode {}, graph n={} m={}",
            field("ops"),
            field("connections"),
            field("pipeline"),
            config.get("mode").and_then(Json::as_str).unwrap_or("?"),
            field("graph_n"),
            field("graph_m"),
        );
    }

    // Connection-scaling table (written by `sgl-stress --scale`): one
    // row per rung, with the throughput sparkline showing where the
    // reactor starts paying for poll's O(connections) kernel scan.
    if let Some(Json::Arr(rows)) = report.get("scaling") {
        let mut tputs = Vec::new();
        println!("\nconnection scaling:");
        println!(
            "  {:>12} {:>9} {:>10} {:>10} {:>10} {:>10}",
            "connections", "pipeline", "ops_per_s", "ns_per_op", "p50_us", "p99_us"
        );
        for row in rows {
            let f = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
            let ops_s = row.get("ops_per_sec").and_then(Json::as_f64).unwrap_or(0.0);
            tputs.push(ops_s.round() as u64);
            println!(
                "  {:>12} {:>9} {:>10.0} {:>10} {:>10} {:>10}",
                f("connections"),
                f("pipeline"),
                ops_s,
                f("ns_per_op"),
                f("p50_us"),
                f("p99_us"),
            );
        }
        if !tputs.is_empty() {
            println!("  throughput across rungs: {}", sparkline(&tputs, 32));
        }
    }

    let Some(stats) = report.get("server_stats") else {
        println!("(no server_stats section)");
        return;
    };

    // Per-shard balance: connections, load, and cache residency per
    // shard event loop, so routing skew (graphs hashing to one shard,
    // the accept loop failing to round-robin) is visible at a glance.
    if let Some(Json::Arr(shards)) = stats.get("per_shard") {
        println!(
            "\nper-shard balance ({} shard{}):",
            shards.len(),
            if shards.len() == 1 { "" } else { "s" }
        );
        println!(
            "  {:>5} {:>11} {:>9} {:>11} {:>7} {:>10} {:>12} {:>13}",
            "shard",
            "connections",
            "in_flight",
            "queue_depth",
            "graphs",
            "nets",
            "net_bytes",
            "result_bytes"
        );
        let mut conn_counts = Vec::new();
        for s in shards {
            let f = |k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(0);
            conn_counts.push(f("connections"));
            println!(
                "  {:>5} {:>11} {:>9} {:>11} {:>7} {:>10} {:>12} {:>13}",
                f("shard"),
                f("connections"),
                f("in_flight"),
                f("queue_depth"),
                f("graphs"),
                f("net_entries"),
                f("net_bytes"),
                f("result_bytes"),
            );
        }
        if shards.len() > 1 {
            println!("  connections per shard: {}", sparkline(&conn_counts, 32));
        }
    }

    // Per-op latency table + a p50 sparkline across ops.
    if let Some(Json::Obj(ops)) = stats.get("ops") {
        let mut p50s = Vec::new();
        println!("\nop latency (µs):");
        println!(
            "  {:<14} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "op", "count", "p50", "p95", "p99", "max"
        );
        for (op, v) in ops {
            let q = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
            if q("count") == 0 {
                continue;
            }
            p50s.push(q("p50_us"));
            println!(
                "  {:<14} {:>8} {:>8} {:>8} {:>8} {:>8}",
                op,
                q("count"),
                q("p50_us"),
                q("p95_us"),
                q("p99_us"),
                q("max_us"),
            );
        }
        if !p50s.is_empty() {
            println!("  p50 across ops: {}", sparkline(&p50s, 32));
        }
    }

    if let Some(queue) = stats.get("queue") {
        let wait = queue.get("wait").cloned().unwrap_or(Json::Null);
        println!(
            "\nqueue: capacity {}, wait p50 {} µs / p99 {} µs",
            queue.get("capacity").and_then(Json::as_u64).unwrap_or(0),
            wait.get("p50_us").and_then(Json::as_u64).unwrap_or(0),
            wait.get("p99_us").and_then(Json::as_u64).unwrap_or(0),
        );
    }

    // The cache verdict: hit ratio plus the cold/warm medians the
    // perf_check ordering rule is enforced over.
    if let Some(cache) = stats.get("cache") {
        let hits = cache.get("hits").and_then(Json::as_u64).unwrap_or(0);
        let misses = cache.get("misses").and_then(Json::as_u64).unwrap_or(0);
        let ratio = cache.get("hit_ratio").and_then(Json::as_f64).unwrap_or(0.0);
        let bar_len = (ratio * 32.0).round() as usize;
        println!(
            "\ncompiled-network cache: {hits} hits / {misses} misses ({:.1}% hit ratio)",
            ratio * 100.0
        );
        println!(
            "  [{}{}]",
            "#".repeat(bar_len),
            "-".repeat(32 - bar_len.min(32))
        );
    }
    if let Some(cw) = report.get("cold_warm") {
        println!(
            "cold compile median {} µs vs warm hit median {} µs",
            cw.get("cold_median_us").and_then(Json::as_u64).unwrap_or(0),
            cw.get("warm_median_us").and_then(Json::as_u64).unwrap_or(0),
        );
    }
    println!(
        "\nshed {} / deadline_exceeded {} / admitted {}",
        stats.get("shed").and_then(Json::as_u64).unwrap_or(0),
        stats
            .get("deadline_exceeded")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        stats.get("admitted").and_then(Json::as_u64).unwrap_or(0),
    );
}

fn main() {
    if let Some(path) = std::env::args().nth(1) {
        render_report_file(&path);
        return;
    }
    let mut phases = PhaseProfiler::new();

    // build: graph + network construction.
    phases.start("build");
    let mut rng = rand::rngs::StdRng::seed_from_u64(2021);
    let g = generators::gnm_connected(&mut rng, 512, 2048, 1..=9);
    let net = SpikingSssp::new(&g, 0).build_network();
    let findings = audit(&net);

    // load: simulation configuration (placement/programming in hardware):
    // the engine is prepared — the network validated — once, here.
    phases.start("load");
    let engine = EngineChoice::Event.prepare(&net).expect("valid network");
    let cfg = RunConfig::until_quiescent(10 * g.n() as u64);
    let mut obs = TimeSeriesObserver::new();

    // run: the observed simulation.
    phases.start("run");
    let result = engine
        .run(&[NeuronId(0)], &cfg, &mut RunScratch::new(), &mut obs)
        .expect("simulation");

    // readout: summarize and serialize.
    phases.start("readout");
    phases.stop();

    println!("# Spiking SSSP run report (n = {}, m = {})\n", g.n(), g.m());
    println!(
        "terminated at t = {} ({:?}); {} spikes, {} deliveries, {} updates",
        result.steps,
        result.reason,
        result.stats.spike_events,
        result.stats.synaptic_deliveries,
        result.stats.neuron_updates,
    );

    // The observer's series reconcile exactly with the run totals — the
    // differential tests enforce this; here we just show it holds.
    assert_eq!(obs.total_spikes(), result.stats.spike_events);
    assert_eq!(obs.total_deliveries(), result.stats.synaptic_deliveries);
    assert_eq!(obs.total_updates(), result.stats.neuron_updates);

    println!("\nspike wavefront over {} recorded steps:", obs.len());
    println!("  {}", sparkline(&obs.spikes, 64));
    println!("scheduler in-flight deliveries:");
    println!("  {}", sparkline(&obs.wheel_in_flight, 64));

    if let (Some(p50), Some(p99)) = (
        obs.step_latency.quantile(0.5),
        obs.step_latency.quantile(0.99),
    ) {
        println!(
            "\nstep latency: p50 {p50} ns, p99 {p99} ns ({} gaps)",
            obs.step_latency.count()
        );
    }
    println!(
        "scheduler: {} overflow hits, {} entries still parked",
        obs.scheduler.overflow_hits, obs.scheduler.overflow_entries
    );

    println!("\nphases:");
    for (name, d) in phases.phases() {
        println!("  {name:<8} {:>10.3} ms", d.as_secs_f64() * 1e3);
    }

    println!("\naudit: {} finding(s)", findings.len());
    for f in &findings {
        println!("  - {f}");
    }

    // batch: the APSP workload — the same network, one wavefront per
    // source, executed over the batch runtime's recycled worker scratch.
    phases.start("batch");
    let specs: Vec<RunSpec> = (0..g.n())
        .map(|s| RunSpec::new(vec![NeuronId(s as u32)], cfg.clone()))
        .collect();
    let (_, batch) = BatchRunner::new(&net)
        .run_summarized(&specs)
        .expect("batch simulation");
    phases.stop();

    println!("\n# Batch: {} wavefronts, one per source\n", batch.runs);
    println!(
        "total: {} spikes, {} deliveries, {} updates; batch makespan {} steps",
        batch.total_spikes,
        batch.total_deliveries,
        batch.total_updates,
        batch.makespan_steps().unwrap_or(0),
    );
    print_histogram("per-source makespan (steps)", &batch.makespan);
    print_histogram("per-source spikes", &batch.spikes);

    // The machine-readable twin of everything printed above.
    let mut report = RunReport::new("run_report_example");
    report.section("phases", phases.to_json());
    report.section("series", obs.to_json());
    report.section(
        "stats",
        Json::obj(vec![
            ("steps", Json::UInt(result.steps)),
            ("spike_events", Json::UInt(result.stats.spike_events)),
            (
                "synaptic_deliveries",
                Json::UInt(result.stats.synaptic_deliveries),
            ),
            ("neuron_updates", Json::UInt(result.stats.neuron_updates)),
        ]),
    );
    report.section(
        "audit",
        Json::strings(&findings.iter().map(ToString::to_string).collect::<Vec<_>>()),
    );
    report.section("batch", batch.to_json());
    let path = std::env::temp_dir().join("sgl_run_report_example.json");
    report.write_to(&path).expect("write report");
    println!(
        "\nreport: {} ({} sections)",
        path.display(),
        report.sections.len()
    );
}
