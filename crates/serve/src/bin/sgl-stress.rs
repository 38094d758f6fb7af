//! `sgl-stress` — cql-stress-style load harness for `sgl-serve`.
//!
//! ```text
//! sgl-stress [--addr HOST:PORT]        target a running server
//!            [--ops N] [--rate OPS_PER_SEC]
//!            [--connections N] [--pipeline D] [--shards N]
//!            [--scale C1,C2,...]
//!            [--n NODES] [--m EDGES] [--seed S]
//!            [--mix sssp=6,khop3=2,apsp_row=1,graph_stats=1]
//!            [--deadline-ms MS] [--interval-ms MS | --quiet]
//!            [--samples N] [--expect-clean] [--trace PATH]
//! ```
//!
//! Without `--addr`, spawns a loopback server in-process (`--shards`
//! shard event loops; 0 = one per core), runs the workload against it
//! over real TCP, and shuts it down — the CI smoke configuration.
//! Always: generates a G(n, m) reference graph, loads it, drives the
//! mixed workload (closed loop, or open loop with `--rate`), then
//! measures cold-compile vs warm-cache `sssp` latency.
//!
//! The workload runs on one reactor-driven thread multiplexing
//! `--connections` pipelined connections (`--pipeline` requests in
//! flight on each; default 4 × 1, four requests in flight). Before
//! opening them it preflights the process fd limit, raising the soft
//! `RLIMIT_NOFILE` toward the hard cap when possible and failing with a
//! clear error when not.
//!
//! `--scale C1,C2,...` runs the driver once per listed connection count
//! instead, against the same (warm) server, and writes the rows as a
//! `scaling` section in the run report — the connection-scaling table
//! committed in `artifacts/BENCH_serve.json`.
//!
//! Outputs: a live interval table (cql-stress style), a final summary,
//! a `BENCH_serve.json` run report (into `$SGL_BENCH_DIR` or the working
//! directory), and — when `$SGL_BENCH_JSON` is set — `group: "serve"`
//! measurement lines (`sssp_cold/<n>`, `sssp_warm/<n>`, and one
//! `ns_per_op/<connections>` per run of the driver) in the shared
//! bench-line format, over which `perf_check` enforces the
//! warm-strictly-below-cold ordering rule and the sharded-throughput
//! floor.
//!
//! `--expect-clean` exits non-zero if any operation failed or was shed —
//! the CI smoke job's low-load assertion.
//!
//! `--trace PATH` arms request tracing on the spawned server (every
//! request sampled), and after the run fetches the retained traces via
//! the `trace_dump` op and writes them to `PATH` as Chrome trace-event
//! JSON (`chrome://tracing` / Perfetto-loadable) — the committed-able
//! trace artifact next to `BENCH_serve.json`. With `--addr`, the dump is
//! still requested, but the target server decides whether tracing is on.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sgl_bench::report::{append_json_line, ReportSink, Timing};
use sgl_graph::generators;
use sgl_graph::io::to_dimacs;
use sgl_observe::Json;
use sgl_serve::protocol::{Envelope, Request, Response};
use sgl_serve::session::ServerConfig;
use sgl_serve::stress::{
    measure_cold_warm, run_connection_stress, Client, ConnStressConfig, Mix, TcpClient,
};
use sgl_serve::tcp::LoopbackServer;
use sgl_serve::trace::TraceConfig;

struct Args {
    addr: Option<SocketAddr>,
    ops: u64,
    connections: usize,
    pipeline: usize,
    shards: usize,
    scale: Vec<usize>,
    rate: Option<f64>,
    n: usize,
    m: usize,
    seed: u64,
    mix: Mix,
    deadline_ms: Option<u64>,
    interval_ms: Option<u64>,
    samples: usize,
    expect_clean: bool,
    trace: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: None,
            ops: 2000,
            connections: 4,
            pipeline: 1,
            shards: 0,
            scale: Vec::new(),
            rate: None,
            n: 256,
            m: 1024,
            seed: 7,
            mix: Mix::default(),
            deadline_ms: None,
            interval_ms: Some(1000),
            samples: 15,
            expect_clean: false,
            trace: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--quiet" {
            out.interval_ms = None;
            continue;
        }
        if flag == "--expect-clean" {
            out.expect_clean = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("bad {what} for {flag}: {value:?}");
        match flag.as_str() {
            "--addr" => out.addr = Some(value.parse().map_err(|_| bad("address"))?),
            "--ops" => out.ops = value.parse().map_err(|_| bad("count"))?,
            "--connections" => out.connections = value.parse().map_err(|_| bad("count"))?,
            "--pipeline" => out.pipeline = value.parse().map_err(|_| bad("count"))?,
            "--shards" => out.shards = value.parse().map_err(|_| bad("count"))?,
            "--scale" => {
                out.scale = value
                    .split(',')
                    .map(|c| c.trim().parse::<usize>().map_err(|_| bad("count list")))
                    .collect::<Result<_, _>>()?;
            }
            "--rate" => out.rate = Some(value.parse().map_err(|_| bad("rate"))?),
            "--n" => out.n = value.parse().map_err(|_| bad("count"))?,
            "--m" => out.m = value.parse().map_err(|_| bad("count"))?,
            "--seed" => out.seed = value.parse().map_err(|_| bad("seed"))?,
            "--mix" => out.mix = Mix::parse(&value)?,
            "--deadline-ms" => out.deadline_ms = Some(value.parse().map_err(|_| bad("ms"))?),
            "--interval-ms" => out.interval_ms = Some(value.parse().map_err(|_| bad("ms"))?),
            "--samples" => out.samples = value.parse().map_err(|_| bad("count"))?,
            "--trace" => out.trace = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if out.connections == 0 || out.pipeline == 0 || out.ops == 0 || out.n < 2 || out.samples == 0 {
        return Err("--connections, --pipeline, --ops, --n and --samples must be positive".into());
    }
    if out.scale.contains(&0) {
        return Err("--scale counts must be positive".into());
    }
    Ok(out)
}

/// µs samples as a bench-line timing.
fn timing_us(samples_us: &[u64]) -> Timing {
    let mut sorted = samples_us.to_vec();
    sorted.sort_unstable();
    let us = Duration::from_micros;
    Timing {
        median: us(sorted[sorted.len() / 2]),
        min: us(sorted[0]),
        mean: us(sorted.iter().sum::<u64>() / sorted.len() as u64),
        samples: sorted.len(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sgl-stress: {e}");
            return ExitCode::FAILURE;
        }
    };

    // One driver run per rung: `--connections`, or each `--scale` count.
    let rungs = if args.scale.is_empty() {
        vec![args.connections]
    } else {
        args.scale.clone()
    };
    // A rung holds its client sockets — and, when the server is spawned
    // in-process, the same number of server-side sockets — so preflight
    // the fd limit for the largest rung before opening any of them.
    let peak_connections = rungs.iter().copied().max().unwrap_or(0);
    let per_conn = if args.addr.is_none() { 2 } else { 1 };
    let need = (peak_connections as u64).saturating_mul(per_conn) + 64;
    if let Err(e) = sgl_serve::reactor::ensure_fd_limit(need) {
        eprintln!("sgl-stress: {e}");
        return ExitCode::FAILURE;
    }

    // Target: an external server, or a spawned loopback one. `--trace`
    // arms every-request sampling on the spawned server; an external
    // server keeps whatever trace configuration it was started with.
    let spawned = if args.addr.is_none() {
        let trace = if args.trace.is_some() {
            TraceConfig {
                sample_one_in: 1,
                ..TraceConfig::default()
            }
        } else {
            TraceConfig::default()
        };
        let defaults = ServerConfig::default();
        // Closed-loop pipelining keeps connections × pipeline requests in
        // flight; size the admission queue so a healthy run never sheds.
        let queue_capacity = defaults
            .queue_capacity
            .max(peak_connections.saturating_mul(args.pipeline) + 64);
        Some(LoopbackServer::start(ServerConfig {
            shards: args.shards,
            queue_capacity,
            max_connections: defaults.max_connections.max(peak_connections + 16),
            trace,
            ..defaults
        }))
    } else {
        None
    };
    let addr = args
        .addr
        .unwrap_or_else(|| spawned.as_ref().expect("spawned").addr);

    let connect = |what: &str| match TcpClient::connect(addr) {
        Ok(c) => Ok(c),
        Err(e) => {
            eprintln!("sgl-stress: cannot connect to {addr} for {what}: {e}");
            Err(ExitCode::FAILURE)
        }
    };

    // Load the reference graph.
    let mut rng = StdRng::seed_from_u64(args.seed);
    let graph = generators::gnm_connected(&mut rng, args.n, args.m, 1..=9);
    let mut setup = match connect("setup") {
        Ok(c) => c,
        Err(code) => return code,
    };
    let resp = setup.call(Envelope::of(Request::LoadGraph {
        name: "stress".into(),
        dimacs: to_dimacs(&graph, "sgl-stress reference graph"),
    }));
    if !resp.is_ok() {
        eprintln!("sgl-stress: load_graph failed: {resp:?}");
        return ExitCode::FAILURE;
    }

    let mode = args
        .rate
        .map_or_else(|| "closed".to_string(), |r| format!("open@{r}"));
    let mut scaling_rows: Vec<Json> = Vec::new();
    let mut last = None;
    for &count in &rungs {
        // A `--scale` sweep gives every rung enough ops to reach steady
        // state even at the largest pipelined counts, without stretching
        // small rungs; all rungs hit the same (warm) server, so the table
        // isolates what concurrency costs.
        let total = if args.scale.is_empty() {
            args.ops
        } else {
            args.ops.max(count.saturating_mul(args.pipeline) as u64 * 4)
        };
        println!(
            "sgl-stress: {total} ops, {count} connections (pipeline {}), {mode}, graph n={} m={} against {addr}",
            args.pipeline, args.n, args.m
        );
        let config = ConnStressConfig {
            graph: "stress".into(),
            graph_n: args.n,
            connections: count,
            pipeline: args.pipeline,
            total_ops: total,
            rate: args.rate,
            mix: args.mix.clone(),
            deadline_ms: args.deadline_ms,
            seed: args.seed,
            report_interval: args.interval_ms.map(Duration::from_millis),
        };
        let s = match run_connection_stress(addr, &config) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sgl-stress: connection driver failed at {count} connections: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Sustained cost per op at this connection count — the row
        // `perf_check`'s throughput floor guards.
        let ns_per_op = u64::try_from(s.elapsed.as_nanos()).unwrap_or(u64::MAX) / s.issued;
        let whole_run = Duration::from_nanos(ns_per_op);
        append_json_line(
            "serve",
            &format!("ns_per_op/{count}"),
            &Timing {
                median: whole_run,
                min: whole_run,
                mean: whole_run,
                samples: 1,
            },
        );
        if !args.scale.is_empty() {
            println!(
                "  rung {count}: {:.0} ops/s ({ns_per_op} ns/op), errors {}",
                s.ops_per_sec(),
                s.errors()
            );
            scaling_rows.push(Json::obj(vec![
                ("connections", Json::UInt(count as u64)),
                ("pipeline", Json::UInt(args.pipeline as u64)),
                ("ops", Json::UInt(s.issued)),
                ("ops_per_sec", Json::Num(s.ops_per_sec())),
                ("ns_per_op", Json::UInt(ns_per_op)),
                (
                    "p50_us",
                    Json::UInt(s.overall_us.quantile(0.5).unwrap_or(0)),
                ),
                (
                    "p99_us",
                    Json::UInt(s.overall_us.quantile(0.99).unwrap_or(0)),
                ),
                ("errors", Json::UInt(s.errors())),
            ]));
        }
        last = Some(s);
    }
    let summary = last.expect("at least one rung");

    println!(
        "\n{} ops in {:?} ({:.0} ops/s), ok {}, errors {} (shed {}, deadline {})",
        summary.issued,
        summary.elapsed,
        summary.ops_per_sec(),
        summary.ok,
        summary.errors(),
        summary.errors_of(sgl_serve::protocol::ErrorKind::Overloaded),
        summary.errors_of(sgl_serve::protocol::ErrorKind::DeadlineExceeded),
    );
    for q in [0.5, 0.95, 0.99] {
        if let Some(v) = summary.overall_us.quantile(q) {
            println!("  p{:02.0} {v} µs", q * 100.0);
        }
    }

    // Cold vs warm compiled-network measurement (the perf artifact).
    let mut probe = match connect("cold/warm measurement") {
        Ok(c) => c,
        Err(code) => return code,
    };
    let cold_warm = measure_cold_warm(&mut probe, "stress", args.n, args.samples);
    println!(
        "cache: cold median {} µs, warm median {} µs ({:.2}x)",
        cold_warm.cold_median_us(),
        cold_warm.warm_median_us(),
        cold_warm.cold_median_us() as f64 / cold_warm.warm_median_us().max(1) as f64,
    );
    append_json_line(
        "serve",
        &format!("sssp_cold/{}", args.n),
        &timing_us(&cold_warm.cold_us),
    );
    append_json_line(
        "serve",
        &format!("sssp_warm/{}", args.n),
        &timing_us(&cold_warm.warm_us),
    );

    // Server-side view for the report artifact.
    let server_stats = match probe.call(Envelope::of(Request::ServerStats)) {
        Response::Ok { data, .. } => data,
        Response::Error { message, .. } => {
            eprintln!("sgl-stress: server_stats failed: {message}");
            Json::Null
        }
    };

    // The trace artifact: fetch retained traces over the wire and write
    // them as Chrome trace-event JSON next to the run report.
    if let Some(path) = &args.trace {
        match probe.call(Envelope::of(Request::TraceDump { limit: None })) {
            Response::Ok { data, .. } => match std::fs::write(path, data.to_string()) {
                Ok(()) => println!("trace: {path}"),
                Err(e) => {
                    eprintln!("sgl-stress: cannot write trace to {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Response::Error { message, .. } => {
                eprintln!("sgl-stress: trace_dump failed: {message}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut sink = ReportSink::new("serve");
    sink.phase("run");
    sink.section(
        "config",
        Json::obj(vec![
            ("ops", Json::UInt(args.ops)),
            ("connections", Json::UInt(args.connections as u64)),
            ("pipeline", Json::UInt(args.pipeline as u64)),
            ("mode", Json::Str(mode)),
            ("graph_n", Json::UInt(args.n as u64)),
            ("graph_m", Json::UInt(graph.m() as u64)),
            ("seed", Json::UInt(args.seed)),
        ]),
    );
    sink.section("summary", summary.to_json());
    if !scaling_rows.is_empty() {
        sink.section("scaling", Json::Arr(scaling_rows));
    }
    sink.section("cold_warm", cold_warm.to_json());
    sink.section("server_stats", server_stats);
    sink.finish();

    // Drain the spawned server (also proves clean shutdown end-to-end).
    if let Some(server) = spawned {
        let resp = probe.call(Envelope::of(Request::Shutdown));
        if !resp.is_ok() {
            eprintln!("sgl-stress: shutdown failed: {resp:?}");
            return ExitCode::FAILURE;
        }
        server.stop();
        println!("spawned server drained cleanly");
    }

    if args.expect_clean && summary.errors() > 0 {
        eprintln!(
            "sgl-stress: --expect-clean but {} operations failed",
            summary.errors()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
