//! `partitioned_sssp`: a library batch of single-source shortest paths on a
//! million-node layered graph, on the engine `Auto` picks under a memory
//! budget that calls for four partitions. Queries go through
//! [`BatchRunner`], so the timed cost is what a library caller pays: the
//! partition plan compile and the bulk-synchronous run, every query.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sgl_bench::synth;
use sgl_core::sssp_pseudo::SpikingSssp;
use sgl_graph::{dijkstra, Graph};
use sgl_observe::Json;
use sgl_snn::engine::{BatchRunner, Engine, EngineChoice, EventEngine, RunConfig, RunSpec};
use sgl_snn::{Network, NeuronId, PartitionedEngine, RunResult};

use crate::report::{self, Metric};
use crate::spans::{self, Tracer};
use crate::stats::{self, Hist, Summary};
use crate::Args;

const LAYERS: usize = 200;
const WIDTH: usize = 5000;
const FANOUT: usize = 3;
const MAX_LEN: u64 = 4;
/// Partitions the memory budget is sized for.
const PARTS: usize = 4;
/// Queries replayed with spans in a traced run.
const REPLAY_QUERIES: usize = 3;

fn build(seed: u64) -> (Graph, Network) {
    let g = synth::layered(seed, LAYERS, WIDTH, FANOUT, MAX_LEN);
    let net = SpikingSssp::new(&g, 0).build_network();
    (g, net)
}

fn config(g: &Graph) -> RunConfig {
    RunConfig::until_quiescent(g.n() as u64 * g.max_len().max(1) + 1)
}

struct Timed {
    latency: Hist,
    failed: usize,
    wall: Duration,
    first: Option<RunResult>,
}

/// Submits one query per source through `BatchRunner` until `window`
/// has passed.
fn timed(
    net: &Network,
    g: &Graph,
    choice: EngineChoice,
    sources: &[usize],
    window: Duration,
) -> Timed {
    let cfg = config(g);
    let mut out = Timed {
        latency: Hist::default(),
        failed: 0,
        wall: Duration::ZERO,
        first: None,
    };
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < window {
        let spec = RunSpec::new(
            vec![NeuronId(sources[i % sources.len()] as u32)],
            cfg.clone(),
        );
        let t = Instant::now();
        let res = BatchRunner::new(net)
            .with_engine(choice)
            .with_threads(1)
            .run(std::slice::from_ref(&spec));
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match res {
            Ok(mut r) => {
                out.latency.record(ns);
                if out.first.is_none() {
                    out.first = r.pop();
                }
            }
            Err(_) => out.failed += 1,
        }
        i += 1;
    }
    out.wall = start.elapsed();
    out
}

/// The correctness gate: the first timed answer is bit-identical to the
/// monolithic event engine's and its first-spike times equal Dijkstra.
fn check(
    first: Option<&RunResult>,
    reference: &RunResult,
    distances: &[Option<u64>],
) -> Result<(), String> {
    let first = first.ok_or("no partitioned query completed")?;
    if first != reference {
        return Err("partitioned result differs from EventEngine".into());
    }
    if first.first_spikes[..distances.len()] != *distances {
        return Err("partitioned first-spike times differ from dijkstra".into());
    }
    Ok(())
}

/// Runs the workload and prints its result.
///
/// # Errors
/// Any wrong answer or an engine choice other than partitioned.
pub fn run(args: &Args) -> Result<(), String> {
    let ((g, net), setups) = crate::repeat_setup(|| {
        let t0 = Instant::now();
        let built = build(args.seed);
        Ok((built, t0.elapsed().as_secs_f64()))
    })?;
    let budget = net.memory_bytes().div_ceil(PARTS);
    let choice = EngineChoice::Auto.resolve_with_partition_budget(&net, budget);
    let EngineChoice::Partitioned { parts, threads } = choice else {
        return Err(format!(
            "Auto picked {choice:?} under a {budget}-byte budget"
        ));
    };
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5151_7a3b);
    let sources = crate::serve::distinct(&mut rng, WIDTH, WIDTH);
    let cfg = config(&g);
    let reference = EventEngine
        .run(&net, &[NeuronId(sources[0] as u32)], &cfg)
        .map_err(|e| e.to_string())?;
    let distances = dijkstra(&g, sources[0]).distances;

    let window = Duration::from_secs_f64(args.seconds * if args.trace { 0.5 } else { 1.0 });
    let run = timed(&net, &g, choice, &sources, window);
    let peak_rss_mb = report::peak_rss_mb();
    check(run.first.as_ref(), &reference, &distances)?;
    let lat = Summary::of(&run.latency).ok_or("no partitioned query completed")?;
    let attempted = lat.n + run.failed;
    println!(
        "partitioned_sssp: n={} m={} parts={parts} threads={threads}: {attempted} attempted, {} failed, {} set-ups",
        g.n(),
        g.m(),
        run.failed,
        setups.len()
    );
    println!("latency_ms of {} ok solves: {}", lat.n, lat.describe());
    let report = Json::obj(vec![
        ("workload", Json::Str("partitioned_sssp".into())),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("machine", report::machine_facts()),
        (
            "params",
            Json::obj(vec![
                (
                    "graph",
                    Json::Str("synth::layered 200x5000, fanout 3, lengths 1..=4".into()),
                ),
                ("n", Json::UInt(g.n() as u64)),
                ("m", Json::UInt(g.m() as u64)),
                ("partition_budget_bytes", Json::UInt(budget as u64)),
                ("parts", Json::UInt(parts as u64)),
                ("threads", Json::UInt(threads as u64)),
            ]),
        ),
        (
            "properties",
            Json::obj(vec![
                ("memo_hit_share", Json::Num(0.0)),
                ("write_share", Json::Num(0.0)),
                (
                    "engine_share",
                    Json::obj(vec![("partitioned", Json::Num(1.0))]),
                ),
            ]),
        ),
        ("latency_ms", Json::Str(lat.describe())),
    ]);
    if !args.trace {
        let metrics = vec![
            Metric::new("qps", lat.n as f64 / run.wall.as_secs_f64(), "1/s", lat.n),
            Metric::new("latency_p50_ms", lat.p50, "ms", lat.n),
            Metric::new(
                "ok_frac",
                (attempted - run.failed) as f64 / attempted.max(1) as f64,
                "ratio",
                attempted,
            ),
            Metric::new("setup_s", stats::median(&setups), "s", setups.len()),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1),
        ];
        report::finish(report, &metrics, attempted, run.failed);
        return Ok(());
    }

    // Traced replay: the caller-facing BatchRunner call, then the same
    // query decomposed into plan compile, threaded run and readout.
    let mut tr = Tracer::new();
    let root = tr.open("setup", None, 0);
    let s = tr.open("graph.generate", Some(root), 0);
    let g2 = synth::layered(args.seed, LAYERS, WIDTH, FANOUT, MAX_LEN);
    tr.close(s);
    let s = tr.open("core.sssp_build", Some(root), 0);
    let net2 = SpikingSssp::new(&g2, 0).build_network();
    tr.close(s);
    tr.close(root);
    drop((g2, net2));
    let engine = PartitionedEngine::new(parts).with_threads(threads);
    let (mut supersteps, mut cut, mut spilled, mut imbalance) = (0u64, 0u64, 0u64, 0f64);
    let (mut busy, mut wait, mut capacity) = (0u64, 0u64, 0u64);
    let (mut steps, mut spikes, mut deliveries) = (0u64, 0u64, 0u64);
    let mut batch_ms = Vec::new();
    for (q, &s) in sources.iter().take(REPLAY_QUERIES).enumerate() {
        let req = 1 + q as u64;
        let init = [NeuronId(s as u32)];
        let spec = RunSpec::new(init.to_vec(), cfg.clone());
        let b = tr.open("batch.run", None, req);
        let batch = BatchRunner::new(&net)
            .with_engine(choice)
            .with_threads(1)
            .run(std::slice::from_ref(&spec))
            .map_err(|e| e.to_string())?;
        tr.close(b);
        batch_ms.push((tr.spans()[b].end_ns - tr.spans()[b].start_ns) as f64 / 1e6);
        let req = req + REPLAY_QUERIES as u64;
        let root = tr.open("partition.query", None, req);
        let c = tr.open("partition.compile", Some(root), req);
        let plan = engine.compile(&net).map_err(|e| e.to_string())?;
        tr.close(c);
        let r = tr.open("partition.run", Some(root), req);
        let (result, st) = plan
            .run_with_stats_threaded(&init, &cfg, threads)
            .map_err(|e| e.to_string())?;
        tr.close(r);
        let d = tr.open("engine.readout", Some(root), req);
        std::hint::black_box(result.first_spikes[..g.n()].to_vec());
        tr.close(d);
        tr.close(root);
        if batch.first() != Some(&result) {
            return Err("decomposed partitioned run differs from BatchRunner's".into());
        }
        let run_ns = tr.spans()[r].end_ns - tr.spans()[r].start_ns;
        supersteps += st.supersteps;
        cut += st.cut_messages;
        spilled += st.spilled_messages;
        imbalance = imbalance.max(st.imbalance_max);
        for w in &st.workers {
            busy += w.busy_ns;
            wait += w.barrier_wait_ns;
        }
        capacity += run_ns * st.threads as u64;
        steps += result.steps;
        spikes += result.stats.spike_events;
        deliveries += result.stats.synaptic_deliveries;
    }
    report::write_and_check_trace(
        &spans::chrome_json(tr.spans()),
        &args.out_dir.join(format!(
            "partitioned_sssp-seed{}-spans.trace.json",
            args.seed
        )),
        &args.trace_check,
    )?;
    println!("partitioned_sssp: traced replay of {REPLAY_QUERIES} queries");
    report::print_layer_table(&spans::layer_table(tr.spans()));
    let selfs = spans::self_times(tr.spans());
    let med = |name: &str, scale: f64| {
        let v: Vec<f64> = tr
            .spans()
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t as f64 / scale)
            .collect();
        stats::median(&v)
    };
    let nq = REPLAY_QUERIES as f64;
    let frac = |x: u64| {
        if capacity == 0 {
            0.0
        } else {
            x as f64 / capacity as f64
        }
    };
    let metrics = vec![
        Metric::new(
            "partition.plan_compile_ms",
            med("partition.compile", 1e6),
            "ms",
            REPLAY_QUERIES,
        ),
        Metric::new(
            "partition.run_ms",
            med("partition.run", 1e6),
            "ms",
            REPLAY_QUERIES,
        ),
        Metric::new(
            "partition.supersteps",
            supersteps as f64 / nq,
            "count",
            REPLAY_QUERIES,
        ),
        Metric::new(
            "partition.cut_messages",
            cut as f64 / nq,
            "count",
            REPLAY_QUERIES,
        ),
        Metric::new(
            "partition.spilled",
            spilled as f64 / nq,
            "count",
            REPLAY_QUERIES,
        ),
        Metric::new("partition.busy_frac", frac(busy), "ratio", REPLAY_QUERIES),
        Metric::new(
            "partition.barrier_wait_frac",
            frac(wait),
            "ratio",
            REPLAY_QUERIES,
        ),
        Metric::new(
            "partition.imbalance_max",
            imbalance,
            "ratio",
            REPLAY_QUERIES,
        ),
        Metric::new("core.sssp_build_ms", med("core.sssp_build", 1e6), "ms", 1),
        Metric::new(
            "engine.readout_us",
            med("engine.readout", 1e3),
            "us",
            REPLAY_QUERIES,
        ),
        Metric::new(
            "engine.sim_steps",
            steps as f64 / nq,
            "count",
            REPLAY_QUERIES,
        ),
        Metric::new("engine.spikes", spikes as f64 / nq, "count", REPLAY_QUERIES),
        Metric::new(
            "engine.deliveries",
            deliveries as f64 / nq,
            "count",
            REPLAY_QUERIES,
        ),
        Metric::new(
            "trace.overhead_frac",
            (stats::median(&batch_ms) - lat.p50) / lat.p50,
            "ratio",
            REPLAY_QUERIES,
        ),
    ];
    crate::finish_traced(report, metrics, attempted, run.failed);
    Ok(())
}
