//! SSSP at n ∈ {10^4, 10^5, 10^6} on the partitioned engine: the
//! cut-traffic vs partition-count tradeoff of von Seeler et al., measured.
//!
//! Workload: a seeded layered DAG from [`sgl_bench::synth`] (regenerated,
//! never committed), compiled to the SpikingSssp network and run to
//! quiescence. For each size the event engine — the engine `Auto` picks
//! for this sparse input-driven net, i.e. the best single engine — is the
//! baseline; the partitioned engine runs the same net at 1/2/4/8
//! partitions from one compiled [`PartitionPlan`] per rung. Every
//! partitioned result is asserted bit-identical to the event run before
//! any timing.
//!
//! The threaded BSP driver is swept on top: `p{2,4,8}` partitions at
//! `t{1,2,4}` worker threads, every combination asserted bit-identical
//! to the event run before timing, with per-worker balance (imbalance
//! ratio, max barrier wait) read back through
//! [`PartitionPlan::run_with_stats_threaded`].
//!
//! Emits `SGL_BENCH_JSON` lines (`group: "partition"`, ids `event/<n>`,
//! `p1/<n>` ... `p8/<n>`, and `p<K>t<T>/<n>` for the threaded sweep) for
//! `perf_check`, which enforces intra-run rules: `p1/<n>` within 10% of
//! `event/<n>` (the partition machinery at one partition is bookkeeping
//! only), each doubling of the partition count at most 2x the previous
//! rung (cut overhead grows smoothly, it does not cliff), `p<K>t1`
//! within 5% of `p<K>` (threads = 1 delegates to the sequential driver),
//! and — on a multi-core runner at n >= 10^5 — `p<K>t<T>` no slower
//! than `p<K>t1` (the worker pool helps or stays out of the way). The
//! cut-traffic and worker-balance tables land in `BENCH_partition.json`.

use std::time::{Duration, Instant};

use sgl_bench::report::ReportSink;
use sgl_bench::synth;
use sgl_core::sssp_pseudo::SpikingSssp;
use sgl_observe::Json;
use sgl_snn::engine::{Engine, EventEngine, RunConfig, RunResult, StopCondition};
use sgl_snn::partition::{PartitionPlan, PartitionedEngine};
use sgl_snn::{Network, NeuronId};

const PART_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Worker-thread counts for the threaded-driver sweep (t1 delegates to
/// the sequential driver and anchors the speedup column).
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const SEED: u64 = 2021;

/// (n, layers, fanout, max edge length, timing samples). Width is
/// `n / layers`. Sample counts shrink with size: the 10^6 rung is there
/// to prove completion and measure cut traffic, not to win a jitter war.
const SIZES: [(usize, usize, usize, u64, usize); 3] = [
    (10_000, 50, 3, 4, 15),
    (100_000, 100, 3, 4, 7),
    (1_000_000, 200, 3, 4, 3),
];

fn measure(samples: usize, mut f: impl FnMut()) -> (Duration, Duration, Duration) {
    f(); // warmup: keep cold page faults out of the sample set
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2];
    let min = times[0];
    let mean = times.iter().sum::<Duration>() / times.len() as u32;
    (median, min, mean)
}

/// Same line format as the criterion shim's `SGL_BENCH_JSON` output.
fn append_json_line(id: &str, median: Duration, min: Duration, mean: Duration, n: usize) {
    let Some(path) = std::env::var_os("SGL_BENCH_JSON") else {
        return;
    };
    let line = format!(
        "{{\"group\":\"partition\",\"id\":\"{id}\",\"median_ns\":{},\"min_ns\":{},\"mean_ns\":{},\"samples\":{n}}}\n",
        median.as_nanos(),
        min.as_nanos(),
        mean.as_nanos(),
    );
    let r = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    if let Err(e) = r {
        eprintln!("SGL_BENCH_JSON: cannot append to {path:?}: {e}");
    }
}

/// The run configuration `SpikingSssp::solve` uses: quiescence-stopped
/// with the (n-1)·U budget every finite distance fits under.
fn sssp_config(n: usize, max_len: u64) -> RunConfig {
    RunConfig {
        max_steps: (n as u64).saturating_mul(max_len.max(1)) + 1,
        stop: StopCondition::Quiescent,
        record_raster: false,
        strict: false,
    }
}

fn run_event(net: &Network, config: &RunConfig) -> RunResult {
    EventEngine
        .run(net, &[NeuronId(0)], config)
        .expect("valid SSSP net")
}

fn main() {
    let mut sink = ReportSink::new("partition");
    let mut summaries: Vec<(&str, Json)> = Vec::new();

    for (n, layers, fanout, max_len, samples) in SIZES {
        let width = n / layers;
        let g = synth::layered(SEED, layers, width, fanout, max_len);
        let sssp = SpikingSssp::new(&g, 0);
        let net = sssp.build_network();
        let config = sssp_config(n, max_len);
        println!(
            "# SSSP n = {n} (layered {layers}x{width}, fanout {fanout}, m = {}, synapses = {})",
            g.m(),
            net.synapse_count()
        );

        sink.phase("run");
        let event = run_event(&net, &config);
        let reached = event.first_spikes.iter().flatten().count();
        println!(
            "  event engine: {} steps, {reached}/{n} reached",
            event.steps
        );

        // Compile one plan per rung; correctness gate before any timing.
        let plans: Vec<PartitionPlan> = PART_COUNTS
            .iter()
            .map(|&p| {
                PartitionedEngine::new(p)
                    .compile(&net)
                    .expect("valid SSSP net")
            })
            .collect();
        let mut rows: Vec<Vec<String>> = Vec::new();
        let (event_median, event_min, event_mean) = measure(samples, || {
            std::hint::black_box(run_event(&net, &config));
        });
        append_json_line(
            &format!("event/{n}"),
            event_median,
            event_min,
            event_mean,
            samples,
        );
        rows.push(vec![
            "event".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{event_median:?}"),
            "1.00".into(),
        ]);

        for (plan, &parts) in plans.iter().zip(&PART_COUNTS) {
            let (result, stats) = plan
                .run_with_stats_threaded(&[NeuronId(0)], &config, 1)
                .expect("valid SSSP net");
            assert_eq!(
                event, result,
                "partitioned@{parts} diverged from the event engine at n = {n}"
            );
            let (median, min, mean) = measure(samples, || {
                std::hint::black_box(
                    plan.run_with_stats_threaded(&[NeuronId(0)], &config, 1)
                        .unwrap(),
                );
            });
            append_json_line(&format!("p{parts}/{n}"), median, min, mean, samples);
            let rel = median.as_secs_f64() / event_median.as_secs_f64().max(1e-12);
            println!(
                "  partitioned@{parts}: cut {} edges, {} messages ({} spilled), {median:?} ({rel:.2}x event)",
                stats.cut_edges, stats.cut_messages, stats.spilled_messages
            );
            rows.push(vec![
                format!("p{parts}"),
                stats.cut_edges.to_string(),
                stats.cut_messages.to_string(),
                stats.spilled_messages.to_string(),
                format!("{median:?}"),
                format!("{rel:.2}"),
            ]);
        }

        // Threaded sweep: same plans, worker pool at 1/2/4 threads.
        // Bit-identity is asserted per combination before timing, and the
        // stats run doubles as the worker-balance readout.
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let mut trows: Vec<Vec<String>> = Vec::new();
        for (plan, &parts) in plans.iter().zip(&PART_COUNTS) {
            if parts == 1 {
                continue; // single partition sheds to the sequential path
            }
            let mut t1_median = Duration::ZERO;
            for &threads in &THREAD_COUNTS {
                let (result, stats) = plan
                    .run_with_stats_threaded(&[NeuronId(0)], &config, threads)
                    .expect("valid SSSP net");
                assert_eq!(
                    event, result,
                    "partitioned@{parts} t{threads} diverged from the event engine at n = {n}"
                );
                let (median, min, mean) = measure(samples, || {
                    std::hint::black_box(
                        plan.run_with_stats_threaded(&[NeuronId(0)], &config, threads)
                            .unwrap(),
                    );
                });
                append_json_line(
                    &format!("p{parts}t{threads}/{n}"),
                    median,
                    min,
                    mean,
                    samples,
                );
                if threads == 1 {
                    t1_median = median;
                }
                let rel = median.as_secs_f64() / t1_median.as_secs_f64().max(1e-12);
                let max_wait_us = stats
                    .workers
                    .iter()
                    .map(|w| w.barrier_wait_ns)
                    .max()
                    .unwrap_or(0)
                    / 1_000;
                println!(
                    "  partitioned@{parts} t{threads}: {median:?} ({rel:.2}x t1, \
                     imbalance max {:.2}, max barrier wait {max_wait_us}us)",
                    stats.imbalance_max
                );
                trows.push(vec![
                    format!("p{parts}"),
                    threads.to_string(),
                    format!("{median:?}"),
                    format!("{rel:.2}"),
                    format!("{:.2}", stats.imbalance_max),
                    max_wait_us.to_string(),
                ]);
            }
        }

        sink.phase("readout");
        sink.table(
            &format!("cut_traffic_{n}"),
            &[
                "engine",
                "cut_edges",
                "cut_messages",
                "spilled",
                "median",
                "vs_event",
            ],
            &rows,
        );
        sink.table(
            &format!("threaded_{n}"),
            &[
                "config",
                "threads",
                "median",
                "vs_t1",
                "imbalance_max",
                "max_wait_us",
            ],
            &trows,
        );
        summaries.push((
            match n {
                10_000 => "n_10k",
                100_000 => "n_100k",
                _ => "n_1m",
            },
            Json::obj(vec![
                ("n", Json::UInt(n as u64)),
                ("m", Json::UInt(g.m() as u64)),
                ("steps", Json::UInt(event.steps)),
                ("reached", Json::UInt(reached as u64)),
                (
                    "event_median_ns",
                    Json::UInt(event_median.as_nanos() as u64),
                ),
                ("cores", Json::UInt(cores as u64)),
                ("completed", Json::Bool(true)),
            ]),
        ));
    }

    sink.section("summary", Json::obj(summaries));
    sink.finish();
}
