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
//! The superstep loop's thread count is swept on top: `p{2,4,8}`
//! partitions at `t{2,4}` worker threads, every combination asserted
//! bit-identical to the event run before timing, with per-worker balance
//! (imbalance ratio, max barrier wait) read back through
//! [`PartitionPlan::run_with_stats_threaded`]. One thread is not timed
//! again: `p<K>` already is that call (one worker, run inline), so its
//! median anchors the sweep's `vs_t1` column.
//!
//! Each rung's [`PartitionedEngine::compile`] is timed too — every
//! `EngineChoice::prepare` of a partitioned net pays it. The first
//! compile of a network pays validation plus one cut-counting pass
//! (partition `q` is the contiguous id range `q·⌈n/K⌉..` of the net
//! itself); the network caches its validation, so every later compile
//! pays the counting pass alone. The cut-traffic table carries both:
//! `compile_cold`, one compile of a freshly built copy of the net (one
//! sample), and `compile`, the median over the measured net, whose
//! validation the event run already cached. Beside them sits the compiled
//! plan's [`PartitionPlan::memory_bytes`] in MB (`plan_mb`: the bounds
//! and cut counts only; the plan borrows the net). The `event/<n>` row
//! runs through `EventEngine.run`, whose `prepare` finds the validation
//! cached too, so neither side of the `p1`-vs-`event` rule below pays a
//! network scan per run.
//!
//! Emits `SGL_BENCH_JSON` lines (`group: "partition"`, ids `event/<n>`,
//! `p1/<n>` ... `p8/<n>`, `p<K>t<T>/<n>` for the threaded sweep, and
//! `plan_compile/p<K>/<n>` for the compiles) for `perf_check`, which
//! enforces intra-run rules on the run rows: `p1/<n>` within 10% of
//! `event/<n>` (the partition machinery at one partition is bookkeeping
//! only), each doubling of the partition count at most 2x the previous
//! rung (cut overhead grows smoothly, it does not cliff), and — on a
//! multi-core runner at n >= 10^5 — `p<K>t<T>` no slower than `p<K>`
//! (the worker pool helps or stays out of the way). The cut-traffic and
//! worker-balance tables land in `BENCH_partition.json`.

use sgl_bench::report::{append_json_line, measure, ReportSink};
use sgl_bench::synth;
use sgl_core::sssp_pseudo::SpikingSssp;
use sgl_observe::Json;
use sgl_snn::engine::{Engine, EventEngine, RunConfig, RunResult, StopCondition};
use sgl_snn::partition::{PartitionPlan, PartitionedEngine};
use sgl_snn::{Network, NeuronId};
use std::time::Instant;

const PART_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Worker-thread counts for the threaded sweep. One thread is the plain
/// `p<K>` row, which anchors the speedup column.
const THREAD_COUNTS: [usize; 2] = [2, 4];
const SEED: u64 = 2021;

/// (n, layers, fanout, max edge length, timing samples). Width is
/// `n / layers`. Sample counts shrink with size: the 10^6 rung is there
/// to prove completion and measure cut traffic, not to win a jitter war.
const SIZES: [(usize, usize, usize, u64, usize); 3] = [
    (10_000, 50, 3, 4, 15),
    (100_000, 100, 3, 4, 7),
    (1_000_000, 200, 3, 4, 3),
];

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

        // Compile one plan per rung (correctness gate before any run
        // timing), and time the compile itself: every `prepare` pays it,
        // the first on a network (validation included) once, cold.
        let mut compile_times = Vec::with_capacity(PART_COUNTS.len());
        let plans: Vec<PartitionPlan> = PART_COUNTS
            .iter()
            .map(|&p| {
                let engine = PartitionedEngine::new(p);
                let fresh = sssp.build_network();
                let t0 = Instant::now();
                std::hint::black_box(engine.compile(&fresh).expect("valid SSSP net"));
                let cold = t0.elapsed();
                drop(fresh);
                let timing = measure(samples, || {
                    std::hint::black_box(engine.compile(&net).expect("valid SSSP net"));
                });
                append_json_line("partition", &format!("plan_compile/p{p}/{n}"), &timing);
                compile_times.push((cold, timing.median));
                engine.compile(&net).expect("valid SSSP net")
            })
            .collect();
        let mut rows: Vec<Vec<String>> = Vec::new();
        let event_t = measure(samples, || {
            std::hint::black_box(run_event(&net, &config));
        });
        append_json_line("partition", &format!("event/{n}"), &event_t);
        let event_median = event_t.median;
        rows.push(vec![
            "event".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{event_median:?}"),
            "1.00".into(),
        ]);

        let mut p_medians = Vec::with_capacity(plans.len());
        for ((plan, &parts), (cold, compile)) in plans.iter().zip(&PART_COUNTS).zip(&compile_times)
        {
            let (result, stats) = plan
                .run_with_stats_threaded(&[NeuronId(0)], &config, 1)
                .expect("valid SSSP net");
            assert_eq!(
                event, result,
                "partitioned@{parts} diverged from the event engine at n = {n}"
            );
            let timing = measure(samples, || {
                std::hint::black_box(
                    plan.run_with_stats_threaded(&[NeuronId(0)], &config, 1)
                        .unwrap(),
                );
            });
            append_json_line("partition", &format!("p{parts}/{n}"), &timing);
            let median = timing.median;
            p_medians.push(median);
            let rel = median.as_secs_f64() / event_median.as_secs_f64().max(1e-12);
            println!(
                "  partitioned@{parts}: cut {} edges, {} messages, compile {compile:?} \
                 (cold {cold:?}), {median:?} ({rel:.2}x event)",
                stats.cut_edges, stats.cut_messages
            );
            rows.push(vec![
                format!("p{parts}"),
                stats.cut_edges.to_string(),
                stats.cut_messages.to_string(),
                format!("{cold:?}"),
                format!("{compile:?}"),
                format!("{:.1}", plan.memory_bytes() as f64 / 1e6),
                format!("{median:?}"),
                format!("{rel:.2}"),
            ]);
        }

        // Threaded sweep: same plans, worker pool at 2/4 threads, each
        // against its plan's one-worker `p<K>` median. Bit-identity is
        // asserted per combination before timing, and the stats run
        // doubles as the worker-balance readout.
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let mut trows: Vec<Vec<String>> = Vec::new();
        for ((plan, &parts), &t1_median) in plans.iter().zip(&PART_COUNTS).zip(&p_medians) {
            if parts == 1 {
                continue; // a single partition always runs inline
            }
            for &threads in &THREAD_COUNTS {
                let (result, stats) = plan
                    .run_with_stats_threaded(&[NeuronId(0)], &config, threads)
                    .expect("valid SSSP net");
                assert_eq!(
                    event, result,
                    "partitioned@{parts} t{threads} diverged from the event engine at n = {n}"
                );
                let timing = measure(samples, || {
                    std::hint::black_box(
                        plan.run_with_stats_threaded(&[NeuronId(0)], &config, threads)
                            .unwrap(),
                    );
                });
                append_json_line("partition", &format!("p{parts}t{threads}/{n}"), &timing);
                let median = timing.median;
                let rel = median.as_secs_f64() / t1_median.as_secs_f64().max(1e-12);
                let max_wait_us = stats
                    .workers
                    .iter()
                    .map(|w| w.barrier_wait_ns)
                    .max()
                    .unwrap_or(0)
                    / 1_000;
                println!(
                    "  partitioned@{parts} t{threads}: {median:?} ({rel:.2}x p{parts}, \
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
                "compile_cold",
                "compile",
                "plan_mb",
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
