//! APSP on the reference 256-node graph: batched runtime (one network,
//! recycled per-worker scratch) vs the per-source-rebuild path, at equal
//! thread count. The two must produce bit-identical distance matrices —
//! asserted here before any timing — and CI fails if the batched path is
//! ever slower than rebuilding (see `perf_check`'s `apsp_batch` ordering
//! rule), because then the batch runtime would be pure complexity.
//!
//! Emits `SGL_BENCH_JSON` lines (`group: "apsp_batch"`, ids `batch/256`
//! and `rebuild/256`) so `perf_check` can diff runs against
//! `crates/bench/baselines/BENCH_apsp_batch.json`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sgl_bench::report::{append_json_line, measure, ReportSink};
use sgl_core::apsp;
use sgl_graph::Graph;
use sgl_observe::Json;

const N: usize = 256;
const THREADS: usize = 4;
const SAMPLES: usize = 9;

fn main() {
    let mut sink = ReportSink::new("apsp_batch");
    let mut rng = StdRng::seed_from_u64(7);
    // Sparse reference graph (average degree ~2.2, road-network-like):
    // graph search workloads are sparse, and sparsity is where per-query
    // rebuild overhead hurts most — the simulation itself is cheap, so
    // build + allocation dominate the per-source cost.
    let g: Graph = sgl_graph::generators::gnm_connected(&mut rng, N, 280, 1..=9);

    println!(
        "# APSP batched vs per-source rebuild (n = {N}, m = {}, {THREADS} threads)\n",
        g.m()
    );

    // Correctness gate before any timing: the batched path is only an
    // optimisation if the distance matrices are bit-identical.
    sink.phase("run");
    let batched = apsp::solve(&g, THREADS);
    let rebuilt = apsp::solve_rebuild(&g, THREADS);
    assert_eq!(
        batched.distances, rebuilt.distances,
        "batched and rebuild distance matrices diverge"
    );
    assert_eq!(batched.makespan_steps, rebuilt.makespan_steps);
    assert_eq!(batched.total_spikes, rebuilt.total_spikes);

    let batch = measure(SAMPLES, || {
        std::hint::black_box(apsp::solve(&g, THREADS));
    });
    let rebuild = measure(SAMPLES, || {
        std::hint::black_box(apsp::solve_rebuild(&g, THREADS));
    });
    append_json_line("apsp_batch", "batch/256", &batch);
    append_json_line("apsp_batch", "rebuild/256", &rebuild);

    let speedup = rebuild.median.as_secs_f64() / batch.median.as_secs_f64().max(1e-12);
    sink.phase("readout");
    sink.table(
        "apsp_256",
        &["path", "median", "min", "mean"],
        &[
            vec![
                "batch".into(),
                format!("{:?}", batch.median),
                format!("{:?}", batch.min),
                format!("{:?}", batch.mean),
            ],
            vec![
                "rebuild".into(),
                format!("{:?}", rebuild.median),
                format!("{:?}", rebuild.min),
                format!("{:?}", rebuild.mean),
            ],
        ],
    );
    println!("\nspeedup (rebuild / batch): {speedup:.2}x");
    sink.section(
        "summary",
        Json::obj(vec![
            ("n", Json::UInt(N as u64)),
            ("m", Json::UInt(g.m() as u64)),
            ("threads", Json::UInt(THREADS as u64)),
            (
                "batch_median_ns",
                Json::UInt(batch.median.as_nanos() as u64),
            ),
            (
                "rebuild_median_ns",
                Json::UInt(rebuild.median.as_nanos() as u64),
            ),
            ("speedup", Json::Num(speedup)),
            ("distances_identical", Json::Bool(true)),
            ("makespan_steps", Json::UInt(batched.makespan_steps)),
            ("total_spikes", Json::UInt(batched.total_spikes)),
        ]),
    );
    sink.finish();
}
