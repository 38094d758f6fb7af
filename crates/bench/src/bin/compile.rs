//! Graph→SNN compilation: the bulk path (`NetworkBuilder` counting-sort
//! into CSR, the library default since the bulk-compilation change) vs the
//! incremental path it replaced (per-edge `Network::connect` into
//! `Vec<Vec<Synapse>>`, then the lazy O(m) CSR copy the engines force).
//! Both the §3 SSSP construction and the layered k-hop construction are
//! measured at n ∈ {256, 1024, 4096}, m = 4n.
//!
//! The two paths must produce byte-identical CSR topologies — asserted
//! here before any timing — and CI fails if bulk is ever slower than
//! incremental at any measured size (see `perf_check`'s `compile`
//! ordering rule), because then the bulk kernel would be pure complexity.
//!
//! Emits `SGL_BENCH_JSON` lines in the criterion-shim format
//! (`group: "compile"`, ids `sssp_bulk/256`, `sssp_incremental/256`, ...)
//! so `perf_check` can diff runs against
//! `crates/bench/baselines/BENCH_compile.json`.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sgl_bench::report::{append_json_line, measure, ReportSink};
use sgl_core::{khop_layered, sssp_pseudo::SpikingSssp};
use sgl_graph::Graph;
use sgl_observe::Json;
use sgl_snn::{LifParams, Network, NeuronId};

const SIZES: [usize; 3] = [256, 1024, 4096];
const K: u32 = 3;
const SAMPLES: usize = 9;

/// The pre-bulk §3 construction, verbatim: one `add_neuron` per node, one
/// `connect` per synapse, then the forced `csr()` copy every engine run
/// needs. This is what `SpikingSssp::build_network` did before the bulk
/// kernel, kept here as the honest baseline.
#[allow(clippy::needless_range_loop)] // mirrors the replaced code verbatim
fn sssp_incremental(g: &Graph) -> Network {
    let mut net = Network::with_capacity(g.n());
    let in_deg = g.in_degrees();
    for _ in 0..g.n() {
        net.add_neuron(LifParams::unit_integrator());
    }
    for v in 0..g.n() {
        let nv = NeuronId(v as u32);
        for (w, len) in g.out_edges(v) {
            let delay = u32::try_from(len).expect("edge length exceeds u32 delay range");
            net.connect(nv, NeuronId(w as u32), 1.0, delay)
                .expect("valid by construction");
        }
        net.connect(nv, nv, -(in_deg[v] as f64 + 2.0), 1)
            .expect("valid by construction");
    }
    net.mark_input(NeuronId(0));
    let _ = net.csr();
    net
}

/// The pre-bulk layered k-hop construction, verbatim (see
/// `khop_layered::build_network` before the bulk kernel).
#[allow(clippy::needless_range_loop)] // mirrors the replaced code verbatim
fn khop_incremental(g: &Graph, k: u32) -> Network {
    let n = g.n();
    let layers = k as usize + 1;
    let mut net = Network::with_capacity(layers * n);
    for _ in 0..layers * n {
        net.add_neuron(LifParams::unit_integrator());
    }
    let in_deg = g.in_degrees();
    for layer in 0..=k {
        for v in 0..n {
            let id = khop_layered::neuron(v, layer, n);
            if layer < k {
                for (w, len) in g.out_edges(v) {
                    let delay = u32::try_from(len).expect("edge length exceeds u32 delay range");
                    net.connect(id, khop_layered::neuron(w, layer + 1, n), 1.0, delay)
                        .expect("valid by construction");
                }
            }
            let inhibition = if layer == 0 { 0.0 } else { in_deg[v] as f64 };
            net.connect(id, id, -(inhibition + 2.0), 1)
                .expect("valid by construction");
        }
    }
    let _ = net.csr();
    net
}

struct Arm {
    id: String,
    median: Duration,
    memory: usize,
}

#[allow(clippy::cast_precision_loss)]
fn bench_pair(
    sink: &mut ReportSink,
    label: &str,
    n: usize,
    bulk: &dyn Fn() -> Network,
    incremental: &dyn Fn() -> Network,
) -> (Arm, Arm) {
    // Correctness gate before any timing: same CSR, byte for byte.
    let b = bulk();
    let i = incremental();
    assert_eq!(b.csr(), i.csr(), "{label}/{n}: bulk CSR diverges");
    assert_eq!(b.params_slice(), i.params_slice());
    assert!(
        b.is_frozen(),
        "{label}/{n}: bulk network must be born frozen"
    );
    let bulk_mem = b.memory_bytes();
    let inc_mem = i.memory_bytes();
    drop((b, i));

    let bulk_t = measure(SAMPLES, || {
        std::hint::black_box(bulk());
    });
    let inc_t = measure(SAMPLES, || {
        std::hint::black_box(incremental());
    });
    let (bm, im) = (bulk_t.median, inc_t.median);
    append_json_line("compile", &format!("{label}_bulk/{n}"), &bulk_t);
    append_json_line("compile", &format!("{label}_incremental/{n}"), &inc_t);
    sink.section(
        &format!("{label}_{n}"),
        Json::obj(vec![
            ("n", Json::UInt(n as u64)),
            ("bulk_median_ns", Json::UInt(bm.as_nanos() as u64)),
            ("incremental_median_ns", Json::UInt(im.as_nanos() as u64)),
            (
                "speedup",
                Json::Num(im.as_secs_f64() / bm.as_secs_f64().max(1e-12)),
            ),
            ("bulk_memory_bytes", Json::UInt(bulk_mem as u64)),
            ("incremental_memory_bytes", Json::UInt(inc_mem as u64)),
        ]),
    );
    (
        Arm {
            id: format!("{label}_bulk/{n}"),
            median: bm,
            memory: bulk_mem,
        },
        Arm {
            id: format!("{label}_incremental/{n}"),
            median: im,
            memory: inc_mem,
        },
    )
}

fn main() {
    let mut sink = ReportSink::new("compile");
    println!("# graph→SNN compilation: bulk (NetworkBuilder) vs incremental (per-edge connect)\n");

    let mut rows: Vec<Vec<String>> = Vec::new();
    sink.phase("run");
    for &n in &SIZES {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g: Graph = sgl_graph::generators::gnm_connected(&mut rng, n, 4 * n, 1..=9);

        let (b, i) = bench_pair(
            &mut sink,
            "sssp",
            n,
            &|| SpikingSssp::new(&g, 0).build_network(),
            &|| sssp_incremental(&g),
        );
        for arm in [&b, &i] {
            rows.push(vec![
                arm.id.clone(),
                format!("{:?}", arm.median),
                format!("{}", arm.memory),
            ]);
        }
        let speedup = i.median.as_secs_f64() / b.median.as_secs_f64().max(1e-12);
        println!(
            "sssp/{n}: bulk {:?} vs incremental {:?} ({speedup:.2}x), memory {} vs {} bytes",
            b.median, i.median, b.memory, i.memory
        );

        let (b, i) = bench_pair(
            &mut sink,
            "khop",
            n,
            &|| khop_layered::build_network(&g, K),
            &|| khop_incremental(&g, K),
        );
        for arm in [&b, &i] {
            rows.push(vec![
                arm.id.clone(),
                format!("{:?}", arm.median),
                format!("{}", arm.memory),
            ]);
        }
        let speedup = i.median.as_secs_f64() / b.median.as_secs_f64().max(1e-12);
        println!(
            "khop/{n} (k = {K}): bulk {:?} vs incremental {:?} ({speedup:.2}x), memory {} vs {} bytes",
            b.median, i.median, b.memory, i.memory
        );
    }

    sink.phase("readout");
    sink.table("compile", &["id", "median", "memory_bytes"], &rows);
    sink.finish();
}
