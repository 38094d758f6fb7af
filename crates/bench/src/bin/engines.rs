//! Ablation: dense (literal) vs event-driven vs bit-plane SNN engines.
//!
//! Two workload families:
//!
//! * the delay-encoded SSSP network on a sparse random digraph — the
//!   event-driven-communication argument of §2.1 as wall-clock; and
//! * a near-complete gate network (`m = n²/4`, delays ≤ 9) — the regime
//!   the bit-plane engine exists for, in both its delivery modes: the
//!   CSR-gather fallback (`*_gnp`, forced by a sub-threshold synapse) and
//!   the OR-mask fast path (`*_gnp_mask`, unit gate fan-out).
//!
//! Every row times one-shot `Engine::run` calls (a fresh scratch per
//! call). After all timing, each network's bit-plane result must equal
//! the dense one bit for bit, and the event engine's steps, first spikes
//! and spike counts must equal dense's (its work counters differ by
//! design: dense updates every neuron every step). The gate runs last so
//! its runs do not shape the heap the timed calls see; rows are written
//! only once it passes.
//!
//! Emits `SGL_BENCH_JSON` lines (`group: "snn_engines"`, ids
//! `<engine>/<n>`) so `perf_check` can diff runs against
//! `crates/bench/baselines/BENCH_engines.json`. Row ids are paired:
//! every `bitplane*` id has a `dense*` sibling under the same parameter,
//! and `perf_check` enforces the intra-run ordering `bitplane <= dense` on
//! each pair.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sgl_bench::report::{append_json_line, measure};
use sgl_core::sssp_pseudo::SpikingSssp;
use sgl_graph::{generators, Graph};
use sgl_snn::engine::{
    BitplaneEngine, DenseEngine, Engine, EventEngine, ParallelDenseEngine, RunConfig,
};
use sgl_snn::{LifParams, Network, NeuronId};

const GROUP: &str = "snn_engines";
const SAMPLES: usize = 20;
const INIT: [NeuronId; 1] = [NeuronId(0)];

/// Gate network over `g`'s edge set: threshold-0.5 memoryless neurons,
/// every synapse weight 1.0 (above threshold), delays = edge lengths.
/// With `mask_eligible` the network satisfies the bit-plane engine's
/// OR-mask conditions; otherwise one sub-threshold self-synapse forces
/// the CSR-gather path without perturbing which neurons can fire.
fn gate_net_from(g: &Graph, mask_eligible: bool) -> Network {
    let mut net = Network::new();
    let ids: Vec<NeuronId> = (0..g.n())
        .map(|_| net.add_neuron(LifParams::gate(0.5)))
        .collect();
    for (u, v, len) in g.edges() {
        net.connect(ids[u], ids[v], 1.0, (len as u32).max(1))
            .unwrap();
    }
    if !mask_eligible {
        net.connect(ids[0], ids[0], 0.25, 1).unwrap();
    }
    net.freeze();
    net
}

/// The correctness gate on row `label`'s network: bit-plane equals dense
/// bit for bit; event equals dense but for the work counters.
fn check_agreement(label: &str, net: &Network, cfg: &RunConfig) {
    let dense = DenseEngine.run(net, &INIT, cfg).unwrap();
    let bitplane = BitplaneEngine.run(net, &INIT, cfg).unwrap();
    assert_eq!(bitplane, dense, "{label}: bitplane diverges from dense");
    let event = EventEngine.run(net, &INIT, cfg).unwrap();
    assert_eq!(
        (event.steps, &event.first_spikes, &event.spike_counts),
        (dense.steps, &dense.first_spikes, &dense.spike_counts),
        "{label}: event diverges from dense"
    );
}

/// Builds the benchmarked networks one at a time, in row order, and hands
/// each to `visit` with its run config and timed `(row id, engine)`
/// pairs; a network is dropped before the next is built.
fn for_each_net(mut visit: impl FnMut(&Network, &RunConfig, &[(String, &dyn Engine)])) {
    let parallel = ParallelDenseEngine::new(4);
    // Sparse SSSP family: m = 4n, the event engine's home turf. The
    // bit-plane engine runs gather-mode here (SSSP networks carry
    // inhibitory self-synapses, so OR-masks are ineligible).
    for n in [64usize, 256, 1024] {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::gnm_connected(&mut rng, n, 4 * n, 1..=9);
        let net = SpikingSssp::new(&g, 0).build_network();
        let cfg = RunConfig::until_quiescent(10 * n as u64);
        let mut rows: Vec<(String, &dyn Engine)> = vec![(format!("event/{n}"), &EventEngine)];
        if n <= 256 {
            rows.push((format!("dense/{n}"), &DenseEngine));
            rows.push((format!("bitplane/{n}"), &BitplaneEngine));
            rows.push((format!("parallel_dense/{n}"), &parallel));
        }
        visit(&net, &cfg, &rows);
    }

    // Near-complete family: m = n²/4, short delays — Auto routes these
    // to the bit-plane engine. Fixed horizon so every engine does the
    // same number of steps; the network saturates within a few steps,
    // so per-step delivery cost dominates.
    for n in [256usize, 1024] {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::gnm_connected(&mut rng, n, n * n / 4, 1..=9);
        let cfg = RunConfig::fixed(32);
        for (suffix, mask_eligible) in [("gnp", false), ("gnp_mask", true)] {
            let net = gate_net_from(&g, mask_eligible);
            let id = |engine: &str| format!("{engine}_{suffix}/{n}");
            let rows: [(String, &dyn Engine); 3] = [
                (id("dense"), &DenseEngine),
                (id("bitplane"), &BitplaneEngine),
                (id("event"), &EventEngine),
            ];
            visit(&net, &cfg, &rows);
        }
    }
}

fn main() {
    let mut timed = Vec::new();
    for_each_net(|net, cfg, rows| {
        for (id, engine) in rows {
            let t = measure(SAMPLES, || {
                black_box(engine.run(net, &INIT, cfg).unwrap());
            });
            println!(
                "{GROUP}/{id}: median {:?} min {:?} mean {:?} ({} samples)",
                t.median, t.min, t.mean, t.samples
            );
            timed.push((id.clone(), t));
        }
    });
    for_each_net(|net, cfg, rows| check_agreement(&rows[0].0, net, cfg));
    println!("gate: bitplane = dense and event = dense on every network");
    for (id, t) in &timed {
        append_json_line(GROUP, id, t);
    }
}
