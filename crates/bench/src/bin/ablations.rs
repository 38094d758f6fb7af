//! Ablations for the design decisions DESIGN.md calls out:
//!
//! 1. event-driven vs dense engine work (neuron updates);
//! 2. pruned vs faithful message propagation (spike traffic);
//! 3. traffic-aware vs sequential core placement (NoC energy);
//! 4. Figure-1A blocks vs relay chains in delay-free compilation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sgl_bench::report::{sim_stats_json, ReportSink};
use sgl_circuits::delay_compile::{compile_delays, LongDelay};
use sgl_core::khop_pseudo::{self, Propagation};
use sgl_core::{khop_poly, sssp_pseudo};
use sgl_graph::generators;
use sgl_platforms::placement::CoreLayout;
use sgl_snn::engine::{
    DenseEngine, Engine, EngineChoice, EventEngine, RunConfig, RunScratch, TimeSeriesObserver,
};
use sgl_snn::NeuronId;

fn main() {
    let mut sink = ReportSink::new("ablations");
    let mut rng = StdRng::seed_from_u64(20210716);

    println!("# Ablation 1 — engine work: event-driven vs dense (SSSP wave)\n");
    let mut rows = Vec::new();
    for &n in &[64usize, 256, 512] {
        sink.phase("build");
        let g = generators::gnm_connected(&mut rng, n, 4 * n, 1..=9);
        let net = sssp_pseudo::SpikingSssp::new(&g, 0).build_network();
        let cfg = RunConfig::until_quiescent(64 * n as u64);
        sink.phase("run");
        // The event run carries a TimeSeriesObserver so the committed
        // report holds the full spikes-per-step wavefront profile.
        let mut obs = TimeSeriesObserver::new();
        let ev = EngineChoice::Event
            .prepare(&net)
            .unwrap()
            .run(&[NeuronId(0)], &cfg, &mut RunScratch::new(), &mut obs)
            .unwrap();
        let de = DenseEngine.run(&net, &[NeuronId(0)], &cfg).unwrap();
        assert_eq!(ev.first_spikes, de.first_spikes);
        sink.phase("readout");
        sink.section(&format!("sssp_event_series:n{n}"), obs.to_json());
        sink.section(&format!("sssp_event_stats:n{n}"), sim_stats_json(&ev.stats));
        sink.section(&format!("sssp_dense_stats:n{n}"), sim_stats_json(&de.stats));
        rows.push(vec![
            n.to_string(),
            ev.steps.to_string(),
            ev.stats.neuron_updates.to_string(),
            de.stats.neuron_updates.to_string(),
            format!(
                "{:.0}x",
                de.stats.neuron_updates as f64 / ev.stats.neuron_updates.max(1) as f64
            ),
        ]);
    }
    sink.table(
        "engine_work",
        &["n", "steps T", "event updates", "dense updates", "saving"],
        &rows,
    );

    println!("\n# Ablation 2 — propagation pruning (k-hop, G(128, 640), k = 16)\n");
    sink.phase("run");
    let g = generators::gnm_connected(&mut rng, 128, 640, 1..=6);
    let mut rows = Vec::new();
    for (alg, pruned, faithful) in [
        (
            "TTL (pseudo)",
            khop_pseudo::solve(&g, 0, 16, Propagation::Pruned).messages,
            khop_pseudo::solve(&g, 0, 16, Propagation::Faithful).messages,
        ),
        (
            "distance (poly)",
            khop_poly::solve(&g, 0, 16, Propagation::Pruned).messages,
            khop_poly::solve(&g, 0, 16, Propagation::Faithful).messages,
        ),
    ] {
        rows.push(vec![
            alg.into(),
            pruned.to_string(),
            faithful.to_string(),
            format!("{:.1}x", faithful as f64 / pruned as f64),
        ]);
    }
    sink.phase("readout");
    sink.table(
        "propagation_pruning",
        &[
            "algorithm",
            "pruned msgs",
            "faithful msgs",
            "traffic saving",
        ],
        &rows,
    );

    println!("\n# Ablation 3 — core placement (SSSP on G(512, 2048), 64 neurons/core)\n");
    sink.phase("build");
    let g = generators::gnm_connected(&mut rng, 512, 2048, 1..=9);
    let run = sssp_pseudo::SpikingSssp::new(&g, 0).solve_all().unwrap();
    let net = sssp_pseudo::SpikingSssp::new(&g, 0).build_network();
    let edges: Vec<(u32, u32)> = net
        .neuron_ids()
        .flat_map(|u| {
            net.synapses_from(u)
                .iter()
                .map(move |s| (u.0, s.target.0))
                .collect::<Vec<_>>()
        })
        .collect();
    // One spike per node in the §3 run.
    let spikes: Vec<u32> = (0..net.neuron_count())
        .map(|v| u32::from(run.distances.get(v).is_some_and(Option::is_some)))
        .collect();
    sink.phase("run");
    let seq = CoreLayout::sequential(net.neuron_count(), 64);
    let greedy = CoreLayout::greedy(net.neuron_count(), 64, &edges, &spikes);
    let (ts, tg) = (
        seq.traffic(&edges, &spikes),
        greedy.traffic(&edges, &spikes),
    );
    let loihi_pj = 23.6;
    let rows = vec![
        vec![
            "sequential".into(),
            seq.cores().to_string(),
            ts.intra_core.to_string(),
            ts.inter_core.to_string(),
            format!("{:.3e} J", ts.energy_joules(loihi_pj, 3.0)),
        ],
        vec![
            "greedy".into(),
            greedy.cores().to_string(),
            tg.intra_core.to_string(),
            tg.inter_core.to_string(),
            format!("{:.3e} J", tg.energy_joules(loihi_pj, 3.0)),
        ],
    ];
    sink.phase("readout");
    sink.table(
        "core_placement",
        &[
            "placement",
            "cores",
            "intra spikes",
            "inter spikes",
            "energy (3x NoC)",
        ],
        &rows,
    );

    println!("\n# Ablation 4 — delay-free compilation strategies (SSSP net, U = 30)\n");
    sink.phase("build");
    let g = generators::gnm_connected(&mut rng, 48, 192, 1..=30);
    let net = sssp_pseudo::SpikingSssp::new(&g, 0).build_network();
    let mut rows = Vec::new();
    for (name, strategy) in [("chains", LongDelay::Chains), ("blocks", LongDelay::Blocks)] {
        let (compiled, stats) = compile_delays(&net, 1, strategy);
        sink.phase("run");
        let r = EventEngine
            .run(&compiled, &[NeuronId(0)], &RunConfig::until_quiescent(4096))
            .unwrap();
        let base = sssp_pseudo::SpikingSssp::new(&g, 0).solve_all().unwrap();
        let agree = (0..g.n()).all(|v| r.first_spikes[v] == base.distances[v]);
        sink.phase("build");
        rows.push(vec![
            name.into(),
            compiled.neuron_count().to_string(),
            stats.neurons_added.to_string(),
            r.stats.spike_events.to_string(),
            agree.to_string(),
        ]);
    }
    sink.phase("readout");
    sink.table(
        "delay_free",
        &[
            "strategy",
            "total neurons",
            "added",
            "spike events",
            "distances preserved",
        ],
        &rows,
    );
    sink.finish();
}
