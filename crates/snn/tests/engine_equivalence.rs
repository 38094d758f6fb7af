//! Differential harness: the dense (literal), event-driven, bit-plane,
//! parallel dense, and partitioned engines must produce *bit-identical*
//! [`RunResult`]s — spike times, counts, raster, termination time and
//! reason, and work counters (modulo the documented `neuron_updates`
//! semantic difference; the partitioned engine matches the event engine
//! exactly, counters included) — across random networks. The partitioned
//! engine is swept at 1/2/4/8 partitions, under the default equal ranges
//! and under bounds the proptest draws (uneven, empty and single-neuron
//! ranges), and, via the threaded BSP driver, at 1/2/4 worker threads —
//! the threaded sweep pins the f64 accumulation order, work counters, and
//! observer series alike.
//!
//! Weights are drawn from a continuous range, so per-target synaptic sums
//! genuinely depend on accumulation order: these tests fail if any engine
//! deviates from the shared (sorted firing id) × (CSR synapse order)
//! delivery order. Delays occasionally exceed the time-wheel horizon to
//! exercise the overflow path (the wheel's ordered map, and the bit-plane
//! ring's equivalent), and networks run both thawed and frozen.
//!
//! The drawn neurons are spread over a few hundred ids by isolated filler
//! neurons, so touched sets span many 64-bit words of the event engine's
//! touched bitset: steps reach both its in-order word scan and its sort
//! fallback (few touched neurons far apart), and partition bounds fall
//! at and between word edges.

use proptest::prelude::*;
use sgl_snn::{
    engine::{
        BitplaneEngine, DenseEngine, Engine, EngineChoice, EventEngine, ParallelDenseEngine,
        RunConfig, RunObserver, RunResult, RunScratch, TimeSeriesObserver,
    },
    LifParams, Network, NeuronId, PartitionPlan, PartitionedEngine,
};

/// One observed run: prepare `choice` for `net`, then run it once over a
/// fresh scratch.
fn run_observed<O: RunObserver>(
    choice: EngineChoice,
    net: &Network,
    initial: &[NeuronId],
    cfg: &RunConfig,
    obs: &mut O,
) -> RunResult {
    choice
        .prepare(net)
        .unwrap()
        .run(initial, cfg, &mut RunScratch::new(), obs)
        .unwrap()
}

/// Partition counts every partitioned differential test sweeps: the
/// degenerate single partition, balanced splits, and more partitions
/// than some random nets have neurons (empty partitions).
const PART_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Worker-thread counts the threaded-driver sweeps exercise: the
/// sequential delegate, one busy/idle split, and full fan-out.
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// A compact description of a random network we can generate shrinkable
/// instances of.
#[derive(Debug, Clone)]
struct NetSpec {
    // (threshold, decay kind: 0 = integrator, 1 = gate, 2 = tau 0.5,
    // reset potential of the tau-0.5 kind)
    neurons: Vec<(f64, u8, f64)>,
    /// Per drawn neuron, the isolated filler neurons placed before it:
    /// (gap kind, raw gap), see [`filler_count`].
    gaps: Vec<(u8, usize)>,
    // (src, dst, weight, small delay, large delay, delay kind)
    synapses: Vec<(usize, usize, f64, u32, u32, u8)>,
    initial: Vec<usize>,
    /// Cut points in `0..=n`, one per extra partition up to eight: the
    /// drawn partition bounds (see [`NetSpec::bounds`]).
    cuts: Vec<usize>,
}

/// Filler neurons before a drawn neuron: none half the time (neighbours
/// share a word), within a word or two a quarter of the time, and
/// otherwise one to eleven words' worth — far enough apart that a step
/// touching two such neurons takes the event engine's sort fallback.
fn filler_count((kind, raw): (u8, usize)) -> usize {
    match kind {
        0..=3 => 0,
        4 | 5 => raw % 64,
        6 => 64 + raw % 136,
        _ => 300 + raw % 400,
    }
}

impl NetSpec {
    /// Each drawn neuron's id in the built network, then the total
    /// neuron count (fillers included).
    fn positions(&self) -> Vec<usize> {
        let mut next = 0;
        let mut pos: Vec<usize> = self
            .gaps
            .iter()
            .map(|&gap| {
                next += filler_count(gap);
                next += 1;
                next - 1
            })
            .collect();
        pos.push(next);
        pos
    }

    /// Partition bounds for `parts` partitions from the drawn cut points:
    /// cut `c` falls at drawn neuron `c`'s id (the end for `c = n`), so
    /// ranges are uneven, repeated or end cut points leave some empty, and
    /// some hold a single drawn neuron behind its fillers.
    fn bounds(&self, parts: usize) -> Vec<usize> {
        let pos = self.positions();
        let mut cuts: Vec<usize> = self.cuts[..parts - 1].iter().map(|&c| pos[c]).collect();
        cuts.sort_unstable();
        let mut bounds = vec![0];
        bounds.extend(cuts);
        bounds.push(pos[pos.len() - 1]);
        bounds
    }
}

fn net_spec() -> impl Strategy<Value = NetSpec> {
    let n_range = 2usize..10;
    n_range.prop_flat_map(|n| {
        // Leaky neurons rest at a reset potential in [-1, 0], always at
        // or below their threshold (input-driven), so every engine must
        // start them there rather than at 0.
        let neurons = proptest::collection::vec((0.5f64..4.0, 0u8..3, -1.0f64..=0.0), n);
        let gaps = proptest::collection::vec((0u8..8, 0usize..400), n);
        // Continuous weights: sums are order-sensitive in the last bits.
        // Delay kind 7 picks a beyond-horizon delay (wheel overflow path).
        let synapse = (0..n, 0..n, -2.5f64..3.5, 1u32..6, 4097u32..6000, 0u8..8);
        let synapses = proptest::collection::vec(synapse, 1..25);
        let initial = proptest::collection::vec(0..n, 1..4);
        let cuts = proptest::collection::vec(0..=n, 7);
        (neurons, gaps, synapses, initial, cuts).prop_map(
            |(neurons, gaps, synapses, initial, cuts)| NetSpec {
                neurons,
                gaps,
                synapses,
                initial,
                cuts,
            },
        )
    })
}

fn build(spec: &NetSpec) -> (Network, Vec<NeuronId>) {
    let mut net = Network::new();
    let ids: Vec<NeuronId> = spec
        .neurons
        .iter()
        .zip(&spec.gaps)
        .map(|(&(threshold, kind, v_reset), &gap)| {
            net.add_neurons(LifParams::gate_at_least(1), filler_count(gap));
            let params = match kind {
                0 => LifParams::integrator(threshold),
                1 => LifParams::gate(threshold),
                _ => LifParams {
                    v_reset,
                    v_threshold: threshold,
                    decay: 0.5,
                },
            };
            net.add_neuron(params)
        })
        .collect();
    for &(s, d, w, small, large, kind) in &spec.synapses {
        let delay = if kind == 7 { large } else { small };
        net.connect(ids[s], ids[d], w, delay).unwrap();
    }
    let initial: Vec<NeuronId> = spec.initial.iter().map(|&i| ids[i]).collect();
    (net, initial)
}

/// A random OR-mask-eligible network: reset 0, thresholds in `[0, 1)`,
/// every weight in `(1, 3]` — strictly above any threshold — and varied
/// decays. The bit-plane engine runs these in pure-bitmask mode (for
/// small nets the density gate is permissive), which this strategy
/// differentially pins against the FP engines.
#[derive(Debug, Clone)]
struct OrNetSpec {
    neurons: Vec<(f64, u8)>,
    synapses: Vec<(usize, usize, f64, u32, u32, u8)>,
    initial: Vec<usize>,
}

fn or_net_spec() -> impl Strategy<Value = OrNetSpec> {
    let n_range = 2usize..10;
    n_range.prop_flat_map(|n| {
        let neurons = proptest::collection::vec((0.0f64..0.95, 0u8..3), n);
        let synapse = (0..n, 0..n, 1.01f64..3.0, 1u32..6, 4097u32..6000, 0u8..8);
        let synapses = proptest::collection::vec(synapse, 1..25);
        let initial = proptest::collection::vec(0..n, 1..4);
        (neurons, synapses, initial).prop_map(|(neurons, synapses, initial)| OrNetSpec {
            neurons,
            synapses,
            initial,
        })
    })
}

fn build_or(spec: &OrNetSpec) -> (Network, Vec<NeuronId>) {
    let mut net = Network::new();
    let ids: Vec<NeuronId> = spec
        .neurons
        .iter()
        .map(|&(threshold, kind)| {
            let decay = match kind {
                0 => 0.0,
                1 => 1.0,
                _ => 0.5,
            };
            net.add_neuron(LifParams {
                v_reset: 0.0,
                v_threshold: threshold,
                decay,
            })
        })
        .collect();
    for &(s, d, w, small, large, kind) in &spec.synapses {
        let delay = if kind == 7 { large } else { small };
        net.connect(ids[s], ids[d], w, delay).unwrap();
    }
    let initial: Vec<NeuronId> = spec.initial.iter().map(|&i| ids[i]).collect();
    (net, initial)
}

/// Exact equality up to the documented per-engine `neuron_updates`
/// semantics (dense engines count neurons × steps, the event engine counts
/// touched (neuron, step) pairs — see DESIGN.md).
fn assert_identical_modulo_updates(a: &RunResult, b: &RunResult) -> Result<(), String> {
    let mut b = b.clone();
    b.stats.neuron_updates = a.stats.neuron_updates;
    prop_assert_eq!(a, &b);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The core differential property: all four engines, one random
    /// network, bit-identical results — on the thawed *and* frozen form.
    #[test]
    fn engines_agree_on_random_networks(spec in net_spec()) {
        let (net, initial) = build(&spec);
        let mut frozen = net.clone();
        frozen.freeze();
        for cfg in [
            RunConfig::fixed(60).with_raster(),
            RunConfig::until_quiescent(300).with_raster(),
        ] {
            let dense = DenseEngine.run(&net, &initial, &cfg).unwrap();
            let event = EventEngine.run(&net, &initial, &cfg).unwrap();
            let par = ParallelDenseEngine { threads: 4, min_chunk: 1 }.run(&net, &initial, &cfg).unwrap();
            let bp = BitplaneEngine.run(&net, &initial, &cfg).unwrap();
            // Parallel dense and bit-plane share the dense engine's update
            // semantics, so their whole results (work counters included)
            // must match exactly.
            prop_assert_eq!(&dense, &par);
            prop_assert_eq!(&dense, &bp);
            assert_identical_modulo_updates(&dense, &event)?;
            // The partitioned engine shares the event engine's lazy-decay
            // update and touched-set accounting, so its *entire* result —
            // work counters included — must equal the event engine's, at
            // every partition count, under equal and drawn bounds.
            for parts in PART_COUNTS {
                let part = PartitionedEngine::new(parts).run(&net, &initial, &cfg).unwrap();
                prop_assert_eq!(&event, &part);
                let (drawn, _) = PartitionPlan::with_bounds(&net, spec.bounds(parts))
                    .unwrap()
                    .run_with_stats_threaded(&initial, &cfg, 1)
                    .unwrap();
                prop_assert_eq!(&event, &drawn, "parts {} bounds {:?}", parts, spec.bounds(parts));
            }
            // A frozen network is observationally the same network.
            let dense_frozen = DenseEngine.run(&frozen, &initial, &cfg).unwrap();
            let bp_frozen = BitplaneEngine.run(&frozen, &initial, &cfg).unwrap();
            let part_frozen = PartitionedEngine::new(4).run(&frozen, &initial, &cfg).unwrap();
            prop_assert_eq!(&dense, &dense_frozen);
            prop_assert_eq!(&dense, &bp_frozen);
            prop_assert_eq!(&event, &part_frozen);
        }
    }

    #[test]
    fn engines_agree_with_terminal_stop(spec in net_spec()) {
        let (mut net, initial) = build(&spec);
        // Pick the last neuron as terminal; runs that never reach it stop on
        // the budget in both engines.
        let term = NeuronId((net.neuron_count() - 1) as u32);
        net.set_terminal(term);
        let cfg = RunConfig::until_terminal(60).with_raster();
        let dense = DenseEngine.run(&net, &initial, &cfg).unwrap();
        let event = EventEngine.run(&net, &initial, &cfg).unwrap();
        let par = ParallelDenseEngine { threads: 3, min_chunk: 1 }.run(&net, &initial, &cfg).unwrap();
        let bp = BitplaneEngine.run(&net, &initial, &cfg).unwrap();
        prop_assert_eq!(&dense, &par);
        prop_assert_eq!(&dense, &bp);
        assert_identical_modulo_updates(&dense, &event)?;
        for parts in PART_COUNTS {
            for threads in THREAD_COUNTS {
                let part = PartitionedEngine::new(parts)
                    .with_threads(threads)
                    .run(&net, &initial, &cfg)
                    .unwrap();
                prop_assert_eq!(&event, &part, "parts {} threads {}", parts, threads);
            }
        }
    }

    /// OR-mask-eligible networks (reset 0, non-negative thresholds, every
    /// weight above its target's threshold) flip the bit-plane engine into
    /// pure-bitmask delivery; the result must still be exactly the dense
    /// engine's, and the event engine's modulo updates.
    #[test]
    fn mask_mode_agrees_on_or_eligible_networks(spec in or_net_spec()) {
        let (net, initial) = build_or(&spec);
        for cfg in [
            RunConfig::fixed(40).with_raster(),
            RunConfig::until_quiescent(200).with_raster(),
        ] {
            let dense = DenseEngine.run(&net, &initial, &cfg).unwrap();
            let event = EventEngine.run(&net, &initial, &cfg).unwrap();
            let bp = BitplaneEngine.run(&net, &initial, &cfg).unwrap();
            prop_assert_eq!(&dense, &bp);
            assert_identical_modulo_updates(&dense, &event)?;
        }
    }

    /// Observation must be a pure read: each engine's instrumented run is
    /// bit-identical to its uninstrumented run, and the observer's series
    /// sum exactly to the `SimStats` totals of that run.
    #[test]
    fn observation_does_not_perturb_results(spec in net_spec()) {
        let (net, initial) = build(&spec);
        for cfg in [
            RunConfig::fixed(60).with_raster(),
            RunConfig::until_quiescent(300).with_raster(),
        ] {
            let par_engine = ParallelDenseEngine { threads: 4, min_chunk: 1 };
            let plain: [RunResult; 4] = [
                DenseEngine.run(&net, &initial, &cfg).unwrap(),
                EventEngine.run(&net, &initial, &cfg).unwrap(),
                par_engine.run(&net, &initial, &cfg).unwrap(),
                BitplaneEngine.run(&net, &initial, &cfg).unwrap(),
            ];
            let mut observers = [
                TimeSeriesObserver::new(),
                TimeSeriesObserver::new(),
                TimeSeriesObserver::new(),
                TimeSeriesObserver::new(),
            ];
            let [o0, o1, o2, o3] = &mut observers;
            let observed: [RunResult; 4] = [
                run_observed(EngineChoice::Dense, &net, &initial, &cfg, o0),
                run_observed(EngineChoice::Event, &net, &initial, &cfg, o1),
                run_observed(EngineChoice::Parallel(par_engine), &net, &initial, &cfg, o2),
                run_observed(EngineChoice::Bitplane, &net, &initial, &cfg, o3),
            ];
            for (p, (o, obs)) in plain.iter().zip(observed.iter().zip(&observers)) {
                prop_assert_eq!(p, o);
                prop_assert_eq!(obs.total_spikes(), o.stats.spike_events);
                prop_assert_eq!(obs.total_deliveries(), o.stats.synaptic_deliveries);
                prop_assert_eq!(obs.total_updates(), o.stats.neuron_updates);
                prop_assert_eq!(obs.final_step, o.steps);
            }
            // Same purity for the partitioned engine, whose observed path
            // additionally reports per-channel cut traffic.
            for parts in PART_COUNTS {
                for threads in [1, 4] {
                    let engine = PartitionedEngine::new(parts).with_threads(threads);
                    let plain_part = engine.run(&net, &initial, &cfg).unwrap();
                    let mut obs = TimeSeriesObserver::new();
                    let observed_part = run_observed(
                        EngineChoice::Partitioned { parts, threads },
                        &net,
                        &initial,
                        &cfg,
                        &mut obs,
                    );
                    prop_assert_eq!(&plain_part, &observed_part);
                    prop_assert_eq!(obs.total_spikes(), observed_part.stats.spike_events);
                    prop_assert_eq!(obs.total_deliveries(), observed_part.stats.synaptic_deliveries);
                    prop_assert_eq!(obs.total_updates(), observed_part.stats.neuron_updates);
                    prop_assert_eq!(obs.final_step, observed_part.steps);
                }
            }
        }
    }

    #[test]
    fn event_engine_never_does_more_updates(spec in net_spec()) {
        let (net, initial) = build(&spec);
        let cfg = RunConfig::fixed(60);
        let dense = DenseEngine.run(&net, &initial, &cfg).unwrap();
        let event = EventEngine.run(&net, &initial, &cfg).unwrap();
        // The event-driven advantage the paper banks on: touched-neuron
        // updates are bounded by the dense engine's neurons-times-steps.
        prop_assert!(event.stats.neuron_updates <= dense.stats.neuron_updates);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The threaded BSP driver sweep: every (threads, parts, bounds)
    /// combination of the worker pool must reproduce the event engine's
    /// result bit-for-bit — raster, termination, and work counters — on
    /// random networks with order-sensitive f64 weights, beyond-horizon
    /// delays, and both thawed and frozen forms.
    #[test]
    fn threaded_partition_driver_matches_event(spec in net_spec()) {
        let (net, initial) = build(&spec);
        let mut frozen = net.clone();
        frozen.freeze();
        for cfg in [
            RunConfig::fixed(60).with_raster(),
            RunConfig::until_quiescent(300).with_raster(),
        ] {
            let event = EventEngine.run(&net, &initial, &cfg).unwrap();
            for parts in [2usize, 4, 8] {
                let plans = [
                    PartitionedEngine::new(parts).compile(&net).unwrap(),
                    PartitionPlan::with_bounds(&net, spec.bounds(parts)).unwrap(),
                ];
                for plan in &plans {
                    for threads in THREAD_COUNTS {
                        let (part, _) = plan
                            .run_with_stats_threaded(&initial, &cfg, threads)
                            .unwrap();
                        prop_assert_eq!(
                            &event, &part,
                            "parts {} threads {} bounds {:?}", parts, threads, plan.bounds()
                        );
                    }
                }
            }
            let event_frozen = EventEngine.run(&frozen, &initial, &cfg).unwrap();
            let part_frozen = PartitionedEngine::new(4)
                .with_threads(4)
                .run(&frozen, &initial, &cfg)
                .unwrap();
            prop_assert_eq!(&event_frozen, &part_frozen);
        }
    }
}

/// Observer that records the per-step delivery batches announced via
/// `on_spike_batch` and the per-step spike counts from `on_step` — the
/// two channels whose agreement across engines the duplicate-stimulus
/// test pins down.
#[derive(Default)]
struct BatchTally {
    batch_deliveries: Vec<(u64, u64)>,
    step_spikes: Vec<(u64, u64)>,
}

impl sgl_snn::engine::RunObserver for BatchTally {
    fn on_step(&mut self, t: u64, step: sgl_snn::engine::StepRecord) {
        self.step_spikes.push((t, step.spikes));
    }
    fn on_spike_batch(&mut self, t: u64, deliveries: u64) {
        self.batch_deliveries.push((t, deliveries));
    }
}

/// Duplicate induced spikes: every engine dedups the `t = 0` frontier
/// (`fired.sort_unstable(); fired.dedup()`), and `SimStats::spike_events`
/// plus the observer channels must agree on the *deduped* counts,
/// engine-to-engine, across all four engines.
#[test]
fn duplicate_initial_spikes_dedup_identically() {
    let mut net = Network::new();
    let a = net.add_neuron(LifParams::gate_at_least(1));
    let b = net.add_neuron(LifParams::gate_at_least(1));
    let c = net.add_neuron(LifParams::gate_at_least(2));
    net.connect(a, c, 1.0, 2).unwrap();
    net.connect(b, c, 1.0, 2).unwrap();
    // a twice, b three times: the deduped frontier is {a, b}. `c` is a
    // coincidence gate, so it fires iff each source is delivered exactly
    // once — an engine that kept the duplicates would over-deliver.
    let initial = [a, a, b, b, a, b];
    let cfg = RunConfig::until_quiescent(20).with_raster();

    let par = ParallelDenseEngine {
        threads: 3,
        min_chunk: 1,
    };
    let mut tallies: Vec<(&str, RunResult, BatchTally)> = Vec::new();
    for name in [
        "dense",
        "event",
        "parallel",
        "bitplane",
        "partitioned",
        "partitioned-mt",
    ] {
        let mut tally = BatchTally::default();
        let choice = match name {
            "dense" => EngineChoice::Dense,
            "event" => EngineChoice::Event,
            "parallel" => EngineChoice::Parallel(par),
            "partitioned" => EngineChoice::Partitioned {
                parts: 2,
                threads: 1,
            },
            "partitioned-mt" => EngineChoice::Partitioned {
                parts: 3,
                threads: 2,
            },
            _ => EngineChoice::Bitplane,
        };
        let r = run_observed(choice, &net, &initial, &cfg, &mut tally);
        tallies.push((name, r, tally));
    }

    let (_, dense, dense_tally) = &tallies[0];
    // Deduped: a, b at t=0 and c at t=2 — not 6 + 1.
    assert_eq!(dense.stats.spike_events, 3);
    assert_eq!(dense.spike_counts, vec![1, 1, 1]);
    assert_eq!(
        dense_tally.step_spikes.first(),
        Some(&(0, 2)),
        "t = 0 frontier must be deduped before recording"
    );
    for (name, r, tally) in &tallies[1..] {
        let mut r = r.clone();
        r.stats.neuron_updates = dense.stats.neuron_updates;
        assert_eq!(&r, dense, "{name} diverged");
        // The event engine only visits steps with activity, so its per-step
        // announcements are a subsequence of the dense trace; engines with
        // dense stepping must match the dense trace exactly, and all four
        // must agree on the steps where something happened.
        let nonzero = |v: &Vec<(u64, u64)>| -> Vec<(u64, u64)> {
            v.iter().copied().filter(|&(_, d)| d > 0).collect()
        };
        if *name == "event" || name.starts_with("partitioned") {
            // Both visit only steps with activity, so their per-step
            // announcements are a subsequence of the dense trace.
            assert_eq!(
                nonzero(&tally.step_spikes),
                nonzero(&dense_tally.step_spikes),
                "{name} active-step spike counts diverged"
            );
        } else {
            assert_eq!(
                tally.step_spikes, dense_tally.step_spikes,
                "{name} per-step spike counts diverged"
            );
        }
        assert_eq!(
            nonzero(&tally.batch_deliveries),
            nonzero(&dense_tally.batch_deliveries),
            "{name} delivery batches diverged"
        );
    }
}

/// Wheel-vs-ring overflow unit: a delay beyond the shared horizon cap
/// (4096) takes the wheel's ordered-map path in the dense engine and the
/// ring's ordered-map path in the bit-plane engine; both classifications
/// and both results must agree exactly.
#[test]
fn beyond_horizon_overflow_matches_wheel() {
    let mut net = Network::new();
    let a = net.add_neuron(LifParams::gate_at_least(1));
    let b = net.add_neuron(LifParams::gate_at_least(1));
    let c = net.add_neuron(LifParams::gate_at_least(2));
    net.connect(a, b, 1.0, 4096).unwrap(); // last in-horizon delay
    net.connect(a, c, 1.5, 4097).unwrap(); // first overflow delay
    net.connect(b, c, 1.5, 1).unwrap(); // coincides with the overflow arrival
    let topo = net.bitplane();
    assert_eq!(topo.horizon(), 4096);
    assert_eq!(
        topo.overflow_synapses(),
        1,
        "exactly the 4097-delay synapse must overflow"
    );

    let cfg = RunConfig::until_quiescent(10_000).with_raster();
    let dense = DenseEngine.run(&net, &[a], &cfg).unwrap();
    let bp = BitplaneEngine.run(&net, &[a], &cfg).unwrap();
    assert_eq!(dense, bp);
    // c needs both the in-horizon relay (via b) and the overflow arrival
    // in the same step: 0 + 4096 + 1 == 0 + 4097.
    assert_eq!(bp.first_spike(c), Some(4097));
    // Partition wheels are sized to the *global* max delay, so the
    // in-horizon/overflow classification — and the slots-before-overflow
    // drain order at the coinciding step — must match the monolithic
    // wheel at every partition count, including across the cut.
    let event = EventEngine.run(&net, &[a], &cfg).unwrap();
    for parts in PART_COUNTS {
        for threads in THREAD_COUNTS {
            let part = PartitionedEngine::new(parts)
                .with_threads(threads)
                .run(&net, &[a], &cfg)
                .unwrap();
            assert_eq!(event, part, "parts = {parts}, threads = {threads}");
        }
    }
    let mut as_dense = event.clone();
    as_dense.stats.neuron_updates = dense.stats.neuron_updates;
    assert_eq!(dense, as_dense);
}
