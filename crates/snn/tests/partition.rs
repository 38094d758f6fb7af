//! Partitioned-execution edge cases and conservation laws.
//!
//! The differential harness (`engine_equivalence.rs`) pins the partitioned
//! engine bit-identical to the event engine on random networks; this file
//! covers the mailbox plumbing those nets may miss by construction —
//! empty partitions, partitions with zero cut edges, all-cut star
//! topologies, wide cut fan-outs through one mailbox (sequential, and
//! under the threaded driver with two producers running concurrently) —
//! plus conservation properties: cut traffic must equal the
//! boundary-synapse share of `SimStats::synaptic_deliveries`, and the
//! plan's memory is its bounds and cut counts alone. A brute-force
//! proptest pins the plan's per-pair cut counts and `part_of` over drawn
//! bounds, and owned prepared plans run like borrowed ones.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgl_snn::engine::{
    Engine, EngineChoice, EventEngine, NullObserver, Prepared, RunConfig, RunObserver, RunScratch,
    TimeSeriesObserver,
};
use sgl_snn::partition::{PartitionPlan, PartitionedEngine};
use sgl_snn::{LifParams, Network, NetworkBuilder, NeuronId};

/// Observer that tallies `on_cut_traffic` per superstep — the per-tick
/// view the conservation proptest checks against `SimStats`.
#[derive(Default)]
struct CutTally {
    per_tick: Vec<(u64, u64)>, // (t, messages summed over channels)
    total: u64,
}

impl RunObserver for CutTally {
    fn on_cut_traffic(&mut self, t: u64, _from: u32, _to: u32, messages: u64) {
        self.total += messages;
        match self.per_tick.last_mut() {
            Some((last_t, sum)) if *last_t == t => *sum += messages,
            _ => self.per_tick.push((t, messages)),
        }
    }
}

fn star(n_leaves: usize, delay: u32) -> Network {
    let mut net = Network::new();
    let hub = net.add_neuron(LifParams::gate_at_least(1));
    let leaves = net.add_neurons(LifParams::gate_at_least(1), n_leaves);
    for &leaf in &leaves {
        net.connect(hub, leaf, 1.0, delay).unwrap();
    }
    net
}

/// Every leaf in another partition: with the hub alone in partition 0,
/// the whole fan-out is cut traffic.
#[test]
fn all_cut_star_routes_every_delivery_through_channels() {
    let net = star(40, 2);
    // Range split [hub | leaves...]: partition 0 = {hub}, rest = leaves.
    let plan = PartitionPlan::compile(&net, 41).unwrap();
    assert_eq!(plan.cut_edge_count(), 40);
    let mono = EventEngine
        .run(&net, &[NeuronId(0)], &RunConfig::until_quiescent(10))
        .unwrap();
    let (part, stats) = plan
        .run_with_stats_threaded(&[NeuronId(0)], &RunConfig::until_quiescent(10), 1)
        .unwrap();
    assert_eq!(mono, part);
    assert_eq!(stats.cut_messages, 40, "every delivery crossed a cut");
    assert_eq!(stats.channels.len(), 40, "one channel per reached leaf");
    assert_eq!(part.stats.synaptic_deliveries, 40);
}

/// A 20k-wide cut fan-out through one mailbox: order (and therefore the
/// result) must survive.
#[test]
fn wide_cut_fan_out_is_lossless_and_ordered() {
    // Two partitions, hub in 0, every leaf in 1: one mailbox carries the
    // entire fan-out in one superstep.
    let n_leaves = 20_000;
    let net = star(n_leaves, 3);
    let plan = PartitionPlan::with_bounds(&net, vec![0, 1, n_leaves + 1]).unwrap();
    let cfg = RunConfig::until_quiescent(10);
    let mono = EventEngine.run(&net, &[NeuronId(0)], &cfg).unwrap();
    let (part, stats) = plan
        .run_with_stats_threaded(&[NeuronId(0)], &cfg, 1)
        .unwrap();
    assert_eq!(mono, part);
    assert_eq!(stats.cut_messages, n_leaves as u64);
}

/// Two wide cut fan-outs published concurrently by different workers:
/// each hub fires at t = 1 *inside* the threaded compute phase and
/// appends 18k events to its own mailbox. Each mailbox has a single
/// producer, so push order — and bit-identity with the monolith — must
/// survive the concurrency.
#[test]
fn threaded_wide_cut_fan_out_is_lossless() {
    let n_leaves = 18_000;
    let mut net = Network::new();
    let driver0 = net.add_neuron(LifParams::gate_at_least(1));
    let hub0 = net.add_neuron(LifParams::gate_at_least(1));
    let driver1 = net.add_neuron(LifParams::gate_at_least(1));
    let hub1 = net.add_neuron(LifParams::gate_at_least(1));
    let leaves0 = net.add_neurons(LifParams::gate_at_least(1), n_leaves);
    let leaves1 = net.add_neurons(LifParams::gate_at_least(1), n_leaves);
    net.connect(driver0, hub0, 1.0, 1).unwrap();
    net.connect(driver1, hub1, 1.0, 1).unwrap();
    for &l in &leaves0 {
        net.connect(hub0, l, 1.0, 1).unwrap();
    }
    for &l in &leaves1 {
        net.connect(hub1, l, 1.0, 1).unwrap();
    }

    // p0 = {driver0, hub0}, p1 = {driver1, hub1}, p2 = hub0's leaves,
    // p3 = hub1's leaves: two disjoint producer/consumer mailbox pairs,
    // owned by different workers at every thread count below.
    let bounds = vec![0, 2, 4, 4 + n_leaves, 4 + 2 * n_leaves];
    let plan = PartitionPlan::with_bounds(&net, bounds).unwrap();
    let cfg = RunConfig::until_quiescent(10);
    let mono = EventEngine.run(&net, &[driver0, driver1], &cfg).unwrap();
    for threads in [2, 4] {
        let (part, stats) = plan
            .run_with_stats_threaded(&[driver0, driver1], &cfg, threads)
            .unwrap();
        assert_eq!(mono, part, "threads = {threads}");
        assert_eq!(stats.threads, threads);
        assert_eq!(stats.cut_messages, 2 * n_leaves as u64);
        assert_eq!(stats.workers.len(), threads);
        let owned: u32 = stats.workers.iter().map(|w| w.partitions).sum();
        assert_eq!(owned, 4, "round-robin ownership covers every partition");
    }
}

/// The merge into a partition's wheel follows the sources' *global* ids
/// across every stream. With bounds `[0, 2, 4, 8]`, the target hears from
/// three sources in one tick, with weights `1e17, -1e17, 1` in id order:
/// that sum is 1, which fires it, while any other order gives
/// `1e17 + 1 - 1e17 = 0`, which does not. Target 3 hears from 0, 2 (its
/// own range) and 5 (range-local id 1), so ordering a peer's events by
/// range-local id would misplace 5; target 4 hears from 1, 3 (range-local
/// id 1) and 7 (its own range, range-local id 3), so ordering its own
/// stream by range-local id would misplace 7.
#[test]
fn cross_partition_merge_follows_global_source_order() {
    for (sources, target) in [([0, 2, 5], 3), ([1, 3, 7], 4)] {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate(0.5), 8);
        for (s, w) in sources.iter().zip([1e17, -1e17, 1.0]) {
            net.connect(ids[*s], ids[target], w, 1).unwrap();
        }
        let plan = PartitionPlan::with_bounds(&net, vec![0, 2, 4, 8]).unwrap();
        let init = sources.map(|s| ids[s]);
        let cfg = RunConfig::until_quiescent(10).with_raster();
        let mono = EventEngine.run(&net, &init, &cfg).unwrap();
        assert!(mono.fired(ids[target]));
        for threads in [1, 2] {
            let (part, stats) = plan.run_with_stats_threaded(&init, &cfg, threads).unwrap();
            assert_eq!(mono, part, "target {target}, threads = {threads}");
            assert_eq!(stats.cut_messages, 2);
        }
    }
}

/// Partitions that exist but own no neurons (parts > n) and partitions
/// with zero cut edges (disconnected clusters) both run cleanly.
#[test]
fn empty_partitions_and_zero_cut_partitions_run_clean() {
    // Two disconnected 3-chains; range split at 3 puts each chain wholly
    // in its own partition: two populated zero-cut partitions.
    let mut net = Network::new();
    let ids = net.add_neurons(LifParams::gate_at_least(1), 6);
    net.connect(ids[0], ids[1], 1.0, 1).unwrap();
    net.connect(ids[1], ids[2], 1.0, 1).unwrap();
    net.connect(ids[3], ids[4], 1.0, 1).unwrap();
    net.connect(ids[4], ids[5], 1.0, 1).unwrap();
    let cfg = RunConfig::until_quiescent(10);
    let mono = EventEngine.run(&net, &[ids[0], ids[3]], &cfg).unwrap();

    let plan = PartitionPlan::compile(&net, 2).unwrap();
    assert_eq!(plan.cut_edge_count(), 0, "clusters align with the split");
    let (part, stats) = plan
        .run_with_stats_threaded(&[ids[0], ids[3]], &cfg, 1)
        .unwrap();
    assert_eq!(mono, part);
    assert_eq!(stats.cut_messages, 0);
    assert!(stats.channels.is_empty(), "no cut, no channels");

    // 12 partitions over 6 neurons: at least 6 are empty.
    let (part, stats) = PartitionedEngine::new(12)
        .compile(&net)
        .unwrap()
        .run_with_stats_threaded(&[ids[0], ids[3]], &cfg, 1)
        .unwrap();
    assert_eq!(mono, part);
    assert_eq!(stats.parts, 12);
}

/// Synapses whose target lies outside their source's range, counted per
/// ordered partition pair (`[from * parts + to]`) by brute force: every
/// neuron's owner is the range that contains it.
fn out_of_range_counts(net: &Network, bounds: &[usize]) -> Vec<u64> {
    let parts = bounds.len() - 1;
    let owner = |v: usize| (0..parts).find(|&q| (bounds[q]..bounds[q + 1]).contains(&v));
    let mut counts = vec![0u64; parts * parts];
    for v in 0..net.neuron_count() {
        let from = owner(v).expect("bounds cover every neuron");
        for s in net.csr().out(v) {
            let to = owner(s.target.index()).expect("bounds cover every neuron");
            if to != from {
                counts[from * parts + to] += 1;
            }
        }
    }
    counts
}

/// A plan borrows its network, so its memory is the bounds and cut counts
/// alone: the same neuron count with ten times the synapses (and a cut
/// ten times as large) accounts to the same bytes.
#[test]
fn plan_memory_is_independent_of_the_synapse_count() {
    let net_with = |fanout: usize| {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), 64);
        for i in 0..64usize {
            for k in 1..=fanout {
                net.connect(ids[i], ids[(i * 7 + k) % 64], 1.0, 1 + (k as u32 % 5))
                    .unwrap();
            }
        }
        net.freeze();
        net
    };
    let (sparse, dense) = (net_with(2), net_with(20));
    assert_eq!(dense.synapse_count(), 10 * sparse.synapse_count());
    for parts in [1, 2, 4, 8] {
        let small = PartitionPlan::compile(&sparse, parts).unwrap();
        let large = PartitionPlan::compile(&dense, parts).unwrap();
        assert_eq!(
            small.memory_bytes(),
            large.memory_bytes(),
            "parts = {parts}"
        );
        assert!(small.memory_bytes() < sparse.memory_bytes());
        if parts > 1 {
            assert!(large.cut_edge_count() > small.cut_edge_count());
        }
    }
}

/// A partitioned run takes its neuron state from the caller's scratch, so
/// a scratch recycled across engines and networks must still give every
/// run exactly what a fresh scratch gives. The small net rests at
/// `v_reset = -1`: a partitioned run that kept the event run's leftover
/// voltages (or its `last_update` times) would fire `b` or decay from the
/// wrong time.
#[test]
fn partitioned_runs_on_a_recycled_scratch_match_fresh_scratch() {
    let mut large = Network::new();
    let ids = large.add_neurons(LifParams::gate_at_least(1), 64);
    for w in ids.windows(2) {
        large.connect(w[0], w[1], 1.0, 2).unwrap();
    }
    large.connect(ids[0], ids[40], 0.5, 7).unwrap();

    // a -> b leaves b at 0.2, below threshold; a -> c fires c, whose
    // 1.2 into d again stays below threshold. The default cut splits the
    // six neurons into three busy partitions, so two threads really run
    // the pool.
    let params = LifParams {
        v_reset: -1.0,
        v_threshold: 0.5,
        decay: 0.5,
    };
    let mut small = Network::new();
    let s = small.add_neurons(params, 6);
    small.connect(s[0], s[1], 1.2, 1).unwrap();
    small.connect(s[0], s[2], 2.0, 1).unwrap();
    small.connect(s[2], s[3], 1.2, 2).unwrap();
    small.connect(s[3], s[4], 1.6, 1).unwrap();
    small.connect(s[2], s[5], 2.5, 3).unwrap();

    let cfg = RunConfig::until_quiescent(200).with_raster();
    let runs = [
        (EngineChoice::Event.prepare(&large).unwrap(), ids[0]),
        (
            EngineChoice::Partitioned {
                parts: 3,
                threads: 1,
            }
            .prepare(&small)
            .unwrap(),
            s[0],
        ),
        (
            EngineChoice::Partitioned {
                parts: 3,
                threads: 2,
            }
            .prepare(&small)
            .unwrap(),
            s[0],
        ),
        (EngineChoice::Event.prepare(&large).unwrap(), ids[0]),
    ];
    let mut recycled = RunScratch::new();
    for (i, (prepared, source)) in runs.iter().enumerate() {
        let fresh = prepared
            .run(&[*source], &cfg, &mut RunScratch::new(), &mut NullObserver)
            .unwrap();
        let reused = prepared
            .run(&[*source], &cfg, &mut recycled, &mut NullObserver)
            .unwrap();
        assert_eq!(fresh, reused, "run {i}");
    }
    let small_mono = EventEngine.run(&small, &[s[0]], &cfg).unwrap();
    assert!(small_mono.fired(s[2]) && !small_mono.fired(s[1]));
}

/// A quiet interval past `i32::MAX` steps decays like any other: 0.25
/// arriving at t = 1 is gone by t = 3,000,000,001, so 0.3 < 0.5 cannot
/// fire b — with a and b in separate partitions, inline and pooled.
#[test]
fn quiet_interval_beyond_i32_steps_decays_to_nothing() {
    let mut net = Network::new();
    let a = net.add_neuron(LifParams::gate_at_least(1));
    let b = net.add_neuron(LifParams {
        v_reset: 0.0,
        v_threshold: 0.5,
        decay: 0.5,
    });
    net.connect(a, b, 0.25, 1).unwrap();
    net.connect(a, b, 0.3, 3_000_000_001).unwrap();
    let cfg = RunConfig::until_quiescent(4_000_000_000).with_raster();
    let event = EventEngine.run(&net, &[a], &cfg).unwrap();
    assert!(!event.fired(b));
    for threads in [1, 2] {
        let part = PartitionedEngine::new(2)
            .with_threads(threads)
            .run(&net, &[a], &cfg)
            .unwrap();
        assert_eq!(part, event, "threads {threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation law: summed per-tick channel traffic equals the
    /// boundary-synapse share of the run's `synaptic_deliveries` — i.e.
    /// Σ_fired cut_degree(src), with the intra share making up the rest.
    #[test]
    fn channel_traffic_equals_boundary_delivery_counts(
        edges in proptest::collection::vec((0usize..12, 0usize..12, 1u32..5), 1..40),
        stims in proptest::collection::vec(0usize..12, 1..4),
        cuts in proptest::collection::vec(0usize..=12, 1..4),
    ) {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), 12);
        for &(s, d, delay) in &edges {
            net.connect(ids[s], ids[d], 1.0, delay).unwrap();
        }
        let initial: Vec<NeuronId> = stims.iter().map(|&i| ids[i]).collect();
        let cfg = RunConfig::until_quiescent(50);

        // 2..5 partitions over drawn, possibly empty or single-neuron
        // ranges.
        let mut bounds = vec![0];
        bounds.extend(cuts);
        bounds.push(12);
        bounds.sort_unstable();
        let plan = PartitionPlan::with_bounds(&net, bounds).unwrap();
        let mut tally = CutTally::default();
        let (result, stats) = plan
            .run_observed_threaded(&initial, &cfg, 1, &mut tally)
            .unwrap();

        // Expected totals from the spike counts: each spike of neuron v
        // delivers out_degree(v) times, cut_degree(v) of them over
        // channels.
        let part = |v: usize| plan.part_of(v);
        let mut expected_cut = 0u64;
        let mut expected_total = 0u64;
        for (v, &count) in result.spike_counts.iter().enumerate() {
            let cut_deg = net
                .csr()
                .out(v)
                .iter()
                .filter(|s| part(s.target.index()) != part(v))
                .count() as u64;
            let out_deg = net.csr().out(v).len() as u64;
            expected_cut += u64::from(count) * cut_deg;
            expected_total += u64::from(count) * out_deg;
        }
        prop_assert_eq!(stats.cut_messages, expected_cut);
        prop_assert_eq!(tally.total, expected_cut,
            "observer per-tick traffic must sum to the channel counters");
        prop_assert_eq!(result.stats.synaptic_deliveries, expected_total);
        // And the run itself is still bit-identical to the monolith.
        let mono = EventEngine.run(&net, &initial, &cfg).unwrap();
        prop_assert_eq!(&mono, &result);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One superstep loop serves every thread count, so the observer's
    /// step, scheduler and cut-traffic series cannot depend on it: at 2
    /// and 4 partitions, 2 and 4 threads must reproduce the threads = 1
    /// series exactly. The worker hooks are what differ — none inline,
    /// one per worker per post-injection superstep from the pool.
    #[test]
    fn observer_series_match_at_every_thread_count(
        edges in proptest::collection::vec((0usize..16, 0usize..16, 1u32..6, 0u8..3), 1..48),
        stims in proptest::collection::vec(0usize..16, 1..4),
        parts_log2 in 1u32..3,
    ) {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(2), 16);
        for &(s, d, delay, w) in &edges {
            net.connect(ids[s], ids[d], f64::from(w), delay).unwrap();
        }
        let initial: Vec<NeuronId> = stims.iter().map(|&i| ids[i]).collect();
        let cfg = RunConfig::until_quiescent(60);
        let plan = PartitionedEngine::new(1 << parts_log2).compile(&net).unwrap();

        let mut base = TimeSeriesObserver::new();
        let (base_result, base_stats) = plan
            .run_observed_threaded(&initial, &cfg, 1, &mut base)
            .unwrap();
        prop_assert_eq!(base_stats.threads, 1);
        prop_assert!(base_stats.workers.is_empty());
        prop_assert_eq!(base_stats.imbalance_max, 0.0);
        prop_assert_eq!(base.worker_busy.count(), 0);
        prop_assert!(base.imbalance_permille.is_empty());
        prop_assert_eq!(base.barrier_wait_total_ns, 0);

        for threads in [2usize, 4] {
            let mut obs = TimeSeriesObserver::new();
            let (result, stats) = plan
                .run_observed_threaded(&initial, &cfg, threads, &mut obs)
                .unwrap();
            prop_assert_eq!(&result, &base_result, "threads = {}", threads);
            prop_assert_eq!(&obs.times, &base.times);
            prop_assert_eq!(&obs.spikes, &base.spikes);
            prop_assert_eq!(&obs.deliveries, &base.deliveries);
            prop_assert_eq!(&obs.updates, &base.updates);
            prop_assert_eq!(&obs.wheel_in_flight, &base.wheel_in_flight);
            prop_assert_eq!(&obs.wheel_occupied, &base.wheel_occupied);
            prop_assert_eq!(obs.cut_traffic_total, base.cut_traffic_total);
            prop_assert_eq!(obs.final_step, base.final_step);
            prop_assert_eq!(stats.supersteps, base_stats.supersteps);
            prop_assert_eq!(
                obs.worker_busy.count(),
                stats.workers.len() as u64 * (stats.supersteps - 1),
                "threads = {}", threads
            );
        }
    }
}

/// A random input-driven network from `seed`: mixed LIF kinds (reset
/// potentials in `[-1, 0]`), continuous weights, self-loops, parallel
/// edges, the odd beyond-horizon delay and sometimes a terminal.
fn random_net(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let (n, m) = (rng.gen_range(1usize..40), rng.gen_range(0usize..120));
    let mut b = NetworkBuilder::with_capacity(n, m);
    for _ in 0..n {
        let v_threshold = rng.gen_range(0.5f64..4.0);
        let decay = [0.0, 0.5, 1.0][rng.gen_range(0usize..3)];
        let v_reset = if rng.gen_bool(0.5) {
            0.0
        } else {
            rng.gen_range(-1.0f64..=0.0)
        };
        b.add_neuron(LifParams {
            v_reset,
            v_threshold,
            decay,
        });
    }
    let mut last: Option<(NeuronId, NeuronId)> = None;
    for _ in 0..m {
        let src = NeuronId(rng.gen_range(0..n) as u32);
        let dst = match (rng.gen_range(0u8..8), last) {
            (0, _) => src,                      // self-loop
            (1, Some((s, d))) if s == src => d, // parallel edge
            _ => NeuronId(rng.gen_range(0..n) as u32),
        };
        let delay = if rng.gen_range(0u8..16) == 0 {
            rng.gen_range(4097u32..6000) // beyond the wheel horizon
        } else {
            rng.gen_range(1u32..6)
        };
        b.connect(src, dst, rng.gen_range(-2.5f64..3.5), delay);
        last = Some((src, dst));
    }
    if rng.gen_bool(0.5) {
        b.set_terminal(NeuronId(rng.gen_range(0..n) as u32));
    }
    b.build().unwrap()
}

/// Bounds for `parts` partitions of `n` neurons from drawn cut points
/// (each taken modulo `n + 1`): uneven, some empty, some single-neuron.
fn drawn_bounds(cuts: &[usize], parts: usize, n: usize) -> Vec<usize> {
    let mut bounds: Vec<usize> = cuts[..parts - 1].iter().map(|&c| c % (n + 1)).collect();
    bounds.push(0);
    bounds.push(n);
    bounds.sort_unstable();
    bounds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Plan compile against brute force: over drawn bounds, `part_of`
    /// names the range containing each neuron and every per-pair cut
    /// count equals a scan of every synapse; the default compile gives
    /// partition `q` the ids `q·⌈n/parts⌉..` and borrows the network.
    #[test]
    fn plan_cut_counts_match_brute_force(
        seed in 0u64..1_000_000,
        cuts in proptest::collection::vec(0usize..64, 7),
    ) {
        let net = random_net(seed);
        let n = net.neuron_count();
        for parts in [1usize, 2, 3, 4, 8] {
            let chunk = n.div_ceil(parts);
            let equal: Vec<usize> = (0..=parts).map(|q| (q * chunk).min(n)).collect();
            let compiled = PartitionPlan::compile(&net, parts).unwrap();
            prop_assert_eq!(compiled.bounds(), &equal[..]);
            prop_assert!(std::ptr::eq(compiled.network(), &net));
            let drawn = PartitionPlan::with_bounds(&net, drawn_bounds(&cuts, parts, n)).unwrap();
            for plan in [&compiled, &drawn] {
                let bounds = plan.bounds();
                for v in 0..n {
                    let q = plan.part_of(v);
                    prop_assert!(bounds[q] <= v && v < bounds[q + 1], "{} in {:?}", v, bounds);
                }
                let expected = out_of_range_counts(&net, bounds);
                for from in 0..parts {
                    for to in 0..parts {
                        prop_assert_eq!(plan.pair_cut(from, to), expected[from * parts + to]);
                    }
                }
                prop_assert_eq!(plan.cut_edge_count(), expected.iter().sum::<u64>());
            }
        }
    }
}

/// An owned `Prepared<Network>` (the shape the serve cache holds) keeps
/// only the plan's bounds and cut counts and lends its own network to
/// each run: at one and two threads, from every source, on one recycled
/// scratch, its runs equal the event engine's.
#[test]
fn owned_prepared_plan_matches_event_engine() {
    for seed in 0..8 {
        let net = random_net(seed);
        let n = net.neuron_count();
        let cfg = RunConfig::until_quiescent(300).with_raster();
        for threads in [1, 2] {
            let owned: Prepared<Network> = EngineChoice::Partitioned { parts: 3, threads }
                .prepare(net.clone())
                .unwrap();
            assert_eq!(owned.plan().map(|plan| plan.parts()), Some(3));
            let mut scratch = RunScratch::new();
            for s in 0..n {
                let init = [NeuronId(s as u32)];
                let got = owned
                    .run(&init, &cfg, &mut scratch, &mut NullObserver)
                    .unwrap();
                let want = EventEngine.run(&net, &init, &cfg).unwrap();
                assert_eq!(got, want, "seed {seed}, threads {threads}, source {s}");
            }
        }
    }
}
