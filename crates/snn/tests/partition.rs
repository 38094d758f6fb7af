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
//! plan's memory accounting must cover the sum of its parts. A
//! differential proptest pins the plan compile's renumbered network to
//! what `NetworkBuilder` builds from the same rows in partition order.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgl_snn::engine::{
    Engine, EngineChoice, EventEngine, NullObserver, RunConfig, RunObserver, RunScratch,
    TimeSeriesObserver,
};
use sgl_snn::partition::plan::PARALLEL_COMPILE_MIN_WORK;
use sgl_snn::partition::{CutStrategy, PartitionPlan, PartitionedEngine, RangePartitioner};
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
    let plan = PartitionPlan::compile(&net, 41, &RangePartitioner).unwrap();
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
    let mut assignment = vec![1u32; n_leaves + 1];
    assignment[0] = 0;
    struct Fixed(Vec<u32>);
    impl sgl_snn::partition::Partitioner for Fixed {
        fn assign(&self, _net: &Network, _parts: usize) -> Vec<u32> {
            self.0.clone()
        }
    }
    let plan = PartitionPlan::compile(&net, 2, &Fixed(assignment)).unwrap();
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
    let mut assignment = vec![0u32; net.neuron_count()];
    assignment[driver1.index()] = 1;
    assignment[hub1.index()] = 1;
    for &l in &leaves0 {
        assignment[l.index()] = 2;
    }
    for &l in &leaves1 {
        assignment[l.index()] = 3;
    }
    struct Fixed(Vec<u32>);
    impl sgl_snn::partition::Partitioner for Fixed {
        fn assign(&self, _net: &Network, _parts: usize) -> Vec<u32> {
            self.0.clone()
        }
    }
    let plan = PartitionPlan::compile(&net, 4, &Fixed(assignment)).unwrap();
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

    let plan = PartitionPlan::compile(&net, 2, &RangePartitioner).unwrap();
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

/// Synapses of the renumbered network whose target lies outside their
/// source's range, counted per ordered partition pair
/// (`[from * parts + to]`).
fn out_of_range_counts(plan: &PartitionPlan) -> Vec<u64> {
    let parts = plan.parts();
    let mut counts = vec![0u64; parts * parts];
    for from in 0..parts {
        for i in plan.range(from) {
            for s in plan.network().csr().out(i) {
                let to = plan.part_of(s.target.index());
                if to != from {
                    counts[from * parts + to] += 1;
                }
            }
        }
    }
    counts
}

/// The plan's memory accounting must cover the renumbered network's own
/// accounting, and compare sanely against the monolithic build (the
/// renumbered network holds the same neurons and synapses; only the id
/// maps and cut counts are extra).
#[test]
fn plan_memory_accounting_covers_network_and_id_maps() {
    let mut net = Network::new();
    let ids = net.add_neurons(LifParams::gate_at_least(1), 64);
    for i in 0..64usize {
        net.connect(ids[i], ids[(i * 7 + 1) % 64], 1.0, 1 + (i as u32 % 5))
            .unwrap();
        net.connect(ids[i], ids[(i * 3 + 2) % 64], -0.5, 1).unwrap();
    }
    net.freeze();
    for parts in [1, 2, 4, 8] {
        let plan = PartitionPlan::compile(&net, parts, &RangePartitioner).unwrap();
        let net_bytes = plan.network().memory_bytes();
        let total = plan.memory_bytes();
        assert!(
            total >= net_bytes + 2 * net.neuron_count() * std::mem::size_of::<NeuronId>(),
            "parts = {parts}: {total} must cover the network ({net_bytes}) and id maps"
        );
        // Neuron and synapse conservation against the monolithic build.
        assert_eq!(plan.network().neuron_count(), net.neuron_count());
        assert_eq!(plan.network().synapse_count(), net.synapse_count());
        let cut: u64 = out_of_range_counts(&plan).iter().sum();
        assert_eq!(cut, plan.cut_edge_count());
        // Partitioning a net never accounts to less than the per-neuron /
        // per-synapse state it still holds: compare against a monolithic
        // lower bound built from the same counts.
        assert!(total >= net.neuron_count() * std::mem::size_of::<LifParams>());
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation law: summed per-tick channel traffic equals the
    /// boundary-synapse share of the run's `synaptic_deliveries` — i.e.
    /// Σ_fired cut_degree(src), with the intra share making up the rest.
    #[test]
    fn channel_traffic_equals_boundary_delivery_counts(
        edges in proptest::collection::vec((0usize..12, 0usize..12, 1u32..5), 1..40),
        stims in proptest::collection::vec(0usize..12, 1..4),
        parts in 2usize..5,
    ) {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), 12);
        for &(s, d, delay) in &edges {
            net.connect(ids[s], ids[d], 1.0, delay).unwrap();
        }
        let initial: Vec<NeuronId> = stims.iter().map(|&i| ids[i]).collect();
        let cfg = RunConfig::until_quiescent(50);

        let engine = PartitionedEngine::new(parts).with_strategy(CutStrategy::BfsGrow);
        let plan = engine.compile(&net).unwrap();
        let mut tally = CutTally::default();
        let (result, stats) = plan
            .run_observed_threaded(&initial, &cfg, 1, &mut tally)
            .unwrap();

        // Expected totals from the spike counts: each spike of neuron v
        // delivers out_degree(v) times, cut_degree(v) of them over
        // channels.
        let part = |v: usize| plan.part_of(plan.new_id(NeuronId(v as u32)).index());
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
/// edges and the odd beyond-horizon delay. `big` nets exceed
/// `PARALLEL_COMPILE_MIN_WORK`, so a multi-threaded compile really fans
/// out.
fn random_net(seed: u64, big: bool) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let (n, m) = if big {
        let n = rng.gen_range(1500usize..2500);
        (
            n,
            PARALLEL_COMPILE_MIN_WORK - n + rng.gen_range(0usize..4000),
        )
    } else {
        (rng.gen_range(1usize..40), rng.gen_range(0usize..120))
    };
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

/// The oracle: the network `NetworkBuilder` builds from the source rows in
/// (partition, ascending original id) order with targets renumbered the
/// same way, that order (new id -> original id), and the cut count per
/// ordered partition pair (`[from * parts + to]`).
fn oracle(net: &Network, assignment: &[u32], parts: usize) -> (Network, Vec<NeuronId>, Vec<u64>) {
    let n = net.neuron_count();
    let order: Vec<NeuronId> = (0..parts)
        .flat_map(|p| (0..n).filter(move |&g| assignment[g] as usize == p))
        .map(|g| NeuronId(g as u32))
        .collect();
    let mut new_of = vec![0u32; n];
    for (i, g) in order.iter().enumerate() {
        new_of[g.index()] = i as u32;
    }
    let mut b = NetworkBuilder::with_capacity(n, net.synapse_count());
    for g in &order {
        b.add_neuron(net.params_slice()[g.index()]);
    }
    let mut pair_cut = vec![0u64; parts * parts];
    for (i, g) in order.iter().enumerate() {
        let from = assignment[g.index()] as usize;
        for s in net.csr().out(g.index()) {
            let t = s.target.index();
            let to = assignment[t] as usize;
            if to != from {
                pair_cut[from * parts + to] += 1;
            }
            b.connect(NeuronId(i as u32), NeuronId(new_of[t]), s.weight, s.delay);
        }
    }
    (b.build().unwrap(), order, pair_cut)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Plan-compile differential: the renumbered network the compile
    /// emits directly must equal — parameters, CSR layout, max delay,
    /// memory footprint, frozen state — the network `NetworkBuilder`
    /// builds from the same rows in (partition, ascending original id)
    /// order, and its out-of-range synapses must be exactly the oracle's
    /// cut, pair by pair. A 4-thread compile must reproduce the 1-thread
    /// plan, id maps and accounting included.
    #[test]
    fn plan_compile_matches_builder_oracle(seed in 0u64..1_000_000, size in 0u8..4) {
        let net = random_net(seed, size == 0);
        for strategy in [CutStrategy::BfsGrow, CutStrategy::Range] {
            for parts in [1usize, 2, 3, 4, 8] {
                let assignment = strategy.partitioner().assign(&net, parts);
                let plans: Vec<PartitionPlan> = [1, 4]
                    .iter()
                    .map(|&threads| {
                        PartitionPlan::compile_with_threads(
                            &net,
                            parts,
                            strategy.partitioner(),
                            threads,
                        )
                        .unwrap()
                    })
                    .collect();
                let (seq, par) = (&plans[0], &plans[1]);
                prop_assert_eq!(seq.memory_bytes(), par.memory_bytes());
                prop_assert_eq!(seq.cut_edge_count(), par.cut_edge_count());
                prop_assert_eq!(seq.bounds(), par.bounds());
                prop_assert_eq!(seq.source_of(), par.source_of());
                let (expected, order, pair_cut) = oracle(&net, &assignment, parts);
                for plan in &plans {
                    prop_assert_eq!(plan.source_of(), &order[..]);
                    for (g, &p) in assignment.iter().enumerate() {
                        let i = plan.new_id(NeuronId(g as u32)).index();
                        prop_assert_eq!(plan.part_of(i), p as usize);
                    }
                    let renumbered = plan.network();
                    prop_assert_eq!(renumbered.params_slice(), expected.params_slice());
                    prop_assert_eq!(renumbered.csr(), expected.csr());
                    prop_assert_eq!(renumbered.max_delay(), expected.max_delay());
                    prop_assert_eq!(renumbered.memory_bytes(), expected.memory_bytes());
                    prop_assert_eq!(renumbered.is_frozen(), expected.is_frozen());
                    prop_assert_eq!(renumbered.terminal(), None);
                    prop_assert!(renumbered.inputs().is_empty() && renumbered.outputs().is_empty());
                    prop_assert_eq!(&out_of_range_counts(plan), &pair_cut);
                    for from in 0..parts {
                        for to in 0..parts {
                            prop_assert_eq!(plan.pair_cut(from, to), pair_cut[from * parts + to]);
                        }
                    }
                }
            }
        }
    }
}
