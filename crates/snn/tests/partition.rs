//! Partitioned-execution edge cases and conservation laws.
//!
//! The differential harness (`engine_equivalence.rs`) pins the partitioned
//! engine bit-identical to the event engine on random networks; this file
//! covers the channel plumbing those nets may miss by construction —
//! empty partitions, partitions with zero cut edges, all-cut star
//! topologies, ring overflow into the spill path (sequential, and under
//! threaded-driver contention with two rings racing) — plus conservation
//! properties: channel traffic must equal the boundary-synapse share of
//! `SimStats::synaptic_deliveries`, and the plan's memory accounting must
//! cover the sum of its parts.

use proptest::prelude::*;
use sgl_snn::engine::{Engine, EventEngine, RunConfig, RunObserver};
use sgl_snn::partition::{CutStrategy, PartitionPlan, PartitionedEngine, RangePartitioner};
use sgl_snn::{LifParams, Network, NeuronId};

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

/// A star wide enough to overflow the per-channel ring exercises the
/// spill path; order (and therefore the result) must survive.
#[test]
fn channel_spill_path_is_lossless_and_ordered() {
    // Two partitions, hub in 0, every leaf in 1: one channel carries the
    // entire fan-out. The ring caps at 16384 slots, so 20k leaves spill.
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
    assert!(
        stats.spilled_messages > 0,
        "a 20k-wide cut must overflow the bounded ring"
    );
}

/// Two rings spilling concurrently while worker threads race: each hub
/// fires at t = 1 *inside* the threaded compute phase and overflows its
/// own channel (18k-wide fan-out vs the 16384-slot ring). Spill lists
/// are per-channel with a single producer each, so push order — and
/// bit-identity with the monolith — must survive the contention.
#[test]
fn threaded_spill_under_contention_is_lossless() {
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
    // p3 = hub1's leaves: two disjoint producer/consumer channel pairs,
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
        assert!(
            stats.spilled_messages > 0,
            "both 18k fan-outs must overflow the rings"
        );
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

/// Satellite regression: the plan's memory accounting must cover the sum
/// of the sub-network accountings plus the channel rings, and compare
/// sanely against the monolithic build (sub-networks repartition the
/// neurons and intra synapses; only cut bookkeeping is extra).
#[test]
fn plan_memory_accounting_covers_subnets_and_channels() {
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
        let sub_sum: usize = (0..parts).map(|p| plan.subnet(p).memory_bytes()).sum();
        let total = plan.memory_bytes();
        assert!(
            total >= sub_sum + plan.channel_ring_bytes(),
            "parts = {parts}: {total} must cover subnets ({sub_sum}) + rings"
        );
        // Neuron and synapse conservation against the monolithic build.
        let sub_neurons: usize = (0..parts).map(|p| plan.subnet(p).neuron_count()).sum();
        let sub_syn: u64 = (0..parts)
            .map(|p| plan.subnet(p).synapse_count() as u64)
            .sum();
        assert_eq!(sub_neurons, net.neuron_count());
        assert_eq!(sub_syn + plan.cut_edge_count(), net.synapse_count() as u64);
        // Partitioning a net never accounts to less than the per-neuron /
        // per-synapse state it still holds: compare against a monolithic
        // lower bound built from the same counts.
        assert!(total >= net.neuron_count() * std::mem::size_of::<LifParams>());
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
        let assignment = plan.assignment();
        let mut expected_cut = 0u64;
        let mut expected_total = 0u64;
        for (v, &count) in result.spike_counts.iter().enumerate() {
            let cut_deg = net
                .csr()
                .out(v)
                .iter()
                .filter(|s| assignment[s.target.index()] != assignment[v])
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
