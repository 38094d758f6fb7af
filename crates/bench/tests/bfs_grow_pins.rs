//! Pins `BfsGrowPartitioner`'s assignments on the synthetic families the
//! partition bench and the benchmark workload use.
//!
//! The partitioner's growth order (queue order × out-targets then
//! in-sources per row) decides which neuron lands where, and with it the
//! cut size, the per-partition load and every `partition.*` counter. Any
//! rewrite of its internals must reproduce these FNV-1a hashes of the
//! assignment vector exactly.

use sgl_bench::synth;
use sgl_core::sssp_pseudo::SpikingSssp;
use sgl_graph::Graph;
use sgl_snn::partition::{BfsGrowPartitioner, Partitioner};
use sgl_snn::{LifParams, Network, NetworkBuilder, NeuronId};

const PARTS: [usize; 5] = [2, 3, 4, 8, 16];

/// 64-bit FNV-1a over the little-endian bytes of `assignment`.
fn fnv1a(assignment: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in assignment {
        for byte in p.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One neuron per node, one synapse per edge (delay = length), in the
/// graph's CSR order.
fn hashes(g: &Graph) -> Vec<u64> {
    let mut b = NetworkBuilder::with_capacity(g.n(), g.m());
    b.add_neurons(LifParams::unit_integrator(), g.n());
    for (u, v, len) in g.edges() {
        b.connect(NeuronId(u as u32), NeuronId(v as u32), 1.0, len as u32);
    }
    net_hashes(&b.build().expect("valid by construction"))
}

fn net_hashes(net: &Network) -> Vec<u64> {
    PARTS
        .iter()
        .map(|&parts| fnv1a(&BfsGrowPartitioner.assign(net, parts)))
        .collect()
}

#[test]
fn layered_assignments_are_pinned() {
    let g = synth::layered(7, 40, 50, 3, 9);
    assert_eq!(
        hashes(&g),
        vec![
            16394100445425342533,
            6946452900728241716,
            4260399904310734213,
            6208225542904349365,
            10224799958497524293,
        ]
    );
}

#[test]
fn grid_assignments_are_pinned() {
    let g = synth::grid(11, 40, 50, 9);
    assert_eq!(
        hashes(&g),
        vec![
            11781805956537901381,
            16164073474848428052,
            4209808937040812597,
            3612695970893965413,
            7982089509297887909,
        ]
    );
}

#[test]
fn circulant_assignments_are_pinned() {
    let g = synth::random_regular(13, 2000, 4, 9);
    assert_eq!(
        hashes(&g),
        vec![
            12663415002215000853,
            14637014802850106180,
            1103792229913099909,
            1003116422229933061,
            5584548892711117397,
        ]
    );
}

/// The spiking SSSP network adds a suppressing self-loop to every neuron,
/// as in the partitioned benchmark workload. Its hashes equal the plain
/// layered net's: a self-loop never assigns anything.
#[test]
fn sssp_network_assignments_are_pinned() {
    let g = synth::layered(7, 40, 50, 3, 9);
    let net = SpikingSssp::new(&g, 0).build_network();
    assert_eq!(
        net_hashes(&net),
        vec![
            16394100445425342533,
            6946452900728241716,
            4260399904310734213,
            6208225542904349365,
            10224799958497524293,
        ]
    );
}
