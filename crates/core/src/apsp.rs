//! All-pairs shortest paths by parallel spiking wavefronts.
//!
//! The paper's single-chip comparison (§2.3) aggregates chips "in a
//! similar fashion to form larger parallel systems" (Figure 7). APSP is
//! the natural showcase: the §3 network is *reusable* — one copy of the
//! graph-as-SNN per chip, each running an independent wavefront from a
//! different source. This module runs the `n` wavefronts on host threads
//! (each simulation is independent and deterministic) and aggregates the
//! per-source costs as `n` parallel chips would.
//!
//! [`solve`] builds the network **once** and fans the sources out over
//! `sgl-snn`'s [`BatchRunner`]: the §3 topology is source-independent
//! (only input-marking metadata differs per source, and the engines never
//! read it), so swapping the `t = 0` stimulus is all a new source needs.
//! Workers claim sources off an atomic index — work stealing, so one slow
//! wavefront (a high-eccentricity source) never stalls a chunk of idle
//! ones — and recycle their engine scratch between runs. [`solve_rebuild`]
//! keeps the one-network-per-source path as the baseline the
//! `apsp_batch` bench (and CI's `perf_check`) compares against.

use crate::accounting::NeuromorphicCost;
use crate::sssp_pseudo::SpikingSssp;
use sgl_graph::{Graph, Len};
use sgl_snn::engine::{par_map, BatchRunner, RunConfig, RunSpec};
use sgl_snn::NeuronId;

/// Result of an all-pairs run.
#[derive(Clone, Debug)]
pub struct ApspRun {
    /// `distances[s][v]` = shortest-path length from `s` to `v`.
    pub distances: Vec<Vec<Option<Len>>>,
    /// Longest single wavefront (`max_s L_s`) — the parallel makespan.
    pub makespan_steps: u64,
    /// Total spike events across all wavefronts (energy).
    pub total_spikes: u64,
    /// Aggregate cost: neurons are per-chip (one graph copy each), time is
    /// the makespan.
    pub cost: NeuromorphicCost,
}

/// Runs the §3 spiking SSSP from every source over one shared network,
/// fanning the independent simulations across `threads` host threads with
/// per-worker recycled engine state.
///
/// # Panics
/// Panics if `threads == 0` or a simulation fails (cannot happen for
/// valid graphs).
#[must_use]
pub fn solve(g: &Graph, threads: usize) -> ApspRun {
    assert!(threads >= 1);
    let n = g.n();
    // One network for every source: §3's graph-as-SNN encodes only the
    // topology, so a source is nothing but a `t = 0` stimulus choice.
    let net = SpikingSssp::new(g, 0).build_network();
    // Same per-wavefront budget as `SpikingSssp::solve`: every node fires
    // at most once, so no finite distance exceeds (n-1)·U.
    let budget = (n as u64).saturating_mul(g.max_len().max(1)) + 1;
    let specs: Vec<RunSpec> = (0..n)
        .map(|s| RunSpec::new(vec![NeuronId(s as u32)], RunConfig::until_quiescent(budget)))
        .collect();
    let results = BatchRunner::new(&net)
        .with_threads(threads)
        .run(&specs)
        .expect("simulation");

    let mut distances: Vec<Vec<Option<Len>>> = Vec::with_capacity(n);
    let mut per_source: Vec<(u64, u64)> = Vec::with_capacity(n);
    for r in results {
        let spike_time = r.first_spikes.iter().flatten().copied().max().unwrap_or(0);
        per_source.push((spike_time, r.stats.spike_events));
        // First spike times *are* the distances (§3): move the row out.
        distances.push(r.first_spikes);
    }
    aggregate(g, distances, &per_source)
}

/// The pre-batching baseline: rebuilds the network (and reallocates all
/// engine state) for every source. Kept for the `apsp_batch` benchmark,
/// which holds [`solve`] to a ≥ 1× advantage over this path in CI; the
/// results are bit-identical.
///
/// # Panics
/// Panics if `threads == 0` or a simulation fails (cannot happen for
/// valid graphs).
#[must_use]
pub fn solve_rebuild(g: &Graph, threads: usize) -> ApspRun {
    assert!(threads >= 1);
    let (distances, per_source): (Vec<_>, Vec<_>) = par_map(
        g.n(),
        threads,
        || (),
        |(), s| {
            let run = SpikingSssp::new(g, s).solve_all().expect("simulation");
            (run.distances, (run.spike_time, run.cost.spike_events))
        },
    )
    .into_iter()
    .unzip();
    aggregate(g, distances, &per_source)
}

fn aggregate(g: &Graph, distances: Vec<Vec<Option<Len>>>, per_source: &[(u64, u64)]) -> ApspRun {
    let makespan_steps = per_source.iter().map(|&(t, _)| t).max().unwrap_or(0);
    let total_spikes: u64 = per_source.iter().map(|&(_, s)| s).sum();
    let cost = NeuromorphicCost {
        spiking_steps: makespan_steps,
        load_steps: g.m() as u64, // each chip loads its copy concurrently
        neurons: (g.n() * g.n()) as u64, // n chips x n neurons
        synapses: ((g.m() + g.n()) * g.n()) as u64,
        spike_events: total_spikes,
        embedding_factor: g.n() as u64,
    };
    ApspRun {
        distances,
        makespan_steps,
        total_spikes,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sgl_graph::{dijkstra, generators};

    #[test]
    fn matches_per_source_dijkstra() {
        let mut rng = StdRng::seed_from_u64(501);
        let g = generators::gnm_connected(&mut rng, 24, 96, 1..=7);
        let run = solve(&g, 4);
        for s in 0..g.n() {
            let truth = dijkstra::dijkstra(&g, s);
            assert_eq!(run.distances[s], truth.distances, "source {s}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mut rng = StdRng::seed_from_u64(502);
        let g = generators::gnm_connected(&mut rng, 16, 60, 1..=5);
        let a = solve(&g, 1);
        let b = solve(&g, 8);
        assert_eq!(a.distances, b.distances);
        assert_eq!(a.makespan_steps, b.makespan_steps);
        assert_eq!(a.total_spikes, b.total_spikes);
    }

    #[test]
    fn batched_and_rebuild_paths_agree_exactly() {
        let mut rng = StdRng::seed_from_u64(505);
        let g = generators::gnm_connected(&mut rng, 20, 80, 1..=6);
        let batched = solve(&g, 4);
        let rebuilt = solve_rebuild(&g, 4);
        assert_eq!(batched.distances, rebuilt.distances);
        assert_eq!(batched.makespan_steps, rebuilt.makespan_steps);
        assert_eq!(batched.total_spikes, rebuilt.total_spikes);
    }

    #[test]
    fn makespan_is_the_worst_eccentricity() {
        let mut rng = StdRng::seed_from_u64(503);
        let g = generators::path(&mut rng, 8, 3..=3);
        let run = solve(&g, 2);
        // On a directed path, the source at node 0 has the longest
        // wavefront: 7 edges x 3.
        assert_eq!(run.makespan_steps, 21);
    }

    #[test]
    fn spikes_count_reachable_pairs() {
        let mut rng = StdRng::seed_from_u64(504);
        let g = generators::gnm_connected(&mut rng, 20, 80, 1..=4);
        let run = solve(&g, 4);
        let reachable: u64 = run
            .distances
            .iter()
            .map(|row| row.iter().flatten().count() as u64)
            .sum();
        assert_eq!(run.total_spikes, reachable);
    }
}
