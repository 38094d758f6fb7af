//! Edge-cut partitioners: assign every neuron to one of `parts` regions.
//!
//! The quality of an assignment is the number of synapses whose endpoints
//! land in different regions (the *cut*): cut synapses become channel
//! traffic every time their source fires, so a smaller cut is cheaper.
//! Correctness never depends on the assignment — the partitioned engine
//! is bit-identical to a monolithic run under *any* valid assignment —
//! which is what makes the strategy pluggable.

use crate::network::Network;

/// A strategy for assigning neurons to partitions.
pub trait Partitioner {
    /// Maps each neuron (by dense id) to a partition in `0..parts`.
    ///
    /// Must return exactly `net.neuron_count()` entries, each `< parts`
    /// (checked by [`super::PartitionPlan::compile`]). Partitions may be
    /// empty. Implementations must be deterministic: the same network and
    /// `parts` must always produce the same assignment.
    fn assign(&self, net: &Network, parts: usize) -> Vec<u32>;
}

/// Built-in edge-cut strategies, for callers that pick by name (e.g.
/// `EngineChoice::Partitioned`) rather than supplying a [`Partitioner`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CutStrategy {
    /// [`BfsGrowPartitioner`]: greedy BFS-grown regions.
    #[default]
    BfsGrow,
    /// [`RangePartitioner`]: contiguous id ranges.
    Range,
}

impl CutStrategy {
    /// The partitioner implementing this strategy.
    #[must_use]
    pub fn partitioner(self) -> &'static dyn Partitioner {
        match self {
            Self::BfsGrow => &BfsGrowPartitioner,
            Self::Range => &RangePartitioner,
        }
    }
}

/// Contiguous id-range partitioning: neuron `i` goes to `i / ceil(n/parts)`.
///
/// Zero-cost to compute and a surprisingly good cut for builder-order
/// locality (e.g. layered graphs built layer by layer). The baseline every
/// smarter strategy must beat.
#[derive(Clone, Copy, Debug, Default)]
pub struct RangePartitioner;

impl Partitioner for RangePartitioner {
    fn assign(&self, net: &Network, parts: usize) -> Vec<u32> {
        let n = net.neuron_count();
        let parts = parts.max(1);
        let chunk = n.div_ceil(parts).max(1);
        (0..n)
            .map(|i| ((i / chunk) as u32).min(parts as u32 - 1))
            .collect()
    }
}

/// Greedy BFS-grown regions over the undirected view of the synapse graph.
///
/// Seeds each region at the lowest-id unassigned neuron and grows it
/// breadth-first (out- and in-neighbours alike) until the region reaches
/// `ceil(n/parts)` neurons, then starts the next region. Connected
/// neighbourhoods tend to land in one region, so cuts follow sparse
/// frontiers instead of slicing through dense cores.
///
/// The undirected view is one adjacency array, counted and then filled
/// in one pass each over the CSR: each neuron's row lists its out-targets
/// in CSR synapse order, then its in-sources in ascending source id (one
/// entry per synapse, so parallel edges repeat; self-loops are dropped,
/// as they can never assign anything). The frontier is a flat `Vec` read
/// from a moving head. Deterministic: expansion order is (FIFO order) ×
/// (row order).
#[derive(Clone, Copy, Debug, Default)]
pub struct BfsGrowPartitioner;

impl Partitioner for BfsGrowPartitioner {
    fn assign(&self, net: &Network, parts: usize) -> Vec<u32> {
        let n = net.neuron_count();
        // One region (or no neuron) needs no adjacency.
        if parts <= 1 || n == 0 {
            return vec![0; n];
        }
        let csr = net.csr();

        // Undirected row of `u`: its out-targets, then its in-sources.
        // Self-loops are left out: a neuron is assigned before its own
        // row is read, so a self entry could never assign anything.
        // `cursor[u]` first counts u's out-entries, then becomes the
        // write position of its first in-source.
        let mut off = vec![0usize; n + 1];
        let mut cursor = vec![0usize; n];
        for u in 0..n {
            for s in csr.out(u) {
                let t = s.target.index();
                if t != u {
                    cursor[u] += 1;
                    off[u + 1] += 1;
                    off[t + 1] += 1;
                }
            }
        }
        for u in 0..n {
            off[u + 1] += off[u];
            cursor[u] += off[u];
        }
        // Sources are visited in ascending order, so each row's
        // in-sources land in ascending source order.
        let mut adj = vec![0u32; off[n]];
        for u in 0..n {
            let mut out = off[u];
            for s in csr.out(u) {
                let t = s.target.index();
                if t != u {
                    adj[out] = t as u32;
                    out += 1;
                    adj[cursor[t]] = u as u32;
                    cursor[t] += 1;
                }
            }
        }
        drop(cursor);

        let target = n.div_ceil(parts);
        let mut assignment = vec![u32::MAX; n];
        // One region never queues more than `target` neurons.
        let mut queue: Vec<u32> = Vec::with_capacity(target);
        let mut head = 0usize;
        let mut seed_cursor = 0usize;
        let mut part = 0u32;
        let mut region = 0usize;
        let mut assigned = 0usize;
        while assigned < n {
            // Close a full region (the last region absorbs any remainder).
            if region >= target && (part as usize) + 1 < parts {
                part += 1;
                region = 0;
                queue.clear();
                head = 0;
            }
            let u = if let Some(&u) = queue.get(head) {
                head += 1;
                u as usize
            } else {
                // Frontier exhausted (or region just closed): seed at the
                // lowest-id unassigned neuron.
                while assignment[seed_cursor] != u32::MAX {
                    seed_cursor += 1;
                }
                assignment[seed_cursor] = part;
                assigned += 1;
                region += 1;
                seed_cursor
            };
            for &v in &adj[off[u]..off[u + 1]] {
                if region >= target && (part as usize) + 1 < parts {
                    break;
                }
                if assignment[v as usize] == u32::MAX {
                    assignment[v as usize] = part;
                    assigned += 1;
                    region += 1;
                    queue.push(v);
                }
            }
        }
        assignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LifParams;

    fn chain(n: usize) -> Network {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), n);
        for w in ids.windows(2) {
            net.connect(w[0], w[1], 1.0, 1).unwrap();
        }
        net
    }

    #[test]
    fn range_covers_all_parts_evenly() {
        let net = chain(10);
        let a = RangePartitioner.assign(&net, 4);
        assert_eq!(a.len(), 10);
        assert_eq!(a, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn range_with_more_parts_than_neurons_leaves_tail_empty() {
        let net = chain(3);
        let a = RangePartitioner.assign(&net, 8);
        assert_eq!(a, vec![0, 1, 2]);
    }

    #[test]
    fn bfs_grow_assigns_every_neuron_in_range() {
        let net = chain(17);
        for parts in [1, 2, 4, 8] {
            let a = BfsGrowPartitioner.assign(&net, parts);
            assert_eq!(a.len(), 17);
            assert!(a.iter().all(|&p| (p as usize) < parts));
            // Balanced to the ceiling.
            let mut sizes = vec![0usize; parts];
            for &p in &a {
                sizes[p as usize] += 1;
            }
            assert!(sizes.iter().all(|&s| s <= 17usize.div_ceil(parts)));
        }
    }

    #[test]
    fn bfs_grow_keeps_chain_regions_contiguous() {
        // On a chain, BFS growth from the lowest id must produce the
        // minimal (parts - 1)-edge cut: contiguous blocks.
        let net = chain(16);
        let a = BfsGrowPartitioner.assign(&net, 4);
        let mut cut = 0;
        for u in 0..16 {
            for s in net.csr().out(u) {
                if a[u] != a[s.target.index()] {
                    cut += 1;
                }
            }
        }
        assert_eq!(cut, 3);
    }

    #[test]
    fn bfs_grow_handles_disconnected_components() {
        // Two disjoint chains: seeding must hop to the second component.
        let mut net = Network::new();
        let a = net.add_neurons(LifParams::gate_at_least(1), 4);
        let b = net.add_neurons(LifParams::gate_at_least(1), 4);
        net.connect(a[0], a[1], 1.0, 1).unwrap();
        net.connect(b[2], b[3], 1.0, 1).unwrap();
        let asg = BfsGrowPartitioner.assign(&net, 2);
        assert_eq!(asg.len(), 8);
        assert!(asg.iter().all(|&p| p < 2));
        assert_eq!(asg.iter().filter(|&&p| p == 0).count(), 4);
    }

    #[test]
    fn partitioners_are_deterministic() {
        let net = chain(31);
        assert_eq!(
            BfsGrowPartitioner.assign(&net, 4),
            BfsGrowPartitioner.assign(&net, 4)
        );
        assert_eq!(
            RangePartitioner.assign(&net, 4),
            RangePartitioner.assign(&net, 4)
        );
    }
}
