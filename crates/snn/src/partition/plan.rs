//! Partition plans: contiguous ranges of the source network's own ids.
//!
//! A `parts`-partition plan of an `n`-neuron network gives partition `q`
//! the ids `q·⌈n/parts⌉ .. min((q + 1)·⌈n/parts⌉, n)`. The plan borrows
//! the network and adds only those bounds and the cut-edge count per
//! ordered partition pair: nothing is renumbered or copied, so compiling
//! is the network's validation plus one counting pass over its synapses.
//! A synapse is *cut* exactly when its target lies outside its source's
//! range, so no per-partition sub-network and no cut table exist: the
//! engine routes in-range synapses into the partition's own wheel and
//! sends the rest through the destination's mailbox.
//!
//! Ascending ids within each range are what make the runtime merge cheap:
//! a partition's fired list is sorted by id, and a peer's outbound batch
//! (fired list × cut synapses) arrives sorted by source id. A caller that
//! wants a different cut renumbers its network once, at build time, so
//! that the partitions it wants are ranges.

use std::borrow::Cow;
use std::ops::Range;

use crate::error::SnnError;
use crate::network::Network;

/// The part of a plan that is not the network: partition bounds and cut
/// counts. An owned [`crate::engine::Prepared`] keeps only this and lends
/// its own network to each run.
#[derive(Clone, Debug)]
pub(crate) struct PartitionCut {
    /// Partition id ranges: `parts + 1` entries, `bounds[0] == 0`,
    /// `bounds[parts] == n`.
    bounds: Vec<usize>,
    /// Cut-edge count per ordered partition pair, `pair_cut[from*parts+to]`.
    pair_cut: Vec<u64>,
    cut_edge_count: u64,
}

/// A network compiled for partitioned execution: the source network,
/// borrowed, with partition `q` owning its id range [`Self::range`]`(q)`.
#[derive(Debug)]
pub struct PartitionPlan<'n> {
    net: &'n Network,
    cut: Cow<'n, PartitionCut>,
}

impl<'n> PartitionPlan<'n> {
    /// Compiles `net` into `parts` contiguous id ranges of `⌈n/parts⌉`
    /// neurons each (the last ones may be short or empty; `parts == 0`
    /// means one).
    ///
    /// Validates the network under the event-engine rules first (the
    /// partitioned engine shares the lazy-decay update, so spontaneous
    /// neurons are rejected the same way).
    ///
    /// # Errors
    /// Fails when the network is invalid for event-style execution.
    pub fn compile(net: &'n Network, parts: usize) -> Result<Self, SnnError> {
        let n = net.neuron_count();
        let parts = parts.max(1);
        let chunk = n.div_ceil(parts);
        Self::with_bounds(net, (0..=parts).map(|q| (q * chunk).min(n)).collect())
    }

    /// [`Self::compile`] with explicit partition bounds: partition `q`
    /// owns `bounds[q]..bounds[q + 1]`. Exposed so tests can drive uneven,
    /// empty and single-neuron ranges through the same compile.
    ///
    /// # Errors
    /// Fails when the network is invalid for event-style execution.
    ///
    /// # Panics
    /// Panics unless `bounds` starts at 0, ends at the neuron count, has
    /// at least two entries and never decreases.
    #[doc(hidden)]
    pub fn with_bounds(net: &'n Network, bounds: Vec<usize>) -> Result<Self, SnnError> {
        assert!(
            bounds.len() >= 2
                && bounds[0] == 0
                && bounds[bounds.len() - 1] == net.neuron_count()
                && bounds.windows(2).all(|w| w[0] <= w[1]),
            "partition bounds must run from 0 to the neuron count, non-decreasing"
        );
        net.validate(true)?;
        let parts = bounds.len() - 1;
        let mut pair_cut = vec![0u64; parts * parts];
        if parts > 1 {
            let csr = net.csr();
            for (q, row) in pair_cut.chunks_mut(parts).enumerate() {
                let (lo, len) = (bounds[q], bounds[q + 1] - bounds[q]);
                for s in csr.rows(lo..lo + len) {
                    let target = s.target.index();
                    if target.wrapping_sub(lo) >= len {
                        row[part_of(&bounds, target)] += 1;
                    }
                }
            }
        }
        let cut_edge_count = pair_cut.iter().sum();
        Ok(Self {
            net,
            cut: Cow::Owned(PartitionCut {
                bounds,
                pair_cut,
                cut_edge_count,
            }),
        })
    }

    /// The plan of `net` under a cut compiled from it earlier.
    pub(crate) fn borrowed(net: &'n Network, cut: &'n PartitionCut) -> Self {
        Self {
            net,
            cut: Cow::Borrowed(cut),
        }
    }

    /// The plan's bounds and cut counts, without the network.
    pub(crate) fn into_cut(self) -> PartitionCut {
        self.cut.into_owned()
    }

    /// Number of partitions (including any that received no neurons).
    #[must_use]
    pub fn parts(&self) -> usize {
        self.cut.bounds.len() - 1
    }

    /// Neuron count of the source network.
    #[must_use]
    pub fn neuron_count(&self) -> usize {
        self.net.neuron_count()
    }

    /// Maximum synaptic delay of the source network. Every partition's
    /// scheduler wheel is sized to this global value so that in-horizon
    /// vs overflow classification — and therefore drain order — matches
    /// the monolithic wheel exactly.
    #[must_use]
    pub fn max_delay(&self) -> u32 {
        self.net.max_delay()
    }

    /// The source network the plan was compiled from.
    #[must_use]
    pub fn network(&self) -> &'n Network {
        self.net
    }

    /// Partition id ranges: partition `q` owns
    /// `bounds()[q]..bounds()[q + 1]`.
    #[must_use]
    pub fn bounds(&self) -> &[usize] {
        &self.cut.bounds
    }

    /// The id range partition `q` owns.
    #[must_use]
    pub fn range(&self, q: usize) -> Range<usize> {
        self.cut.bounds[q]..self.cut.bounds[q + 1]
    }

    /// The partition owning neuron `id`.
    #[must_use]
    pub fn part_of(&self, id: usize) -> usize {
        part_of(&self.cut.bounds, id)
    }

    /// Total boundary synapses (the static edge cut).
    #[must_use]
    pub fn cut_edge_count(&self) -> u64 {
        self.cut.cut_edge_count
    }

    /// Boundary synapses from partition `from` into partition `to`.
    #[must_use]
    pub fn pair_cut(&self, from: usize, to: usize) -> u64 {
        self.cut.pair_cut[from * self.parts() + to]
    }

    /// Heap bytes the plan adds to its network: the bounds and
    /// `pair_cut`, `O(parts²)` and independent of the network's size.
    /// Per-run scratch — partition wheels, lazy-decay state and cut-spike
    /// mailboxes — is not the plan's and is not counted; neither is the
    /// borrowed network ([`Network::memory_bytes`]).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.cut.bounds.capacity() * size_of::<usize>()
            + self.cut.pair_cut.capacity() * size_of::<u64>()
    }
}

/// The partition owning `id` under `bounds`: the last range starting at
/// or before `id`, which skips empty ranges.
fn part_of(bounds: &[usize], id: usize) -> usize {
    bounds.partition_point(|&b| b <= id) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LifParams;

    fn ring(n: usize, delay: u32) -> Network {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), n);
        for i in 0..n {
            net.connect(ids[i], ids[(i + 1) % n], 1.0, delay).unwrap();
        }
        net
    }

    #[test]
    fn compile_splits_into_ceiling_sized_ranges() {
        let net = ring(10, 3);
        let plan = PartitionPlan::compile(&net, 4).unwrap();
        // [3,3,3,1]: one cut per block edge plus the wrap edge.
        assert_eq!(plan.bounds(), &[0, 3, 6, 9, 10]);
        assert_eq!(plan.cut_edge_count(), 4);
        assert_eq!(plan.pair_cut(3, 0), 1, "the wrap edge");
        assert_eq!(plan.max_delay(), 3);
        assert!(std::ptr::eq(plan.network(), &net), "nothing is copied");
        // More parts than neurons: the tail ranges are empty.
        let plan = PartitionPlan::compile(&net, 16).unwrap();
        assert_eq!(&plan.bounds()[9..], &[9, 10, 10, 10, 10, 10, 10, 10]);
        assert_eq!(plan.cut_edge_count(), 10);
    }

    #[test]
    fn part_of_skips_empty_ranges() {
        let net = ring(6, 1);
        let plan = PartitionPlan::with_bounds(&net, vec![0, 0, 3, 3, 6, 6]).unwrap();
        let owners: Vec<usize> = (0..6).map(|i| plan.part_of(i)).collect();
        assert_eq!(owners, [1, 1, 1, 3, 3, 3]);
    }

    #[test]
    fn single_partition_has_no_cut() {
        let net = ring(8, 2);
        let plan = PartitionPlan::compile(&net, 1).unwrap();
        assert_eq!(plan.bounds(), &[0, 8]);
        assert_eq!(plan.cut_edge_count(), 0);
        assert_eq!(plan.pair_cut(0, 0), 0);
    }

    #[test]
    fn a_borrowed_cut_is_the_compiled_plan() {
        let net = ring(32, 2);
        let cut = PartitionPlan::compile(&net, 4).unwrap().into_cut();
        let plan = PartitionPlan::borrowed(&net, &cut);
        assert_eq!(plan.bounds(), &[0, 8, 16, 24, 32]);
        assert_eq!(plan.cut_edge_count(), 4);
        assert_eq!(
            plan.memory_bytes(),
            5 * std::mem::size_of::<usize>() + 16 * std::mem::size_of::<u64>()
        );
    }

    #[test]
    #[should_panic(expected = "partition bounds")]
    fn bounds_must_cover_every_neuron() {
        let _ = PartitionPlan::with_bounds(&ring(4, 1), vec![0, 2, 3]);
    }

    #[test]
    fn rejects_spontaneous_networks_like_the_event_engine() {
        let mut net = Network::new();
        net.add_neuron(LifParams {
            v_reset: 2.0,
            v_threshold: 1.0,
            decay: 0.0,
        });
        assert!(matches!(
            PartitionPlan::compile(&net, 2),
            Err(SnnError::SpontaneousNeuron(_))
        ));
    }
}
