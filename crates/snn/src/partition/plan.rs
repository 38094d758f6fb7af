//! Partition plans: one network, renumbered so that every partition owns
//! one contiguous id range.
//!
//! Compilation runs the partitioner, then one stable counting sort of the
//! neurons by partition: partition `q` owns the new ids
//! `bounds[q]..bounds[q + 1]`, in ascending original id. The plan's one
//! frozen [`Network`] holds every neuron's params and CSR row in that new
//! order, each row's synapses in their original CSR order with targets
//! renumbered — exactly what `NetworkBuilder` builds from the same rows.
//! A synapse is *cut* exactly when its target lies outside its source's
//! range, so no per-partition sub-network and no cut table exist: the
//! engine routes in-range synapses into the partition's own wheel and
//! sends the rest through the destination's mailbox.
//!
//! Ascending original id within each partition is what makes the runtime
//! merge cheap: a partition's fired list sorted by new id is already
//! sorted by original id, and a peer's outbound batch (fired list × cut
//! synapses) arrives sorted by original source id.

use std::ops::Range;
use std::sync::Mutex;

use crate::engine::{par_map, split_at_bounds};
use crate::error::SnnError;
use crate::network::{CsrTopology, Network, Synapse};
use crate::types::NeuronId;

use super::cut::Partitioner;

/// Compile-size floor (neurons + synapses) below which
/// [`PartitionPlan::compile_with_threads`] fills the synapse rows
/// sequentially: under this much work the per-thread spawn cost outweighs
/// the fan-out.
pub const PARALLEL_COMPILE_MIN_WORK: usize = 32_768;

/// A network compiled for partitioned execution: the source network
/// renumbered so partition `q` owns the id range [`Self::range`]`(q)`,
/// plus the maps between new and original ids.
#[derive(Debug)]
pub struct PartitionPlan {
    /// The renumbered network (no terminal, inputs or outputs), boxed so
    /// a plan moves cheaply.
    net: Box<Network>,
    /// Partition id ranges: `parts + 1` entries, `bounds[0] == 0`.
    bounds: Vec<usize>,
    /// New id -> original id, ascending within each partition.
    source_of: Vec<NeuronId>,
    /// Original id -> new id.
    new_of: Vec<NeuronId>,
    /// Terminal neuron of the source network (original id).
    terminal: Option<NeuronId>,
    /// Cut-edge count per ordered partition pair, `pair_cut[from*parts+to]`.
    pair_cut: Vec<u64>,
    cut_edge_count: u64,
}

impl PartitionPlan {
    /// Compiles `net` into `parts` partitions using `partitioner`.
    ///
    /// Validates the network under the event-engine rules first (the
    /// partitioned engine shares the lazy-decay update, so spontaneous
    /// neurons are rejected the same way).
    ///
    /// # Errors
    /// Fails when the network is invalid for event-style execution.
    ///
    /// # Panics
    /// Panics when `partitioner` returns an assignment of the wrong
    /// length or with a partition id `>= parts` — a contract bug in the
    /// partitioner, not a data error.
    pub fn compile(
        net: &Network,
        parts: usize,
        partitioner: &dyn Partitioner,
    ) -> Result<Self, SnnError> {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::compile_with_threads(net, parts, partitioner, threads)
    }

    /// [`Self::compile`] with an explicit thread count for filling the
    /// synapse rows. Each partition's rows occupy one contiguous chunk of
    /// the renumbered CSR, so the fills are independent and fan out
    /// through [`crate::engine::par_map`]; the resulting plan is identical
    /// to a sequential compile. Small compiles (below
    /// [`PARALLEL_COMPILE_MIN_WORK`] neurons + synapses) stay sequential —
    /// thread spawns would cost more than the fill.
    ///
    /// The network is validated once up front, so no synapse is checked
    /// twice, and every array is allocated once at its exact size.
    ///
    /// # Errors
    /// Fails when the network is invalid for event-style execution.
    ///
    /// # Panics
    /// Same partitioner-contract panics as [`Self::compile`].
    pub fn compile_with_threads(
        net: &Network,
        parts: usize,
        partitioner: &dyn Partitioner,
        threads: usize,
    ) -> Result<Self, SnnError> {
        net.validate(true)?;
        let parts = parts.max(1);
        let n = net.neuron_count();
        let csr = net.csr();
        let threads = if n + csr.all().len() >= PARALLEL_COMPILE_MIN_WORK {
            threads
        } else {
            1
        };

        let assignment = partitioner.assign(net, parts);
        assert_eq!(
            assignment.len(),
            n,
            "partitioner must assign every neuron exactly once"
        );
        assert!(
            assignment.iter().all(|&p| (p as usize) < parts),
            "partitioner produced a partition id >= parts"
        );

        // Stable counting sort by partition: new ids ascend with original
        // ids inside each partition (see module docs).
        let mut bounds = vec![0usize; parts + 1];
        for &p in &assignment {
            bounds[p as usize + 1] += 1;
        }
        for q in 0..parts {
            bounds[q + 1] += bounds[q];
        }
        let mut cursor = bounds[..parts].to_vec();
        let mut source_of = vec![NeuronId(0); n];
        let mut new_of = vec![NeuronId(0); n];
        for (g, &p) in assignment.iter().enumerate() {
            let i = cursor[p as usize];
            cursor[p as usize] += 1;
            source_of[i] = NeuronId(g as u32);
            new_of[g] = NeuronId(i as u32);
        }

        let params = source_of
            .iter()
            .map(|g| net.params_slice()[g.index()])
            .collect();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for g in &source_of {
            offsets.push(offsets[offsets.len() - 1] + csr.out(g.index()).len());
        }

        // Fill: partition `q`'s rows are one contiguous chunk of the
        // synapse array, each row in its CSR order with targets
        // renumbered, so the fills are disjoint `&mut` chunks (locked only
        // because `par_map` hands its jobs an index; each chunk has one
        // job) and the jobs also count their row of `pair_cut`. The array
        // starts as a copy of the source synapses, every slot overwritten.
        let mut synapses = csr.all().to_vec();
        let row_bounds: Vec<usize> = bounds.iter().map(|&b| offsets[b]).collect();
        let chunks: Vec<Mutex<&mut [Synapse]>> = split_at_bounds(&mut synapses, &row_bounds)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let fill = |q: usize| -> Vec<u64> {
            let mut chunk = chunks[q].lock().expect("fill chunk poisoned");
            let rows = source_of[bounds[q]..bounds[q + 1]]
                .iter()
                .flat_map(|g| csr.out(g.index()));
            let mut pair_cut = vec![0u64; parts];
            for (slot, s) in chunk.iter_mut().zip(rows) {
                pair_cut[assignment[s.target.index()] as usize] += 1;
                *slot = Synapse {
                    target: new_of[s.target.index()],
                    ..*s
                };
            }
            pair_cut[q] = 0; // in-range synapses are not cut
            pair_cut
        };
        let pair_cut = par_map(parts, threads, || (), |(), q| fill(q)).concat();
        let cut_edge_count = pair_cut.iter().sum();

        Ok(Self {
            net: Box::new(Network::from_frozen(
                params,
                CsrTopology::from_parts(offsets, synapses),
                Vec::new(),
                Vec::new(),
                None,
                net.max_delay(),
            )),
            bounds,
            source_of,
            new_of,
            terminal: net.terminal(),
            pair_cut,
            cut_edge_count,
        })
    }

    /// Number of partitions (including any that received no neurons).
    #[must_use]
    pub fn parts(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Neuron count of the source network.
    #[must_use]
    pub fn neuron_count(&self) -> usize {
        self.source_of.len()
    }

    /// Maximum synaptic delay of the *source* network. Every partition's
    /// scheduler wheel is sized to this global value so that in-horizon
    /// vs overflow classification — and therefore drain order — matches
    /// the monolithic wheel exactly.
    #[must_use]
    pub fn max_delay(&self) -> u32 {
        self.net.max_delay()
    }

    /// Terminal neuron of the source network (original id), if designated.
    #[must_use]
    pub fn terminal(&self) -> Option<NeuronId> {
        self.terminal
    }

    /// The renumbered network: partition `q`'s neurons are the ids
    /// [`Self::range`]`(q)`, every synapse target is a new id.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Partition id ranges over the renumbered network: partition `q`
    /// owns `bounds()[q]..bounds()[q + 1]`.
    #[must_use]
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// The new-id range partition `q` owns.
    #[must_use]
    pub fn range(&self, q: usize) -> Range<usize> {
        self.bounds[q]..self.bounds[q + 1]
    }

    /// The partition owning new id `id`.
    #[must_use]
    pub fn part_of(&self, id: usize) -> usize {
        // The last range starting at or before `id`, skipping empty ones.
        self.bounds.partition_point(|&b| b <= id) - 1
    }

    /// New id -> original id, ascending within each partition.
    #[must_use]
    pub fn source_of(&self) -> &[NeuronId] {
        &self.source_of
    }

    /// The new id of original neuron `id`.
    #[must_use]
    pub fn new_id(&self, id: NeuronId) -> NeuronId {
        self.new_of[id.index()]
    }

    /// Total boundary synapses (the static edge cut).
    #[must_use]
    pub fn cut_edge_count(&self) -> u64 {
        self.cut_edge_count
    }

    /// Boundary synapses from partition `from` into partition `to`.
    #[must_use]
    pub fn pair_cut(&self, from: usize, to: usize) -> u64 {
        self.pair_cut[from * self.parts() + to]
    }

    /// Total heap footprint of the compiled plan: the renumbered
    /// network's own [`Network::memory_bytes`] accounting plus the
    /// bounds, the two id maps and `pair_cut`. Per-run scratch —
    /// partition wheels, lazy-decay state and cut-spike mailboxes — is
    /// not the plan's and is not counted. Partitioning does not escape
    /// the cost of the network itself; it bounds the cost per address
    /// space plus a cut-proportional overhead.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.net.memory_bytes()
            + self.bounds.capacity() * size_of::<usize>()
            + (self.source_of.capacity() + self.new_of.capacity()) * size_of::<NeuronId>()
            + self.pair_cut.capacity() * size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::super::cut::RangePartitioner;
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

    /// Synapses whose target lies outside their source's range.
    fn out_of_range(plan: &PartitionPlan) -> u64 {
        (0..plan.parts())
            .flat_map(|q| plan.range(q).map(move |i| (q, i)))
            .flat_map(|(q, i)| plan.network().csr().out(i).iter().map(move |s| (q, s)))
            .filter(|(q, s)| !plan.range(*q).contains(&s.target.index()))
            .count() as u64
    }

    #[test]
    fn compile_conserves_neurons_and_synapses() {
        let net = ring(10, 3);
        let plan = PartitionPlan::compile(&net, 4, &RangePartitioner).unwrap();
        assert_eq!(plan.network().neuron_count(), 10);
        assert_eq!(plan.network().synapse_count(), 10);
        // Range split of a 10-ring into [3,3,3,1]: one cut per block edge
        // plus the wrap edge.
        assert_eq!(plan.bounds(), &[0, 3, 6, 9, 10]);
        assert_eq!(plan.cut_edge_count(), 4);
        assert_eq!(out_of_range(&plan), 4);
        assert_eq!(plan.max_delay(), 3);
    }

    #[test]
    fn new_ids_ascend_with_original_ids_within_each_range() {
        let net = ring(9, 1);
        let assignment = [2u32, 0, 1, 2, 0, 1, 2, 0, 1];
        struct Fixed([u32; 9]);
        impl Partitioner for Fixed {
            fn assign(&self, _net: &Network, _parts: usize) -> Vec<u32> {
                self.0.to_vec()
            }
        }
        let plan = PartitionPlan::compile(&net, 3, &Fixed(assignment)).unwrap();
        assert_eq!(plan.bounds(), &[0, 3, 6, 9]);
        for q in 0..3 {
            let originals = &plan.source_of()[plan.range(q)];
            assert!(originals.windows(2).all(|w| w[0] < w[1]));
            for (i, &g) in plan.range(q).zip(originals) {
                assert_eq!(plan.new_id(g).index(), i);
                assert_eq!(plan.part_of(i), q);
                assert_eq!(assignment[g.index()] as usize, q);
            }
        }
        // Row i is original row source_of[i], targets renumbered.
        for (i, &g) in plan.source_of().iter().enumerate() {
            let next = NeuronId(((g.index() + 1) % 9) as u32);
            assert_eq!(plan.network().csr().out(i)[0].target, plan.new_id(next));
        }
    }

    #[test]
    fn part_of_skips_empty_ranges() {
        struct Fixed;
        impl Partitioner for Fixed {
            fn assign(&self, _net: &Network, _parts: usize) -> Vec<u32> {
                vec![1, 3, 1, 3, 1, 3]
            }
        }
        let plan = PartitionPlan::compile(&ring(6, 1), 5, &Fixed).unwrap();
        assert_eq!(plan.bounds(), &[0, 0, 3, 3, 6, 6]);
        let owners: Vec<usize> = (0..6).map(|i| plan.part_of(i)).collect();
        assert_eq!(owners, [1, 1, 1, 3, 3, 3]);
    }

    #[test]
    fn renumbered_network_is_born_frozen() {
        let net = ring(6, 2);
        let plan = PartitionPlan::compile(&net, 2, &RangePartitioner).unwrap();
        assert!(plan.network().is_frozen());
        assert_eq!(plan.network().terminal(), None);
    }

    #[test]
    fn single_partition_has_no_cut() {
        let net = ring(8, 2);
        let plan = PartitionPlan::compile(&net, 1, &RangePartitioner).unwrap();
        assert_eq!(plan.cut_edge_count(), 0);
        assert_eq!(plan.network().synapse_count(), 8);
        assert_eq!(
            plan.network().csr(),
            net.csr(),
            "one range renumbers nothing"
        );
    }

    #[test]
    fn memory_accounting_covers_network_and_id_maps() {
        let net = ring(32, 2);
        let plan = PartitionPlan::compile(&net, 4, &RangePartitioner).unwrap();
        let id_maps = 2 * 32 * std::mem::size_of::<NeuronId>();
        assert!(plan.cut_edge_count() > 0);
        assert!(plan.memory_bytes() >= plan.network().memory_bytes() + id_maps);
    }

    #[test]
    fn parallel_compile_matches_sequential() {
        // 1500 neurons x 25 fanout = ~39k work units: above
        // PARALLEL_COMPILE_MIN_WORK, so 4 threads take the pooled path.
        let n = 1500;
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), n);
        for i in 0..n {
            for k in 1..=25 {
                let j = (i + k * 53) % n;
                net.connect(ids[i], ids[j], 0.5, 1 + (k % 3) as u32)
                    .unwrap();
            }
        }
        assert!(n + net.synapse_count() >= PARALLEL_COMPILE_MIN_WORK);
        let seq = PartitionPlan::compile_with_threads(&net, 4, &RangePartitioner, 1).unwrap();
        let par = PartitionPlan::compile_with_threads(&net, 4, &RangePartitioner, 4).unwrap();
        assert_eq!(seq.cut_edge_count(), par.cut_edge_count());
        assert_eq!(seq.bounds(), par.bounds());
        assert_eq!(seq.source_of(), par.source_of());
        assert_eq!(seq.network().csr(), par.network().csr());
        assert_eq!(seq.network().params_slice(), par.network().params_slice());
        for p in 0..4 {
            for q in 0..4 {
                assert_eq!(seq.pair_cut(p, q), par.pair_cut(p, q));
            }
        }
        assert_eq!(seq.memory_bytes(), par.memory_bytes());
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
            PartitionPlan::compile(&net, 2, &RangePartitioner),
            Err(SnnError::SpontaneousNeuron(_))
        ));
    }
}
