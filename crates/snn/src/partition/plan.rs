//! Partition plans: a network compiled into frozen sub-networks plus cut
//! tables.
//!
//! Compilation splits each source neuron's CSR row into *intra* synapses
//! (both endpoints in one partition — recompiled into that partition's
//! sub-[`Network`] through the `NetworkBuilder` counting-sort path) and
//! *cut* synapses (endpoints in different partitions — rewritten into
//! [`CutSynapse`] entries that the engine turns into mailbox traffic).
//! Because the split is per source row and both halves keep CSR order,
//! every target still receives its deliveries in the monolithic order
//! once the engine's exchange merge recombines the streams.
//!
//! Local ids within a partition are assigned in ascending *global* id
//! order. That single choice is what makes the runtime merge cheap: a
//! partition's fired list sorted by local id is already sorted by global
//! id, and a peer's outbound batch (fired list × cut rows) arrives sorted
//! by global source id.

use crate::builder::NetworkBuilder;
use crate::engine::par_map;
use crate::error::SnnError;
use crate::network::Network;
use crate::types::{NeuronId, Time};

use super::cut::Partitioner;

/// Compile-size floor (neurons + synapses) below which
/// [`PartitionPlan::compile_with_threads`] builds partitions
/// sequentially: under this much work the per-thread spawn cost
/// outweighs the fan-out.
pub const PARALLEL_COMPILE_MIN_WORK: usize = 32_768;

/// One partition's compile output: the frozen sub-network, the
/// CSR-style per-source offsets into the cut table, and the cut table.
type BuiltPartition = (Network, Vec<usize>, Vec<CutSynapse>);

/// One boundary synapse, rewritten for mailbox transport: the owner of
/// the source pushes `(due, target_local, weight)` to partition `part`
/// whenever the source fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CutSynapse {
    /// Destination partition.
    pub part: u32,
    /// Target neuron as a local id in the destination partition.
    pub target_local: u32,
    /// Synaptic weight.
    pub weight: f64,
    /// Synaptic delay in ticks (>= 1, inherited from the source network).
    pub delay: u32,
}

/// A network compiled for partitioned execution: one frozen sub-network
/// per partition, per-source cut tables, and the id maps linking local to
/// global neuron ids.
#[derive(Debug)]
pub struct PartitionPlan {
    parts: usize,
    n_total: usize,
    max_delay: u32,
    terminal: Option<NeuronId>,
    /// Global neuron id -> owning partition.
    assignment: Vec<u32>,
    /// Global neuron id -> local id within its partition.
    local_of: Vec<u32>,
    /// Per partition: local id -> global id, ascending.
    globals: Vec<Vec<NeuronId>>,
    /// Per partition: the frozen intra-partition sub-network.
    subnets: Vec<Network>,
    /// Per partition: CSR-style offsets into `cut_syn` per local source
    /// (length `local_count + 1`).
    cut_offsets: Vec<Vec<usize>>,
    /// Per partition: cut synapses grouped by local source, CSR order.
    cut_syn: Vec<Vec<CutSynapse>>,
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

    /// [`Self::compile`] with an explicit thread count for the
    /// per-partition sub-network builds. The builds are independent
    /// (each reads the shared CSR and writes only its own partition's
    /// tables), so they fan out through [`crate::engine::par_map`]; the
    /// resulting plan is identical to a sequential compile, and build
    /// errors surface in partition order. Small compiles (below
    /// [`PARALLEL_COMPILE_MIN_WORK`] neurons + synapses) stay sequential
    /// — thread spawns would cost more than the build.
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
        let csr = net.csr();
        let params = net.params_slice();

        // Local ids in ascending global order (see module docs).
        let mut globals: Vec<Vec<NeuronId>> = vec![Vec::new(); parts];
        let mut local_of = vec![0u32; n];
        for g in 0..n {
            let p = assignment[g] as usize;
            local_of[g] = u32::try_from(globals[p].len()).expect("partition too large");
            globals[p].push(NeuronId(g as u32));
        }

        // Pre-count intra/cut synapses per partition for exact capacity.
        let mut intra_counts = vec![0usize; parts];
        let mut cut_counts = vec![0usize; parts];
        let mut pair_cut = vec![0u64; parts * parts];
        for g in 0..n {
            let ps = assignment[g] as usize;
            for s in csr.out(g) {
                let pt = assignment[s.target.index()] as usize;
                if pt == ps {
                    intra_counts[ps] += 1;
                } else {
                    cut_counts[ps] += 1;
                    pair_cut[ps * parts + pt] += 1;
                }
            }
        }
        let cut_edge_count = pair_cut.iter().sum();

        // Per-partition sub-network builds: independent by construction
        // (partition `p` reads the shared CSR and writes only its own
        // builder + cut table), so they fan out through `par_map` when
        // the compile is big enough to pay for the spawns. Results come
        // back in partition order, so the compiled plan — and which
        // error wins when several partitions fail — is identical to the
        // sequential build.
        let build_one = |p: usize| -> Result<BuiltPartition, SnnError> {
            let mut b = NetworkBuilder::with_capacity(globals[p].len(), intra_counts[p]);
            let mut offs = Vec::with_capacity(globals[p].len() + 1);
            let mut cuts: Vec<CutSynapse> = Vec::with_capacity(cut_counts[p]);
            offs.push(0);
            for (l, &g) in globals[p].iter().enumerate() {
                let local = b.add_neuron(params[g.index()]);
                debug_assert_eq!(local.index(), l);
                for s in csr.out(g.index()) {
                    let pt = assignment[s.target.index()] as usize;
                    if pt == p {
                        b.connect(
                            local,
                            NeuronId(local_of[s.target.index()]),
                            s.weight,
                            s.delay,
                        );
                    } else {
                        cuts.push(CutSynapse {
                            part: pt as u32,
                            target_local: local_of[s.target.index()],
                            weight: s.weight,
                            delay: s.delay,
                        });
                    }
                }
                offs.push(cuts.len());
            }
            Ok((b.build()?, offs, cuts))
        };

        let threads = if n + net.synapse_count() >= PARALLEL_COMPILE_MIN_WORK {
            threads
        } else {
            1
        };
        let built = par_map(parts, threads, || (), |(), p| build_one(p));

        let mut subnets = Vec::with_capacity(parts);
        let mut cut_offsets = Vec::with_capacity(parts);
        let mut cut_syn = Vec::with_capacity(parts);
        for r in built {
            let (sub, offs, cuts) = r?;
            subnets.push(sub);
            cut_offsets.push(offs);
            cut_syn.push(cuts);
        }

        Ok(Self {
            parts,
            n_total: n,
            max_delay: net.max_delay(),
            terminal: net.terminal(),
            assignment,
            local_of,
            globals,
            subnets,
            cut_offsets,
            cut_syn,
            pair_cut,
            cut_edge_count,
        })
    }

    /// Number of partitions (including any that received no neurons).
    #[must_use]
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Neuron count of the source network.
    #[must_use]
    pub fn neuron_count(&self) -> usize {
        self.n_total
    }

    /// Maximum synaptic delay of the *source* network. Every partition's
    /// scheduler wheel is sized to this global value so that in-horizon
    /// vs overflow classification — and therefore drain order — matches
    /// the monolithic wheel exactly.
    #[must_use]
    pub fn max_delay(&self) -> u32 {
        self.max_delay
    }

    /// Terminal neuron of the source network (global id), if designated.
    #[must_use]
    pub fn terminal(&self) -> Option<NeuronId> {
        self.terminal
    }

    /// Global neuron id -> owning partition.
    #[must_use]
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Global neuron id -> local id within its owning partition.
    #[must_use]
    pub fn local_of(&self) -> &[u32] {
        &self.local_of
    }

    /// Local id -> global id for partition `p`, in ascending global order.
    #[must_use]
    pub fn globals(&self, p: usize) -> &[NeuronId] {
        &self.globals[p]
    }

    /// The frozen sub-network of partition `p`.
    #[must_use]
    pub fn subnet(&self, p: usize) -> &Network {
        &self.subnets[p]
    }

    /// Cut synapses of local source `l` in partition `p`, CSR order.
    #[must_use]
    pub fn cut_out(&self, p: usize, l: usize) -> &[CutSynapse] {
        &self.cut_syn[p][self.cut_offsets[p][l]..self.cut_offsets[p][l + 1]]
    }

    /// Total boundary synapses (the static edge cut).
    #[must_use]
    pub fn cut_edge_count(&self) -> u64 {
        self.cut_edge_count
    }

    /// Boundary synapses from partition `from` into partition `to`.
    #[must_use]
    pub fn pair_cut(&self, from: usize, to: usize) -> u64 {
        self.pair_cut[from * self.parts + to]
    }

    /// Absolute arrival tick of a cut synapse for a source firing at `t`.
    #[inline]
    pub(crate) fn due(t: Time, s: &CutSynapse) -> Time {
        t + Time::from(s.delay)
    }

    /// Total heap footprint of the compiled plan: every sub-network's own
    /// [`Network::memory_bytes`] accounting, the cut tables and the id
    /// maps. Per-run scratch — partition states and cut-spike mailboxes —
    /// is not the plan's and is not counted. Partitioning does not escape
    /// the cost of the network itself; it bounds the cost per address
    /// space plus a cut-proportional overhead.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = 0usize;
        for sub in &self.subnets {
            total += sub.memory_bytes();
        }
        for offs in &self.cut_offsets {
            total += offs.capacity() * size_of::<usize>();
        }
        for cuts in &self.cut_syn {
            total += cuts.capacity() * size_of::<CutSynapse>();
        }
        for g in &self.globals {
            total += g.capacity() * size_of::<NeuronId>();
        }
        total += self.assignment.capacity() * size_of::<u32>();
        total += self.local_of.capacity() * size_of::<u32>();
        total += self.pair_cut.capacity() * size_of::<u64>();
        total
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

    #[test]
    fn compile_conserves_neurons_and_synapses() {
        let net = ring(10, 3);
        let plan = PartitionPlan::compile(&net, 4, &RangePartitioner).unwrap();
        let sub_neurons: usize = (0..4).map(|p| plan.subnet(p).neuron_count()).sum();
        let sub_syn: u64 = (0..4).map(|p| plan.subnet(p).synapse_count() as u64).sum();
        assert_eq!(sub_neurons, 10);
        assert_eq!(sub_syn + plan.cut_edge_count(), 10);
        // Range split of a 10-ring into [3,3,3,1]: one cut per block edge
        // plus the wrap edge.
        assert_eq!(plan.cut_edge_count(), 4);
        assert_eq!(plan.max_delay(), 3);
    }

    #[test]
    fn local_ids_ascend_with_global_ids() {
        let net = ring(9, 1);
        let plan = PartitionPlan::compile(&net, 3, &RangePartitioner).unwrap();
        for p in 0..3 {
            let g = plan.globals(p);
            assert!(g.windows(2).all(|w| w[0] < w[1]));
            for (l, &gid) in g.iter().enumerate() {
                assert_eq!(plan.local_of()[gid.index()] as usize, l);
                assert_eq!(plan.assignment()[gid.index()] as usize, p);
            }
        }
    }

    #[test]
    fn subnets_are_born_frozen() {
        let net = ring(6, 2);
        let plan = PartitionPlan::compile(&net, 2, &RangePartitioner).unwrap();
        assert!(plan.subnet(0).is_frozen());
        assert!(plan.subnet(1).is_frozen());
    }

    #[test]
    fn single_partition_has_no_cut() {
        let net = ring(8, 2);
        let plan = PartitionPlan::compile(&net, 1, &RangePartitioner).unwrap();
        assert_eq!(plan.cut_edge_count(), 0);
        assert_eq!(plan.subnet(0).synapse_count(), 8);
    }

    #[test]
    fn memory_accounting_covers_subnets_and_cut_tables() {
        let net = ring(32, 2);
        let plan = PartitionPlan::compile(&net, 4, &RangePartitioner).unwrap();
        let sub_total: usize = (0..4).map(|p| plan.subnet(p).memory_bytes()).sum();
        let cut_total = plan.cut_edge_count() as usize * std::mem::size_of::<CutSynapse>();
        assert!(plan.cut_edge_count() > 0);
        assert!(plan.memory_bytes() >= sub_total + cut_total);
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
        assert_eq!(seq.assignment(), par.assignment());
        assert_eq!(seq.local_of(), par.local_of());
        for p in 0..4 {
            assert_eq!(seq.globals(p), par.globals(p));
            assert_eq!(seq.subnet(p).neuron_count(), par.subnet(p).neuron_count());
            assert_eq!(seq.subnet(p).synapse_count(), par.subnet(p).synapse_count());
            assert_eq!(seq.cut_out(p, 0), par.cut_out(p, 0));
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
