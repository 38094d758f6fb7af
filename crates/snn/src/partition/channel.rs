//! The inter-partition spike message.
//!
//! One mailbox exists per ordered partition pair `(from, to)` with at
//! least one cut synapse, created per run by the superstep driver. The
//! owner of a firing source appends one [`SpikeEvent`] per cut synapse
//! during the compute phase; the receiving partition takes the whole
//! mailbox during the merge phase of the same bulk-synchronous
//! superstep. The barrier between the two phases orders every append
//! before every take, so a mailbox is a plain `Vec` behind a lock that is
//! never contended, and its events stay in push order — the order the
//! receiver's k-way merge (and therefore floating-point accumulation
//! order) relies on to stay bit-identical to a monolithic run.

use crate::types::Time;

/// One boundary-synapse delivery in flight between partitions.
///
/// `src` is the *global* id of the firing neuron: the receiver merges
/// inbound mailbox streams with its own intra-partition routing by global
/// source id, which reproduces the monolithic engines' (sorted firing id)
/// × (CSR synapse order) scheduling order exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpikeEvent {
    /// Global id of the neuron that fired.
    pub src: u32,
    /// Absolute arrival tick (`firing tick + synapse delay`).
    pub due: Time,
    /// Target neuron, as a local id in the *destination* partition.
    pub target_local: u32,
    /// Synaptic weight delivered on arrival.
    pub weight: f64,
}
