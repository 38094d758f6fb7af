//! Partitioned SNN execution: edge-cut compilation, inter-partition
//! spike mailboxes, and bulk-synchronous tick exchange.
//!
//! The monolithic engines hold one [`crate::Network`] in one address
//! space; at the n = 10^5..10^6 scale the paper's Table-1 bounds invite,
//! that stops fitting. This module follows the multi-chip scaling recipe
//! of von Seeler et al. (*Road to scalability for efficient graph search
//! on massively parallel neuromorphic hardware*): partition the neuron
//! set, compile one frozen sub-network per partition, run the partitions
//! independently, and pay only for cut-edge spike traffic — all
//! inter-partition communication is pure spike events, per Hamilton,
//! Mintz & Schuman's spike-based primitives discipline.
//!
//! Four layers:
//!
//! * [`cut`] — pluggable [`Partitioner`] strategies producing a
//!   neuron → partition assignment ([`RangePartitioner`],
//!   [`BfsGrowPartitioner`]).
//! * [`plan`] — [`PartitionPlan::compile`] splits the CSR into frozen
//!   sub-networks (via the `NetworkBuilder` counting-sort path) plus
//!   [`CutSynapse`] tables, and accounts the whole footprint in
//!   [`PartitionPlan::memory_bytes`].
//! * [`engine`] — [`PartitionedEngine`] and the per-partition phases of
//!   a bulk-synchronous superstep: compute (the event engine's own
//!   update step), then exchange [`channel::SpikeEvent`]s through one
//!   per-run mailbox per ordered partition pair with a cut edge — a
//!   plain `Vec` the barrier hands from producer to consumer. Because
//!   every synapse has delay >= 1, the exchange horizon is exactly one
//!   tick.
//! * `driver` — the one superstep loop, for every thread count: each
//!   worker owns a fixed set of partitions and runs one worker body per
//!   superstep; the coordinator folds the workers' reports into the
//!   recorder and the observer. With one worker
//!   ([`PartitionedEngine::with_threads`] `<= 1`, or one busy partition)
//!   the coordinator runs the body inline — no thread, no barrier;
//!   otherwise a persistent pool runs it between tiered barrier
//!   crossings.
//!
//! Results are bit-identical to [`crate::engine::EventEngine`] — same
//! spike times, same raster, same work counters — under any partition
//! count or strategy *and any thread count*; the differential proptests
//! in `tests/engine_equivalence.rs` enforce this at 1/2/4/8 partitions
//! and 1/2/4 worker threads.

pub mod channel;
pub mod cut;
mod driver;
pub mod engine;
pub mod plan;

pub use channel::SpikeEvent;
pub use cut::{BfsGrowPartitioner, CutStrategy, Partitioner, RangePartitioner};
pub use engine::{ChannelTraffic, PartitionRunStats, PartitionedEngine, WorkerStats};
pub use plan::{CutSynapse, PartitionPlan};
