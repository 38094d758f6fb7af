//! Partitioned SNN execution: edge-cut compilation, inter-partition
//! spike channels, and bulk-synchronous tick exchange.
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
//! Three layers:
//!
//! * [`cut`] — pluggable [`Partitioner`] strategies producing a
//!   neuron → partition assignment ([`RangePartitioner`],
//!   [`BfsGrowPartitioner`]).
//! * [`plan`] — [`PartitionPlan::compile`] splits the CSR into frozen
//!   sub-networks (via the `NetworkBuilder` counting-sort path) plus
//!   [`CutSynapse`] tables, and accounts the whole footprint in
//!   [`PartitionPlan::memory_bytes`].
//! * [`engine`] — [`PartitionedEngine`] drives the sub-networks in
//!   bulk-synchronous supersteps, exchanging [`channel::SpikeEvent`]s
//!   over SPSC [`channel::SpikeChannel`] rings. Because every synapse
//!   has delay >= 1, the exchange horizon is exactly one tick.
//! * [`driver`] — the threaded BSP driver: a persistent worker pool
//!   where each worker owns a fixed set of partitions and meets the
//!   others at a tiered barrier between the compute and merge phases.
//!   Engaged by [`PartitionedEngine::with_threads`] (or the `threads`
//!   argument of [`PartitionPlan::run_with_stats_threaded`]);
//!   `threads <= 1` stays on the sequential driver with zero barrier
//!   overhead.
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

pub use channel::{SpikeChannel, SpikeEvent};
pub use cut::{BfsGrowPartitioner, CutStrategy, Partitioner, RangePartitioner};
pub use engine::{ChannelTraffic, PartitionRunStats, PartitionedEngine, WorkerStats};
pub use plan::{CutSynapse, PartitionPlan};
