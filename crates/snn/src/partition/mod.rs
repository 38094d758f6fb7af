//! Partitioned SNN execution: edge-cut compilation, inter-partition
//! spike mailboxes, and bulk-synchronous tick exchange.
//!
//! The monolithic engines hold one [`crate::Network`] in one address
//! space; at the n = 10^5..10^6 scale the paper's Table-1 bounds invite,
//! that stops fitting. This module follows the multi-chip scaling recipe
//! of von Seeler et al. (*Road to scalability for efficient graph search
//! on massively parallel neuromorphic hardware*): partition the neuron
//! set into contiguous id ranges of the network itself, run the
//! partitions independently, and pay only for cut-edge spike traffic —
//! all inter-partition communication is pure spike events, per Hamilton,
//! Mintz & Schuman's spike-based primitives discipline.
//!
//! Three layers:
//!
//! * [`plan`] — [`PartitionPlan::compile`] borrows the network and gives
//!   partition `q` the id range `bounds[q]..bounds[q + 1]` of `⌈n/parts⌉`
//!   neurons (a synapse is cut exactly when its target lies outside that
//!   range); the plan holds only the bounds and per-pair cut counts,
//!   accounted by [`PartitionPlan::memory_bytes`]. A different cut is a
//!   build-time renumbering of the network.
//! * [`engine`] — [`PartitionedEngine`] and the per-partition phases of
//!   a bulk-synchronous superstep: compute (the event engine's own
//!   update step over the partition's slice of one
//!   [`crate::engine::RunScratch`]), then exchange [`channel::SpikeEvent`]s
//!   through one per-run mailbox per ordered partition pair with a cut
//!   edge — a plain `Vec` the barrier hands from producer to consumer. Because
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
//! count or bounds *and any thread count*; the differential proptests
//! in `tests/engine_equivalence.rs` enforce this at 1/2/4/8 partitions,
//! under default and drawn bounds, and 1/2/4 worker threads.

pub mod channel;
mod driver;
pub mod engine;
pub mod plan;

pub use channel::SpikeEvent;
pub use engine::{ChannelTraffic, PartitionRunStats, PartitionedEngine, WorkerStats};
pub use plan::PartitionPlan;
