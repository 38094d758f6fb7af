//! # sgl-snn — discrete-time spiking neural network simulator
//!
//! Implements the leaky-integrate-and-fire (LIF) system and neuron models of
//! Aimone et al., *Provable Advantages for Graph Algorithms in Spiking Neural
//! Networks* (SPAA 2021), Definitions 1–3.
//!
//! A [`Network`] is a directed graph of LIF neurons. Each neuron `j` carries
//! programmable parameters `(v_reset, v_threshold, tau)` and each synapse
//! `i -> j` carries a weight `w_ij` and an integer delay `d_ij >= 1`.
//! Dynamics per time step `t >= 1`:
//!
//! ```text
//! v̂_j(t) = v_j(t-1) - (v_j(t-1) - v_reset) * tau + v_syn_j(t)
//! f_j(t) = 1  iff  v̂_j(t) > v_threshold
//! v_j(t) = v_reset if f_j(t) = 1, else v̂_j(t)
//! ```
//!
//! where `v_syn_j(t)` sums `w_ij` over synapses whose source fired at time
//! `t - d_ij`. This convention makes `d_ij` the *total* latency of a synapse:
//! a spike emitted at time `t` can cause the downstream neuron to fire at
//! exactly `t + d_ij`, so a feed-forward circuit of depth `q` with unit
//! delays produces its output at time `q`, and the delay-encoded shortest
//! path algorithms of the paper read distances directly off spike times.
//! (The paper's Eqs. (1)–(4) index the synaptic sum one step earlier; we
//! absorb that constant so the minimum-latency synapse costs one step,
//! matching the paper's assumption that "feed-forward circuits of threshold
//! gates can run in time proportional to depth".)
//!
//! Two execution engines are provided and tested for equivalence:
//!
//! * [`engine::DenseEngine`] — literal time-stepped implementation; updates
//!   every neuron every step. Transparent and robust; use for small nets.
//! * [`engine::EventEngine`] — event-driven implementation that only touches
//!   neurons when spikes arrive, applying voltage decay lazily. This is the
//!   engine that gives the practical scalability the paper argues for:
//!   cost is proportional to spike traffic, not `neurons x steps`.
//!
//! ## Quick example
//!
//! ```
//! use sgl_snn::{Network, LifParams, engine::{Engine, EventEngine, RunConfig}};
//!
//! let mut net = Network::new();
//! let a = net.add_neuron(LifParams::gate(1.0));
//! let b = net.add_neuron(LifParams::gate(1.0));
//! net.connect(a, b, 1.5, 3).unwrap(); // weight 1.5, delay 3
//! net.set_terminal(b);
//!
//! let result = EventEngine.run(&net, &[a], &RunConfig::until_terminal(100)).unwrap();
//! assert_eq!(result.first_spike(b), Some(3));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Indexed loops over several parallel per-node arrays are the house style
// for the graph/neuron kernels here; iterator zips would obscure them.
#![allow(clippy::needless_range_loop)]

pub mod analysis;
pub mod audit;
pub mod builder;
pub mod encoding;
pub mod engine;
pub mod error;
pub mod network;
pub mod params;
pub mod partition;
pub mod probe;
pub mod raster;
pub mod types;

pub use builder::NetworkBuilder;
pub use encoding::{read_value, value_to_bits};
pub use engine::{
    run_jobs, BatchRunner, BitplaneEngine, DenseEngine, Engine, EngineChoice, EventEngine,
    NullObserver, ParallelDenseEngine, Prepared, RunConfig, RunObserver, RunResult, RunScratch,
    RunSpec, SimStats, StopCondition, StopReason, TimeSeriesObserver,
};
pub use error::SnnError;
pub use network::{BitplaneTopology, Network, Synapse};
pub use params::LifParams;
pub use partition::{PartitionPlan, PartitionRunStats, PartitionedEngine, WorkerStats};
pub use raster::SpikeRaster;
pub use types::{NeuronId, Time};
