//! # sgl-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation as
//! measured artifacts. Each `table*`/`fig*` module computes the rows for
//! one artifact; the `src/bin/*` binaries print them, and the timing bins
//! (`engines`, `apsp_batch`, `compile`, `partition`) measure wall-clock
//! time of the underlying engines and algorithms through
//! [`report::measure`]. EXPERIMENTS.md records paper-vs-measured for
//! each artifact.
//!
//! All workloads are seeded, so every run regenerates identical numbers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Indexed loops over several parallel per-node arrays are the house style
// for the graph/neuron kernels here; iterator zips would obscure them.
#![allow(clippy::needless_range_loop)]

pub mod approx;
pub mod distance_bounds;
pub mod parallel;
pub mod report;
pub mod synth;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod tablefmt;

pub use tablefmt::print_table;
