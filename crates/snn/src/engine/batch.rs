//! Batched execution: one network, many runs, recycled state.
//!
//! The paper's headline workloads are many independent wavefronts over
//! one network — APSP launches the §3 SSSP circuit from every source, and
//! §2.3 aggregates chips executing the same graph-as-SNN in parallel. For
//! those workloads per-run setup (network validation, wheel and buffer
//! allocation) dominates once the runs themselves are fast, which is the
//! same observation the SpiNNaker "road to scalability" line makes: graph
//! search throughput comes from reusing the loaded network across
//! queries, not from per-query programming.
//!
//! This module provides that reuse in four pieces:
//!
//! * [`Prepared`] — an engine made ready for one network by
//!   [`EngineChoice::prepare`]: `Auto` resolved, the network validated
//!   under the chosen engine's rules, a partitioned choice's plan
//!   compiled. Its one [`Prepared::run`] repeats none of that, so every
//!   run path in the crate (the engines' own [`super::Engine::run`], the
//!   batch pool, the serve cache) is prepare once, run many.
//! * [`RunScratch`] — every transient buffer a run needs (time wheel,
//!   voltages, synaptic accumulators, spike lists). [`RunScratch::reset`]
//!   restores the exact observable state a fresh construction would
//!   have, *without* releasing capacity, so recycled runs are
//!   bit-identical to fresh ones (a proptest in `tests/batch_identity.rs`
//!   holds all three engines to this).
//! * [`BatchRunner`] — executes a set of [`RunSpec`]s against one shared
//!   network through [`super::par_map`]: each worker owns one scratch and
//!   claims runs off an atomic work-stealing index, so a slow wavefront
//!   never stalls the others. The engine is prepared once per batch,
//!   not once per run.
//! * [`run_jobs`] — the same `par_map` fan-out, one scratch per worker,
//!   for heterogeneous jobs (each with its own network, prepared per
//!   job), used by the §7 approximate k-hop ensemble where every scale
//!   rounds edge lengths differently.
//!
//! Engine selection is per batch via [`EngineChoice`]: `Auto` picks the
//! event engine unless the network forces dense stepping (spontaneous
//! neurons) or is dense enough that per-step sorting of touched neurons
//! costs more than a linear sweep.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use sgl_observe::{BatchSummary, NullObserver, RunObserver};

use super::sync::par_map;
use super::wheel::TimeWheel;
use super::{BitplaneEngine, DenseEngine, EventEngine, ParallelDenseEngine, RunConfig, RunResult};
use crate::error::SnnError;
use crate::network::Network;
use crate::partition::{PartitionPlan, PartitionedEngine};
use crate::types::{NeuronId, Time};

/// Reusable per-run engine state: everything a run allocates that is not
/// part of its [`RunResult`].
///
/// A scratch starts empty and is sized to the network on first use; the
/// engines call [`Self::reset`] on entry, so any scratch can be handed to
/// any run against any network. Reset clears — it never shrinks — so a
/// worker cycling through same-sized runs reaches a steady state with no
/// allocation at all.
#[derive(Debug, Default)]
pub struct RunScratch {
    /// Pending synaptic deliveries (calendar queue over delays).
    pub(super) wheel: TimeWheel,
    /// Per-step drained delivery batch.
    pub(super) batch: Vec<(NeuronId, f64)>,
    /// Neurons that fired in the current step (sorted).
    pub(super) fired: Vec<NeuronId>,
    /// Membrane potentials, reset to each neuron's `v_reset`.
    pub(super) voltages: Vec<f64>,
    /// Event engine: last step each neuron's lazy decay was applied.
    pub(super) last_update: Vec<Time>,
    /// Synaptic input accumulator (all zeros between steps); the event
    /// engine uses it as its per-step `accum`.
    pub(super) syn: Vec<f64>,
    /// Event engine: membership bitmap for `touched_ids`.
    pub(super) dirty: Vec<bool>,
    /// Dense engine: indices with nonzero `syn` this step.
    pub(super) touched_idx: Vec<usize>,
    /// Event engine: neurons receiving input this step.
    pub(super) touched_ids: Vec<NeuronId>,
    /// Bit-plane engine: ring of spike-frontier bit-planes
    /// (`ring_len * words` u64 words).
    pub(super) bp_planes: Vec<u64>,
    /// Bit-plane engine: per-ring-slot "any bit set" flags.
    pub(super) bp_nonempty: Vec<bool>,
    /// Bit-plane engine: the current step's fired bits (`words` words).
    pub(super) bp_fired_words: Vec<u64>,
    /// Bit-plane engine: beyond-horizon deliveries by arrival time (the
    /// ring's analogue of the wheel's overflow map).
    pub(super) bp_overflow: BTreeMap<Time, Vec<(NeuronId, f64)>>,
}

impl RunScratch {
    /// An empty scratch; the first run sizes it to its network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Restores the state a fresh engine construction would produce for
    /// `net`: wheel re-sized to the network's delay horizon and emptied
    /// (including calendar overflow), voltages at `v_reset`, accumulators
    /// zeroed, spike lists cleared. Capacity is retained, so resetting
    /// between same-sized runs never allocates.
    pub fn reset(&mut self, net: &Network) {
        let n = net.neuron_count();
        self.wheel.reset(net.max_delay());
        self.batch.clear();
        self.fired.clear();
        self.voltages.clear();
        self.voltages
            .extend(net.params_slice().iter().map(|p| p.v_reset));
        self.last_update.clear();
        self.last_update.resize(n, 0);
        self.syn.clear();
        self.syn.resize(n, 0.0);
        self.dirty.clear();
        self.dirty.resize(n, false);
        self.touched_idx.clear();
        self.touched_ids.clear();
        // The bit-plane engine re-sizes (zero-filling) these after reset,
        // so clearing to empty — capacity retained — is both cheap for the
        // other engines and pristine for the next bit-plane run.
        self.bp_planes.clear();
        self.bp_nonempty.clear();
        self.bp_fired_words.clear();
        self.bp_overflow.clear();
    }
}

/// Density crossover for [`EngineChoice::Auto`], as an inverse fraction
/// of `n²`: networks with `m >= n² / 4` synapses route to the bit-plane
/// engine, sparser ones to the event engine.
///
/// Measured, not guessed (BENCH_engines gather-mode gate networks,
/// `n ∈ {256, 1024}`, delays 1–9): at `m = n²/4` the bit-plane engine
/// beats the event engine ~3.8x (saturated frontiers make touched-set
/// bookkeeping pure overhead), and it stays ahead down to `m = n²/16`
/// (~1.5x at `n = 256`, ~3.9x at `n = 1024`). On the sparse delay-encoded
/// SSSP nets (`m = 4n`) the event engine wins ~1.4x by skipping quiet
/// steps. The threshold stays at a conservative `n²/4` because the
/// bit-plane advantage below it depends on *activity* density (saturated
/// frontiers), which edge density alone does not guarantee — and the
/// event engine is the asymptotic winner the paper banks on wherever
/// sparsity gives it a chance.
const DENSE_CROSSOVER_INV: u128 = 4;

/// Temporal-density gate for the bit-plane route: graph density alone
/// does not justify dense stepping when delays are huge, because a
/// delay-encoded wavefront then leaves almost every step quiet and the
/// event engine skips those steps entirely (a 2-neuron, delay-5000 edge
/// is "half of all possible edges" yet runs 5000× fewer updates
/// event-driven). Dense stepping walks at most this many empty steps
/// between any fire and its furthest in-flight arrival.
const DENSE_MAX_DELAY: u32 = 64;

/// Default monolithic-footprint budget for [`EngineChoice::Auto`]'s
/// partitioned route, in bytes. Networks whose [`Network::memory_bytes`]
/// stays within the budget run on a single engine (partitioning buys
/// nothing and costs cut traffic); larger ones route to
/// [`crate::partition::PartitionedEngine`], which bounds the per-address-
/// space footprint. Callers with real budgets (a chip's SRAM, a cgroup
/// limit) pass their own via [`EngineChoice::resolve_with_partition_budget`].
pub const DEFAULT_PARTITION_MEMORY_BUDGET: usize = 1 << 30;

/// Most partitions the `Auto` gate will pick on its own. Explicit
/// [`EngineChoice::Partitioned`] choices are not clamped.
const AUTO_MAX_PARTS: usize = 16;

/// Which engine a batch (or job) runs on.
#[derive(Clone, Copy, Debug, Default)]
pub enum EngineChoice {
    /// Pick per network: [`DenseEngine`] when the network has spontaneous
    /// neurons (the event engine rejects them; the reference engine is
    /// the conservative choice), [`BitplaneEngine`] when the topology is
    /// dense in space — `m >= n² / DENSE_CROSSOVER_INV`, a measured
    /// crossover — *and* in time (`max_delay <= DENSE_MAX_DELAY`), so a
    /// word-parallel frontier sweep beats touched-set bookkeeping;
    /// [`EventEngine`] otherwise — the right default for the sparse,
    /// delay-encoded graph circuits the paper builds.
    #[default]
    Auto,
    /// Always the reference dense engine.
    Dense,
    /// Always the event-driven engine (fails on spontaneous neurons).
    Event,
    /// Always the bit-plane dense engine (dense semantics, wheel-free
    /// bitmask spike routing; see DESIGN.md "Bit-plane execution").
    Bitplane,
    /// Always the given thread-parallel dense engine. Note the batch
    /// runner already parallelizes *across* runs; nesting a parallel
    /// engine inside it oversubscribes unless the batch pool is small.
    Parallel(ParallelDenseEngine),
    /// Always the partitioned engine with `parts` partitions (default
    /// cut strategy; fails on spontaneous neurons, like `Event`). `Auto`
    /// also routes here when the monolithic footprint would exceed the
    /// partition memory budget, picking `parts` and `threads` together
    /// from the machine's core count.
    Partitioned {
        /// Number of partitions to compile and drive.
        parts: usize,
        /// Worker threads for the superstep loop (1 = inline, no pool).
        threads: usize,
    },
}

impl EngineChoice {
    /// Resolves `Auto` against a concrete network (identity for explicit
    /// choices), with the default partition memory budget. Exposed so
    /// callers can log or override what a batch would pick.
    #[must_use]
    pub fn resolve(self, net: &Network) -> Self {
        self.resolve_with_partition_budget(net, DEFAULT_PARTITION_MEMORY_BUDGET)
    }

    /// [`Self::resolve`] with an explicit memory budget (bytes) for the
    /// partitioned route: an `Auto` network whose
    /// [`Network::memory_bytes`] exceeds `budget` resolves to
    /// [`Self::Partitioned`] with enough partitions to bring each
    /// partition's share back under budget (capped; spontaneous networks
    /// still take the dense route, which the partitioned engine cannot
    /// replace). The partitioned pick is core-aware — see
    /// [`Self::resolve_with_budget_and_cores`], which this calls with
    /// [`std::thread::available_parallelism`].
    #[must_use]
    pub fn resolve_with_partition_budget(self, net: &Network, budget: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        self.resolve_with_budget_and_cores(net, budget, cores)
    }

    /// [`Self::resolve_with_partition_budget`] with the core count made
    /// explicit (and testable). When the memory gate fires, the pick is
    /// core-aware: `threads` is the largest worker count up to `cores`
    /// (never more than the memory-required partition count) for which
    /// rounding the partition count up to a multiple of `threads` stays
    /// within the `Auto` cap — so every worker owns the same number of
    /// partitions and no superstep waits on a straggler by construction.
    /// On a single-core machine this degrades to the former pick exactly:
    /// the memory-required partition count, driven sequentially.
    #[must_use]
    pub fn resolve_with_budget_and_cores(self, net: &Network, budget: usize, cores: usize) -> Self {
        match self {
            Self::Auto => {
                let n = net.neuron_count() as u128;
                let spontaneous = net.params_slice().iter().any(|p| !p.is_input_driven());
                // u128 arithmetic: `n * n` overflows u64 from n = 2^32,
                // and usize on 32-bit targets far earlier.
                let near_complete =
                    n > 0 && (net.synapse_count() as u128) * DENSE_CROSSOVER_INV >= n * n;
                let memory = net.memory_bytes();
                if spontaneous {
                    Self::Dense
                } else if memory > budget && budget > 0 {
                    let base = memory.div_ceil(budget).clamp(2, AUTO_MAX_PARTS);
                    let (parts, threads) = (1..=cores.clamp(1, base))
                        .rev()
                        .map(|t| (base.div_ceil(t) * t, t))
                        .find(|&(parts, _)| parts <= AUTO_MAX_PARTS)
                        .unwrap_or((base, 1));
                    Self::Partitioned { parts, threads }
                } else if near_complete && net.max_delay() <= DENSE_MAX_DELAY {
                    Self::Bitplane
                } else {
                    Self::Event
                }
            }
            explicit => explicit,
        }
    }

    /// Makes this choice ready to run `net`: resolves `Auto` (default
    /// partition budget), validates the network once under the chosen
    /// engine's rules, and for a partitioned choice compiles its
    /// [`PartitionPlan`] (whose compile is that choice's validation).
    /// `net` may be borrowed (`&Network`) or owned (`Network`, for a
    /// cache entry that outlives its builder).
    ///
    /// # Errors
    /// Fails when the network is invalid for the chosen engine: a bad
    /// parameter, a zero delay, a non-finite weight, or — for `Event` and
    /// `Partitioned` — a spontaneous neuron.
    pub fn prepare<N: Borrow<Network>>(self, net: N) -> Result<Prepared<N>, SnnError> {
        let g = net.borrow();
        let engine = match self {
            Self::Auto => return self.resolve(g).prepare(net),
            Self::Dense => {
                g.validate(false)?;
                Resolved::Dense
            }
            Self::Event => {
                g.validate(true)?;
                Resolved::Event
            }
            Self::Bitplane => {
                g.validate(false)?;
                Resolved::Bitplane
            }
            Self::Parallel(engine) => {
                g.validate(false)?;
                Resolved::Parallel(engine)
            }
            Self::Partitioned { parts, threads } => Resolved::Partitioned {
                plan: PartitionedEngine::new(parts).compile(g)?,
                threads,
            },
        };
        Ok(Prepared { net, engine })
    }
}

/// An engine made ready for one network by [`EngineChoice::prepare`],
/// the only constructor: the choice is resolved, the network validated
/// and (for a partitioned choice) its plan compiled. The network cannot
/// change behind it, so [`Self::run`] repeats none of that work — prepare
/// once, run from as many stimuli as needed, from as many threads as
/// needed (`Prepared` is `Sync`; each thread brings its own scratch).
///
/// `N` is how the network is held: `&Network` borrows it for the length
/// of a batch, `Network` owns it in a long-lived cache entry.
///
/// ```
/// use sgl_snn::{Network, LifParams};
/// use sgl_snn::engine::{EngineChoice, NullObserver, RunConfig, RunScratch};
///
/// let mut net = Network::new();
/// let ids = net.add_neurons(LifParams::gate_at_least(1), 3);
/// net.connect(ids[0], ids[1], 1.0, 2).unwrap();
/// net.connect(ids[1], ids[2], 1.0, 3).unwrap();
///
/// let engine = EngineChoice::Auto.prepare(&net).unwrap(); // validated once
/// let mut scratch = RunScratch::new();
/// let cfg = RunConfig::until_quiescent(100);
/// for &s in &ids {
///     let r = engine.run(&[s], &cfg, &mut scratch, &mut NullObserver).unwrap();
///     assert_eq!(r.first_spike(s), Some(0));
/// }
/// ```
#[derive(Debug)]
pub struct Prepared<N> {
    net: N,
    engine: Resolved,
}

/// What a [`Prepared`] runs on.
#[derive(Debug)]
enum Resolved {
    Dense,
    Event,
    Bitplane,
    Parallel(ParallelDenseEngine),
    Partitioned { plan: PartitionPlan, threads: usize },
}

impl<N: Borrow<Network>> Prepared<N> {
    /// Runs the prepared network with spikes induced in `initial_spikes`
    /// at `t = 0`, calling `obs.on_finish` once the run succeeds. The
    /// monolithic engines take all transient state from `scratch` (reset,
    /// not reallocated, on entry — results are bit-identical to a fresh
    /// scratch); the partitioned engine keeps per-partition state of its
    /// own and leaves `scratch` untouched.
    ///
    /// The observer type monomorphizes: with [`NullObserver`] every hook
    /// call and every `O::ENABLED` gate compiles away. The event-driven
    /// engines (`Event`, `Partitioned`) call `on_step` only at event
    /// times, so their series are sparse in `t`, exactly as their work
    /// counters are; the partitioned engine additionally reports cut
    /// traffic per channel and, when threaded, per-worker balance.
    ///
    /// # Errors
    /// Fails on unknown initial neurons, a `Terminal` stop condition
    /// without a terminal neuron, or (in strict mode) an exhausted step
    /// budget.
    pub fn run<O: RunObserver>(
        &self,
        initial_spikes: &[NeuronId],
        config: &RunConfig,
        scratch: &mut RunScratch,
        obs: &mut O,
    ) -> Result<RunResult, SnnError> {
        let net = self.net.borrow();
        let result = match &self.engine {
            Resolved::Dense => DenseEngine.run_core(net, initial_spikes, config, scratch, obs),
            Resolved::Event => EventEngine.run_core(net, initial_spikes, config, scratch, obs),
            Resolved::Bitplane => {
                BitplaneEngine.run_core(net, initial_spikes, config, scratch, obs)
            }
            Resolved::Parallel(engine) => {
                engine.run_core(net, initial_spikes, config, scratch, obs)
            }
            Resolved::Partitioned { plan, threads } => {
                return plan
                    .run_observed_threaded(initial_spikes, config, *threads, obs)
                    .map(|(result, _)| result);
            }
        }?;
        obs.on_finish(
            result.steps,
            result.stats.spike_events,
            result.stats.synaptic_deliveries,
            result.stats.neuron_updates,
        );
        Ok(result)
    }

    /// The network this engine was prepared for.
    #[must_use]
    pub fn network(&self) -> &Network {
        self.net.borrow()
    }

    /// The compiled partition plan, when the choice was partitioned.
    #[must_use]
    pub fn plan(&self) -> Option<&PartitionPlan> {
        match &self.engine {
            Resolved::Partitioned { plan, .. } => Some(plan),
            _ => None,
        }
    }
}

/// One run of a batch: which neurons spike at `t = 0` and how the run is
/// configured/stopped. The network is shared batch-wide, so swapping the
/// stimulus is how APSP swaps sources without rebuilding anything.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Neurons with induced spikes at `t = 0`.
    pub initial_spikes: Vec<NeuronId>,
    /// Run configuration (budget, stop condition, raster).
    pub config: RunConfig,
}

impl RunSpec {
    /// A spec inducing `initial_spikes` at `t = 0` under `config`.
    #[must_use]
    pub fn new(initial_spikes: Vec<NeuronId>, config: RunConfig) -> Self {
        Self {
            initial_spikes,
            config,
        }
    }
}

/// Executes many runs against one shared [`Network`] with per-worker
/// recycled [`RunScratch`]es.
///
/// ```
/// use sgl_snn::{Network, LifParams, NeuronId};
/// use sgl_snn::engine::{BatchRunner, RunConfig, RunSpec};
///
/// let mut net = Network::new();
/// let ids = net.add_neurons(LifParams::gate_at_least(1), 3);
/// net.connect(ids[0], ids[1], 1.0, 2).unwrap();
/// net.connect(ids[1], ids[2], 1.0, 3).unwrap();
///
/// // One spec per source: the network is built (and validated) once.
/// let specs: Vec<RunSpec> = ids
///     .iter()
///     .map(|&s| RunSpec::new(vec![s], RunConfig::until_quiescent(100)))
///     .collect();
/// let results = BatchRunner::new(&net).run(&specs).unwrap();
/// assert_eq!(results[0].first_spike(ids[2]), Some(5));
/// assert_eq!(results[2].first_spike(ids[2]), Some(0));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BatchRunner<'a> {
    net: &'a Network,
    threads: usize,
    choice: EngineChoice,
}

impl<'a> BatchRunner<'a> {
    /// A runner over `net` with [`EngineChoice::Auto`] and one worker per
    /// available core (capped at 8, like [`ParallelDenseEngine`]).
    #[must_use]
    pub fn new(net: &'a Network) -> Self {
        Self {
            net,
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(8),
            choice: EngineChoice::Auto,
        }
    }

    /// Sets the worker-pool size (clamped to at least 1; a single worker
    /// runs the batch inline on the calling thread).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the engine-selection heuristic.
    #[must_use]
    pub fn with_engine(mut self, choice: EngineChoice) -> Self {
        self.choice = choice;
        self
    }

    /// Runs every spec, returning results in spec order. The engine is
    /// prepared once (see [`EngineChoice::prepare`]); each worker recycles
    /// one scratch across the runs it claims.
    ///
    /// # Errors
    /// Same failure modes as [`super::Engine::run`] (when several specs
    /// fail, the lowest-index failure is returned).
    pub fn run(&self, specs: &[RunSpec]) -> Result<Vec<RunResult>, SnnError> {
        let prepared = self.choice.prepare(self.net)?;
        par_map(specs.len(), self.threads, RunScratch::new, |scratch, i| {
            let spec = &specs[i];
            prepared.run(
                &spec.initial_spikes,
                &spec.config,
                scratch,
                &mut NullObserver,
            )
        })
        .into_iter()
        .collect()
    }

    /// [`Self::run`] plus a [`BatchSummary`] of the per-run makespan and
    /// spike distributions.
    ///
    /// # Errors
    /// Same failure modes as [`Self::run`].
    pub fn run_summarized(
        &self,
        specs: &[RunSpec],
    ) -> Result<(Vec<RunResult>, BatchSummary), SnnError> {
        let results = self.run(specs)?;
        let summary = summarize(&results);
        Ok((results, summary))
    }
}

/// Executes heterogeneous `(network, spec)` jobs over the same
/// work-stealing fan-out and scratch recycling as [`BatchRunner`]. The
/// engine is prepared per job, since every job may carry a different
/// network — the approximate k-hop ensemble runs
/// one differently-rounded network per scale.
///
/// # Errors
/// Same failure modes as [`BatchRunner::run`].
pub fn run_jobs(
    jobs: &[(Network, RunSpec)],
    threads: usize,
    choice: EngineChoice,
) -> Result<Vec<RunResult>, SnnError> {
    par_map(jobs.len(), threads, RunScratch::new, |scratch, i| {
        let (net, spec) = &jobs[i];
        choice.prepare(net)?.run(
            &spec.initial_spikes,
            &spec.config,
            scratch,
            &mut NullObserver,
        )
    })
    .into_iter()
    .collect()
}

/// Rolls a slice of results into a [`BatchSummary`] (makespan and spike
/// distributions plus exact work totals).
#[must_use]
pub fn summarize(results: &[RunResult]) -> BatchSummary {
    let mut summary = BatchSummary::new();
    for r in results {
        summary.record_run(
            r.steps,
            r.stats.spike_events,
            r.stats.synaptic_deliveries,
            r.stats.neuron_updates,
        );
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, StopReason};
    use crate::params::LifParams;

    fn chain(n: usize, delay: u32) -> (Network, Vec<NeuronId>) {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), n);
        for w in ids.windows(2) {
            net.connect(w[0], w[1], 1.0, delay).unwrap();
        }
        (net, ids)
    }

    #[test]
    fn reset_clears_wheel_overflow_state() {
        // A delay beyond the wheel's horizon cap parks deliveries in the
        // calendar overflow; a recycled scratch must not leak them (or the
        // overflow-hit counter) into the next run.
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let b = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(a, b, 1.0, 5000).unwrap();

        let dense = EngineChoice::Dense.prepare(&net).unwrap();
        let mut scratch = RunScratch::new();
        let r = dense
            .run(&[a], &RunConfig::fixed(3), &mut scratch, &mut NullObserver)
            .unwrap();
        assert_eq!(r.reason, StopReason::MaxStepsReached);
        // The t=0 spike scheduled a delivery at t=5000: still parked.
        let stats = scratch.wheel.observe();
        assert_eq!(stats.overflow_entries, 1);
        assert_eq!(stats.in_flight, 1);
        assert!(stats.overflow_hits >= 1);

        scratch.reset(&net);
        let stats = scratch.wheel.observe();
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.occupied_slots, 0);
        assert_eq!(stats.overflow_entries, 0);
        assert_eq!(stats.overflow_hits, 0);

        // And the recycled scratch behaves exactly like a fresh one.
        let cfg = RunConfig::until_quiescent(6000);
        let recycled = dense
            .run(&[a], &cfg, &mut scratch, &mut NullObserver)
            .unwrap();
        let fresh = DenseEngine.run(&net, &[a], &cfg).unwrap();
        assert_eq!(recycled, fresh);
    }

    #[test]
    fn batch_matches_sequential_per_source() {
        let (net, ids) = chain(6, 3);
        let specs: Vec<RunSpec> = ids
            .iter()
            .map(|&s| RunSpec::new(vec![s], RunConfig::until_quiescent(100).with_raster()))
            .collect();
        let batch = BatchRunner::new(&net).with_threads(3).run(&specs).unwrap();
        for (spec, got) in specs.iter().zip(&batch) {
            let want = EventEngine
                .run(&net, &spec.initial_spikes, &spec.config)
                .unwrap();
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn auto_picks_event_for_sparse_input_driven_nets() {
        let (net, _) = chain(4, 1);
        assert!(matches!(
            EngineChoice::Auto.resolve(&net),
            EngineChoice::Event
        ));
    }

    #[test]
    fn auto_picks_dense_for_spontaneous_neurons() {
        let mut net = Network::new();
        net.add_neuron(LifParams {
            v_reset: 2.0,
            v_threshold: 1.0,
            decay: 0.0,
        });
        assert!(matches!(
            EngineChoice::Auto.resolve(&net),
            EngineChoice::Dense
        ));
        // And a batch over it still runs (the event engine would reject).
        let specs = [RunSpec::new(vec![], RunConfig::fixed(3))];
        let results = BatchRunner::new(&net).run(&specs).unwrap();
        assert_eq!(results[0].spike_counts[0], 3);
    }

    #[test]
    fn partition_gate_is_core_aware() {
        let (net, _) = chain(64, 2);
        let m = net.memory_bytes();
        let pick = |budget: usize, cores: usize| match EngineChoice::Auto
            .resolve_with_budget_and_cores(&net, budget, cores)
        {
            EngineChoice::Partitioned { parts, threads } => (parts, threads),
            other => panic!("expected Partitioned, got {other:?}"),
        };
        // Overshoot far past the cap: base clamps to 16; threads divide
        // parts so every worker owns the same number of partitions.
        assert_eq!(pick(1, 1), (16, 1));
        assert_eq!(pick(1, 4), (16, 4));
        // No multiple of 5 fits within the cap at base 16: the gate steps
        // down to 4 workers rather than over-partitioning past the cap.
        assert_eq!(pick(1, 5), (16, 4));
        assert_eq!(pick(1, 16), (16, 16));
        // Threads never exceed the partition count.
        assert_eq!(pick(1, 64), (16, 16));
        // Minimal overshoot: base 2, single-core keeps the old pick.
        assert_eq!(pick(m - 1, 1), (2, 1));
        assert_eq!(pick(m - 1, 2), (2, 2));
        assert_eq!(pick(m - 1, 3), (2, 2));
        // Degenerate core count is treated as one.
        assert_eq!(pick(m - 1, 0), (2, 1));
    }

    #[test]
    fn auto_routes_over_budget_nets_to_partitioned() {
        let (net, ids) = chain(64, 2);
        // A budget below the net's footprint forces the partitioned route;
        // the partition count scales with the overshoot and stays clamped.
        let tiny = net.memory_bytes() / 3;
        let choice = EngineChoice::Auto.resolve_with_partition_budget(&net, tiny);
        match choice {
            EngineChoice::Partitioned { parts, threads } => {
                assert!((2..=16).contains(&parts), "parts = {parts}");
                assert!(threads >= 1 && parts % threads == 0, "threads = {threads}");
            }
            other => panic!("expected Partitioned, got {other:?}"),
        }
        // A generous budget leaves the sparse net on the event engine, and
        // a zero budget disables the gate entirely.
        assert!(matches!(
            EngineChoice::Auto.resolve_with_partition_budget(&net, usize::MAX),
            EngineChoice::Event
        ));
        assert!(matches!(
            EngineChoice::Auto.resolve_with_partition_budget(&net, 0),
            EngineChoice::Event
        ));
        // Spontaneous neurons still win: partitioned is event-style and
        // would reject them, so the dense route takes precedence.
        let mut spont = Network::new();
        spont.add_neuron(LifParams {
            v_reset: 2.0,
            v_threshold: 1.0,
            decay: 0.0,
        });
        assert!(matches!(
            EngineChoice::Auto.resolve_with_partition_budget(&spont, 1),
            EngineChoice::Dense
        ));
        // And the routed choice runs, bit-identical to the event engine.
        let spec = RunSpec::new(vec![ids[0]], RunConfig::until_quiescent(300));
        let got = choice
            .prepare(&net)
            .unwrap()
            .run(
                &spec.initial_spikes,
                &spec.config,
                &mut RunScratch::new(),
                &mut NullObserver,
            )
            .unwrap();
        let want = EventEngine
            .run(&net, &spec.initial_spikes, &spec.config)
            .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn auto_picks_bitplane_for_near_complete_topologies() {
        // Complete digraph on 4 nodes: 12 synapses >= 16 / 4.
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), 4);
        for &u in &ids {
            for &v in &ids {
                if u != v {
                    net.connect(u, v, 0.1, 1).unwrap();
                }
            }
        }
        assert!(matches!(
            EngineChoice::Auto.resolve(&net),
            EngineChoice::Bitplane
        ));
        // And the batch result is (exactly) the dense engine's.
        let specs = [RunSpec::new(
            vec![ids[0]],
            RunConfig::fixed(5).with_raster(),
        )];
        let results = BatchRunner::new(&net).run(&specs).unwrap();
        let dense = DenseEngine
            .run(&net, &specs[0].initial_spikes, &specs[0].config)
            .unwrap();
        assert_eq!(results[0], dense);
    }

    #[test]
    fn auto_crossover_math_survives_huge_counts() {
        // Regression: the old `n * n / 2` test overflowed usize for large
        // n (or u64 semantics on 32-bit targets); the u128 rewrite must
        // stay exact at any realistic scale. Exercise `resolve` right at
        // the boundary with a synthetic count via a real (tiny) network —
        // and the arithmetic itself at u64-overflowing magnitudes.
        let n: u128 = 1 << 33; // n² = 2^66 overflows u64
        let m_below = (n * n / DENSE_CROSSOVER_INV) - 1;
        let m_at = n * n / DENSE_CROSSOVER_INV;
        assert!(m_below * DENSE_CROSSOVER_INV < n * n);
        assert!(m_at * DENSE_CROSSOVER_INV >= n * n);
    }

    #[test]
    fn explicit_choice_survives_resolve() {
        let (net, _) = chain(3, 1);
        assert!(matches!(
            EngineChoice::Dense.resolve(&net),
            EngineChoice::Dense
        ));
        assert!(matches!(
            EngineChoice::Parallel(ParallelDenseEngine::new(2)).resolve(&net),
            EngineChoice::Parallel(_)
        ));
    }

    #[test]
    fn run_jobs_handles_heterogeneous_networks() {
        // Different sizes and delay horizons per job, single pool.
        let jobs: Vec<(Network, RunSpec)> = [(3usize, 2u32), (5, 7), (2, 5000)]
            .iter()
            .map(|&(n, d)| {
                let (net, ids) = chain(n, d);
                let spec = RunSpec::new(vec![ids[0]], RunConfig::until_quiescent(20_000));
                (net, spec)
            })
            .collect();
        let results = run_jobs(&jobs, 2, EngineChoice::Auto).unwrap();
        assert_eq!(results.len(), 3);
        for ((net, spec), got) in jobs.iter().zip(&results) {
            let want = EventEngine
                .run(net, &spec.initial_spikes, &spec.config)
                .unwrap();
            assert_eq!(got, &want);
        }
        // Sanity: the long-delay job really exercised the overflow path.
        assert_eq!(results[2].first_spikes[1], Some(5000));
    }

    #[test]
    fn prepare_validates_before_any_run() {
        // A spontaneous neuron is invalid for the event engine: the error
        // comes from `prepare`, so no run (and no observer hook) happens.
        let mut net = Network::new();
        net.add_neuron(LifParams {
            v_reset: 2.0,
            v_threshold: 1.0,
            decay: 0.0,
        });
        assert!(matches!(
            EngineChoice::Event.prepare(&net),
            Err(SnnError::SpontaneousNeuron(NeuronId(0)))
        ));
        // The dense rules accept it.
        assert!(EngineChoice::Dense.prepare(&net).is_ok());
    }

    #[test]
    fn one_prepared_plan_serves_every_source() {
        // One compile, many stimuli, one recycled scratch: every run is
        // bit-identical to a fresh event-engine run from the same source.
        let (net, ids) = chain(12, 3);
        for threads in [1, 2] {
            let prepared = EngineChoice::Partitioned { parts: 3, threads }
                .prepare(&net)
                .unwrap();
            assert_eq!(prepared.plan().map(PartitionPlan::parts), Some(3));
            let mut scratch = RunScratch::new();
            for &s in &ids {
                let cfg = RunConfig::until_quiescent(100).with_raster();
                let got = prepared
                    .run(&[s], &cfg, &mut scratch, &mut NullObserver)
                    .unwrap();
                let want = EventEngine.run(&net, &[s], &cfg).unwrap();
                assert_eq!(got, want, "source {s:?}, threads {threads}");
            }
        }
        // Monolithic choices hold no plan.
        assert!(EngineChoice::Event.prepare(&net).unwrap().plan().is_none());
    }

    #[test]
    fn invalid_spec_surfaces_error() {
        let (net, _) = chain(2, 1);
        let specs = [RunSpec::new(
            vec![NeuronId(99)],
            RunConfig::until_quiescent(10),
        )];
        assert!(matches!(
            BatchRunner::new(&net).run(&specs),
            Err(SnnError::UnknownNeuron(_))
        ));
    }

    #[test]
    fn empty_batch_is_empty() {
        let (net, _) = chain(2, 1);
        let results = BatchRunner::new(&net).run(&[]).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn summary_reconciles_with_results() {
        let (net, ids) = chain(5, 2);
        let specs: Vec<RunSpec> = ids
            .iter()
            .map(|&s| RunSpec::new(vec![s], RunConfig::until_quiescent(100)))
            .collect();
        let (results, summary) = BatchRunner::new(&net)
            .with_threads(2)
            .run_summarized(&specs)
            .unwrap();
        assert_eq!(summary.runs, results.len() as u64);
        assert_eq!(
            summary.total_spikes,
            results.iter().map(|r| r.stats.spike_events).sum::<u64>()
        );
        // Worst per-source makespan: the full-chain wavefront, 4 hops × 2.
        assert_eq!(summary.makespan_steps(), Some(8));
    }
}
