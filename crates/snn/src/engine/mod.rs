//! Execution engines for spiking neural networks.
//!
//! Computation follows Definition 3: spikes are induced in a subset of the
//! input neurons at `t = 0`, the network evolves under LIF dynamics, and the
//! run ends when the configured [`StopCondition`] is met (canonically: the
//! terminal neuron fires at time `T`, at which point the output neurons'
//! firing state *at time `T`* may be read out).

mod batch;
mod bitplane;
mod dense;
pub(crate) mod event;
mod parallel;
mod stepper;
pub(crate) mod sync;
pub(crate) mod wheel;

pub use batch::{
    run_jobs, summarize, BatchRunner, EngineChoice, Prepared, RunScratch, RunSpec,
    DEFAULT_PARTITION_MEMORY_BUDGET,
};
pub use bitplane::BitplaneEngine;
pub use dense::DenseEngine;
pub use event::EventEngine;
pub use parallel::{ParallelDenseEngine, DEFAULT_MIN_CHUNK};
pub use stepper::Stepper;
pub use sync::par_map;

// Batch aggregation, re-exported alongside the runner that produces it.
pub use sgl_observe::BatchSummary;

// Observer protocol, re-exported so engine users don't need a separate
// `sgl_observe` import for the common case.
pub use sgl_observe::{NullObserver, RunObserver, SchedulerStats, StepRecord, TimeSeriesObserver};

use crate::error::SnnError;
use crate::network::Network;
use crate::raster::SpikeRaster;
use crate::types::{NeuronId, Time};

/// When a run should stop (checked after each completed time step, so all
/// spikes of the final step are visible in the result).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum StopCondition {
    /// Run until `max_steps` or until the network is quiescent (no spikes
    /// in flight), whichever comes first.
    #[default]
    Quiescent,
    /// Run exactly until the step budget is exhausted (or quiescence).
    MaxSteps,
    /// Stop when the network's designated terminal neuron first fires.
    Terminal,
    /// Stop once every listed neuron has fired at least once.
    AllOf(Vec<NeuronId>),
    /// Stop as soon as any listed neuron fires.
    AnyOf(Vec<NeuronId>),
}

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The configured stop condition was satisfied at `RunResult::steps`.
    ConditionMet,
    /// No spikes remained in flight (the network can never fire again
    /// without new input).
    Quiescent,
    /// The step budget ran out before the condition was met.
    MaxStepsReached,
}

/// Configuration of a single run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Hard upper bound on simulated time steps.
    pub max_steps: Time,
    /// Stop condition, checked at the end of each step.
    pub stop: StopCondition,
    /// Record the full spike raster (costs memory proportional to the
    /// number of spikes). First/last spike times and counts are always
    /// recorded.
    pub record_raster: bool,
    /// If true, hitting `max_steps` with an unmet non-`MaxSteps` condition
    /// is an error instead of a `MaxStepsReached` result.
    pub strict: bool,
}

impl RunConfig {
    /// Run until the terminal neuron fires, with the given step budget.
    #[must_use]
    pub fn until_terminal(max_steps: Time) -> Self {
        Self {
            max_steps,
            stop: StopCondition::Terminal,
            record_raster: false,
            strict: false,
        }
    }

    /// Run until quiescence (or the step budget).
    #[must_use]
    pub fn until_quiescent(max_steps: Time) -> Self {
        Self {
            max_steps,
            stop: StopCondition::Quiescent,
            record_raster: false,
            strict: false,
        }
    }

    /// Run for exactly `steps` time steps (unless quiescent earlier).
    #[must_use]
    pub fn fixed(steps: Time) -> Self {
        Self {
            max_steps: steps,
            stop: StopCondition::MaxSteps,
            record_raster: false,
            strict: false,
        }
    }

    /// Run until all the given neurons have fired.
    #[must_use]
    pub fn until_all(neurons: Vec<NeuronId>, max_steps: Time) -> Self {
        Self {
            max_steps,
            stop: StopCondition::AllOf(neurons),
            record_raster: false,
            strict: false,
        }
    }

    /// Enables full raster recording.
    #[must_use]
    pub fn with_raster(mut self) -> Self {
        self.record_raster = true;
        self
    }

    /// Makes an unmet stop condition at `max_steps` an error.
    #[must_use]
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }
}

/// Engine work counters, the basis of the paper's resource comparisons.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Number of spike events (the energy-relevant count: neuromorphic
    /// hardware consumes energy per spike, Table 3's pJ/spike column).
    pub spike_events: u64,
    /// Number of synaptic deliveries (spikes x fan-out actually routed).
    pub synaptic_deliveries: u64,
    /// Number of neuron state updates the engine performed. For the dense
    /// engine this is `neurons x steps`; for the event engine it is the
    /// number of (neuron, step) pairs that received input — the quantity
    /// event-driven hardware actually pays for.
    pub neuron_updates: u64,
}

/// Result of a run. `Eq` is exact — spike times, counts, raster, and work
/// counters are all integers — which is what lets the differential tests
/// demand bit-identical results across engines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Termination time `T` (the execution time of Definition 3).
    pub steps: Time,
    /// Why the run ended.
    pub reason: StopReason,
    /// First firing time of each neuron, indexed by neuron id.
    pub first_spikes: Vec<Option<Time>>,
    /// Last firing time of each neuron (enables reading outputs "at `T`").
    pub last_spikes: Vec<Option<Time>>,
    /// Per-neuron spike counts.
    pub spike_counts: Vec<u32>,
    /// Full raster, when requested.
    pub raster: Option<SpikeRaster>,
    /// Work counters.
    pub stats: SimStats,
}

impl RunResult {
    /// First spike time of `id`, if it fired.
    #[must_use]
    pub fn first_spike(&self, id: NeuronId) -> Option<Time> {
        self.first_spikes[id.index()]
    }

    /// Whether `id` fired at least once.
    #[must_use]
    pub fn fired(&self, id: NeuronId) -> bool {
        self.first_spikes[id.index()].is_some()
    }

    /// Whether `id` fired at exactly the final step `T` — the Definition 3
    /// output readout.
    #[must_use]
    pub fn fired_at_end(&self, id: NeuronId) -> bool {
        self.last_spikes[id.index()] == Some(self.steps)
    }

    /// Output-neuron readout at time `T`: for each of the network's output
    /// neurons, whether it fired at `T` (in `Network::outputs()` order).
    #[must_use]
    pub fn output_bits(&self, net: &Network) -> Vec<bool> {
        net.outputs()
            .iter()
            .map(|&o| self.fired_at_end(o))
            .collect()
    }

    /// Total number of spikes.
    #[must_use]
    pub fn total_spikes(&self) -> u64 {
        self.stats.spike_events
    }
}

/// A spiking-network execution engine.
pub trait Engine {
    /// Runs `net` with spikes induced in `initial_spikes` at `t = 0`: a
    /// one-shot [`EngineChoice::prepare`] plus [`Prepared::run`] over a
    /// fresh scratch. Callers running one network many times (or with an
    /// observer) prepare once and call [`Prepared::run`] themselves.
    ///
    /// # Errors
    /// Fails on invalid networks, unknown initial neurons, a `Terminal`
    /// stop condition without a terminal neuron, or (in strict mode) an
    /// exhausted step budget.
    fn run(
        &self,
        net: &Network,
        initial_spikes: &[NeuronId],
        config: &RunConfig,
    ) -> Result<RunResult, SnnError>;
}

/// Shared bookkeeping between engines: spike recording + stop tracking.
pub(crate) struct Recorder {
    first_spikes: Vec<Option<Time>>,
    last_spikes: Vec<Option<Time>>,
    spike_counts: Vec<u32>,
    raster: Option<SpikeRaster>,
    stats: SimStats,
    terminal: Option<NeuronId>,
    pending_targets: usize,
    satisfied: bool,
}

impl Recorder {
    pub(crate) fn new(net: &Network, config: &RunConfig) -> Result<Self, SnnError> {
        Self::with_shape(net.neuron_count(), net.terminal(), config)
    }

    /// [`Self::new`] from a network *shape* (neuron count + terminal)
    /// instead of a `Network`. The partitioned engine records against
    /// global ids, but at run time it only holds per-partition
    /// sub-networks — the original network's shape lives in the plan.
    pub(crate) fn with_shape(
        n: usize,
        net_terminal: Option<NeuronId>,
        config: &RunConfig,
    ) -> Result<Self, SnnError> {
        let terminal = match &config.stop {
            StopCondition::Terminal => Some(net_terminal.ok_or(SnnError::NoTerminal)?),
            _ => None,
        };
        let pending_targets = match &config.stop {
            StopCondition::AllOf(v) => {
                for &id in v {
                    if id.index() >= n {
                        return Err(SnnError::UnknownNeuron(id));
                    }
                }
                // Count *unique* targets: `record_step` decrements once per
                // neuron (on its first spike), so counting duplicates would
                // leave the condition permanently unsatisfiable and burn
                // the whole step budget.
                let mut uniq = v.clone();
                uniq.sort_unstable();
                uniq.dedup();
                uniq.len()
            }
            StopCondition::AnyOf(v) => {
                for &id in v {
                    if id.index() >= n {
                        return Err(SnnError::UnknownNeuron(id));
                    }
                }
                v.len()
            }
            _ => 0,
        };
        // An empty `AllOf` is vacuously satisfied: stop at the first check
        // (t = 0). An empty `AnyOf` stays unsatisfiable, as no listed
        // neuron can ever fire.
        let satisfied = pending_targets == 0 && matches!(&config.stop, StopCondition::AllOf(_));
        Ok(Self {
            first_spikes: vec![None; n],
            last_spikes: vec![None; n],
            spike_counts: vec![0; n],
            raster: config.record_raster.then(SpikeRaster::new),
            stats: SimStats::default(),
            terminal,
            pending_targets,
            satisfied,
        })
    }

    /// Records one time step's spikes (`fired` must be sorted by id) and
    /// returns whether the stop condition became satisfied in this step.
    pub(crate) fn record_step(
        &mut self,
        t: Time,
        fired: &[NeuronId],
        stop: &StopCondition,
    ) -> bool {
        self.stats.spike_events += fired.len() as u64;
        if let Some(r) = &mut self.raster {
            r.push_step(t, fired);
        }
        for &id in fired {
            let i = id.index();
            if self.first_spikes[i].is_none() {
                self.first_spikes[i] = Some(t);
                match stop {
                    StopCondition::AllOf(v) if v.contains(&id) => {
                        self.pending_targets -= 1;
                        if self.pending_targets == 0 {
                            self.satisfied = true;
                        }
                    }
                    StopCondition::AnyOf(v) if v.contains(&id) => {
                        self.satisfied = true;
                    }
                    _ => {}
                }
            }
            self.last_spikes[i] = Some(t);
            self.spike_counts[i] += 1;
            if self.terminal == Some(id) {
                self.satisfied = true;
            }
        }
        self.satisfied
    }

    pub(crate) fn add_deliveries(&mut self, n: u64) {
        self.stats.synaptic_deliveries += n;
    }

    pub(crate) fn add_updates(&mut self, n: u64) {
        self.stats.neuron_updates += n;
    }

    pub(crate) fn finish(
        self,
        steps: Time,
        reason: StopReason,
        config: &RunConfig,
    ) -> Result<RunResult, SnnError> {
        if config.strict
            && reason == StopReason::MaxStepsReached
            && config.stop != StopCondition::MaxSteps
        {
            return Err(SnnError::StepLimitExceeded {
                max_steps: config.max_steps,
            });
        }
        Ok(RunResult {
            steps,
            reason,
            first_spikes: self.first_spikes,
            last_spikes: self.last_spikes,
            spike_counts: self.spike_counts,
            raster: self.raster,
            stats: self.stats,
        })
    }
}

pub(crate) fn check_initial(net: &Network, initial: &[NeuronId]) -> Result<(), SnnError> {
    for &id in initial {
        if id.index() >= net.neuron_count() {
            return Err(SnnError::UnknownNeuron(id));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LifParams;

    #[test]
    fn run_config_builders() {
        let c = RunConfig::until_terminal(10).with_raster().strict();
        assert_eq!(c.max_steps, 10);
        assert_eq!(c.stop, StopCondition::Terminal);
        assert!(c.record_raster);
        assert!(c.strict);
        assert_eq!(RunConfig::fixed(5).stop, StopCondition::MaxSteps);
        assert_eq!(RunConfig::until_quiescent(5).stop, StopCondition::Quiescent);
    }

    #[test]
    fn recorder_terminal_detection() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::default());
        let b = net.add_neuron(LifParams::default());
        net.set_terminal(b);
        let cfg = RunConfig::until_terminal(10);
        let mut rec = Recorder::new(&net, &cfg).unwrap();
        assert!(!rec.record_step(1, &[a], &cfg.stop));
        assert!(rec.record_step(2, &[b], &cfg.stop));
    }

    #[test]
    fn recorder_never_stops_under_max_steps_or_quiescent() {
        // The engines stop on `record_step` alone, which relies on this:
        // only `Terminal`, `AllOf` and `AnyOf` can ever satisfy a run,
        // even when the network's designated terminal fires.
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::default(), 4);
        net.set_terminal(ids[3]);
        for cfg in [RunConfig::fixed(10), RunConfig::until_quiescent(10)] {
            let mut rec = Recorder::new(&net, &cfg).unwrap();
            for t in 0..3 {
                assert!(!rec.record_step(t, &ids, &cfg.stop), "{:?}", cfg.stop);
            }
            for &id in &ids {
                assert!(!rec.record_step(3, &[id], &cfg.stop), "{:?}", cfg.stop);
            }
        }
    }

    #[test]
    fn recorder_all_of() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::default());
        let b = net.add_neuron(LifParams::default());
        let cfg = RunConfig::until_all(vec![a, b], 10);
        let mut rec = Recorder::new(&net, &cfg).unwrap();
        assert!(!rec.record_step(1, &[a], &cfg.stop));
        assert!(!rec.record_step(2, &[a], &cfg.stop)); // repeat spike doesn't double count
        assert!(rec.record_step(3, &[b], &cfg.stop));
    }

    #[test]
    fn recorder_all_of_with_duplicate_ids() {
        // Regression: duplicated ids used to inflate `pending_targets`
        // beyond the number of distinct neurons, making the condition
        // unsatisfiable (runs burned to max_steps).
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::default());
        let b = net.add_neuron(LifParams::default());
        let cfg = RunConfig::until_all(vec![a, a, b, a], 10);
        let mut rec = Recorder::new(&net, &cfg).unwrap();
        assert!(!rec.record_step(1, &[a], &cfg.stop));
        assert!(rec.record_step(2, &[b], &cfg.stop));
    }

    #[test]
    fn recorder_empty_all_of_is_vacuously_satisfied() {
        let mut net = Network::new();
        net.add_neuron(LifParams::default());
        let cfg = RunConfig::until_all(vec![], 10);
        let mut rec = Recorder::new(&net, &cfg).unwrap();
        assert!(rec.record_step(0, &[], &cfg.stop));
    }

    #[test]
    fn recorder_rejects_missing_terminal() {
        let net = Network::new();
        let cfg = RunConfig::until_terminal(10);
        assert!(matches!(
            Recorder::new(&net, &cfg),
            Err(SnnError::NoTerminal)
        ));
    }

    #[test]
    fn strict_mode_errors_on_budget() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::default());
        net.set_terminal(a);
        let cfg = RunConfig::until_terminal(5).strict();
        let rec = Recorder::new(&net, &cfg).unwrap();
        assert!(rec.finish(5, StopReason::MaxStepsReached, &cfg).is_err());
    }
}
