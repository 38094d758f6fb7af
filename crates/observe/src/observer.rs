//! The engine-side observer protocol and the standard observers.
//!
//! Engines call the [`RunObserver`] hooks at fixed points of a run; the
//! generic parameter monomorphizes, so with the default [`NullObserver`]
//! every hook inlines to nothing and the hot path is byte-identical to an
//! unobserved build (the `engines` bench bin's `perf_check` baseline
//! guards this). Hooks use only plain integers — this crate sits below
//! the simulator and stays dependency-free.

use crate::hist::LogHistogram;
use crate::json::Json;
use std::time::Instant;

/// What one completed simulation step cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepRecord {
    /// Neurons that fired this step.
    pub spikes: u64,
    /// Synaptic deliveries routed out of this step's spikes.
    pub deliveries: u64,
    /// Neuron state updates the engine paid for this step.
    pub updates: u64,
}

/// Scheduler (time-wheel) occupancy after a step's routing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Deliveries currently scheduled (wheel + overflow map).
    pub in_flight: u64,
    /// Non-empty wheel slots.
    pub occupied_slots: u64,
    /// Distinct future times parked in the overflow map.
    pub overflow_entries: u64,
    /// Cumulative deliveries that were scheduled beyond the wheel horizon
    /// (each is one ordered-map insertion — the slow path).
    pub overflow_hits: u64,
}

/// Per-run telemetry hooks. All hooks default to no-ops; implementations
/// override what they need.
///
/// Contract (what the reconciliation tests assert): engines invoke
/// [`Self::on_step`] exactly once per recorded time step — including the
/// induced-spike step `t = 0` — with the same counts they add to
/// `SimStats`, so the per-step series sum to the run totals exactly.
pub trait RunObserver {
    /// When `false` (the [`NullObserver`]), engines skip observation-only
    /// work that is not free to *gather* — wall-clock reads and scheduler
    /// snapshots. Hook calls themselves compile away regardless.
    const ENABLED: bool = true;

    /// One recorded simulation step at time `t`.
    #[inline]
    fn on_step(&mut self, t: u64, step: StepRecord) {
        let _ = (t, step);
    }

    /// A delivery batch of `deliveries` arrivals was drained from the
    /// scheduler at time `t` (before neuron updates).
    #[inline]
    fn on_spike_batch(&mut self, t: u64, deliveries: u64) {
        let _ = (t, deliveries);
    }

    /// Scheduler occupancy after step `t` finished routing. Only called
    /// when [`Self::ENABLED`].
    #[inline]
    fn on_scheduler(&mut self, t: u64, stats: SchedulerStats) {
        let _ = (t, stats);
    }

    /// The parallel engine's coordinator spent `nanos` blocked on the
    /// step-`t` worker barriers. Only called when [`Self::ENABLED`].
    #[inline]
    fn on_barrier_wait(&mut self, t: u64, nanos: u64) {
        let _ = (t, nanos);
    }

    /// A threaded partitioned-engine worker finished superstep `t`:
    /// `busy_ns` spent in its compute and merge phases, `wait_ns` blocked
    /// at the superstep barriers since its previous report. Called once
    /// per worker per superstep, only when [`Self::ENABLED`] and only by
    /// a worker pool (a one-worker run reports none).
    #[inline]
    fn on_worker_superstep(&mut self, t: u64, worker: u32, busy_ns: u64, wait_ns: u64) {
        let _ = (t, worker, busy_ns, wait_ns);
    }

    /// Load imbalance of superstep `t` across the threaded partitioned
    /// workers: the slowest worker's busy nanoseconds and the mean across
    /// workers. `max == mean` is a perfectly balanced superstep. Only
    /// called when [`Self::ENABLED`], by the threaded driver.
    #[inline]
    fn on_superstep_imbalance(&mut self, t: u64, max_busy_ns: u64, mean_busy_ns: u64) {
        let _ = (t, max_busy_ns, mean_busy_ns);
    }

    /// The partitioned engine's tick-`t` exchange moved `messages`
    /// boundary-synapse deliveries over the `from -> to` spike channel.
    /// Called once per channel with traffic this tick, only when
    /// [`Self::ENABLED`] — the per-tick view of the cut-traffic vs
    /// partition-count tradeoff.
    #[inline]
    fn on_cut_traffic(&mut self, t: u64, from: u32, to: u32, messages: u64) {
        let _ = (t, from, to, messages);
    }

    /// The run finished: termination time and final work totals.
    #[inline]
    fn on_finish(&mut self, steps: u64, spikes: u64, deliveries: u64, updates: u64) {
        let _ = (steps, spikes, deliveries, updates);
    }
}

/// The default observer: observes nothing, costs nothing. Every hook is a
/// no-op and [`RunObserver::ENABLED`] is `false`, so engines also skip
/// gathering wall-clock and scheduler snapshots.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl RunObserver for NullObserver {
    const ENABLED: bool = false;
}

/// Records the full per-step time series of a run plus scheduler and
/// latency detail — the instrumented counterpart of `SimStats` totals.
///
/// Sparse by construction: one entry per *recorded* step (the event engine
/// skips quiet intervals), with `times[i]` carrying the step's simulated
/// time.
#[derive(Clone, Debug)]
pub struct TimeSeriesObserver {
    /// Simulated time of each recorded step.
    pub times: Vec<u64>,
    /// Spikes fired per recorded step.
    pub spikes: Vec<u64>,
    /// Synaptic deliveries routed per recorded step.
    pub deliveries: Vec<u64>,
    /// Neuron updates paid per recorded step.
    pub updates: Vec<u64>,
    /// Scheduler in-flight deliveries per recorded step.
    pub wheel_in_flight: Vec<u64>,
    /// Occupied wheel slots per recorded step.
    pub wheel_occupied: Vec<u64>,
    /// Final scheduler counters (last snapshot seen).
    pub scheduler: SchedulerStats,
    /// Wall-clock nanoseconds between consecutive `on_step` calls.
    pub step_latency: LogHistogram,
    /// Coordinator barrier-wait nanoseconds (parallel engine only).
    pub barrier_wait: LogHistogram,
    /// Total barrier-wait nanoseconds.
    pub barrier_wait_total_ns: u64,
    /// Per-worker busy nanoseconds per superstep (threaded partitioned
    /// driver only).
    pub worker_busy: LogHistogram,
    /// Per-worker barrier-wait nanoseconds per superstep (threaded
    /// partitioned driver only).
    pub worker_wait: LogHistogram,
    /// Total worker barrier-wait nanoseconds across all workers.
    pub worker_wait_total_ns: u64,
    /// Superstep load imbalance in permille: `max_busy * 1000 / mean_busy`
    /// per superstep (1000 = perfectly balanced). Empty for sequential
    /// runs.
    pub imbalance_permille: Vec<u64>,
    /// Total boundary-synapse deliveries moved over inter-partition spike
    /// channels (partitioned engine only; 0 for monolithic runs).
    pub cut_traffic_total: u64,
    /// Totals reported by the engine at the end of the run.
    pub finished: Option<StepRecord>,
    /// Termination time reported by the engine.
    pub final_step: u64,
    last_step_at: Option<Instant>,
}

impl Default for TimeSeriesObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSeriesObserver {
    /// An empty series.
    #[must_use]
    pub fn new() -> Self {
        Self {
            times: Vec::new(),
            spikes: Vec::new(),
            deliveries: Vec::new(),
            updates: Vec::new(),
            wheel_in_flight: Vec::new(),
            wheel_occupied: Vec::new(),
            scheduler: SchedulerStats::default(),
            step_latency: LogHistogram::new(),
            barrier_wait: LogHistogram::new(),
            barrier_wait_total_ns: 0,
            worker_busy: LogHistogram::new(),
            worker_wait: LogHistogram::new(),
            worker_wait_total_ns: 0,
            imbalance_permille: Vec::new(),
            cut_traffic_total: 0,
            finished: None,
            final_step: 0,
            last_step_at: None,
        }
    }

    /// Number of recorded steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no steps were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sum of the spikes series — must equal `SimStats::spike_events`.
    #[must_use]
    pub fn total_spikes(&self) -> u64 {
        self.spikes.iter().sum()
    }

    /// Sum of the deliveries series — must equal
    /// `SimStats::synaptic_deliveries`.
    #[must_use]
    pub fn total_deliveries(&self) -> u64 {
        self.deliveries.iter().sum()
    }

    /// Sum of the updates series — must equal `SimStats::neuron_updates`.
    #[must_use]
    pub fn total_updates(&self) -> u64 {
        self.updates.iter().sum()
    }

    /// Serializes the series, scheduler counters and histograms.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("recorded_steps", Json::UInt(self.len() as u64)),
            ("final_step", Json::UInt(self.final_step)),
            ("times", Json::uints(&self.times)),
            ("spikes", Json::uints(&self.spikes)),
            ("deliveries", Json::uints(&self.deliveries)),
            ("updates", Json::uints(&self.updates)),
            ("wheel_in_flight", Json::uints(&self.wheel_in_flight)),
            ("wheel_occupied", Json::uints(&self.wheel_occupied)),
            (
                "scheduler",
                Json::obj(vec![
                    ("overflow_hits", Json::UInt(self.scheduler.overflow_hits)),
                    (
                        "overflow_entries",
                        Json::UInt(self.scheduler.overflow_entries),
                    ),
                ]),
            ),
            ("step_latency_ns", self.step_latency.to_json()),
            ("barrier_wait_ns", self.barrier_wait.to_json()),
            (
                "barrier_wait_total_ns",
                Json::UInt(self.barrier_wait_total_ns),
            ),
            ("worker_busy_ns", self.worker_busy.to_json()),
            ("worker_wait_ns", self.worker_wait.to_json()),
            (
                "worker_wait_total_ns",
                Json::UInt(self.worker_wait_total_ns),
            ),
            ("imbalance_permille", Json::uints(&self.imbalance_permille)),
            ("cut_traffic_total", Json::UInt(self.cut_traffic_total)),
        ])
    }
}

impl RunObserver for TimeSeriesObserver {
    fn on_step(&mut self, t: u64, step: StepRecord) {
        self.times.push(t);
        self.spikes.push(step.spikes);
        self.deliveries.push(step.deliveries);
        self.updates.push(step.updates);
        let now = Instant::now();
        if let Some(prev) = self.last_step_at.replace(now) {
            self.step_latency
                .record(now.duration_since(prev).as_nanos() as u64);
        }
    }

    fn on_scheduler(&mut self, _t: u64, stats: SchedulerStats) {
        self.wheel_in_flight.push(stats.in_flight);
        self.wheel_occupied.push(stats.occupied_slots);
        self.scheduler = stats;
    }

    fn on_barrier_wait(&mut self, _t: u64, nanos: u64) {
        self.barrier_wait.record(nanos);
        self.barrier_wait_total_ns += nanos;
    }

    fn on_worker_superstep(&mut self, _t: u64, _worker: u32, busy_ns: u64, wait_ns: u64) {
        self.worker_busy.record(busy_ns);
        self.worker_wait.record(wait_ns);
        self.worker_wait_total_ns += wait_ns;
    }

    fn on_superstep_imbalance(&mut self, _t: u64, max_busy_ns: u64, mean_busy_ns: u64) {
        if let Some(permille) = max_busy_ns.saturating_mul(1000).checked_div(mean_busy_ns) {
            self.imbalance_permille.push(permille);
        }
    }

    fn on_cut_traffic(&mut self, _t: u64, _from: u32, _to: u32, messages: u64) {
        self.cut_traffic_total += messages;
    }

    fn on_finish(&mut self, steps: u64, spikes: u64, deliveries: u64, updates: u64) {
        self.final_step = steps;
        self.finished = Some(StepRecord {
            spikes,
            deliveries,
            updates,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the hooks the way an engine would and checks the series
    /// reconcile with the reported totals.
    #[test]
    fn series_sum_to_reported_totals() {
        let mut obs = TimeSeriesObserver::new();
        let steps = [(0u64, 3u64, 6u64, 0u64), (1, 2, 4, 5), (4, 1, 0, 2)];
        let (mut s, mut d, mut u) = (0, 0, 0);
        for &(t, spikes, deliveries, updates) in &steps {
            obs.on_step(
                t,
                StepRecord {
                    spikes,
                    deliveries,
                    updates,
                },
            );
            obs.on_scheduler(
                t,
                SchedulerStats {
                    in_flight: deliveries,
                    occupied_slots: 1,
                    overflow_entries: 0,
                    overflow_hits: 0,
                },
            );
            s += spikes;
            d += deliveries;
            u += updates;
        }
        obs.on_finish(4, s, d, u);
        assert_eq!(obs.len(), 3);
        assert_eq!(obs.times, vec![0, 1, 4]);
        assert_eq!(obs.total_spikes(), s);
        assert_eq!(obs.total_deliveries(), d);
        assert_eq!(obs.total_updates(), u);
        assert_eq!(obs.final_step, 4);
        assert_eq!(obs.step_latency.count(), 2); // n steps -> n-1 gaps
        assert_eq!(obs.wheel_in_flight.len(), 3);
    }

    #[test]
    fn null_observer_is_disabled() {
        const { assert!(!NullObserver::ENABLED) };
        const { assert!(TimeSeriesObserver::ENABLED) };
        // Hooks on the null observer are callable no-ops.
        let mut n = NullObserver;
        n.on_step(0, StepRecord::default());
        n.on_finish(0, 0, 0, 0);
    }

    #[test]
    fn barrier_waits_accumulate() {
        let mut obs = TimeSeriesObserver::new();
        obs.on_barrier_wait(1, 100);
        obs.on_barrier_wait(2, 250);
        assert_eq!(obs.barrier_wait_total_ns, 350);
        assert_eq!(obs.barrier_wait.count(), 2);
    }

    #[test]
    fn worker_series_accumulate() {
        let mut obs = TimeSeriesObserver::new();
        obs.on_worker_superstep(1, 0, 500, 40);
        obs.on_worker_superstep(1, 1, 300, 60);
        obs.on_superstep_imbalance(1, 500, 400);
        obs.on_superstep_imbalance(2, 0, 0); // quiet superstep: no entry
        assert_eq!(obs.worker_busy.count(), 2);
        assert_eq!(obs.worker_wait_total_ns, 100);
        assert_eq!(obs.imbalance_permille, vec![1250]);
        assert_eq!(
            obs.to_json()
                .get("worker_wait_total_ns")
                .and_then(Json::as_u64),
            Some(100)
        );
    }

    #[test]
    fn cut_traffic_accumulates_across_channels() {
        let mut obs = TimeSeriesObserver::new();
        obs.on_cut_traffic(1, 0, 1, 10);
        obs.on_cut_traffic(1, 1, 0, 4);
        obs.on_cut_traffic(2, 0, 1, 3);
        assert_eq!(obs.cut_traffic_total, 17);
        assert_eq!(
            obs.to_json()
                .get("cut_traffic_total")
                .and_then(Json::as_u64),
            Some(17)
        );
    }

    #[test]
    fn json_contains_the_series() {
        let mut obs = TimeSeriesObserver::new();
        obs.on_step(
            0,
            StepRecord {
                spikes: 1,
                deliveries: 2,
                updates: 0,
            },
        );
        let j = obs.to_json();
        assert_eq!(j.get("recorded_steps").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("spikes").and_then(Json::as_arr).unwrap().len(), 1);
    }
}
