//! The partitioned engine: bulk-synchronous superstep execution over a
//! [`PartitionPlan`].
//!
//! Each superstep `t` has two phases:
//!
//! 1. **Compute** — every partition drains its own scheduler wheel at `t`
//!    and updates exactly the neurons that received input (the event
//!    engine's lazy-decay update, verbatim). Because every synapse has
//!    delay >= 1, nothing a partition does at `t` can affect another
//!    partition at `t` — the exchange horizon is exactly one tick, so the
//!    compute phase needs no communication at all.
//! 2. **Exchange** — the barrier. Owners push one [`SpikeEvent`] per cut
//!    synapse of each fired source onto the destination's channel; then
//!    every partition schedules *all* deliveries addressed to it — its
//!    own intra-partition routing and each inbound channel stream — via a
//!    k-way merge by global source id.
//!
//! The merge is the bit-identity argument: monolithic engines schedule in
//! (sorted global firing id) × (CSR synapse order). Local ids ascend with
//! global ids, so a partition's fired list and every inbound channel
//! stream are each sorted by global source id, with disjoint sources;
//! merging them by source id therefore replays the exact monolithic
//! scheduling order into each partition wheel, and the wheels (sized to
//! the *global* max delay so horizon classification matches) drain in
//! scheduling order. Per-target floating-point accumulation order — and
//! with it every `RunResult` bit — is preserved.
//!
//! Two drivers share this phase structure. The sequential driver in this
//! module takes partitions in turn within one thread; the threaded
//! driver in [`super::driver`] gives each worker thread a fixed set of
//! partitions and meets the others at a tiered barrier between phases —
//! same phases, same merge, bit-identical results. `threads <= 1` (or a
//! plan with at most one non-empty partition) always takes the
//! sequential path, so single-threaded runs pay zero barrier overhead.

use sgl_observe::{NullObserver, RunObserver, SchedulerStats, StepRecord};

use crate::engine::wheel::TimeWheel;
use crate::engine::{Engine, Recorder, RunConfig, RunResult, StopCondition, StopReason};
use crate::error::SnnError;
use crate::network::Network;
use crate::params::LifParams;
use crate::types::{NeuronId, Time};

use super::channel::{SpikeChannel, SpikeEvent};
use super::cut::CutStrategy;
use super::plan::PartitionPlan;

/// Cut-traffic accounting for one directed spike channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelTraffic {
    /// Producing partition.
    pub from: u32,
    /// Consuming partition.
    pub to: u32,
    /// Static cut size: boundary synapses from `from` into `to`.
    pub cut_edges: u64,
    /// Spike events actually carried during the run.
    pub messages: u64,
    /// Events that missed the bounded ring and took the spill path.
    pub spilled: u64,
}

/// Per-worker totals for one threaded run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: u32,
    /// Partitions this worker owned.
    pub partitions: u32,
    /// Nanoseconds spent in compute + merge phases across the run.
    pub busy_ns: u64,
    /// Nanoseconds blocked at superstep barriers across the run.
    pub barrier_wait_ns: u64,
}

/// Partition-level counters for one run — the measurable side of the
/// cut-traffic vs partition-count tradeoff.
#[derive(Clone, Debug, Default)]
pub struct PartitionRunStats {
    /// Number of partitions driven.
    pub parts: usize,
    /// Worker threads that drove the supersteps (1 = sequential driver).
    pub threads: usize,
    /// Static edge cut of the plan.
    pub cut_edges: u64,
    /// Total spike events carried over all channels.
    pub cut_messages: u64,
    /// Total events that overflowed a channel ring into its spill list.
    pub spilled_messages: u64,
    /// Supersteps executed (including the `t = 0` injection step).
    pub supersteps: u64,
    /// Per-channel breakdown, ordered by `(from, to)`.
    pub channels: Vec<ChannelTraffic>,
    /// Per-worker busy/barrier-wait totals (empty for the sequential
    /// driver).
    pub workers: Vec<WorkerStats>,
    /// Worst superstep imbalance: the slowest worker's busy time over the
    /// per-worker mean (1.0 = perfectly balanced; 0 for sequential runs).
    pub imbalance_max: f64,
    /// Mean superstep imbalance across all supersteps the workers drove.
    pub imbalance_mean: f64,
}

/// Per-partition run state: the partition's scheduler wheel plus the
/// event engine's lazy-decay bookkeeping, all indexed by local id.
pub(super) struct PartState {
    pub(super) wheel: TimeWheel,
    batch: Vec<(NeuronId, f64)>,
    /// Local ids fired this superstep, ascending (== ascending global).
    pub(super) fired: Vec<u32>,
    voltages: Vec<f64>,
    last_update: Vec<Time>,
    accum: Vec<f64>,
    dirty: Vec<bool>,
    touched: Vec<NeuronId>,
    /// Per-peer inbound event buffers, recycled across supersteps.
    inbox: Vec<Vec<SpikeEvent>>,
    /// Per-peer merge cursors into `inbox`.
    merge_idx: Vec<usize>,
}

impl PartState {
    pub(super) fn new(local_count: usize, global_max_delay: u32, parts: usize) -> Self {
        Self {
            // Sized to the *global* max delay: in-horizon vs overflow
            // classification must match the monolithic wheel (see
            // `PartitionPlan::max_delay`).
            wheel: TimeWheel::new(global_max_delay),
            batch: Vec::new(),
            fired: Vec::new(),
            voltages: vec![0.0; local_count],
            last_update: vec![0; local_count],
            accum: vec![0.0; local_count],
            dirty: vec![false; local_count],
            touched: Vec::new(),
            inbox: vec![Vec::new(); parts],
            merge_idx: vec![0; parts],
        }
    }

    /// The compute phase: drain deliveries due at `t`, apply the event
    /// engine's lazy-decay update to every touched neuron, and collect
    /// fired local ids. Returns `(batch_len, updates)`.
    pub(super) fn step(&mut self, t: Time, params: &[LifParams]) -> (u64, u64) {
        self.batch.clear();
        self.wheel.drain_at(t, &mut self.batch);
        for &(id, w) in &self.batch {
            let i = id.index();
            if !self.dirty[i] {
                self.dirty[i] = true;
                self.touched.push(id);
            }
            self.accum[i] += w;
        }
        self.touched.sort_unstable();
        let updates = self.touched.len() as u64;

        self.fired.clear();
        for &id in &self.touched {
            let i = id.index();
            let p = &params[i];
            let dt = t - self.last_update[i];
            let v0 = self.voltages[i];
            let decayed = if dt == 0 || p.decay == 0.0 {
                v0
            } else if p.decay == 1.0 {
                p.v_reset
            } else {
                p.v_reset + (v0 - p.v_reset) * (1.0 - p.decay).powi(dt as i32)
            };
            let v_hat = decayed + self.accum[i];
            if v_hat > p.v_threshold {
                self.fired.push(id.0);
                self.voltages[i] = p.v_reset;
            } else {
                self.voltages[i] = v_hat;
            }
            self.last_update[i] = t;
            self.accum[i] = 0.0;
            self.dirty[i] = false;
        }
        self.touched.clear();
        (self.batch.len() as u64, updates)
    }
}

/// Earliest superstep with a pending delivery in any partition.
pub(super) fn next_superstep(states: &mut [PartState]) -> Option<Time> {
    let mut best: Option<Time> = None;
    for st in states.iter_mut() {
        if let Some(t) = st.wheel.next_time() {
            best = Some(best.map_or(t, |b| b.min(t)));
        }
    }
    best
}

/// Occupancy across all partition wheels. `in_flight` and
/// `overflow_hits` sum to exactly the monolithic values; `occupied_slots`
/// and `overflow_entries` may exceed them (the same arrival time can
/// occupy a slot in several wheels).
pub(super) fn aggregate_scheduler<'a>(
    states: impl IntoIterator<Item = &'a PartState>,
) -> SchedulerStats {
    let mut agg = SchedulerStats::default();
    for st in states {
        let s = st.wheel.observe();
        agg.in_flight += s.in_flight;
        agg.occupied_slots += s.occupied_slots;
        agg.overflow_entries += s.overflow_entries;
        agg.overflow_hits += s.overflow_hits;
    }
    agg
}

impl PartitionPlan {
    /// Runs the plan with spikes induced in `initial_spikes` (global ids)
    /// at `t = 0`, driven by `threads` worker threads (1 = the sequential
    /// driver; see [`super::driver`]), and returns the run stats with the
    /// result — including the per-worker busy/barrier-wait totals and
    /// superstep imbalance when the threaded driver actually engaged.
    /// Bit-identical to running the source network on
    /// [`crate::engine::EventEngine`] at any thread count.
    ///
    /// # Errors
    /// Fails on unknown initial neurons, a `Terminal` stop condition
    /// without a terminal neuron, or (in strict mode) an exhausted step
    /// budget. The network itself was validated at compile time.
    pub fn run_with_stats_threaded(
        &self,
        initial_spikes: &[NeuronId],
        config: &RunConfig,
        threads: usize,
    ) -> Result<(RunResult, PartitionRunStats), SnnError> {
        self.run_observed_threaded(initial_spikes, config, threads, &mut NullObserver)
    }

    /// [`Self::run_with_stats_threaded`] with telemetry hooks. Alongside
    /// the usual step and scheduler series (aggregated across
    /// partitions), the observer receives [`RunObserver::on_cut_traffic`]
    /// once per channel with traffic per superstep. The step, scheduler,
    /// and cut-traffic series are bit-identical at any thread count; the
    /// threaded driver additionally reports
    /// [`RunObserver::on_worker_superstep`],
    /// [`RunObserver::on_superstep_imbalance`], and the coordinator's
    /// [`RunObserver::on_barrier_wait`].
    ///
    /// # Errors
    /// Same failure modes as [`Self::run_with_stats_threaded`].
    pub fn run_observed_threaded<O: RunObserver>(
        &self,
        initial_spikes: &[NeuronId],
        config: &RunConfig,
        threads: usize,
        obs: &mut O,
    ) -> Result<(RunResult, PartitionRunStats), SnnError> {
        let (result, stats) = self.run_core(initial_spikes, config, threads, obs)?;
        obs.on_finish(
            result.steps,
            result.stats.spike_events,
            result.stats.synaptic_deliveries,
            result.stats.neuron_updates,
        );
        Ok((result, stats))
    }

    /// [`Self::run_observed_threaded`] without the final `on_finish` —
    /// the shared hot path ([`crate::engine::Prepared::run`] reports the
    /// finish itself).
    pub(crate) fn run_core<O: RunObserver>(
        &self,
        initial_spikes: &[NeuronId],
        config: &RunConfig,
        threads: usize,
        obs: &mut O,
    ) -> Result<(RunResult, PartitionRunStats), SnnError> {
        let p = self.parts();
        for &id in initial_spikes {
            if id.index() >= self.neuron_count() {
                return Err(SnnError::UnknownNeuron(id));
            }
        }
        let mut rec = Recorder::with_shape(self.neuron_count(), self.terminal(), config)?;
        let mut states: Vec<PartState> = (0..p)
            .map(|q| PartState::new(self.subnet(q).neuron_count(), self.max_delay(), p))
            .collect();
        // One SPSC channel per ordered pair with at least one cut synapse.
        let channels: Vec<Option<SpikeChannel>> = (0..p * p)
            .map(|i| {
                let (from, to) = (i / p, i % p);
                (from != to && self.pair_cut(from, to) > 0)
                    .then(|| SpikeChannel::new(self.channel_capacity(from, to)))
            })
            .collect();
        let mut tick_traffic = vec![0u64; p * p];
        let mut supersteps = 1u64;

        // t = 0: induce the initial spikes and route their deliveries.
        let mut fired_global: Vec<NeuronId> = initial_spikes.to_vec();
        fired_global.sort_unstable();
        fired_global.dedup();
        for &id in &fired_global {
            let q = self.assignment()[id.index()] as usize;
            states[q].fired.push(self.local_of()[id.index()]);
        }
        let mut stop_hit = rec.record_step(0, &fired_global, &config.stop);
        let deliveries = self.exchange(0, &mut states, &channels, &mut tick_traffic, &mut rec);
        obs.on_step(
            0,
            StepRecord {
                spikes: fired_global.len() as u64,
                deliveries,
                updates: 0,
            },
        );
        if O::ENABLED {
            obs.on_scheduler(0, aggregate_scheduler(&states));
        }
        emit_cut_traffic(obs, 0, p, &mut tick_traffic);
        if stop_hit
            && !matches!(
                config.stop,
                StopCondition::MaxSteps | StopCondition::Quiescent
            )
        {
            let result = rec.finish(0, StopReason::ConditionMet, config)?;
            return Ok((result, self.traffic_stats(&channels, supersteps)));
        }

        // Occupancy-aware worker shedding (the PR 3 fix, applied here):
        // a worker can only be busy when it owns a non-empty partition,
        // so cap the pool at the busy-partition count and take the
        // sequential path outright when one worker would own everything —
        // zero barrier overhead at `threads == 1` or single-partition
        // plans.
        let busy_parts = (0..p)
            .filter(|&q| self.subnet(q).neuron_count() > 0)
            .count()
            .max(1);
        let workers = threads.clamp(1, busy_parts);
        if workers > 1 {
            return super::driver::run_threaded(
                self,
                config,
                obs,
                rec,
                states,
                channels,
                fired_global,
                tick_traffic,
                supersteps,
                workers,
            );
        }

        let mut last_active: Time = 0;
        while let Some(t) = next_superstep(&mut states) {
            if t > config.max_steps {
                break;
            }
            supersteps += 1;

            // Compute phase: every wheel is drained at every superstep —
            // including empty ones — so each partition clock stays equal
            // to the monolithic clock (horizon classification depends on
            // `now`).
            let mut batch_total = 0u64;
            let mut updates_total = 0u64;
            for (q, st) in states.iter_mut().enumerate() {
                let (b, u) = st.step(t, self.subnet(q).params_slice());
                batch_total += b;
                updates_total += u;
            }
            obs.on_spike_batch(t, batch_total);
            rec.add_updates(updates_total);

            fired_global.clear();
            for (q, st) in states.iter().enumerate() {
                let globals = self.globals(q);
                fired_global.extend(st.fired.iter().map(|&l| globals[l as usize]));
            }
            fired_global.sort_unstable();
            last_active = t;

            stop_hit = rec.record_step(t, &fired_global, &config.stop);
            let deliveries = self.exchange(t, &mut states, &channels, &mut tick_traffic, &mut rec);
            obs.on_step(
                t,
                StepRecord {
                    spikes: fired_global.len() as u64,
                    deliveries,
                    updates: updates_total,
                },
            );
            if O::ENABLED {
                obs.on_scheduler(t, aggregate_scheduler(&states));
            }
            emit_cut_traffic(obs, t, p, &mut tick_traffic);

            if stop_hit
                && !matches!(
                    config.stop,
                    StopCondition::MaxSteps | StopCondition::Quiescent
                )
            {
                let result = rec.finish(t, StopReason::ConditionMet, config)?;
                return Ok((result, self.traffic_stats(&channels, supersteps)));
            }
        }

        let result = if states.iter().all(|st| st.wheel.is_empty()) {
            rec.finish(last_active, StopReason::Quiescent, config)?
        } else {
            rec.finish(config.max_steps, StopReason::MaxStepsReached, config)?
        };
        Ok((result, self.traffic_stats(&channels, supersteps)))
    }

    /// The barrier: owners publish cut deliveries for this superstep's
    /// spikes, then every partition schedules everything addressed to it
    /// — own intra-partition routing merged with inbound channel streams
    /// by global source id (see the module docs for why this reproduces
    /// the monolithic scheduling order).
    fn exchange(
        &self,
        t: Time,
        states: &mut [PartState],
        channels: &[Option<SpikeChannel>],
        tick_traffic: &mut [u64],
        rec: &mut Recorder,
    ) -> u64 {
        for (q, st) in states.iter().enumerate() {
            publish_cut(self, q, &st.fired, channels, t);
        }
        let mut deliveries = 0u64;
        for (q, st) in states.iter_mut().enumerate() {
            deliveries += merge_schedule(self, q, st, channels, t, tick_traffic);
        }
        rec.add_deliveries(deliveries);
        deliveries
    }

    pub(super) fn traffic_stats(
        &self,
        channels: &[Option<SpikeChannel>],
        supersteps: u64,
    ) -> PartitionRunStats {
        let p = self.parts();
        let mut out = PartitionRunStats {
            parts: p,
            threads: 1,
            cut_edges: self.cut_edge_count(),
            supersteps,
            ..PartitionRunStats::default()
        };
        for from in 0..p {
            for to in 0..p {
                if let Some(ch) = channels[from * p + to].as_ref() {
                    let traffic = ChannelTraffic {
                        from: from as u32,
                        to: to as u32,
                        cut_edges: self.pair_cut(from, to),
                        messages: ch.messages(),
                        spilled: ch.spilled(),
                    };
                    out.cut_messages += traffic.messages;
                    out.spilled_messages += traffic.spilled;
                    out.channels.push(traffic);
                }
            }
        }
        out
    }
}

/// The publish half of the exchange for one partition: one [`SpikeEvent`]
/// per (fired source) × (cut synapse), pushed onto the destination's
/// channel. In the threaded driver this runs concurrently across
/// partitions — each channel still has exactly one producer (the owner of
/// `q`), so the SPSC ring contract holds, and within a channel the push
/// order is `q`'s fired order × CSR order, identical to the sequential
/// driver. A plan with an empty cut skips the scan entirely.
pub(super) fn publish_cut(
    plan: &PartitionPlan,
    q: usize,
    fired: &[u32],
    channels: &[Option<SpikeChannel>],
    t: Time,
) {
    if plan.cut_edge_count() == 0 {
        return;
    }
    let p = plan.parts();
    for &l in fired {
        let cuts = plan.cut_out(q, l as usize);
        if cuts.is_empty() {
            continue;
        }
        let src = plan.globals(q)[l as usize].0;
        for c in cuts {
            channels[q * p + c.part as usize]
                .as_ref()
                .expect("cut synapse implies a channel")
                .push(SpikeEvent {
                    src,
                    due: PartitionPlan::due(t, c),
                    target_local: c.target_local,
                    weight: c.weight,
                });
        }
    }
}

/// The schedule half of the exchange for one partition: drain every
/// inbound channel, then k-way merge the disjoint-source streams (own
/// intra-partition routing + one stream per peer) into the wheel by
/// global source id. Returns the deliveries scheduled; inbound message
/// counts accumulate into `tick_traffic[peer * parts + q]`.
pub(super) fn merge_schedule(
    plan: &PartitionPlan,
    q: usize,
    st: &mut PartState,
    channels: &[Option<SpikeChannel>],
    t: Time,
    tick_traffic: &mut [u64],
) -> u64 {
    let p = plan.parts();
    let csr = plan.subnet(q).csr();
    let globals = plan.globals(q);
    let PartState {
        wheel,
        fired,
        inbox,
        merge_idx,
        ..
    } = st;

    let mut deliveries = 0u64;
    let mut inbound = 0usize;
    for peer in 0..p {
        inbox[peer].clear();
        merge_idx[peer] = 0;
        if peer == q {
            continue;
        }
        if let Some(ch) = channels[peer * p + q].as_ref() {
            let got = ch.drain_into(&mut inbox[peer]);
            tick_traffic[peer * p + q] += got as u64;
            inbound += got;
        }
    }

    // Nothing inbound (always true at one partition, and the common case
    // on quiet boundaries): own-fired is the only stream, already in
    // ascending global order — route it directly, skipping the per-source
    // merge scan.
    if inbound == 0 {
        for &l in fired.iter() {
            for s in csr.out(l as usize) {
                wheel.schedule(t + Time::from(s.delay), s.target, s.weight);
                deliveries += 1;
            }
        }
        return deliveries;
    }

    let mut own_i = 0usize;
    loop {
        // Lowest next global source across own fired + inboxes.
        let mut best_src = u32::MAX;
        let mut best_stream = p; // p = the own-fired stream
        let mut found = false;
        if own_i < fired.len() {
            best_src = globals[fired[own_i] as usize].0;
            found = true;
        }
        for peer in 0..p {
            if let Some(ev) = inbox[peer].get(merge_idx[peer]) {
                if !found || ev.src < best_src {
                    best_src = ev.src;
                    best_stream = peer;
                    found = true;
                }
            }
        }
        if !found {
            break;
        }
        if best_stream == p {
            let l = fired[own_i] as usize;
            own_i += 1;
            for s in csr.out(l) {
                wheel.schedule(t + Time::from(s.delay), s.target, s.weight);
                deliveries += 1;
            }
        } else {
            // Consume the whole same-source group (events arrive grouped
            // by source, in CSR order within a group).
            while let Some(ev) = inbox[best_stream].get(merge_idx[best_stream]) {
                if ev.src != best_src {
                    break;
                }
                wheel.schedule(ev.due, NeuronId(ev.target_local), ev.weight);
                deliveries += 1;
                merge_idx[best_stream] += 1;
            }
        }
    }
    deliveries
}

/// Reports this superstep's per-channel traffic to the observer and
/// resets the per-tick counters.
pub(super) fn emit_cut_traffic<O: RunObserver>(
    obs: &mut O,
    t: Time,
    p: usize,
    tick_traffic: &mut [u64],
) {
    if O::ENABLED {
        for from in 0..p {
            for to in 0..p {
                let v = tick_traffic[from * p + to];
                if v > 0 {
                    obs.on_cut_traffic(t, from as u32, to as u32, v);
                }
            }
        }
    }
    tick_traffic.fill(0);
}

/// The partitioned execution engine: compiles an edge-cut
/// [`PartitionPlan`] and drives it with bulk-synchronous supersteps.
///
/// Bit-identical to [`crate::engine::EventEngine`] (including work
/// counters) under any partition count and strategy. For repeated runs
/// over one network, compile the plan once via [`Self::compile`] (or
/// [`crate::engine::EngineChoice::prepare`]) and run that.
#[derive(Clone, Copy, Debug)]
pub struct PartitionedEngine {
    /// Number of partitions (>= 1; empty partitions are allowed).
    pub parts: usize,
    /// Edge-cut strategy used at compile time.
    pub strategy: CutStrategy,
    /// Worker threads driving the supersteps (1 = sequential driver; more
    /// engages the threaded BSP driver, capped at the busy-partition
    /// count).
    pub threads: usize,
}

impl PartitionedEngine {
    /// An engine with `parts` partitions, the default cut strategy, and
    /// the sequential driver.
    #[must_use]
    pub fn new(parts: usize) -> Self {
        Self {
            parts,
            strategy: CutStrategy::default(),
            threads: 1,
        }
    }

    /// Overrides the edge-cut strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: CutStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the worker-thread count for the superstep driver. `0` and `1`
    /// both mean the sequential driver.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Compiles `net` into a reusable [`PartitionPlan`].
    ///
    /// # Errors
    /// Fails when the network is invalid for event-style execution.
    pub fn compile(&self, net: &Network) -> Result<PartitionPlan, SnnError> {
        PartitionPlan::compile(net, self.parts, self.strategy.partitioner())
    }
}

impl Engine for PartitionedEngine {
    /// One-shot compile + run. Repeated runs over one network compile once
    /// instead: [`crate::engine::EngineChoice::prepare`] (default cut
    /// strategy) or [`Self::compile`] plus
    /// [`PartitionPlan::run_with_stats_threaded`].
    fn run(
        &self,
        net: &Network,
        initial_spikes: &[NeuronId],
        config: &RunConfig,
    ) -> Result<RunResult, SnnError> {
        self.compile(net)?
            .run_with_stats_threaded(initial_spikes, config, self.threads)
            .map(|(result, _)| result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EventEngine;
    use crate::params::LifParams;

    fn chain(n: usize, delay: u32) -> Network {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), n);
        for w in ids.windows(2) {
            net.connect(w[0], w[1], 1.0, delay).unwrap();
        }
        net
    }

    #[test]
    fn matches_event_engine_on_a_chain() {
        let net = chain(10, 3);
        let cfg = RunConfig::until_quiescent(100);
        let mono = EventEngine.run(&net, &[NeuronId(0)], &cfg).unwrap();
        for parts in [1, 2, 4, 8] {
            let part = PartitionedEngine::new(parts)
                .run(&net, &[NeuronId(0)], &cfg)
                .unwrap();
            assert_eq!(mono, part, "parts = {parts}");
        }
    }

    #[test]
    fn cut_traffic_counts_boundary_deliveries() {
        // 4-chain split in half: one cut edge, crossed once.
        let net = chain(4, 1);
        let (result, stats) = PartitionedEngine::new(2)
            .with_strategy(CutStrategy::Range)
            .compile(&net)
            .unwrap()
            .run_with_stats_threaded(&[NeuronId(0)], &RunConfig::until_quiescent(10), 1)
            .unwrap();
        assert_eq!(result.stats.spike_events, 4);
        assert_eq!(stats.parts, 2);
        assert_eq!(stats.cut_edges, 1);
        assert_eq!(stats.cut_messages, 1);
        assert_eq!(stats.spilled_messages, 0);
        assert_eq!(stats.channels.len(), 1);
        assert_eq!(stats.channels[0].from, 0);
        assert_eq!(stats.channels[0].to, 1);
        assert_eq!(stats.channels[0].messages, 1);
    }

    #[test]
    fn terminal_stop_works_across_a_cut() {
        let net = {
            let mut net = chain(6, 2);
            net.set_terminal(NeuronId(5));
            net
        };
        let cfg = RunConfig::until_terminal(100);
        let mono = EventEngine.run(&net, &[NeuronId(0)], &cfg).unwrap();
        let part = PartitionedEngine::new(3)
            .run(&net, &[NeuronId(0)], &cfg)
            .unwrap();
        assert_eq!(mono, part);
        assert_eq!(part.reason, StopReason::ConditionMet);
    }

    #[test]
    fn more_parts_than_neurons_runs_with_empty_partitions() {
        let net = chain(3, 1);
        let cfg = RunConfig::until_quiescent(10);
        let mono = EventEngine.run(&net, &[NeuronId(0)], &cfg).unwrap();
        let (part, stats) = PartitionedEngine::new(8)
            .compile(&net)
            .unwrap()
            .run_with_stats_threaded(&[NeuronId(0)], &cfg, 1)
            .unwrap();
        assert_eq!(mono, part);
        assert_eq!(stats.parts, 8);
    }

    #[test]
    fn unknown_initial_neuron_is_rejected() {
        let net = chain(3, 1);
        assert!(matches!(
            PartitionedEngine::new(2).run(&net, &[NeuronId(9)], &RunConfig::fixed(5)),
            Err(SnnError::UnknownNeuron(NeuronId(9)))
        ));
    }
}
