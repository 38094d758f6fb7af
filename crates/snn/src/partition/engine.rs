//! The partitioned engine: bulk-synchronous superstep execution over a
//! [`PartitionPlan`].
//!
//! Each superstep `t` has two phases:
//!
//! 1. **Compute** — every partition drains its own scheduler wheel at `t`
//!    and updates exactly the neurons that received input (the event
//!    engine's own lazy-decay update step, over its id range's slice of
//!    the run scratch). Because every synapse has delay >= 1, nothing a
//!    partition does at `t` can affect another partition at `t` — the
//!    exchange horizon is exactly one tick, so the compute phase needs no
//!    communication at all.
//! 2. **Exchange** — the barrier. Owners append one [`SpikeEvent`] per
//!    out-of-range synapse of each fired source to the destination's
//!    mailbox; then every partition schedules *all* deliveries addressed
//!    to it — its own in-range routing and each inbound mailbox stream —
//!    via a k-way merge by source id.
//!
//! The merge is the bit-identity argument: monolithic engines schedule in
//! (sorted firing id) × (CSR synapse order). A partition's fired list and
//! every inbound mailbox stream are each sorted by source id, with
//! disjoint sources; merging them by source id therefore replays the
//! exact monolithic scheduling order into each partition wheel, and the
//! wheels (sized to the *global* max delay so horizon classification
//! matches) drain in scheduling order. Per-target floating-point
//! accumulation order — and with it every `RunResult` bit — is preserved.
//!
//! One superstep loop (the `driver` module) runs these phases at
//! every thread count: each worker runs them over the partitions it
//! owns, and a one-worker run — `threads <= 1`, or a plan with at most
//! one non-empty partition — runs them inline on the calling thread, so
//! single-threaded runs pay zero barrier overhead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sgl_observe::{NullObserver, RunObserver, SchedulerStats};

use crate::engine::wheel::TimeWheel;
use crate::engine::{Engine, EngineChoice, RunConfig, RunResult, RunScratch};
use crate::error::SnnError;
use crate::network::Network;
use crate::types::{NeuronId, Time};

use super::channel::SpikeEvent;
use super::plan::PartitionPlan;

/// Cut-traffic accounting for one directed partition pair.
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
}

/// The cut-spike mailbox of one ordered partition pair, created per run.
///
/// The owner of the source partition appends during the compute phase
/// and the owner of the destination takes everything during the merge
/// phase; the publish barrier between the two orders every append before
/// every take. The lock exists only for `Sync` under this crate's
/// `#![forbid(unsafe_code)]` and is never contended.
#[derive(Default)]
pub(super) struct Mailbox {
    events: Mutex<Vec<SpikeEvent>>,
    /// Cumulative events taken over the run.
    messages: AtomicU64,
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
    /// Worker threads that drove the supersteps (1 = inline, no pool).
    pub threads: usize,
    /// Static edge cut of the plan.
    pub cut_edges: u64,
    /// Total spike events carried between partitions.
    pub cut_messages: u64,
    /// Always 0: a mailbox grows instead of spilling. The field stays so
    /// existing readers of these stats keep compiling.
    pub spilled_messages: u64,
    /// Supersteps executed (including the `t = 0` injection step).
    pub supersteps: u64,
    /// Per-pair breakdown over pairs with a cut edge, ordered by
    /// `(from, to)`.
    pub channels: Vec<ChannelTraffic>,
    /// Per-worker busy/barrier-wait totals (empty for one-worker runs).
    pub workers: Vec<WorkerStats>,
    /// Worst superstep imbalance: the slowest worker's busy time over the
    /// per-worker mean (1.0 = perfectly balanced; 0 for one-worker runs).
    pub imbalance_max: f64,
    /// Mean superstep imbalance across all supersteps the workers drove.
    pub imbalance_mean: f64,
}

/// Per-partition run state beside its slice of the run scratch: wheel,
/// spike lists and exchange buffers, by range-local id (new id minus the
/// range start).
pub(super) struct PartState {
    pub(super) wheel: TimeWheel,
    pub(super) batch: Vec<(NeuronId, f64)>,
    /// Range-local ids fired this superstep, ascending.
    pub(super) fired: Vec<NeuronId>,
    pub(super) touched: Vec<NeuronId>,
    /// Per-peer inbound event buffers, swapped with the peers' mailboxes
    /// each superstep so capacity recycles.
    inbox: Vec<Vec<SpikeEvent>>,
    /// Per-peer merge cursors into `inbox`.
    merge_idx: Vec<usize>,
}

impl PartState {
    /// Fresh state for one partition of a `parts`-partition run.
    pub(super) fn new(global_max_delay: u32, parts: usize) -> Self {
        Self {
            // Sized to the *global* max delay: in-horizon vs overflow
            // classification must match the monolithic wheel (see
            // `PartitionPlan::max_delay`).
            wheel: TimeWheel::new(global_max_delay),
            batch: Vec::new(),
            fired: Vec::new(),
            touched: Vec::new(),
            inbox: vec![Vec::new(); parts],
            merge_idx: vec![0; parts],
        }
    }
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

impl PartitionPlan<'_> {
    /// Runs the plan with spikes induced in `initial_spikes` at `t = 0`,
    /// driven by `threads` worker threads (capped at the
    /// busy-partition count; one worker runs inline on the calling
    /// thread), and returns the run stats with the result — including the
    /// per-worker busy/barrier-wait totals and superstep imbalance when a
    /// worker pool actually ran.
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
    /// once per partition pair with traffic per superstep. The step,
    /// scheduler, and cut-traffic series are bit-identical at any thread
    /// count; a pooled run additionally reports
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
        self.run_in(initial_spikes, config, threads, &mut RunScratch::new(), obs)
    }

    /// [`Self::run_observed_threaded`] on the caller's `scratch`: reset
    /// for the network, then split by partition range. Every
    /// partitioned run, [`crate::engine::Prepared::run`]'s included,
    /// goes through here.
    pub(crate) fn run_in<O: RunObserver>(
        &self,
        initial_spikes: &[NeuronId],
        config: &RunConfig,
        threads: usize,
        scratch: &mut RunScratch,
        obs: &mut O,
    ) -> Result<(RunResult, PartitionRunStats), SnnError> {
        let (result, stats) =
            super::driver::run(self, initial_spikes, config, threads, scratch, obs)?;
        obs.on_finish(
            result.steps,
            result.stats.spike_events,
            result.stats.synaptic_deliveries,
            result.stats.neuron_updates,
        );
        Ok((result, stats))
    }

    pub(super) fn traffic_stats(
        &self,
        mailboxes: &[Option<Mailbox>],
        supersteps: u64,
    ) -> PartitionRunStats {
        let p = self.parts();
        let mut out = PartitionRunStats {
            parts: p,
            cut_edges: self.cut_edge_count(),
            supersteps,
            ..PartitionRunStats::default()
        };
        for from in 0..p {
            for to in 0..p {
                if let Some(mb) = mailboxes[from * p + to].as_ref() {
                    let traffic = ChannelTraffic {
                        from: from as u32,
                        to: to as u32,
                        cut_edges: self.pair_cut(from, to),
                        messages: mb.messages.load(Ordering::Relaxed),
                    };
                    out.cut_messages += traffic.messages;
                    out.channels.push(traffic);
                }
            }
        }
        out
    }
}

/// The publish half of the exchange for one partition: one [`SpikeEvent`]
/// per (fired source) × (synapse whose target lies outside `q`'s range),
/// appended to the destination's mailbox. In a pooled run this runs
/// concurrently across partitions, but each mailbox still has exactly one
/// producer (the owner of `q`) and no reader until the publish barrier,
/// so within a mailbox the push order is `q`'s fired order × CSR order at
/// any thread count. A plan with an empty cut skips the scan entirely.
pub(super) fn publish_cut(
    plan: &PartitionPlan<'_>,
    q: usize,
    fired: &[NeuronId],
    mailboxes: &[Option<Mailbox>],
    t: Time,
) {
    if plan.cut_edge_count() == 0 {
        return;
    }
    let p = plan.parts();
    let range = plan.range(q);
    let csr = plan.network().csr();
    for &l in fired {
        let i = range.start + l.index();
        for s in csr.out(i) {
            let target = s.target.index();
            if range.contains(&target) {
                continue;
            }
            let to = plan.part_of(target);
            mailboxes[q * p + to]
                .as_ref()
                .expect("cut synapse implies a mailbox")
                .events
                .lock()
                .expect("mailbox poisoned")
                .push(SpikeEvent {
                    src: i as u32,
                    due: t + Time::from(s.delay),
                    target_local: (target - plan.bounds()[to]) as u32,
                    weight: s.weight,
                });
        }
    }
}

/// The schedule half of the exchange for one partition: take every
/// inbound mailbox (a `Vec` swap with the cleared inbox, so no event is
/// copied and both buffers keep their capacity), then k-way merge the
/// disjoint-source streams (own in-range routing + one stream per peer)
/// into the wheel by source id. Returns the deliveries
/// scheduled; inbound message counts accumulate into
/// `tick_traffic[peer * parts + q]`.
pub(super) fn merge_schedule(
    plan: &PartitionPlan<'_>,
    q: usize,
    st: &mut PartState,
    mailboxes: &[Option<Mailbox>],
    t: Time,
    tick_traffic: &mut [u64],
) -> u64 {
    let p = plan.parts();
    let csr = plan.network().csr();
    let range = plan.range(q);
    let (lo, len) = (range.start, range.len());
    // Routes own source `l`'s in-range synapses (the rest went out through
    // `publish_cut`); one compare tests `lo <= target < lo + len`.
    let route_own = |l: NeuronId, wheel: &mut TimeWheel| {
        let mut routed = 0;
        for s in csr.out(lo + l.index()) {
            let local = s.target.index().wrapping_sub(lo);
            if local < len {
                wheel.schedule(t + Time::from(s.delay), NeuronId(local as u32), s.weight);
                routed += 1;
            }
        }
        routed
    };
    let PartState {
        wheel,
        fired,
        inbox,
        merge_idx,
        ..
    } = st;

    let mut deliveries = 0u64;
    let mut inbound = 0u64;
    for peer in 0..p {
        inbox[peer].clear();
        merge_idx[peer] = 0;
        if peer == q {
            continue;
        }
        if let Some(mb) = mailboxes[peer * p + q].as_ref() {
            std::mem::swap(
                &mut *mb.events.lock().expect("mailbox poisoned"),
                &mut inbox[peer],
            );
            let got = inbox[peer].len() as u64;
            mb.messages.fetch_add(got, Ordering::Relaxed);
            tick_traffic[peer * p + q] += got;
            inbound += got;
        }
    }

    // Nothing inbound (always true at one partition, and the common case
    // on quiet boundaries): own-fired is the only stream, already in
    // ascending id order — route it directly, skipping the
    // per-source merge scan.
    if inbound == 0 {
        for &l in fired.iter() {
            deliveries += route_own(l, wheel);
        }
        return deliveries;
    }

    let mut own_i = 0usize;
    loop {
        // Lowest next source id across own fired + inboxes.
        let mut best_src = u32::MAX;
        let mut best_stream = p; // p = the own-fired stream
        let mut found = false;
        if own_i < fired.len() {
            best_src = (lo + fired[own_i].index()) as u32;
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
            deliveries += route_own(fired[own_i], wheel);
            own_i += 1;
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

/// Reports this superstep's per-pair cut traffic to the observer and
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

/// The partitioned execution engine: compiles a contiguous-range
/// [`PartitionPlan`] and drives it with bulk-synchronous supersteps.
///
/// Bit-identical to [`crate::engine::EventEngine`] (including work
/// counters) under any partition count and bounds. For repeated runs
/// over one network, compile the plan once via [`Self::compile`] (or
/// [`crate::engine::EngineChoice::prepare`]) and run that.
#[derive(Clone, Copy, Debug)]
pub struct PartitionedEngine {
    /// Number of partitions (>= 1; empty partitions are allowed).
    pub parts: usize,
    /// Worker threads driving the supersteps (1 = inline on the calling
    /// thread; more engages a worker pool, capped at the busy-partition
    /// count).
    pub threads: usize,
}

impl PartitionedEngine {
    /// An engine with `parts` partitions and one worker (inline, no
    /// pool).
    #[must_use]
    pub fn new(parts: usize) -> Self {
        Self { parts, threads: 1 }
    }

    /// Sets the worker-thread count for the superstep loop. `0` and `1`
    /// both mean one worker, run inline on the calling thread.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Compiles `net` into a reusable [`PartitionPlan`] that borrows it.
    ///
    /// # Errors
    /// Fails when the network is invalid for event-style execution.
    pub fn compile<'n>(&self, net: &'n Network) -> Result<PartitionPlan<'n>, SnnError> {
        PartitionPlan::compile(net, self.parts)
    }
}

impl Engine for PartitionedEngine {
    /// A one-shot [`Engine::run`] compiles the plan on every call.
    /// Repeated runs over one network compile once instead:
    /// [`EngineChoice::prepare`] or [`Self::compile`] plus
    /// [`PartitionPlan::run_with_stats_threaded`].
    fn choice(&self) -> EngineChoice {
        EngineChoice::Partitioned {
            parts: self.parts,
            threads: self.threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineChoice, EventEngine, StopReason};
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
    fn neurons_start_at_their_reset_potential() {
        // b rests at v_reset = -1.0, so one 1.2 input leaves it at 0.2,
        // below threshold 0.5: no engine may fire it. With decay the
        // lazy update must also decay toward -1.0, not from 0.0.
        for decay in [0.0, 0.5] {
            let mut net = Network::new();
            let params = LifParams {
                v_reset: -1.0,
                v_threshold: 0.5,
                decay,
            };
            let a = net.add_neuron(params);
            let b = net.add_neuron(params);
            net.connect(a, b, 1.2, 1).unwrap();
            let cfg = RunConfig::until_quiescent(10).with_raster();
            let mono = EventEngine.run(&net, &[a], &cfg).unwrap();
            assert!(!mono.fired(b));
            for parts in [1, 2, 3] {
                let part = PartitionedEngine::new(parts).run(&net, &[a], &cfg).unwrap();
                assert_eq!(mono, part, "decay = {decay}, parts = {parts}");
            }
        }
    }

    #[test]
    fn recycled_scratch_survives_layout_changes() {
        // One scratch through partitioned runs whose uneven bounds are no
        // multiple of 64 (so each range's bitset words differ from the
        // event layout's) and event runs on a network of another size:
        // every run must equal its fresh-scratch twin. Leaky neurons rest
        // at -1 and side edges leave sub-threshold input behind, so stale
        // voltages, decay times or touched bits would show.
        let leaky = LifParams {
            v_reset: -1.0,
            v_threshold: 0.5,
            decay: 0.5,
        };
        let wide = |n: usize| {
            let mut net = Network::new();
            let ids = net.add_neurons(leaky, n);
            for (i, w) in ids.windows(2).enumerate() {
                net.connect(w[0], w[1], 2.0, 1 + (i % 3) as u32).unwrap();
                net.connect(w[0], ids[(i * 7 + 3) % n], 0.4, 5).unwrap();
            }
            net
        };
        let (big, small) = (wide(333), wide(130));
        let cfg = RunConfig::until_quiescent(2000).with_raster();
        let mut scratch = RunScratch::new();
        let (src, small_src) = ([NeuronId(0)], [NeuronId(5)]);
        let event = EngineChoice::Event.prepare(&small).unwrap();
        for (bounds, threads) in [(vec![0, 70, 70, 200, 333], 1), (vec![0, 1, 129, 333], 2)] {
            let plan = PartitionPlan::with_bounds(&big, bounds).unwrap();
            let (fresh, _) = plan.run_with_stats_threaded(&src, &cfg, threads).unwrap();
            let (reused, _) = plan
                .run_in(&src, &cfg, threads, &mut scratch, &mut NullObserver)
                .unwrap();
            assert_eq!(reused, fresh, "bounds {:?}", plan.bounds());
            assert_eq!(reused, EventEngine.run(&big, &src, &cfg).unwrap());

            let reused = event
                .run(&small_src, &cfg, &mut scratch, &mut NullObserver)
                .unwrap();
            assert_eq!(reused, EventEngine.run(&small, &small_src, &cfg).unwrap());
        }
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
