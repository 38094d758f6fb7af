//! Bit-plane dense engine: spike frontiers as `u64` bit-planes in a
//! per-delay ring buffer, branch-free LIF sweeps over flat arrays.
//!
//! The dense engine pays a time wheel round-trip per synaptic delivery
//! (push at fire time, pop at arrival time). This engine removes the
//! wheel entirely: the set of neurons that fired at step `t` is stored as
//! one bit-plane (`ceil(n / 64)` words) in a ring of `horizon + 1`
//! planes, and at step `t` the arrivals due are reconstructed by walking
//! the planes still inside the delay window — for the plane of firing
//! time `t_s`, the synapses with delay `t - t_s` (a precomputed
//! per-source delay bucket, see [`crate::network::BitplaneTopology`]).
//! Spike tests become mask extraction (`trailing_zeros` iteration), the
//! per-neuron LIF update is a branch-free select over flat `f64` arrays,
//! and for OR-mask-eligible networks delivery is pure bitmask OR-ing
//! with no floating point at all.
//!
//! Bit-identity with the wheel engines is by construction: planes are
//! visited in firing-time order (ascending `t_s` = descending delay),
//! sources within a plane ascend (bit order), synapses within a
//! `(source, delay)` bucket keep CSR relative order, and beyond-horizon
//! deliveries drain from an ordered map after the in-horizon window —
//! exactly the wheel's drain order, so per-target `f64` accumulation
//! order (and therefore every `RunResult` bit) matches the dense engine.

use std::collections::BTreeMap;

use sgl_observe::{NullObserver, RunObserver, SchedulerStats, StepRecord};

use super::batch::RunScratch;
use super::{check_initial, Engine, EngineChoice, Recorder, RunConfig, RunResult, StopReason};
use crate::error::SnnError;
use crate::network::{BitplaneTopology, Network};
use crate::types::{NeuronId, Time};

/// The bit-plane dense engine. Same semantics (and bit-identical
/// [`RunResult`]s, work counters included) as [`super::DenseEngine`];
/// picked by [`super::EngineChoice::Auto`] for dense topologies, where its
/// wheel-free delivery and word-parallel frontier handling win (see
/// `BENCH_engines` and DESIGN.md "Bit-plane execution").
#[derive(Clone, Copy, Debug, Default)]
pub struct BitplaneEngine;

impl Engine for BitplaneEngine {
    fn run(
        &self,
        net: &Network,
        initial_spikes: &[NeuronId],
        config: &RunConfig,
    ) -> Result<RunResult, SnnError> {
        EngineChoice::Bitplane.prepare(net)?.run(
            initial_spikes,
            config,
            &mut RunScratch::new(),
            &mut NullObserver,
        )
    }
}

/// Transient per-run state borrowed out of the scratch, plus the counters
/// the quiescence test needs. Keeping it in one struct lets the delivery
/// and scheduling phases be real functions instead of macro-sized closures.
struct Frontier<'a> {
    topo: &'a BitplaneTopology,
    /// Ring of `horizon + 1` bit-planes, `words` words each; the plane
    /// for firing time `t` lives at slot `t % ring_len`.
    planes: &'a mut [u64],
    /// Per-slot "any bit set" flags, to skip empty planes in the window.
    nonempty: &'a mut [bool],
    /// Beyond-horizon deliveries, keyed by arrival time — the ring
    /// equivalent of the wheel's overflow map (same drain position, same
    /// insertion order).
    overflow: &'a mut BTreeMap<Time, Vec<(NeuronId, f64)>>,
    /// Deliveries currently scheduled (ring + overflow); `pending == 0`
    /// exactly when the wheel's `is_empty()` would hold.
    pending: u64,
    /// Cumulative overflow-path deliveries (telemetry only).
    overflow_hits: u64,
    ring_len: Time,
    words: usize,
}

impl Frontier<'_> {
    /// Records the sorted `fired` set as the plane for step `t` and parks
    /// beyond-horizon fan-out in the overflow map. Returns the number of
    /// deliveries scheduled (the step's full routed fan-out, matching
    /// [`super::dense::route_spikes`]).
    fn schedule_fires(&mut self, fired: &[NeuronId], t: Time, rec: &mut Recorder) -> u64 {
        let slot = (t % self.ring_len) as usize;
        // The slot last held the plane of `t - ring_len`, which has aged
        // out of the delivery window; reclaim it.
        if self.nonempty[slot] {
            self.planes[slot * self.words..(slot + 1) * self.words].fill(0);
            self.nonempty[slot] = false;
        }
        let plane = &mut self.planes[slot * self.words..(slot + 1) * self.words];
        let mut deliveries = 0u64;
        let mut any = false;
        for &id in fired {
            let i = id.index();
            let hdeg = u64::from(self.topo.horizon_degree[i]);
            if hdeg > 0 {
                plane[i >> 6] |= 1u64 << (i & 63);
                any = true;
            }
            deliveries += hdeg;
            let (os, oe) = (
                self.topo.overflow_offsets[i],
                self.topo.overflow_offsets[i + 1],
            );
            for &(d, target, w) in &self.topo.overflow[os..oe] {
                self.overflow
                    .entry(t + Time::from(d))
                    .or_default()
                    .push((target, w));
            }
            deliveries += (oe - os) as u64;
            self.overflow_hits += (oe - os) as u64;
        }
        self.nonempty[slot] |= any;
        self.pending += deliveries;
        rec.add_deliveries(deliveries);
        deliveries
    }

    /// Gather-mode delivery: accumulates every arrival due at `t` into
    /// `syn`, in wheel drain order. Returns the number drained.
    fn deliver_gather(&mut self, t: Time, syn: &mut [f64]) -> u64 {
        let mut drained = 0u64;
        let topo = self.topo;
        // Planes in firing-time order: ascending t_s == descending delay,
        // exactly the order the wheel slot accumulated its pushes.
        for ts in t.saturating_sub(Time::from(topo.horizon))..t {
            let slot = (ts % self.ring_len) as usize;
            if !self.nonempty[slot] {
                continue;
            }
            let d = (t - ts) as u32;
            let plane = &self.planes[slot * self.words..(slot + 1) * self.words];
            for (w_idx, &pw) in plane.iter().enumerate() {
                let mut word = pw;
                while word != 0 {
                    let s = (w_idx << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    for b in &topo.buckets[topo.bucket_offsets[s]..topo.bucket_offsets[s + 1]] {
                        if b.delay == d {
                            for k in b.start..b.end {
                                syn[topo.targets[k] as usize] += topo.weights[k];
                            }
                            drained += (b.end - b.start) as u64;
                            break;
                        }
                        if b.delay > d {
                            break; // buckets ascend by delay
                        }
                    }
                }
            }
        }
        if let Some(batch) = self.overflow.remove(&t) {
            drained += batch.len() as u64;
            for (id, w) in batch {
                syn[id.index()] += w;
            }
        }
        self.pending -= drained;
        drained
    }

    /// OR-mask delivery: the step's fired plane is the OR of the due
    /// buckets' target masks (every arrival fires its target; see
    /// [`BitplaneTopology`] eligibility). No floating point. Returns the
    /// number of deliveries drained.
    fn deliver_masks(&mut self, t: Time, masks: &[u64], fired_words: &mut [u64]) -> u64 {
        let mut drained = 0u64;
        let topo = self.topo;
        for ts in t.saturating_sub(Time::from(topo.horizon))..t {
            let slot = (ts % self.ring_len) as usize;
            if !self.nonempty[slot] {
                continue;
            }
            let d = (t - ts) as u32;
            let plane = &self.planes[slot * self.words..(slot + 1) * self.words];
            for (w_idx, &pw) in plane.iter().enumerate() {
                let mut word = pw;
                while word != 0 {
                    let s = (w_idx << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let (bs, be) = (topo.bucket_offsets[s], topo.bucket_offsets[s + 1]);
                    for (b, bucket) in topo.buckets[bs..be].iter().enumerate() {
                        if bucket.delay == d {
                            let row = &masks[(bs + b) * self.words..(bs + b + 1) * self.words];
                            for (fw, &mw) in fired_words.iter_mut().zip(row) {
                                *fw |= mw;
                            }
                            drained += (bucket.end - bucket.start) as u64;
                            break;
                        }
                        if bucket.delay > d {
                            break;
                        }
                    }
                }
            }
        }
        if let Some(batch) = self.overflow.remove(&t) {
            drained += batch.len() as u64;
            for (id, _) in batch {
                fired_words[id.index() >> 6] |= 1u64 << (id.index() & 63);
            }
        }
        self.pending -= drained;
        drained
    }

    /// Scheduler snapshot in wheel terms: scheduled deliveries in flight,
    /// live planes in the ring, parked overflow times, cumulative
    /// overflow-path deliveries.
    fn observe(&self) -> SchedulerStats {
        SchedulerStats {
            in_flight: self.pending,
            occupied_slots: self.nonempty.iter().filter(|&&x| x).count() as u64,
            overflow_entries: self.overflow.len() as u64,
            overflow_hits: self.overflow_hits,
        }
    }
}

/// Extracts the set bits of `fired_words` as ascending [`NeuronId`]s.
fn extract_fired(fired_words: &[u64], fired: &mut Vec<NeuronId>) {
    for (w_idx, &fw) in fired_words.iter().enumerate() {
        let mut word = fw;
        while word != 0 {
            let i = (w_idx << 6) + word.trailing_zeros() as usize;
            word &= word - 1;
            fired.push(NeuronId(i as u32));
        }
    }
}

impl BitplaneEngine {
    /// The hot path: runs a network that [`EngineChoice::prepare`] has
    /// already validated (see [`super::Prepared::run`]).
    pub(crate) fn run_core<O: RunObserver>(
        &self,
        net: &Network,
        initial_spikes: &[NeuronId],
        config: &RunConfig,
        scratch: &mut RunScratch,
        obs: &mut O,
    ) -> Result<RunResult, SnnError> {
        check_initial(net, initial_spikes)?;
        let mut rec = Recorder::new(net, config)?;
        let n = net.neuron_count();
        let topo = net.bitplane();
        let params = net.params_slice();
        let words = topo.words;
        let ring_len = Time::from(topo.horizon) + 1;

        scratch.reset(net);
        scratch.bp_planes.resize(ring_len as usize * words, 0);
        scratch.bp_nonempty.resize(ring_len as usize, false);
        scratch.bp_fired_words.resize(words, 0);
        let RunScratch {
            fired,
            voltages,
            syn,
            bp_planes,
            bp_nonempty,
            bp_fired_words: fired_words,
            bp_overflow,
            ..
        } = scratch;
        let mut fr = Frontier {
            topo,
            planes: bp_planes,
            nonempty: bp_nonempty,
            overflow: bp_overflow,
            pending: 0,
            overflow_hits: 0,
            ring_len,
            words,
        };

        fired.extend_from_slice(initial_spikes);
        fired.sort_unstable();
        fired.dedup();

        // t = 0: induced input spikes.
        let mut stop_hit = rec.record_step(0, fired, &config.stop);
        let deliveries = fr.schedule_fires(fired, 0, &mut rec);
        obs.on_step(
            0,
            StepRecord {
                spikes: fired.len() as u64,
                deliveries,
                updates: 0,
            },
        );
        if O::ENABLED {
            obs.on_scheduler(0, fr.observe());
        }
        if stop_hit {
            return rec.finish(0, StopReason::ConditionMet, config);
        }
        let spontaneous = params.iter().any(|p| !p.is_input_driven());
        if fr.pending == 0 && !spontaneous {
            return rec.finish(0, StopReason::Quiescent, config);
        }

        for t in 1..=config.max_steps {
            let mut armed = false;
            if let Some(masks) = &topo.masks {
                // OR-mask mode: delivery IS the spike test. Voltages are
                // provably pinned at zero (no neuron is ever sub-threshold
                // charged), so there is no sweep and nothing is armed.
                fired_words.fill(0);
                let drained = fr.deliver_masks(t, masks, fired_words);
                obs.on_spike_batch(t, drained);
            } else {
                let drained = fr.deliver_gather(t, syn);
                obs.on_spike_batch(t, drained);

                // Branch-free LIF sweep: flat reads, select-style writes,
                // fired bits built per 64-neuron word.
                for (w_idx, fw) in fired_words.iter_mut().enumerate() {
                    let base = w_idx << 6;
                    let lim = (n - base).min(64);
                    let mut word = 0u64;
                    for b in 0..lim {
                        let i = base + b;
                        let p = &params[i];
                        let v = voltages[i];
                        // Eq. (1): decay toward reset, then add input.
                        let v_hat = v - (v - p.v_reset) * p.decay + syn[i];
                        syn[i] = 0.0;
                        // Eq. (2)/(3): threshold test and reset-on-fire.
                        let fire = v_hat > p.v_threshold;
                        let v_new = if fire { p.v_reset } else { v_hat };
                        voltages[i] = v_new;
                        word |= u64::from(fire) << b;
                        armed |= v_new - (v_new - p.v_reset) * p.decay > p.v_threshold;
                    }
                    *fw = word;
                }
            }
            // Dense update semantics in both modes: n potential updates
            // per step (mask mode performs them implicitly — every
            // voltage is a known constant zero — but the counter reports
            // the work a synchronous core would do, matching DenseEngine
            // bit-for-bit).
            rec.add_updates(n as u64);

            fired.clear();
            extract_fired(fired_words, fired);

            stop_hit = rec.record_step(t, fired, &config.stop);
            let deliveries = fr.schedule_fires(fired, t, &mut rec);
            obs.on_step(
                t,
                StepRecord {
                    spikes: fired.len() as u64,
                    deliveries,
                    updates: n as u64,
                },
            );
            if O::ENABLED {
                obs.on_scheduler(t, fr.observe());
            }

            if stop_hit {
                return rec.finish(t, StopReason::ConditionMet, config);
            }
            if fr.pending == 0 && !armed {
                return rec.finish(t, StopReason::Quiescent, config);
            }
        }

        rec.finish(config.max_steps, StopReason::MaxStepsReached, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DenseEngine;
    use crate::params::LifParams;

    fn assert_matches_dense(net: &Network, init: &[NeuronId], cfg: &RunConfig) {
        let dense = DenseEngine.run(net, init, cfg).unwrap();
        let bp = BitplaneEngine.run(net, init, cfg).unwrap();
        assert_eq!(dense, bp);
    }

    #[test]
    fn single_synapse_delay_is_exact() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let b = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(a, b, 1.0, 7).unwrap();
        let r = BitplaneEngine
            .run(&net, &[a], &RunConfig::until_quiescent(100))
            .unwrap();
        assert_eq!(r.first_spike(b), Some(7));
        assert_eq!(r.steps, 7);
        assert_eq!(r.reason, StopReason::Quiescent);
        assert_matches_dense(&net, &[a], &RunConfig::until_quiescent(100).with_raster());
    }

    #[test]
    fn mask_mode_engages_on_unit_gate_fanout() {
        // All-positive unit weights over gate_at_least(1): OR-eligible.
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), 5);
        for i in 0..4 {
            net.connect(ids[i], ids[i + 1], 1.0, 1 + i as u32).unwrap();
            net.connect(ids[i], ids[4], 1.0, 2).unwrap();
        }
        assert!(net.bitplane().uses_masks());
        assert_matches_dense(
            &net,
            &[ids[0]],
            &RunConfig::until_quiescent(50).with_raster(),
        );
    }

    #[test]
    fn inhibitory_weights_force_gather_mode() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let b = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(a, b, 1.0, 1).unwrap();
        net.connect(a, b, -1.0, 1).unwrap();
        assert!(!net.bitplane().uses_masks());
        assert_matches_dense(&net, &[a], &RunConfig::until_quiescent(10).with_raster());
    }

    #[test]
    fn sub_threshold_weights_force_gather_mode() {
        // Positive but not above-threshold: a lone arrival must NOT fire,
        // so OR-mask mode is ineligible.
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let b = net.add_neuron(LifParams::gate_at_least(2));
        net.connect(a, b, 1.0, 1).unwrap();
        assert!(!net.bitplane().uses_masks());
        let r = BitplaneEngine
            .run(&net, &[a], &RunConfig::until_quiescent(10))
            .unwrap();
        assert_eq!(r.first_spike(b), None);
    }

    #[test]
    fn spontaneous_neurons_run_dense_identical() {
        let mut net = Network::new();
        let s = net.add_neuron(LifParams {
            v_reset: 2.0,
            v_threshold: 1.0,
            decay: 0.0,
        });
        let b = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(s, b, 1.0, 1).unwrap();
        assert_matches_dense(&net, &[], &RunConfig::fixed(5).with_raster());
    }

    #[test]
    fn beyond_horizon_delay_takes_overflow_path() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let b = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(a, b, 1.0, 5000).unwrap();
        assert_eq!(net.bitplane().overflow_synapses(), 1);
        let r = BitplaneEngine
            .run(&net, &[a], &RunConfig::until_quiescent(6000))
            .unwrap();
        assert_eq!(r.first_spike(b), Some(5000));
        assert_matches_dense(&net, &[a], &RunConfig::until_quiescent(6000).with_raster());
    }

    #[test]
    fn ring_wraps_past_the_horizon() {
        // A self-loop latch runs far longer than the ring length, so every
        // slot is reclaimed and rewritten many times.
        let mut net = Network::new();
        let m = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(m, m, 1.0, 3).unwrap();
        let r = BitplaneEngine
            .run(&net, &[m], &RunConfig::fixed(50).with_raster())
            .unwrap();
        assert_eq!(r.spike_counts[m.index()], 17); // t = 0, 3, 6, ..., 48
        assert_matches_dense(&net, &[m], &RunConfig::fixed(50).with_raster());
    }

    #[test]
    fn empty_network_is_quiescent_at_zero() {
        let net = Network::new();
        let r = BitplaneEngine
            .run(&net, &[], &RunConfig::until_quiescent(10))
            .unwrap();
        assert_eq!(r.steps, 0);
        assert_eq!(r.reason, StopReason::Quiescent);
    }

    #[test]
    fn strict_budget_exhaustion_errors() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::default());
        let b = net.add_neuron(LifParams::default());
        net.connect(a, a, 1.0, 1).unwrap();
        net.set_terminal(b);
        let err = BitplaneEngine.run(&net, &[a], &RunConfig::until_terminal(5).strict());
        assert!(matches!(err, Err(SnnError::StepLimitExceeded { .. })));
    }

    #[test]
    fn recycled_scratch_is_bit_identical() {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), 3);
        net.connect(ids[0], ids[1], 1.0, 5000).unwrap(); // overflow path
        net.connect(ids[1], ids[2], 1.0, 2).unwrap();
        let cfg = RunConfig::until_quiescent(6000).with_raster();
        let prepared = EngineChoice::Bitplane.prepare(&net).unwrap();
        let mut scratch = RunScratch::new();
        // First run parks overflow state; the recycled second run must
        // still match a fresh one exactly.
        prepared
            .run(
                &[ids[0]],
                &RunConfig::fixed(3),
                &mut scratch,
                &mut NullObserver,
            )
            .unwrap();
        let recycled = prepared
            .run(&[ids[0]], &cfg, &mut scratch, &mut NullObserver)
            .unwrap();
        let fresh = BitplaneEngine.run(&net, &[ids[0]], &cfg).unwrap();
        assert_eq!(recycled, fresh);
    }
}
