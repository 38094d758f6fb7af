//! Event-driven engine: work proportional to spike traffic.

use sgl_observe::{NullObserver, RunObserver, StepRecord};

use super::batch::RunScratch;
use super::dense::route_spikes;
use super::wheel::TimeWheel;
use super::{check_initial, Engine, EngineChoice, Recorder, RunConfig, RunResult, StopReason};
use crate::error::SnnError;
use crate::network::Network;
use crate::params::LifParams;
use crate::types::{NeuronId, Time};

/// Event-driven engine with lazy voltage decay.
///
/// Only neurons that receive synaptic input in a given step are touched;
/// decay over the intervening quiet interval `Δ` is applied in closed form,
/// `v ← v_reset + (v - v_reset)(1 - τ)^Δ`. This is exact because between
/// inputs an input-driven neuron's voltage moves monotonically toward
/// `v_reset ≤ v_threshold` and therefore cannot cross the threshold, so
/// firing can only happen at input-arrival steps.
///
/// Requires every neuron to satisfy `v_reset <= v_threshold`
/// ([`crate::LifParams::is_input_driven`]); the run fails with
/// [`SnnError::SpontaneousNeuron`] otherwise.
///
/// This engine embodies the event-driven-communication argument of §2.1:
/// its work counters grow with spike events and synaptic deliveries, not
/// with `neurons × steps`, which is why delay-encoded algorithms run in
/// time `O(L + m)` rather than `O(n · L)` in practice.
#[derive(Clone, Copy, Debug, Default)]
pub struct EventEngine;

impl Engine for EventEngine {
    fn run(
        &self,
        net: &Network,
        initial_spikes: &[NeuronId],
        config: &RunConfig,
    ) -> Result<RunResult, SnnError> {
        EngineChoice::Event.prepare(net)?.run(
            initial_spikes,
            config,
            &mut RunScratch::new(),
            &mut NullObserver,
        )
    }
}

impl EventEngine {
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
        let csr = net.csr();
        let params = net.params_slice();

        scratch.reset(net);
        let RunScratch {
            wheel,
            batch,
            fired,
            voltages,
            last_update,
            // The dense engines' synaptic accumulator doubles as the event
            // engine's per-step `accum`; both are all-zeros between steps.
            syn: accum,
            dirty,
            touched_ids: touched,
            ..
        } = scratch;

        fired.extend_from_slice(initial_spikes);
        fired.sort_unstable();
        fired.dedup();

        let mut stop_hit = rec.record_step(0, fired, &config.stop);
        let deliveries = route_spikes(csr, fired, 0, wheel, &mut rec);
        obs.on_step(
            0,
            StepRecord {
                spikes: fired.len() as u64,
                deliveries,
                updates: 0,
            },
        );
        if O::ENABLED {
            obs.on_scheduler(0, wheel.observe());
        }
        if stop_hit {
            return rec.finish(0, StopReason::ConditionMet, config);
        }

        let mut last_active: Time = 0;
        while let Some(t) = wheel.next_time() {
            if t > config.max_steps {
                break;
            }

            let (delivered, updates) = update_step(
                t,
                params,
                wheel,
                LazyState {
                    batch,
                    voltages,
                    last_update,
                    accum,
                    dirty,
                    touched,
                },
                fired,
            );
            obs.on_spike_batch(t, delivered);
            rec.add_updates(updates);
            last_active = t;

            stop_hit = rec.record_step(t, fired, &config.stop);
            let deliveries = route_spikes(csr, fired, t, wheel, &mut rec);
            obs.on_step(
                t,
                StepRecord {
                    spikes: fired.len() as u64,
                    deliveries,
                    updates,
                },
            );
            if O::ENABLED {
                obs.on_scheduler(t, wheel.observe());
            }

            if stop_hit {
                return rec.finish(t, StopReason::ConditionMet, config);
            }
        }

        if wheel.is_empty() {
            rec.finish(last_active, StopReason::Quiescent, config)
        } else {
            rec.finish(config.max_steps, StopReason::MaxStepsReached, config)
        }
    }
}

/// The event engine's per-neuron lazy-decay state, borrowed for one
/// [`update_step`]. Every slice is indexed by neuron id; `accum` and
/// `dirty` are all-zero / all-false between steps and `touched` empty.
pub(crate) struct LazyState<'a> {
    /// Drained delivery batch (scratch; overwritten each step).
    pub(crate) batch: &'a mut Vec<(NeuronId, f64)>,
    /// Membrane potential as of `last_update`.
    pub(crate) voltages: &'a mut [f64],
    /// Last step each neuron's decay was applied.
    pub(crate) last_update: &'a mut [Time],
    /// Per-step synaptic input accumulator.
    pub(crate) accum: &'a mut [f64],
    /// Membership bitmap for `touched`.
    pub(crate) dirty: &'a mut [bool],
    /// Neurons receiving input this step.
    pub(crate) touched: &'a mut Vec<NeuronId>,
}

/// One event-driven step at `t`: drains every delivery due at `t` from
/// `wheel`, accumulates it per target, and updates exactly the touched
/// neurons — lazy decay over the quiet interval, add input, threshold —
/// leaving the ones that fire in `fired`, ascending. Returns
/// `(deliveries drained, neurons updated)`.
///
/// The wheel yields deliveries in scheduling order — the same order the
/// dense engines accumulate in — so per-target sums are bit-identical
/// across engines. The event engine runs this over the whole network;
/// the partitioned engine runs it per partition over local ids.
pub(crate) fn update_step(
    t: Time,
    params: &[LifParams],
    wheel: &mut TimeWheel,
    st: LazyState<'_>,
    fired: &mut Vec<NeuronId>,
) -> (u64, u64) {
    let LazyState {
        batch,
        voltages,
        last_update,
        accum,
        dirty,
        touched,
    } = st;
    batch.clear();
    wheel.drain_at(t, batch);
    for &(id, w) in batch.iter() {
        let i = id.index();
        if !dirty[i] {
            dirty[i] = true;
            touched.push(id);
        }
        accum[i] += w;
    }
    touched.sort_unstable();

    fired.clear();
    for &id in touched.iter() {
        let i = id.index();
        let p = &params[i];
        let dt = t - last_update[i];
        let v0 = voltages[i];
        // dt == 0 cannot happen (events batch per step), and decay 0
        // keeps the voltage; both leave v0 untouched.
        let decayed = if dt == 0 || p.decay == 0.0 {
            v0
        } else if p.decay == 1.0 {
            p.v_reset
        } else {
            p.v_reset + (v0 - p.v_reset) * (1.0 - p.decay).powi(dt as i32)
        };
        let v_hat = decayed + accum[i];
        if v_hat > p.v_threshold {
            fired.push(id);
            voltages[i] = p.v_reset;
        } else {
            voltages[i] = v_hat;
        }
        last_update[i] = t;
        accum[i] = 0.0;
        dirty[i] = false;
    }
    let updates = touched.len() as u64;
    touched.clear();
    (batch.len() as u64, updates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LifParams;

    #[test]
    fn parallel_edges_count_one_touched_pair() {
        // Two same-delay edges into the same target must accumulate into
        // one neuron update, not two (the dirty bitmap dedups per step) —
        // including when the weights cancel to exactly zero.
        let mut net = Network::new();
        let src = net.add_neuron(LifParams::gate_at_least(1));
        let tgt = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(src, tgt, 2.0, 3).unwrap();
        net.connect(src, tgt, -2.0, 3).unwrap();
        let r = EventEngine
            .run(&net, &[src], &RunConfig::until_quiescent(10))
            .unwrap();
        assert_eq!(r.stats.neuron_updates, 1);
        assert_eq!(r.stats.synaptic_deliveries, 2);
        assert!(!r.fired(tgt));
    }

    #[test]
    fn matches_dense_on_delay_chain() {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), 3);
        net.connect(ids[0], ids[1], 1.0, 4).unwrap();
        net.connect(ids[1], ids[2], 1.0, 6).unwrap();
        let r = EventEngine
            .run(&net, &[ids[0]], &RunConfig::until_quiescent(100))
            .unwrap();
        assert_eq!(r.first_spike(ids[2]), Some(10));
        assert_eq!(r.steps, 10);
        assert_eq!(r.reason, StopReason::Quiescent);
    }

    #[test]
    fn rejects_spontaneous_neurons() {
        let mut net = Network::new();
        net.add_neuron(LifParams {
            v_reset: 2.0,
            v_threshold: 1.0,
            decay: 0.0,
        });
        assert!(matches!(
            EventEngine.run(&net, &[], &RunConfig::until_quiescent(10)),
            Err(SnnError::SpontaneousNeuron(_))
        ));
    }

    #[test]
    fn lazy_partial_decay_is_exact() {
        // tau = 0.5: 0.6 arrives at t=1, then 0.6 at t=4.
        // v(1)=0.6, decayed to t=4: 0.6 * 0.5^3 = 0.075; +0.6 = 0.675 < 0.9.
        // Then 0.6 at t=5: 0.675*0.5 + 0.6 = 0.9375 > 0.9 -> fires at 5.
        let mut net = Network::new();
        let src = net.add_neuron(LifParams::gate_at_least(1));
        let leaky = net.add_neuron(LifParams {
            v_reset: 0.0,
            v_threshold: 0.9,
            decay: 0.5,
        });
        net.connect(src, leaky, 0.6, 1).unwrap();
        net.connect(src, leaky, 0.6, 4).unwrap();
        net.connect(src, leaky, 0.6, 5).unwrap();
        let r = EventEngine
            .run(&net, &[src], &RunConfig::until_quiescent(10))
            .unwrap();
        assert_eq!(r.first_spike(leaky), Some(5));
    }

    #[test]
    fn latch_until_budget() {
        let mut net = Network::new();
        let m = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(m, m, 1.0, 1).unwrap();
        let r = EventEngine.run(&net, &[m], &RunConfig::fixed(15)).unwrap();
        assert_eq!(r.spike_counts[m.index()], 16);
        assert_eq!(r.reason, StopReason::MaxStepsReached);
        assert_eq!(r.steps, 15);
    }

    #[test]
    fn updates_only_touched_neurons() {
        // 1000 idle neurons, activity only along a 2-neuron path: event
        // engine must not pay for the idle ones.
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let b = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(a, b, 1.0, 50).unwrap();
        net.add_neurons(LifParams::gate_at_least(1), 1000);
        let r = EventEngine
            .run(&net, &[a], &RunConfig::until_quiescent(1000))
            .unwrap();
        assert_eq!(r.stats.neuron_updates, 1); // only b, once
        assert_eq!(r.first_spike(b), Some(50));
    }
}
