//! Literal time-stepped engine: every neuron is updated every step.

use sgl_observe::{RunObserver, StepRecord};

use super::batch::RunScratch;
use super::wheel::TimeWheel;
use super::{check_initial, Engine, EngineChoice, Recorder, RunConfig, RunResult, StopReason};
use crate::error::SnnError;
use crate::network::{CsrTopology, Network};
use crate::types::{NeuronId, Time};

/// The reference engine. Implements Eqs. (1)–(3) verbatim: at every time
/// step the voltage of *each* neuron is decayed, synaptic input added, and
/// the threshold compared. Work is `Θ(neurons)` per step plus spike
/// routing, which is exactly the per-step cost a fully synchronous
/// neuromorphic core pays.
///
/// Use this engine for validation and for small circuit-level runs; use
/// [`super::EventEngine`] for large delay-encoded graph computations.
#[derive(Clone, Copy, Debug, Default)]
pub struct DenseEngine;

impl Engine for DenseEngine {
    fn choice(&self) -> EngineChoice {
        EngineChoice::Dense
    }
}

impl DenseEngine {
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
        let csr = net.csr();
        let params = net.params_slice();

        // Pending synaptic deliveries live in a time wheel sized to the
        // largest delay: O(1) scheduling/draining with slot capacity
        // recycled across wraps, so the steady state never allocates.
        // All of this state comes from the scratch: reset restores the
        // exact observable state a fresh construction would have, so
        // recycled runs stay bit-identical.
        scratch.reset(net);
        let RunScratch {
            wheel,
            batch,
            fired,
            voltages,
            syn,
            touched_idx: touched,
            ..
        } = scratch;

        fired.extend_from_slice(initial_spikes);
        fired.sort_unstable();
        fired.dedup();

        // t = 0: induced input spikes.
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
        // A neuron is "armed" if it would fire next step with zero synaptic
        // input (possible only when v_reset > v_threshold, i.e. spontaneous
        // neurons, which the dense engine supports). Quiescence requires no
        // pending deliveries and no armed neurons.
        let spontaneous = params.iter().any(|p| !p.is_input_driven());
        if wheel.is_empty() && !spontaneous {
            return rec.finish(0, StopReason::Quiescent, config);
        }

        for t in 1..=config.max_steps {
            batch.clear();
            wheel.drain_at(t, batch);
            obs.on_spike_batch(t, batch.len() as u64);
            for &(id, w) in batch.iter() {
                let i = id.index();
                if syn[i] == 0.0 {
                    touched.push(i);
                }
                syn[i] += w;
            }

            fired.clear();
            let mut armed = false;
            for i in 0..n {
                let p = &params[i];
                let v = voltages[i];
                // Eq. (1): decay toward reset, then add synaptic input.
                let v_hat = v - (v - p.v_reset) * p.decay + syn[i];
                // Eq. (2)/(3): threshold comparison and reset-on-fire.
                if v_hat > p.v_threshold {
                    fired.push(NeuronId(i as u32));
                    voltages[i] = p.v_reset;
                } else {
                    voltages[i] = v_hat;
                }
                // Would this neuron fire next step with no input?
                let v_next = voltages[i] - (voltages[i] - p.v_reset) * p.decay;
                armed |= v_next > p.v_threshold;
            }
            rec.add_updates(n as u64);
            for &i in touched.iter() {
                syn[i] = 0.0;
            }
            touched.clear();

            stop_hit = rec.record_step(t, fired, &config.stop);
            let deliveries = route_spikes(csr, fired, t, wheel, &mut rec);
            obs.on_step(
                t,
                StepRecord {
                    spikes: fired.len() as u64,
                    deliveries,
                    updates: n as u64,
                },
            );
            if O::ENABLED {
                obs.on_scheduler(t, wheel.observe());
            }

            if stop_hit {
                return rec.finish(t, StopReason::ConditionMet, config);
            }
            if wheel.is_empty() && !armed {
                // No spikes in flight and no neuron can fire without input:
                // voltages only decay toward reset (<= threshold for
                // input-driven neurons), so the network can never fire
                // again. The spike time of the last activity is `T`.
                return rec.finish(t, StopReason::Quiescent, config);
            }
        }

        rec.finish(config.max_steps, StopReason::MaxStepsReached, config)
    }
}

/// Schedules the fan-out of every fired neuron, in (sorted firing id) ×
/// (CSR synapse order) — the shared delivery order all engines follow.
/// Returns the number of deliveries routed, so callers can report the
/// step's cost to an observer without re-walking the fan-out.
pub(super) fn route_spikes(
    csr: &CsrTopology,
    fired: &[NeuronId],
    t: Time,
    wheel: &mut TimeWheel,
    rec: &mut Recorder,
) -> u64 {
    let mut deliveries = 0u64;
    for &id in fired {
        for s in csr.out(id.index()) {
            wheel.schedule(t + Time::from(s.delay), s.target, s.weight);
            deliveries += 1;
        }
    }
    rec.add_deliveries(deliveries);
    deliveries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LifParams;

    fn run(net: &Network, init: &[NeuronId], cfg: RunConfig) -> RunResult {
        DenseEngine.run(net, init, &cfg).unwrap()
    }

    #[test]
    fn single_synapse_delay_is_exact() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let b = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(a, b, 1.0, 7).unwrap();
        let r = run(&net, &[a], RunConfig::until_quiescent(100));
        assert_eq!(r.first_spike(a), Some(0));
        assert_eq!(r.first_spike(b), Some(7));
        assert_eq!(r.steps, 7);
        assert_eq!(r.reason, StopReason::Quiescent);
    }

    #[test]
    fn chain_delays_add() {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), 4);
        net.connect(ids[0], ids[1], 1.0, 2).unwrap();
        net.connect(ids[1], ids[2], 1.0, 3).unwrap();
        net.connect(ids[2], ids[3], 1.0, 5).unwrap();
        net.set_terminal(ids[3]);
        let r = run(&net, &[ids[0]], RunConfig::until_terminal(100));
        assert_eq!(r.first_spike(ids[3]), Some(10));
        assert_eq!(r.reason, StopReason::ConditionMet);
    }

    #[test]
    fn and_gate_requires_coincidence() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let b = net.add_neuron(LifParams::gate_at_least(1));
        let and = net.add_neuron(LifParams::gate_at_least(2));
        net.connect(a, and, 1.0, 1).unwrap();
        net.connect(b, and, 1.0, 1).unwrap();
        // Both fire at t=0 -> coincident arrival at t=1 -> AND fires.
        let r = run(&net, &[a, b], RunConfig::until_quiescent(10));
        assert_eq!(r.first_spike(and), Some(1));
        // Only one input -> no fire. With tau=1 the gate holds no residue.
        let r = run(&net, &[a], RunConfig::until_quiescent(10));
        assert_eq!(r.first_spike(and), None);
    }

    #[test]
    fn gate_decay_prevents_temporal_summation() {
        // Two unit inputs arriving at different times must NOT fire a
        // 2-threshold gate (tau = 1 drains between steps).
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let b = net.add_neuron(LifParams::gate_at_least(1));
        let and = net.add_neuron(LifParams::gate_at_least(2));
        net.connect(a, and, 1.0, 1).unwrap();
        net.connect(b, and, 1.0, 2).unwrap(); // staggered arrival
        let r = run(&net, &[a, b], RunConfig::until_quiescent(10));
        assert_eq!(r.first_spike(and), None);
    }

    #[test]
    fn integrator_sums_across_time() {
        // An integrator (tau = 0) does accumulate staggered inputs.
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let b = net.add_neuron(LifParams::gate_at_least(1));
        let acc = net.add_neuron(LifParams::integrator(1.5));
        net.connect(a, acc, 1.0, 1).unwrap();
        net.connect(b, acc, 1.0, 3).unwrap();
        let r = run(&net, &[a, b], RunConfig::until_quiescent(10));
        assert_eq!(r.first_spike(acc), Some(3));
    }

    #[test]
    fn inhibition_blocks_firing() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let tgt = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(a, tgt, 1.0, 1).unwrap();
        net.connect(a, tgt, -1.0, 1).unwrap(); // simultaneous inhibition
        let r = run(&net, &[a], RunConfig::until_quiescent(10));
        assert_eq!(r.first_spike(tgt), None);
    }

    #[test]
    fn self_loop_latch_fires_forever() {
        let mut net = Network::new();
        let m = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(m, m, 1.0, 1).unwrap();
        let r = run(&net, &[m], RunConfig::fixed(20).with_raster());
        assert_eq!(r.spike_counts[m.index()], 21); // t = 0..=20
        assert_eq!(r.reason, StopReason::MaxStepsReached);
    }

    #[test]
    fn partial_decay_halves_voltage() {
        // tau = 0.5, threshold 0.9: single 0.6 input decays 0.6 -> 0.3 ->
        // 0.15...; a second 0.6 input two steps later reaches 0.75 < 0.9,
        // but one step later reaches 0.9 + ... Let's verify the exact sum.
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let b = net.add_neuron(LifParams::gate_at_least(1));
        let leaky = net.add_neuron(LifParams {
            v_reset: 0.0,
            v_threshold: 0.9,
            decay: 0.5,
        });
        net.connect(a, leaky, 0.6, 1).unwrap();
        net.connect(b, leaky, 0.6, 2).unwrap();
        // Arrivals at t=1 (0.6) and t=2 (0.6): v(2) = 0.3 + 0.6 = 0.9, not
        // strictly greater than 0.9 -> no fire at t=2; decays after.
        let r = run(&net, &[a, b], RunConfig::until_quiescent(10));
        assert_eq!(r.first_spike(leaky), None);

        // Same but arrivals coincide: 1.2 > 0.9 -> fires.
        let mut net2 = Network::new();
        let a2 = net2.add_neuron(LifParams::gate_at_least(1));
        let leaky2 = net2.add_neuron(LifParams {
            v_reset: 0.0,
            v_threshold: 0.9,
            decay: 0.5,
        });
        net2.connect(a2, leaky2, 0.6, 1).unwrap();
        net2.connect(a2, leaky2, 0.6, 1).unwrap();
        let r2 = run(&net2, &[a2], RunConfig::until_quiescent(10));
        assert_eq!(r2.first_spike(leaky2), Some(1));
    }

    #[test]
    fn terminal_at_time_zero() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::default());
        net.set_terminal(a);
        let r = run(&net, &[a], RunConfig::until_terminal(10));
        assert_eq!(r.steps, 0);
        assert_eq!(r.reason, StopReason::ConditionMet);
    }

    #[test]
    fn strict_budget_exhaustion_errors() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::default());
        let b = net.add_neuron(LifParams::default());
        net.connect(a, a, 1.0, 1).unwrap(); // a latches forever, b never fires
        net.set_terminal(b);
        let err = DenseEngine.run(&net, &[a], &RunConfig::until_terminal(5).strict());
        assert!(matches!(err, Err(SnnError::StepLimitExceeded { .. })));
    }

    #[test]
    fn stats_count_spikes_and_deliveries() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let b = net.add_neuron(LifParams::gate_at_least(1));
        let c = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(a, b, 1.0, 1).unwrap();
        net.connect(a, c, 1.0, 1).unwrap();
        let r = run(&net, &[a], RunConfig::until_quiescent(10));
        assert_eq!(r.stats.spike_events, 3); // a, b, c
        assert_eq!(r.stats.synaptic_deliveries, 2);
    }

    #[test]
    fn output_readout_at_termination() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let o1 = net.add_neuron(LifParams::gate_at_least(1));
        let o2 = net.add_neuron(LifParams::gate_at_least(1));
        let term = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(a, o1, 1.0, 2).unwrap();
        net.connect(a, term, 1.0, 2).unwrap();
        net.mark_output(o1);
        net.mark_output(o2);
        net.set_terminal(term);
        let r = run(&net, &[a], RunConfig::until_terminal(10));
        assert_eq!(r.output_bits(&net), vec![true, false]);
    }
}
