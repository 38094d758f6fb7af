//! Voltage probes: recording membrane-potential traces.
//!
//! The engines normally expose only spikes (the architecturally observable
//! events). For debugging circuits and for teaching the LIF dynamics of
//! Definition 2, this module runs the literal time-stepped update while
//! recording the *voltage* of selected neurons at every step — the `v(t)`
//! series of Eq. (1)–(3), including the reset after each spike.

use crate::engine::Stepper;
use crate::network::Network;
use crate::types::{NeuronId, Time};

/// A recorded voltage trace: `trace[t]` is `v(t)` for `t = 0..=steps`.
#[derive(Clone, Debug, PartialEq)]
pub struct VoltageTrace {
    /// Neuron the trace belongs to.
    pub neuron: NeuronId,
    /// `v(t)` per step, starting at `v(0) = v_reset`.
    pub voltages: Vec<f64>,
    /// Steps at which the neuron fired.
    pub spikes: Vec<Time>,
}

impl VoltageTrace {
    /// Highest voltage ever reached (after synaptic input, before reset).
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.voltages.iter().copied().fold(f64::MIN, f64::max)
    }
}

/// Runs `net` for exactly `steps` steps with the dense (literal) dynamics,
/// recording voltage traces for `probes`. Initial spikes are induced at
/// `t = 0` as usual.
///
/// The run is a [`Stepper`], which schedules deliveries through the same
/// time wheel the engines use, in the same (sorted firing id) × (CSR
/// synapse order) order — so per-target floating-point sums, and
/// therefore the recorded voltages and spike times, match the engines
/// bit for bit.
///
/// # Panics
/// Panics if a probe or initial neuron is out of range.
#[must_use]
pub fn record_traces(
    net: &Network,
    initial_spikes: &[NeuronId],
    probes: &[NeuronId],
    steps: Time,
) -> Vec<VoltageTrace> {
    for &p in probes {
        assert!(p.index() < net.neuron_count(), "neuron {p} out of range");
    }
    let mut stepper = Stepper::new(net, initial_spikes);
    let mut traces: Vec<VoltageTrace> = probes
        .iter()
        .map(|&p| VoltageTrace {
            neuron: p,
            voltages: Vec::new(),
            spikes: Vec::new(),
        })
        .collect();
    loop {
        for tr in &mut traces {
            tr.voltages.push(stepper.voltage(tr.neuron));
            if stepper.fired().contains(&tr.neuron) {
                tr.spikes.push(stepper.now());
            }
        }
        if stepper.now() == steps {
            return traces;
        }
        stepper.step();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LifParams;

    #[test]
    fn integrator_staircase() {
        // Unit pulses every 3 steps into a threshold-2.5 integrator:
        // voltage climbs 1, 2, then fires at 3 and resets.
        let mut net = Network::new();
        let clock = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(clock, clock, 1.0, 3).unwrap();
        let acc = net.add_neuron(LifParams::integrator(2.5));
        net.connect(clock, acc, 1.0, 1).unwrap();
        let traces = record_traces(&net, &[clock], &[acc], 12);
        let tr = &traces[0];
        assert_eq!(tr.voltages[1], 1.0); // pulse from t=0 arrives at 1
        assert_eq!(tr.voltages[4], 2.0);
        assert_eq!(tr.voltages[7], 0.0); // third pulse crosses 2.5 -> reset
        assert_eq!(tr.spikes, vec![7]);
        assert_eq!(tr.peak(), 2.0); // recorded post-reset voltages
    }

    #[test]
    fn leaky_decay_is_geometric() {
        let mut net = Network::new();
        let src = net.add_neuron(LifParams::gate_at_least(1));
        let leaky = net.add_neuron(LifParams {
            v_reset: 0.0,
            v_threshold: 10.0,
            decay: 0.5,
        });
        net.connect(src, leaky, 8.0, 1).unwrap();
        let traces = record_traces(&net, &[src], &[leaky], 5);
        let v = &traces[0].voltages;
        assert_eq!(&v[1..=4], &[8.0, 4.0, 2.0, 1.0]);
    }

    #[test]
    fn gate_drains_completely() {
        let mut net = Network::new();
        let src = net.add_neuron(LifParams::gate_at_least(1));
        let gate = net.add_neuron(LifParams::gate(5.0)); // sub-threshold input
        net.connect(src, gate, 3.0, 1).unwrap();
        let traces = record_traces(&net, &[src], &[gate], 3);
        assert_eq!(traces[0].voltages, vec![0.0, 3.0, 0.0, 0.0]);
        assert!(traces[0].spikes.is_empty());
    }

    #[test]
    fn spike_times_match_engine() {
        use crate::engine::{DenseEngine, Engine, RunConfig};
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), 3);
        net.connect(ids[0], ids[1], 1.0, 2).unwrap();
        net.connect(ids[1], ids[2], 1.0, 3).unwrap();
        let traces = record_traces(&net, &[ids[0]], &ids, 8);
        let engine = DenseEngine
            .run(&net, &[ids[0]], &RunConfig::fixed(8).with_raster())
            .unwrap();
        for tr in &traces {
            assert_eq!(
                tr.spikes,
                engine.raster.as_ref().unwrap().spikes_of(tr.neuron)
            );
        }
    }
}
