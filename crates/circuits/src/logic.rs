//! Basic threshold-gate primitives: OR, AND, NOT, majority, buffers.
//!
//! All gates are single `tau = 1` LIF neurons ("threshold gates", §2.1).
//! Each helper wires the gate so that it fires exactly one step after its
//! latest input; the `at` variants let callers align gates to a specific
//! layer by stretching input delays, which is how the paper keeps
//! multi-layer circuits in lockstep ("signals ... are delayed to ensure
//! that \[gates\] are in sync", proof of Theorem 5.1).

use crate::builder::CircuitBuilder;
use sgl_snn::NeuronId;

/// OR gate over inputs firing at time `t_in`; output fires at `t_in + 1`
/// iff any input fired.
pub fn or_gate(b: &mut CircuitBuilder, inputs: &[NeuronId]) -> NeuronId {
    or_gate_at(b, &inputs.iter().map(|&i| (i, 1)).collect::<Vec<_>>())
}

/// OR gate with per-input delays `(neuron, delay)`; inputs must be delayed
/// so they arrive simultaneously.
pub fn or_gate_at(b: &mut CircuitBuilder, inputs: &[(NeuronId, u32)]) -> NeuronId {
    let g = b.gate_at_least(1);
    for &(i, d) in inputs {
        b.wire(i, g, 1.0, d);
    }
    g
}

/// AND gate over `inputs` (all must fire simultaneously, one step before).
pub fn and_gate(b: &mut CircuitBuilder, inputs: &[NeuronId]) -> NeuronId {
    and_gate_at(b, &inputs.iter().map(|&i| (i, 1)).collect::<Vec<_>>())
}

/// AND gate with per-input delays.
pub fn and_gate_at(b: &mut CircuitBuilder, inputs: &[(NeuronId, u32)]) -> NeuronId {
    let g = b.gate_at_least(u32::try_from(inputs.len()).expect("fan-in too large"));
    for &(i, d) in inputs {
        b.wire(i, g, 1.0, d);
    }
    g
}

/// NOT gate: output fires at `at` iff `input` did *not* fire at `at - 1`...
/// realised with a constant +1 from the bias and a −1 from the input (the
/// `S`-input construction of Figure 5A). `at` is the output firing time;
/// the input is assumed to fire at `at - 1` when it fires.
pub fn not_gate_at(b: &mut CircuitBuilder, input: NeuronId, at: u32) -> NeuronId {
    assert!(at >= 1);
    let g = b.gate(0.5);
    b.constant(g, 1.0, at);
    b.wire(input, g, -1.0, 1);
    g
}

/// Majority gate: fires iff at least `k` of the inputs fire simultaneously.
pub fn at_least_gate(b: &mut CircuitBuilder, inputs: &[(NeuronId, u32)], k: u32) -> NeuronId {
    let g = b.gate_at_least(k);
    for &(i, d) in inputs {
        b.wire(i, g, 1.0, d);
    }
    g
}

/// A buffer (identity) gate delaying its input by `delay` steps using a
/// single neuron and one synapse. (With programmable delays a buffer is
/// rarely needed; it exists for circuits that must consume a signal at a
/// later layer without long wires.)
pub fn buffer(b: &mut CircuitBuilder, input: NeuronId, delay: u32) -> NeuronId {
    let g = b.gate_at_least(1);
    b.wire(input, g, 1.0, delay);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;

    fn eval1(
        build: impl Fn(&mut CircuitBuilder, &[NeuronId]) -> NeuronId,
        bits: u64,
        n: usize,
    ) -> u64 {
        let mut b = CircuitBuilder::new();
        let xs = b.input_bundle(n);
        let g = build(&mut b, &xs);
        let c = b.finish(vec![g], 1);
        c.eval(&[bits]).unwrap()
    }

    #[test]
    fn or_gate_truth_table() {
        for bits in 0u64..8 {
            let want = u64::from(bits != 0);
            assert_eq!(eval1(or_gate, bits, 3), want, "bits {bits:b}");
        }
    }

    #[test]
    fn and_gate_truth_table() {
        for bits in 0u64..8 {
            let want = u64::from(bits == 0b111);
            assert_eq!(eval1(and_gate, bits, 3), want, "bits {bits:b}");
        }
    }

    #[test]
    fn not_gate_truth_table() {
        let mut b = CircuitBuilder::new();
        let x = b.input();
        let g = not_gate_at(&mut b, x, 1);
        let c = b.finish(vec![g], 1);
        assert_eq!(c.eval(&[0]).unwrap(), 1);
        assert_eq!(c.eval(&[1]).unwrap(), 0);
    }

    #[test]
    fn majority_two_of_three() {
        for bits in 0u64..8 {
            let want = u64::from(bits.count_ones() >= 2);
            let got = {
                let mut b = CircuitBuilder::new();
                let xs = b.input_bundle(3);
                let pairs: Vec<_> = xs.iter().map(|&x| (x, 1)).collect();
                let g = at_least_gate(&mut b, &pairs, 2);
                let c = b.finish(vec![g], 1);
                c.eval(&[bits]).unwrap()
            };
            assert_eq!(got, want, "bits {bits:b}");
        }
    }

    #[test]
    fn buffer_delays() {
        let mut b = CircuitBuilder::new();
        let x = b.input();
        let g = buffer(&mut b, x, 5);
        let c = b.finish(vec![g], 5);
        assert_eq!(c.eval(&[1]).unwrap(), 1);
        assert_eq!(c.eval(&[0]).unwrap(), 0);
    }

    #[test]
    fn staggered_inputs_synchronised_with_delays() {
        // AND of a t=0 input (delay 3) and a buffered t=2 signal (delay 1):
        // both arrive for firing at t=3.
        let mut b = CircuitBuilder::new();
        let x = b.input();
        let y = b.input();
        let y1 = buffer(&mut b, y, 1);
        let y2 = buffer(&mut b, y1, 1); // y2 fires at t=2
        let g = and_gate_at(&mut b, &[(x, 3), (y2, 1)]);
        let c = b.finish(vec![g], 3);
        assert_eq!(c.eval(&[1, 1]).unwrap(), 1);
        assert_eq!(c.eval(&[1, 0]).unwrap(), 0);
        assert_eq!(c.eval(&[0, 1]).unwrap(), 0);
    }
}
