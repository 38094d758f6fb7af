//! Binary adders and the TTL decrement circuit (§4.1, §5, Figure 4).
//!
//! Two adder designs, mirroring the literature the paper cites:
//!
//! * [`build_lookahead_adder`] — constant depth (3), `O(λ)` neurons,
//!   *exponentially* bounded weights: each carry bit is a single threshold
//!   gate testing `Σ_{j<i} 2^j (x_j + y_j) >= 2^i` (the carry-lookahead
//!   idea of Ramos & Bohórquez's depth-2 adder; we spend one extra layer to
//!   keep all weights on synapses rather than in gate internals).
//! * [`build_ripple_adder`] — depth `λ + 2`, `O(λ)` neurons, weights ≤ 2:
//!   the paper's "chain \[of\] constant-depth parity circuits ... and
//!   threshold gates for the carry bit" (§4.1), trading depth for small
//!   weights.
//!
//! Plus [`build_add_const`] (the per-edge `d + ℓ(uv)` circuit of §4.2) and
//! [`build_decrement`] (the per-node TTL `k' − 1` circuit of §4.1).

use crate::builder::{Circuit, CircuitBuilder};
use sgl_snn::NeuronId;

/// A bit source feeding an arithmetic circuit: a neuron that fires at
/// `t = 0` when the bit is 1, or a compile-time constant.
#[derive(Debug, Clone, Copy)]
pub enum Bit {
    /// Carried by a neuron (fires at `t = 0` iff the bit is set).
    Wire(NeuronId),
    /// A hard-wired constant bit.
    Const(bool),
}

impl Bit {
    /// Adds this bit's contribution of `weight` to gate `g`, arriving for
    /// the gate's firing at time `at`.
    fn feed(self, b: &mut CircuitBuilder, g: NeuronId, weight: f64, at: u32) {
        match self {
            Bit::Wire(n) => b.wire(n, g, weight, at),
            Bit::Const(true) => b.constant(g, weight, at),
            Bit::Const(false) => {}
        }
    }

    fn wires(bundle: &[NeuronId]) -> Vec<Bit> {
        bundle.iter().map(|&n| Bit::Wire(n)).collect()
    }

    fn consts(value: u64, lambda: usize) -> Vec<Bit> {
        (0..lambda)
            .map(|j| Bit::Const((value >> j) & 1 == 1))
            .collect()
    }
}

/// Core carry-lookahead construction over generic bit sources. Returns the
/// `λ + 1` output neurons; outputs are valid at depth 3.
fn lookahead_core(b: &mut CircuitBuilder, x: &[Bit], y: &[Bit]) -> Vec<NeuronId> {
    assert_eq!(x.len(), y.len());
    let lambda = x.len();

    // Layer 1 (t=1): carry into position i, for i = 1..=λ:
    //   c_i fires iff Σ_{j<i} 2^j (x_j + y_j) >= 2^i.
    let carries: Vec<NeuronId> = (1..=lambda)
        .map(|i| {
            let g = b.gate((1u64 << i) as f64 - 0.5);
            for j in 0..i {
                let w = (1u64 << j) as f64;
                x[j].feed(b, g, w, 1);
                y[j].feed(b, g, w, 1);
            }
            g
        })
        .collect();

    // Layer 2 (t=2): per sum position i, threshold gates over
    // s = x_i + y_i + c_i:  A=[s>=1], B=[s>=2], C=[s>=3].
    // Layer 3 (t=3): parity  s_i = [A - B + C >= 1].
    let mut outputs = Vec::with_capacity(lambda + 1);
    for i in 0..lambda {
        let max_sum = if i == 0 { 2 } else { 3 };
        let gates: Vec<NeuronId> = (1..=max_sum)
            .map(|k| {
                let g = b.gate_at_least(k);
                x[i].feed(b, g, 1.0, 2);
                y[i].feed(b, g, 1.0, 2);
                if i > 0 {
                    b.wire(carries[i - 1], g, 1.0, 1);
                }
                g
            })
            .collect();
        let s = b.gate(0.5);
        for (k, &g) in gates.iter().enumerate() {
            let w = if k % 2 == 0 { 1.0 } else { -1.0 }; // +A -B +C
            b.wire(g, s, w, 1);
        }
        outputs.push(s);
    }
    // Output bit λ: the carry out of position λ, buffered to t=3.
    let carry_out = crate::logic::buffer(b, carries[lambda - 1], 2);
    outputs.push(carry_out);
    outputs
}

/// Builds the depth-3 carry-lookahead adder for two λ-bit operands; the
/// output bundle has `λ + 1` bits.
///
/// # Examples
/// ```
/// let adder = sgl_circuits::adders::build_lookahead_adder(6);
/// assert_eq!(adder.eval(&[13, 29]).unwrap(), 42);
/// assert_eq!(adder.depth, 3);
/// ```
///
/// # Panics
/// Panics if `lambda == 0`.
#[must_use]
pub fn build_lookahead_adder(lambda: usize) -> Circuit {
    assert!(lambda > 0);
    let mut b = CircuitBuilder::new();
    let x = b.input_bundle(lambda);
    let y = b.input_bundle(lambda);
    let outputs = lookahead_core(&mut b, &Bit::wires(&x), &Bit::wires(&y));
    b.finish(outputs, 3)
}

/// Builds the depth-3 circuit computing `x + constant` for a λ-bit input
/// `x`; the output bundle has `λ + 1` bits. This is the §4.2 edge circuit
/// that adds the edge length `ℓ(uv)` to a passing distance message.
///
/// # Panics
/// Panics if `lambda == 0` or the constant does not fit in λ bits.
#[must_use]
pub fn build_add_const(lambda: usize, constant: u64) -> Circuit {
    assert!(lambda > 0);
    assert!(
        lambda >= 64 || constant < (1u64 << lambda),
        "constant {constant} does not fit in {lambda} bits"
    );
    let mut b = CircuitBuilder::new();
    let x = b.input_bundle(lambda);
    let outputs = lookahead_core(&mut b, &Bit::wires(&x), &Bit::consts(constant, lambda));
    b.finish(outputs, 3)
}

/// Builds the small-weight ripple-carry adder: depth `λ + 2`, all synapse
/// weights in `{±1, ±2}`. Output bundle has `λ + 1` bits, valid at depth
/// `λ + 2` (sum-bit gates are delay-aligned so the whole bundle appears
/// simultaneously, per the paper's synchronisation convention).
///
/// # Panics
/// Panics if `lambda == 0`.
#[must_use]
pub fn build_ripple_adder(lambda: usize) -> Circuit {
    assert!(lambda > 0);
    let mut b = CircuitBuilder::new();
    let x = b.input_bundle(lambda);
    let y = b.input_bundle(lambda);
    let depth = lambda as u32 + 2;

    // Carry chain: c_{i+1} = MAJ(x_i, y_i, c_i) fires at t = i + 1.
    // carries[i] = carry *out of* position i.
    let mut carries: Vec<NeuronId> = Vec::with_capacity(lambda);
    for i in 0..lambda {
        let g = b.gate_at_least(2);
        b.wire(x[i], g, 1.0, i as u32 + 1);
        b.wire(y[i], g, 1.0, i as u32 + 1);
        if i > 0 {
            b.wire(carries[i - 1], g, 1.0, 1);
        }
        carries.push(g);
    }

    // Parity layers, aligned so every sum bit fires at `depth`.
    let mut outputs = Vec::with_capacity(lambda + 1);
    for i in 0..lambda {
        let max_sum = if i == 0 { 2 } else { 3 };
        let gates: Vec<NeuronId> = (1..=max_sum)
            .map(|k| {
                let g = b.gate_at_least(k);
                b.wire(x[i], g, 1.0, depth - 1);
                b.wire(y[i], g, 1.0, depth - 1);
                if i > 0 {
                    // carry into i fired at t = i.
                    b.wire(carries[i - 1], g, 1.0, depth - 1 - i as u32);
                }
                g
            })
            .collect();
        let s = b.gate(0.5);
        for (k, &g) in gates.iter().enumerate() {
            let w = if k % 2 == 0 { 1.0 } else { -1.0 };
            b.wire(g, s, w, 1);
        }
        outputs.push(s);
    }
    // Carry out of the top position fired at t = λ; buffer to `depth`.
    let carry_out = crate::logic::buffer(&mut b, carries[lambda - 1], 2);
    outputs.push(carry_out);
    b.finish(outputs, u64::from(depth))
}

/// Builds the depth-3 decrement circuit computing `x − 1` on λ bits,
/// used by the k-hop algorithm to decrement TTLs (§4.1; the paper realises
/// it as adding the two's complement of 1 — we use the equivalent
/// borrow-propagation form, which needs no λ-bit constant operand):
/// bit `j` of `x − 1` equals `x_j XNOR OR(x_0..x_{j−1})`.
///
/// Input `x = 0` wraps to all-ones (`2^λ − 1`), exactly like two's
/// complement; the k-hop algorithm never decrements a zero TTL.
///
/// # Panics
/// Panics if `lambda == 0`.
#[must_use]
pub fn build_decrement(lambda: usize) -> Circuit {
    assert!(lambda > 0);
    let mut b = CircuitBuilder::new();
    let x = b.input_bundle(lambda);

    // Layer 1 (t=1): orlow_j = OR(x_0 .. x_{j-1}) for j >= 1.
    let orlow: Vec<Option<NeuronId>> = (0..lambda)
        .map(|j| {
            (j > 0).then(|| {
                let g = b.gate_at_least(1);
                for &xi in &x[..j] {
                    b.wire(xi, g, 1.0, 1);
                }
                g
            })
        })
        .collect();

    // Layer 2 (t=2): g_and = x_j AND orlow_j; g_nor = NOT x_j AND NOT orlow_j.
    // Layer 3 (t=3): s_j = g_and OR g_nor  (XNOR).
    let outputs: Vec<NeuronId> = (0..lambda)
        .map(|j| {
            let g_and = b.gate_at_least(2);
            b.wire(x[j], g_and, 1.0, 2);
            let g_nor = b.gate(0.5);
            b.constant(g_nor, 1.0, 2);
            b.wire(x[j], g_nor, -1.0, 2);
            if let Some(ol) = orlow[j] {
                b.wire(ol, g_and, 1.0, 1);
                b.wire(ol, g_nor, -1.0, 1);
            }
            // j = 0: orlow is constant 0, so g_and can never reach 2 and
            // g_nor reduces to NOT x_0 — exactly s_0 = NOT x_0.
            let s = b.gate_at_least(1);
            b.wire(g_and, s, 1.0, 1);
            b.wire(g_nor, s, 1.0, 1);
            s
        })
        .collect();

    b.finish(outputs, 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lookahead_exhaustive_three_bits() {
        let c = build_lookahead_adder(3);
        for x in 0..8u64 {
            for y in 0..8u64 {
                assert_eq!(c.eval(&[x, y]).unwrap(), x + y, "{x} + {y}");
            }
        }
    }

    #[test]
    fn ripple_exhaustive_three_bits() {
        let c = build_ripple_adder(3);
        for x in 0..8u64 {
            for y in 0..8u64 {
                assert_eq!(c.eval(&[x, y]).unwrap(), x + y, "{x} + {y}");
            }
        }
    }

    #[test]
    fn add_const_exhaustive_three_bits() {
        for k in 0..8u64 {
            let c = build_add_const(3, k);
            for x in 0..8u64 {
                assert_eq!(c.eval(&[x]).unwrap(), x + k, "{x} + {k}");
            }
        }
    }

    #[test]
    fn decrement_exhaustive_four_bits() {
        let c = build_decrement(4);
        for x in 1..16u64 {
            assert_eq!(c.eval(&[x]).unwrap(), x - 1, "{x} - 1");
        }
        // Documented wrap: 0 - 1 = 2^λ - 1.
        assert_eq!(c.eval(&[0]).unwrap(), 15);
    }

    #[test]
    fn single_bit_adders() {
        let c = build_lookahead_adder(1);
        assert_eq!(c.eval(&[1, 1]).unwrap(), 2);
        assert_eq!(c.eval(&[1, 0]).unwrap(), 1);
        let c = build_ripple_adder(1);
        assert_eq!(c.eval(&[1, 1]).unwrap(), 2);
        let c = build_decrement(1);
        assert_eq!(c.eval(&[1]).unwrap(), 0);
    }

    #[test]
    fn depths_and_weights_match_design_points() {
        let look = build_lookahead_adder(8);
        assert_eq!(look.depth, 3);
        assert_eq!(look.net.max_abs_weight(), 128.0); // 2^{λ-1}

        let ripple = build_ripple_adder(8);
        assert_eq!(ripple.depth, 10); // λ + 2
        assert!(ripple.net.max_abs_weight() <= 2.0); // small weights

        assert_eq!(build_decrement(8).depth, 3);
    }

    #[test]
    fn neuron_counts_are_linear_in_lambda() {
        for lambda in [4usize, 8, 16] {
            let look = build_lookahead_adder(lambda);
            // 1 bias + 2λ inputs + λ carries + (3λ - 1) threshold gates +
            // λ sum gates + 1 carry-out buffer.
            assert_eq!(
                look.net.neuron_count(),
                1 + 2 * lambda + lambda + (3 * lambda - 1) + lambda + 1
            );
            let ripple = build_ripple_adder(lambda);
            assert_eq!(ripple.net.neuron_count(), look.net.neuron_count());
        }
    }

    proptest! {
        #[test]
        fn lookahead_matches_u64_add(x in 0u64..(1 << 16), y in 0u64..(1 << 16)) {
            let c = build_lookahead_adder(16);
            prop_assert_eq!(c.eval(&[x, y]).unwrap(), x + y);
        }

        #[test]
        fn ripple_matches_u64_add(x in 0u64..(1 << 12), y in 0u64..(1 << 12)) {
            let c = build_ripple_adder(12);
            prop_assert_eq!(c.eval(&[x, y]).unwrap(), x + y);
        }

        #[test]
        fn decrement_matches_u64_sub(x in 1u64..(1 << 16)) {
            let c = build_decrement(16);
            prop_assert_eq!(c.eval(&[x]).unwrap(), x - 1);
        }

        #[test]
        fn add_const_matches(x in 0u64..(1 << 10), k in 0u64..(1 << 10)) {
            let c = build_add_const(10, k);
            prop_assert_eq!(c.eval(&[x]).unwrap(), x + k);
        }

        #[test]
        fn adder_designs_agree(x in 0u64..(1 << 10), y in 0u64..(1 << 10)) {
            let a = build_lookahead_adder(10);
            let b = build_ripple_adder(10);
            prop_assert_eq!(a.eval(&[x, y]).unwrap(), b.eval(&[x, y]).unwrap());
        }
    }
}
