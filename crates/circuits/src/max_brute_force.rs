//! Theorem 5.2: the brute-force constant-depth maximum circuit.
//!
//! All `d(d-1)/2` operand pairs are compared in a single layer of Figure 5A
//! comparators; the reverse comparisons are NOT gates on those (Figure 5A
//! right); a winner-take-all layer of `M_x` gates (Figure 5B, threshold
//! `d−1`) marks the operand that wins *all* its comparisons, ties broken
//! toward the smallest index; two more layers filter and merge the winner's
//! bits onto the output (as in Theorem 5.1's proof). `O(d²)` neurons,
//! constant depth (5 measured layers; the paper counts the 3 comparison/
//! winner layers).

use crate::builder::CircuitBuilder;
use crate::comparator::ge_gate_at;
use crate::logic::not_gate_at;
use crate::max_wired_or::MaxCircuit;
use sgl_snn::{NeuronId, Time};

/// Measured depth of the brute-force circuit (independent of `d` and λ).
pub const BRUTE_FORCE_DEPTH: Time = 5;

/// Builds the Theorem 5.2 brute-force maximum circuit.
///
/// Returns a [`MaxCircuit`] so it is interchangeable with the wired-OR
/// design; `active` holds the `M_x` winner-take-all gates (exactly one
/// fires — ties resolve to the smallest index, unlike the wired-OR circuit
/// which marks all tied winners).
///
/// # Panics
/// Panics if `d == 0` or `lambda == 0`.
#[must_use]
pub fn build_max(d: usize, lambda: usize) -> MaxCircuit {
    build(d, lambda, false)
}

/// Minimum variant: per §5, "we can compute min instead of max by negating
/// the weights of the incoming synapses of the \[comparison\] circuits" —
/// i.e. each pairwise test becomes `b_x <= b_y`.
#[must_use]
pub fn build_min(d: usize, lambda: usize) -> MaxCircuit {
    build(d, lambda, true)
}

fn build(d: usize, lambda: usize, minimum: bool) -> MaxCircuit {
    assert!(d > 0 && lambda > 0, "need at least one operand and one bit");
    let mut b = CircuitBuilder::new();
    let inputs: Vec<Vec<NeuronId>> = (0..d).map(|_| b.input_bundle(lambda)).collect();

    // Layer 1: C_{xy} for x < y fires iff b_x >= b_y (<= for min).
    // Layer 2: C_{yx} = NOT C_{xy} (strict reverse comparison).
    // `wins[x][y]` fires (at time 1 for x<y, 2 for x>y) iff x beats y.
    let mut wins: Vec<Vec<Option<(NeuronId, u32)>>> = vec![vec![None; d]; d];
    for x in 0..d {
        for y in (x + 1)..d {
            let c_xy = if minimum {
                ge_gate_at(&mut b, &inputs[y], &inputs[x], 1) // b_y >= b_x ⇔ b_x <= b_y
            } else {
                ge_gate_at(&mut b, &inputs[x], &inputs[y], 1)
            };
            let c_yx = not_gate_at(&mut b, c_xy, 2);
            wins[x][y] = Some((c_xy, 1));
            wins[y][x] = Some((c_yx, 2));
        }
    }

    // Layer 3: M_x fires at t=3 iff x wins all d-1 comparisons.
    let winners: Vec<NeuronId> = (0..d)
        .map(|x| {
            if d == 1 {
                // Degenerate: sole operand always wins. Constant-1 gate.
                let g = b.gate(0.5);
                b.constant(g, 1.0, 3);
                g
            } else {
                let g = b.gate_at_least((d - 1) as u32);
                for y in 0..d {
                    if let Some((c, fire)) = wins[x][y] {
                        b.wire(c, g, 1.0, 3 - fire);
                    }
                }
                g
            }
        })
        .collect();

    // Layer 4: filter — c_{x,j} = M_x AND b_{x,j}, fires at 4.
    // Layer 5: merge — out_j = OR_x c_{x,j}, fires at 5.
    let mut filters: Vec<Vec<NeuronId>> = Vec::with_capacity(d);
    for x in 0..d {
        let row: Vec<NeuronId> = (0..lambda)
            .map(|j| {
                let g = b.gate_at_least(2);
                b.wire(winners[x], g, 1.0, 1);
                b.wire(inputs[x][j], g, 1.0, 4);
                g
            })
            .collect();
        filters.push(row);
    }
    let outputs: Vec<NeuronId> = (0..lambda)
        .map(|j| {
            let g = b.gate_at_least(1);
            for row in &filters {
                b.wire(row[j], g, 1.0, 1);
            }
            g
        })
        .collect();

    let circuit = b.finish(outputs, BRUTE_FORCE_DEPTH);
    MaxCircuit {
        circuit,
        active: winners,
        active_at: 3,
        d,
        lambda,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_two_operands_three_bits() {
        let c = build_max(2, 3);
        for x in 0..8u64 {
            for y in 0..8u64 {
                assert_eq!(c.eval(&[x, y]), x.max(y), "max({x},{y})");
            }
        }
    }

    #[test]
    fn exhaustive_three_operands_two_bits() {
        let c = build_max(3, 2);
        for x in 0..4u64 {
            for y in 0..4u64 {
                for z in 0..4u64 {
                    assert_eq!(c.eval(&[x, y, z]), x.max(y).max(z), "max({x},{y},{z})");
                }
            }
        }
    }

    #[test]
    fn exhaustive_min_three_operands_two_bits() {
        let c = build_min(3, 2);
        for x in 0..4u64 {
            for y in 0..4u64 {
                for z in 0..4u64 {
                    assert_eq!(c.eval(&[x, y, z]), x.min(y).min(z), "min({x},{y},{z})");
                }
            }
        }
    }

    #[test]
    fn ties_break_to_smallest_index() {
        let c = build_max(4, 4);
        let (v, winners) = c.eval_with_winners(&[5, 9, 9, 9]);
        assert_eq!(v, 9);
        assert_eq!(winners, vec![false, true, false, false]);
    }

    #[test]
    fn min_ties_break_to_smallest_index() {
        let c = build_min(3, 4);
        let (v, winners) = c.eval_with_winners(&[3, 3, 8]);
        assert_eq!(v, 3);
        assert_eq!(winners, vec![true, false, false]);
    }

    #[test]
    fn depth_is_constant() {
        for d in [2usize, 4, 8, 16] {
            let c = build_max(d, 6);
            assert_eq!(c.depth(), BRUTE_FORCE_DEPTH, "d = {d}");
        }
    }

    #[test]
    fn neuron_count_is_quadratic_in_d() {
        // 1 bias + dλ inputs + d(d-1) comparisons + d winners + dλ filter
        // + λ merge.
        for (d, lambda) in [(3usize, 4usize), (6, 4), (10, 8)] {
            let c = build_max(d, lambda);
            let expect = 1 + d * lambda + d * (d - 1) + d + d * lambda + lambda;
            assert_eq!(c.neuron_count(), expect, "d={d} λ={lambda}");
        }
    }

    #[test]
    fn single_operand_passes_through() {
        let c = build_max(1, 4);
        for v in [0u64, 7, 15] {
            assert_eq!(c.eval(&[v]), v);
        }
    }

    #[test]
    fn zeros_yield_zero() {
        assert_eq!(build_max(5, 3).eval(&[0; 5]), 0);
        assert_eq!(build_min(5, 3).eval(&[0; 5]), 0);
    }

    #[test]
    fn agrees_with_wired_or_design() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let bf = build_max(5, 6);
        let wo = crate::max_wired_or::build_max(5, 6);
        for _ in 0..50 {
            let vals: Vec<u64> = (0..5).map(|_| rng.gen_range(0..64)).collect();
            assert_eq!(bf.eval(&vals), wo.eval(&vals), "vals {vals:?}");
        }
    }
}
