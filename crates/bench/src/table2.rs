//! Table 2 regeneration: measured size and depth of the two max circuits.
//!
//! The paper: brute force = `O(d²)` neurons at depth 3; wired-OR =
//! `O(dλ)` neurons at depth `O(λ)`. We build both for a (d, λ) sweep and
//! report *measured* neuron counts, synapse counts, depth, fan-in and
//! weight magnitude — the full §5 trade-off surface — and verify each
//! circuit still computes max on sampled inputs while measuring.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgl_circuits::{max_brute_force, max_wired_or, CircuitStats};
use sgl_snn::engine::par_map;

use crate::parallel::default_threads;

/// Measured profile of one (design, d, λ) point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Circuit design name.
    pub design: &'static str,
    /// Operand count `d`.
    pub d: usize,
    /// Bit width λ.
    pub lambda: usize,
    /// Measured resources.
    pub stats: CircuitStats,
    /// Sampled evaluations that matched `u64::max` (sanity).
    pub verified: usize,
}

/// Builds and measures both designs over the sweep grid. Points are
/// independent, so the sweep fans out over worker threads (each point
/// derives its own RNG seed, keeping results order- and
/// schedule-independent).
#[must_use]
pub fn sweep(seed: u64) -> Vec<Row> {
    let mut points = Vec::new();
    for &d in &[2usize, 4, 8, 16, 32] {
        for &lambda in &[4usize, 8, 16] {
            for design in ["wired-or", "brute-force"] {
                points.push((design, d, lambda));
            }
        }
    }
    par_map(
        points.len(),
        default_threads(),
        || (),
        |(), i| {
            let (design, d, lambda) = points[i];
            let circuit = match design {
                "wired-or" => max_wired_or::build_max(d, lambda),
                _ => max_brute_force::build_max(d, lambda),
            };
            let stats = CircuitStats::of(&circuit.circuit);
            let mut rng = StdRng::seed_from_u64(
                seed ^ (d as u64) << 32 ^ (lambda as u64) << 8 ^ design.len() as u64,
            );
            let mut verified = 0;
            for _ in 0..3 {
                let vals: Vec<u64> = (0..d).map(|_| rng.gen_range(0..(1u64 << lambda))).collect();
                if circuit.eval(&vals) == vals.iter().copied().max().unwrap() {
                    verified += 1;
                }
            }
            Row {
                design,
                d,
                lambda,
                stats,
                verified,
            }
        },
    )
}

/// Renders the sweep for printing.
#[must_use]
pub fn render(rows: &[Row]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.design.into(),
                r.d.to_string(),
                r.lambda.to_string(),
                r.stats.internal_neurons.to_string(),
                r.stats.synapses.to_string(),
                r.stats.depth.to_string(),
                r.stats.max_fan_in.to_string(),
                format!("{:.0}", r.stats.max_abs_weight),
                format!("{}/3", r.verified),
            ]
        })
        .collect()
}

/// Column header matching [`render`].
pub const HEADER: [&str; 9] = [
    "design", "d", "lambda", "neurons", "synapses", "depth", "fan-in", "|w|max", "verified",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sampled_evaluations_verify() {
        let rows = sweep(1);
        assert!(rows.iter().all(|r| r.verified == 3));
    }

    #[test]
    fn table2_shapes_hold() {
        let rows = sweep(2);
        for r in &rows {
            match r.design {
                "brute-force" => {
                    assert_eq!(r.stats.depth, 5, "constant depth");
                    // Neurons dominated by d(d-1) comparators.
                    assert!(r.stats.internal_neurons >= r.d * (r.d - 1));
                    // Exponential weights.
                    assert_eq!(r.stats.max_abs_weight, (1u64 << (r.lambda - 1)) as f64);
                }
                "wired-or" => {
                    assert_eq!(r.stats.depth, 3 * r.lambda as u64 + 2, "O(λ) depth");
                    assert!(r.stats.internal_neurons <= 4 * r.d * r.lambda + 3 * r.lambda);
                    assert!(r.stats.max_abs_weight <= 2.0, "small weights");
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn size_crossover_between_designs() {
        // For large d the wired-or circuit is smaller; for small d and
        // small λ the brute-force circuit is competitive.
        let rows = sweep(3);
        let pick = |design: &str, d: usize, lambda: usize| {
            rows.iter()
                .find(|r| r.design == design && r.d == d && r.lambda == lambda)
                .unwrap()
                .stats
                .internal_neurons
        };
        assert!(pick("wired-or", 32, 4) < pick("brute-force", 32, 4));
        assert!(pick("brute-force", 2, 16) < pick("wired-or", 2, 16));
    }
}
