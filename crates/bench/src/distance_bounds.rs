//! Theorems 6.1 and 6.2 as experiments: measured DISTANCE costs against
//! the closed-form lower bounds, with fitted exponents.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sgl_distance::bellman_ford::bellman_ford_metered;
use sgl_distance::bounds::{bellman_ford_khop_lb, fit_exponent, input_scan_lb};
use sgl_distance::scan::scan;
use sgl_distance::Placement;
use sgl_graph::generators;
use sgl_snn::engine::par_map;

use crate::parallel::default_threads;

/// One (m, c) point of the Theorem 6.1 scan experiment.
#[derive(Clone, Debug)]
pub struct ScanRow {
    /// Input words.
    pub m: usize,
    /// Registers.
    pub c: usize,
    /// Register placement.
    pub placement: Placement,
    /// Measured cost.
    pub cost: u64,
    /// Lower bound.
    pub lb: f64,
}

/// Sweeps the Theorem 6.1 input-scan experiment (points fan out across
/// worker threads; each point is deterministic).
#[must_use]
pub fn scan_sweep() -> Vec<ScanRow> {
    let mut points = Vec::new();
    for &placement in &[Placement::CenterCluster, Placement::SpreadGrid] {
        for &m in &[1usize << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16] {
            for &c in &[1usize, 4, 16, 64] {
                points.push((placement, m, c));
            }
        }
    }
    par_map(
        points.len(),
        default_threads(),
        || (),
        |(), i| {
            let (placement, m, c) = points[i];
            let r = scan(m, c, placement);
            ScanRow {
                m,
                c,
                placement,
                cost: r.cost,
                lb: input_scan_lb(m as u64, c as u64),
            }
        },
    )
}

/// Fitted exponent of measured scan cost in `m` (should be ≈ 1.5).
#[must_use]
pub fn scan_exponent(rows: &[ScanRow]) -> f64 {
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.c == 1 && r.placement == Placement::CenterCluster)
        .map(|r| (r.m as f64, r.cost as f64))
        .collect();
    fit_exponent(&pts)
}

/// One (k, m) point of the Theorem 6.2 Bellman–Ford experiment.
#[derive(Clone, Debug)]
pub struct BfRow {
    /// Hop bound.
    pub k: u32,
    /// Graph nodes / edges.
    pub n: usize,
    /// Edges.
    pub m: usize,
    /// Measured metered movement cost.
    pub cost: u64,
    /// `Ω(k·m^{3/2}/√c)` bound.
    pub lb: f64,
}

/// Sweeps the Theorem 6.2 experiment (`c = 4`).
#[must_use]
pub fn bf_sweep(seed: u64) -> Vec<BfRow> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    for &(n, m) in &[(48usize, 384usize), (96, 1536), (128, 4096)] {
        let g = generators::gnm_connected(&mut rng, n, m, 1..=7);
        for &k in &[2u32, 4, 8, 16] {
            let r = bellman_ford_metered(&g, 0, k, 4, Placement::CenterCluster);
            rows.push(BfRow {
                k,
                n,
                m,
                cost: r.cost,
                lb: bellman_ford_khop_lb(u64::from(k), m as u64, 4),
            });
        }
    }
    rows
}

/// Renders scan rows.
#[must_use]
pub fn render_scan(rows: &[ScanRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                format!("{:?}", r.placement),
                r.m.to_string(),
                r.c.to_string(),
                r.cost.to_string(),
                format!("{:.0}", r.lb),
                format!("{:.2}", r.cost as f64 / r.lb),
            ]
        })
        .collect()
}

/// Header for [`render_scan`].
pub const SCAN_HEADER: [&str; 6] = ["placement", "m", "c", "measured", "bound", "ratio"];

/// Renders Bellman–Ford rows.
#[must_use]
pub fn render_bf(rows: &[BfRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.k.to_string(),
                r.n.to_string(),
                r.m.to_string(),
                r.cost.to_string(),
                format!("{:.0}", r.lb),
                format!("{:.2}", r.cost as f64 / r.lb),
            ]
        })
        .collect()
}

/// Header for [`render_bf`].
pub const BF_HEADER: [&str; 6] = ["k", "n", "m", "measured", "bound", "ratio"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scan_point_beats_its_bound() {
        for r in scan_sweep() {
            assert!(
                r.cost as f64 >= r.lb,
                "m={} c={} {:?}",
                r.m,
                r.c,
                r.placement
            );
        }
    }

    #[test]
    fn scan_exponent_is_three_halves() {
        let rows = scan_sweep();
        let e = scan_exponent(&rows);
        assert!((1.45..1.55).contains(&e), "exponent {e}");
    }

    #[test]
    fn every_bf_point_beats_its_bound() {
        for r in bf_sweep(1) {
            assert!(r.cost as f64 >= r.lb, "k={} m={}", r.k, r.m);
        }
    }

    #[test]
    fn bf_cost_grows_linearly_in_k() {
        let rows = bf_sweep(2);
        let at = |k: u32, m: usize| rows.iter().find(|r| r.k == k && r.m == m).unwrap().cost as f64;
        let ratio = at(16, 1536) / at(2, 1536);
        assert!((5.0..12.0).contains(&ratio), "k ratio {ratio}");
    }
}
