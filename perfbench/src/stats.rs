//! Summary arithmetic: a constant-memory latency histogram, nearest-rank
//! percentiles with the samples beyond them, and medians.
//!
//! A latency is gated on its median. Tail percentiles are printed with the
//! number of samples beyond them, and marked when fewer than
//! [`TAIL_BEYOND`] are, so a tail figure is never read off the single
//! worst sample of a short run. They are not gated: on a small shared
//! machine p90 moved by a quarter to a third between runs of the same
//! code.

/// Samples that must lie beyond a percentile for it to be read as a tail.
pub const TAIL_BEYOND: usize = 10;

/// Percentiles printed beside a latency result.
pub const PRINTED: [f64; 4] = [0.5, 0.9, 0.95, 0.99];

/// Nearest-rank index of quantile `q` in a sorted sample of `n` values:
/// the smallest rank whose cumulative share reaches `q`.
#[must_use]
pub fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    // The epsilon keeps `0.99 * 1000` from rounding up past rank 990.
    let r = (q * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank quantile `q` of `n` samples.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    n - 1 - rank(n, q)
}

/// Median of an unsorted sample (upper median for even counts, the
/// nearest-rank convention used throughout).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), 0.5)]
}

/// Sub-buckets per power of two in [`Hist`].
const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;
/// Buckets covering every `u64`: exact below `SUB`, then `SUB` per octave.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Latency histogram in nanoseconds with constant memory: values below
/// 1024 ns are exact, larger ones land in one of 1024 sub-buckets per
/// power of two, so a reported value is within 0.05% of a true sample.
/// Runs of millions of operations keep the client's memory flat, so the
/// process's peak resident memory reflects the server, not the log.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Hist {
    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        SUB + shift as usize * SUB + ((ns >> shift) as usize - SUB)
    }

    /// Midpoint of bucket `i`.
    fn value(i: usize) -> f64 {
        if i < SUB {
            return i as f64;
        }
        let (shift, m) = ((i - SUB) / SUB, (i - SUB) % SUB);
        let lo = ((SUB + m) as u64) << shift;
        lo as f64 + ((1u64 << shift) - 1) as f64 / 2.0
    }

    /// Counts one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank quantile `q`, ns. `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let r = rank(usize::try_from(self.n).expect("count fits usize"), q) as u64;
        let mut seen = 0;
        self.counts.iter().enumerate().find_map(|(i, &c)| {
            seen += c;
            (seen > r).then(|| Self::value(i))
        })
    }
}

/// A latency summary in milliseconds: sample count, median, and the
/// [`PRINTED`] percentiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Values at [`PRINTED`].
    pub printed: [f64; 4],
}

impl Summary {
    /// Summarizes `h`. `None` when empty.
    #[must_use]
    pub fn of(h: &Hist) -> Option<Self> {
        let n = usize::try_from(h.count()).ok()?;
        let ms = |q: f64| h.quantile(q).map(|ns| ns / 1e6);
        Some(Self {
            n,
            p50: ms(0.5)?,
            printed: PRINTED.map(|p| ms(p).unwrap_or(0.0)),
        })
    }

    /// `p50 … p99`, each with the samples beyond it, and marked when fewer
    /// than [`TAIL_BEYOND`] are: the printed latency table.
    #[must_use]
    pub fn describe(&self) -> String {
        PRINTED
            .iter()
            .zip(self.printed)
            .map(|(&q, v)| {
                let b = beyond(self.n, q);
                let mark = if b < TAIL_BEYOND { ", too few" } else { "" };
                format!("p{:.0} {v:.4} ({b} beyond{mark})", q * 100.0)
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        // Ranks are 0-based: the 50th of 100 samples is index 49.
        assert_eq!(rank(100, 0.5), 49);
        assert_eq!(rank(100, 0.99), 98);
        assert_eq!(rank(100, 1.0), 99);
        assert_eq!(rank(100, 0.0), 0);
        assert_eq!(rank(1, 0.99), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        // 1000 samples: rank 990 leaves exactly ten beyond p99.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
    }

    fn hist_of(values: impl IntoIterator<Item = u64>) -> Hist {
        let mut h = Hist::default();
        for v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn hist_is_exact_below_1024_ns_and_within_half_a_permille_above() {
        for v in [0u64, 1, 999, 1023] {
            assert_eq!(Hist::value(Hist::index(v)), v as f64);
        }
        let mut v = 1024u64;
        while v < u64::MAX / 3 {
            for x in [v, v + v / 3, v + v / 2 + 7] {
                let got = Hist::value(Hist::index(x));
                assert!((got - x as f64).abs() <= x as f64 / 2048.0, "{x} -> {got}");
            }
            v *= 3;
        }
        assert!(Hist::index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn hist_quantiles_are_nearest_rank() {
        let h = hist_of((1..=1000).rev());
        assert_eq!(h.count(), 1000);
        assert_eq!(h.quantile(0.5), Some(500.0));
        assert_eq!(h.quantile(0.99), Some(990.0));
        assert_eq!(h.quantile(1.0), Some(1000.0));
        assert_eq!(Hist::default().quantile(0.5), None);
        let mut a = hist_of([1, 2]);
        a.merge(&hist_of([3, 4, 5]));
        assert_eq!((a.count(), a.quantile(0.5)), (5, Some(3.0)));
    }

    #[test]
    fn summary_marks_percentiles_with_too_few_samples_beyond() {
        // 1..=1000 µs: a value in ms is within 0.05% of the exact sample.
        let h = hist_of((1..=1000).map(|us| us * 1000));
        let near = |a: f64, b: f64| (a - b).abs() <= b / 2048.0;
        let s = Summary::of(&h).unwrap();
        assert_eq!(s.n, 1000);
        assert!(near(s.p50, 0.5) && near(s.printed[1], 0.9), "{s:?}");
        assert!(near(s.printed[3], 0.99));
        // p99 of 1000 samples has exactly ten beyond it: a tail.
        assert!(
            s.describe().ends_with("p99 0.9900 (10 beyond)"),
            "{}",
            s.describe()
        );
        // Of 999 it has nine: marked.
        let s = Summary::of(&hist_of((1..=999).map(|us| us * 1000))).unwrap();
        assert!(
            s.describe().ends_with("(9 beyond, too few)"),
            "{}",
            s.describe()
        );
        assert!(Summary::of(&Hist::default()).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
