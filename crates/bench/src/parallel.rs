//! Worker count for the experiment harness's parallel sweeps.
//!
//! Experiment points are independent (each derives its own RNG seed), so
//! sweeps fan out through [`sgl_snn::engine::par_map`], which returns
//! results in point order — tables stay deterministic regardless of
//! scheduling.

/// Default worker count for sweeps: the machine's parallelism, capped so
/// laptop runs stay polite.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
