//! Sharded server statistics, cql-stress style.
//!
//! Workers never contend on a shared recorder: each worker owns shard `i`
//! of a [`ShardedStats`] (its own mutex, uncontended in steady state —
//! the cql-stress `sharded_stats` pattern), recording service latency,
//! queue wait, and queue depth as it completes jobs. Readers (the
//! `server_stats` op) **combine** all shards into one [`WorkerStats`] on
//! demand; combining merges [`LogHistogram`]s bucket-wise so quantiles
//! over the combined distribution are exact (up to bucket resolution),
//! not averages of per-worker quantiles.
//!
//! Cross-cutting counters that are written outside worker context —
//! sheds happen on the *admitting* thread, before any worker exists for
//! the job — live in [`Counters`] as plain atomics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sgl_observe::{Json, LogHistogram};

use crate::protocol::OpKind;

const N_OPS: usize = OpKind::ALL.len();

/// One shard of statistics: owned (by convention) by a single worker.
#[derive(Debug)]
pub struct WorkerStats {
    /// Service latency per op kind, in microseconds (execution only,
    /// queue wait excluded).
    pub latency_us: [LogHistogram; N_OPS],
    /// Time jobs spent queued before this worker picked them up, µs.
    pub queue_wait_us: LogHistogram,
    /// Queue depth observed at each pop (how far behind the pool runs).
    pub queue_depth: LogHistogram,
    /// Wall time of each graph→SNN compile this worker performed (cache
    /// misses and bypasses), µs — the cold-path cost, observable in
    /// production via `server_stats` rather than only in benches.
    pub compile_us: LogHistogram,
    /// Jobs completed successfully, per op kind.
    pub ok: [u64; N_OPS],
    /// Jobs answered with an error (any kind), per op kind.
    pub errors: [u64; N_OPS],
}

impl Default for WorkerStats {
    fn default() -> Self {
        Self {
            latency_us: std::array::from_fn(|_| LogHistogram::new()),
            queue_wait_us: LogHistogram::new(),
            queue_depth: LogHistogram::new(),
            compile_us: LogHistogram::new(),
            ok: [0; N_OPS],
            errors: [0; N_OPS],
        }
    }
}

impl WorkerStats {
    /// Records one completed job.
    pub fn record(&mut self, op: OpKind, latency_us: u64, ok: bool) {
        let i = op.index();
        self.latency_us[i].record(latency_us);
        if ok {
            self.ok[i] += 1;
        } else {
            self.errors[i] += 1;
        }
    }

    /// Records one graph→SNN compile (a cache miss or bypass).
    pub fn record_compile(&mut self, compile_us: u64) {
        self.compile_us.record(compile_us);
    }

    /// Folds another shard into this one.
    pub fn merge(&mut self, other: &Self) {
        for i in 0..N_OPS {
            self.latency_us[i].merge(&other.latency_us[i]);
            self.ok[i] += other.ok[i];
            self.errors[i] += other.errors[i];
        }
        self.queue_wait_us.merge(&other.queue_wait_us);
        self.queue_depth.merge(&other.queue_depth);
        self.compile_us.merge(&other.compile_us);
    }
}

/// Per-worker shards plus one overflow shard (index `workers`) for
/// recording done outside any worker (e.g. inline ops).
#[derive(Debug)]
pub struct ShardedStats {
    shards: Vec<Mutex<WorkerStats>>,
}

impl ShardedStats {
    /// Stats with one shard per worker plus the overflow shard.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            shards: (0..=workers)
                .map(|_| Mutex::new(WorkerStats::default()))
                .collect(),
        }
    }

    /// Index of the overflow shard (non-worker threads record here).
    #[must_use]
    pub fn overflow_shard(&self) -> usize {
        self.shards.len() - 1
    }

    /// Runs `f` against shard `i`'s recorder. Worker `i` calling with its
    /// own index never contends; readers contend only during combine.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the shard lock is poisoned.
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&mut WorkerStats) -> R) -> R {
        f(&mut self.shards[i].lock().expect("stats shard lock"))
    }

    /// Merges every shard into one snapshot (shards keep their contents).
    ///
    /// # Panics
    /// Panics if a shard lock is poisoned.
    #[must_use]
    pub fn combined(&self) -> WorkerStats {
        let mut out = WorkerStats::default();
        for shard in &self.shards {
            out.merge(&shard.lock().expect("stats shard lock"));
        }
        out
    }
}

/// Atomically-updated counters written outside worker context, plus the
/// server's instantaneous gauges (shared atomics incremented and
/// decremented around the guarded activity).
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests rejected `overloaded` (queue full).
    pub shed: AtomicU64,
    /// Requests rejected `draining`.
    pub rejected_draining: AtomicU64,
    /// Admitted jobs answered `deadline_exceeded` without execution.
    pub deadline_exceeded: AtomicU64,
    /// Jobs admitted to the queue.
    pub admitted: AtomicU64,
    /// Gauge: jobs currently executing on a worker.
    pub in_flight: AtomicU64,
    /// Gauge: open TCP connection handlers.
    pub connections: AtomicU64,
}

impl Counters {
    /// Relaxed increment (these are monotone counters, not synchronization).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Gauge up: the guarded activity (a query, a connection) began.
    pub fn gauge_inc(gauge: &AtomicU64) {
        gauge.fetch_add(1, Ordering::Relaxed);
    }

    /// Gauge down: the guarded activity ended. Saturates at zero rather
    /// than wrapping if ever mispaired.
    pub fn gauge_dec(gauge: &AtomicU64) {
        let _ = gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    /// Relaxed read.
    #[must_use]
    pub fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Per-shard instantaneous gauges, read by `server_stats` to render the
/// per-shard balance table. Each shard thread is the only writer of its
/// own gauges (plain relaxed atomics); queue depth and cache footprint
/// are *not* duplicated here — they are computed on read from the shard's
/// own [`crate::admission::AdmissionQueue`] and registry partition.
#[derive(Debug, Default)]
pub struct ShardGauges {
    /// Open connections owned by this shard's event loop.
    pub connections: AtomicU64,
    /// Jobs currently executing on this shard.
    pub in_flight: AtomicU64,
}

/// Latency-summary JSON for one histogram: count, the exact observed
/// min/max, the count-weighted mean, and p50/p90/p95/p99 (µs). Min, max
/// and mean are tracked exactly — quantiles are bucket lower bounds, so
/// without the exact extremes the JSON would understate the true tail.
#[must_use]
pub fn latency_json(h: &LogHistogram) -> Json {
    let q = |q: f64| h.quantile(q).map_or(Json::Null, Json::UInt);
    Json::obj(vec![
        ("count", Json::UInt(h.count())),
        ("min_us", h.min().map_or(Json::Null, Json::UInt)),
        ("p50_us", q(0.5)),
        ("p90_us", q(0.9)),
        ("p95_us", q(0.95)),
        ("p99_us", q(0.99)),
        ("max_us", h.max().map_or(Json::Null, Json::UInt)),
        ("mean_us", h.mean().map_or(Json::Null, Json::Num)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_quantiles_come_from_merged_distribution() {
        let stats = ShardedStats::new(2);
        // Worker 0 sees fast ops, worker 1 slow ones; the combined p50
        // must fall between them (merged distribution, not averaged).
        stats.with_shard(0, |s| {
            for _ in 0..100 {
                s.record(OpKind::Sssp, 10, true);
            }
        });
        stats.with_shard(1, |s| {
            for _ in 0..100 {
                s.record(OpKind::Sssp, 10_000, true);
            }
        });
        let c = stats.combined();
        let i = OpKind::Sssp.index();
        assert_eq!(c.latency_us[i].count(), 200);
        assert_eq!(c.ok[i], 200);
        let p50 = c.latency_us[i].quantile(0.5).unwrap();
        assert!((10..=10_000).contains(&p50), "p50 = {p50}");
        // p99 lands in the slow mode.
        assert!(c.latency_us[i].quantile(0.99).unwrap() >= 9_000);
    }

    #[test]
    fn overflow_shard_is_last() {
        let stats = ShardedStats::new(3);
        assert_eq!(stats.overflow_shard(), 3);
        stats.with_shard(stats.overflow_shard(), |s| {
            s.record(OpKind::ServerStats, 1, true);
        });
        assert_eq!(stats.combined().ok[OpKind::ServerStats.index()], 1);
    }

    #[test]
    fn latency_json_has_the_quantile_fields() {
        let mut h = LogHistogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        let j = latency_json(&h);
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(100));
        assert!(j.get("p90_us").and_then(Json::as_u64).is_some());
        assert!(j.get("p95_us").and_then(Json::as_u64).is_some());
        assert!(j.get("p99_us").and_then(Json::as_u64).is_some());
        // Exact extremes and mean, not bucket floors: 1..=100 uniform.
        assert_eq!(j.get("min_us").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("max_us").and_then(Json::as_u64), Some(100));
        let mean = j.get("mean_us").and_then(Json::as_f64).unwrap();
        assert!((mean - 50.5).abs() < 1e-9, "mean = {mean}");
        // Empty histogram: quantiles serialize as null, not a panic.
        let j = latency_json(&LogHistogram::new());
        assert_eq!(j.get("p50_us"), Some(&Json::Null));
        assert_eq!(j.get("min_us"), Some(&Json::Null));
    }

    #[test]
    fn gauges_pair_and_saturate() {
        let c = Counters::default();
        Counters::gauge_inc(&c.in_flight);
        Counters::gauge_inc(&c.in_flight);
        Counters::gauge_dec(&c.in_flight);
        assert_eq!(Counters::read(&c.in_flight), 1);
        Counters::gauge_dec(&c.in_flight);
        Counters::gauge_dec(&c.in_flight);
        assert_eq!(Counters::read(&c.in_flight), 0, "never wraps below zero");
    }
}
