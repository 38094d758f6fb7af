//! Request-scoped tracing across the serve pipeline.
//!
//! This is the serve-side half of `sgl-trace`
//! ([`sgl_observe::trace`] holds the storage and export primitives):
//!
//! * [`TraceConfig`] — tuning; **everything off by default**. With
//!   tracing disabled the request path performs no timestamp reads, no
//!   span recording, and no allocation — the only cost is one `Option`
//!   check per request.
//! * [`Tracing`] — server-wide state: the monotonic clock base, the
//!   trace-id source, the sampling coin, per-shard [`SpanRing`] flight
//!   recorders, and the bounded keep-buffer slow traces are promoted to.
//! * [`TraceCtx`] — the per-request span carrier. One `Box` per *traced*
//!   request (the sampled subset), travelling with the job across the
//!   intake and worker threads; spans are recorded into its inline
//!   fixed-capacity buffer, never the heap.
//! * [`TraceRunObserver`] — bridges the engine's existing
//!   [`RunObserver`] hooks into a `sim` sub-span of `engine_run`, so the
//!   simulator needs no new instrumentation.
//!
//! Two capture modes, composable:
//!
//! * **Sampling** (`sample_one_in = N`): a cheap per-request coin
//!   (splitmix64 of a relaxed counter — no RNG state, no lock) traces
//!   one request in N. Sampled traces land in the span rings
//!   (overwrite-oldest: a bounded-memory record of *recent* traffic).
//! * **Slow-request capture** (`slow_threshold_us = Some(t)`): every
//!   request is measured, but a completed trace is *promoted* to the
//!   keep-buffer only when its wall time exceeds `t` — the tail, kept
//!   beyond ring overwrite, bounded by `keep_capacity`.
//!
//! A client-supplied `trace_id` forces tracing for that request (when
//! tracing is enabled at all), so one can always ask for a trace of a
//! specific call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sgl_observe::trace::{chrome_trace, SpanBuf, SpanEvent, SpanRing, Stage};
use sgl_observe::{Json, RunObserver, StepRecord};

/// Tracing knobs. Defaults disable everything.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Trace one request in this many (0: sampling off; 1: every
    /// request).
    pub sample_one_in: u32,
    /// When set, completed traces slower than this wall time (µs) are
    /// promoted to the keep-buffer. Arms tracing for every request.
    pub slow_threshold_us: Option<u64>,
    /// Capacity of each per-shard span ring, in spans.
    pub ring_capacity: usize,
    /// Capacity of the slow-trace keep-buffer, in traces.
    pub keep_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            sample_one_in: 0,
            slow_threshold_us: None,
            ring_capacity: 2048,
            keep_capacity: 64,
        }
    }
}

impl TraceConfig {
    /// Whether any capture mode is armed.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.sample_one_in > 0 || self.slow_threshold_us.is_some()
    }
}

/// The span carrier of one traced request. Boxed once at admission of a
/// traced request; spans go into the inline [`SpanBuf`] (no per-span
/// allocation). Carries its own clock base so recording never needs the
/// server state.
#[derive(Debug)]
pub struct TraceCtx {
    /// Wire-visible trace id (client-supplied or server-assigned).
    pub trace_id: u64,
    /// Root-span start, ns since the tracer's clock base.
    pub start_ns: u64,
    base: Instant,
    spans: SpanBuf,
    sampled: bool,
}

impl TraceCtx {
    /// Nanoseconds since the clock base for an instant captured by the
    /// caller (zero for instants before the base).
    #[must_use]
    pub fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(
            t.checked_duration_since(self.base)
                .unwrap_or_default()
                .as_nanos(),
        )
        .unwrap_or(u64::MAX)
    }

    /// Nanoseconds since the clock base, now.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// The clock base (for bridging observers that timestamp themselves).
    #[must_use]
    pub fn clock_base(&self) -> Instant {
        self.base
    }

    /// Records one completed span.
    pub fn record(&mut self, stage: Stage, start_ns: u64, end_ns: u64) {
        self.spans.push(SpanEvent {
            trace_id: self.trace_id,
            stage,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Spans recorded so far (push order).
    #[must_use]
    pub fn spans(&self) -> &[SpanEvent] {
        self.spans.spans()
    }
}

/// A completed trace promoted to the keep-buffer (it out-waited the slow
/// threshold).
#[derive(Clone, Debug)]
pub struct KeptTrace {
    /// The request's trace id.
    pub trace_id: u64,
    /// Whole-request wall time, ns.
    pub wall_ns: u64,
    /// Every span the request recorded.
    pub spans: Vec<SpanEvent>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Server-wide tracing state.
#[derive(Debug)]
pub struct Tracing {
    config: TraceConfig,
    base: Instant,
    next_id: AtomicU64,
    coin: AtomicU64,
    /// Per-shard flight recorders (sharded by trace id; each lock is
    /// touched only for the traced subset of requests, and only briefly).
    rings: Vec<Mutex<SpanRing>>,
    keep: Mutex<Vec<KeptTrace>>,
    traced: AtomicU64,
    promoted: AtomicU64,
    dropped_spans: AtomicU64,
}

impl Tracing {
    /// Tracing state with `shards` span rings.
    #[must_use]
    pub fn new(config: TraceConfig, shards: usize) -> Self {
        let rings = (0..shards.max(1))
            .map(|_| Mutex::new(SpanRing::new(config.ring_capacity.max(2))))
            .collect();
        Self {
            config,
            base: Instant::now(),
            next_id: AtomicU64::new(1),
            coin: AtomicU64::new(0),
            rings,
            keep: Mutex::new(Vec::new()),
            traced: AtomicU64::new(0),
            promoted: AtomicU64::new(0),
            dropped_spans: AtomicU64::new(0),
        }
    }

    /// Whether any capture mode is armed.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.config.enabled()
    }

    /// The monotonic clock base all span timestamps are relative to.
    #[must_use]
    pub fn clock_base(&self) -> Instant {
        self.base
    }

    /// Decides whether to trace a request whose root span started at
    /// `start`. Returns the span carrier when it should be traced:
    /// always for a client-supplied `trace_id`, by coin for sampling,
    /// and for every request when slow capture is armed (promotion is
    /// decided at [`Self::finish`]). `None` costs nothing downstream.
    #[must_use]
    pub fn begin(&self, client_id: Option<u64>, start: Instant) -> Option<Box<TraceCtx>> {
        if !self.enabled() {
            return None;
        }
        let sampled = client_id.is_some()
            || (self.config.sample_one_in > 0
                && splitmix64(self.coin.fetch_add(1, Ordering::Relaxed))
                    .is_multiple_of(u64::from(self.config.sample_one_in)));
        if !sampled && self.config.slow_threshold_us.is_none() {
            return None;
        }
        let trace_id = client_id.unwrap_or_else(|| self.next_id.fetch_add(1, Ordering::Relaxed));
        let start_ns = u64::try_from(
            start
                .checked_duration_since(self.base)
                .unwrap_or_default()
                .as_nanos(),
        )
        .unwrap_or(u64::MAX);
        Some(Box::new(TraceCtx {
            trace_id,
            start_ns,
            base: self.base,
            spans: SpanBuf::new(),
            sampled,
        }))
    }

    /// Completes a trace: records the root `request` span, retains
    /// sampled traces in the span rings, and promotes the trace to the
    /// keep-buffer when it out-waited the slow threshold. The root closes
    /// at `now` or at the latest recorded child end, whichever is later,
    /// so it always encloses its children — a child timestamped by its
    /// own clock may legitimately end after the instant `finish` reads.
    ///
    /// # Panics
    /// Panics if a ring or keep-buffer lock is poisoned.
    pub fn finish(&self, mut ctx: Box<TraceCtx>) {
        let last_child_end = ctx.spans().iter().map(|s| s.end_ns).max().unwrap_or(0);
        let end_ns = ctx.now_ns().max(last_child_end);
        ctx.record(Stage::Request, ctx.start_ns, end_ns);
        let wall_ns = end_ns.saturating_sub(ctx.start_ns);
        self.traced.fetch_add(1, Ordering::Relaxed);
        self.dropped_spans
            .fetch_add(u64::from(ctx.spans.dropped()), Ordering::Relaxed);
        if self
            .config
            .slow_threshold_us
            .is_some_and(|t| wall_ns > t.saturating_mul(1000))
        {
            self.promoted.fetch_add(1, Ordering::Relaxed);
            let mut keep = self.keep.lock().expect("trace keep lock");
            if keep.len() >= self.config.keep_capacity.max(1) {
                keep.remove(0); // Bounded: oldest promoted trace goes.
            }
            keep.push(KeptTrace {
                trace_id: ctx.trace_id,
                wall_ns,
                spans: ctx.spans().to_vec(),
            });
        }
        if ctx.sampled {
            let shard = (ctx.trace_id as usize) % self.rings.len();
            let mut ring = self.rings[shard].lock().expect("trace ring lock");
            for &ev in ctx.spans() {
                ring.push(ev);
            }
        }
    }

    /// Promoted traces currently retained.
    ///
    /// # Panics
    /// Panics if the keep-buffer lock is poisoned.
    #[must_use]
    pub fn kept(&self) -> usize {
        self.keep.lock().expect("trace keep lock").len()
    }

    /// Exports retained traces (keep-buffer first, then the most recent
    /// ring traces, up to `limit` traces total) as a Chrome trace-event
    /// JSON object.
    ///
    /// # Panics
    /// Panics if a ring or keep-buffer lock is poisoned.
    #[must_use]
    pub fn chrome(&self, limit: Option<usize>) -> Json {
        let kept: Vec<KeptTrace> = self.keep.lock().expect("trace keep lock").clone();
        let kept_ids: std::collections::HashSet<u64> = kept.iter().map(|t| t.trace_id).collect();
        // Group ring spans by trace id; ring overwrite can leave partial
        // traces, which still render (and validate) fine.
        let mut by_id: Vec<(u64, Vec<SpanEvent>)> = Vec::new();
        let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for ring in &self.rings {
            for ev in ring.lock().expect("trace ring lock").ordered() {
                if kept_ids.contains(&ev.trace_id) {
                    continue;
                }
                let i = *index.entry(ev.trace_id).or_insert_with(|| {
                    by_id.push((ev.trace_id, Vec::new()));
                    by_id.len() - 1
                });
                by_id[i].1.push(ev);
            }
        }
        let start_of = |spans: &[SpanEvent]| spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        by_id.sort_by_key(|(_, spans)| start_of(spans));
        let mut traces: Vec<Vec<SpanEvent>> = kept.into_iter().map(|t| t.spans).collect();
        traces.sort_by_key(|spans| start_of(spans));
        if let Some(limit) = limit {
            // Keep-buffer traces (the slow tail) win; ring traces fill
            // the remainder with the most recent first to go.
            let room = limit.saturating_sub(traces.len());
            let drop = by_id.len().saturating_sub(room);
            by_id.drain(..drop);
            traces.truncate(limit);
        }
        traces.extend(by_id.into_iter().map(|(_, spans)| spans));
        chrome_trace(&traces)
    }

    /// Counters and occupancy for `server_stats`.
    ///
    /// # Panics
    /// Panics if a ring or keep-buffer lock is poisoned.
    #[must_use]
    pub fn stats_json(&self) -> Json {
        let ring_spans: usize = self
            .rings
            .iter()
            .map(|r| r.lock().expect("trace ring lock").len())
            .sum();
        Json::obj(vec![
            ("enabled", Json::Bool(self.enabled())),
            (
                "sample_one_in",
                Json::UInt(u64::from(self.config.sample_one_in)),
            ),
            (
                "slow_threshold_us",
                self.config.slow_threshold_us.map_or(Json::Null, Json::UInt),
            ),
            ("traced", Json::UInt(self.traced.load(Ordering::Relaxed))),
            (
                "promoted",
                Json::UInt(self.promoted.load(Ordering::Relaxed)),
            ),
            ("kept", Json::UInt(self.kept() as u64)),
            ("ring_spans", Json::UInt(ring_spans as u64)),
            (
                "dropped_spans",
                Json::UInt(self.dropped_spans.load(Ordering::Relaxed)),
            ),
        ])
    }
}

/// Bridges the engines' [`RunObserver`] hooks into a `sim` sub-span of
/// `engine_run`: wall-clock of the stepping loop (first step hook to the
/// finish hook), with no engine changes.
#[derive(Debug)]
pub struct TraceRunObserver {
    base: Instant,
    first_ns: Option<u64>,
    last_ns: u64,
}

impl TraceRunObserver {
    /// An observer timestamping against `base` (the tracer clock base).
    #[must_use]
    pub fn new(base: Instant) -> Self {
        Self {
            base,
            first_ns: None,
            last_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The `sim` span observed, if any step ran.
    #[must_use]
    pub fn sim_span(&self, trace_id: u64) -> Option<SpanEvent> {
        self.first_ns.map(|first| SpanEvent {
            trace_id,
            stage: Stage::Sim,
            start_ns: first,
            end_ns: self.last_ns.max(first),
        })
    }
}

impl RunObserver for TraceRunObserver {
    const ENABLED: bool = true;

    fn on_step(&mut self, _t: u64, _step: StepRecord) {
        let now = self.now_ns();
        if self.first_ns.is_none() {
            self.first_ns = Some(now);
        }
        self.last_ns = now;
    }

    fn on_finish(&mut self, _steps: u64, _spikes: u64, _deliveries: u64, _updates: u64) {
        self.last_ns = self.now_ns();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_observe::validate_chrome;

    fn cfg(sample: u32, slow: Option<u64>) -> TraceConfig {
        TraceConfig {
            sample_one_in: sample,
            slow_threshold_us: slow,
            ring_capacity: 64,
            keep_capacity: 4,
        }
    }

    #[test]
    fn disabled_tracing_begins_nothing() {
        let t = Tracing::new(TraceConfig::default(), 2);
        assert!(!t.enabled());
        assert!(t.begin(None, Instant::now()).is_none());
        // Even a client-supplied id records nothing when tracing is off
        // (the id is still echoed at the protocol layer).
        assert!(t.begin(Some(42), Instant::now()).is_none());
    }

    #[test]
    fn sample_every_request_traces_every_request() {
        let t = Tracing::new(cfg(1, None), 2);
        for _ in 0..10 {
            let ctx = t.begin(None, Instant::now()).expect("sampled");
            t.finish(ctx);
        }
        let j = t.stats_json();
        assert_eq!(j.get("traced").and_then(Json::as_u64), Some(10));
        assert!(j.get("ring_spans").and_then(Json::as_u64).unwrap() >= 10);
    }

    #[test]
    fn client_supplied_id_forces_tracing_and_is_kept() {
        let t = Tracing::new(cfg(1_000_000, None), 1);
        // The coin at one-in-a-million will essentially never hit in 5
        // tries; the client id must force tracing anyway.
        let ctx = t.begin(Some(777), Instant::now()).expect("forced");
        assert_eq!(ctx.trace_id, 777);
        t.finish(ctx);
        let j = t.chrome(None);
        let summary = validate_chrome(&j).unwrap();
        assert!(summary.stages_by_trace.contains_key(&777));
    }

    #[test]
    fn slow_threshold_zero_promotes_everything_huge_promotes_nothing() {
        let slow = Tracing::new(cfg(0, Some(0)), 1);
        let ctx = slow.begin(None, Instant::now()).expect("armed");
        std::thread::sleep(std::time::Duration::from_millis(1));
        slow.finish(ctx);
        assert_eq!(slow.kept(), 1, "wall > 0µs threshold must promote");

        let fast = Tracing::new(cfg(0, Some(u64::MAX / 2000)), 1);
        let ctx = fast.begin(None, Instant::now()).expect("armed");
        fast.finish(ctx);
        assert_eq!(fast.kept(), 0, "astronomical threshold promotes nothing");
        // Unsampled, unpromoted traces are measured but not retained.
        let j = fast.stats_json();
        assert_eq!(j.get("traced").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("ring_spans").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn keep_buffer_is_bounded_oldest_out() {
        let t = Tracing::new(cfg(0, Some(0)), 1);
        for _ in 0..10 {
            let ctx = t.begin(None, Instant::now()).expect("armed");
            t.finish(ctx);
        }
        assert_eq!(t.kept(), 4, "keep_capacity bounds promoted traces");
        let ids: Vec<u64> = t.keep.lock().unwrap().iter().map(|k| k.trace_id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10], "oldest promoted traces evicted");
    }

    #[test]
    fn spans_recorded_through_ctx_reach_the_dump_nested() {
        // Children ending 900 ns and 10 ms after `begin`. `finish` runs
        // mid-way through the second trace's children, so the root span
        // must stretch to cover them rather than close at `now`.
        for run_end in [900, 10_000_000] {
            let t = Tracing::new(cfg(1, None), 2);
            let start = Instant::now();
            let mut ctx = t.begin(Some(5), start).unwrap();
            let s0 = ctx.start_ns;
            ctx.record(Stage::Parse, s0, s0 + 100);
            ctx.record(Stage::Admit, s0 + 100, s0 + 150);
            ctx.record(Stage::QueueWait, s0 + 150, s0 + 400);
            ctx.record(Stage::EngineRun, s0 + 400, s0 + run_end);
            ctx.record(Stage::Sim, s0 + 450, s0 + run_end);
            t.finish(ctx);
            let j = t.chrome(Some(8));
            let summary = validate_chrome(&j).unwrap();
            assert!(
                summary.any_trace_with_stages(&[
                    "request",
                    "parse",
                    "admit",
                    "queue_wait",
                    "engine_run",
                    "sim",
                ]),
                "children ending {run_end} ns after begin"
            );
        }
    }

    #[test]
    fn dump_limit_bounds_trace_count_and_keeps_the_slow_tail() {
        let t = Tracing::new(cfg(1, Some(0)), 1);
        for _ in 0..12 {
            let ctx = t.begin(None, Instant::now()).unwrap();
            t.finish(ctx);
        }
        let j = t.chrome(Some(3));
        let summary = validate_chrome(&j).unwrap();
        assert!(summary.stages_by_trace.len() <= 3 + 1, "limit respected");
        // Unlimited dump sees kept + ring traces, deduplicated.
        let all = validate_chrome(&t.chrome(None)).unwrap();
        assert!(all.stages_by_trace.len() >= summary.stages_by_trace.len());
    }

    #[test]
    fn run_observer_produces_a_sim_span() {
        let base = Instant::now();
        let mut obs = TraceRunObserver::new(base);
        assert!(obs.sim_span(1).is_none(), "no steps, no span");
        obs.on_step(0, StepRecord::default());
        obs.on_step(1, StepRecord::default());
        obs.on_finish(2, 0, 0, 0);
        let span = obs.sim_span(9).unwrap();
        assert_eq!(span.stage, Stage::Sim);
        assert_eq!(span.trace_id, 9);
        assert!(span.end_ns >= span.start_ns);
    }
}
