//! The server core, its request intake, and its in-process client API.
//!
//! [`Session`] owns the whole service as N **shards** (default: one per
//! core), each a single-threaded event loop ([`crate::shard`]) owning
//! its own graph-registry partition, compiled-network and memoized-result
//! caches (resident on the partition's handles), bounded admission
//! queue, and non-blocking connection set. Graphs route to shards by
//! [`crate::cache::name_hash`] of the registry name, so everything
//! cached for a graph lives on exactly one shard and the hot query path
//! takes no cross-shard locks. The TCP layer ([`crate::tcp`]) is a thin
//! reactor-driven accept loop that hands sockets to shards round-robin;
//! tests and the stress harness's in-process mode talk to [`Session`]
//! directly.
//!
//! Both transports share one intake: `parse_line` (JSON → envelope,
//! or a typed `bad_request` line), `submit` (route, admit or reject,
//! or run a control op), and `render` (response → line). A shard's
//! connection handler is framing plus those three calls;
//! [`Session::call_line`] is the same three calls plus a wait on the
//! response slot, so the admission/caching/drain machinery is exercised
//! identically with or without sockets.
//!
//! Request routing:
//!
//! * **Query ops** (`sssp`, `khop`, `apsp_row`) go through the owning
//!   shard's bounded admission queue and execute on that shard's thread.
//!   Each shard owns a [`RunScratch`] (the `BatchRunner` recycling
//!   pattern), so steady-state queries allocate nothing in the
//!   simulator. Repeat queries short-circuit in the per-graph **result
//!   memo**: answers are pure functions of `(graph, algo, params)`, so a
//!   memo hit skips compile, simulation, readout, *and* (for TCP
//!   clients) JSON rendering — the pre-rendered bytes are spliced
//!   verbatim via [`Json::Raw`].
//! * **Control ops** (`load_graph`, `graph_stats`, `server_stats`,
//!   `trace_dump`, `shutdown`) execute inline on the calling thread.
//!   `server_stats` and `shutdown` **must** bypass the queues: they are
//!   exactly the requests that have to keep working while the queues
//!   are full or draining — an operator's view into an overloaded
//!   server, and the way out of it.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sgl_graph::io::parse_dimacs;
use sgl_graph::stats::GraphStats;
use sgl_observe::trace::Stage;
use sgl_observe::{parse_json, Json};
use sgl_snn::engine::RunScratch;

use crate::admission::{AdmissionError, AdmissionQueue, Job, Lifecycle, ReplyTo, ResponseSlot};
use crate::cache::{name_hash, Algo, CacheOutcome, GraphRegistry, NetCache, ResultKey};
use crate::protocol::{
    distances_json, parse_request, render_distances, CacheMode, Envelope, ErrorKind, OpKind,
    Request, Response,
};
use crate::reactor::{Poller, Waker};
use crate::shard::{ShardIo, HANDOFF_CAPACITY};
use crate::stats::{latency_json, Counters, ShardGauges, ShardedStats};
use crate::trace::{TraceConfig, TraceCtx, TraceRunObserver, Tracing};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Independent event-loop shards. `0` (the default) resolves to one
    /// shard per core (`available_parallelism`). [`Session::open`]
    /// stores the resolved count back, so [`Session::config`] always
    /// reports the real value.
    pub shards: usize,
    /// Per-shard admission-queue capacity (jobs waiting beyond this on
    /// one shard are shed).
    pub queue_capacity: usize,
    /// Deadline applied to requests that don't carry their own
    /// `deadline_ms` (`None`: no default deadline).
    pub default_deadline_ms: Option<u64>,
    /// Maximum concurrent TCP connections. Connections beyond this get a
    /// typed `overloaded` response and are closed — the admission queues
    /// bound *queued jobs*, this bounds *file descriptors held by idle
    /// or slow clients* (in-process [`Session`] callers are not counted;
    /// they bring their own threads).
    pub max_connections: usize,
    /// Request tracing (sampling / slow-capture). Disabled by default;
    /// when disabled the request path never touches the tracer.
    pub trace: TraceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            shards: 0,
            queue_capacity: 64,
            default_deadline_ms: None,
            max_connections: 10_240,
            trace: TraceConfig::default(),
        }
    }
}

/// Shared server state (everything the shard and intake threads touch).
pub(crate) struct ServerInner {
    /// Shard `i` owns `partitions[i]`: the graphs whose names hash there,
    /// with their compiled networks and memoized results.
    pub(crate) partitions: Vec<GraphRegistry>,
    /// Hit/miss counters (entries themselves live on the handles).
    pub(crate) cache: NetCache,
    /// Shard `i` executes jobs from `queues[i]`; any thread may push.
    pub(crate) queues: Vec<AdmissionQueue>,
    /// Each shard's cross-thread surface: waker, reply inbox, conn handoff.
    pub(crate) shard_io: Vec<ShardIo>,
    /// Per-shard instantaneous gauges for the balance table.
    pub(crate) gauges: Vec<ShardGauges>,
    pub(crate) stats: ShardedStats,
    pub(crate) counters: Counters,
    pub(crate) config: ServerConfig,
    pub(crate) tracing: Tracing,
    /// Wakers of accept loops parked in their own pollers, so shutdown
    /// reaches them too.
    pub(crate) acceptor_wakers: Mutex<Vec<Waker>>,
    started: Instant,
}

impl ServerInner {
    pub(crate) fn nshards(&self) -> usize {
        self.queues.len()
    }

    /// The shard that owns graph `name` — the single routing invariant:
    /// a pure function of the name, so every thread agrees without
    /// coordination.
    pub(crate) fn route(&self, name: &str) -> usize {
        (name_hash(name) % self.nshards() as u64) as usize
    }

    /// The registry partition that owns graph `name`.
    pub(crate) fn partition(&self, name: &str) -> &GraphRegistry {
        &self.partitions[self.route(name)]
    }

    /// Interrupts every parked poll wait (shards and accept loops) so
    /// each re-checks lifecycle. Used by drain: the state change alone
    /// would not be observed by a thread blocked in `poll`.
    pub(crate) fn wake_everyone(&self) {
        for io in &self.shard_io {
            io.waker.wake();
        }
        for w in self.acceptor_wakers.lock().expect("acceptor wakers").iter() {
            w.wake();
        }
    }
}

/// A running server plus its in-process client handle.
pub struct Session {
    inner: Arc<ServerInner>,
    shards: Mutex<Vec<JoinHandle<()>>>,
}

pub(crate) fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl Session {
    /// Starts a server: spawns the shard event loops, ready for
    /// [`Self::call`].
    ///
    /// # Panics
    /// Panics if poller creation or thread spawning fails.
    #[must_use]
    pub fn open(config: ServerConfig) -> Self {
        let nshards = if config.shards == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            config.shards
        };
        let mut resolved = config.clone();
        resolved.shards = nshards;
        let mut pollers = Vec::with_capacity(nshards);
        let mut shard_io = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            let (poller, waker) = Poller::new().expect("create shard poller");
            pollers.push(poller);
            shard_io.push(ShardIo {
                waker,
                inbox: Mutex::new(VecDeque::new()),
                handoff: Mutex::new(VecDeque::new()),
            });
        }
        let inner = Arc::new(ServerInner {
            partitions: (0..nshards).map(|_| GraphRegistry::default()).collect(),
            cache: NetCache::new(),
            queues: (0..nshards)
                .map(|_| AdmissionQueue::new(config.queue_capacity))
                .collect(),
            shard_io,
            gauges: (0..nshards).map(|_| ShardGauges::default()).collect(),
            stats: ShardedStats::new(nshards),
            counters: Counters::default(),
            tracing: Tracing::new(config.trace.clone(), nshards),
            config: resolved,
            acceptor_wakers: Mutex::new(Vec::new()),
            started: Instant::now(),
        });
        let shards = pollers
            .into_iter()
            .enumerate()
            .map(|(i, poller)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sgl-serve-shard-{i}"))
                    .spawn(move || crate::shard::shard_loop(&inner, i, poller))
                    .expect("spawn shard")
            })
            .collect();
        Self {
            inner,
            shards: Mutex::new(shards),
        }
    }

    /// A server with default tuning.
    #[must_use]
    pub fn open_default() -> Self {
        Self::open(ServerConfig::default())
    }

    /// Executes one request to completion (queueing query ops on the
    /// owning shard, inline for control ops) and returns its response.
    /// Never panics on bad input; every failure is a typed error
    /// response.
    #[must_use]
    pub fn call(&self, envelope: Envelope) -> Response {
        self.submit_and_wait(envelope, None).0
    }

    /// [`Self::call`] with a bare request (no id, no deadline).
    #[must_use]
    pub fn call_request(&self, request: Request) -> Response {
        self.call(Envelope::of(request))
    }

    /// Full wire round trip: parses one JSON request line, executes it,
    /// and renders the response line (without trailing newline). Shard
    /// connection handlers run the same `parse_line` → `submit` →
    /// `render` intake plus framing, so any JSONL transport built on
    /// [`Session`] gets byte-identical lines.
    #[must_use]
    pub fn call_line(&self, line: &str) -> String {
        let (envelope, trace) = match parse_line(&self.inner, line, Instant::now()) {
            Ok(parsed) => parsed,
            Err(bad_request) => return bad_request,
        };
        let (id, client_trace) = (envelope.id, envelope.trace_id);
        let (response, mut trace) = self.submit_and_wait(envelope, trace);
        let out = render(id, client_trace, &response, &mut trace);
        // No transport underneath: the trace (if any) ends here.
        if let Some(ctx) = trace {
            self.inner.tracing.finish(ctx);
        }
        out
    }

    /// `submit` from outside any shard, blocking on the response slot
    /// when a shard answers.
    fn submit_and_wait(
        &self,
        envelope: Envelope,
        trace: Option<Box<TraceCtx>>,
    ) -> (Response, Option<Box<TraceCtx>>) {
        let slot = Arc::new(ResponseSlot::new());
        let reply = ReplyTo::Slot(Arc::clone(&slot));
        submit(&self.inner, None, envelope, trace, reply).unwrap_or_else(|| slot.wait())
    }

    /// The tracer (diagnostic/test hook; the `trace_dump` op and
    /// `--trace-out` read through this).
    #[must_use]
    pub fn tracing(&self) -> &Tracing {
        &self.inner.tracing
    }

    /// Current lifecycle state (queues transition together; shard 0
    /// speaks for all).
    #[must_use]
    pub fn lifecycle(&self) -> Lifecycle {
        self.inner.queues[0].lifecycle()
    }

    /// Drains and stops the server: rejects new work, lets shards finish
    /// the backlog (including answers owed to open connections), joins
    /// them. Idempotent; safe to call concurrently with in-flight
    /// requests (they complete or get typed rejections) and with other
    /// `shutdown` calls: the shard-list lock is held across the join and
    /// the `Stopped` transition, so a concurrent caller blocks until the
    /// shards are actually joined, and `Stopped` is only ever reported
    /// after the backlog has finished. Exactly one caller — the one that
    /// drained a non-empty handle list — runs the join and the `Stopped`
    /// transition.
    ///
    /// # Panics
    /// Panics if a shard thread panicked (it never should — all request
    /// failures are typed responses).
    pub fn shutdown(&self) {
        for q in &self.inner.queues {
            q.drain();
        }
        self.inner.wake_everyone();
        let mut shards = self.shards.lock().expect("shard list");
        if shards.is_empty() {
            return; // Another caller joined (or is past joining) them.
        }
        for h in shards.drain(..) {
            h.join().expect("shard panicked");
        }
        for q in &self.inner.queues {
            q.mark_stopped();
        }
    }

    /// Total queue depth across shards right now (test/diagnostic hook).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.inner.queues.iter().map(AdmissionQueue::depth).sum()
    }

    /// The server's configuration with `shards` resolved (the TCP layer
    /// reads its connection cap from here).
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.inner.config
    }

    /// Shared counters/gauges (the TCP layer maintains the global
    /// connection gauge through this).
    pub(crate) fn counters(&self) -> &Counters {
        &self.inner.counters
    }

    /// Registers an accept loop's waker so [`ServerInner::wake_everyone`]
    /// (drain, shutdown) can interrupt its poll wait.
    pub(crate) fn register_acceptor_waker(&self, waker: Waker) {
        self.inner
            .acceptor_wakers
            .lock()
            .expect("acceptor wakers")
            .push(waker);
    }

    /// Hands an accepted connection to a shard, round-robin from
    /// `*next_shard`. A shard with a full handoff queue is skipped; if
    /// every queue is full the accept loop briefly yields and retries
    /// (the shards are busy adopting — backpressure, not failure).
    /// Dropped without a response if the server stops running first.
    pub(crate) fn hand_off(&self, stream: TcpStream, next_shard: &mut usize) {
        loop {
            if self.lifecycle() != Lifecycle::Running {
                Counters::gauge_dec(&self.inner.counters.connections);
                return;
            }
            let n = self.inner.nshards();
            for _ in 0..n {
                let target = *next_shard;
                *next_shard = (*next_shard + 1) % n;
                let io = &self.inner.shard_io[target];
                let mut handoff = io.handoff.lock().expect("shard handoff");
                if handoff.len() < HANDOFF_CAPACITY {
                    handoff.push_back(stream);
                    drop(handoff);
                    io.waker.wake();
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Request intake, step 1: one request line → [`Envelope`], starting the
/// request's trace (if sampled) with its `accept` and `parse` spans;
/// `received` is when the line came off the wire (the root span's
/// start). A line that is not a request yields its rendered
/// `bad_request` line instead, echoing the `id` when one was sent.
pub(crate) fn parse_line(
    inner: &ServerInner,
    text: &str,
    received: Instant,
) -> Result<(Envelope, Option<Box<TraceCtx>>), String> {
    let parse_start = Instant::now();
    let bad_request = |id: Option<u64>, msg: String| {
        Response::error(ErrorKind::BadRequest, msg)
            .to_json(id)
            .to_string()
    };
    let parsed = parse_json(text).map_err(|e| bad_request(None, format!("invalid JSON: {e}")))?;
    let envelope = parse_request(&parsed)
        .map_err(|msg| bad_request(parsed.get("id").and_then(Json::as_u64), msg))?;
    let mut trace = inner.tracing.begin(envelope.trace_id, received);
    if let Some(ctx) = trace.as_deref_mut() {
        let t1 = ctx.ns_at(parse_start);
        ctx.record(Stage::Accept, ctx.start_ns, t1);
        ctx.record(Stage::Parse, t1, ctx.now_ns());
    }
    Ok((envelope, trace))
}

/// Request intake, step 2, for every transport. Query ops route to the
/// graph's owner shard and are admitted onto its queue with `reply` as
/// the answer's destination: `None` comes back, and that shard answers
/// through `reply`. Everything else is answered here and returned with
/// its trace: queue-full and draining rejections, and control ops,
/// which execute inline (`server_stats` and `shutdown` must keep working
/// while queues are full or draining) with their stats recorded on
/// `from_shard` — the overflow stats shard for in-process callers.
///
/// `from_shard` is the calling shard, if any; a shard pushing onto its
/// own queue does not wake itself (it executes its queue before it next
/// polls).
pub(crate) fn submit(
    inner: &ServerInner,
    from_shard: Option<usize>,
    envelope: Envelope,
    mut trace: Option<Box<TraceCtx>>,
    reply: ReplyTo,
) -> Option<(Response, Option<Box<TraceCtx>>)> {
    let kind = envelope.request.kind();
    if !matches!(kind, OpKind::Sssp | OpKind::Khop | OpKind::ApspRow) {
        let t0 = Instant::now();
        let response = execute_control(inner, &envelope.request);
        let shard = from_shard.unwrap_or_else(|| inner.stats.overflow_shard());
        inner.stats.with_shard(shard, |s| {
            s.record(kind, micros(t0.elapsed()), response.is_ok());
        });
        return Some((response, trace));
    }
    let target = inner.route(envelope.request.graph_name().unwrap_or(""));
    let admit_start = Instant::now();
    let deadline = envelope
        .deadline_ms
        .or(inner.config.default_deadline_ms)
        .map(Duration::from_millis);
    let enqueued = Instant::now();
    if let Some(ctx) = trace.as_deref_mut() {
        // The admit span ends exactly where queue_wait begins (the
        // shard measures its wait from the same `enqueued` instant), so
        // the two spans tile without overlap.
        ctx.record(Stage::Admit, ctx.ns_at(admit_start), ctx.ns_at(enqueued));
    }
    let job = Job {
        envelope,
        enqueued,
        deadline,
        reply,
        trace,
    };
    let (response, job) = match inner.queues[target].try_push(job) {
        Ok(()) => {
            Counters::bump(&inner.counters.admitted);
            if from_shard != Some(target) {
                inner.shard_io[target].waker.wake();
            }
            return None;
        }
        Err(AdmissionError::Full(job)) => {
            Counters::bump(&inner.counters.shed);
            let msg = format!(
                "admission queue full ({} waiting); retry later",
                inner.queues[target].capacity()
            );
            (Response::error(ErrorKind::Overloaded, msg), job)
        }
        Err(AdmissionError::Draining(job)) => {
            Counters::bump(&inner.counters.rejected_draining);
            (
                Response::error(ErrorKind::Draining, "server is draining"),
                job,
            )
        }
    };
    Some((response, job.trace))
}

/// Request intake, step 3: renders a response line (no trailing
/// newline) and records its `serialize` span. A client-supplied trace id
/// is echoed even when tracing is off server-side; otherwise only traced
/// requests carry one, so untraced lines stay byte-identical.
pub(crate) fn render(
    id: Option<u64>,
    client_trace: Option<u64>,
    response: &Response,
    trace: &mut Option<Box<TraceCtx>>,
) -> String {
    let ser_start = trace.as_deref().map(|c| c.now_ns());
    let echo = client_trace.or(trace.as_deref().map(|c| c.trace_id));
    let out = response.to_json_traced(id, echo).to_string();
    if let (Some(ctx), Some(s)) = (trace.as_deref_mut(), ser_start) {
        ctx.record(Stage::Serialize, s, ctx.now_ns());
    }
    out
}

/// Looks a graph up in its owning partition or produces the typed miss.
fn lookup(inner: &ServerInner, name: &str) -> Result<Arc<crate::cache::GraphHandle>, Response> {
    inner.partition(name).get(name).ok_or_else(|| {
        Response::error(
            ErrorKind::UnknownGraph,
            format!("no graph named {name:?} is loaded"),
        )
    })
}

fn check_node(n: usize, node: usize, what: &str) -> Result<(), Response> {
    if node < n {
        Ok(())
    } else {
        Err(Response::error(
            ErrorKind::BadRequest,
            format!("{what} {node} out of range for a graph with {n} nodes"),
        ))
    }
}

/// Executes a query op on its owning shard's thread. All panicking
/// preconditions of the compiled constructions are validated here first,
/// so shards never die: every failure becomes a typed response.
///
/// `prefer_raw`: a memoized answer comes back as [`Json::Raw`] — the
/// memo's one rendered copy — and a computed distance row as a `Raw`
/// fragment rendered once, instead of structured values. Only valid when
/// the caller serializes the response without inspecting `data` (the TCP
/// path). In-process callers get structured values: a hit re-parsed from
/// the memo's bytes, a miss's row built as a tree.
pub(crate) fn execute_query(
    inner: &ServerInner,
    request: &Request,
    scratch: &mut RunScratch,
    shard: usize,
    trace: &mut Option<Box<TraceCtx>>,
    prefer_raw: bool,
) -> Response {
    let result = match request {
        Request::Sssp {
            graph,
            source,
            target,
            cache,
        } => run_distance_query(
            inner,
            OpKind::Sssp,
            graph,
            *source,
            *target,
            None,
            *cache,
            scratch,
            shard,
            trace,
            prefer_raw,
        ),
        Request::ApspRow {
            graph,
            source,
            cache,
        } => run_distance_query(
            inner,
            OpKind::ApspRow,
            graph,
            *source,
            None,
            None,
            *cache,
            scratch,
            shard,
            trace,
            prefer_raw,
        ),
        Request::Khop {
            graph,
            source,
            k,
            cache,
        } => run_distance_query(
            inner,
            OpKind::Khop,
            graph,
            *source,
            None,
            Some(*k),
            *cache,
            scratch,
            shard,
            trace,
            prefer_raw,
        ),
        other => Err(Response::error(
            ErrorKind::Internal,
            format!("{} is not a query op", other.kind().name()),
        )),
    };
    match result {
        Ok(resp) | Err(resp) => resp,
    }
}

/// Shared body of the three distance queries. `k = None` is the §3 SSSP
/// construction (also serving `apsp_row`); `k = Some(_)` the layered one.
#[allow(clippy::too_many_arguments)] // the three call sites are the enum arms above
fn run_distance_query(
    inner: &ServerInner,
    op: OpKind,
    graph: &str,
    source: usize,
    target: Option<usize>,
    k: Option<u32>,
    cache: CacheMode,
    scratch: &mut RunScratch,
    shard: usize,
    trace: &mut Option<Box<TraceCtx>>,
    prefer_raw: bool,
) -> Result<Response, Response> {
    let handle = lookup(inner, graph)?;
    let g = &handle.graph;
    check_node(g.n(), source, "source")?;
    if let Some(t) = target {
        check_node(g.n(), t, "target")?;
    }
    let algo = match k {
        None => Algo::Sssp,
        Some(0) => {
            return Err(Response::error(
                ErrorKind::BadRequest,
                "k must be at least 1",
            ))
        }
        Some(k) => {
            let neurons = (u64::from(k) + 1).saturating_mul(g.n() as u64);
            if u32::try_from(neurons).is_err() {
                return Err(Response::error(
                    ErrorKind::BadRequest,
                    format!("(k + 1) · n = {neurons} exceeds the neuron-id space"),
                ));
            }
            Algo::Khop(k)
        }
    };
    // Answers are pure functions of (graph, algo, params): once computed
    // they memoize on the handle, and a repeat skips compile, simulation,
    // readout and (for raw-preferring callers) rendering. `Bypass` skips
    // the memo in both directions — it exists to measure the cold path.
    let memo_key = match cache {
        CacheMode::Bypass => None,
        CacheMode::Default => Some(match (op, k) {
            (OpKind::ApspRow, _) => ResultKey::ApspRow {
                source: source as u32,
            },
            (_, Some(k)) => ResultKey::Khop {
                source: source as u32,
                k,
            },
            _ => ResultKey::Sssp {
                source: source as u32,
                target: target.map(|t| t as u32),
            },
        }),
    };
    let lookup_start = Instant::now();
    if let Some(key) = memo_key {
        // Raw-preferring callers (the TCP path) splice the memo's bytes
        // — an Arc bump; in-process callers get them re-parsed.
        let hit_data = if prefer_raw {
            handle.cached_rendered(&key).map(Json::Raw)
        } else {
            handle.cached_result(&key).map(|hit| hit.data)
        };
        if let Some(data) = hit_data {
            inner.cache.note_hit();
            if let Some(ctx) = trace.as_deref_mut() {
                ctx.record(Stage::CacheLookup, ctx.ns_at(lookup_start), ctx.now_ns());
            }
            return Ok(Response::Ok { op, data });
        }
    }
    let (net, outcome) = match cache {
        CacheMode::Bypass => inner.cache.compile_bypass(g, algo),
        CacheMode::Default => inner.cache.get_or_compile(&handle, algo),
    };
    let after_cache = Instant::now();
    if outcome != CacheOutcome::Hit {
        // This shard paid for a compile: histogram its wall time so the
        // cold-path cost shows up in server_stats, not just in benches.
        let compile_us = micros(net.compile_time());
        inner
            .stats
            .with_shard(shard, |s| s.record_compile(compile_us));
    }
    if let Some(ctx) = trace.as_deref_mut() {
        let lk_s = ctx.ns_at(lookup_start);
        let end = ctx.ns_at(after_cache);
        if outcome == CacheOutcome::Hit {
            ctx.record(Stage::CacheLookup, lk_s, end);
        } else {
            // The compile happened inside the lookup window; reconstruct
            // its sub-spans from the profiler's phase split so the trace
            // shows lookup | compile(build | load) tiling that window.
            let (build, load) = net.phase_times();
            let build = u64::try_from(build.as_nanos()).unwrap_or(u64::MAX);
            let load = u64::try_from(load.as_nanos()).unwrap_or(u64::MAX);
            let compile_s = end.saturating_sub(build.saturating_add(load)).max(lk_s);
            ctx.record(Stage::CacheLookup, lk_s, compile_s);
            ctx.record(Stage::Compile, compile_s, end);
            let build_e = compile_s.saturating_add(build).min(end);
            ctx.record(Stage::CompileBuild, compile_s, build_e);
            ctx.record(Stage::CompileLoad, build_e, end);
        }
    }
    let run_start = Instant::now();
    let run = if let Some(ctx) = trace.as_deref_mut() {
        let mut obs = TraceRunObserver::new(ctx.clock_base());
        let run = net.run_observed(source, target, scratch, &mut obs);
        let end = ctx.now_ns();
        ctx.record(Stage::EngineRun, ctx.ns_at(run_start), end);
        if let Some(sim) = obs.sim_span(ctx.trace_id) {
            ctx.record(Stage::Sim, sim.start_ns, sim.end_ns.min(end));
        }
        run
    } else {
        net.run(source, target, scratch)
    }
    .map_err(|e| Response::error(ErrorKind::Internal, format!("simulation failed: {e}")))?;
    let readout_start = Instant::now();
    let distances = net.decode(&run);
    if let Some(ctx) = trace.as_deref_mut() {
        ctx.record(Stage::Readout, ctx.ns_at(readout_start), ctx.now_ns());
    }
    let mut fields = vec![("source", Json::UInt(source as u64))];
    if let Some(k) = k {
        fields.push(("k", Json::UInt(u64::from(k))));
    }
    if let Some(t) = target {
        // Targeted runs stop early; only the target's entry is
        // authoritative, so the full (partial) row is withheld.
        fields.push(("target", Json::UInt(t as u64)));
        fields.push(("distance", distances[t].map_or(Json::Null, Json::UInt)));
    } else {
        fields.push((
            "reachable",
            Json::UInt(distances.iter().flatten().count() as u64),
        ));
        // Raw-preferring callers get the row rendered once, as text that
        // the memo and the response line both splice. In-process callers
        // inspect fields, and a `Raw` fragment is opaque to `get`.
        let row = if prefer_raw {
            Json::Raw(render_distances(&distances).into())
        } else {
            distances_json(&distances)
        };
        fields.push(("distances", row));
    }
    if let Some(key) = memo_key {
        // The memoized copy reports `cache: "hit"` — that is what every
        // future reader of it will truthfully be — and is stored only as
        // its rendered bytes.
        let mut memo_fields = fields.clone();
        memo_fields.push(("cache", Json::Str("hit".into())));
        handle.store_rendered(key, Json::obj(memo_fields).to_string().into());
    }
    fields.push(("cache", Json::Str(outcome.as_str().into())));
    Ok(Response::Ok {
        op,
        data: Json::obj(fields),
    })
}

/// Executes a control op inline on the calling thread.
pub(crate) fn execute_control(inner: &ServerInner, request: &Request) -> Response {
    match request {
        Request::LoadGraph { name, dimacs } => load_graph(inner, name, dimacs),
        Request::GraphStats { graph } => match lookup(inner, graph) {
            Err(resp) => resp,
            Ok(handle) => {
                // Pure function of the immutable graph: computed once per
                // handle, memoized alongside its other derived artifacts.
                let data = handle.stats_or_compute(|| {
                    let s = GraphStats::compute(&handle.graph, 0);
                    Json::obj(vec![
                        ("name", Json::Str(handle.name.clone())),
                        ("fingerprint", Json::UInt(handle.fingerprint)),
                        ("n", Json::UInt(s.n as u64)),
                        ("m", Json::UInt(s.m as u64)),
                        ("u_max", Json::UInt(s.u_max)),
                        ("density", Json::Num(s.density)),
                        ("max_out_degree", Json::UInt(s.max_out_degree as u64)),
                        ("reachable_from_0", Json::UInt(s.reachable as u64)),
                        (
                            "eccentricity_from_0",
                            s.eccentricity.map_or(Json::Null, Json::UInt),
                        ),
                    ])
                });
                Response::Ok {
                    op: OpKind::GraphStats,
                    data,
                }
            }
        },
        Request::ServerStats => server_stats(inner),
        Request::TraceDump { limit } => Response::Ok {
            op: OpKind::TraceDump,
            data: inner.tracing.chrome(*limit),
        },
        Request::Shutdown => {
            for q in &inner.queues {
                q.drain();
            }
            inner.wake_everyone();
            Response::Ok {
                op: OpKind::Shutdown,
                data: Json::obj(vec![("draining", Json::Bool(true))]),
            }
        }
        other => Response::error(
            ErrorKind::Internal,
            format!("{} is not a control op", other.kind().name()),
        ),
    }
}

fn load_graph(inner: &ServerInner, name: &str, dimacs: &str) -> Response {
    let graph = match parse_dimacs(dimacs) {
        Ok(g) => g,
        Err(e) => return Response::error(ErrorKind::BadRequest, format!("DIMACS: {e}")),
    };
    if u32::try_from(graph.max_len()).is_err() {
        return Response::error(
            ErrorKind::BadRequest,
            "an edge length exceeds the u32 synapse-delay range",
        );
    }
    // Re-loading a structurally identical graph keeps the existing
    // handle — and the compiled networks and memoized results resident
    // on it — warm. The fingerprint is only a pre-filter; the full
    // structural check is what prevents an adversarial hash collision
    // from keeping the *wrong* graph's artifacts alive. Any other
    // replacement installs a fresh, cold handle; the old one (and its
    // networks) is freed once in-flight queries release it. The
    // partition is chosen by the same name hash that routes queries, so
    // the handle lands where its queries will execute.
    let registry = inner.partition(name);
    let handle = match registry.get(name) {
        Some(old)
            if old.fingerprint == crate::cache::fingerprint(&graph)
                && crate::cache::same_structure(&old.graph, &graph) =>
        {
            old
        }
        _ => registry.insert(name, graph),
    };
    Response::Ok {
        op: OpKind::LoadGraph,
        data: Json::obj(vec![
            ("name", Json::Str(handle.name.clone())),
            ("n", Json::UInt(handle.graph.n() as u64)),
            ("m", Json::UInt(handle.graph.m() as u64)),
            ("fingerprint", Json::UInt(handle.fingerprint)),
        ]),
    }
}

fn counter_json(c: &AtomicU64) -> Json {
    Json::UInt(Counters::read(c))
}

fn server_stats(inner: &ServerInner) -> Response {
    let combined = inner.stats.combined();
    let (hits, misses) = inner.cache.counters();
    let hit_ratio = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    let ops = Json::obj(
        OpKind::ALL
            .iter()
            .map(|&op| {
                let i = op.index();
                let mut j = latency_json(&combined.latency_us[i]);
                if let Json::Obj(pairs) = &mut j {
                    pairs.push(("ok".into(), Json::UInt(combined.ok[i])));
                    pairs.push(("errors".into(), Json::UInt(combined.errors[i])));
                }
                (op.name(), j)
            })
            .collect(),
    );
    let lifecycle = match inner.queues[0].lifecycle() {
        Lifecycle::Running => "running",
        Lifecycle::Draining => "draining",
        Lifecycle::Stopped => "stopped",
    };
    // The balance table: each shard's gauges plus its partition's cache
    // footprint, composed here into one snapshot (the only place
    // per-shard state is read across shards — a read-only stats path).
    let mut graphs_total = 0u64;
    let mut net_entries_total = 0u64;
    let mut net_bytes_total = 0u64;
    let mut result_entries_total = 0u64;
    let mut result_bytes_total = 0u64;
    let per_shard = Json::Arr(
        (0..inner.nshards())
            .map(|i| {
                let (nets, net_bytes, results, result_bytes) =
                    inner.partitions[i].resident_footprint();
                let graphs = inner.partitions[i].len() as u64;
                graphs_total += graphs;
                net_entries_total += nets as u64;
                net_bytes_total += net_bytes as u64;
                result_entries_total += results as u64;
                result_bytes_total += result_bytes;
                Json::obj(vec![
                    ("shard", Json::UInt(i as u64)),
                    ("connections", counter_json(&inner.gauges[i].connections)),
                    ("in_flight", counter_json(&inner.gauges[i].in_flight)),
                    ("queue_depth", Json::UInt(inner.queues[i].depth() as u64)),
                    ("graphs", Json::UInt(graphs)),
                    ("net_entries", Json::UInt(nets as u64)),
                    ("net_bytes", Json::UInt(net_bytes as u64)),
                    ("result_entries", Json::UInt(results as u64)),
                    ("result_bytes", Json::UInt(result_bytes)),
                ])
            })
            .collect(),
    );
    let depth: usize = inner.queues.iter().map(AdmissionQueue::depth).sum();
    let drained: u64 = inner.queues.iter().map(AdmissionQueue::drained).sum();
    Response::Ok {
        op: OpKind::ServerStats,
        data: Json::obj(vec![
            (
                "uptime_ms",
                Json::UInt(u64::try_from(inner.started.elapsed().as_millis()).unwrap_or(u64::MAX)),
            ),
            ("lifecycle", Json::Str(lifecycle.into())),
            ("shards", Json::UInt(inner.nshards() as u64)),
            (
                "queue",
                Json::obj(vec![
                    ("capacity", Json::UInt(inner.config.queue_capacity as u64)),
                    ("depth", Json::UInt(depth as u64)),
                    ("wait", latency_json(&combined.queue_wait_us)),
                    (
                        "depth_at_pop",
                        Json::obj(vec![
                            ("count", Json::UInt(combined.queue_depth.count())),
                            (
                                "p50",
                                combined
                                    .queue_depth
                                    .quantile(0.5)
                                    .map_or(Json::Null, Json::UInt),
                            ),
                            (
                                "max",
                                combined.queue_depth.max().map_or(Json::Null, Json::UInt),
                            ),
                        ]),
                    ),
                ]),
            ),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::UInt(hits)),
                    ("misses", Json::UInt(misses)),
                    ("entries", Json::UInt(net_entries_total)),
                    ("net_bytes", Json::UInt(net_bytes_total)),
                    ("result_entries", Json::UInt(result_entries_total)),
                    ("result_bytes", Json::UInt(result_bytes_total)),
                    ("hit_ratio", Json::Num(hit_ratio)),
                    // Per-compile wall time (misses + bypasses): the
                    // cold-path cost as production sees it.
                    ("compile", latency_json(&combined.compile_us)),
                ]),
            ),
            ("graphs", Json::UInt(graphs_total)),
            ("admitted", counter_json(&inner.counters.admitted)),
            ("shed", counter_json(&inner.counters.shed)),
            (
                "rejected_draining",
                counter_json(&inner.counters.rejected_draining),
            ),
            (
                "deadline_exceeded",
                counter_json(&inner.counters.deadline_exceeded),
            ),
            ("drained", Json::UInt(drained)),
            // Instantaneous gauges: shards mid-query and open TCP
            // connections, right now.
            ("in_flight", counter_json(&inner.counters.in_flight)),
            ("connections", counter_json(&inner.counters.connections)),
            ("per_shard", per_shard),
            ("tracing", inner.tracing.stats_json()),
            ("ops", ops),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_distances;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sgl_graph::io::to_dimacs;
    use sgl_graph::{dijkstra, generators};

    fn load(session: &Session, name: &str, seed: u64, n: usize, m: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnm_connected(&mut rng, n, m, 1..=9);
        let resp = session.call_request(Request::LoadGraph {
            name: name.into(),
            dimacs: to_dimacs(&g, "test graph"),
        });
        assert!(resp.is_ok(), "{resp:?}");
    }

    #[test]
    fn full_inline_round_trip() {
        let session = Session::open_default();
        load(&session, "g", 1, 24, 90);
        let resp = session.call_request(Request::Sssp {
            graph: "g".into(),
            source: 0,
            target: None,
            cache: CacheMode::Default,
        });
        let Response::Ok { data, .. } = &resp else {
            panic!("{resp:?}");
        };
        assert_eq!(data.get("cache").and_then(Json::as_str), Some("miss"));
        // Second call on the same compiled network: hit.
        let resp = session.call_request(Request::Sssp {
            graph: "g".into(),
            source: 3,
            target: None,
            cache: CacheMode::Default,
        });
        let Response::Ok { data, .. } = &resp else {
            panic!("{resp:?}");
        };
        assert_eq!(data.get("cache").and_then(Json::as_str), Some("hit"));
        session.shutdown();
        assert_eq!(session.lifecycle(), Lifecycle::Stopped);
    }

    #[test]
    fn repeat_query_is_memoized_and_byte_identical() {
        let session = Session::open_default();
        load(&session, "g", 3, 24, 90);
        let line = r#"{"op":"sssp","graph":"g","source":4,"id":1}"#;
        let cold = session.call_line(line);
        let warm = session.call_line(line);
        let cold_v = parse_json(&cold).unwrap();
        let warm_v = parse_json(&warm).unwrap();
        assert_eq!(
            cold_v
                .get("data")
                .and_then(|d| d.get("cache"))
                .and_then(Json::as_str),
            Some("miss")
        );
        assert_eq!(
            warm_v
                .get("data")
                .and_then(|d| d.get("cache"))
                .and_then(Json::as_str),
            Some("hit")
        );
        assert_eq!(
            cold_v.get("data").and_then(|d| d.get("distances")),
            warm_v.get("data").and_then(|d| d.get("distances")),
            "memoized distances replay the computed ones"
        );
        // A third call replays the same memo entry.
        assert_eq!(session.call_line(line), warm, "memo replays are stable");
        // Bypass skips the memo in both directions.
        let resp = session.call_request(Request::Sssp {
            graph: "g".into(),
            source: 4,
            target: None,
            cache: CacheMode::Bypass,
        });
        let Response::Ok { data, .. } = &resp else {
            panic!("{resp:?}");
        };
        assert_eq!(data.get("cache").and_then(Json::as_str), Some("bypass"));
    }

    /// The memo keeps one rendered copy per answer: an in-process hit is
    /// re-parsed into the miss's structured row, and the byte gauge is
    /// exactly the sum of the stored strings.
    #[test]
    fn memo_stores_one_rendered_copy_per_answer() {
        let session = Session::open_default();
        let mut rng = StdRng::seed_from_u64(12);
        let g = generators::gnm_connected(&mut rng, 30, 110, 1..=9);
        let resp = session.call_request(Request::LoadGraph {
            name: "g".into(),
            dimacs: to_dimacs(&g, ""),
        });
        assert!(resp.is_ok(), "{resp:?}");
        let row = |request: Request| {
            let resp = session.call_request(request);
            let Response::Ok { data, .. } = &resp else {
                panic!("{resp:?}");
            };
            parse_distances(data.get("distances").expect("structured row")).expect("decodable row")
        };
        let mut keys = Vec::new();
        for source in 0..4 {
            let sssp = || Request::Sssp {
                graph: "g".into(),
                source,
                target: None,
                cache: CacheMode::Default,
            };
            let miss = row(sssp());
            assert_eq!(miss, dijkstra(&g, source).distances);
            assert_eq!(row(sssp()), miss, "hit replays the miss's row");
            keys.push(ResultKey::Sssp {
                source: source as u32,
                target: None,
            });
        }
        let khop = || Request::Khop {
            graph: "g".into(),
            source: 5,
            k: 2,
            cache: CacheMode::Default,
        };
        assert_eq!(row(khop()), row(khop()));
        keys.push(ResultKey::Khop { source: 5, k: 2 });

        let handle = session.inner.partition("g").get("g").expect("loaded");
        let stored: u64 = keys
            .iter()
            .map(|k| handle.cached_rendered(k).expect("memoized").len() as u64)
            .sum();
        let gauge: u64 = session
            .inner
            .partitions
            .iter()
            .map(|p| p.resident_footprint().3)
            .sum();
        assert_eq!(handle.resident_results(), keys.len());
        assert_eq!(gauge, stored);
    }

    #[test]
    fn typed_errors_for_bad_inputs() {
        let session = Session::open_default();
        let err = |r: Response| r.error_kind().unwrap();
        assert_eq!(
            err(session.call_request(Request::Sssp {
                graph: "missing".into(),
                source: 0,
                target: None,
                cache: CacheMode::Default,
            })),
            ErrorKind::UnknownGraph
        );
        load(&session, "g", 2, 8, 20);
        assert_eq!(
            err(session.call_request(Request::Sssp {
                graph: "g".into(),
                source: 99,
                target: None,
                cache: CacheMode::Default,
            })),
            ErrorKind::BadRequest
        );
        assert_eq!(
            err(session.call_request(Request::Khop {
                graph: "g".into(),
                source: 0,
                k: 0,
                cache: CacheMode::Default,
            })),
            ErrorKind::BadRequest
        );
        assert_eq!(
            err(session.call_request(Request::LoadGraph {
                name: "bad".into(),
                dimacs: "p sp 2 1\na 1 9 5\n".into(),
            })),
            ErrorKind::BadRequest
        );
    }

    #[test]
    fn call_line_survives_garbage() {
        let session = Session::open_default();
        for line in ["", "not json", "{\"op\":12}", "{}", "[1,2,3]"] {
            let out = session.call_line(line);
            let v = parse_json(&out).expect("response is valid JSON");
            assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
        }
        // A malformed request that still carries an id echoes it.
        let out = session.call_line(r#"{"op":"warp","id":9}"#);
        let v = parse_json(&out).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(9));
    }

    #[test]
    fn targeted_query_reports_the_distance() {
        let session = Session::open_default();
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnm_connected(&mut rng, 20, 70, 1..=6);
        let resp = session.call_request(Request::LoadGraph {
            name: "g".into(),
            dimacs: to_dimacs(&g, ""),
        });
        assert!(resp.is_ok(), "{resp:?}");
        let want = dijkstra(&g, 2).distances[17];
        let resp = session.call_request(Request::Sssp {
            graph: "g".into(),
            source: 2,
            target: Some(17),
            cache: CacheMode::Default,
        });
        let Response::Ok { data, .. } = &resp else {
            panic!("{resp:?}");
        };
        assert_eq!(data.get("distance").and_then(Json::as_u64), want);
        assert!(data.get("distances").is_none(), "partial rows are withheld");
    }

    #[test]
    fn server_stats_reflect_activity() {
        let session = Session::open_default();
        load(&session, "g", 7, 16, 50);
        for source in 0..4 {
            let resp = session.call_request(Request::Sssp {
                graph: "g".into(),
                source,
                target: None,
                cache: CacheMode::Default,
            });
            assert!(resp.is_ok(), "{resp:?}");
        }
        let resp = session.call_request(Request::ServerStats);
        let Response::Ok { data, .. } = &resp else {
            panic!("{resp:?}");
        };
        let cache = data.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(3));
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
        let sssp = data.get("ops").and_then(|o| o.get("sssp")).unwrap();
        assert_eq!(sssp.get("ok").and_then(Json::as_u64), Some(4));
        assert!(sssp.get("p50_us").and_then(Json::as_u64).is_some());
        assert_eq!(data.get("admitted").and_then(Json::as_u64), Some(4));
        assert_eq!(data.get("shed").and_then(Json::as_u64), Some(0));
        // The per-shard balance table covers every shard and accounts
        // all four memoized answers to the graph's owner shard.
        let Some(Json::Arr(per_shard)) = data.get("per_shard") else {
            panic!("per_shard missing: {data:?}");
        };
        assert_eq!(
            per_shard.len() as u64,
            data.get("shards").and_then(Json::as_u64).unwrap()
        );
        let results: u64 = per_shard
            .iter()
            .map(|s| s.get("result_entries").and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(results, 4, "each distinct source memoizes one answer");
        assert_eq!(
            cache.get("result_entries").and_then(Json::as_u64),
            Some(4),
            "rollup agrees with the per-shard table"
        );
    }

    #[test]
    fn server_stats_histogram_compile_time_per_compile() {
        let session = Session::open_default();
        load(&session, "g", 9, 16, 50);
        // One miss, one memo hit, one bypass: exactly two compiles.
        for cache in [CacheMode::Default, CacheMode::Default, CacheMode::Bypass] {
            let resp = session.call_request(Request::Sssp {
                graph: "g".into(),
                source: 0,
                target: None,
                cache,
            });
            assert!(resp.is_ok(), "{resp:?}");
        }
        let resp = session.call_request(Request::ServerStats);
        let Response::Ok { data, .. } = &resp else {
            panic!("{resp:?}");
        };
        let compile = data.get("cache").and_then(|c| c.get("compile")).unwrap();
        assert_eq!(
            compile.get("count").and_then(Json::as_u64),
            Some(2),
            "hits must not re-record the cached network's compile time"
        );
        assert!(compile.get("p50_us").is_some());
        assert!(compile.get("p95_us").is_some());
    }

    #[test]
    fn graph_replacement_evicts_compiled_networks() {
        let session = Session::open_default();
        load(&session, "g", 11, 12, 40);
        let resp = session.call_request(Request::Sssp {
            graph: "g".into(),
            source: 0,
            target: None,
            cache: CacheMode::Default,
        });
        assert!(resp.is_ok(), "{resp:?}");
        // Same name, different graph: the old compiled network — and the
        // old memoized answers — must go.
        load(&session, "g", 12, 12, 40);
        let resp = session.call_request(Request::Sssp {
            graph: "g".into(),
            source: 0,
            target: None,
            cache: CacheMode::Default,
        });
        let Response::Ok { data, .. } = &resp else {
            panic!("{resp:?}");
        };
        assert_eq!(
            data.get("cache").and_then(Json::as_str),
            Some("miss"),
            "stale compiled network must not serve the new graph"
        );
    }

    #[test]
    fn identical_reload_keeps_the_cache_warm() {
        let session = Session::open_default();
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::gnm_connected(&mut rng, 12, 40, 1..=5);
        let dimacs = to_dimacs(&g, "");
        for _ in 0..2 {
            let resp = session.call_request(Request::LoadGraph {
                name: "g".into(),
                dimacs: dimacs.clone(),
            });
            assert!(resp.is_ok(), "{resp:?}");
        }
        let resp = session.call_request(Request::Sssp {
            graph: "g".into(),
            source: 0,
            target: None,
            cache: CacheMode::Default,
        });
        assert!(resp.is_ok(), "{resp:?}");
        // Reload the byte-identical graph: the handle (and its compiled
        // network) must survive, so the next query hits.
        let resp = session.call_request(Request::LoadGraph {
            name: "g".into(),
            dimacs,
        });
        assert!(resp.is_ok(), "{resp:?}");
        let resp = session.call_request(Request::Sssp {
            graph: "g".into(),
            source: 5,
            target: None,
            cache: CacheMode::Default,
        });
        let Response::Ok { data, .. } = &resp else {
            panic!("{resp:?}");
        };
        assert_eq!(data.get("cache").and_then(Json::as_str), Some("hit"));
    }

    #[test]
    fn concurrent_shutdown_reports_stopped_only_after_the_backlog() {
        let session = Session::open(ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        });
        load(&session, "g", 17, 64, 256);
        std::thread::scope(|scope| {
            // Keep the single shard busy while two shutdowns race.
            for source in 0..4 {
                let session = &session;
                scope.spawn(move || {
                    let _ = session.call_request(Request::Sssp {
                        graph: "g".into(),
                        source,
                        target: None,
                        cache: CacheMode::Default,
                    });
                });
            }
            for _ in 0..2 {
                let session = &session;
                scope.spawn(move || {
                    session.shutdown();
                    // Whichever caller returns first: the shards must be
                    // joined by then, never "Stopped with jobs running".
                    assert_eq!(session.lifecycle(), Lifecycle::Stopped);
                    assert_eq!(session.queue_depth(), 0);
                });
            }
        });
    }

    #[test]
    fn draining_rejects_queries_with_typed_error() {
        let session = Session::open_default();
        load(&session, "g", 13, 8, 20);
        let resp = session.call_request(Request::Shutdown);
        assert!(resp.is_ok());
        let resp = session.call_request(Request::Sssp {
            graph: "g".into(),
            source: 0,
            target: None,
            cache: CacheMode::Default,
        });
        assert_eq!(resp.error_kind(), Some(ErrorKind::Draining));
        // Control ops still work while draining.
        assert!(session.call_request(Request::ServerStats).is_ok());
        session.shutdown();
    }
}
