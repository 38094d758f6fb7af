//! The load harness behind `sgl-stress`, modeled on cql-stress: a
//! weighted operation mix, closed-loop (fixed concurrency) and open-loop
//! (fixed arrival rate) drivers, sharded client-side statistics with
//! interval reporting, and the cold/warm compiled-network measurement
//! that `perf_check` enforces an ordering rule over.
//!
//! Structure mirrors cql-stress's `configuration` / `distribution` /
//! `run` / `sharded_stats` split, collapsed into one module at this
//! scale: [`Mix`] is the workload configuration, [`RateLimiter`] the
//! open-loop scheduler, [`run_stress`] the driver, and the per-thread
//! shards reuse [`crate::stats::ShardedStats`].
//!
//! Op ids are claimed from one atomic counter (the cql-stress pattern):
//! a thread that claims an id past the total stops, so the harness
//! issues *exactly* `total_ops` operations across however many threads.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind as IoErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgl_observe::{parse_json, Json, LogHistogram};

use crate::protocol::{
    parse_response, request_json, CacheMode, Envelope, ErrorKind, OpKind, Request, Response,
};
use crate::reactor::{stream_fd, Interest, Poller};
use crate::session::Session;
use crate::stats::{ShardedStats, WorkerStats};

/// Anything that can execute one request synchronously: an in-process
/// [`Session`] or a TCP connection.
pub trait Client {
    /// Executes `envelope` and returns its response. Transport failures
    /// surface as [`ErrorKind::Internal`] responses so the harness's
    /// accounting stays uniform.
    fn call(&mut self, envelope: Envelope) -> Response;
}

/// In-process client: calls straight into the session.
pub struct SessionClient<'a>(pub &'a Session);

impl Client for SessionClient<'_> {
    fn call(&mut self, envelope: Envelope) -> Response {
        self.0.call(envelope)
    }
}

/// One TCP connection speaking the JSON-lines protocol.
pub struct TcpClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl TcpClient {
    /// Connects to a running server.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        // Request/response are one small line each way; without nodelay,
        // Nagle + delayed ACK cost ~40-200 ms per round trip.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }
}

impl Client for TcpClient {
    fn call(&mut self, envelope: Envelope) -> Response {
        let line = request_json(&envelope).to_string();
        let io = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush());
        if let Err(e) = io {
            return Response::error(ErrorKind::Internal, format!("transport write: {e}"));
        }
        let mut out = String::new();
        match self.reader.read_line(&mut out) {
            Ok(0) => Response::error(ErrorKind::Internal, "server closed the connection"),
            Ok(_) => parse_json(out.trim())
                .map_err(|e| format!("invalid response JSON: {e}"))
                .and_then(|v| parse_response(&v))
                .map_or_else(
                    |e| Response::error(ErrorKind::Internal, e),
                    |(_id, resp)| resp,
                ),
            Err(e) => Response::error(ErrorKind::Internal, format!("transport read: {e}")),
        }
    }
}

/// One entry of the workload mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpSpec {
    /// `sssp` from a random source (cached path).
    Sssp,
    /// `sssp` with `cache: "bypass"` (repeatable cold compiles).
    SsspBypass,
    /// `khop` with the given `k` from a random source.
    Khop(u32),
    /// `apsp_row` for a random row.
    ApspRow,
    /// `graph_stats` (inline op — exercises the non-queued path).
    GraphStats,
}

impl OpSpec {
    fn request(self, graph: &str, source: usize) -> Request {
        match self {
            Self::Sssp => Request::Sssp {
                graph: graph.into(),
                source,
                target: None,
                cache: CacheMode::Default,
            },
            Self::SsspBypass => Request::Sssp {
                graph: graph.into(),
                source,
                target: None,
                cache: CacheMode::Bypass,
            },
            Self::Khop(k) => Request::Khop {
                graph: graph.into(),
                source,
                k,
                cache: CacheMode::Default,
            },
            Self::ApspRow => Request::ApspRow {
                graph: graph.into(),
                source,
                cache: CacheMode::Default,
            },
            Self::GraphStats => Request::GraphStats {
                graph: graph.into(),
            },
        }
    }
}

/// A weighted operation mix, e.g. `sssp=8,khop3=2,apsp_row=1`.
#[derive(Clone, Debug, PartialEq)]
pub struct Mix {
    entries: Vec<(OpSpec, u32)>,
    total_weight: u32,
}

impl Mix {
    /// A mix from `(op, weight)` entries (zero-weight entries dropped).
    ///
    /// # Panics
    /// Panics if no entry has positive weight.
    #[must_use]
    pub fn new(entries: Vec<(OpSpec, u32)>) -> Self {
        let entries: Vec<_> = entries.into_iter().filter(|&(_, w)| w > 0).collect();
        let total_weight = entries.iter().map(|&(_, w)| w).sum();
        assert!(total_weight > 0, "mix needs at least one positive weight");
        Self {
            entries,
            total_weight,
        }
    }

    /// Parses `name=weight` comma lists. Names: `sssp`, `sssp_bypass`,
    /// `khop<k>` (e.g. `khop3`), `apsp_row`, `graph_stats`.
    ///
    /// # Errors
    /// Returns a message naming the malformed entry.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, weight) = part
                .split_once('=')
                .ok_or_else(|| format!("mix entry {part:?} is not name=weight"))?;
            let weight: u32 = weight
                .trim()
                .parse()
                .map_err(|_| format!("mix entry {part:?}: bad weight"))?;
            let spec = match name.trim() {
                "sssp" => OpSpec::Sssp,
                "sssp_bypass" => OpSpec::SsspBypass,
                "apsp_row" => OpSpec::ApspRow,
                "graph_stats" => OpSpec::GraphStats,
                k if k.starts_with("khop") => {
                    let k: u32 = k[4..]
                        .parse()
                        .map_err(|_| format!("mix entry {part:?}: bad khop k"))?;
                    OpSpec::Khop(k)
                }
                other => return Err(format!("unknown mix op {other:?}")),
            };
            entries.push((spec, weight));
        }
        if entries.iter().all(|&(_, w)| w == 0) {
            return Err("mix has no positive-weight entries".into());
        }
        Ok(Self::new(entries))
    }

    /// Samples an op according to the weights.
    fn pick(&self, rng: &mut StdRng) -> OpSpec {
        let mut roll = rng.gen_range(0..self.total_weight);
        for &(spec, w) in &self.entries {
            if roll < w {
                return spec;
            }
            roll -= w;
        }
        self.entries.last().expect("non-empty mix").0
    }
}

impl Default for Mix {
    /// The CI smoke mix: mostly cached SSSP with some k-hop and APSP rows.
    fn default() -> Self {
        Self::new(vec![
            (OpSpec::Sssp, 6),
            (OpSpec::Khop(3), 2),
            (OpSpec::ApspRow, 1),
            (OpSpec::GraphStats, 1),
        ])
    }
}

/// Open-loop arrival scheduler (cql-stress's `RateLimiter`): thread-safe
/// hand-out of evenly spaced start times from one atomic counter. Threads
/// sleep until their assigned instant, so the offered load is `rate`
/// regardless of service speed — the queue absorbs the difference, which
/// is exactly what an overload test wants.
pub struct RateLimiter {
    base: Instant,
    increment_ns: u64,
    next: AtomicU64,
}

impl RateLimiter {
    /// A limiter issuing `rate` operations per second starting now.
    ///
    /// # Panics
    /// Panics if `rate` is not positive and finite.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Self {
            base: Instant::now(),
            increment_ns: (1e9 / rate).max(1.0) as u64,
            next: AtomicU64::new(0),
        }
    }

    /// Claims the next scheduled start time.
    #[must_use]
    pub fn next_start(&self) -> Instant {
        let offset = self.next.fetch_add(self.increment_ns, Ordering::Relaxed);
        self.base + Duration::from_nanos(offset)
    }

    /// Sleeps until the next scheduled start and returns it.
    #[must_use]
    pub fn pace(&self) -> Instant {
        let start = self.next_start();
        let now = Instant::now();
        if start > now {
            std::thread::sleep(start - now);
        }
        start
    }
}

/// Driver mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoopMode {
    /// Closed loop: each thread issues its next op as soon as the
    /// previous one completes — measures capacity.
    Closed,
    /// Open loop at the given arrival rate (ops/s) — measures behaviour
    /// at a fixed offered load, including overload.
    Open(f64),
}

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Registry name of the target graph (must already be loaded).
    pub graph: String,
    /// Node count of that graph (random sources are drawn below this).
    pub graph_n: usize,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// Total operations to issue across all threads.
    pub total_ops: u64,
    /// Closed or open loop.
    pub mode: LoopMode,
    /// Workload mix.
    pub mix: Mix,
    /// Per-request deadline forwarded to the server.
    pub deadline_ms: Option<u64>,
    /// RNG seed (per-thread streams derive from it).
    pub seed: u64,
    /// Print a live stats line every interval (`None`: quiet).
    pub report_interval: Option<Duration>,
}

impl Default for StressConfig {
    fn default() -> Self {
        Self {
            graph: "stress".into(),
            graph_n: 256,
            concurrency: 4,
            total_ops: 1000,
            mode: LoopMode::Closed,
            mix: Mix::default(),
            deadline_ms: None,
            seed: 7,
            report_interval: None,
        }
    }
}

/// Aggregated outcome of a stress run.
#[derive(Debug)]
pub struct StressSummary {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Operations issued (equals the configured total).
    pub issued: u64,
    /// Successful responses.
    pub ok: u64,
    /// Error responses by [`ErrorKind::index`].
    pub errors_by_kind: [u64; ErrorKind::ALL.len()],
    /// Client-observed latency per op kind, µs.
    pub latency_us: Vec<LogHistogram>,
    /// Combined client-observed latency across all ops, µs.
    pub overall_us: LogHistogram,
}

impl StressSummary {
    /// Total error responses.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.errors_by_kind.iter().sum()
    }

    /// Errors of one kind.
    #[must_use]
    pub fn errors_of(&self, kind: ErrorKind) -> u64 {
        self.errors_by_kind[kind.index()]
    }

    /// Throughput in ops/s.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        self.issued as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// JSON for report artifacts.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let errors = Json::obj(
            ErrorKind::ALL
                .iter()
                .map(|&k| (k.as_str(), Json::UInt(self.errors_by_kind[k.index()])))
                .collect(),
        );
        let per_op = Json::obj(
            OpKind::ALL
                .iter()
                .filter(|&&op| self.latency_us[op.index()].count() > 0)
                .map(|&op| {
                    (
                        op.name(),
                        crate::stats::latency_json(&self.latency_us[op.index()]),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            (
                "elapsed_ms",
                Json::UInt(u64::try_from(self.elapsed.as_millis()).unwrap_or(u64::MAX)),
            ),
            ("issued", Json::UInt(self.issued)),
            ("ok", Json::UInt(self.ok)),
            ("ops_per_sec", Json::Num(self.ops_per_sec())),
            ("errors", errors),
            ("latency", crate::stats::latency_json(&self.overall_us)),
            ("latency_per_op", per_op),
        ])
    }
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Runs the configured workload against clients produced by `make_client`
/// (one per thread, so TCP mode gets one connection each).
///
/// # Panics
/// Panics if a driver thread panics (indicates a harness bug, not a
/// server failure — server failures are counted, not thrown).
pub fn run_stress<C: Client, F: Fn(usize) -> C + Sync>(
    make_client: F,
    config: &StressConfig,
) -> StressSummary {
    let stats = ShardedStats::new(config.concurrency);
    // Interval reporting clears the shards; cleared snapshots accumulate
    // here so the final summary still covers the whole run.
    let reported = std::sync::Mutex::new(WorkerStats::default());
    let errors_by_kind: Vec<AtomicU64> = (0..ErrorKind::ALL.len())
        .map(|_| AtomicU64::new(0))
        .collect();
    let next_op = AtomicU64::new(0);
    let limiter = match config.mode {
        LoopMode::Open(rate) => Some(RateLimiter::new(rate)),
        LoopMode::Closed => None,
    };
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for thread_idx in 0..config.concurrency {
            let stats = &stats;
            let errors_by_kind = &errors_by_kind;
            let next_op = &next_op;
            let limiter = limiter.as_ref();
            let make_client = &make_client;
            scope.spawn(move || {
                let mut client = make_client(thread_idx);
                let mut rng =
                    StdRng::seed_from_u64(config.seed ^ (thread_idx as u64).wrapping_mul(0x9e37));
                loop {
                    // Claim an op id; past the total means done (the
                    // cql-stress atomic-counter stop condition).
                    if next_op.fetch_add(1, Ordering::Relaxed) >= config.total_ops {
                        break;
                    }
                    if let Some(l) = limiter {
                        let _scheduled = l.pace();
                    }
                    let spec = config.mix.pick(&mut rng);
                    let source = rng.gen_range(0..config.graph_n);
                    let request = spec.request(&config.graph, source);
                    let kind = request.kind();
                    let envelope = Envelope {
                        id: None,
                        deadline_ms: config.deadline_ms,
                        trace_id: None,
                        request,
                    };
                    let start = Instant::now();
                    let response = client.call(envelope);
                    let latency = micros(start.elapsed());
                    stats.with_shard(thread_idx, |s| {
                        s.record(kind, latency, response.is_ok());
                    });
                    if let Some(k) = response.error_kind() {
                        errors_by_kind[k.index()].fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // Live interval reporter (main thread of the scope).
        if let Some(interval) = config.report_interval {
            let mut printed_header = false;
            loop {
                std::thread::sleep(interval);
                let done = next_op.load(Ordering::Relaxed).min(config.total_ops);
                let snap = stats.combined_and_clear();
                let mut all = LogHistogram::new();
                for h in &snap.latency_us {
                    all.merge(h);
                }
                if !printed_header {
                    println!(
                        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
                        "total_ops", "int_ops", "p50_us", "p95_us", "p99_us", "errors"
                    );
                    printed_header = true;
                }
                let q = |q: f64| {
                    all.quantile(q)
                        .map_or_else(|| "-".into(), |v| v.to_string())
                };
                println!(
                    "{done:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
                    snap.total(),
                    q(0.5),
                    q(0.95),
                    q(0.99),
                    snap.errors.iter().sum::<u64>(),
                );
                reported.lock().expect("report accumulator").merge(&snap);
                if done >= config.total_ops {
                    break;
                }
            }
        }
    });
    let elapsed = t0.elapsed();
    let mut combined = stats.combined();
    combined.merge(&reported.lock().expect("report accumulator"));
    let mut overall = LogHistogram::new();
    for h in &combined.latency_us {
        overall.merge(h);
    }
    let mut errors = [0u64; ErrorKind::ALL.len()];
    for (slot, counter) in errors.iter_mut().zip(&errors_by_kind) {
        *slot = counter.load(Ordering::Relaxed);
    }
    StressSummary {
        elapsed,
        issued: config.total_ops,
        ok: combined.ok.iter().sum(),
        errors_by_kind: errors,
        latency_us: combined.latency_us.to_vec(),
        overall_us: overall,
    }
}

/// Configuration for [`run_connection_stress`]: one driver thread
/// multiplexing many pipelined connections over a reactor.
#[derive(Clone, Debug)]
pub struct ConnStressConfig {
    /// Registry name of the target graph (must already be loaded).
    pub graph: String,
    /// Node count of that graph (random sources are drawn below this).
    pub graph_n: usize,
    /// Concurrent TCP connections to hold open.
    pub connections: usize,
    /// Requests kept in flight per connection.
    pub pipeline: usize,
    /// Total operations to issue across all connections.
    pub total_ops: u64,
    /// Open-loop arrival rate in ops/s across the whole run
    /// (`None`: closed loop — refill a connection as soon as it answers).
    pub rate: Option<f64>,
    /// Workload mix.
    pub mix: Mix,
    /// Per-request deadline forwarded to the server.
    pub deadline_ms: Option<u64>,
    /// RNG seed for the pre-rendered request pool.
    pub seed: u64,
    /// Print a live stats line every interval (`None`: quiet).
    pub report_interval: Option<Duration>,
}

impl Default for ConnStressConfig {
    fn default() -> Self {
        Self {
            graph: "stress".into(),
            graph_n: 256,
            connections: 128,
            pipeline: 8,
            total_ops: 10_000,
            rate: None,
            mix: Mix::default(),
            deadline_ms: None,
            seed: 7,
            report_interval: None,
        }
    }
}

/// Number of pre-rendered request lines the driver cycles through.
const REQUEST_POOL: usize = 1024;

struct DriverConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// FIFO of in-flight requests (send instant, op kind); responses come
    /// back in order on a connection, so the front matches the next line.
    inflight: VecDeque<(Instant, OpKind)>,
    dead: bool,
    /// Dead connection already deregistered and its in-flight ops counted.
    reaped: bool,
    wants_write: bool,
}

fn find_bytes(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Classifies a response line without building a JSON tree (or even a
/// string): the driver's per-response cost must stay far below the
/// server's per-op cost or the client becomes the bottleneck it is
/// trying to measure.
fn classify_response(line: &[u8]) -> Result<(), ErrorKind> {
    // The status field leads the canonical rendering, so the common case
    // scans a handful of bytes.
    if find_bytes(line, b"\"status\":\"ok\"").is_some() {
        return Ok(());
    }
    let kind = find_bytes(line, b"\"kind\":\"")
        .map(|at| &line[at + 8..])
        .and_then(|rest| {
            let end = rest.iter().position(|&b| b == b'"')?;
            std::str::from_utf8(&rest[..end]).ok()
        })
        .and_then(ErrorKind::from_name)
        .unwrap_or(ErrorKind::Internal);
    Err(kind)
}

fn render_pool(config: &ConnStressConfig) -> Vec<(OpKind, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let count = REQUEST_POOL
        .min(usize::try_from(config.total_ops).unwrap_or(REQUEST_POOL))
        .max(1);
    (0..count)
        .map(|_| {
            let spec = config.mix.pick(&mut rng);
            let source = rng.gen_range(0..config.graph_n);
            let request = spec.request(&config.graph, source);
            let kind = request.kind();
            let envelope = Envelope {
                id: None,
                deadline_ms: config.deadline_ms,
                trace_id: None,
                request,
            };
            let mut line = request_json(&envelope).to_string().into_bytes();
            line.push(b'\n');
            (kind, line)
        })
        .collect()
}

/// Drives `connections` pipelined non-blocking connections from a single
/// thread over a [`Poller`] — the high-concurrency companion to
/// [`run_stress`], which spends a whole thread (and scheduler slot) per
/// connection and cannot reach reactor-scale counts.
///
/// Request lines are pre-rendered (`REQUEST_POOL` of them, cycled) so the
/// steady-state client cost per op is a buffer copy, a `poll` share, and a
/// substring scan of the response line.
///
/// # Errors
/// Returns an error if connecting or polling fails; per-request failures
/// are counted in the summary instead.
pub fn run_connection_stress(
    addr: SocketAddr,
    config: &ConnStressConfig,
) -> std::io::Result<StressSummary> {
    let pool = render_pool(config);
    let (mut poller, _waker) = Poller::new()?;
    let mut conns = Vec::with_capacity(config.connections);
    for token in 0..config.connections {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        poller.register(stream_fd(&stream), token, Interest::Read);
        conns.push(DriverConn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            inflight: VecDeque::new(),
            dead: false,
            reaped: false,
            wants_write: false,
        });
    }
    let mut stats = WorkerStats::default();
    let mut errors_by_kind = [0u64; ErrorKind::ALL.len()];
    let mut issued: u64 = 0;
    let mut completed: u64 = 0;
    let mut lost: u64 = 0; // in-flight ops on connections that died
    let mut pool_idx = 0usize;
    let mut events = Vec::new();
    let t0 = Instant::now();
    let mut last_report = t0;
    let mut report_base: u64 = 0;
    let mut printed_header = false;
    let mut interval = WorkerStats::default();

    let mut dead_count = 0usize;
    let mut open_cursor = 0usize;

    // One request appended to `conn`'s write buffer from the pool.
    let issue = |conn: &mut DriverConn, pool_idx: &mut usize, issued: &mut u64| {
        let (kind, line) = &pool[*pool_idx % pool.len()];
        *pool_idx += 1;
        conn.wbuf.extend_from_slice(line);
        conn.inflight.push_back((Instant::now(), *kind));
        *issued += 1;
    };
    // Flush, sync write interest, and reap on death — the complete
    // post-touch bookkeeping for one connection.
    let settle = |conn: &mut DriverConn,
                  token: usize,
                  poller: &mut Poller,
                  lost: &mut u64,
                  dead_count: &mut usize| {
        if !conn.dead && !conn.wbuf.is_empty() {
            flush_driver_conn(conn);
        }
        let wants = !conn.wbuf.is_empty() && !conn.dead;
        if !conn.dead && wants != conn.wants_write {
            conn.wants_write = wants;
            let interest = if wants {
                Interest::ReadWrite
            } else {
                Interest::Read
            };
            poller.register(stream_fd(&conn.stream), token, interest);
        }
        if conn.dead && !conn.reaped {
            conn.reaped = true;
            *lost += conn.inflight.len() as u64;
            conn.inflight.clear();
            poller.deregister(token);
            *dead_count += 1;
        }
    };

    // Initial fill: closed loop packs every pipeline; open loop starts
    // from a zero allowance and paces below.
    if config.rate.is_none() {
        for (token, conn) in conns.iter_mut().enumerate() {
            while issued < config.total_ops && conn.inflight.len() < config.pipeline {
                issue(conn, &mut pool_idx, &mut issued);
            }
            settle(conn, token, &mut poller, &mut lost, &mut dead_count);
        }
    }

    loop {
        if dead_count == conns.len() || (issued >= config.total_ops && completed + lost >= issued) {
            break;
        }
        // Open-loop pacing: issue whatever the arrival schedule has
        // released since the last pass, round-robin from a moving cursor.
        // (Closed-loop refills happen per completion in the event path,
        // so the steady state does no full-fleet scans.)
        let mut timeout = Duration::from_millis(100);
        if let Some(rate) = config.rate {
            let allowed = ((t0.elapsed().as_secs_f64() * rate) as u64).min(config.total_ops);
            let mut stalled = 0usize;
            while issued < allowed && stalled < conns.len() {
                let token = open_cursor % conns.len();
                open_cursor += 1;
                let conn = &mut conns[token];
                if !conn.dead && conn.inflight.len() < config.pipeline {
                    issue(conn, &mut pool_idx, &mut issued);
                    settle(conn, token, &mut poller, &mut lost, &mut dead_count);
                    stalled = 0;
                } else {
                    stalled += 1;
                }
            }
            if issued < config.total_ops {
                // Wake in time for the next scheduled arrival.
                let gap = Duration::from_secs_f64(1.0 / rate.max(1.0));
                timeout = timeout.min(gap.max(Duration::from_micros(50)));
            }
        }
        events.clear();
        poller.wait(Some(timeout), &mut events)?;
        for event in &events {
            let token = event.token;
            let Some(conn) = conns.get_mut(token) else {
                continue;
            };
            if event.writable {
                flush_driver_conn(conn);
            }
            if event.readable || event.closed {
                read_driver_conn(
                    conn,
                    &mut stats,
                    &mut interval,
                    &mut errors_by_kind,
                    &mut completed,
                );
            }
            // Closed loop: refill what this connection just answered.
            if config.rate.is_none() {
                while issued < config.total_ops
                    && !conn.dead
                    && conn.inflight.len() < config.pipeline
                {
                    issue(conn, &mut pool_idx, &mut issued);
                }
            }
            settle(conn, token, &mut poller, &mut lost, &mut dead_count);
        }
        if let Some(every) = config.report_interval {
            if last_report.elapsed() >= every {
                last_report = Instant::now();
                if !printed_header {
                    println!(
                        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
                        "total_ops", "int_ops", "p50_us", "p95_us", "p99_us", "errors"
                    );
                    printed_header = true;
                }
                let mut all = LogHistogram::new();
                for h in &interval.latency_us {
                    all.merge(h);
                }
                let q = |q: f64| {
                    all.quantile(q)
                        .map_or_else(|| "-".into(), |v| v.to_string())
                };
                println!(
                    "{completed:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
                    completed - report_base,
                    q(0.5),
                    q(0.95),
                    q(0.99),
                    interval.errors.iter().sum::<u64>(),
                );
                report_base = completed;
                interval = WorkerStats::default();
            }
        }
    }
    errors_by_kind[ErrorKind::Internal.index()] += lost;
    let elapsed = t0.elapsed();
    let mut overall = LogHistogram::new();
    for h in &stats.latency_us {
        overall.merge(h);
    }
    Ok(StressSummary {
        elapsed,
        issued: completed + lost,
        ok: stats.ok.iter().sum(),
        errors_by_kind,
        latency_us: stats.latency_us.to_vec(),
        overall_us: overall,
    })
}

fn flush_driver_conn(conn: &mut DriverConn) {
    let mut written = 0usize;
    while written < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[written..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
            Err(e) if e.kind() == IoErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    conn.wbuf.drain(..written);
}

fn read_driver_conn(
    conn: &mut DriverConn,
    stats: &mut WorkerStats,
    interval: &mut WorkerStats,
    errors_by_kind: &mut [u64; ErrorKind::ALL.len()],
    completed: &mut u64,
) {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                let mut start = 0usize;
                while let Some(pos) = conn.rbuf[start..].iter().position(|&b| b == b'\n') {
                    let end = start + pos;
                    let line = &conn.rbuf[start..end];
                    start = end + 1;
                    let Some((sent, kind)) = conn.inflight.pop_front() else {
                        // Unsolicited line: protocol desync — count and drop.
                        errors_by_kind[ErrorKind::Internal.index()] += 1;
                        *completed += 1;
                        continue;
                    };
                    let latency = micros(sent.elapsed());
                    let outcome = classify_response(line);
                    stats.record(kind, latency, outcome.is_ok());
                    interval.record(kind, latency, outcome.is_ok());
                    if let Err(k) = outcome {
                        errors_by_kind[k.index()] += 1;
                    }
                    *completed += 1;
                }
                conn.rbuf.drain(..start);
                if n < chunk.len() {
                    break;
                }
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
            Err(e) if e.kind() == IoErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

/// Cold vs warm compiled-network latency on one graph, measured through a
/// client (µs medians; the perf ordering rule's input).
#[derive(Clone, Debug)]
pub struct ColdWarm {
    /// Per-sample cold latencies (cache bypass: compile every time), µs.
    pub cold_us: Vec<u64>,
    /// Per-sample warm latencies (resident network), µs.
    pub warm_us: Vec<u64>,
}

fn median(sorted: &[u64]) -> u64 {
    sorted[sorted.len() / 2]
}

impl ColdWarm {
    /// Median cold latency, µs.
    ///
    /// # Panics
    /// Panics if no samples were taken.
    #[must_use]
    pub fn cold_median_us(&self) -> u64 {
        let mut v = self.cold_us.clone();
        v.sort_unstable();
        median(&v)
    }

    /// Median warm latency, µs.
    ///
    /// # Panics
    /// Panics if no samples were taken.
    #[must_use]
    pub fn warm_median_us(&self) -> u64 {
        let mut v = self.warm_us.clone();
        v.sort_unstable();
        median(&v)
    }

    /// JSON for report artifacts.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("samples", Json::UInt(self.cold_us.len() as u64)),
            ("cold_median_us", Json::UInt(self.cold_median_us())),
            ("warm_median_us", Json::UInt(self.warm_median_us())),
            ("cold_us", Json::uints(&self.cold_us)),
            ("warm_us", Json::uints(&self.warm_us)),
            (
                "speedup",
                Json::Num(self.cold_median_us() as f64 / (self.warm_median_us() as f64).max(1e-9)),
            ),
        ])
    }
}

/// Measures cold-compile vs warm-cache `sssp` latency over `client`.
/// Cold samples use `cache: "bypass"` (a fresh compile each time, cache
/// untouched); the warm path is primed once, then sampled as pure hits.
/// Sources rotate so the simulation work is comparable, not memoized.
pub fn measure_cold_warm(
    client: &mut dyn Client,
    graph: &str,
    graph_n: usize,
    samples: usize,
) -> ColdWarm {
    let call_sssp = |client: &mut dyn Client, source: usize, cache: CacheMode| {
        let t0 = Instant::now();
        let resp = client.call(Envelope::of(Request::Sssp {
            graph: graph.into(),
            source,
            target: None,
            cache,
        }));
        assert!(resp.is_ok(), "measurement query failed: {resp:?}");
        micros(t0.elapsed())
    };
    // Prime the cache so warm samples are all hits.
    let _prime = call_sssp(client, 0, CacheMode::Default);
    let warm_us: Vec<u64> = (0..samples)
        .map(|i| call_sssp(client, (i + 1) % graph_n, CacheMode::Default))
        .collect();
    let cold_us: Vec<u64> = (0..samples)
        .map(|i| call_sssp(client, (i + 1) % graph_n, CacheMode::Bypass))
        .collect();
    ColdWarm { cold_us, warm_us }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ServerConfig;
    use rand::rngs::StdRng as TestRng;
    use sgl_graph::generators;
    use sgl_graph::io::to_dimacs;

    fn session_with_graph(n: usize, m: usize, seed: u64) -> Session {
        let session = Session::open(ServerConfig::default());
        let mut rng = TestRng::seed_from_u64(seed);
        let g = generators::gnm_connected(&mut rng, n, m, 1..=9);
        let resp = session.call_request(Request::LoadGraph {
            name: "stress".into(),
            dimacs: to_dimacs(&g, "stress graph"),
        });
        assert!(resp.is_ok());
        session
    }

    #[test]
    fn mix_parsing() {
        let mix = Mix::parse("sssp=8, khop3=2 ,apsp_row=1,graph_stats=0").unwrap();
        assert_eq!(
            mix.entries,
            vec![
                (OpSpec::Sssp, 8),
                (OpSpec::Khop(3), 2),
                (OpSpec::ApspRow, 1),
            ]
        );
        assert!(Mix::parse("sssp").is_err());
        assert!(Mix::parse("warp=1").is_err());
        assert!(Mix::parse("khopX=1").is_err());
        assert!(Mix::parse("sssp=0").is_err());
    }

    #[test]
    fn mix_sampling_respects_weights() {
        let mix = Mix::new(vec![(OpSpec::Sssp, 9), (OpSpec::ApspRow, 1)]);
        let mut rng = TestRng::seed_from_u64(3);
        let mut sssp = 0;
        for _ in 0..1000 {
            if mix.pick(&mut rng) == OpSpec::Sssp {
                sssp += 1;
            }
        }
        assert!((800..=990).contains(&sssp), "sssp picks: {sssp}");
    }

    #[test]
    fn rate_limiter_spaces_arrivals() {
        let l = RateLimiter::new(1000.0); // 1ms apart
        let a = l.next_start();
        let b = l.next_start();
        let c = l.next_start();
        assert_eq!(b - a, Duration::from_millis(1));
        assert_eq!(c - b, Duration::from_millis(1));
    }

    #[test]
    fn closed_loop_issues_exactly_total_ops() {
        let session = session_with_graph(20, 70, 21);
        let config = StressConfig {
            graph_n: 20,
            concurrency: 3,
            total_ops: 50,
            ..StressConfig::default()
        };
        let summary = run_stress(|_| SessionClient(&session), &config);
        assert_eq!(summary.issued, 50);
        assert_eq!(summary.ok + summary.errors(), 50);
        assert_eq!(summary.errors(), 0, "low load must not shed");
        assert_eq!(summary.overall_us.count(), 50);
        session.shutdown();
    }

    #[test]
    fn open_loop_paces_and_completes() {
        let session = session_with_graph(12, 40, 22);
        let config = StressConfig {
            graph_n: 12,
            concurrency: 2,
            total_ops: 20,
            mode: LoopMode::Open(2000.0),
            ..StressConfig::default()
        };
        let summary = run_stress(|_| SessionClient(&session), &config);
        assert_eq!(summary.ok + summary.errors(), 20);
        // 20 ops at 2000/s arrive over ≥ ~9.5 ms of schedule.
        assert!(
            summary.elapsed >= Duration::from_millis(8),
            "{:?}",
            summary.elapsed
        );
        session.shutdown();
    }

    #[test]
    fn cold_warm_measurement_runs_and_is_sane() {
        let session = session_with_graph(64, 220, 23);
        let mut client = SessionClient(&session);
        let cw = measure_cold_warm(&mut client, "stress", 64, 5);
        assert_eq!(cw.cold_us.len(), 5);
        assert_eq!(cw.warm_us.len(), 5);
        // No strict latency assertion here (CI machines jitter); the
        // committed-baseline ordering rule in perf_check enforces the
        // cold > warm relationship on the measured artifact.
        assert!(cw.cold_median_us() > 0);
        let j = cw.to_json();
        assert!(j.get("speedup").and_then(Json::as_f64).is_some());
        session.shutdown();
    }

    #[test]
    fn summary_json_shape() {
        let session = session_with_graph(10, 30, 24);
        let config = StressConfig {
            graph_n: 10,
            concurrency: 1,
            total_ops: 5,
            ..StressConfig::default()
        };
        let summary = run_stress(|_| SessionClient(&session), &config);
        let j = summary.to_json();
        assert_eq!(j.get("issued").and_then(Json::as_u64), Some(5));
        assert!(j.get("ops_per_sec").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(
            j.get("errors")
                .and_then(|e| e.get("overloaded"))
                .and_then(Json::as_u64),
            Some(0)
        );
        session.shutdown();
    }

    #[test]
    fn connection_driver_completes_cleanly() {
        let server = crate::tcp::LoopbackServer::start(ServerConfig {
            queue_capacity: 32 * 4 + 64,
            ..ServerConfig::default()
        });
        let mut setup = TcpClient::connect(server.addr).expect("connect");
        let mut rng = TestRng::seed_from_u64(31);
        let g = generators::gnm_connected(&mut rng, 24, 80, 1..=9);
        let resp = setup.call(Envelope::of(Request::LoadGraph {
            name: "stress".into(),
            dimacs: to_dimacs(&g, "stress graph"),
        }));
        assert!(resp.is_ok());
        let config = ConnStressConfig {
            graph_n: 24,
            connections: 32,
            pipeline: 4,
            total_ops: 600,
            ..ConnStressConfig::default()
        };
        let summary = run_connection_stress(server.addr, &config).expect("driver");
        assert_eq!(summary.issued, 600);
        assert_eq!(summary.ok, 600, "errors: {:?}", summary.errors_by_kind);
        assert_eq!(summary.overall_us.count(), 600);
        assert!(setup.call(Envelope::of(Request::Shutdown)).is_ok());
        server.stop();
    }

    #[test]
    fn connection_driver_open_loop_paces() {
        let server = crate::tcp::LoopbackServer::start(ServerConfig::default());
        let mut setup = TcpClient::connect(server.addr).expect("connect");
        let mut rng = TestRng::seed_from_u64(32);
        let g = generators::gnm_connected(&mut rng, 12, 40, 1..=9);
        assert!(setup
            .call(Envelope::of(Request::LoadGraph {
                name: "stress".into(),
                dimacs: to_dimacs(&g, "stress graph"),
            }))
            .is_ok());
        let config = ConnStressConfig {
            graph_n: 12,
            connections: 4,
            pipeline: 2,
            total_ops: 40,
            rate: Some(4000.0),
            ..ConnStressConfig::default()
        };
        let summary = run_connection_stress(server.addr, &config).expect("driver");
        assert_eq!(summary.ok + summary.errors(), 40);
        // 40 ops at 4000/s arrive over ≥ ~9.75 ms of schedule.
        assert!(
            summary.elapsed >= Duration::from_millis(8),
            "{:?}",
            summary.elapsed
        );
        assert!(setup.call(Envelope::of(Request::Shutdown)).is_ok());
        server.stop();
    }
}
