//! The three serving workloads. Each generates its graphs and op stream
//! from the seed, starts an in-process `sgl-serve` server with its default
//! shard count, talks to it over loopback TCP, and checks answers against
//! `dijkstra` / `bellman_ford_khop`.
//!
//! - `serve_engine`: open loop at a fixed rate on one 200x200 grid; memo
//!   hits are rare, so simulation, readout and ~160 KB response rendering
//!   dominate.
//! - `serve_hot`: closed loop, 2 connections x depth 16, over eight small
//!   graphs and 32 sources each; after warm-up nearly every answer is a
//!   memo splice, so parsing, admission, the reactor and writes dominate.
//! - `serve_reload`: closed loop, 1 connection; every 40th op replaces a
//!   dense graph (~3 MB of DIMACS), so parsing, construction, engine
//!   selection and cache invalidation run beside bit-plane queries.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgl_bench::synth;
use sgl_graph::io::{parse_dimacs, to_dimacs};
use sgl_graph::stats::GraphStats;
use sgl_graph::{bellman_ford_khop, dijkstra, generators, Graph, Len};
use sgl_observe::{parse_json, Json};
use sgl_serve::cache::{CachedResult, GraphRegistry, ResultKey};
use sgl_serve::protocol::{distances_json, parse_distances, parse_response, request_json};
use sgl_serve::{
    Algo, CacheMode, CacheOutcome, Envelope, LoopbackServer, NetCache, OpKind, Request, Response,
    ServerConfig, TraceConfig,
};
use sgl_snn::engine::{EngineChoice, RunScratch};
use sgl_snn::Network;

use crate::loadgen::{closed_loop, open_loop, RunLog};
use crate::report::{self, Metric};
use crate::spans::{self, Tracer};
use crate::stats::{self, Summary};
use crate::Args;

/// Which serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Open loop, one sparse grid, engine-bound.
    Engine,
    /// Closed loop, memo-hot small graphs.
    Hot,
    /// Closed loop with dense-graph reloads.
    Reload,
}

struct GraphInput {
    name: String,
    graph: Graph,
    dimacs: Arc<str>,
}

#[derive(Clone, Copy, Debug)]
enum Query {
    Sssp {
        source: usize,
        target: Option<usize>,
    },
    Khop {
        source: usize,
        k: u32,
    },
    ApspRow {
        source: usize,
    },
    Stats,
    Load,
}

/// One operation against graph `graph` (an index into the input table).
#[derive(Clone, Copy, Debug)]
struct Op {
    graph: usize,
    q: Query,
}

impl Op {
    fn algo(self) -> Option<Algo> {
        match self.q {
            Query::Sssp { .. } | Query::ApspRow { .. } => Some(Algo::Sssp),
            Query::Khop { k, .. } => Some(Algo::Khop(k)),
            Query::Stats | Query::Load => None,
        }
    }

    fn memo_key(self) -> Option<ResultKey> {
        Some(match self.q {
            Query::Sssp { source, target } => ResultKey::Sssp {
                source: source as u32,
                target: target.map(|t| t as u32),
            },
            Query::Khop { source, k } => ResultKey::Khop {
                source: source as u32,
                k,
            },
            Query::ApspRow { source } => ResultKey::ApspRow {
                source: source as u32,
            },
            Query::Stats | Query::Load => return None,
        })
    }
}

enum Traffic {
    Open { rate: f64 },
    Closed { conns: usize, depth: usize },
}

/// A generated workload: inputs, op streams, and the request lines.
struct Workload {
    graphs: Vec<GraphInput>,
    /// Loads and first compiles: part of set-up.
    setup: Vec<Op>,
    /// Untimed ops after set-up that bring the memo to steady state.
    warmup: Vec<Op>,
    /// The measured stream; closed loops cycle through it.
    stream: Vec<Op>,
    /// Which stream ops have their answers checked.
    keep: Vec<bool>,
    lines: Vec<Arc<[u8]>>,
    traffic: Traffic,
    /// Stream ops replayed with spans in a traced run.
    replay_ops: usize,
    params: Json,
}

pub(crate) fn distinct(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..count {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

fn input(name: &str, graph: Graph) -> GraphInput {
    GraphInput {
        name: name.into(),
        dimacs: to_dimacs(&graph, name).into(),
        graph,
    }
}

impl Workload {
    fn generate(kind: Kind, seed: u64, seconds: f64, engine_rate: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut keep = Vec::new();
        let op = |graph, q| Op { graph, q };
        let mut w = match kind {
            Kind::Engine => {
                let g = synth::grid(seed, 200, 200, 8);
                let n = g.n();
                let total = (engine_rate * seconds).ceil() as usize;
                let mut stream = Vec::with_capacity(total);
                for _ in 0..total {
                    let source = rng.gen_range(0..n);
                    let (q, checked) = match rng.gen_range(0..100u32) {
                        0..=69 => (
                            Query::Sssp {
                                source,
                                target: None,
                            },
                            false,
                        ),
                        70..=84 => {
                            let target = Some(rng.gen_range(0..n));
                            (Query::Sssp { source, target }, true)
                        }
                        _ => (Query::Khop { source, k: 8 }, false),
                    };
                    stream.push(op(0, q));
                    keep.push(checked || rng.gen_range(0..8u32) == 0);
                }
                Self {
                    setup: vec![
                        op(0, Query::Load),
                        op(
                            0,
                            Query::Sssp {
                                source: 0,
                                target: None,
                            },
                        ),
                        op(0, Query::Khop { source: 0, k: 8 }),
                    ],
                    graphs: vec![input("grid", g)],
                    warmup: Vec::new(),
                    stream,
                    keep: Vec::new(),
                    lines: Vec::new(),
                    traffic: Traffic::Open { rate: engine_rate },
                    replay_ops: 200,
                    params: Json::obj(vec![
                        (
                            "graph",
                            Json::Str("synth::grid 200x200, lengths 1..=8".into()),
                        ),
                        (
                            "mix",
                            Json::Str("sssp 70, sssp+target 15, khop k=8 15".into()),
                        ),
                        ("loop", Json::Str("open".into())),
                        ("rate_per_s", Json::Num(engine_rate)),
                        ("connections", Json::UInt(1)),
                    ]),
                }
            }
            Kind::Hot => {
                let mut graphs = Vec::new();
                let mut sources = Vec::new();
                let (mut setup, mut warmup) = (Vec::new(), Vec::new());
                for j in 0..8 {
                    let mut grng =
                        StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(j as u64));
                    let g = generators::gnm(&mut grng, 256, 1024, 1..=8);
                    let srcs = distinct(&mut rng, g.n(), 32);
                    setup.push(op(j, Query::Load));
                    setup.push(op(
                        j,
                        Query::Sssp {
                            source: srcs[0],
                            target: None,
                        },
                    ));
                    setup.push(op(
                        j,
                        Query::Khop {
                            source: srcs[0],
                            k: 3,
                        },
                    ));
                    for &source in &srcs {
                        warmup.push(op(
                            j,
                            Query::Sssp {
                                source,
                                target: None,
                            },
                        ));
                        warmup.push(op(j, Query::Khop { source, k: 3 }));
                        warmup.push(op(j, Query::ApspRow { source }));
                    }
                    warmup.push(op(j, Query::Stats));
                    graphs.push(input(&format!("hot{j}"), g));
                    sources.push(srcs);
                }
                let mut stream = Vec::new();
                for _ in 0..32_768 {
                    let j = rng.gen_range(0..8usize);
                    let source = sources[j][rng.gen_range(0..32usize)];
                    let q = match rng.gen_range(0..10u32) {
                        0..=5 => Query::Sssp {
                            source,
                            target: None,
                        },
                        6..=7 => Query::Khop { source, k: 3 },
                        8 => Query::ApspRow { source },
                        _ => Query::Stats,
                    };
                    stream.push(op(j, q));
                    keep.push(rng.gen_range(0..32u32) == 0);
                }
                Self {
                    graphs,
                    setup,
                    warmup,
                    stream,
                    keep: Vec::new(),
                    lines: Vec::new(),
                    traffic: Traffic::Closed {
                        conns: 2,
                        depth: 16,
                    },
                    replay_ops: 4096,
                    params: Json::obj(vec![
                        (
                            "graphs",
                            Json::Str("8 x gnm n=256 m=1024, lengths 1..=8".into()),
                        ),
                        ("sources_per_graph", Json::UInt(32)),
                        (
                            "mix",
                            Json::Str("sssp 6, khop k=3 2, apsp_row 1, graph_stats 1".into()),
                        ),
                        ("loop", Json::Str("closed".into())),
                        ("connections", Json::UInt(2)),
                        ("pipeline_depth", Json::UInt(16)),
                    ]),
                }
            }
            Kind::Reload => {
                const POOL: usize = 8;
                const CYCLE: usize = 40;
                // Thirteen rounds of the pool; closed loops cycle through
                // the stream, and every round reloads every graph.
                const INSTANCES: usize = POOL * 13;
                let n = 1024;
                let graphs: Vec<GraphInput> = (0..POOL)
                    .map(|p| {
                        let mut grng =
                            StdRng::seed_from_u64(seed.wrapping_mul(131).wrapping_add(p as u64));
                        input("dense", generators::gnm(&mut grng, n, n * n / 4, 1..=8))
                    })
                    .collect();
                let mut stream = Vec::new();
                // Instance `c` holds pool graph `(c + 1) % POOL`, so every
                // load replaces a different graph and starts cold.
                for c in 0..INSTANCES {
                    let g = (c + 1) % POOL;
                    stream.push(op(g, Query::Load));
                    keep.push(true);
                    for source in distinct(&mut rng, n, CYCLE - 1) {
                        stream.push(op(
                            g,
                            Query::Sssp {
                                source,
                                target: None,
                            },
                        ));
                        keep.push(rng.gen_range(0..4u32) == 0);
                    }
                }
                Self {
                    graphs,
                    setup: vec![
                        op(0, Query::Load),
                        op(
                            0,
                            Query::Sssp {
                                source: 0,
                                target: None,
                            },
                        ),
                    ],
                    warmup: Vec::new(),
                    stream,
                    keep: Vec::new(),
                    lines: Vec::new(),
                    traffic: Traffic::Closed { conns: 1, depth: 1 },
                    replay_ops: 400,
                    params: Json::obj(vec![
                        (
                            "graphs",
                            Json::Str("pool of 8 x gnm n=1024 m=n^2/4, lengths 1..=8".into()),
                        ),
                        (
                            "mix",
                            Json::Str(
                                "load_graph every 40th op, else sssp from distinct sources".into(),
                            ),
                        ),
                        ("loop", Json::Str("closed".into())),
                        ("connections", Json::UInt(1)),
                        ("pipeline_depth", Json::UInt(1)),
                    ]),
                }
            }
        };
        w.keep = keep;
        w.lines = w.render(&w.stream);
        w
    }

    fn request(&self, op: Op) -> Request {
        let g = &self.graphs[op.graph];
        let graph = g.name.clone();
        let cache = CacheMode::Default;
        match op.q {
            Query::Sssp { source, target } => Request::Sssp {
                graph,
                source,
                target,
                cache,
            },
            Query::Khop { source, k } => Request::Khop {
                graph,
                source,
                k,
                cache,
            },
            Query::ApspRow { source } => Request::ApspRow {
                graph,
                source,
                cache,
            },
            Query::Stats => Request::GraphStats { graph },
            Query::Load => Request::LoadGraph {
                name: graph,
                dimacs: g.dimacs.to_string(),
            },
        }
    }

    /// Newline-terminated request lines; a graph's load line is rendered
    /// once and shared.
    fn render(&self, ops: &[Op]) -> Vec<Arc<[u8]>> {
        self.render_with(ops, false)
    }

    /// [`Self::render`] with a client trace id on every query, which makes
    /// the server trace it.
    fn render_traced(&self, ops: &[Op]) -> Vec<Arc<[u8]>> {
        self.render_with(ops, true)
    }

    fn render_with(&self, ops: &[Op], traced: bool) -> Vec<Arc<[u8]>> {
        let mut loads: HashMap<usize, Arc<[u8]>> = HashMap::new();
        let one = |i: usize, op: Op| -> Arc<[u8]> {
            let mut env = Envelope::of(self.request(op));
            env.trace_id = (traced && !matches!(op.q, Query::Load)).then_some(i as u64 + 1);
            let mut line = request_json(&env).to_string();
            line.push('\n');
            line.into_bytes().into()
        };
        ops.iter()
            .enumerate()
            .map(|(i, &op)| match op.q {
                Query::Load => Arc::clone(loads.entry(op.graph).or_insert_with(|| one(i, op))),
                _ => one(i, op),
            })
            .collect()
    }

    /// The load generator's tag for op `i`: whether its answer is checked,
    /// and its latency class (1 for `sssp`, which `shard.io_residual_p50_us`
    /// compares with the server's own `sssp` time; 0 otherwise).
    fn tag_fn(&self) -> impl Fn(usize) -> (bool, usize) + Sync + '_ {
        move |i| {
            let sssp = matches!(self.stream[i % self.stream.len()].q, Query::Sssp { .. });
            (
                self.keep.get(i).copied().unwrap_or(false),
                usize::from(sssp),
            )
        }
    }
}

/// Blocking request/response over one connection (set-up and control).
struct Control {
    writer: std::net::TcpStream,
    reader: std::io::BufReader<std::net::TcpStream>,
}

impl Control {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = std::net::TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = std::io::BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    fn call(&mut self, line: &[u8]) -> Result<String, String> {
        use std::io::{BufRead, Write};
        self.writer.write_all(line).map_err(|e| e.to_string())?;
        let mut out = String::new();
        self.reader.read_line(&mut out).map_err(|e| e.to_string())?;
        if out.is_empty() {
            return Err("connection closed".into());
        }
        Ok(out)
    }
}

fn start_server(traced: bool) -> LoopbackServer {
    let mut config = ServerConfig::default();
    if traced {
        // Armed, so client-supplied trace ids are honoured, but sampling
        // (practically) nothing on its own.
        config.trace = TraceConfig {
            sample_one_in: u32::MAX,
            ring_capacity: 4096,
            ..TraceConfig::default()
        };
    }
    LoopbackServer::start(config)
}

/// Generates the workload, starts a server and runs the set-up ops:
/// graph loads and a first compile of every (graph, algorithm).
fn setup(kind: Kind, args: &Args, traced: bool) -> Result<(Workload, LoopbackServer, f64), String> {
    let t0 = Instant::now();
    let rate = match (kind, args.engine_rate) {
        (Kind::Engine, None) => return Err("serve_engine needs --engine-rate".into()),
        (_, rate) => rate.unwrap_or(0.0),
    };
    let wl = Workload::generate(kind, args.seed, args.seconds, rate);
    let server = start_server(traced);
    let mut ctl = Control::connect(server.addr).map_err(|e| e.to_string())?;
    for line in wl.render(&wl.setup) {
        let resp = ctl.call(&line)?;
        if !resp.contains("\"status\":\"ok\"") {
            return Err(format!("set-up op failed: {}", resp.trim()));
        }
    }
    Ok((wl, server, t0.elapsed().as_secs_f64()))
}

fn warm_up(wl: &Workload, server: &LoopbackServer) -> Result<(), String> {
    let mut ctl = Control::connect(server.addr).map_err(|e| e.to_string())?;
    for line in wl.render(&wl.warmup) {
        ctl.call(&line)?;
    }
    Ok(())
}

/// Drives `lines` (the stream, or its traced twin) from op `first` for
/// `share` of the run: that share of the open-loop schedule, or of the
/// closed-loop window. Returns the log and the next op of the stream.
fn drive(
    wl: &Workload,
    server: &LoopbackServer,
    lines: &[Arc<[u8]>],
    first: usize,
    seconds: f64,
    share: f64,
) -> Result<(RunLog, usize), String> {
    let tag = wl.tag_fn();
    match wl.traffic {
        Traffic::Open { rate } => {
            let last = (first + (lines.len() as f64 * share).ceil() as usize).min(lines.len());
            open_loop(server.addr, lines, (first, last), rate, &tag).map(|log| (log, last))
        }
        Traffic::Closed { conns, depth } => closed_loop(
            server.addr,
            lines,
            first,
            conns,
            depth,
            Duration::from_secs_f64(seconds * share),
            &tag,
        ),
    }
    .map_err(|e| format!("load generator: {e}"))
}

fn control_json(server: &LoopbackServer, op: &str) -> Result<Json, String> {
    let line = server.session().call_line(&format!("{{\"op\":\"{op}\"}}"));
    let v = parse_json(&line).map_err(|e| format!("{op}: {e:?}"))?;
    match parse_response(&v)? {
        (_, Response::Ok { data, .. }) => Ok(data),
        (_, Response::Error { message, .. }) => Err(format!("{op}: {message}")),
    }
}

// ---- correctness -------------------------------------------------------

enum Expect {
    Row(Arc<Vec<Option<Len>>>),
    One(Option<Len>),
    Shape { n: usize, m: usize },
}

/// Reference answers for every checked stream op, computed before timing.
fn expectations(wl: &Workload) -> Vec<Option<Expect>> {
    type Row = Arc<Vec<Option<Len>>>;
    let mut rows: HashMap<(usize, usize, u32), Row> = HashMap::new();
    let mut row = |g: usize, source: usize, k: u32| {
        Arc::clone(rows.entry((g, source, k)).or_insert_with(|| {
            let graph = &wl.graphs[g].graph;
            Arc::new(if k == 0 {
                dijkstra(graph, source).distances
            } else {
                bellman_ford_khop(graph, source, k).distances
            })
        }))
    };
    wl.stream
        .iter()
        .zip(&wl.keep)
        .map(|(op, &keep)| {
            keep.then(|| {
                let g = &wl.graphs[op.graph].graph;
                match op.q {
                    Query::Sssp {
                        source,
                        target: Some(t),
                    } => Expect::One(row(op.graph, source, 0)[t]),
                    Query::Sssp {
                        source,
                        target: None,
                    }
                    | Query::ApspRow { source } => Expect::Row(row(op.graph, source, 0)),
                    Query::Khop { source, k } => Expect::Row(row(op.graph, source, k)),
                    Query::Stats | Query::Load => Expect::Shape { n: g.n(), m: g.m() },
                }
            })
        })
        .collect()
}

fn check_one(body: &str, expect: &Expect) -> Result<(), String> {
    let v = parse_json(body).map_err(|e| format!("unparseable response: {e:?}"))?;
    let data = match parse_response(&v)? {
        (_, Response::Ok { data, .. }) => data,
        // A typed error is a failure, counted as such, not a wrong answer.
        (_, Response::Error { .. }) => return Ok(()),
    };
    let field = |k: &str| data.get(k).ok_or_else(|| format!("response lacks {k:?}"));
    match expect {
        Expect::Row(want) => {
            let got = parse_distances(field("distances")?)?;
            if got != **want {
                let bad = got.iter().zip(want.iter()).position(|(a, b)| a != b);
                return Err(format!(
                    "distance row differs from the reference at node {bad:?}"
                ));
            }
        }
        Expect::One(want) => {
            let got = field("distance")?.as_u64();
            if got != *want {
                return Err(format!("target distance {got:?}, reference {want:?}"));
            }
        }
        Expect::Shape { n, m } => {
            let got = (field("n")?.as_u64(), field("m")?.as_u64());
            if got != (Some(*n as u64), Some(*m as u64)) {
                return Err(format!("graph shape {got:?}, expected n={n} m={m}"));
            }
        }
    }
    Ok(())
}

/// Checks every retained answer; returns how many were checked.
fn check(log: &RunLog, expect: &[Option<Expect>]) -> Result<usize, String> {
    let mut checked = 0;
    for (op, body) in &log.bodies {
        if let Some(Some(e)) = expect.get(*op) {
            check_one(body, e).map_err(|m| format!("wrong answer for op {op}: {m}"))?;
            checked += 1;
        }
    }
    Ok(checked)
}

// ---- measured workload properties ---------------------------------------

/// The engine `Auto` picks for each (graph, algorithm) the workload uses,
/// found by building the network the serve cache compiles.
fn engines(wl: &Workload) -> HashMap<(usize, Algo), &'static str> {
    let mut out = HashMap::new();
    for op in wl.setup.iter().chain(&wl.warmup).chain(&wl.stream) {
        if let Some(algo) = op.algo() {
            out.entry((op.graph, algo)).or_insert_with(|| {
                let g = &wl.graphs[op.graph].graph;
                let net: Network = match algo {
                    Algo::Sssp => sgl_core::sssp_pseudo::SpikingSssp::new(g, 0).build_network(),
                    Algo::Khop(k) => sgl_core::khop_layered::build_network(g, k),
                };
                engine_name(EngineChoice::Auto.resolve(&net))
            });
        }
    }
    out
}

fn engine_name(choice: EngineChoice) -> &'static str {
    match choice {
        EngineChoice::Event => "event",
        EngineChoice::Bitplane => "bitplane",
        EngineChoice::Dense => "dense",
        EngineChoice::Partitioned { .. } => "partitioned",
        EngineChoice::Parallel(_) | EngineChoice::Auto => "other",
    }
}

/// Shares of the first `sent` stream ops that hit the memo, write, and
/// run on each engine, from the op stream and the server's memo rules.
fn properties(
    wl: &Workload,
    sent: usize,
    engine_of: &HashMap<(usize, Algo), &'static str>,
) -> Json {
    let mut memo: HashSet<(usize, ResultKey)> = HashSet::new();
    let mut loaded: HashMap<&str, usize> = HashMap::new();
    let (mut hits, mut writes, mut queries) = (0usize, 0usize, 0usize);
    let mut per_engine: HashMap<&'static str, usize> = HashMap::new();
    let prefix = wl.setup.iter().chain(&wl.warmup).count();
    let ops = wl
        .setup
        .iter()
        .chain(&wl.warmup)
        .copied()
        .chain((0..sent).map(|i| wl.stream[i % wl.stream.len()]));
    for (i, op) in ops.enumerate() {
        let measured = i >= prefix;
        let name = wl.graphs[op.graph].name.as_str();
        if matches!(op.q, Query::Load) {
            if loaded.insert(name, op.graph) != Some(op.graph) {
                memo.retain(|(g, _)| wl.graphs[*g].name != name);
            }
            writes += usize::from(measured);
            continue;
        }
        let Some(key) = op.memo_key() else { continue };
        let hit = !memo.insert((op.graph, key));
        if measured {
            queries += 1;
            if hit {
                hits += 1;
            } else if let Some(algo) = op.algo() {
                *per_engine.entry(engine_of[&(op.graph, algo)]).or_default() += 1;
            }
        }
    }
    let total = sent.max(1) as f64;
    let mut engines: Vec<_> = per_engine.into_iter().collect();
    engines.sort_unstable();
    Json::obj(vec![
        ("ops", Json::UInt(sent as u64)),
        (
            "memo_hit_share",
            Json::Num(hits as f64 / queries.max(1) as f64),
        ),
        ("write_share", Json::Num(writes as f64 / total)),
        (
            "engine_share",
            Json::Obj(
                engines
                    .into_iter()
                    .map(|(e, c)| (e.to_string(), Json::Num(c as f64 / queries.max(1) as f64)))
                    .collect(),
            ),
        ),
    ])
}

// ---- traced replay -------------------------------------------------------

#[derive(Default)]
struct EngineRuns {
    ns: Vec<u64>,
    deliveries: u64,
}

/// What a traced replay measured, beside its spans.
#[derive(Default)]
struct ReplayOut {
    per_engine: HashMap<&'static str, EngineRuns>,
    runs: u64,
    steps: u64,
    spikes: u64,
    deliveries: u64,
    compile_ms: Vec<f64>,
    memo_lookups: usize,
    memo_hits: usize,
    net_hits: usize,
    net_lookups: usize,
    response_bytes: Vec<usize>,
    dimacs_bytes: Vec<usize>,
    /// Resident compiled-network and memoized-answer bytes at the end.
    net_bytes: usize,
    memo_bytes: u64,
}

/// Replay state: the server's registry and caches, rebuilt in-process.
struct Replay<'a> {
    reg: GraphRegistry,
    cache: NetCache,
    scratch: RunScratch,
    tr: Tracer,
    engine_of: &'a HashMap<(usize, Algo), &'static str>,
    out: ReplayOut,
}

/// Replays set-up, warm-up and the first `replay_ops` stream ops through
/// the library calls the server makes, with spans around each call. Only
/// the stream ops count toward the hit ratios.
fn replay(
    wl: &Workload,
    engine_of: &HashMap<(usize, Algo), &'static str>,
) -> Result<(Tracer, ReplayOut), String> {
    let mut st = Replay {
        reg: GraphRegistry::default(),
        cache: NetCache::new(),
        scratch: RunScratch::new(),
        tr: Tracer::new(),
        engine_of,
        out: ReplayOut::default(),
    };
    let stream: Vec<Op> = (0..wl.replay_ops)
        .map(|i| wl.stream[i % wl.stream.len()])
        .collect();
    let mut req = 0u64;
    for (ops, measured) in [(&wl.setup[..], false), (&wl.warmup, false), (&stream, true)] {
        for (op, line) in ops.iter().zip(&wl.render(ops)) {
            replay_op(&mut st, *op, line, req, measured)?;
            req += 1;
        }
    }
    let (_, net_bytes, _, memo_bytes) = st.reg.resident_footprint();
    st.out.net_bytes = net_bytes;
    st.out.memo_bytes = memo_bytes;
    Ok((st.tr, st.out))
}

fn replay_op(
    st: &mut Replay<'_>,
    op: Op,
    line: &[u8],
    req: u64,
    measured: bool,
) -> Result<(), String> {
    let Replay {
        reg,
        cache,
        scratch,
        tr,
        engine_of,
        out,
    } = st;
    let root = Some(tr.open("request", None, req));
    let s = tr.open("protocol.parse", root, req);
    let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
    let env = sgl_serve::protocol::parse_request(
        &parse_json(text.trim_end()).map_err(|e| format!("{e:?}"))?,
    )?;
    tr.close(s);
    let line = match env.request {
        Request::LoadGraph { name, dimacs } => {
            let s = tr.open("io.parse_dimacs", root, req);
            let g = parse_dimacs(&dimacs).map_err(|e| e.to_string())?;
            tr.close(s);
            out.dimacs_bytes.push(dimacs.len());
            let s = tr.open("cache.registry_insert", root, req);
            let h = reg.insert(&name, g);
            tr.close(s);
            let data = Json::obj(vec![
                ("name", Json::Str(h.name.clone())),
                ("n", Json::UInt(h.graph.n() as u64)),
                ("m", Json::UInt(h.graph.m() as u64)),
                ("fingerprint", Json::UInt(h.fingerprint)),
            ]);
            render(
                tr,
                root,
                req,
                &Response::Ok {
                    op: OpKind::LoadGraph,
                    data,
                },
            )
        }
        Request::GraphStats { graph } => {
            let h = reg.get(&graph).ok_or("replay: unknown graph")?;
            let s = tr.open("cache.graph_stats", root, req);
            let data = h.stats_or_compute(|| {
                let st = GraphStats::compute(&h.graph, 0);
                Json::obj(vec![
                    ("name", Json::Str(h.name.clone())),
                    ("n", Json::UInt(st.n as u64)),
                    ("m", Json::UInt(st.m as u64)),
                    ("u_max", Json::UInt(st.u_max)),
                    ("density", Json::Num(st.density)),
                    ("reachable_from_0", Json::UInt(st.reachable as u64)),
                ])
            });
            tr.close(s);
            render(
                tr,
                root,
                req,
                &Response::Ok {
                    op: OpKind::GraphStats,
                    data,
                },
            )
        }
        request => {
            let name = request.graph_name().ok_or("replay: query without graph")?;
            let h = reg.get(name).ok_or("replay: unknown graph")?;
            let (source, target, k) = match op.q {
                Query::Sssp { source, target } => (source, target, None),
                Query::Khop { source, k } => (source, None, Some(k)),
                Query::ApspRow { source } => (source, None, None),
                Query::Stats | Query::Load => return Err("replay: not a query".into()),
            };
            let algo = op.algo().expect("a query has an algorithm");
            let key = op.memo_key().expect("a query has a memo key");
            let s = tr.open("cache.memo_lookup", root, req);
            let hit = h.cached_rendered(&key);
            tr.close(s);
            if measured {
                out.memo_lookups += 1;
                out.memo_hits += usize::from(hit.is_some());
            }
            if let Some(rendered) = hit {
                render(
                    tr,
                    root,
                    req,
                    &Response::Ok {
                        op: request.kind(),
                        data: Json::Raw(rendered),
                    },
                )
            } else {
                let s = tr.open("cache.get_or_compile", root, req);
                let (net, outcome) = cache.get_or_compile(&h, algo);
                tr.close(s);
                if measured {
                    out.net_lookups += 1;
                    out.net_hits += usize::from(outcome == CacheOutcome::Hit);
                }
                if outcome != CacheOutcome::Hit {
                    // The compile ran at the end of the lookup span; place
                    // its build/load phases there, as the server's own
                    // trace does.
                    out.compile_ms.push(net.compile_time().as_secs_f64() * 1e3);
                    let (build, load) = net.phase_times();
                    let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
                    let span = &tr.spans()[s];
                    let (lo, end) = (span.start_ns, span.end_ns);
                    let b0 = end.saturating_sub(ns(build) + ns(load)).max(lo);
                    let b1 = (b0 + ns(build)).min(end);
                    let build_name = if k.is_some() {
                        "core.khop_build"
                    } else {
                        "core.sssp_build"
                    };
                    tr.record(build_name, b0, b1, Some(s), req);
                    tr.record("cache.compile_load", b1, end, Some(s), req);
                }
                let s = tr.open("engine.run", root, req);
                let run = net
                    .run(source, target, scratch)
                    .map_err(|e| e.to_string())?;
                tr.close(s);
                let span = &tr.spans()[s];
                let runs = out
                    .per_engine
                    .entry(engine_of[&(op.graph, algo)])
                    .or_default();
                runs.ns.push(span.end_ns - span.start_ns);
                runs.deliveries += run.stats.synaptic_deliveries;
                out.runs += 1;
                out.steps += run.steps;
                out.spikes += run.stats.spike_events;
                out.deliveries += run.stats.synaptic_deliveries;
                let s = tr.open("engine.readout", root, req);
                let distances = net.decode(&run);
                tr.close(s);
                // Render the answer, then memoize it with `cache: "hit"`,
                // as the server does.
                let s = tr.open("protocol.render", root, req);
                let mut fields = vec![("source", Json::UInt(source as u64))];
                if let Some(k) = k {
                    fields.push(("k", Json::UInt(u64::from(k))));
                }
                if let Some(t) = target {
                    fields.push(("target", Json::UInt(t as u64)));
                    fields.push(("distance", distances[t].map_or(Json::Null, Json::UInt)));
                } else {
                    fields.push((
                        "reachable",
                        Json::UInt(distances.iter().flatten().count() as u64),
                    ));
                    fields.push(("distances", distances_json(&distances)));
                }
                let mut response_fields = fields.clone();
                response_fields.push(("cache", Json::Str(outcome.as_str().into())));
                let line = Response::Ok {
                    op: request.kind(),
                    data: Json::obj(response_fields),
                }
                .to_json(None)
                .to_string();
                tr.close(s);
                let s = tr.open("cache.memo_store", root, req);
                fields.push(("cache", Json::Str("hit".into())));
                let data = Json::obj(fields);
                let rendered: Arc<str> = data.to_string().into();
                h.store_result(key, CachedResult { data, rendered });
                tr.close(s);
                line
            }
        }
    };
    out.response_bytes.push(line.len() + 1);
    if let Some(r) = root {
        tr.close(r);
    }
    Ok(())
}

/// Renders a response line inside a `protocol.render` span.
fn render(tr: &mut Tracer, root: Option<usize>, req: u64, response: &Response) -> String {
    let s = tr.open("protocol.render", root, req);
    let line = response.to_json(None).to_string();
    tr.close(s);
    line
}

// ---- entry point -----------------------------------------------------------

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Engine => "serve_engine",
        Kind::Hot => "serve_hot",
        Kind::Reload => "serve_reload",
    }
}

fn num_at(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for k in path {
        match cur.get(k) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Runs one serving workload and prints its result.
///
/// # Errors
/// Any wrong answer, failed set-up, or rejected trace.
pub fn run(kind: Kind, args: &Args) -> Result<(), String> {
    let name = kind_name(kind);
    if !args.trace {
        let ((wl, server), setups) = crate::repeat_setup(|| {
            setup(kind, args, false).map(|(wl, server, secs)| ((wl, server), secs))
        })?;
        let expect = expectations(&wl);
        warm_up(&wl, &server)?;
        let (log, _) = drive(&wl, &server, &wl.lines, 0, args.seconds, 1.0)?;
        // Before the summaries below allocate their sorted copies.
        let peak_rss_mb = report::peak_rss_mb();
        server.stop();
        let checked = check(&log, &expect)?;
        let engine_of = engines(&wl);
        let lat = Summary::of(&log.ok_all()).ok_or("no successful operations")?;
        let metrics = vec![
            Metric::new("qps", log.ok_per_sec(), "1/s", log.ok_count()),
            Metric::new("latency_p50_ms", lat.p50, "ms", lat.n),
            Metric::new(
                "ok_frac",
                (log.attempted - log.failed()) as f64 / log.attempted.max(1) as f64,
                "ratio",
                log.attempted,
            ),
            Metric::new("setup_s", stats::median(&setups), "s", setups.len()),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1),
        ];
        println!(
            "{name}: {} attempted, {} failed, {checked} answers checked, {} set-ups",
            log.attempted,
            log.failed(),
            setups.len()
        );
        println!("latency_ms of {} ok ops: {}", lat.n, lat.describe());
        let report = Json::obj(vec![
            ("workload", Json::Str(name.into())),
            ("seed", Json::UInt(args.seed)),
            ("seconds", Json::Num(args.seconds)),
            ("machine", report::machine_facts()),
            ("params", wl.params.clone()),
            ("properties", properties(&wl, log.attempted, &engine_of)),
            ("latency_ms", Json::Str(lat.describe())),
            ("answers_checked", Json::UInt(checked as u64)),
        ]);
        report::finish(report, &metrics, log.attempted, log.failed());
        return Ok(());
    }

    // Traced run. One server with tracing armed but sampling nothing: the
    // first half of the run sends plain requests, the second half the same
    // stream with client trace ids, which the server traces in full. Both
    // halves see the same process state, so their latency difference is
    // the tracing overhead. Then a library replay records spans around
    // every public call.
    let (wl, server, _) = setup(kind, args, true)?;
    let expect = expectations(&wl);
    warm_up(&wl, &server)?;
    let (log_u, next) = drive(&wl, &server, &wl.lines, 0, args.seconds, 0.5)?;
    let stats_u = control_json(&server, "server_stats")?;
    let traced_lines = wl.render_traced(&wl.stream);
    let (log_t, _) = drive(&wl, &server, &traced_lines, next, args.seconds, 0.5)?;
    let dump = control_json(&server, "trace_dump")?;
    server.stop();
    let mut checked = check(&log_u, &expect)?;
    checked += check(&log_t, &expect)?;
    report::write_and_check_trace(
        &dump,
        &args
            .out_dir
            .join(format!("{name}-seed{}-server.trace.json", args.seed)),
        &args.trace_check,
    )?;

    let engine_of = engines(&wl);
    let (tr, out) = replay(&wl, &engine_of)?;
    report::write_and_check_trace(
        &spans::chrome_json(tr.spans()),
        &args
            .out_dir
            .join(format!("{name}-seed{}-spans.trace.json", args.seed)),
        &args.trace_check,
    )?;
    let rows = spans::layer_table(tr.spans());
    println!(
        "{name}: traced replay of {} ops",
        wl.setup.len() + wl.warmup.len() + wl.replay_ops
    );
    report::print_layer_table(&rows);
    print_server_stages(&dump);

    let lat_u = Summary::of(&log_u.ok_all()).ok_or("no successful operations")?;
    let lat_t = Summary::of(&log_t.ok_all()).ok_or("no successful traced operations")?;
    let mut metrics = layer_metrics(tr.spans(), &out);
    let client_sssp_p50_us = log_u.ok[1].quantile(0.5).map_or(0.0, |ns| ns / 1e3);
    let late_p99 = log_u.lateness.quantile(0.99).map_or(0.0, |ns| ns / 1e6);
    metrics.extend([
        Metric::new(
            "admission.queue_wait_p50_us",
            num_at(&stats_u, &["queue", "wait", "p50_us"]),
            "us",
            1,
        ),
        Metric::new(
            "admission.queue_wait_p99_us",
            num_at(&stats_u, &["queue", "wait", "p99_us"]),
            "us",
            1,
        ),
        Metric::new(
            "admission.depth_at_pop_p50",
            num_at(&stats_u, &["queue", "depth_at_pop", "p50"]),
            "count",
            1,
        ),
        Metric::new(
            "shard.io_residual_p50_us",
            client_sssp_p50_us - num_at(&stats_u, &["ops", "sssp", "p50_us"]),
            "us",
            log_u.ok[1].count() as usize,
        ),
        Metric::new(
            "gen.late_p99_ms",
            late_p99,
            "ms",
            log_u.lateness.count() as usize,
        ),
        Metric::new(
            "trace.overhead_frac",
            (lat_t.p50 - lat_u.p50) / lat_u.p50,
            "ratio",
            lat_t.n,
        ),
    ]);
    let attempted = log_u.attempted + log_t.attempted;
    let failed = log_u.failed() + log_t.failed();
    println!("{name}: {attempted} attempted, {failed} failed, {checked} answers checked");
    let report = Json::obj(vec![
        ("workload", Json::Str(name.into())),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("machine", report::machine_facts()),
        ("params", wl.params.clone()),
        ("properties", properties(&wl, log_u.attempted, &engine_of)),
        ("answers_checked", Json::UInt(checked as u64)),
    ]);
    crate::finish_traced(report, metrics, attempted, failed);
    Ok(())
}

/// Prints the median duration of each stage in the server's own trace
/// dump: the stages no public function exposes (queue wait, reactor write).
fn print_server_stages(dump: &Json) {
    let Some(events) = dump.get("traceEvents").and_then(Json::as_arr) else {
        return;
    };
    let mut by: Vec<(String, Vec<f64>)> = Vec::new();
    for ev in events {
        let (Some(name), Some(dur)) = (
            ev.get("name").and_then(Json::as_str),
            ev.get("dur").and_then(Json::as_f64),
        ) else {
            continue;
        };
        match by.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => v.push(dur),
            None => by.push((name.to_string(), vec![dur])),
        }
    }
    println!(
        "{:<26} {:>8} {:>14}",
        "server stage (span)", "count", "p50_us"
    );
    for (name, v) in by {
        println!("{:<26} {:>8} {:>14.2}", name, v.len(), stats::median(&v));
    }
}

fn layer_metrics(spans: &[spans::Span], out: &ReplayOut) -> Vec<Metric> {
    let selfs = spans::self_times(spans);
    let med = |name: &str, scale: f64| -> (f64, usize) {
        let v: Vec<f64> = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t as f64 / scale)
            .collect();
        (if v.is_empty() { 0.0 } else { stats::median(&v) }, v.len())
    };
    let mut m = Vec::new();
    for (engine, run_name, per_name) in [
        (
            "event",
            "engine.event.run_ms",
            "engine.event.ns_per_delivery",
        ),
        (
            "bitplane",
            "engine.bitplane.run_ms",
            "engine.bitplane.ns_per_delivery",
        ),
    ] {
        let runs = out.per_engine.get(engine);
        let ns: Vec<f64> = runs.map_or(Vec::new(), |r| {
            r.ns.iter().map(|&x| x as f64 / 1e6).collect()
        });
        let total_ns: u64 = runs.map_or(0, |r| r.ns.iter().sum());
        let deliveries = runs.map_or(0, |r| r.deliveries);
        m.push(Metric::new(
            run_name,
            if ns.is_empty() {
                0.0
            } else {
                stats::median(&ns)
            },
            "ms",
            ns.len(),
        ));
        m.push(Metric::new(
            per_name,
            if deliveries == 0 {
                0.0
            } else {
                total_ns as f64 / deliveries as f64
            },
            "ns",
            ns.len(),
        ));
    }
    let (readout, n_readout) = med("engine.readout", 1e3);
    let runs = out.runs.max(1) as f64;
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (parse, n_parse) = med("protocol.parse", 1e3);
    let (render, n_render) = med("protocol.render", 1e3);
    let (io, n_io) = med("io.parse_dimacs", 1e6);
    let (sssp_build, n_sb) = med("core.sssp_build", 1e6);
    let (khop_build, n_kb) = med("core.khop_build", 1e6);
    let (load, n_load) = med("cache.compile_load", 1e6);
    let mean = |v: &[usize]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<usize>() as f64 / v.len() as f64
        }
    };
    m.extend([
        Metric::new("engine.readout_us", readout, "us", n_readout),
        Metric::new(
            "engine.sim_steps",
            out.steps as f64 / runs,
            "count",
            out.runs as usize,
        ),
        Metric::new(
            "engine.spikes",
            out.spikes as f64 / runs,
            "count",
            out.runs as usize,
        ),
        Metric::new(
            "engine.deliveries",
            out.deliveries as f64 / runs,
            "count",
            out.runs as usize,
        ),
        Metric::new("core.sssp_build_ms", sssp_build, "ms", n_sb),
        Metric::new("core.khop_build_ms", khop_build, "ms", n_kb),
        Metric::new("io.parse_ms", io, "ms", n_io),
        Metric::new(
            "io.dimacs_mb",
            mean(&out.dimacs_bytes) / 1e6,
            "MB",
            out.dimacs_bytes.len(),
        ),
        Metric::new(
            "cache.compile_ms",
            if out.compile_ms.is_empty() {
                0.0
            } else {
                stats::median(&out.compile_ms)
            },
            "ms",
            out.compile_ms.len(),
        ),
        Metric::new("cache.compile_load_ms", load, "ms", n_load),
        Metric::new("cache.compiles", out.compile_ms.len() as f64, "count", 1),
        Metric::new("cache.memo_mb", out.memo_bytes as f64 / 1e6, "MB", 1),
        Metric::new("cache.net_mb", out.net_bytes as f64 / 1e6, "MB", 1),
        Metric::new(
            "cache.memo_hit_ratio",
            ratio(out.memo_hits, out.memo_lookups),
            "ratio",
            out.memo_lookups,
        ),
        Metric::new(
            "cache.net_hit_ratio",
            ratio(out.net_hits, out.net_lookups),
            "ratio",
            out.net_lookups,
        ),
        Metric::new("protocol.parse_us", parse, "us", n_parse),
        Metric::new("protocol.render_us", render, "us", n_render),
        Metric::new(
            "protocol.response_kb",
            mean(&out.response_bytes) / 1024.0,
            "KB",
            out.response_bytes.len(),
        ),
    ]);
    m
}
