//! # sgl-serve — a graph-query service over compiled spiking networks
//!
//! The paper's constructions have an unusual serving profile: the §3 SSSP
//! network and the layered k-hop network are **source-independent** — a
//! query's source is a `t = 0` stimulus, nothing more. So the expensive
//! step (compiling a graph into a resident spiking network) is shared
//! across every query against that graph, and a long-running service
//! amortizes it the way `sgl_core::apsp` does within one batch. This
//! crate is that service:
//!
//! * [`protocol`] — JSON-lines requests/responses with typed errors
//!   (`overloaded`, `draining`, `deadline_exceeded`, …).
//! * [`cache`] — the graph registry and the compiled-network cache:
//!   entries live on their [`cache::GraphHandle`], keyed by
//!   `(algorithm, params)`, so a network can only ever answer for the
//!   exact graph it was compiled from.
//! * [`admission`] — per-shard bounded queues, load shedding, deadlines,
//!   and the `Running → Draining → Stopped` lifecycle.
//! * [`reactor`] — readiness-based I/O: a minimal `poll(2)` wrapper
//!   with a self-pipe [`reactor::Waker`] (std-only FFI shim on Linux, a
//!   portable fallback elsewhere) plus the `RLIMIT_NOFILE` preflight.
//! * [`ring`] — the SPSC handoff ring the accept loop uses to pass
//!   accepted sockets to shards.
//! * [`shard`] — the shard event loop: each of N shards single-threadedly
//!   owns its connection set, registry partition, compiled-net cache,
//!   and run queue; graphs route to shards by FNV name hash, so a
//!   graph's networks live on exactly one shard with no cross-shard
//!   locking on the query path. A shard frames request lines off its
//!   sockets and hands each to the session's request intake.
//! * [`stats`] — cql-stress-style sharded statistics: per-shard
//!   [`sgl_observe::LogHistogram`] shards, combined on read, plus the
//!   per-shard balance gauges `server_stats` reports.
//! * [`session`] — the server core (shard spawning, routing, cross-shard
//!   stats/drain composition), the one request intake (parse → admit →
//!   render) that TCP connections and in-process calls share, and the
//!   in-process client ([`Session`]): the full service without sockets,
//!   for tests and embedding.
//! * [`trace`] — `sgl-trace`: request-scoped span capture across the
//!   pipeline (`accept → parse → admit → queue_wait → cache_lookup →
//!   compile → engine_run → serialize → write`), with sampling,
//!   slow-request retention, and Chrome trace-event export via the
//!   `trace_dump` op.
//! * [`tcp`] — the reactor-driven accept loop (idle server: zero
//!   syscalls) and [`tcp::LoopbackServer`].
//! * [`stress`] — the load harness behind the `sgl-stress` binary:
//!   closed- and open-loop generators, a thread-per-connection driver
//!   and a single-threaded reactor driver multiplexing thousands of
//!   pipelined connections, live interval reporting, and the cold/warm
//!   and connection-scaling measurements committed as
//!   `BENCH_serve.json`. That file gates reactor plus memo-splice
//!   throughput: its traffic hits the result memo at a ratio of about
//!   0.99999, so it times neither the engine nor row rendering. The
//!   served, engine-bound number is the repository benchmark's
//!   `serve_engine` workload (`perfbench/`).
//!
//! Binaries: `sgl-serve` (the daemon) and `sgl-stress` (the harness).

#![warn(missing_docs)]
// `deny`, not `forbid`: the reactor's poll(2) FFI shim carries the one
// module-scoped `#[allow(unsafe_code)]` in the crate.
#![deny(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod protocol;
pub mod reactor;
pub mod ring;
pub mod session;
pub mod shard;
pub mod stats;
pub mod stress;
pub mod tcp;
pub mod trace;

pub use admission::Lifecycle;
pub use cache::{Algo, CacheOutcome, CompiledNet, NetCache};
pub use protocol::{CacheMode, Envelope, ErrorKind, OpKind, Request, Response};
pub use session::{ServerConfig, Session};
pub use tcp::LoopbackServer;
pub use trace::{TraceConfig, Tracing};
