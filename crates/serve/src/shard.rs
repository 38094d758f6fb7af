//! The shard event loop: one thread that owns everything for its slice
//! of the server.
//!
//! Each shard is a single-threaded event loop owning its own non-blocking
//! connection set, graph-registry partition, compiled-network cache
//! entries (they live on the partition's handles), and local run queue.
//! Graphs route to shards by [`crate::cache::name_hash`], so a graph's
//! compiled networks and memoized results live on exactly one shard and
//! no cross-shard cache locking exists. The loop per iteration:
//!
//! 1. adopt connections handed off by the accept loop (the whole
//!    handoff queue, taken under one lock like the inbox in step 2),
//! 2. deliver reply lines mailed by other shards (pipelined responses
//!    stay in request order via per-connection sequence numbers),
//! 3. execute a batch of jobs from the shard's own admission queue
//!    (deadline checked at pop),
//! 4. flush ready responses, closing finished connections,
//! 5. exit if draining and every obligation is met,
//! 6. block in [`crate::reactor::Poller::wait`] until a socket is ready
//!    or a [`crate::reactor::Waker`] fires — an idle shard makes no
//!    syscalls at all,
//! 7. read readable sockets, frame complete lines, and pass each through
//!    the request intake shared with [`crate::session::Session`]
//!    (parse, then route/admit or run a control op, then render).
//!
//! A query line parsed on connection-owning shard A for a graph owned by
//! shard B is pushed onto B's queue with a [`ReplyTo::Conn`] address; B
//! executes, **serializes** (so rendering cost lands on the graph's
//! owner, next to its caches), and mails the finished line back to A's
//! inbox. A shard never exits the drain while any of its connections has
//! an unanswered pipelined request — that is what makes "every admitted
//! job is answered" hold across shard boundaries.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sgl_observe::trace::Stage;
use sgl_snn::engine::RunScratch;

use crate::admission::{Job, Lifecycle, ReplyTo};
use crate::protocol::{ErrorKind, Response};
use crate::reactor::{stream_fd, Event, Interest, Poller, Waker};
use crate::session::{execute_query, micros, parse_line, render, submit, ServerInner};
use crate::stats::Counters;
use crate::trace::TraceCtx;

/// Hard cap on one request line. A client streaming an endless line
/// would otherwise grow the accumulation buffer without bound; past this
/// it gets a `bad_request` and the connection is closed (framing can't
/// be resynchronized mid-line). Generous enough for `load_graph` DIMACS
/// payloads in the hundreds of thousands of edges.
pub(crate) const MAX_LINE_BYTES: usize = 16 << 20;

/// Jobs executed per loop iteration before I/O is serviced again, so a
/// deep queue cannot starve reads and writes. Each iteration pays one
/// `poll` (an O(connections) scan in the kernel), so the batch must be
/// large enough to amortize that scan at high connection counts.
const EXEC_BATCH: usize = 1024;

/// Capacity of each shard's connection-handoff queue. A full queue makes
/// the accept loop try the next shard, so bursts load-balance instead of
/// queueing unboundedly on one shard.
pub(crate) const HANDOFF_CAPACITY: usize = 1024;

/// A finished response line mailed from the executing shard back to the
/// connection-owning shard.
pub(crate) struct Reply {
    /// Connection id on the receiving shard.
    pub(crate) conn: u64,
    /// The pipelined-order slot this line fills.
    pub(crate) seq: u64,
    /// The rendered response line (no trailing newline).
    pub(crate) line: String,
    /// Span context still to record `write` and be finished.
    pub(crate) trace: Option<Box<TraceCtx>>,
}

/// A shard's cross-thread surface: everything other threads may touch.
/// The shard's private state (connections, poller, scratch) lives on its
/// own stack.
pub(crate) struct ShardIo {
    /// Interrupts the shard's poll wait.
    pub(crate) waker: Waker,
    /// Reply lines from other shards.
    pub(crate) inbox: Mutex<VecDeque<Reply>>,
    /// Connections handed off by the accept loop.
    pub(crate) handoff: Mutex<VecDeque<TcpStream>>,
}

impl ShardIo {
    /// Whether a handed-off connection or a mailed reply is waiting.
    fn has_mail(&self) -> bool {
        !self.handoff.lock().expect("shard handoff").is_empty()
            || !self.inbox.lock().expect("shard inbox").is_empty()
    }
}

enum PendingState {
    /// Executing on some shard; the reply will arrive by mail.
    Waiting,
    /// Rendered and ready to write once every earlier response is out.
    Ready {
        line: String,
        trace: Option<Box<TraceCtx>>,
    },
}

struct Pending {
    seq: u64,
    state: PendingState,
}

struct Conn {
    stream: TcpStream,
    /// Partial-line accumulation across reads (a request spanning
    /// multiple reads must never be truncated or re-framed).
    rbuf: Vec<u8>,
    /// Serialized-but-unsent bytes (socket buffer was full).
    wbuf: Vec<u8>,
    /// Responses in request order; only the Ready prefix may be written.
    pending: VecDeque<Pending>,
    next_seq: u64,
    /// Client half-closed; answer what's pending, then close.
    eof: bool,
    /// Socket error; discard without further I/O.
    dead: bool,
    /// Whether the poller registration currently includes write interest.
    wants_write: bool,
    /// On the loop's dirty list (something to flush or re-check). Keeps
    /// per-iteration work proportional to touched connections, not held
    /// ones.
    dirty: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            pending: VecDeque::new(),
            next_seq: 0,
            eof: false,
            dead: false,
            wants_write: false,
            dirty: false,
        }
    }

    fn push_ready(&mut self, line: String) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(Pending {
            seq,
            state: PendingState::Ready { line, trace: None },
        });
    }
}

/// The shard thread body. Runs until the server drains and every
/// obligation of this shard — queued jobs, unanswered pipelined
/// requests, unflushed bytes — is met.
pub(crate) fn shard_loop(inner: &Arc<ServerInner>, me: usize, mut poller: Poller) {
    let mut scratch = RunScratch::new();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn: u64 = 1;
    let mut events: Vec<Event> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut dirty: Vec<u64> = Vec::new();
    let io = &inner.shard_io[me];
    loop {
        // 1. Adopt handed-off connections.
        let adopted = std::mem::take(&mut *io.handoff.lock().expect("shard handoff"));
        for stream in adopted {
            if stream.set_nonblocking(true).is_err() {
                Counters::gauge_dec(&inner.counters.connections);
                continue;
            }
            // One small JSON line each way per request: Nagle + delayed
            // ACK would add tens of milliseconds per round trip.
            let _ = stream.set_nodelay(true);
            let id = next_conn;
            next_conn += 1;
            poller.register(stream_fd(&stream), token(id), Interest::Read);
            Counters::gauge_inc(&inner.gauges[me].connections);
            conns.insert(id, Conn::new(stream));
        }

        // 2. Deliver cross-shard replies into their pipelined slots.
        let replies = std::mem::take(&mut *io.inbox.lock().expect("shard inbox"));
        for reply in replies {
            deliver(inner, &mut conns, reply, &mut dirty);
        }

        // 3. Execute a batch from this shard's own queue.
        for _ in 0..EXEC_BATCH {
            let Some(job) = inner.queues[me].try_pop() else {
                break;
            };
            execute_job(inner, me, job, &mut scratch, &mut conns, &mut dirty);
        }

        // 4. Flush ready responses on touched connections only, keep
        // write interest in sync, and close finished ones. A held-open
        // idle connection costs nothing here.
        for id in dirty.drain(..) {
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            conn.dirty = false;
            flush_conn(inner, conn);
            let want = !conn.wbuf.is_empty() && !conn.dead;
            if want != conn.wants_write {
                conn.wants_write = want;
                let interest = if want {
                    Interest::ReadWrite
                } else {
                    Interest::Read
                };
                poller.register(stream_fd(&conn.stream), token(id), interest);
            }
            let finished = conn.eof && conn.pending.is_empty() && conn.wbuf.is_empty();
            if conn.dead || finished {
                if let Some(conn) = conns.remove(&id) {
                    poller.deregister(token(id));
                    drop_conn(inner, me, conn);
                }
            }
        }

        // 5. Drain exit: only once nothing can owe this shard's clients
        // an answer. try_push rejects after drain began, so these
        // conditions can only become true, never false again.
        let draining = inner.queues[me].lifecycle() != Lifecycle::Running;
        if draining {
            let obligations = inner.queues[me].depth() > 0
                || io.has_mail()
                || conns
                    .values()
                    .any(|c| !c.dead && (!c.pending.is_empty() || !c.wbuf.is_empty()));
            if !obligations {
                for (id, conn) in conns.drain() {
                    poller.deregister(token(id));
                    drop_conn(inner, me, conn);
                }
                return;
            }
        }

        // 6. Wait for readiness or a wakeup. With work still queued poll
        // only collects already-pending I/O; an idle shard blocks
        // indefinitely and makes no syscalls until woken.
        let work_pending = inner.queues[me].depth() > 0 || io.has_mail();
        let timeout = if work_pending {
            Some(Duration::ZERO)
        } else if draining {
            // Safety-net tick while draining: every exit condition is
            // also event-driven, this just bounds a missed edge.
            Some(Duration::from_millis(50))
        } else {
            None
        };
        events.clear();
        if poller.wait(timeout, &mut events).is_err() {
            // A failing poll must not become a hot spin.
            std::thread::sleep(Duration::from_millis(1));
        }

        // 7. Service the sockets poll reported. Responses created here
        // (and any state change worth a close-check) flush in the next
        // iteration's step 4, before the loop polls again.
        for ev in &events {
            let id = ev.token as u64;
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if ev.readable {
                read_conn(inner, me, id, conn, &mut chunk);
            } else if ev.closed {
                conn.dead = true;
            }
            if !conn.dirty {
                conn.dirty = true;
                dirty.push(id);
            }
        }
    }
}

fn token(conn_id: u64) -> usize {
    usize::try_from(conn_id).unwrap_or(usize::MAX)
}

fn drop_conn(inner: &ServerInner, me: usize, conn: Conn) {
    // Traces of responses that will never be written still finish.
    for p in conn.pending {
        if let PendingState::Ready {
            trace: Some(ctx), ..
        } = p.state
        {
            inner.tracing.finish(ctx);
        }
    }
    Counters::gauge_dec(&inner.gauges[me].connections);
    Counters::gauge_dec(&inner.counters.connections);
}

/// Files a reply line into its connection's pipelined slot (or finishes
/// its trace if the connection is gone), marking the connection for the
/// next flush pass.
fn deliver(
    inner: &ServerInner,
    conns: &mut HashMap<u64, Conn>,
    reply: Reply,
    dirty: &mut Vec<u64>,
) {
    if let Some(conn) = conns.get_mut(&reply.conn) {
        if let Some(p) = conn.pending.iter_mut().find(|p| p.seq == reply.seq) {
            p.state = PendingState::Ready {
                line: reply.line,
                trace: reply.trace,
            };
            if !conn.dirty {
                conn.dirty = true;
                dirty.push(reply.conn);
            }
            return;
        }
    }
    if let Some(ctx) = reply.trace {
        inner.tracing.finish(ctx);
    }
}

/// Pops one job's worth of work: queue-wait accounting, deadline check
/// at pop, execution, and reply delivery (slot fill for in-process
/// callers; serialize-and-mail for TCP requests).
fn execute_job(
    inner: &Arc<ServerInner>,
    me: usize,
    mut job: Job,
    scratch: &mut RunScratch,
    conns: &mut HashMap<u64, Conn>,
    dirty: &mut Vec<u64>,
) {
    let popped = Instant::now();
    let waited = popped.duration_since(job.enqueued);
    let depth = inner.queues[me].depth() as u64;
    inner.stats.with_shard(me, |s| {
        s.queue_wait_us.record(micros(waited));
        s.queue_depth.record(depth);
    });
    if let Some(ctx) = job.trace.as_deref_mut() {
        // Starts exactly where the admit span ended (same instant).
        ctx.record(Stage::QueueWait, ctx.ns_at(job.enqueued), ctx.ns_at(popped));
    }
    let kind = job.envelope.request.kind();
    let response = if job.deadline.is_some_and(|d| waited > d) {
        Counters::bump(&inner.counters.deadline_exceeded);
        inner.stats.with_shard(me, |s| s.record(kind, 0, false));
        Response::error(
            ErrorKind::DeadlineExceeded,
            format!("waited {} µs in queue, past the deadline", micros(waited)),
        )
    } else {
        Counters::gauge_inc(&inner.counters.in_flight);
        Counters::gauge_inc(&inner.gauges[me].in_flight);
        // TCP replies splice the memoized pre-rendered bytes; in-process
        // callers need the structured value (they inspect fields).
        let prefer_raw = matches!(job.reply, ReplyTo::Conn { .. });
        let t0 = Instant::now();
        let response = execute_query(
            inner,
            &job.envelope.request,
            scratch,
            me,
            &mut job.trace,
            prefer_raw,
        );
        inner.stats.with_shard(me, |s| {
            s.record(kind, micros(t0.elapsed()), response.is_ok());
        });
        Counters::gauge_dec(&inner.gauges[me].in_flight);
        Counters::gauge_dec(&inner.counters.in_flight);
        response
    };
    // Every admitted job is answered — the drain-safety invariant.
    match job.reply {
        ReplyTo::Slot(slot) => slot.fill(response, job.trace),
        ReplyTo::Conn { shard, conn, seq } => {
            let mut trace = job.trace;
            let line = render(
                job.envelope.id,
                job.envelope.trace_id,
                &response,
                &mut trace,
            );
            let reply = Reply {
                conn,
                seq,
                line,
                trace,
            };
            if shard == me {
                deliver(inner, conns, reply, dirty);
            } else {
                inner.shard_io[shard]
                    .inbox
                    .lock()
                    .expect("shard inbox")
                    .push_back(reply);
                inner.shard_io[shard].waker.wake();
            }
        }
    }
}

/// Writes `wbuf` to the socket until at most `keep` bytes remain, the
/// socket would block, or the connection dies (`false`).
fn drain_wbuf(conn: &mut Conn, keep: usize) -> bool {
    while conn.wbuf.len() > keep {
        let end = conn.wbuf.len() - keep;
        match conn.stream.write(&conn.wbuf[..end]) {
            Ok(0) => {
                conn.dead = true;
                return false;
            }
            Ok(n) => {
                conn.wbuf.drain(..n);
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == IoErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return false;
            }
        }
    }
    true
}

/// Writes the Ready prefix of the pipelined queue. A Waiting entry stops
/// the flush — later responses must not overtake it. A full socket
/// buffer also stops it (backpressure: nothing more is rendered into
/// `wbuf` until it drains), leaving write interest to re-arm the poller.
fn flush_conn(inner: &ServerInner, conn: &mut Conn) {
    if conn.dead {
        return;
    }
    loop {
        if !drain_wbuf(conn, 0) {
            return;
        }
        if !conn.wbuf.is_empty() {
            return;
        }
        match conn.pending.front() {
            Some(Pending {
                state: PendingState::Ready { .. },
                ..
            }) => {}
            _ => return,
        }
        let Some(Pending { state, .. }) = conn.pending.pop_front() else {
            return;
        };
        let PendingState::Ready { line, trace } = state else {
            return;
        };
        let write_start = trace.as_deref().map(|c| c.now_ns());
        conn.wbuf.extend_from_slice(line.as_bytes());
        conn.wbuf.push(b'\n');
        // A client may act on a reply as soon as its newline arrives —
        // send `trace_dump` on another connection, say — so a traced
        // reply's trace is committed before that last byte leaves: the
        // write span ends once everything before it is handed to the
        // socket.
        let ok = drain_wbuf(conn, usize::from(trace.is_some()));
        if let Some(mut ctx) = trace {
            if let Some(s) = write_start {
                ctx.record(Stage::Write, s, ctx.now_ns());
            }
            inner.tracing.finish(ctx);
        }
        if !ok || !drain_wbuf(conn, 0) {
            return;
        }
    }
}

/// Reads everything available, processing each complete line. EOF
/// answers a final unterminated line (a client may half-close after its
/// last request) before the connection winds down.
fn read_conn(inner: &Arc<ServerInner>, me: usize, id: u64, conn: &mut Conn, chunk: &mut [u8]) {
    if conn.eof || conn.dead {
        return;
    }
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => {
                conn.eof = true;
                if !conn.rbuf.is_empty() {
                    let raw = std::mem::take(&mut conn.rbuf);
                    handle_line(inner, me, id, conn, &raw);
                }
                return;
            }
            Ok(n) => {
                let fresh = conn.rbuf.len();
                conn.rbuf.extend_from_slice(&chunk[..n]);
                process_lines(inner, me, id, conn, fresh);
                if conn.dead || conn.eof {
                    return;
                }
                if n < chunk.len() {
                    // Likely drained; poll is level-triggered, so any
                    // remainder re-reports readable.
                    return;
                }
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => return,
            Err(e) if e.kind() == IoErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Handles every complete line in the read buffer. The bytes before
/// `fresh` (this read's first byte) hold no newline — earlier reads left
/// only a partial line — so the scan starts there and a long line costs
/// one pass in total, not one pass per read.
fn process_lines(inner: &Arc<ServerInner>, me: usize, id: u64, conn: &mut Conn, fresh: usize) {
    let mut buf = std::mem::take(&mut conn.rbuf);
    let mut start = 0;
    let mut scan = fresh;
    while let Some(rel) = buf[scan..].iter().position(|&b| b == b'\n') {
        let end = scan + rel;
        handle_line(inner, me, id, conn, &buf[start..end]);
        start = end + 1;
        scan = start;
        if conn.dead {
            break;
        }
    }
    buf.drain(..start);
    conn.rbuf = buf;
    if conn.rbuf.len() > MAX_LINE_BYTES {
        // An over-long line is unframeable; synthesize the typed
        // rejection directly rather than parsing 16 MiB of it.
        let line = Response::error(
            ErrorKind::BadRequest,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        )
        .to_json(None)
        .to_string();
        conn.push_ready(line);
        conn.rbuf.clear();
        conn.eof = true; // Stop reading; close once the rejection flushes.
    }
}

/// One complete request line off the wire, through the shared intake
/// (`parse_line` → `submit` → `render`). Every non-blank line lands
/// exactly one entry in the connection's pipelined-response queue:
/// `Ready` when answered here (bad request, rejection, control op),
/// `Waiting` when a shard's queue admitted it and will mail the line.
fn handle_line(inner: &Arc<ServerInner>, me: usize, conn_id: u64, conn: &mut Conn, raw: &[u8]) {
    let received = Instant::now();
    let text = String::from_utf8_lossy(raw);
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return;
    }
    let seq = conn.next_seq;
    conn.next_seq += 1;
    let state = match parse_line(inner, trimmed, received) {
        Err(line) => PendingState::Ready { line, trace: None },
        Ok((envelope, trace)) => {
            let (id, client_trace) = (envelope.id, envelope.trace_id);
            let reply = ReplyTo::Conn {
                shard: me,
                conn: conn_id,
                seq,
            };
            match submit(inner, Some(me), envelope, trace, reply) {
                None => PendingState::Waiting,
                Some((response, mut trace)) => PendingState::Ready {
                    line: render(id, client_trace, &response, &mut trace),
                    trace,
                },
            }
        }
    };
    conn.pending.push_back(Pending { seq, state });
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    use proptest::prelude::*;
    use sgl_observe::{parse_json, Json};

    use super::MAX_LINE_BYTES;
    use crate::protocol::Request;
    use crate::session::{ServerConfig, Session};
    use crate::tcp::LoopbackServer;

    /// Loads graph `g` and warms the memo entries the test lines query,
    /// so every answer below is the same however often it is asked.
    fn load_and_warm(session: &Session) {
        let resp = session.call_request(Request::LoadGraph {
            name: "g".into(),
            dimacs: "p sp 4 5\na 1 2 3\na 2 3 4\na 3 4 5\na 1 3 10\na 2 4 20\n".into(),
        });
        assert!(resp.is_ok(), "{resp:?}");
        for id in 0..4 {
            let _ = session.call_line(&line_text(0, id));
            let _ = session.call_line(&line_text(1, id));
        }
    }

    fn line_text(kind: u8, id: usize) -> String {
        String::from_utf8_lossy(&line_bytes(kind, id)).into_owned()
    }

    /// One request line (without its ending) of a shape picked by `kind`:
    /// memo-hit queries, control ops, typed errors, invalid UTF-8, blank.
    fn line_bytes(kind: u8, id: usize) -> Vec<u8> {
        let source = id % 4;
        match kind {
            0 => format!(r#"{{"op":"sssp","graph":"g","source":{source},"id":{id}}}"#).into_bytes(),
            1 => format!(r#"{{"op":"khop","graph":"g","source":{source},"k":2,"id":{id}}}"#)
                .into_bytes(),
            2 => format!(r#"{{"op":"graph_stats","graph":"g","id":{id}}}"#).into_bytes(),
            3 => format!(r#"{{"op":"sssp","graph":"nope","source":0,"id":{id}}}"#).into_bytes(),
            4 => format!(r#"{{"op":"warp","id":{id}}}"#).into_bytes(),
            5 => b"{{{not json".to_vec(),
            6 => [
                &br#"{"op":"graph_stats","graph":"g"#[..],
                b"\xff\xfe",
                format!(r#"","id":{id}}}"#).as_bytes(),
            ]
            .concat(),
            7 => b"\xc3\x28 \xff".to_vec(),
            8 => Vec::new(),
            _ => b" \t ".to_vec(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Pipelined lines written in pieces split at arbitrary byte
        /// offsets are framed exactly: each non-blank line gets the
        /// response `Session::call_line` gives its lossily decoded,
        /// trimmed text, in request order; blank lines get none.
        #[test]
        fn split_pipelined_lines_answer_like_call_line_in_order(
            lines in proptest::collection::vec((0u8..10, proptest::bool::ANY), 1..24),
            cuts in proptest::collection::vec(0usize..1000, 0..8),
        ) {
            let server = LoopbackServer::start(ServerConfig {
                shards: 2,
                ..ServerConfig::default()
            });
            load_and_warm(server.session());
            let mut wire = Vec::new();
            let mut want = Vec::new();
            for (id, &(kind, crlf)) in lines.iter().enumerate() {
                let line = line_bytes(kind, id);
                let text = String::from_utf8_lossy(&line);
                if !text.trim().is_empty() {
                    want.push(server.session().call_line(text.trim()));
                }
                wire.extend_from_slice(&line);
                wire.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
            }
            let mut ends: Vec<usize> = cuts.iter().map(|c| c * wire.len() / 1000).collect();
            ends.push(wire.len());
            ends.sort_unstable();

            let mut stream = TcpStream::connect(server.addr).unwrap();
            stream.set_nodelay(true).unwrap();
            let mut start = 0;
            for end in ends {
                stream.write_all(&wire[start..end]).unwrap();
                start = end;
                std::thread::sleep(Duration::from_millis(1));
            }
            // Half-close: the shard answers everything, then closes.
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut got = String::new();
            stream.read_to_string(&mut got).unwrap();
            let got: Vec<String> = got.lines().map(str::to_owned).collect();
            prop_assert_eq!(got, want);
            server.stop();
        }
    }

    /// A line longer than `MAX_LINE_BYTES` cannot be framed: it gets one
    /// `bad_request` line and the connection is closed.
    #[test]
    fn oversized_line_is_rejected_and_closed() {
        let server = LoopbackServer::start(ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        });
        let mut stream = TcpStream::connect(server.addr).unwrap();
        // One byte over the cap: the shard reads every byte before it
        // rejects, so nothing is left unread when it closes.
        stream.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
        let mut got = String::new();
        stream.read_to_string(&mut got).unwrap();
        assert_eq!(got.lines().count(), 1, "{got}");
        let v = parse_json(got.trim_end()).unwrap();
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("bad_request")
        );
        server.stop();
    }
}
