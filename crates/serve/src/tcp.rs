//! TCP transport: JSON-lines over `std::net`, one request per line.
//!
//! Deliberately thin — the accept loop owns only the listener. It parks
//! in its own [`Poller`] with the listener registered, so an idle server
//! makes **no syscalls at all**: the loop runs only when `poll` reports
//! a pending connection or a [`crate::reactor::Waker`] fires (drain).
//! Accepted sockets are handed to the shard event loops round-robin via
//! the session's `hand_off`; from then on the owning shard does all reads,
//! parsing, and writes ([`crate::shard`]). During drain, in-flight
//! requests finish (the session answers them — admitted work is always
//! answered) and idle connections are closed by their shards.

use std::io::{ErrorKind as IoErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crate::admission::Lifecycle;
use crate::protocol::{ErrorKind, Response};
use crate::reactor::{listener_fd, Interest, Poller};
use crate::session::{ServerConfig, Session};
use crate::stats::Counters;

/// Serves `session` on `listener` until the session drains. Blocks the
/// calling thread; connections are owned by the session's shard event
/// loops, which the session joins on shutdown, so a clean return plus
/// [`Session::shutdown`] means no connection is left. At most
/// [`ServerConfig::max_connections`] connections are open at once;
/// excess connections get one typed `overloaded` response line and are
/// closed, so idle or slow clients cannot exhaust descriptors.
///
/// # Panics
/// Panics if the listener cannot be switched to non-blocking mode or the
/// accept poller cannot be created.
pub fn serve(listener: &TcpListener, session: &Session) {
    listener
        .set_nonblocking(true)
        .expect("set_nonblocking on listener");
    let (mut poller, waker) = Poller::new().expect("create accept poller");
    poller.register(listener_fd(listener), 0, Interest::Read);
    session.register_acceptor_waker(waker);
    let max_connections = session.config().max_connections.max(1) as u64;
    // The open-connection gauge doubles as the admission check and the
    // `server_stats` "connections" reading. Incremented here at accept;
    // decremented by the owning shard at close.
    let gauge = &session.counters().connections;
    let mut next_shard = 0usize;
    let mut events = Vec::new();
    while session.lifecycle() == Lifecycle::Running {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if Counters::read(gauge) >= max_connections {
                        reject_connection(stream);
                        continue;
                    }
                    Counters::gauge_inc(gauge);
                    session.hand_off(stream, &mut next_shard);
                }
                Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
                // Transient accept errors (aborted handshakes, fd
                // pressure) must not take the server down — but the
                // listener may still report readable, so back off
                // instead of spinning on the failure.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(5));
                    break;
                }
            }
        }
        events.clear();
        // Parks until a connection arrives or a waker fires; an idle
        // accept loop costs nothing.
        let _ = poller.wait(None, &mut events);
    }
}

/// Tells an over-cap client why it is being dropped (one typed line, then
/// close). Best-effort: the client may already be gone.
fn reject_connection(mut stream: TcpStream) {
    let line = Response::error(
        ErrorKind::Overloaded,
        "connection limit reached; retry later",
    )
    .to_json(None)
    .to_string();
    let _ = stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"));
}

/// A server on an ephemeral loopback port, for tests, the CI smoke job,
/// and `sgl-stress --spawn`: bind `127.0.0.1:0`, serve on a background
/// thread, stop cleanly on [`Self::stop`].
pub struct LoopbackServer {
    /// The bound address to connect to.
    pub addr: SocketAddr,
    session: Arc<Session>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl LoopbackServer {
    /// Binds an ephemeral loopback port and starts serving.
    ///
    /// # Panics
    /// Panics if binding the loopback interface fails.
    #[must_use]
    pub fn start(config: ServerConfig) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let session = Arc::new(Session::open(config));
        let session2 = Arc::clone(&session);
        let thread = std::thread::Builder::new()
            .name("sgl-serve-accept".into())
            .spawn(move || serve(&listener, &session2))
            .expect("spawn accept loop");
        Self {
            addr,
            session,
            thread: Some(thread),
        }
    }

    /// The server's session (e.g. to inspect stats without a socket).
    #[must_use]
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Drains the server, joins the accept loop and all shards.
    ///
    /// # Panics
    /// Panics if the accept thread panicked.
    pub fn stop(mut self) {
        self.session.shutdown();
        if let Some(t) = self.thread.take() {
            t.join().expect("accept loop panicked");
        }
    }
}

impl Drop for LoopbackServer {
    fn drop(&mut self) {
        self.session.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ErrorKind, Request};
    use sgl_observe::{parse_json, Json};
    use std::io::BufRead;
    use std::io::BufReader;

    fn send(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut out = String::new();
        reader.read_line(&mut out).unwrap();
        parse_json(out.trim()).expect("valid response JSON")
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    #[test]
    fn loopback_round_trip_and_clean_stop() {
        let server = LoopbackServer::start(ServerConfig::default());
        let (mut stream, mut reader) = connect(server.addr);
        let v = send(
            &mut stream,
            &mut reader,
            r#"{"op":"load_graph","name":"g","dimacs":"p sp 3 3\na 1 2 2\na 2 3 2\na 1 3 5\n","id":1}"#,
        );
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(1));
        let v = send(
            &mut stream,
            &mut reader,
            r#"{"op":"sssp","graph":"g","source":0,"id":2}"#,
        );
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        let d = v.get("data").and_then(|d| d.get("distances")).unwrap();
        assert_eq!(
            crate::protocol::parse_distances(d).unwrap(),
            vec![Some(0), Some(2), Some(4)]
        );
        // Garbage on the wire gets an error response, not a hangup.
        let v = send(&mut stream, &mut reader, "{{{not json");
        assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
        let v = send(&mut stream, &mut reader, r#"{"op":"server_stats"}"#);
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        server.stop();
    }

    /// The high-severity regression the line framing is built around: a
    /// request whose bytes arrive with long pauses mid-line must be
    /// answered intact — partial reads accumulate in the connection's
    /// buffer instead of being dropped and re-framed as garbage.
    #[test]
    fn request_spanning_read_timeouts_mid_line_is_not_corrupted() {
        let server = LoopbackServer::start(ServerConfig::default());
        let (mut stream, mut reader) = connect(server.addr);
        let v = send(
            &mut stream,
            &mut reader,
            r#"{"op":"load_graph","name":"g","dimacs":"p sp 3 3\na 1 2 2\na 2 3 2\na 1 3 5\n","id":1}"#,
        );
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        // Three chunks with long gaps, the splits inside the JSON — not
        // at a line boundary.
        let request = "{\"op\":\"sssp\",\"graph\":\"g\",\"source\":0,\"id\":42}\n";
        for chunk in [&request[..14], &request[14..30], &request[30..]] {
            stream.write_all(chunk.as_bytes()).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(120));
        }
        let mut out = String::new();
        reader.read_line(&mut out).unwrap();
        let v = parse_json(out.trim()).expect("valid response JSON");
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"), "{out}");
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(42));
        let d = v.get("data").and_then(|d| d.get("distances")).unwrap();
        assert_eq!(
            crate::protocol::parse_distances(d).unwrap(),
            vec![Some(0), Some(2), Some(4)]
        );
        // The connection stays usable afterwards.
        let v = send(&mut stream, &mut reader, r#"{"op":"server_stats"}"#);
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        server.stop();
    }

    /// A memo hit splices the bytes its miss rendered: on the wire the
    /// two lines differ only in the `cache` field.
    #[test]
    fn memo_hit_line_matches_the_miss_line() {
        let server = LoopbackServer::start(ServerConfig::default());
        let (mut stream, mut reader) = connect(server.addr);
        let mut raw = |line: &str| {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut out = String::new();
            reader.read_line(&mut out).unwrap();
            out
        };
        // One fresh graph per query, so each first answer compiles and
        // reports `miss`. Node 4 is unreachable from node 1, so full rows
        // carry `null` too.
        for (i, query) in [
            r#""op":"sssp","source":0"#,
            r#""op":"khop","source":0,"k":1"#,
            r#""op":"apsp_row","source":1"#,
            r#""op":"sssp","source":0,"target":2"#,
        ]
        .into_iter()
        .enumerate()
        {
            let load = format!(
                r#"{{"op":"load_graph","name":"g{i}","dimacs":"p sp 4 4\na 1 2 2\na 2 3 2\na 1 3 5\na 4 1 1\n"}}"#
            );
            assert!(raw(&load).contains(r#""status":"ok""#));
            let line = format!(r#"{{{query},"graph":"g{i}","id":{i}}}"#);
            let miss = raw(&line);
            let hit = raw(&line);
            assert_eq!(miss.matches(r#""cache":"miss""#).count(), 1, "{miss}");
            assert_eq!(
                miss.replace(r#""cache":"miss""#, r#""cache":"hit""#),
                hit,
                "{line}"
            );
        }
        let v = parse_json(raw(r#"{"op":"sssp","graph":"g0","source":0}"#).trim()).unwrap();
        let d = v.get("data").and_then(|d| d.get("distances")).unwrap();
        assert_eq!(
            crate::protocol::parse_distances(d).unwrap(),
            vec![Some(0), Some(2), Some(4), None]
        );
        server.stop();
    }

    /// A final request whose line is never newline-terminated (client
    /// half-closes after writing) is still answered.
    #[test]
    fn unterminated_final_line_is_answered_at_eof() {
        let server = LoopbackServer::start(ServerConfig::default());
        let (mut stream, mut reader) = connect(server.addr);
        stream
            .write_all(br#"{"op":"server_stats","id":7}"#)
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        reader.read_line(&mut out).unwrap();
        let v = parse_json(out.trim()).expect("valid response JSON");
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        server.stop();
    }

    /// Connections beyond `max_connections` get one typed `overloaded`
    /// line and are closed; they never tie up a shard slot.
    #[test]
    fn excess_connections_are_rejected_typed() {
        let server = LoopbackServer::start(ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        });
        let (mut stream, mut reader) = connect(server.addr);
        // A round trip guarantees the first connection is adopted and
        // counted before the second connection races the accept loop.
        let v = send(&mut stream, &mut reader, r#"{"op":"server_stats"}"#);
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));

        let (_stream2, mut reader2) = connect(server.addr);
        let mut out = String::new();
        reader2.read_line(&mut out).unwrap();
        let v = parse_json(out.trim()).expect("valid rejection JSON");
        assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("overloaded")
        );
        assert_eq!(reader2.read_line(&mut out).unwrap(), 0, "then closed");

        // The first connection is unaffected; freeing it readmits others.
        let v = send(&mut stream, &mut reader, r#"{"op":"server_stats"}"#);
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        drop(stream);
        drop(reader);
        let admitted = std::time::Instant::now();
        loop {
            let (mut s3, mut r3) = connect(server.addr);
            s3.write_all(b"{\"op\":\"server_stats\"}\n").unwrap();
            let mut out = String::new();
            r3.read_line(&mut out).unwrap();
            let v = parse_json(out.trim()).unwrap();
            if v.get("status").and_then(Json::as_str) == Some("ok") {
                break;
            }
            assert!(
                admitted.elapsed() < Duration::from_secs(5),
                "slot never freed after the first connection closed"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        server.stop();
    }

    fn error_kind(v: &Json) -> Option<&str> {
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
    }

    /// A request nested 100,000 levels deep (about 100 KB) used to
    /// overflow the shard's stack and abort the process. It is a typed
    /// `bad_request`, and the same connection keeps serving.
    #[test]
    fn deeply_nested_json_is_a_bad_request() {
        let server = LoopbackServer::start(ServerConfig::default());
        let (mut stream, mut reader) = connect(server.addr);
        let v = send(&mut stream, &mut reader, &"[".repeat(100_000));
        assert_eq!(error_kind(&v), Some("bad_request"));
        let v = send(&mut stream, &mut reader, r#"{"op":"server_stats"}"#);
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        server.stop();
    }

    /// A DIMACS node count past the `u32` id space used to panic the
    /// shard that loaded it. It is a typed `bad_request`, and the server
    /// keeps serving and then drains cleanly.
    #[test]
    fn dimacs_node_count_past_u32_is_a_bad_request() {
        let server = LoopbackServer::start(ServerConfig::default());
        let (mut stream, mut reader) = connect(server.addr);
        let v = send(
            &mut stream,
            &mut reader,
            r#"{"op":"load_graph","name":"g","dimacs":"p sp 5000000000 0\n","id":4}"#,
        );
        assert_eq!(error_kind(&v), Some("bad_request"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(4));
        let v = send(&mut stream, &mut reader, r#"{"op":"server_stats"}"#);
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        server.stop();
    }

    #[test]
    fn shutdown_over_the_wire_drains_and_disconnects() {
        let server = LoopbackServer::start(ServerConfig::default());
        let addr = server.addr;
        let (mut stream, mut reader) = connect(addr);
        let v = send(&mut stream, &mut reader, r#"{"op":"shutdown","id":5}"#);
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        // The accept loop exits; idle connections get closed. A fresh
        // query on the session is rejected as draining.
        let resp = server.session().call_request(Request::Sssp {
            graph: "g".into(),
            source: 0,
            target: None,
            cache: crate::protocol::CacheMode::Default,
        });
        assert_eq!(resp.error_kind(), Some(ErrorKind::Draining));
        server.stop();
    }
}
