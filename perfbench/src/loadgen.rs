//! Load generators speaking the JSON-lines protocol over TCP: an open loop
//! that sends on a fixed schedule and a closed, pipelined loop. Both send
//! pre-rendered request lines, so the client's own serialization never
//! sits inside a measured interval.
//!
//! Open loop: operation `i` is due at `start + i / rate`. Its latency is
//! timed from that due instant, not from when the sender got round to it,
//! so a stall also charges every request queued behind it. How late the
//! sender ran is reported separately; a late generator invalidates a run.
//!
//! Closed loop: each connection keeps `depth` requests in flight and sends
//! the next one as each response arrives, until the measuring window
//! closes; the requests still in flight are then awaited.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stats::Hist;

/// How long a connection may wait for its next response before the
/// outstanding requests count as timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// What to do with the reply to op `i`: keep its line for checking, and
/// which of two latency classes it counts in.
pub type Tag<'a> = &'a (dyn Fn(usize) -> (bool, usize) + Sync);

/// Everything one load-generator run observed.
#[derive(Debug, Default)]
pub struct RunLog {
    /// Latencies of successful replies (open loop: from the due instant),
    /// by the class the caller's [`Tag`] gave each op.
    pub ok: [Hist; 2],
    /// Replies carrying a typed error.
    pub errors: usize,
    /// `(stream op, response line)` of the replies selected for checking.
    pub bodies: Vec<(usize, String)>,
    /// Requests sent or scheduled.
    pub attempted: usize,
    /// Requests never answered within [`REPLY_TIMEOUT`].
    pub timed_out: usize,
    /// Open loop: how late each send was.
    pub lateness: Hist,
    /// First send to last response.
    pub wall: Duration,
}

impl RunLog {
    /// Files the reply to stream op `op`, tagged `(keep, class)`.
    fn record(&mut self, op: usize, (keep, class): (bool, usize), latency_ns: u64, line: &[u8]) {
        if is_ok(line) {
            self.ok[class].record(latency_ns);
        } else {
            self.errors += 1;
        }
        if keep {
            let body = String::from_utf8_lossy(line).trim_end().to_string();
            self.bodies.push((op, body));
        }
    }

    /// Successful replies.
    #[must_use]
    pub fn ok_count(&self) -> usize {
        (self.ok[0].count() + self.ok[1].count()) as usize
    }

    /// Replies received.
    #[must_use]
    pub fn answered(&self) -> usize {
        self.ok_count() + self.errors
    }

    /// Answered with a typed error, or never answered.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.errors + self.timed_out
    }

    /// Answered successfully per second of wall time.
    #[must_use]
    pub fn ok_per_sec(&self) -> f64 {
        self.ok_count() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Latencies of every successful reply.
    #[must_use]
    pub fn ok_all(&self) -> Hist {
        let mut all = self.ok[0].clone();
        all.merge(&self.ok[1]);
        all
    }

    fn merge(&mut self, other: &Self) {
        for (a, b) in self.ok.iter_mut().zip(&other.ok) {
            a.merge(b);
        }
        self.errors += other.errors;
        self.bodies.extend(other.bodies.iter().cloned());
        self.attempted += other.attempted;
        self.timed_out += other.timed_out;
    }
}

/// When operation `i` of an open-loop schedule at `rate` per second is due.
#[must_use]
pub fn due_at(start: Instant, i: usize, rate: f64) -> Instant {
    start + Duration::from_secs_f64(i as f64 / rate)
}

/// Open-loop accounting for one request: `(latency, lateness)` in ns.
/// Latency runs from the due instant to the response; lateness from the
/// due instant to the actual send.
#[must_use]
pub fn open_loop_times(due: Instant, sent: Instant, received: Instant) -> (u64, u64) {
    let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    (
        ns(received.saturating_duration_since(due)),
        ns(sent.saturating_duration_since(due)),
    )
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(REPLY_TIMEOUT))?;
    s.set_write_timeout(Some(REPLY_TIMEOUT))?;
    Ok(s)
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// Whether a response line reports success. The server writes `id` and
/// then `status` first, so only the line's head is searched.
fn is_ok(line: &[u8]) -> bool {
    let head = &line[..line.len().min(64)];
    head.windows(13).any(|w| w == b"\"status\":\"ok\"")
}

/// Reads one response line into `buf` (cleared first). `Ok(false)` on EOF.
fn read_line(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>) -> std::io::Result<bool> {
    buf.clear();
    let n = reader.read_until(b'\n', buf)?;
    Ok(n > 0 && buf.last() == Some(&b'\n'))
}

/// Sends `lines[first..last]` (each newline-terminated) over one
/// connection at `rate` per second and awaits every response, filing each
/// as `tag` says.
///
/// # Errors
/// Fails when the connection cannot be opened.
pub fn open_loop(
    addr: SocketAddr,
    lines: &[Arc<[u8]>],
    (first, last): (usize, usize),
    rate: f64,
    tag: Tag<'_>,
) -> std::io::Result<RunLog> {
    let lines = &lines[first..last];
    let stream = connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::with_capacity(1 << 20, stream.try_clone()?);
    // A short head start so op 0 is not late before the sender runs.
    let start = Instant::now() + Duration::from_millis(5);
    let mut log = RunLog {
        attempted: lines.len(),
        ..RunLog::default()
    };
    let sent_at = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut sent = Vec::with_capacity(lines.len());
            for (i, line) in lines.iter().enumerate() {
                let due = due_at(start, i, rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let at = Instant::now();
                if writer.write_all(line).is_err() {
                    break;
                }
                sent.push(at);
            }
            sent
        });
        let mut buf = Vec::new();
        let mut last_reply = start;
        for i in 0..lines.len() {
            if !matches!(read_line(&mut reader, &mut buf), Ok(true)) {
                break;
            }
            last_reply = Instant::now();
            let latency = ns_between(due_at(start, i, rate), last_reply);
            log.record(first + i, tag(first + i), latency, &buf);
        }
        // Unblocks a sender stuck on a dead connection.
        let _ = stream.shutdown(Shutdown::Both);
        log.wall = last_reply.saturating_duration_since(start);
        sender.join().expect("open-loop sender panicked")
    });
    log.timed_out = lines.len() - log.answered();
    for (i, &at) in sent_at.iter().enumerate() {
        log.lateness
            .record(open_loop_times(due_at(start, i, rate), at, at).1);
    }
    Ok(log)
}

/// Runs `conns` connections, each keeping `depth` requests in flight, for
/// `window`; op `i` sends `lines[i % lines.len()]`. Ops are claimed from one
/// shared counter starting at `first`, so the stream is consumed in order
/// across connections. Returns the log and the next unclaimed op.
///
/// # Errors
/// Fails when a connection cannot be opened.
pub fn closed_loop(
    addr: SocketAddr,
    lines: &[Arc<[u8]>],
    first: usize,
    conns: usize,
    depth: usize,
    window: Duration,
    tag: Tag<'_>,
) -> std::io::Result<(RunLog, usize)> {
    let streams = (0..conns)
        .map(|_| connect(addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let deadline = start + window;
    let logs: Vec<(RunLog, Option<Instant>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                let next = &next;
                scope.spawn(move || {
                    let mut log = RunLog::default();
                    let mut last = None;
                    let Ok(read_half) = stream.try_clone() else {
                        return (log, last);
                    };
                    let mut reader = BufReader::with_capacity(1 << 16, read_half);
                    let mut writer = stream;
                    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::new();
                    let mut send = |in_flight: &mut VecDeque<(usize, Instant)>| -> bool {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let at = Instant::now();
                        if writer.write_all(&lines[i % lines.len()]).is_err() {
                            return false;
                        }
                        in_flight.push_back((i, at));
                        true
                    };
                    for _ in 0..depth {
                        if !send(&mut in_flight) {
                            break;
                        }
                    }
                    let mut buf = Vec::new();
                    while let Some(&(i, at)) = in_flight.front() {
                        if !matches!(read_line(&mut reader, &mut buf), Ok(true)) {
                            break;
                        }
                        let now = Instant::now();
                        in_flight.pop_front();
                        log.record(i % lines.len(), tag(i), ns_between(at, now), &buf);
                        last = Some(now);
                        if now < deadline && !send(&mut in_flight) {
                            break;
                        }
                    }
                    log.timed_out = in_flight.len();
                    log.attempted = log.answered() + log.timed_out;
                    (log, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection panicked"))
            .collect()
    });
    let mut out = RunLog::default();
    let mut last = start;
    for (log, end) in logs {
        out.merge(&log);
        if let Some(end) = end {
            last = last.max(end);
        }
    }
    out.wall = last.saturating_duration_since(start);
    Ok((out, next.into_inner()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_evenly_spaced() {
        let t0 = Instant::now();
        assert_eq!(due_at(t0, 0, 50.0), t0);
        assert_eq!(due_at(t0, 50, 50.0) - t0, Duration::from_secs(1));
        assert_eq!(due_at(t0, 3, 1000.0) - t0, Duration::from_millis(3));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_instant() {
        let t0 = Instant::now();
        let due = due_at(t0, 10, 100.0); // t0 + 100 ms
                                         // On time: latency is service time, lateness zero.
        let (lat, late) = open_loop_times(due, due, due + Duration::from_millis(7));
        assert_eq!((lat, late), (7_000_000, 0));
        // The sender stalled 50 ms: the stall is charged to latency and
        // reported as lateness.
        let sent = due + Duration::from_millis(50);
        let (lat, late) = open_loop_times(due, sent, sent + Duration::from_millis(7));
        assert_eq!((lat, late), (57_000_000, 50_000_000));
        // Early sends are never negative.
        assert_eq!(open_loop_times(due, t0, t0), (0, 0));
    }

    #[test]
    fn status_is_read_from_the_line_head() {
        assert!(is_ok(br#"{"id":3,"status":"ok","op":"sssp","data":{}}"#));
        assert!(!is_ok(
            br#"{"id":3,"status":"error","error":{"kind":"overloaded","message":"\"status\":\"ok\""}}"#
        ));
        assert!(!is_ok(b""));
    }

    #[test]
    fn run_log_arithmetic() {
        let mut log = RunLog {
            attempted: 4,
            timed_out: 1,
            wall: Duration::from_millis(500),
            ..RunLog::default()
        };
        log.record(0, (false, 1), 2_000_000, br#"{"id":null,"status":"ok"}"#);
        log.record(1, (true, 1), 1, br#"{"id":null,"status":"error"}"#);
        log.record(2, (false, 0), 4_000_000, br#"{"id":null,"status":"ok"}"#);
        assert_eq!((log.answered(), log.failed()), (3, 2));
        assert!((log.ok_per_sec() - 4.0).abs() < 1e-9);
        assert_eq!((log.ok[0].count(), log.ok[1].count()), (1, 1));
        assert_eq!(log.ok_all().quantile(1.0), log.ok[0].quantile(1.0));
        assert_eq!(
            log.bodies,
            vec![(1, r#"{"id":null,"status":"error"}"#.to_string())]
        );
        let mut sum = RunLog::default();
        sum.merge(&log);
        sum.merge(&log);
        assert_eq!((sum.ok_count(), sum.errors, sum.attempted), (4, 2, 8));
    }
}
