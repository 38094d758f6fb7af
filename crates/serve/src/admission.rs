//! Admission control: the bounded per-shard queue between request intake
//! and the shard that executes the request, plus the server lifecycle it
//! enforces.
//!
//! The contract (and the overload test's assertions):
//!
//! * The queue is **bounded**. A push against a full queue fails
//!   *synchronously* — the caller turns that into a typed `overloaded`
//!   response. Nothing ever blocks on admission or on taking work: a
//!   shard polls its queue with [`AdmissionQueue::try_pop`] between I/O
//!   passes, so intake stays responsive no matter how far behind the
//!   shards are.
//! * Lifecycle is monotone: `Running → Draining → Stopped`. Draining
//!   rejects new work (typed `draining`) but **every job already admitted
//!   is still answered** — a shard keeps popping until its queue is
//!   empty, and only then, seeing `Draining`, exits. That invariant is
//!   what makes the caller's blocking wait on a [`ResponseSlot`] safe: an
//!   admitted job's slot is always filled, by execution or by a deadline
//!   rejection.
//! * Deadlines are checked at *pop* time against the enqueue timestamp:
//!   a job that out-waited its deadline is answered `deadline_exceeded`
//!   without being executed, so a backed-up queue sheds stale work
//!   instead of burning a shard on answers nobody is waiting for.
//!   (The check lives in the shard loop; this module carries the data.)

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::protocol::{Envelope, Response};
use crate::trace::TraceCtx;

/// Server lifecycle states (monotone).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lifecycle {
    /// Accepting and executing work.
    Running,
    /// Rejecting new work; admitted work still completes.
    Draining,
    /// All shards have exited; the queue is empty.
    Stopped,
}

/// One-shot response rendezvous between the admitting thread and the
/// shard that executes the job. `fill` is called exactly once per
/// admitted job (the drain invariant above). The job's trace context
/// (if it was a traced request) rides back with the response so the
/// intake thread can keep recording spans after the shard is done.
#[derive(Debug, Default)]
pub struct ResponseSlot {
    #[allow(clippy::type_complexity)] // one tuple, named right here
    value: Mutex<Option<(Response, Option<Box<TraceCtx>>)>>,
    ready: Condvar,
}

impl ResponseSlot {
    /// An empty slot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Delivers the response (and the trace context back) and wakes the
    /// waiter.
    ///
    /// # Panics
    /// Panics if the slot lock is poisoned.
    pub fn fill(&self, response: Response, trace: Option<Box<TraceCtx>>) {
        let mut v = self.value.lock().expect("slot lock");
        *v = Some((response, trace));
        self.ready.notify_all();
    }

    /// Blocks until the response arrives.
    ///
    /// # Panics
    /// Panics if the slot lock is poisoned.
    #[must_use]
    pub fn wait(&self) -> (Response, Option<Box<TraceCtx>>) {
        let mut v = self.value.lock().expect("slot lock");
        loop {
            if let Some(r) = v.take() {
                return r;
            }
            v = self.ready.wait(v).expect("slot lock");
        }
    }
}

/// Where an executed job's answer goes.
///
/// In-process callers ([`crate::Session::call`]) block on a
/// [`ResponseSlot`]; TCP requests instead carry the coordinates of the
/// connection that issued them — owning shard, connection id, and the
/// per-connection sequence number that keeps pipelined responses in
/// request order — and the executing shard mails the *serialized* line
/// back to that connection's shard.
#[derive(Debug)]
pub enum ReplyTo {
    /// Fill this slot and wake the blocked caller thread.
    Slot(std::sync::Arc<ResponseSlot>),
    /// Mail the rendered response line to a connection's shard.
    Conn {
        /// Shard that owns the connection.
        shard: usize,
        /// Connection id within that shard.
        conn: u64,
        /// Position in the connection's pipelined-response order.
        seq: u64,
    },
}

/// An admitted job: the request, when it was admitted, its queue-wait
/// deadline, and where to deliver the answer.
#[derive(Debug)]
pub struct Job {
    /// The request envelope.
    pub envelope: Envelope,
    /// Admission timestamp (queue-wait measurement and deadline base).
    pub enqueued: Instant,
    /// Maximum tolerated queue wait, if any.
    pub deadline: Option<Duration>,
    /// Where the answer is delivered.
    pub reply: ReplyTo,
    /// Span context of a traced request (almost always `None`).
    pub trace: Option<Box<TraceCtx>>,
}

/// Why admission failed. The rejected job is handed back so the caller
/// keeps its slot and trace context.
#[derive(Debug)]
pub enum AdmissionError {
    /// The queue is at capacity — shed.
    Full(Job),
    /// The server is draining or stopped.
    Draining(Job),
}

#[derive(Debug)]
struct QueueState {
    jobs: VecDeque<Job>,
    lifecycle: Lifecycle,
}

/// The bounded admission queue (push: any intake thread; pop: the owning
/// shard).
#[derive(Debug)]
pub struct AdmissionQueue {
    state: Mutex<QueueState>,
    capacity: usize,
    /// Jobs handed to the shard after drain began — the backlog the drain
    /// invariant promises to finish, made countable for `server_stats`.
    drained: AtomicU64,
}

impl AdmissionQueue {
    /// A queue that admits at most `capacity` waiting jobs.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (the server could never admit work).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(capacity),
                lifecycle: Lifecycle::Running,
            }),
            capacity,
            drained: AtomicU64::new(0),
        }
    }

    /// Admits a job, or fails synchronously (never blocks).
    ///
    /// # Errors
    /// [`AdmissionError::Full`] when at capacity (load shed),
    /// [`AdmissionError::Draining`] after drain began — both hand the
    /// job back.
    ///
    /// # Panics
    /// Panics if the queue lock is poisoned.
    // The large Err variants are the point: rejection returns the whole
    // job so the caller keeps its response slot and trace context.
    #[allow(clippy::result_large_err)]
    pub fn try_push(&self, job: Job) -> Result<(), AdmissionError> {
        let mut s = self.state.lock().expect("queue lock");
        if s.lifecycle != Lifecycle::Running {
            return Err(AdmissionError::Draining(job));
        }
        if s.jobs.len() >= self.capacity {
            return Err(AdmissionError::Full(job));
        }
        s.jobs.push_back(job);
        Ok(())
    }

    /// Takes the next admitted job, never blocking (a shard must return
    /// to its poller instead of parking). Hands out the backlog while
    /// draining — the drain invariant — so `None` while draining means
    /// the backlog is exhausted and no job will ever arrive again.
    ///
    /// # Panics
    /// Panics if the queue lock is poisoned.
    #[must_use]
    pub fn try_pop(&self) -> Option<Job> {
        let mut s = self.state.lock().expect("queue lock");
        let job = s.jobs.pop_front()?;
        if s.lifecycle != Lifecycle::Running {
            self.drained.fetch_add(1, Ordering::Relaxed);
        }
        Some(job)
    }

    /// Jobs handed to the shard after drain began (cumulative).
    #[must_use]
    pub fn drained(&self) -> u64 {
        self.drained.load(Ordering::Relaxed)
    }

    /// Begins draining: no new admissions; the shard finishes the backlog
    /// and exits. Idempotent.
    ///
    /// # Panics
    /// Panics if the queue lock is poisoned.
    pub fn drain(&self) {
        let mut s = self.state.lock().expect("queue lock");
        if s.lifecycle == Lifecycle::Running {
            s.lifecycle = Lifecycle::Draining;
        }
    }

    /// Marks the server fully stopped (shards joined).
    ///
    /// # Panics
    /// Panics if the queue lock is poisoned.
    pub fn mark_stopped(&self) {
        self.state.lock().expect("queue lock").lifecycle = Lifecycle::Stopped;
    }

    /// Current lifecycle.
    ///
    /// # Panics
    /// Panics if the queue lock is poisoned.
    #[must_use]
    pub fn lifecycle(&self) -> Lifecycle {
        self.state.lock().expect("queue lock").lifecycle
    }

    /// Jobs currently waiting (recorded into the depth histogram at pop).
    ///
    /// # Panics
    /// Panics if the queue lock is poisoned.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue lock").jobs.len()
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use std::sync::Arc;

    fn job() -> Job {
        Job {
            envelope: Envelope::of(Request::ServerStats),
            enqueued: Instant::now(),
            deadline: None,
            reply: ReplyTo::Slot(Arc::new(ResponseSlot::new())),
            trace: None,
        }
    }

    #[test]
    fn sheds_synchronously_at_capacity() {
        let q = AdmissionQueue::new(2);
        assert!(q.try_push(job()).is_ok());
        assert!(q.try_push(job()).is_ok());
        assert!(matches!(q.try_push(job()), Err(AdmissionError::Full(_))));
        assert_eq!(q.depth(), 2, "shed push must not grow the queue");
    }

    #[test]
    fn drain_rejects_new_but_hands_out_backlog() {
        let q = AdmissionQueue::new(4);
        q.try_push(job()).unwrap();
        q.try_push(job()).unwrap();
        q.drain();
        assert!(matches!(
            q.try_push(job()),
            Err(AdmissionError::Draining(_))
        ));
        assert!(q.try_pop().is_some());
        assert!(q.try_pop().is_some());
        assert!(
            q.try_pop().is_none(),
            "empty + draining terminates the shard"
        );
        assert_eq!(q.lifecycle(), Lifecycle::Draining);
        assert_eq!(q.drained(), 2, "backlog handed out after drain is counted");
    }

    #[test]
    fn response_slot_delivers_across_threads() {
        let slot = Arc::new(ResponseSlot::new());
        let s2 = Arc::clone(&slot);
        let t = std::thread::spawn(move || s2.wait());
        std::thread::sleep(Duration::from_millis(10));
        slot.fill(
            Response::error(crate::protocol::ErrorKind::Internal, "x"),
            None,
        );
        let (resp, trace) = t.join().unwrap();
        assert_eq!(
            resp.error_kind(),
            Some(crate::protocol::ErrorKind::Internal)
        );
        assert!(trace.is_none());
    }

    #[test]
    fn try_pop_never_blocks() {
        let q = AdmissionQueue::new(2);
        assert!(q.try_pop().is_none(), "running + empty");
        q.try_push(job()).unwrap();
        q.try_push(job()).unwrap();
        q.drain();
        // The drain invariant: backlog first, then the terminal signal.
        assert!(q.try_pop().is_some());
        assert!(q.try_pop().is_some());
        assert!(q.try_pop().is_none());
        assert!(q.try_pop().is_none(), "stays terminal");
        assert_eq!(q.drained(), 2);
    }

    #[test]
    fn drain_is_idempotent() {
        let q = AdmissionQueue::new(1);
        q.drain();
        q.drain();
        assert_eq!(q.lifecycle(), Lifecycle::Draining);
        q.mark_stopped();
        assert_eq!(q.lifecycle(), Lifecycle::Stopped);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = AdmissionQueue::new(0);
    }
}
