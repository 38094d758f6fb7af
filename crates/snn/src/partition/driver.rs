//! The superstep loop over a [`PartitionPlan`], for every thread count.
//!
//! Each worker owns a fixed set of partitions (round-robin by partition
//! index, so range-partitioned load spreads evenly) and runs one worker
//! body per superstep: compute and publish for its partitions, then
//! merge and report into its [`WorkerOut`] cell. The coordinator — the
//! calling thread — owns the [`Recorder`] and every observer hook, and
//! folds the cells after each superstep (spike-batch hook, update
//! counter, globally sorted fired list, step record, delivery counter,
//! step / scheduler / cut-traffic hooks, stop check).
//!
//! With one worker the coordinator calls the body inline over every
//! partition: no thread, no barrier. With `workers >= 2` a persistent
//! pool runs it, and one superstep crosses a single reusable
//! [`SpinBarrier`] three times:
//!
//! 1. **open** — the coordinator publishes the superstep time; workers
//!    run the compute phase for their partitions and append cut spikes
//!    to the destination mailboxes. Each mailbox has exactly one
//!    producer (the owner of its source partition), and every append
//!    happens strictly before the next crossing.
//! 2. **publish** — every append is now visible; workers run the merge
//!    phase (take inbound mailboxes, k-way merge into their wheels) and
//!    write their per-superstep outputs into their cell.
//! 3. **close** — outputs are visible; the coordinator folds them.
//!
//! Why the numbers cannot change with the thread count: every partition
//! runs the same body ([`update_step`], [`publish_cut`],
//! [`merge_schedule`]), only grouped by owner instead of all at once;
//! every cross-partition value the fold sums (batch, update, delivery
//! counts, scheduler occupancy) is a sum of `u64`s, which is
//! order-insensitive; the fired list is re-sorted globally, erasing
//! concatenation order; and per-target f64 accumulation order lives
//! entirely inside the per-partition merge. The barriers provide the
//! happens-before edges (release on `generation`, acquire in `wait`), so
//! no data race can reorder any of it.
//!
//! The cells and the cut-spike mailboxes are `Mutex`-wrapped only to
//! satisfy `Sync` under this crate's `#![forbid(unsafe_code)]`: a cell
//! is written by its worker between crossings 1 and 3 and read by the
//! coordinator after crossing 3, and a mailbox is appended to before
//! crossing 2 and taken after it, so the locks are never contended — the
//! same pattern as the parallel dense engine's mailboxes.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sgl_observe::{RunObserver, SchedulerStats, StepRecord};

use crate::engine::event::{update_step, LazyState};
use crate::engine::sync::SpinBarrier;
use crate::engine::{LazyRange, Recorder, RunConfig, RunResult, RunScratch, StopReason};
use crate::error::SnnError;
use crate::types::{NeuronId, Time};

use super::engine::{
    aggregate_scheduler, emit_cut_traffic, merge_schedule, publish_cut, Mailbox, PartState,
    PartitionRunStats, WorkerStats,
};
use super::plan::PartitionPlan;

/// One partition as a worker owns it: its index, its own run state, and
/// its id range's slice of the run scratch.
type Part<'s> = (usize, PartState, LazyRange<'s>);

/// One worker's outputs for one superstep, folded by the coordinator.
#[derive(Default)]
struct WorkerOut {
    /// Ids fired by this worker's partitions (concatenated in
    /// owned-partition order; the fold re-sorts globally).
    fired: Vec<NeuronId>,
    /// Sum of wheel-drain batch lengths across owned partitions.
    batch: u64,
    /// Sum of neuron updates across owned partitions.
    updates: u64,
    /// Deliveries scheduled by the merge phase across owned partitions.
    deliveries: u64,
    /// Earliest pending delivery across owned wheels after the merge
    /// (`None` iff every owned wheel is empty).
    next_time: Option<Time>,
    /// Scheduler occupancy summed over owned wheels (observed runs only).
    sched: SchedulerStats,
    /// Inbound message counts, `tick_traffic[from * parts + to]` for the
    /// destinations this worker owns (disjoint across workers).
    tick_traffic: Vec<u64>,
    /// Nanoseconds in compute + merge this superstep (pool only).
    busy_ns: u64,
    /// Nanoseconds blocked at barriers since the previous report (pool
    /// only).
    wait_ns: u64,
}

/// Runs `plan` with spikes induced in `initial_spikes` at `t = 0` on
/// `threads` workers, capped at the busy-partition count, taking the
/// neuron state from `scratch` (reset for the plan's network, then split
/// by partition range). Everything but the final `on_finish` hook.
pub(super) fn run<O: RunObserver>(
    plan: &PartitionPlan<'_>,
    initial_spikes: &[NeuronId],
    config: &RunConfig,
    threads: usize,
    scratch: &mut RunScratch,
    obs: &mut O,
) -> Result<(RunResult, PartitionRunStats), SnnError> {
    let p = plan.parts();
    for &id in initial_spikes {
        if id.index() >= plan.neuron_count() {
            return Err(SnnError::UnknownNeuron(id));
        }
    }
    let rec = Recorder::new(plan.network(), config)?;
    let mut all: Vec<Part<'_>> = scratch
        .split_ranges(plan.network(), plan.bounds())
        .into_iter()
        .enumerate()
        .map(|(q, lazy)| (q, PartState::new(plan.max_delay(), p), lazy))
        .collect();
    // One mailbox per ordered pair with at least one cut synapse.
    let mailboxes: Vec<Option<Mailbox>> = (0..p * p)
        .map(|i| {
            let (from, to) = (i / p, i % p);
            (from != to && plan.pair_cut(from, to) > 0).then(Mailbox::default)
        })
        .collect();

    // A worker can only be busy when it owns a non-empty partition, so
    // cap the pool at the busy-partition count; one worker runs inline.
    let busy_parts = (0..p).filter(|&q| !plan.range(q).is_empty()).count().max(1);
    let workers = threads.clamp(1, busy_parts);
    let cells: Vec<Mutex<WorkerOut>> = (0..workers).map(|_| Mutex::default()).collect();
    let mut coord = Coordinator {
        config,
        obs,
        rec,
        fired: Vec::new(),
        tick_traffic: vec![0; p * p],
        parts: p,
        supersteps: 1,
        workers: Vec::new(),
        imbalance_max: 0.0,
        imbalance_sum: 0.0,
        imbalance_n: 0,
    };

    // t = 0: induce the initial spikes (ascending, so each partition's
    // fired list is too) and route their deliveries, inline.
    let mut initial = initial_spikes.to_vec();
    initial.sort_unstable();
    initial.dedup();
    for id in initial {
        let i = id.index();
        let q = plan.part_of(i);
        all[q].1.fired.push(NeuronId((i - plan.bounds()[q]) as u32));
    }
    let mut inline = |t: Time| {
        let mut out = cells[0].lock().expect("worker cell poisoned");
        superstep::<O>(plan, &mailboxes, &mut all, t, &mut out, || {});
        0
    };
    inline(0);
    let first = coord.fold(0, &cells[..1], 0);

    // A run that ends at t = 0 never spawns a pool, and reports the one
    // worker that ran it.
    let (steps, reason) = if workers > 1 && first.is_continue() {
        let mut owned: Vec<Vec<Part<'_>>> = (0..workers).map(|_| Vec::new()).collect();
        for part in all {
            owned[part.0 % workers].push(part);
        }
        coord.workers = owned
            .iter()
            .enumerate()
            .map(|(w, o)| WorkerStats {
                worker: w as u32,
                partitions: o.len() as u32,
                ..WorkerStats::default()
            })
            .collect();
        let barrier = SpinBarrier::new(workers + 1);
        let cur_t = AtomicU64::new(0);
        let running = AtomicBool::new(true);
        std::thread::scope(|scope| {
            for (mine, cell) in owned.into_iter().zip(&cells) {
                let (barrier, cur_t, running) = (&barrier, &cur_t, &running);
                let mailboxes = mailboxes.as_slice();
                scope.spawn(move || {
                    worker_loop::<O>(plan, mailboxes, mine, cell, barrier, cur_t, running)
                });
            }
            let end = coord.drive(first, &cells, |t| {
                cur_t.store(t, Ordering::Release);
                let block0 = Instant::now();
                barrier.wait(); // open: workers compute + publish
                barrier.wait(); // publish: all cut appends visible
                barrier.wait(); // close: worker outputs visible
                block0.elapsed().as_nanos() as u64
            });
            // Release the pool: workers exit at the next open crossing.
            running.store(false, Ordering::Release);
            barrier.wait();
            end
        })
    } else {
        coord.drive(first, &cells[..1], inline)
    };

    let result = coord.rec.finish(steps, reason, config)?;
    let mut stats = plan.traffic_stats(&mailboxes, coord.supersteps);
    stats.threads = coord.workers.len().max(1);
    stats.workers = coord.workers;
    stats.imbalance_max = coord.imbalance_max;
    stats.imbalance_mean = if coord.imbalance_n > 0 {
        coord.imbalance_sum / coord.imbalance_n as f64
    } else {
        0.0
    };
    Ok((result, stats))
}

/// The worker body: one superstep `t` over the partitions in `mine` —
/// compute and publish, cross `publish` (the pool's publish barrier; a
/// no-op inline), then merge and report into `out`. At `t = 0` there is
/// nothing to compute: the fired lists hold the injected spikes.
fn superstep<O: RunObserver>(
    plan: &PartitionPlan<'_>,
    mailboxes: &[Option<Mailbox>],
    mine: &mut [Part<'_>],
    t: Time,
    out: &mut WorkerOut,
    publish: impl FnOnce(),
) {
    out.batch = 0;
    out.updates = 0;
    for (q, st, lazy) in mine.iter_mut() {
        // Every wheel is drained at every superstep — including empty
        // ones — so each partition clock stays equal to the monolithic
        // clock (horizon classification depends on `now`).
        if t > 0 {
            let (batch, updates) = update_step(
                t,
                &plan.network().params_slice()[plan.range(*q)],
                &mut st.wheel,
                LazyState {
                    batch: &mut st.batch,
                    voltages: lazy.voltages,
                    last_update: lazy.last_update,
                    accum: lazy.accum,
                    dirty: lazy.dirty,
                    touched: &mut st.touched,
                },
                &mut st.fired,
            );
            out.batch += batch;
            out.updates += updates;
        }
        publish_cut(plan, *q, &st.fired, mailboxes, t);
    }
    publish();

    let p = plan.parts();
    out.fired.clear();
    out.tick_traffic.clear();
    out.tick_traffic.resize(p * p, 0);
    out.deliveries = 0;
    out.next_time = None;
    for (q, st, _) in mine.iter_mut() {
        out.deliveries += merge_schedule(plan, *q, st, mailboxes, t, &mut out.tick_traffic);
        let lo = plan.range(*q).start;
        out.fired
            .extend(st.fired.iter().map(|l| NeuronId((lo + l.index()) as u32)));
        if let Some(nt) = st.wheel.next_time() {
            out.next_time = Some(out.next_time.map_or(nt, |b| b.min(nt)));
        }
    }
    if O::ENABLED {
        out.sched = aggregate_scheduler(mine.iter().map(|(_, st, _)| st));
    }
}

/// The coordinator's run state: the recorder, the observer, and the
/// per-worker and imbalance totals of a pooled run.
struct Coordinator<'a, O> {
    config: &'a RunConfig,
    obs: &'a mut O,
    rec: Recorder,
    /// This superstep's fired ids, sorted.
    fired: Vec<NeuronId>,
    /// This superstep's inbound message counts, summed over the cells.
    tick_traffic: Vec<u64>,
    parts: usize,
    supersteps: u64,
    /// Per-worker totals (pooled runs only).
    workers: Vec<WorkerStats>,
    imbalance_max: f64,
    imbalance_sum: f64,
    imbalance_n: u64,
}

impl<O: RunObserver> Coordinator<'_, O> {
    /// The superstep loop: runs `step` at each pending time until the
    /// fold ends the run, returning the run's `(steps, reason)`. `step`
    /// fills `cells` and returns the nanoseconds the coordinator blocked.
    fn drive(
        &mut self,
        mut next: ControlFlow<(Time, StopReason), Time>,
        cells: &[Mutex<WorkerOut>],
        mut step: impl FnMut(Time) -> u64,
    ) -> (Time, StopReason) {
        loop {
            let t = match next {
                ControlFlow::Continue(t) => t,
                ControlFlow::Break(end) => return end,
            };
            self.supersteps += 1;
            let blocked_ns = step(t);
            next = self.fold(t, cells, blocked_ns);
        }
    }

    /// Folds superstep `t`'s cells into the recorder and the observer
    /// and decides what comes next: the next pending time, or the end of
    /// the run. More than one cell means the pool ran the superstep, and
    /// only then are the worker, imbalance and barrier hooks reported.
    fn fold(
        &mut self,
        t: Time,
        cells: &[Mutex<WorkerOut>],
        blocked_ns: u64,
    ) -> ControlFlow<(Time, StopReason), Time> {
        let pooled = cells.len() > 1;
        self.fired.clear();
        let mut batch = 0u64;
        let mut updates = 0u64;
        let mut deliveries = 0u64;
        let mut sched = SchedulerStats::default();
        let mut next: Option<Time> = None;
        let mut busy_max = 0u64;
        let mut busy_sum = 0u64;
        for (w, cell) in cells.iter().enumerate() {
            let out = cell.lock().expect("worker cell poisoned");
            self.fired.extend_from_slice(&out.fired);
            batch += out.batch;
            updates += out.updates;
            deliveries += out.deliveries;
            if let Some(nt) = out.next_time {
                next = Some(next.map_or(nt, |b| b.min(nt)));
            }
            if O::ENABLED {
                sched.in_flight += out.sched.in_flight;
                sched.occupied_slots += out.sched.occupied_slots;
                sched.overflow_entries += out.sched.overflow_entries;
                sched.overflow_hits += out.sched.overflow_hits;
                for (acc, &v) in self.tick_traffic.iter_mut().zip(&out.tick_traffic) {
                    *acc += v;
                }
            }
            if pooled {
                self.workers[w].busy_ns += out.busy_ns;
                self.workers[w].barrier_wait_ns += out.wait_ns;
                busy_max = busy_max.max(out.busy_ns);
                busy_sum += out.busy_ns;
                if O::ENABLED {
                    self.obs
                        .on_worker_superstep(t, w as u32, out.busy_ns, out.wait_ns);
                }
            }
        }
        self.fired.sort_unstable();
        if busy_sum > 0 {
            let ratio = busy_max as f64 * cells.len() as f64 / busy_sum as f64;
            self.imbalance_max = self.imbalance_max.max(ratio);
            self.imbalance_sum += ratio;
            self.imbalance_n += 1;
        }

        // The t = 0 injection drains no batch.
        if t > 0 {
            self.obs.on_spike_batch(t, batch);
        }
        self.rec.add_updates(updates);
        let stop_hit = self.rec.record_step(t, &self.fired, &self.config.stop);
        self.rec.add_deliveries(deliveries);
        self.obs.on_step(
            t,
            StepRecord {
                spikes: self.fired.len() as u64,
                deliveries,
                updates,
            },
        );
        if O::ENABLED {
            self.obs.on_scheduler(t, sched);
            if pooled {
                self.obs.on_barrier_wait(t, blocked_ns);
                if busy_sum > 0 {
                    let mean_busy = busy_sum / cells.len() as u64;
                    self.obs.on_superstep_imbalance(t, busy_max, mean_busy);
                }
            }
        }
        emit_cut_traffic(self.obs, t, self.parts, &mut self.tick_traffic);

        match next {
            _ if stop_hit => ControlFlow::Break((t, StopReason::ConditionMet)),
            None => ControlFlow::Break((t, StopReason::Quiescent)),
            Some(nt) if nt > self.config.max_steps => {
                ControlFlow::Break((self.config.max_steps, StopReason::MaxStepsReached))
            }
            Some(nt) => ControlFlow::Continue(nt),
        }
    }
}

/// One persistent pool worker: the worker body between the open and
/// close crossings, with the publish crossing in the middle.
fn worker_loop<O: RunObserver>(
    plan: &PartitionPlan<'_>,
    mailboxes: &[Option<Mailbox>],
    mut mine: Vec<Part<'_>>,
    cell: &Mutex<WorkerOut>,
    barrier: &SpinBarrier,
    cur_t: &AtomicU64,
    running: &AtomicBool,
) {
    // Barrier time spent after the cell report (the close crossing) is
    // carried into the next superstep's figure so nothing is dropped.
    let mut carry = Duration::ZERO;
    loop {
        let w0 = Instant::now();
        barrier.wait(); // open
        let opened = carry + w0.elapsed();
        if !running.load(Ordering::Acquire) {
            return;
        }
        let t = cur_t.load(Ordering::Acquire);

        let mut out = cell.lock().expect("worker cell poisoned");
        let b0 = Instant::now();
        let mut published = Duration::ZERO;
        superstep::<O>(plan, mailboxes, &mut mine, t, &mut out, || {
            let w1 = Instant::now();
            barrier.wait(); // publish
            published = w1.elapsed();
        });
        out.busy_ns = (b0.elapsed() - published).as_nanos() as u64;
        out.wait_ns = (opened + published).as_nanos() as u64;
        drop(out);

        let w2 = Instant::now();
        barrier.wait(); // close
        carry = w2.elapsed();
    }
}
