//! Thread-parallel time-stepped engine.
//!
//! Each LIF update (Eqs. (1)–(3)) touches only that neuron's state, so a
//! synchronous step is embarrassingly parallel across neurons: the neuron
//! range splits into per-worker chunks, every worker advances its chunk,
//! and spike routing is merged after the step barrier — the same
//! compute/communicate cadence a multi-core neuromorphic chip follows
//! every tick. Results are bit-identical to [`super::DenseEngine`]
//! (verified by property tests): parallelism only reorders independent
//! per-neuron work.
//!
//! Workers are spawned once per run and kept alive across steps,
//! synchronised by a pair of barriers per step. The previous
//! implementation spawned `threads` fresh OS threads *every step*, which
//! cost tens of microseconds per step — orders of magnitude more than the
//! step's arithmetic for small networks.
//!
//! Two guards keep the fixed overhead bounded for small networks:
//!
//! * [`ParallelDenseEngine::min_chunk`] caps the worker count so no worker
//!   owns fewer neurons than a barrier round-trip is worth; when only one
//!   worker remains, the run delegates to [`super::DenseEngine`] outright.
//! * The per-step barriers are spin/yield/park tiered ([`SpinBarrier`])
//!   instead of [`std::sync::Barrier`]: a dense step over a small chunk
//!   takes well under a microsecond, so parking the thread in the kernel
//!   (and paying the wakeup) per barrier dominated total runtime at small
//!   `n` — the committed baseline had `parallel_dense/64` ~40× over
//!   `dense/64`. The park tier remains as the backstop so oversubscribed
//!   machines (fewer cores than parties) don't burn whole scheduler
//!   quanta spinning for a peer that cannot be running.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sgl_observe::{NullObserver, RunObserver, StepRecord};

use super::batch::RunScratch;
use super::dense::route_spikes;
use super::sync::SpinBarrier;
use super::{
    check_initial, DenseEngine, Engine, EngineChoice, Recorder, RunConfig, RunResult, StopReason,
};
use crate::error::SnnError;
use crate::params::LifParams;
use crate::types::NeuronId;
use crate::Network;

/// Default [`ParallelDenseEngine::min_chunk`]: below ~64 neurons per
/// worker, a step's arithmetic is cheaper than its two barrier crossings,
/// so splitting finer only adds synchronisation overhead.
pub const DEFAULT_MIN_CHUNK: usize = 64;

/// Dense engine with per-step neuron-range parallelism over `threads`
/// worker threads (1 = sequential, identical to [`super::DenseEngine`]).
/// Observed runs additionally report the coordinator's per-step
/// barrier-block time via [`RunObserver::on_barrier_wait`].
#[derive(Clone, Copy, Debug)]
pub struct ParallelDenseEngine {
    /// Worker threads per step.
    pub threads: usize,
    /// Minimum neurons per worker: the engine never splits the neuron
    /// range into chunks smaller than this, shedding workers (down to the
    /// plain dense engine at one) rather than paying barrier crossings
    /// that cost more than the chunk's arithmetic. Set to 1 to force the
    /// full requested thread count regardless of network size.
    pub min_chunk: usize,
}

impl Default for ParallelDenseEngine {
    fn default() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(8),
        )
    }
}

impl ParallelDenseEngine {
    /// Engine over `threads` workers with the default occupancy guard
    /// ([`DEFAULT_MIN_CHUNK`] neurons per worker minimum).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            min_chunk: DEFAULT_MIN_CHUNK,
        }
    }
}

/// Per-worker mailboxes. The main thread writes `inbox` and reads
/// `fired`/`armed` only while the worker is parked at a barrier, so the
/// mutexes are never contended — they exist to satisfy `Sync`.
struct WorkerCell {
    /// Deliveries for this worker's chunk, in global-batch order
    /// (preserves the accumulation order the dense engine uses).
    inbox: Mutex<Vec<(usize, f64)>>,
    /// (sorted fired ids, armed flag) produced by the last step.
    out: Mutex<(Vec<NeuronId>, bool)>,
}

impl Engine for ParallelDenseEngine {
    fn run(
        &self,
        net: &Network,
        initial_spikes: &[NeuronId],
        config: &RunConfig,
    ) -> Result<RunResult, SnnError> {
        EngineChoice::Parallel(*self).prepare(net)?.run(
            initial_spikes,
            config,
            &mut RunScratch::new(),
            &mut NullObserver,
        )
    }
}

impl ParallelDenseEngine {
    /// Neurons each worker owns for a network of `n` neurons: an even
    /// split across `threads`, floored at `min_chunk` so tiny networks
    /// shed workers instead of paying barrier overhead.
    fn chunk_size(&self, n: usize) -> usize {
        n.div_ceil(self.threads.max(1)).max(self.min_chunk.max(1))
    }

    /// The hot path: runs a network that [`EngineChoice::prepare`] has
    /// already validated (see [`super::Prepared::run`]).
    pub(crate) fn run_core<O: RunObserver>(
        &self,
        net: &Network,
        initial_spikes: &[NeuronId],
        config: &RunConfig,
        scratch: &mut RunScratch,
        obs: &mut O,
    ) -> Result<RunResult, SnnError> {
        let n = net.neuron_count();
        let chunk = self.chunk_size(n);
        if n.div_ceil(chunk.max(1)) <= 1 {
            // One worker would own the whole range: that is the dense
            // engine with extra synchronisation. Delegate (hook cadence is
            // identical; results are bit-identical by the engine contract).
            return DenseEngine.run_core(net, initial_spikes, config, scratch, obs);
        }
        check_initial(net, initial_spikes)?;
        let mut rec = Recorder::new(net, config)?;
        let csr = net.csr();
        let params = net.params_slice();

        scratch.reset(net);
        let RunScratch {
            wheel,
            batch,
            fired,
            ..
        } = scratch;

        fired.extend_from_slice(initial_spikes);
        fired.sort_unstable();
        fired.dedup();

        let mut stop_hit = rec.record_step(0, fired, &config.stop);
        let deliveries = route_spikes(csr, fired, 0, wheel, &mut rec);
        obs.on_step(
            0,
            StepRecord {
                spikes: fired.len() as u64,
                deliveries,
                updates: 0,
            },
        );
        if O::ENABLED {
            obs.on_scheduler(0, wheel.observe());
        }
        if stop_hit {
            return rec.finish(0, StopReason::ConditionMet, config);
        }
        let spontaneous = params.iter().any(|p| !p.is_input_driven());
        if wheel.is_empty() && !spontaneous {
            return rec.finish(0, StopReason::Quiescent, config);
        }

        // Partition by chunk size, then count the chunks that actually
        // exist: `chunk`-sized pieces can cover `n` neurons in fewer than
        // `threads` chunks (both from rounding and from the `min_chunk`
        // floor), and every worker must own a non-empty range or the
        // barriers would wait on idle threads.
        let workers = n.div_ceil(chunk);
        let cells: Vec<WorkerCell> = (0..workers)
            .map(|_| WorkerCell {
                inbox: Mutex::new(Vec::new()),
                out: Mutex::new((Vec::new(), false)),
            })
            .collect();
        // Both barriers include the main thread. `start` opens a step (or,
        // with `running` false, releases the workers to exit); `end` closes
        // it, after which the workers' outboxes are safe to read.
        let start = SpinBarrier::new(workers + 1);
        let end = SpinBarrier::new(workers + 1);
        let running = AtomicBool::new(true);

        let (steps, reason) = std::thread::scope(|scope| {
            for (wi, (cell, chunk_params)) in cells.iter().zip(params.chunks(chunk)).enumerate() {
                let base = wi * chunk;
                let (start, end, running) = (&start, &end, &running);
                scope.spawn(move || {
                    worker_loop(base, chunk_params, cell, start, end, running);
                });
            }

            let outcome = 'run: {
                for t in 1..=config.max_steps {
                    batch.clear();
                    wheel.drain_at(t, batch);
                    obs.on_spike_batch(t, batch.len() as u64);
                    for &(id, w) in batch.iter() {
                        let i = id.index();
                        cells[i / chunk]
                            .inbox
                            .lock()
                            .expect("engine inbox poisoned")
                            .push((i, w));
                    }

                    if O::ENABLED {
                        // Coordinator block time across both barriers: the
                        // step's full compute+sync window as the
                        // coordinator experiences it.
                        let t0 = Instant::now();
                        start.wait();
                        end.wait();
                        obs.on_barrier_wait(t, t0.elapsed().as_nanos() as u64);
                    } else {
                        start.wait();
                        // Workers run Eqs. (1)–(3) over their chunks.
                        end.wait();
                    }
                    rec.add_updates(n as u64);

                    // Merge in chunk order: per-chunk lists are id-sorted,
                    // so the concatenation is globally sorted.
                    fired.clear();
                    let mut armed = false;
                    for cell in &cells {
                        let out = cell.out.lock().expect("engine outbox poisoned");
                        fired.extend_from_slice(&out.0);
                        armed |= out.1;
                    }

                    stop_hit = rec.record_step(t, fired, &config.stop);
                    let deliveries = route_spikes(csr, fired, t, wheel, &mut rec);
                    obs.on_step(
                        t,
                        StepRecord {
                            spikes: fired.len() as u64,
                            deliveries,
                            updates: n as u64,
                        },
                    );
                    if O::ENABLED {
                        obs.on_scheduler(t, wheel.observe());
                    }

                    if stop_hit {
                        break 'run (t, StopReason::ConditionMet);
                    }
                    if wheel.is_empty() && !armed {
                        break 'run (t, StopReason::Quiescent);
                    }
                }
                (config.max_steps, StopReason::MaxStepsReached)
            };

            // Release the pool before leaving the scope.
            running.store(false, Ordering::Release);
            start.wait();
            outcome
        });

        rec.finish(steps, reason, config)
    }
}

/// One persistent worker: waits at `start`, applies its inbox, advances
/// its neuron chunk one step, publishes (fired, armed), waits at `end`.
fn worker_loop(
    base: usize,
    params: &[LifParams],
    cell: &WorkerCell,
    start: &SpinBarrier,
    end: &SpinBarrier,
    running: &AtomicBool,
) {
    let mut voltages: Vec<f64> = params.iter().map(|p| p.v_reset).collect();
    let mut syn: Vec<f64> = vec![0.0; params.len()];
    loop {
        start.wait();
        if !running.load(Ordering::Acquire) {
            return;
        }
        {
            let mut inbox = cell.inbox.lock().expect("engine inbox poisoned");
            for &(i, w) in inbox.iter() {
                syn[i - base] += w;
            }
            inbox.clear();
        }
        {
            let mut out = cell.out.lock().expect("engine outbox poisoned");
            let (local_fired, armed) = &mut *out;
            local_fired.clear();
            *armed = false;
            for (li, p) in params.iter().enumerate() {
                let v = voltages[li];
                let v_hat = v - (v - p.v_reset) * p.decay + syn[li];
                if v_hat > p.v_threshold {
                    local_fired.push(NeuronId((base + li) as u32));
                    voltages[li] = p.v_reset;
                } else {
                    voltages[li] = v_hat;
                }
                syn[li] = 0.0;
                let v_next = voltages[li] - (voltages[li] - p.v_reset) * p.decay;
                *armed |= v_next > p.v_threshold;
            }
        }
        end.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DenseEngine;
    use crate::params::LifParams;

    #[test]
    fn matches_dense_on_a_chain() {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), 5);
        for w in ids.windows(2) {
            net.connect(w[0], w[1], 1.0, 3).unwrap();
        }
        let cfg = RunConfig::until_quiescent(64).with_raster();
        // min_chunk 1: actually exercise the pool on a 5-neuron net.
        let par = ParallelDenseEngine {
            threads: 4,
            min_chunk: 1,
        }
        .run(&net, &[ids[0]], &cfg)
        .unwrap();
        let seq = DenseEngine.run(&net, &[ids[0]], &cfg).unwrap();
        assert_eq!(par.first_spikes, seq.first_spikes);
        assert_eq!(par.raster, seq.raster);
        assert_eq!(par.steps, seq.steps);
        assert_eq!(par.reason, seq.reason);
    }

    #[test]
    fn one_thread_is_dense() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let b = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(a, b, 1.0, 2).unwrap();
        let cfg = RunConfig::fixed(10);
        let par = ParallelDenseEngine::new(1).run(&net, &[a], &cfg).unwrap();
        let seq = DenseEngine.run(&net, &[a], &cfg).unwrap();
        assert_eq!(par.first_spikes, seq.first_spikes);
    }

    #[test]
    fn more_threads_than_neurons() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let cfg = RunConfig::fixed(3);
        let r = ParallelDenseEngine {
            threads: 16,
            min_chunk: 1,
        }
        .run(&net, &[a], &cfg)
        .unwrap();
        assert_eq!(r.first_spikes[a.index()], Some(0));
    }
}
