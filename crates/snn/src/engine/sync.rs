//! Synchronisation primitives shared by the thread-parallel engines.
//!
//! [`SpinBarrier`] started life inside the parallel dense engine; the
//! threaded partitioned driver meets at the same barrier design, so it
//! lives here now. See the module docs of [`super::parallel`] for the
//! measurements that motivated the tiered wait.
//!
//! [`par_map`] is the one scoped fan-out for independent jobs: batch
//! runs, per-partition plan builds, per-source APSP rebuilds and the
//! experiment sweeps all go through it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Spins before yielding in [`SpinBarrier::wait`]. Parallel-engine steps
/// over `min_chunk`-sized chunks complete in well under this many spins;
/// the yield path only triggers when a peer is descheduled.
const SPIN_LIMIT: u32 = 1 << 10;

/// Yield rounds after the spin budget before parking on the condvar.
/// Yielding is enough when peers are merely timesliced out; parking only
/// happens when the system is genuinely oversubscribed for a while.
const YIELD_LIMIT: u32 = 64;

/// Sense-reversing barrier with a tiered wait: spin on the generation
/// counter (with [`std::hint::spin_loop`]) for [`SPIN_LIMIT`] rounds, then
/// [`std::thread::yield_now`] for [`YIELD_LIMIT`] rounds, then park on a
/// condvar. The common microsecond-scale step resolves in the spin tier
/// without entering the kernel; the park tier keeps the barrier from
/// burning scheduler quanta when there are fewer cores than parties (a
/// waiter's spin cycles are then stolen from the very peer it waits for —
/// spinning is skipped outright in that case).
pub(crate) struct SpinBarrier {
    parties: usize,
    /// Per-instance spin budget: [`SPIN_LIMIT`], or 0 when the machine
    /// cannot run all parties concurrently anyway.
    spin: u32,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    lock: Mutex<()>,
    parked: Condvar,
}

impl SpinBarrier {
    pub(crate) fn new(parties: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self {
            parties,
            spin: if cores >= parties { SPIN_LIMIT } else { 0 },
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            lock: Mutex::new(()),
            parked: Condvar::new(),
        }
    }

    pub(crate) fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arriver: reset the count, then open the next generation.
            // The release store on `generation` publishes the reset (and
            // all pre-barrier writes) to every waiter's acquire load.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            // Taking (and dropping) the lock between the generation bump
            // and the notify closes the park race: a waiter that saw the
            // old generation either re-checks it under this lock before
            // parking, or is already parked and receives the notify.
            drop(self.lock.lock().expect("barrier lock poisoned"));
            self.parked.notify_all();
        } else {
            let mut rounds = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if rounds < self.spin {
                    std::hint::spin_loop();
                } else if rounds < self.spin + YIELD_LIMIT {
                    std::thread::yield_now();
                } else {
                    let mut guard = self.lock.lock().expect("barrier lock poisoned");
                    while self.generation.load(Ordering::Acquire) == gen {
                        guard = self.parked.wait(guard).expect("barrier lock poisoned");
                    }
                    break;
                }
                rounds += 1;
            }
        }
    }
}

/// Most workers a thread-parallel component starts by default: the
/// [`super::BatchRunner`] pool, a default [`super::ParallelDenseEngine`],
/// and the number of run scratches the batch pool keeps between calls.
pub(crate) const MAX_DEFAULT_WORKERS: usize = 8;

/// One worker per available core, capped at [`MAX_DEFAULT_WORKERS`].
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(MAX_DEFAULT_WORKERS)
}

/// Applies `job` to every index in `0..count` on up to `threads` scoped
/// workers and returns the results in index order.
///
/// Workers claim indices off one atomic counter (work stealing: a slow
/// job never stalls a chunk of finished ones), and each builds one
/// `init()` state that it reuses across every index it claims — a batch
/// worker's recycled engine scratch, say. One worker (`threads <= 1`, or
/// at most one index) runs inline on the calling thread with no spawn.
///
/// # Panics
/// Re-raises the first worker panic on the calling thread.
pub fn par_map<S, R: Send>(
    count: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    let workers = threads.clamp(1, count.max(1));
    if workers == 1 {
        let mut state = init();
        return (0..count).map(|i| job(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            return mine;
                        }
                        mine.push((i, job(&mut state, i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(100, 4, || (), |(), i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_single_thread_runs_inline() {
        let caller = std::thread::current().id();
        let out = par_map(3, 1, || (), |(), i| (i + 1, std::thread::current().id()));
        assert_eq!(out.iter().map(|&(v, _)| v).collect::<Vec<_>>(), [1, 2, 3]);
        assert!(out.iter().all(|&(_, id)| id == caller));
    }

    #[test]
    fn par_map_empty_input() {
        assert!(par_map(0, 4, || (), |(), i| i).is_empty());
    }

    #[test]
    fn par_map_parallel_equals_sequential_for_seeded_work() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let work = |(): &mut (), s: usize| {
            let mut rng = StdRng::seed_from_u64(s as u64);
            (0..100).map(|_| rng.gen_range(0..1000u64)).sum::<u64>()
        };
        assert_eq!(par_map(32, 8, || (), work), par_map(32, 1, || (), work));
    }

    #[test]
    fn par_map_builds_one_state_per_worker() {
        for (threads, most) in [(4, 4), (1, 1)] {
            let inits = AtomicUsize::new(0);
            let out = par_map(
                100,
                threads,
                || inits.fetch_add(1, Ordering::Relaxed),
                |state, i| (*state, i),
            );
            let built = inits.load(Ordering::Relaxed);
            assert!(
                (1..=most).contains(&built),
                "threads = {threads}: {built} inits"
            );
            assert!(out.iter().all(|&(state, _)| state < built));
            assert_eq!(
                out.iter().map(|&(_, i)| i).collect::<Vec<_>>(),
                (0..100).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn barrier_synchronises_generations() {
        let barrier = SpinBarrier::new(3);
        let counter = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for round in 0..50u64 {
                        counter.fetch_add(1, Ordering::AcqRel);
                        barrier.wait();
                        // Between two waits, every party has bumped.
                        assert!(counter.load(Ordering::Acquire) >= (round + 1) * 3);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Acquire), 150);
    }
}
