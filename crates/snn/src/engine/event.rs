//! Event-driven engine: work proportional to spike traffic.

use std::ops::Range;

use sgl_observe::{RunObserver, StepRecord};

use super::batch::RunScratch;
use super::dense::route_spikes;
use super::wheel::TimeWheel;
use super::{check_initial, Engine, EngineChoice, Recorder, RunConfig, RunResult, StopReason};
use crate::error::SnnError;
use crate::network::Network;
use crate::params::LifParams;
use crate::types::{NeuronId, Time};

/// Event-driven engine with lazy voltage decay.
///
/// Only neurons that receive synaptic input in a given step are touched;
/// decay over the intervening quiet interval `Δ` is applied in closed form,
/// `v ← v_reset + (v - v_reset)(1 - τ)^Δ`. This is exact because between
/// inputs an input-driven neuron's voltage moves monotonically toward
/// `v_reset ≤ v_threshold` and therefore cannot cross the threshold, so
/// firing can only happen at input-arrival steps.
///
/// Requires every neuron to satisfy `v_reset <= v_threshold`
/// ([`crate::LifParams::is_input_driven`]); the run fails with
/// [`SnnError::SpontaneousNeuron`] otherwise.
///
/// This engine embodies the event-driven-communication argument of §2.1:
/// its work counters grow with spike events and synaptic deliveries, not
/// with `neurons × steps`, which is why delay-encoded algorithms run in
/// time `O(L + m)` rather than `O(n · L)` in practice.
#[derive(Clone, Copy, Debug, Default)]
pub struct EventEngine;

impl Engine for EventEngine {
    fn choice(&self) -> EngineChoice {
        EngineChoice::Event
    }
}

impl EventEngine {
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
        check_initial(net, initial_spikes)?;
        let mut rec = Recorder::new(net, config)?;
        let csr = net.csr();
        let params = net.params_slice();

        scratch.reset(net);
        let RunScratch {
            wheel,
            batch,
            fired,
            voltages,
            last_update,
            // The dense engines' synaptic accumulator doubles as the event
            // engine's per-step `accum`; both are all-zeros between steps.
            syn: accum,
            dirty,
            touched_ids: touched,
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

        let mut last_active: Time = 0;
        while let Some(t) = wheel.next_time() {
            if t > config.max_steps {
                break;
            }

            let (delivered, updates) = update_step(
                t,
                params,
                wheel,
                LazyState {
                    batch,
                    voltages,
                    last_update,
                    accum,
                    dirty,
                    touched,
                },
                fired,
            );
            obs.on_spike_batch(t, delivered);
            rec.add_updates(updates);
            last_active = t;

            stop_hit = rec.record_step(t, fired, &config.stop);
            let deliveries = route_spikes(csr, fired, t, wheel, &mut rec);
            obs.on_step(
                t,
                StepRecord {
                    spikes: fired.len() as u64,
                    deliveries,
                    updates,
                },
            );
            if O::ENABLED {
                obs.on_scheduler(t, wheel.observe());
            }

            if stop_hit {
                return rec.finish(t, StopReason::ConditionMet, config);
            }
        }

        if wheel.is_empty() {
            rec.finish(last_active, StopReason::Quiescent, config)
        } else {
            rec.finish(config.max_steps, StopReason::MaxStepsReached, config)
        }
    }
}

/// Most bitset words the in-order scan may walk per touched neuron. A
/// step whose touched neurons span at most `SCAN_WORDS_PER_TOUCHED · k`
/// words (`k` touched) visits them by walking those words in ascending
/// order — a word load and a few bit operations each, no comparisons;
/// sparser steps (few neurons far apart) comparison-sort `touched`
/// instead, so no step walks many empty words.
///
/// Measured, not guessed, over SSSP nets (span/k per step, then wall
/// time of repeated queries on a recycled scratch, per constant):
///
/// * 10⁶-neuron layered net (200 × 5000, fanout 3, `partitioned_sssp`'s
///   graph): 99.9% of touched neurons sit in steps with span ≤ k, so any
///   constant ≥ 1 scans them; sort-only (constant 0) is ~30% slower.
/// * 200 × 200 serve grid: the row-major wavefront spreads, so 85% of
///   touched neurons sit in steps with k < span ≤ 2k and 14% more at
///   ≤ 4k. A constant of 1 sorts most steps and is ~30% slower than 4;
///   4, 8, 16, 64 and scan-always are within noise of one another.
///
/// 4 is the smallest constant that scans both nets' steps, and it keeps
/// the walk to a few word loads per update on steps whose few touched
/// neurons lie far apart, where the sort is cheap.
const SCAN_WORDS_PER_TOUCHED: usize = 4;

/// The event engine's per-neuron lazy-decay state, borrowed for one
/// [`update_step`]. `voltages`, `last_update` and `accum` are indexed by
/// neuron id; `dirty` is a bitset over the same ids (bit `i % 64` of word
/// `i / 64`). Between steps `accum` is all zero, `dirty` all clear and
/// `touched` empty.
pub(crate) struct LazyState<'a> {
    /// Drained delivery batch (scratch; overwritten each step).
    pub(crate) batch: &'a mut Vec<(NeuronId, f64)>,
    /// Membrane potential as of `last_update`.
    pub(crate) voltages: &'a mut [f64],
    /// Last step each neuron's decay was applied.
    pub(crate) last_update: &'a mut [Time],
    /// Per-step synaptic input accumulator.
    pub(crate) accum: &'a mut [f64],
    /// Membership bitset for `touched`, `ceil(n / 64)` words.
    pub(crate) dirty: &'a mut [u64],
    /// Neurons receiving input this step, in first-touch order.
    pub(crate) touched: &'a mut Vec<NeuronId>,
}

/// One event-driven step at `t`: drains every delivery due at `t` from
/// `wheel`, accumulates it per target, and updates exactly the touched
/// neurons — lazy decay over the quiet interval, add input, threshold —
/// leaving the ones that fire in `fired`, ascending. Returns
/// `(deliveries drained, neurons updated)`.
///
/// The wheel yields deliveries in scheduling order — the same order the
/// dense engines accumulate in — so per-target sums are bit-identical
/// across engines. The touched neurons are updated in ascending id order
/// either way: by walking the `dirty` bitset's touched words when they
/// are dense enough ([`SCAN_WORDS_PER_TOUCHED`]), by sorting `touched`
/// otherwise. The event engine runs this over the whole network; the
/// partitioned engine runs it per partition, over the partition's
/// id-range slice of the same scratch arrays.
pub(crate) fn update_step(
    t: Time,
    params: &[LifParams],
    wheel: &mut TimeWheel,
    mut st: LazyState<'_>,
    fired: &mut Vec<NeuronId>,
) -> (u64, u64) {
    st.batch.clear();
    wheel.drain_at(t, st.batch);
    let words = st.accumulate();
    let scan = words.len() <= SCAN_WORDS_PER_TOUCHED * st.touched.len();
    let updates = st.update(t, params, words, scan, fired);
    (st.batch.len() as u64, updates)
}

impl LazyState<'_> {
    /// Adds the drained batch into `accum`, recording each neuron's first
    /// touch in `dirty` and `touched`. Returns the span of bitset words
    /// holding a touched bit (empty when nothing was delivered).
    ///
    /// The loop has no first-touch branch: every delivery sets its dirty
    /// bit, widens `lo..=hi` (each delivery's word holds a touched bit,
    /// so the span is the first touches' span) and writes its id at
    /// `touched[k]`, and only a first touch advances `k`. A repeat's write
    /// lands past the first touches and the next write overwrites it, so
    /// `touched[..k]` is the first-touch order.
    /// `touched` (empty on entry) is sized once per step to
    /// `min(batch.len(), accum.len() + 1)`: no write lands past the
    /// deliveries seen or past one beyond the range's distinct ids, and
    /// an exact reservation keeps its capacity within that bound.
    fn accumulate(&mut self) -> Range<usize> {
        let Self {
            batch,
            accum,
            dirty,
            touched,
            ..
        } = self;
        let len = batch.len().min(accum.len() + 1);
        touched.reserve_exact(len);
        touched.resize(len, NeuronId(0));
        let (mut lo, mut hi, mut k) = (usize::MAX, 0, 0);
        for &(id, w) in batch.iter() {
            let i = id.index();
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            let first = dirty[word] & bit == 0;
            dirty[word] |= bit;
            touched[k] = id;
            k += usize::from(first);
            lo = lo.min(word);
            hi = hi.max(word);
            accum[i] += w;
        }
        touched.truncate(k);
        if k == 0 {
            0..0
        } else {
            lo..hi + 1
        }
    }

    /// Updates every touched neuron in ascending id order — walking the
    /// bitset `words` when `scan`, sorting `touched` otherwise — and
    /// leaves `dirty` all clear, `touched` empty and the fired ids,
    /// ascending, in `fired`. Returns the number of neurons updated.
    fn update(
        &mut self,
        t: Time,
        params: &[LifParams],
        words: Range<usize>,
        scan: bool,
        fired: &mut Vec<NeuronId>,
    ) -> u64 {
        let Self {
            voltages,
            last_update,
            accum,
            dirty,
            touched,
            ..
        } = self;
        fired.clear();
        let mut update = |i: usize| {
            let p = &params[i];
            let dt = t - last_update[i];
            let v0 = voltages[i];
            // dt == 0 cannot happen (events batch per step), and decay 0
            // keeps the voltage; both leave v0 untouched.
            let decayed = if dt == 0 || p.decay == 0.0 {
                v0
            } else if p.decay == 1.0 {
                p.v_reset
            } else {
                p.v_reset + (v0 - p.v_reset) * decay_factor(1.0 - p.decay, dt)
            };
            let v_hat = decayed + accum[i];
            if v_hat > p.v_threshold {
                fired.push(NeuronId(i as u32));
                voltages[i] = p.v_reset;
            } else {
                voltages[i] = v_hat;
            }
            last_update[i] = t;
            accum[i] = 0.0;
        };
        if scan {
            for w in words {
                let mut bits = std::mem::take(&mut dirty[w]);
                while bits != 0 {
                    update(w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        } else {
            touched.sort_unstable();
            for &id in touched.iter() {
                dirty[id.index() / 64] = 0;
                update(id.index());
            }
        }
        let updates = touched.len() as u64;
        touched.clear();
        updates
    }
}

/// `keep^dt`, the voltage fraction left after `dt` quiet steps. `powi`
/// takes an `i32`, so a quiet interval past `i32::MAX` steps uses
/// `powf`: a wrapped exponent is negative, and a saturated one is wrong
/// for decay rates so small that `keep^i32::MAX` is not yet zero.
fn decay_factor(keep: f64, dt: Time) -> f64 {
    match i32::try_from(dt) {
        Ok(e) => keep.powi(e),
        Err(_) => keep.powf(dt as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LifParams;

    #[test]
    fn parallel_edges_count_one_touched_pair() {
        // Two same-delay edges into the same target must accumulate into
        // one neuron update, not two (the dirty bitmap dedups per step) —
        // including when the weights cancel to exactly zero.
        let mut net = Network::new();
        let src = net.add_neuron(LifParams::gate_at_least(1));
        let tgt = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(src, tgt, 2.0, 3).unwrap();
        net.connect(src, tgt, -2.0, 3).unwrap();
        let r = EventEngine
            .run(&net, &[src], &RunConfig::until_quiescent(10))
            .unwrap();
        assert_eq!(r.stats.neuron_updates, 1);
        assert_eq!(r.stats.synaptic_deliveries, 2);
        assert!(!r.fired(tgt));
    }

    #[test]
    fn matches_dense_on_delay_chain() {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), 3);
        net.connect(ids[0], ids[1], 1.0, 4).unwrap();
        net.connect(ids[1], ids[2], 1.0, 6).unwrap();
        let r = EventEngine
            .run(&net, &[ids[0]], &RunConfig::until_quiescent(100))
            .unwrap();
        assert_eq!(r.first_spike(ids[2]), Some(10));
        assert_eq!(r.steps, 10);
        assert_eq!(r.reason, StopReason::Quiescent);
    }

    #[test]
    fn rejects_spontaneous_neurons() {
        let mut net = Network::new();
        net.add_neuron(LifParams {
            v_reset: 2.0,
            v_threshold: 1.0,
            decay: 0.0,
        });
        assert!(matches!(
            EventEngine.run(&net, &[], &RunConfig::until_quiescent(10)),
            Err(SnnError::SpontaneousNeuron(_))
        ));
    }

    #[test]
    fn lazy_partial_decay_is_exact() {
        // tau = 0.5: 0.6 arrives at t=1, then 0.6 at t=4.
        // v(1)=0.6, decayed to t=4: 0.6 * 0.5^3 = 0.075; +0.6 = 0.675 < 0.9.
        // Then 0.6 at t=5: 0.675*0.5 + 0.6 = 0.9375 > 0.9 -> fires at 5.
        let mut net = Network::new();
        let src = net.add_neuron(LifParams::gate_at_least(1));
        let leaky = net.add_neuron(LifParams {
            v_reset: 0.0,
            v_threshold: 0.9,
            decay: 0.5,
        });
        net.connect(src, leaky, 0.6, 1).unwrap();
        net.connect(src, leaky, 0.6, 4).unwrap();
        net.connect(src, leaky, 0.6, 5).unwrap();
        let r = EventEngine
            .run(&net, &[src], &RunConfig::until_quiescent(10))
            .unwrap();
        assert_eq!(r.first_spike(leaky), Some(5));
    }

    #[test]
    fn latch_until_budget() {
        let mut net = Network::new();
        let m = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(m, m, 1.0, 1).unwrap();
        let r = EventEngine.run(&net, &[m], &RunConfig::fixed(15)).unwrap();
        assert_eq!(r.spike_counts[m.index()], 16);
        assert_eq!(r.reason, StopReason::MaxStepsReached);
        assert_eq!(r.steps, 15);
    }

    #[test]
    fn quiet_interval_beyond_i32_steps_decays_to_nothing() {
        // 0.25 arrives at t = 1 and decays for 3e9 quiet steps — past
        // `i32::MAX`, where a wrapped `powi` exponent would blow the
        // remainder up — before 0.3 < 0.5 arrives: b must never fire.
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let b = net.add_neuron(LifParams {
            v_reset: 0.0,
            v_threshold: 0.5,
            decay: 0.5,
        });
        net.connect(a, b, 0.25, 1).unwrap();
        net.connect(a, b, 0.3, 3_000_000_001).unwrap();
        let r = EventEngine
            .run(&net, &[a], &RunConfig::until_quiescent(4_000_000_000))
            .unwrap();
        assert!(!r.fired(b));
        assert_eq!(r.stats.neuron_updates, 2);
        assert_eq!(r.steps, 3_000_000_001);
        // `powi` below `i32::MAX` steps, `powf` beyond.
        assert_eq!(decay_factor(0.5, 3), 0.125);
        assert_eq!(decay_factor(0.5, 3_000_000_001), 0.0);
    }

    #[test]
    fn scan_and_sort_branches_update_alike() {
        // 300 neurons over five bitset words; deliveries hit both edges
        // of words 0 and 4, the middle words, and repeat targets, in an
        // order far from sorted.
        let params: Vec<LifParams> = (0..300)
            .map(|i| match i % 3 {
                0 => LifParams::gate(0.9),
                1 => LifParams::integrator(1.5),
                _ => LifParams {
                    v_reset: -0.5,
                    v_threshold: 0.4,
                    decay: 0.5,
                },
            })
            .collect();
        let deliveries: Vec<(NeuronId, f64)> = [
            (299, 1.0),
            (0, 0.5),
            (63, 2.0),
            (64, 0.7),
            (191, 1.2),
            (128, 0.3),
            (256, 1.6),
            (0, 0.6),
            (63, -0.4),
            (255, 0.95),
            (299, -0.2),
            (100, 0.8),
        ]
        .iter()
        .map(|&(i, w)| (NeuronId(i), w))
        .collect();
        let run = |scan: bool| {
            let mut batch = deliveries.clone();
            let mut voltages: Vec<f64> = (0..300).map(|i| f64::from(i % 5) * 0.1).collect();
            let mut last_update: Vec<Time> = (0..300).map(|i| i % 7).collect();
            let mut accum = vec![0.0; 300];
            let mut dirty = vec![0u64; 5];
            let mut touched = Vec::new();
            let mut fired = Vec::new();
            let mut st = LazyState {
                batch: &mut batch,
                voltages: &mut voltages,
                last_update: &mut last_update,
                accum: &mut accum,
                dirty: &mut dirty,
                touched: &mut touched,
            };
            let words = st.accumulate();
            assert_eq!(words, 0..5);
            assert_eq!(st.touched.len(), 9);
            let updates = st.update(10, &params, words, scan, &mut fired);
            assert_eq!(updates, 9);
            assert!(dirty.iter().all(|&w| w == 0), "bitset left dirty");
            assert!(touched.is_empty() && accum.iter().all(|&a| a == 0.0));
            (fired, voltages, last_update)
        };
        let scanned = run(true);
        assert_eq!(scanned, run(false));
        let fired: Vec<u32> = scanned.0.iter().map(|id| id.0).collect();
        assert_eq!(fired, [0, 63, 191, 255, 256]);
    }

    #[test]
    fn accumulate_records_each_first_touch_once_in_order() {
        // 130 neurons over three bitset words. The batches repeat targets
        // and straddle the 63|64 and 127|128 word edges. The fourth is
        // longer than the range plus one and follows one of 80, so a
        // `touched` that grew by doubling would pass `N + 1`.
        const N: usize = 130;
        let params = vec![LifParams::gate(0.9); N];
        let batches: Vec<Vec<u32>> = vec![
            vec![64, 64, 63, 64, 128, 63, 127, 64],
            vec![],
            (40..120).collect(),
            (0..100)
                .rev()
                .chain(0..N as u32)
                .chain([64, 63, 129])
                .collect(),
            vec![127, 128, 127, 128, 5],
        ];
        let run = |scan: bool| {
            let mut voltages = vec![0.0; N];
            let mut last_update: Vec<Time> = vec![0; N];
            let mut accum = vec![0.0; N];
            let mut dirty = vec![0u64; 3];
            let mut touched = Vec::new();
            let mut fired = Vec::new();
            let mut fired_per_step = Vec::new();
            for (step, ids) in batches.iter().enumerate() {
                let mut batch = ids.iter().map(|&i| (NeuronId(i), 0.5)).collect();
                let mut first: Vec<u32> = Vec::new();
                for &i in ids {
                    if !first.contains(&i) {
                        first.push(i);
                    }
                }
                let word = |i: &u32| *i as usize / 64;
                let span = match (first.iter().map(word).min(), first.iter().map(word).max()) {
                    (Some(lo), Some(hi)) => lo..hi + 1,
                    _ => 0..0,
                };
                let mut st = LazyState {
                    batch: &mut batch,
                    voltages: &mut voltages,
                    last_update: &mut last_update,
                    accum: &mut accum,
                    dirty: &mut dirty,
                    touched: &mut touched,
                };
                let words = st.accumulate();
                let got: Vec<u32> = st.touched.iter().map(|id| id.0).collect();
                assert_eq!(got, first, "step {step}: first-touch order");
                assert_eq!(words, span, "step {step}: word span");
                assert!(st.touched.capacity() <= N + 1, "touched grew past N + 1");
                let updates = st.update(step as Time + 1, &params, words, scan, &mut fired);
                assert_eq!(updates, first.len() as u64);
                assert!(dirty.iter().all(|&w| w == 0), "bitset left dirty");
                fired_per_step.push(fired.clone());
            }
            (fired_per_step, voltages)
        };
        let scanned = run(true);
        assert_eq!(scanned, run(false));
        assert_eq!(scanned.0[0], [NeuronId(63), NeuronId(64)]);
    }

    #[test]
    fn updates_only_touched_neurons() {
        // 1000 idle neurons, activity only along a 2-neuron path: event
        // engine must not pay for the idle ones.
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let b = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(a, b, 1.0, 50).unwrap();
        net.add_neurons(LifParams::gate_at_least(1), 1000);
        let r = EventEngine
            .run(&net, &[a], &RunConfig::until_quiescent(1000))
            .unwrap();
        assert_eq!(r.stats.neuron_updates, 1); // only b, once
        assert_eq!(r.first_spike(b), Some(50));
    }
}
