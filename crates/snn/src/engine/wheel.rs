//! Time-wheel (calendar queue) for pending synaptic deliveries.
//!
//! All engines schedule deliveries `delay` steps ahead and drain them in
//! time order. The previous implementations paid per-step `HashMap`
//! rehashing (dense engines) or per-delivery `BinaryHeap` churn (event
//! engine); the wheel makes both O(1): a delivery lands in
//! `slots[time & mask]`, slots are drained in place (capacity is
//! recycled, so steady-state runs stop allocating), and deliveries beyond
//! the wheel horizon spill into an ordered overflow map.
//!
//! The horizon is `clamp(max_delay, 1, HORIZON_CAP)` steps and decides
//! which deliveries go to the wheel; the slot count is the next power of
//! two at or above it, so a slot index is one AND rather than a 64-bit
//! division. The spare slots are never filled: in-horizon times
//! `now + 1 ..= now + horizon` map to distinct slots either way.
//!
//! A drain into an empty `out` swaps the due slot's buffer with `out`
//! instead of copying it; the slot keeps `out`'s old (empty) buffer, so
//! capacity circulates between the drain buffer and the slots and the
//! total stays what the copying drain retained.
//!
//! Determinism invariant: within one time step, the step's slot entries
//! drain first and its overflow entries after them, each group in exactly
//! the order it was scheduled. Engines schedule in (sorted firing id) ×
//! (CSR synapse order), so every engine accumulates synaptic
//! input into a given target in the same order — which keeps floating
//! point sums, and therefore entire `RunResult`s, bit-identical across
//! engines.

use std::collections::BTreeMap;

use sgl_observe::SchedulerStats;

use crate::types::{NeuronId, Time};

/// One pending synaptic delivery: `weight` arriving at `target`.
pub(crate) type Delivery = (NeuronId, f64);

/// Wheel slots beyond this are not allocated up front; longer delays go to
/// the overflow map. Bounds memory to O(cap) even for networks whose
/// delay-encoded edges are enormous.
///
/// Shared with [`crate::network::BitplaneTopology`]: the bit-plane engine
/// splits synapses into in-horizon and overflow sets with the *same*
/// boundary, so both engines classify — and therefore order — every
/// delivery identically. A power of two, so a capped wheel has no spare
/// slots.
pub(crate) const HORIZON_CAP: usize = 4096;

/// A calendar queue over discrete time, sized to the network's maximum
/// synaptic delay (capped; see [`HORIZON_CAP`]).
#[derive(Clone, Debug)]
pub(crate) struct TimeWheel {
    /// `slots[t & mask]` holds deliveries for time `t` whenever
    /// `now < t <= now + horizon`. Its length is a power of two.
    slots: Vec<Vec<Delivery>>,
    /// `slots.len() - 1`.
    mask: Time,
    /// Furthest step ahead of `now` that the wheel holds:
    /// `clamp(max_delay, 1, HORIZON_CAP)`, the bit-plane engine's split.
    horizon: Time,
    /// Deliveries scheduled beyond the wheel horizon, keyed by time.
    overflow: BTreeMap<Time, Vec<Delivery>>,
    /// All times `<= now` have been drained.
    now: Time,
    /// Total deliveries currently scheduled (wheel + overflow).
    in_flight: usize,
    /// Number of non-empty wheel slots, to short-circuit scans.
    occupied: usize,
    /// No occupied wheel slot lies strictly before this time; lets
    /// [`Self::next_time`] resume scanning where the last scan stopped
    /// instead of re-walking from `now + 1`.
    scan_from: Time,
    /// Cumulative count of deliveries that missed the wheel horizon and
    /// took the ordered-map slow path. Telemetry only; never read by the
    /// scheduling logic.
    overflow_hits: u64,
}

impl Default for TimeWheel {
    /// A minimal one-slot wheel; [`Self::reset`] re-sizes it on first use
    /// (this is what an empty `RunScratch` starts from).
    fn default() -> Self {
        Self::new(1)
    }
}

impl TimeWheel {
    /// A wheel able to hold delays up to `max_delay` without overflow.
    pub(crate) fn new(max_delay: u32) -> Self {
        let (horizon, len) = shape(max_delay);
        Self {
            slots: vec![Vec::new(); len],
            mask: len as Time - 1,
            horizon,
            overflow: BTreeMap::new(),
            now: 0,
            in_flight: 0,
            occupied: 0,
            scan_from: 1,
            overflow_hits: 0,
        }
    }

    /// Returns the wheel to its freshly-constructed state for a network
    /// whose maximum delay is `max_delay`, keeping slot capacity.
    ///
    /// This is the batch-runtime recycling path: slots are cleared (not
    /// reallocated), the overflow map and its cumulative hit counter are
    /// emptied, and the clock/scan cursors rewind, so a recycled wheel is
    /// observationally identical to `TimeWheel::new(max_delay)` — which is
    /// what keeps re-runs over recycled scratch bit-identical to fresh
    /// runs. Resizing only trims or appends empty slots; retained slots
    /// keep their capacity, so steady-state batches stop allocating.
    pub(crate) fn reset(&mut self, max_delay: u32) {
        let (horizon, len) = shape(max_delay);
        self.slots.truncate(len);
        for slot in &mut self.slots {
            slot.clear();
        }
        self.slots.resize(len, Vec::new());
        self.mask = len as Time - 1;
        self.horizon = horizon;
        self.overflow.clear();
        self.now = 0;
        self.in_flight = 0;
        self.occupied = 0;
        self.scan_from = 1;
        self.overflow_hits = 0;
    }

    /// True when nothing is scheduled — the "no spikes in flight" half of
    /// the quiescence test.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.in_flight == 0
    }

    /// Schedules a delivery at absolute time `at`.
    ///
    /// `at` must be in the future (`at > now`); engines guarantee this
    /// because synapse delays are >= 1.
    #[inline]
    pub(crate) fn schedule(&mut self, at: Time, target: NeuronId, weight: f64) {
        debug_assert!(at > self.now, "delivery scheduled into the past");
        self.in_flight += 1;
        if at - self.now <= self.horizon {
            let slot = &mut self.slots[(at & self.mask) as usize];
            if slot.is_empty() {
                self.occupied += 1;
            }
            slot.push((target, weight));
            self.scan_from = self.scan_from.min(at);
        } else {
            self.overflow_hits += 1;
            self.overflow.entry(at).or_default().push((target, weight));
        }
    }

    /// Occupancy snapshot for [`sgl_observe::RunObserver::on_scheduler`].
    /// Engines only call this when the observer is enabled, so unobserved
    /// runs never pay for it.
    pub(crate) fn observe(&self) -> SchedulerStats {
        SchedulerStats {
            in_flight: self.in_flight as u64,
            occupied_slots: self.occupied as u64,
            overflow_entries: self.overflow.len() as u64,
            overflow_hits: self.overflow_hits,
        }
    }

    /// Advances to time `t` and appends every delivery due at `t` to
    /// `out`, in scheduling order. An empty `out` takes the due slot's
    /// buffer by swap, so no delivery is copied; either way slot capacity
    /// is retained for reuse.
    ///
    /// Engines must visit times in non-decreasing order; times may be
    /// skipped (the event engine jumps quiet intervals), in which case any
    /// slots for the skipped times must be empty — guaranteed when `t`
    /// comes from [`Self::next_time`].
    pub(crate) fn drain_at(&mut self, t: Time, out: &mut Vec<Delivery>) {
        debug_assert!(t >= self.now, "wheel rewound");
        self.now = t;
        self.scan_from = self.scan_from.max(t + 1);
        let slot = &mut self.slots[(t & self.mask) as usize];
        if !slot.is_empty() {
            self.occupied -= 1;
            self.in_flight -= slot.len();
            if out.is_empty() {
                std::mem::swap(slot, out);
            } else {
                out.append(slot);
            }
        }
        // Overflow entries migrate straight to the drain when their time
        // comes; anything still beyond the horizon stays put.
        while let Some(entry) = self.overflow.first_entry() {
            if *entry.key() != t {
                break;
            }
            let batch = entry.remove();
            self.in_flight -= batch.len();
            out.extend(batch);
        }
    }

    /// Earliest time after `now` with a scheduled delivery, if any — the
    /// event engine's next step. Scans resume from the `scan_from` cursor
    /// (which only moves backwards when a genuinely earlier delivery is
    /// scheduled), so the cost is amortized O(1) per time unit advanced.
    pub(crate) fn next_time(&mut self) -> Option<Time> {
        let from_overflow = self.overflow.keys().next().copied();
        if self.occupied == 0 {
            return from_overflow;
        }
        let start = self.scan_from.max(self.now + 1);
        let from_wheel = (start..=self.now + self.horizon)
            .find(|t| !self.slots[(t & self.mask) as usize].is_empty());
        if let Some(w) = from_wheel {
            // Everything before `w` is known empty; remember that.
            self.scan_from = w;
        }
        match (from_wheel, from_overflow) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }
}

/// `(horizon, slot count)` for a network whose maximum delay is
/// `max_delay`: the horizon is `clamp(max_delay, 1, HORIZON_CAP)` and the
/// slot count the next power of two at or above it.
fn shape(max_delay: u32) -> (Time, usize) {
    let horizon = (max_delay as usize).clamp(1, HORIZON_CAP);
    (horizon as Time, horizon.next_power_of_two())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wheel: &mut TimeWheel, t: Time) -> Vec<Delivery> {
        let mut out = Vec::new();
        wheel.drain_at(t, &mut out);
        out
    }

    #[test]
    fn delivers_at_the_scheduled_time() {
        let mut w = TimeWheel::new(8);
        w.schedule(3, NeuronId(1), 1.5);
        w.schedule(5, NeuronId(2), -2.0);
        assert_eq!(w.next_time(), Some(3));
        assert!(drain(&mut w, 1).is_empty());
        assert_eq!(drain(&mut w, 3), vec![(NeuronId(1), 1.5)]);
        assert_eq!(w.next_time(), Some(5));
        assert_eq!(drain(&mut w, 5), vec![(NeuronId(2), -2.0)]);
        assert!(w.is_empty());
        assert_eq!(w.next_time(), None);
    }

    #[test]
    fn preserves_scheduling_order_within_a_step() {
        let mut w = TimeWheel::new(4);
        for k in 0..10 {
            w.schedule(2, NeuronId(k % 3), f64::from(k));
        }
        let got = drain(&mut w, 2);
        let weights: Vec<f64> = got.iter().map(|&(_, x)| x).collect();
        assert_eq!(weights, (0..10).map(f64::from).collect::<Vec<_>>());
    }

    #[test]
    fn wraps_around_and_recycles_slots() {
        let mut w = TimeWheel::new(3);
        for round in 0..50u64 {
            let t = round + 1;
            w.schedule(t + 2, NeuronId(0), 1.0);
            let due = drain(&mut w, t);
            if t > 2 {
                assert_eq!(due.len(), 1, "t = {t}");
            }
        }
    }

    #[test]
    fn far_future_goes_to_overflow_and_comes_back() {
        let mut w = TimeWheel::new(2);
        w.schedule(1_000_000, NeuronId(7), 3.25);
        w.schedule(1, NeuronId(1), 1.0);
        assert_eq!(w.next_time(), Some(1));
        assert_eq!(drain(&mut w, 1).len(), 1);
        assert_eq!(w.next_time(), Some(1_000_000));
        assert!(!w.is_empty());
        assert_eq!(drain(&mut w, 1_000_000), vec![(NeuronId(7), 3.25)]);
        assert!(w.is_empty());
    }

    #[test]
    fn horizon_cap_bounds_slot_count() {
        let w = TimeWheel::new(u32::MAX);
        assert_eq!(w.slots.len(), HORIZON_CAP);
    }

    #[test]
    fn zero_max_delay_still_valid() {
        // Edgeless networks report max_delay 0; the wheel must still work
        // for engines that never schedule anything.
        let mut w = TimeWheel::new(0);
        assert!(w.is_empty());
        assert_eq!(w.next_time(), None);
    }

    #[test]
    fn observe_tracks_occupancy_and_overflow() {
        let mut w = TimeWheel::new(2);
        w.schedule(1, NeuronId(0), 1.0);
        w.schedule(2, NeuronId(1), 1.0);
        w.schedule(1_000, NeuronId(2), 1.0); // beyond horizon
        let s = w.observe();
        assert_eq!(s.in_flight, 3);
        assert_eq!(s.occupied_slots, 2);
        assert_eq!(s.overflow_entries, 1);
        assert_eq!(s.overflow_hits, 1);
        drain(&mut w, 1);
        drain(&mut w, 2);
        drain(&mut w, 1_000);
        let s = w.observe();
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.occupied_slots, 0);
        assert_eq!(s.overflow_entries, 0);
        // Hits are cumulative: the slow path was taken once this run.
        assert_eq!(s.overflow_hits, 1);
    }

    #[test]
    fn reset_restores_pristine_state_and_resizes() {
        let mut w = TimeWheel::new(4);
        w.schedule(2, NeuronId(0), 1.0);
        w.schedule(10_000, NeuronId(1), 2.0); // overflow path
        drain(&mut w, 1); // advance the clock without clearing everything
        assert!(!w.is_empty());
        w.reset(7);
        assert!(w.is_empty());
        assert_eq!(w.next_time(), None);
        let s = w.observe();
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.occupied_slots, 0);
        assert_eq!(s.overflow_entries, 0);
        assert_eq!(s.overflow_hits, 0);
        assert_eq!((w.horizon, w.slots.len()), (7, 8));
        // A recycled wheel behaves exactly like a fresh one.
        w.schedule(3, NeuronId(2), 4.0);
        assert_eq!(w.next_time(), Some(3));
        assert_eq!(drain(&mut w, 3), vec![(NeuronId(2), 4.0)]);
    }

    #[test]
    fn horizon_is_max_delay_not_slot_count() {
        // max_delay 5: horizon 5 over 8 slots. The three spare slots must
        // not widen the in-horizon test, or this wheel would classify
        // deliveries differently from the bit-plane engine.
        let mut w = TimeWheel::new(5);
        assert_eq!((w.horizon, w.slots.len()), (5, 8));
        drain(&mut w, 10); // move the clock off slot 0
        w.schedule(15, NeuronId(0), 1.0);
        assert_eq!(w.observe().overflow_hits, 0, "delay 5 is in horizon");
        assert_eq!(w.observe().occupied_slots, 1);
        w.schedule(16, NeuronId(1), 2.0);
        assert_eq!(w.observe().overflow_hits, 1, "delay 6 overflows");
        assert_eq!(w.observe().occupied_slots, 1);
        assert_eq!(w.next_time(), Some(15));
        assert_eq!(drain(&mut w, 15), vec![(NeuronId(0), 1.0)]);
        assert_eq!(drain(&mut w, 16), vec![(NeuronId(1), 2.0)]);
        assert!(w.is_empty());
    }

    #[test]
    fn swap_and_append_drains_agree() {
        // Time 13 gets overflow entries (scheduled at now = 0, beyond the
        // horizon) and slot entries (scheduled at now = 9); an empty `out`
        // takes the slot by swap, a non-empty one appends, and both must
        // yield the same deliveries in the same order.
        let load = || {
            let mut w = TimeWheel::new(5);
            w.schedule(13, NeuronId(1), 1.0);
            w.schedule(13, NeuronId(2), 2.0);
            w.schedule(3, NeuronId(9), 9.0);
            assert_eq!(drain(&mut w, 3).len(), 1);
            drain(&mut w, 9);
            w.schedule(13, NeuronId(3), 3.0);
            w.schedule(13, NeuronId(1), 4.0);
            w.schedule(12, NeuronId(5), 5.0);
            assert_eq!(w.observe().overflow_hits, 2);
            assert_eq!(drain(&mut w, 12).len(), 1);
            w
        };
        let swapped = drain(&mut load(), 13);
        let mut appended = vec![(NeuronId(7), 0.5)];
        let mut w = load();
        w.drain_at(13, &mut appended);
        assert!(w.is_empty());
        assert_eq!(appended[0], (NeuronId(7), 0.5));
        assert_eq!(appended[1..], swapped[..]);
        let ids: Vec<u32> = swapped.iter().map(|d| d.0 .0).collect();
        assert_eq!(ids, [3, 1, 1, 2], "slot entries, then overflow entries");
    }

    #[test]
    fn skipping_quiet_intervals_is_safe() {
        let mut w = TimeWheel::new(16);
        w.schedule(3, NeuronId(0), 1.0);
        w.schedule(14, NeuronId(1), 2.0);
        assert_eq!(drain(&mut w, 3), vec![(NeuronId(0), 1.0)]);
        assert_eq!(w.next_time(), Some(14));
        assert_eq!(drain(&mut w, 14), vec![(NeuronId(1), 2.0)]);
    }
}
