//! Reconciliation tests for the observer protocol: the per-step series a
//! [`TimeSeriesObserver`] collects must sum *exactly* to the `SimStats`
//! totals of the same run, on all three engines, and the scheduler /
//! barrier side channels must reflect what the engines actually did.

use sgl_snn::engine::{
    EngineChoice, ParallelDenseEngine, RunConfig, RunObserver, RunResult, RunScratch,
    TimeSeriesObserver,
};
use sgl_snn::{LifParams, Network, NeuronId};

/// One observed run: prepare `choice` for `net`, then run it once over a
/// fresh scratch.
fn run_observed<O: RunObserver>(
    choice: EngineChoice,
    net: &Network,
    initial: &[NeuronId],
    cfg: &RunConfig,
    obs: &mut O,
) -> RunResult {
    choice
        .prepare(net)
        .unwrap()
        .run(initial, cfg, &mut RunScratch::new(), obs)
        .unwrap()
}

/// A weighted chain with gaps: 0 -> 1 -> 2 -> 3 with delays 3, 1, 5, plus
/// a shortcut 0 -> 2 (delay 7) that arrives after the chain already fired
/// neuron 2, so it only adds current.
fn chain_net() -> (Network, Vec<NeuronId>) {
    let mut net = Network::new();
    let ids = net.add_neurons(LifParams::gate_at_least(1), 4);
    net.connect(ids[0], ids[1], 1.0, 3).unwrap();
    net.connect(ids[1], ids[2], 1.0, 1).unwrap();
    net.connect(ids[2], ids[3], 1.0, 5).unwrap();
    net.connect(ids[0], ids[2], 1.0, 7).unwrap();
    (net, ids)
}

#[test]
fn series_reconcile_with_sim_stats_on_all_engines() {
    let (net, ids) = chain_net();
    let cfg = RunConfig::until_quiescent(64);
    let initial = [ids[0]];

    let parallel = EngineChoice::Parallel(ParallelDenseEngine {
        threads: 2,
        min_chunk: 1,
    });
    let runs: [(&str, _); 3] = [
        ("dense", EngineChoice::Dense),
        ("event", EngineChoice::Event),
        ("parallel", parallel),
    ]
    .map(|(name, choice)| {
        let mut obs = TimeSeriesObserver::new();
        let r = run_observed(choice, &net, &initial, &cfg, &mut obs);
        (name, (r, obs))
    });

    for (name, (result, obs)) in &runs {
        assert_eq!(
            obs.total_spikes(),
            result.stats.spike_events,
            "{name}: spikes"
        );
        assert_eq!(
            obs.total_deliveries(),
            result.stats.synaptic_deliveries,
            "{name}: deliveries"
        );
        assert_eq!(
            obs.total_updates(),
            result.stats.neuron_updates,
            "{name}: updates"
        );
        assert_eq!(obs.final_step, result.steps, "{name}: final step");
        let finished = obs.finished.expect("on_finish not called");
        assert_eq!(
            finished.spikes, result.stats.spike_events,
            "{name}: on_finish spikes"
        );
        assert_eq!(
            finished.deliveries, result.stats.synaptic_deliveries,
            "{name}: on_finish deliveries"
        );
        assert_eq!(
            finished.updates, result.stats.neuron_updates,
            "{name}: on_finish updates"
        );
        // Times start at the induced-spike step and are strictly increasing.
        assert_eq!(obs.times.first(), Some(&0), "{name}: first recorded step");
        assert!(
            obs.times.windows(2).all(|w| w[0] < w[1]),
            "{name}: times not strictly increasing: {:?}",
            obs.times
        );
        // One scheduler snapshot per recorded step, on every engine.
        assert_eq!(
            obs.wheel_in_flight.len(),
            obs.len(),
            "{name}: scheduler series"
        );
        // The run ends quiescent: nothing left in flight.
        assert_eq!(
            obs.wheel_in_flight.last(),
            Some(&0),
            "{name}: residual in-flight work"
        );
    }

    // The event engine records only event times; the dense engines record
    // every step up to termination.
    let (dense_result, dense_obs) = &runs[0].1;
    let (_, event_obs) = &runs[1].1;
    let expected: Vec<u64> = (0..=dense_result.steps).collect();
    assert_eq!(dense_obs.times, expected);
    assert!(
        event_obs.len() < dense_obs.len(),
        "event series should be sparse"
    );
}

#[test]
fn overflow_scheduling_is_counted() {
    // A delay beyond the wheel horizon forces the overflow (ordered-map)
    // path, which the scheduler snapshot reports as cumulative hits.
    let mut net = Network::new();
    let ids = net.add_neurons(LifParams::gate_at_least(1), 2);
    net.connect(ids[0], ids[1], 1.0, 5000).unwrap();
    let cfg = RunConfig::until_quiescent(6000);
    let mut obs = TimeSeriesObserver::new();
    let r = run_observed(EngineChoice::Event, &net, &[ids[0]], &cfg, &mut obs);
    assert_eq!(r.first_spikes[1], Some(5000));
    assert_eq!(obs.scheduler.overflow_hits, 1);
    // The in-flight gauge saw the parked delivery before it drained.
    assert!(obs.wheel_in_flight.iter().any(|&x| x > 0));
}

#[test]
fn barrier_waits_only_from_the_parallel_coordinator() {
    let (net, ids) = chain_net();
    let cfg = RunConfig::until_quiescent(64);

    let mut par = TimeSeriesObserver::new();
    let three = EngineChoice::Parallel(ParallelDenseEngine {
        threads: 3,
        min_chunk: 1,
    });
    run_observed(three, &net, &[ids[0]], &cfg, &mut par);
    assert!(
        par.barrier_wait.count() > 0,
        "coordinator never timed a barrier"
    );
    assert!(par.barrier_wait_total_ns > 0);

    // threads == 1 delegates to the dense engine: no barriers exist.
    let mut single = TimeSeriesObserver::new();
    let one_thread = EngineChoice::Parallel(ParallelDenseEngine {
        threads: 1,
        min_chunk: 1,
    });
    let one = run_observed(one_thread, &net, &[ids[0]], &cfg, &mut single);
    assert_eq!(single.barrier_wait.count(), 0);
    assert!(
        single.finished.is_some(),
        "on_finish must fire exactly once via delegation"
    );
    assert_eq!(single.total_spikes(), one.stats.spike_events);

    let mut dense = TimeSeriesObserver::new();
    run_observed(EngineChoice::Dense, &net, &[ids[0]], &cfg, &mut dense);
    assert_eq!(dense.barrier_wait.count(), 0);
}

#[test]
fn spike_batches_cover_all_deliveries() {
    // `on_spike_batch` reports scheduler drains; across a full quiescent
    // run every routed delivery is eventually drained, so batch sums must
    // equal the delivery total. A bespoke observer checks the hook
    // directly rather than through TimeSeriesObserver.
    use sgl_snn::engine::StepRecord;

    #[derive(Default)]
    struct BatchSum {
        drained: u64,
        routed: u64,
    }
    impl RunObserver for BatchSum {
        fn on_spike_batch(&mut self, _t: u64, deliveries: u64) {
            self.drained += deliveries;
        }
        fn on_step(&mut self, _t: u64, step: StepRecord) {
            self.routed += step.deliveries;
        }
    }

    let (net, ids) = chain_net();
    let cfg = RunConfig::until_quiescent(64);
    for choice in [EngineChoice::Dense, EngineChoice::Event] {
        let mut obs = BatchSum::default();
        run_observed(choice, &net, &[ids[0]], &cfg, &mut obs);
        assert!(obs.routed > 0, "chain produced no deliveries");
        assert_eq!(obs.drained, obs.routed);
    }
}
