//! Shared report sink: every experiment binary emits a machine-readable
//! `BENCH_<artifact>.json` (the `sgl-observe` JSON-lines [`RunReport`]
//! format) alongside its printed markdown tables, so the perf trajectory
//! of the repo is a committed, diffable artifact instead of scrollback.
//!
//! Output directory: `$SGL_BENCH_DIR` when set, else the current
//! directory. CI points this at a scratch dir and uploads the files;
//! `artifacts/` holds the committed copies.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sgl_core::NeuromorphicCost;
use sgl_observe::{table_json, Json, PhaseProfiler, RunReport};
use sgl_snn::{RunConfig, SimStats};

use crate::tablefmt::print_table;

/// Where report files go: `$SGL_BENCH_DIR` or the current directory.
#[must_use]
pub fn out_dir() -> PathBuf {
    std::env::var_os("SGL_BENCH_DIR").map_or_else(|| PathBuf::from("."), PathBuf::from)
}

/// Collects an experiment binary's sections and phases, then writes
/// `BENCH_<artifact>.json` on [`Self::finish`].
pub struct ReportSink {
    report: RunReport,
    profiler: PhaseProfiler,
}

impl ReportSink {
    /// A sink for the named artifact (`table1`, `fig1`, ...). Starts the
    /// wall-clock profiler in phase `"build"`.
    #[must_use]
    pub fn new(artifact: &str) -> Self {
        let mut profiler = PhaseProfiler::new();
        profiler.start("build");
        Self {
            report: RunReport::new(artifact),
            profiler,
        }
    }

    /// Enters (or re-enters) a wall-clock phase: `build`, `load`, `run`,
    /// `readout` by convention.
    pub fn phase(&mut self, name: &str) {
        self.profiler.start(name);
    }

    /// Appends a raw JSON section.
    pub fn section(&mut self, name: &str, value: Json) {
        self.report.section(name, value);
    }

    /// Prints a markdown table *and* records it as a `table:<name>`
    /// section — the single call sites use so the printed and committed
    /// artifacts can never drift apart.
    pub fn table(&mut self, name: &str, header: &[&str], rows: &[Vec<String>]) {
        print_table(header, rows);
        self.report
            .section(&format!("table:{name}"), table_json(header, rows));
    }

    /// Stops profiling, appends the `phases` section, and writes
    /// `BENCH_<artifact>.json` to [`out_dir`]. Returns the path written.
    ///
    /// # Panics
    /// Panics if the report file cannot be written — an experiment run
    /// whose artifact is silently missing is worse than a failed one.
    pub fn finish(mut self) -> PathBuf {
        self.profiler.stop();
        self.report.section("phases", self.profiler.to_json());
        let path = out_dir().join(format!("BENCH_{}.json", self.report.name));
        self.report
            .write_to(&path)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("report: {}", path.display());
        path
    }
}

/// Wall-clock statistics of one timed closure.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Median sample.
    pub median: Duration,
    /// Fastest sample.
    pub min: Duration,
    /// Mean over the samples.
    pub mean: Duration,
    /// Samples taken (the warm-up call is not one).
    pub samples: usize,
}

/// Times `f` over `samples` calls after one untimed warm-up call, which
/// keeps cold page faults and first-touch allocation out of the sample
/// set.
///
/// # Panics
/// Panics if `samples` is zero.
pub fn measure(samples: usize, mut f: impl FnMut()) -> Timing {
    assert!(samples > 0, "measure needs at least one sample");
    f();
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    Timing {
        median: times[times.len() / 2],
        min: times[0],
        mean: times.iter().sum::<Duration>() / times.len() as u32,
        samples,
    }
}

/// Appends `timing` as one `SGL_BENCH_JSON` line under `group`/`id`, in
/// the criterion shim's format, so `perf_check` reads both without caring
/// which harness measured. Does nothing when `SGL_BENCH_JSON` is unset; a
/// write failure is reported on stderr, not fatal.
pub fn append_json_line(group: &str, id: &str, timing: &Timing) {
    let Some(path) = std::env::var_os("SGL_BENCH_JSON") else {
        return;
    };
    let line = format!(
        "{{\"group\":\"{group}\",\"id\":\"{id}\",\"median_ns\":{},\"min_ns\":{},\"mean_ns\":{},\"samples\":{}}}\n",
        timing.median.as_nanos(),
        timing.min.as_nanos(),
        timing.mean.as_nanos(),
        timing.samples,
    );
    let r = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    if let Err(e) = r {
        eprintln!("SGL_BENCH_JSON: cannot append to {path:?}: {e}");
    }
}

/// [`SimStats`] as a report section value.
#[must_use]
pub fn sim_stats_json(stats: &SimStats) -> Json {
    Json::obj(vec![
        ("spike_events", Json::UInt(stats.spike_events)),
        ("synaptic_deliveries", Json::UInt(stats.synaptic_deliveries)),
        ("neuron_updates", Json::UInt(stats.neuron_updates)),
    ])
}

/// [`NeuromorphicCost`] as a report section value.
#[must_use]
pub fn cost_json(cost: &NeuromorphicCost) -> Json {
    Json::obj(vec![
        ("spiking_steps", Json::UInt(cost.spiking_steps)),
        ("load_steps", Json::UInt(cost.load_steps)),
        ("neurons", Json::UInt(cost.neurons)),
        ("synapses", Json::UInt(cost.synapses)),
        ("spike_events", Json::UInt(cost.spike_events)),
        ("embedding_factor", Json::UInt(cost.embedding_factor)),
    ])
}

/// [`RunConfig`] as a report section value (stop condition as debug text —
/// it is an enum with payloads, and reports only need it for provenance).
#[must_use]
pub fn run_config_json(config: &RunConfig) -> Json {
    Json::obj(vec![
        ("max_steps", Json::UInt(config.max_steps)),
        ("stop", Json::Str(format!("{:?}", config.stop))),
        ("record_raster", Json::Bool(config.record_raster)),
        ("strict", Json::Bool(config.strict)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_observe::parse_json;

    #[test]
    fn sink_writes_a_parseable_report() {
        let dir = std::env::temp_dir().join("sgl_bench_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("SGL_BENCH_DIR", &dir);
        let mut sink = ReportSink::new("sink_test");
        sink.phase("run");
        sink.table("demo", &["k", "cost"], &[vec!["1".into(), "2".into()]]);
        sink.section("stats", sim_stats_json(&SimStats::default()));
        let path = sink.finish();
        std::env::remove_var("SGL_BENCH_DIR");
        let text = std::fs::read_to_string(&path).unwrap();
        let report = sgl_observe::RunReport::from_jsonl(&text).unwrap();
        assert_eq!(report.name, "sink_test");
        assert!(report.get("table:demo").is_some());
        assert!(report.get("phases").is_some());
        // Every line is standalone JSON.
        for line in text.lines() {
            parse_json(line).unwrap();
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn converters_round_numbers() {
        let c = NeuromorphicCost {
            spiking_steps: 1,
            load_steps: 2,
            neurons: 3,
            synapses: 4,
            spike_events: 5,
            embedding_factor: 6,
        };
        let j = cost_json(&c);
        assert_eq!(j.get("spike_events").and_then(Json::as_u64), Some(5));
        let cfg = RunConfig::until_quiescent(77);
        let j = run_config_json(&cfg);
        assert_eq!(j.get("max_steps").and_then(Json::as_u64), Some(77));
        assert_eq!(j.get("stop").and_then(Json::as_str), Some("Quiescent"));
    }
}
