//! Result printing: machine facts, the human-readable tables, and the
//! final one-line JSON result.

use std::path::Path;
use std::process::Command;

use sgl_observe::Json;

use crate::spans::LayerRow;

/// A named metric value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a single measurement).
    pub samples: usize,
}

impl Metric {
    /// A metric from `samples` samples.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Facts about the machine and build a result was measured on.
#[must_use]
pub fn machine_facts() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only a checkout that is itself a repository has a commit; asking git
    // elsewhere could report an enclosing repository's.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unavailable".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Json::obj(vec![
        ("nproc", Json::UInt(nproc as u64)),
        ("cpu", Json::Str(cpu)),
        ("commit", Json::Str(commit)),
        (
            "source_fnv",
            Json::Str(format!("{:016x}", source_fingerprint(Path::new("crates")))),
        ),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ])
}

/// FNV-1a over the paths and contents of every `.rs` and `.toml` file
/// under `root`, in sorted order: identifies the measured code when the
/// checkout carries no commit.
fn source_fingerprint(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Prints the per-layer self-time table of a traced replay.
pub fn print_layer_table(rows: &[LayerRow]) {
    let total: u64 = rows.iter().map(|r| r.self_ns).sum();
    println!(
        "{:<26} {:>8} {:>12} {:>14} {:>7}",
        "span (self time)", "count", "total_ms", "p50_self_us", "share"
    );
    for r in rows {
        println!(
            "{:<26} {:>8} {:>12.3} {:>14.2} {:>6.1}%",
            r.name,
            r.count,
            r.self_ns as f64 / 1e6,
            r.p50_self_ns as f64 / 1e3,
            100.0 * r.self_ns as f64 / total.max(1) as f64
        );
    }
}

/// Prints the metric table, then the report line, then — last — the
/// one-line JSON result.
pub fn finish(report: Json, metrics: &[Metric], attempted: usize, failed: usize) {
    println!(
        "{:<36} {:>18} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        println!(
            "{:<36} {:>18.6} {:<6} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("report {report}");
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::UInt(attempted.max(1) as u64)),
        ("failed", Json::UInt(failed as u64)),
        ("metrics", metrics),
    ]);
    println!("{result}");
}

/// Peak resident memory of this process, MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes `json` to `path` and validates it with the repository's
/// `trace_check` binary.
///
/// # Errors
/// Fails when the file cannot be written or the checker rejects it.
pub fn write_and_check_trace(json: &Json, path: &Path, checker: &Path) -> Result<(), String> {
    std::fs::write(path, json.to_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let out = Command::new(checker)
        .arg(path)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", checker.display()))?;
    print!("{}", String::from_utf8_lossy(&out.stdout));
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "trace_check rejected {}: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}
