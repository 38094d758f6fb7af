//! Compares two `SGL_BENCH_JSON` files (JSON lines emitted by
//! `sgl_bench::report::append_json_line`) and reports per-benchmark
//! median deltas.
//!
//! Usage: `perf_check <baseline.json> <current.json>`
//!
//! Regressions are warnings by default; the process exits non-zero only
//! when a benchmark's median is more than 2x its baseline, so CI can run
//! this on shared (noisy) runners without flaking.
//!
//! One *ordering* rule is absolute rather than baseline-relative: when the
//! current run contains the `apsp_batch` pair, the batched APSP path must
//! not be slower than the per-source-rebuild path it exists to beat — if
//! batching ever loses to rebuilding, the batch runtime is pure
//! complexity, and that fails CI even on a noisy runner (both medians come
//! from the same run on the same machine, so the comparison is fair).
//!
//! One baseline-relative rule is also hard below 2x: `serve/sssp_warm`
//! medians from the perf job's *traced* run must stay within 5% of the
//! committed *untraced* baseline — the budget on what per-request span
//! recording may cost the serve hot path.
//!
//! Intra-run rules cover the `partition` group: `partition/p1/<n>`
//! must stay within 10% of `partition/event/<n>` (at one partition the
//! cut is empty, so the partition machinery may cost bookkeeping only),
//! and each doubling of the partition count may at most double the
//! median (`p2 <= 2*p1`, `p4 <= 2*p2`, `p8 <= 2*p4` — cut overhead must
//! grow smoothly with the cut, not cliff). The threaded sweep adds one
//! more: on a multi-core runner `p<K>t<T>/<n>` at n >= 10^5 must not be
//! slower than `p<K>/<n>`, the same plan run by one inline worker — the
//! worker pool either speeds the run up or stays out of the way. The
//! threaded rule is gated on this process's `available_parallelism()`:
//! a single-core runner serialises the workers, so barrier overhead
//! without speedup is expected there, not a regression.
//!
//! One rule is absolute against a frozen constant:
//! `serve/ns_per_op/<connections>` rows (the sharded server's sustained
//! loopback cost per op) must beat the committed single-shared-queue
//! baseline at any pipelined connection count — the rebuilt
//! architecture is never allowed to lose to the one it replaced.

use std::collections::BTreeMap;
use std::process::ExitCode;

use sgl_observe::parse_json;

/// A benchmark's median is a hard failure past this ratio to baseline.
const FAIL_RATIO: f64 = 2.0;
/// Below this ratio the delta is reported as noise, not a regression.
const WARN_RATIO: f64 = 1.10;
/// The single-shared-queue serve architecture's committed loopback cost
/// per op (1e9 / 11,643.57 ops/s, the last BENCH_serve.json before the
/// shard-per-core rebuild). Frozen, not re-measured: it is the floor the
/// sharded server must beat. Any `serve/ns_per_op/<connections>` row at
/// pipelined concurrency (8+ connections) that comes in above this
/// means sharding lost to the architecture it replaced — a hard
/// failure regardless of baseline drift. What the `serve/*` rows gate is
/// reactor plus memo-splice throughput: `BENCH_serve.json` traffic hits
/// the result memo at a ratio of about 0.99999, so the engine and row
/// rendering barely run. The served, engine-bound number is perfbench's
/// `serve_engine` workload.
const SINGLE_QUEUE_BASELINE_NS_PER_OP: u64 = 85_898;
/// Connection counts below this are latency-bound (one request in
/// flight rides full round trips), so the throughput floor only applies
/// at or above it.
const THROUGHPUT_RULE_MIN_CONNECTIONS: u64 = 8;
/// Relative slack on the intra-run ordering rules: `a <= b` fails only
/// when `a > b * (1 + ORDER_EPSILON)`. Same-run medians remove machine
/// skew but not sampling jitter; a genuine ordering inversion shows up
/// as tens of percent, so 5% slack silences ties without masking one.
const ORDER_EPSILON: f64 = 0.05;
/// Slack for the partitioned@1-vs-event rule. One partition runs the
/// same event-driven kernel through the partition driver with an empty
/// cut, so only bookkeeping (superstep scan, single-stream merge) may
/// separate the two medians; 10% bounds that bookkeeping while riding
/// out sub-millisecond jitter on the smallest rung.
const PARTITION_P1_EPSILON: f64 = 0.10;

/// Checks the intra-run ordering `fast <= slow` with [`ORDER_EPSILON`]
/// slack and prints the raw margin either way. Returns 1 on failure so
/// callers can accumulate a failure count.
fn check_ordering(rule: &str, fast_name: &str, fast: u64, slow_name: &str, slow: u64) -> usize {
    let margin = (slow as f64 - fast as f64) / slow.max(1) as f64 * 100.0;
    if fast as f64 > slow as f64 * (1.0 + ORDER_EPSILON) {
        println!(
            "FAIL  {rule} ordering: {fast_name} ({fast} ns) above {slow_name} ({slow} ns) \
             by more than {:.0}% (margin {margin:.1}%)",
            ORDER_EPSILON * 100.0
        );
        1
    } else {
        println!(
            "ok    {rule} ordering: {fast_name} ({fast} ns) <= {slow_name} ({slow} ns) \
             (margin {margin:.1}%)"
        );
        0
    }
}

fn load(path: &str) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perf_check: cannot read {path}: {e}"));
    let mut medians = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = parse_json(line)
            .unwrap_or_else(|e| panic!("perf_check: bad JSON line in {path}: {e:?}"));
        let (Some(group), Some(id), Some(median)) = (
            v.get("group").and_then(|j| j.as_str()),
            v.get("id").and_then(|j| j.as_str()),
            v.get("median_ns").and_then(|j| j.as_u64()),
        ) else {
            panic!("perf_check: line in {path} is missing group/id/median_ns: {line}");
        };
        let full = if group.is_empty() {
            id.to_string()
        } else {
            format!("{group}/{id}")
        };
        // Keep the best (lowest) median if a benchmark appears twice.
        let entry = medians.entry(full).or_insert(median);
        *entry = (*entry).min(median);
    }
    medians
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, current_path] = &args[..] else {
        eprintln!("usage: perf_check <baseline.json> <current.json>");
        return ExitCode::from(2);
    };
    let baseline = load(baseline_path);
    let current = load(current_path);

    let mut failures = 0usize;
    let mut compared = 0usize;
    for (name, &cur) in &current {
        let Some(&base) = baseline.get(name) else {
            println!("NEW   {name}: {cur} ns (no baseline entry)");
            continue;
        };
        compared += 1;
        let ratio = cur as f64 / base.max(1) as f64;
        if ratio > FAIL_RATIO {
            println!("FAIL  {name}: {base} ns -> {cur} ns ({ratio:.2}x, limit {FAIL_RATIO}x)");
            failures += 1;
        } else if ratio > WARN_RATIO {
            println!("WARN  {name}: {base} ns -> {cur} ns ({ratio:.2}x)");
        } else {
            println!("ok    {name}: {base} ns -> {cur} ns ({ratio:.2}x)");
        }
    }
    for name in baseline.keys().filter(|n| !current.contains_key(*n)) {
        println!("GONE  {name}: present in baseline, missing from current run");
    }

    // Intra-run ordering rule: a warm compiled-network cache hit must be
    // cheaper than a cold compile+run — otherwise the serve cache is
    // pure overhead. Same-run medians, so noise-fair.
    if let (Some(&warm), Some(&cold)) = (
        current.get("serve/sssp_warm/256"),
        current.get("serve/sssp_cold/256"),
    ) {
        failures += check_ordering("serve", "sssp_warm/256", warm, "sssp_cold/256", cold);
    }

    // Tracing-overhead rule: the perf job's serve run has every-request
    // tracing armed (`sgl-stress --trace`) while the committed baseline
    // was measured untraced, so the warm-path ratio bounds what span
    // recording costs on the hot path. Unlike the general 2x drift
    // limit, this one is hard at [`ORDER_EPSILON`]: tracing that slows
    // the warm p50 by more than 5% is a regression, not noise.
    for (name, &cur) in &current {
        let Some(rest) = name.strip_prefix("serve/sssp_warm") else {
            continue;
        };
        let Some(&base) = baseline.get(name) else {
            continue;
        };
        if cur as f64 > base as f64 * (1.0 + ORDER_EPSILON) {
            println!(
                "FAIL  serve tracing overhead: sssp_warm{rest} {base} ns -> {cur} ns \
                 exceeds the {:.0}% traced-vs-untraced budget",
                ORDER_EPSILON * 100.0
            );
            failures += 1;
        } else {
            println!(
                "ok    serve tracing overhead: sssp_warm{rest} {base} ns -> {cur} ns \
                 (within {:.0}%)",
                ORDER_EPSILON * 100.0
            );
        }
    }

    // Sharded-throughput floor: every `serve/ns_per_op/<connections>`
    // row at pipelined concurrency must beat the frozen single-queue
    // baseline. This is absolute, not baseline-relative — the committed
    // constant IS the architecture being replaced.
    for (name, &cur) in current.range("serve/ns_per_op/".to_string()..) {
        let Some(conns) = name.strip_prefix("serve/ns_per_op/") else {
            break; // past the ns_per_op rows in BTreeMap order
        };
        let Ok(conns) = conns.parse::<u64>() else {
            continue;
        };
        if conns < THROUGHPUT_RULE_MIN_CONNECTIONS {
            println!("ok    serve throughput floor: {name} ({cur} ns) exempt below {THROUGHPUT_RULE_MIN_CONNECTIONS} connections");
            continue;
        }
        if cur > SINGLE_QUEUE_BASELINE_NS_PER_OP {
            println!(
                "FAIL  serve throughput floor: {name} {cur} ns/op above the single-queue \
                 baseline {SINGLE_QUEUE_BASELINE_NS_PER_OP} ns/op — sharding lost to the \
                 architecture it replaced"
            );
            failures += 1;
        } else {
            println!(
                "ok    serve throughput floor: {name} {cur} ns/op <= single-queue \
                 baseline {SINGLE_QUEUE_BASELINE_NS_PER_OP} ns/op ({:.1}x headroom)",
                SINGLE_QUEUE_BASELINE_NS_PER_OP as f64 / cur.max(1) as f64
            );
        }
    }

    // Intra-run partition rules, per problem size in the current run.
    // (a) One partition is the no-cut degenerate case: its median must
    // stay within [`PARTITION_P1_EPSILON`] of the event engine's — the
    // best single engine for the sparse SSSP nets this bench runs.
    // (b) Each doubling of the partition count must at most double the
    // median: the per-rung cut overhead grows with the cut, and a cliff
    // (>2x per doubling) means the channel/merge path stopped scaling.
    for (name, &p1) in current.range("partition/p1/".to_string()..) {
        let Some(n) = name.strip_prefix("partition/p1/") else {
            break; // past the p1 rows in BTreeMap order
        };
        if let Some(&event) = current.get(&format!("partition/event/{n}")) {
            let margin = (event as f64 - p1 as f64) / event.max(1) as f64 * 100.0;
            if p1 as f64 > event as f64 * (1.0 + PARTITION_P1_EPSILON) {
                println!(
                    "FAIL  partition ordering: p1/{n} ({p1} ns) above event/{n} ({event} ns) \
                     by more than {:.0}% (margin {margin:.1}%)",
                    PARTITION_P1_EPSILON * 100.0
                );
                failures += 1;
            } else {
                println!(
                    "ok    partition ordering: p1/{n} ({p1} ns) within {:.0}% of event/{n} \
                     ({event} ns, margin {margin:.1}%)",
                    PARTITION_P1_EPSILON * 100.0
                );
            }
        }
        let mut prev = p1;
        for (low, high) in [(1u32, 2u32), (2, 4), (4, 8)] {
            let Some(&cur) = current.get(&format!("partition/p{high}/{n}")) else {
                continue;
            };
            failures += check_ordering(
                "partition",
                &format!("p{high}/{n}"),
                cur,
                &format!("2x p{low}/{n}"),
                prev.saturating_mul(2),
            );
            prev = cur;
        }
    }

    // Threaded-sweep rule, per `partition/p<K>t<T>/<n>` row: on a
    // multi-core runner, more threads must not lose to `p<K>` (one
    // inline worker) at n >= 10^5 — real work per superstep is then
    // large enough that barrier costs amortise, so a loss means the pool
    // is overhead, not parallelism. Single-core runners serialise the
    // workers; there the rule is vacuous and skipped.
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    for (name, &cur) in current.range("partition/p".to_string()..) {
        let Some(rest) = name.strip_prefix("partition/p") else {
            break; // past the partition p-rows in BTreeMap order
        };
        let Some((combo, n)) = rest.split_once('/') else {
            continue;
        };
        let Some((parts, threads)) = combo.split_once('t') else {
            continue; // plain `p<K>` row, covered above
        };
        let (Ok(threads), Ok(size)) = (threads.parse::<u64>(), n.parse::<u64>()) else {
            continue;
        };
        if threads < 2 || size < 100_000 {
            continue;
        }
        let Some(&inline) = current.get(&format!("partition/p{parts}/{n}")) else {
            continue;
        };
        if cores < 2 {
            println!(
                "ok    partition threaded: p{parts}t{threads}/{n} ({cur} ns) exempt \
                 from the speedup rule on a single-core runner"
            );
        } else {
            failures += check_ordering(
                "partition threaded",
                &format!("p{parts}t{threads}/{n}"),
                cur,
                &format!("p{parts}/{n}"),
                inline,
            );
        }
    }

    // Intra-run ordering rule: batched APSP must beat per-source rebuild.
    if let (Some(&batch), Some(&rebuild)) = (
        current.get("apsp_batch/batch/256"),
        current.get("apsp_batch/rebuild/256"),
    ) {
        failures += check_ordering("apsp_batch", "batch/256", batch, "rebuild/256", rebuild);
    }

    // Intra-run ordering rule: bulk compilation must never lose to the
    // incremental path it replaced, at any construction and size the
    // compile bench measures. Every `compile/<x>_bulk/<n>` entry is
    // checked against its `compile/<x>_incremental/<n>` sibling.
    for (name, &bulk) in current.range("compile/".to_string()..) {
        let Some(rest) = name.strip_prefix("compile/") else {
            break; // past the compile group in BTreeMap order
        };
        let Some((arm, size)) = rest.rsplit_once('/') else {
            continue;
        };
        let Some(construction) = arm.strip_suffix("_bulk") else {
            continue;
        };
        let sibling = format!("compile/{construction}_incremental/{size}");
        let Some(&incremental) = current.get(&sibling) else {
            println!("WARN  compile ordering: {name} has no {sibling} sibling");
            continue;
        };
        failures += check_ordering(
            "compile",
            name.strip_prefix("compile/").unwrap_or(name),
            bulk,
            sibling.strip_prefix("compile/").unwrap_or(&sibling),
            incremental,
        );
    }

    // Intra-run ordering rule: the bit-plane engine must not lose to the
    // literal dense engine it specialises — on any workload both run.
    // Every `snn_engines/bitplane*` entry is checked against the
    // `snn_engines/dense*` sibling obtained by substituting the engine
    // name (`bitplane/256` -> `dense/256`, `bitplane_gnp_mask/1024` ->
    // `dense_gnp_mask/1024`).
    for (name, &bp) in current.range("snn_engines/bitplane".to_string()..) {
        let Some(rest) = name.strip_prefix("snn_engines/bitplane") else {
            break; // past the bitplane rows in BTreeMap order
        };
        let sibling = format!("snn_engines/dense{rest}");
        let Some(&dense) = current.get(&sibling) else {
            println!("WARN  snn_engines ordering: {name} has no {sibling} sibling");
            continue;
        };
        failures += check_ordering(
            "snn_engines",
            name.strip_prefix("snn_engines/").unwrap_or(name),
            bp,
            sibling.strip_prefix("snn_engines/").unwrap_or(&sibling),
            dense,
        );
    }

    println!("perf_check: {compared} compared, {failures} hard failure(s)");
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
