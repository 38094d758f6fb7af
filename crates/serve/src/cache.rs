//! Graph registry and the compiled-network cache.
//!
//! The server's economic argument is the same one that makes
//! [`sgl_core::apsp`] batched: the §3 SSSP network and the layered k-hop
//! network are **source-independent** — a query's source is nothing but a
//! `t = 0` stimulus. Compiling the network (allocating neurons, sorting
//! synapses into CSR, computing suppression weights) is the expensive,
//! shareable part; the run itself reuses it untouched. So compiled
//! networks are cached **on the [`GraphHandle`] they were compiled from**,
//! keyed by `(algorithm, algorithm params)`.
//!
//! Scoping entries to the handle (rather than a global map keyed by a
//! graph hash) is a correctness decision, not a convenience: this is an
//! untrusted-input server, and a 64-bit FNV fingerprint collision between
//! two loaded graphs is constructible by an adversarial client. With
//! handle-scoped entries a collision can never serve answers computed on
//! the wrong graph, and eviction is structural — replacing a registry
//! name drops the old handle, and its compiled networks die with it once
//! in-flight queries release their references. A worker that raced a
//! replacement inserts into the *old* handle's map, which is garbage, not
//! a leak. The [`fingerprint`] survives as a cheap pre-filter (identical
//! reloads keep the old handle — and its warm networks — after a full
//! structural check, see [`same_structure`]) and as a wire-visible id.
//!
//! A k-hop entry is keyed by `k` because the unrolled network has
//! `(k + 1) · n` neurons; SSSP and APSP rows share one entry since an
//! APSP row *is* an SSSP query.
//!
//! Entries hold `Arc<CompiledNet>` so workers run on a cache entry without
//! holding the per-handle lock — compilation happens *outside* it too.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sgl_core::{khop_layered, sssp_pseudo::SpikingSssp};
use sgl_graph::{Graph, Len};
use sgl_observe::{parse_json, Json, NullObserver, PhaseProfiler, RunObserver};
use sgl_snn::engine::{EngineChoice, Prepared, RunConfig, RunResult, RunScratch};
use sgl_snn::{Network, NeuronId, SnnError};

/// Structural fingerprint of a graph: 64-bit FNV-1a over `(n, m)` and the
/// CSR edge list. Two graphs with the same node count and identical
/// ordered edge lists collide by construction. The fingerprint is a cheap
/// pre-filter and a wire-visible identity — **never** a cache key on its
/// own: adversarial collisions are constructible against a
/// non-cryptographic 64-bit hash, so every equality decision that affects
/// answers is confirmed with [`same_structure`].
#[must_use]
pub fn fingerprint(g: &Graph) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(g.n() as u64);
    mix(g.m() as u64);
    for (u, v, len) in g.edges() {
        mix(u as u64);
        mix(v as u64);
        mix(len);
    }
    h
}

/// Exact structural equality: same node count and identical ordered edge
/// lists. O(m); the confirmation step behind every [`fingerprint`] match
/// that would let one graph's compiled networks answer for another.
#[must_use]
pub fn same_structure(a: &Graph, b: &Graph) -> bool {
    a.n() == b.n() && a.m() == b.m() && a.edges().eq(b.edges())
}

/// FNV-1a over a registry name's bytes — the shard-routing hash. Every
/// operation naming a graph executes on shard `name_hash(name) % shards`,
/// so a graph's handle (and its compiled networks and memoized results)
/// lives on exactly one shard and no cross-shard cache locking exists.
/// Same FNV constants as [`fingerprint`]; hashing the *name* rather than
/// the structure means the route is known before the graph is loaded.
#[must_use]
pub fn name_hash(name: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Identity of a memoized query answer on one handle. The compiled
/// networks are source-independent, but an *answer* is a pure function of
/// `(graph, algorithm, params, source, target)` — so on an immutable
/// handle it can be memoized outright. Keys never mention the graph:
/// they are scoped to the handle exactly like compiled networks, for the
/// same collision-soundness reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResultKey {
    /// An `sssp` answer (full distances, or a single target's distance).
    Sssp {
        /// Query source node.
        source: u32,
        /// Target node for early-stop queries, if any.
        target: Option<u32>,
    },
    /// A `khop` answer.
    Khop {
        /// Query source node.
        source: u32,
        /// Hop bound.
        k: u32,
    },
    /// An `apsp_row` answer.
    ApspRow {
        /// Row source node.
        source: u32,
    },
}

/// A memoized query answer in both forms. The memo keeps only
/// `rendered`, the one copy the TCP path splices verbatim into a
/// response line; [`GraphHandle::cached_result`] re-parses `data` from
/// it for in-process callers that inspect fields, and
/// [`GraphHandle::store_result`] drops `data`.
#[derive(Clone, Debug)]
pub struct CachedResult {
    /// Structured `data` payload, `cache` field already `"hit"`.
    pub data: Json,
    /// `data.to_string()` of that payload.
    pub rendered: Arc<str>,
}

/// Per-handle cap on memoized answers. A 10k-node graph has at most
/// `n · (n + 1)` distinct untargeted+targeted SSSP queries, so the cap
/// only bites adversarial key churn; when it does we stop inserting
/// (the networks still answer everything) rather than evicting.
const RESULT_CACHE_CAP: usize = 65_536;

/// A graph registered with the server, plus the compiled networks built
/// from it. Scoping the cache to the handle ties every compiled network's
/// lifetime to the exact graph instance it answers for (see the module
/// docs for why a global fingerprint-keyed map is not sound here).
#[derive(Debug)]
pub struct GraphHandle {
    /// Registry name.
    pub name: String,
    /// The graph itself.
    pub graph: Graph,
    /// Structural hash (see [`fingerprint`]).
    pub fingerprint: u64,
    /// Compiled networks built from `graph`, by construction/params.
    nets: Mutex<HashMap<Algo, Arc<CompiledNet>>>,
    /// Memoized query answers as rendered `data` objects (see
    /// [`ResultKey`]); sound because the graph behind a handle is
    /// immutable — replacement makes a new handle, and the memo dies
    /// with this one.
    results: Mutex<HashMap<ResultKey, Arc<str>>>,
    /// Rendered bytes held by `results` (the `server_stats` gauge).
    result_bytes: AtomicU64,
    /// Memoized `graph_stats` answer (eccentricity etc. are O(n + m)
    /// per call but constant per handle).
    stats: Mutex<Option<Json>>,
}

impl GraphHandle {
    /// Wraps `graph` in a fresh handle (empty compiled-network cache).
    #[must_use]
    pub fn new(name: &str, graph: Graph) -> Self {
        Self {
            name: name.to_string(),
            fingerprint: fingerprint(&graph),
            graph,
            nets: Mutex::new(HashMap::new()),
            results: Mutex::new(HashMap::new()),
            result_bytes: AtomicU64::new(0),
            stats: Mutex::new(None),
        }
    }

    /// Number of compiled networks resident on this handle.
    ///
    /// # Panics
    /// Panics if the handle's cache lock is poisoned.
    #[must_use]
    pub fn resident_nets(&self) -> usize {
        self.nets.lock().expect("handle cache lock").len()
    }

    /// Heap bytes held by this handle's compiled networks.
    ///
    /// # Panics
    /// Panics if the handle's cache lock is poisoned.
    #[must_use]
    pub fn resident_net_bytes(&self) -> usize {
        self.nets
            .lock()
            .expect("handle cache lock")
            .values()
            .map(|n| n.memory_bytes())
            .sum()
    }

    /// The memoized answer for `key`, if one is stored, with `data`
    /// re-parsed from the stored bytes — for in-process callers only; the
    /// TCP path takes [`Self::cached_rendered`].
    ///
    /// # Panics
    /// Panics if the handle's result lock is poisoned.
    #[must_use]
    pub fn cached_result(&self, key: &ResultKey) -> Option<CachedResult> {
        let rendered = self.cached_rendered(key)?;
        let data = parse_json(&rendered).expect("memoized answers are rendered JSON");
        Some(CachedResult { data, rendered })
    }

    /// The rendered bytes of a memoized answer — the TCP hot path
    /// splices these verbatim, so a hit costs an `Arc` bump.
    ///
    /// # Panics
    /// Panics if the handle's result lock is poisoned.
    #[must_use]
    pub fn cached_rendered(&self, key: &ResultKey) -> Option<Arc<str>> {
        self.results
            .lock()
            .expect("handle result lock")
            .get(key)
            .cloned()
    }

    /// Memoizes an answer: the memo keeps `result.rendered`, its only
    /// copy, and drops `result.data`.
    ///
    /// # Panics
    /// Panics if the handle's result lock is poisoned.
    pub fn store_result(&self, key: ResultKey, result: CachedResult) {
        self.store_rendered(key, result.rendered);
    }

    /// Memoizes an answer as its rendered `data` object, `cache` field
    /// already `"hit"`. A key already stored keeps its first answer (the
    /// same bytes — answers are pure), so the byte gauge never counts a
    /// key twice. Past `RESULT_CACHE_CAP` entries the store is a no-op —
    /// correctness never depends on an insert landing.
    ///
    /// # Panics
    /// Panics if the handle's result lock is poisoned.
    pub(crate) fn store_rendered(&self, key: ResultKey, rendered: Arc<str>) {
        let mut map = self.results.lock().expect("handle result lock");
        if map.len() >= RESULT_CACHE_CAP {
            return;
        }
        if let Entry::Vacant(slot) = map.entry(key) {
            self.result_bytes
                .fetch_add(rendered.len() as u64, Ordering::Relaxed);
            slot.insert(rendered);
        }
    }

    /// Number of memoized answers resident on this handle.
    ///
    /// # Panics
    /// Panics if the handle's result lock is poisoned.
    #[must_use]
    pub fn resident_results(&self) -> usize {
        self.results.lock().expect("handle result lock").len()
    }

    /// Rendered bytes held by the memoized answers.
    #[must_use]
    pub fn resident_result_bytes(&self) -> u64 {
        self.result_bytes.load(Ordering::Relaxed)
    }

    /// The memoized `graph_stats` payload, computing it via `f` on the
    /// first call.
    ///
    /// # Panics
    /// Panics if the handle's stats lock is poisoned.
    pub fn stats_or_compute(&self, f: impl FnOnce() -> Json) -> Json {
        let mut memo = self.stats.lock().expect("handle stats lock");
        memo.get_or_insert_with(f).clone()
    }
}

/// Named-graph registry. Replacing a name drops the old handle's registry
/// reference; in-flight queries keep theirs alive.
#[derive(Debug, Default)]
pub struct GraphRegistry {
    graphs: Mutex<HashMap<String, Arc<GraphHandle>>>,
}

impl GraphRegistry {
    /// Registers `graph` under `name`, replacing any previous entry.
    /// Returns the new handle.
    ///
    /// # Panics
    /// Panics if the registry lock is poisoned (a worker panicked).
    pub fn insert(&self, name: &str, graph: Graph) -> Arc<GraphHandle> {
        let handle = Arc::new(GraphHandle::new(name, graph));
        self.graphs
            .lock()
            .expect("registry lock")
            .insert(name.to_string(), Arc::clone(&handle));
        handle
    }

    /// Looks up a graph by name.
    ///
    /// # Panics
    /// Panics if the registry lock is poisoned.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<GraphHandle>> {
        self.graphs
            .lock()
            .expect("registry lock")
            .get(name)
            .cloned()
    }

    /// Number of registered graphs.
    ///
    /// # Panics
    /// Panics if the registry lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.graphs.lock().expect("registry lock").len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total compiled networks resident across registered handles (the
    /// `server_stats` "entries" figure). Networks on replaced handles are
    /// excluded: they are unreachable for new queries and freed as soon as
    /// in-flight ones finish.
    ///
    /// # Panics
    /// Panics if the registry lock is poisoned.
    #[must_use]
    pub fn resident_entries(&self) -> usize {
        self.graphs
            .lock()
            .expect("registry lock")
            .values()
            .map(|h| h.resident_nets())
            .sum()
    }

    /// `(net entries, net bytes, result entries, result bytes)` resident
    /// across registered handles — one pass for a shard's stats snapshot.
    ///
    /// # Panics
    /// Panics if the registry lock is poisoned.
    #[must_use]
    pub fn resident_footprint(&self) -> (usize, usize, usize, u64) {
        let graphs = self.graphs.lock().expect("registry lock");
        let mut nets = 0;
        let mut net_bytes = 0;
        let mut results = 0;
        let mut result_bytes = 0;
        for h in graphs.values() {
            nets += h.resident_nets();
            net_bytes += h.resident_net_bytes();
            results += h.resident_results();
            result_bytes += h.resident_result_bytes();
        }
        (nets, net_bytes, results, result_bytes)
    }
}

/// Which compiled construction a cache entry holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// The §3 single-layer SSSP network (shared by `sssp` and `apsp_row`).
    Sssp,
    /// The layered ≤ k-hop network.
    Khop(u32),
}

/// A compiled, resident, source-independent network plus everything
/// needed to run a query on it without consulting the graph again: the
/// network is validated (and, when `Auto` partitions it, its plan
/// compiled) once, at compile time, never per query.
#[derive(Debug)]
pub struct CompiledNet {
    prepared: Prepared<Network>,
    budget: u64,
    n: usize,
    algo: Algo,
    compile: Duration,
    build: Duration,
    load: Duration,
}

impl CompiledNet {
    /// Compiles the network for `algo` over `g` (the bulk path: both
    /// constructions stage their edges through
    /// [`sgl_snn::NetworkBuilder`]). The graph→SNN build is timed as an
    /// [`sgl_observe::PhaseProfiler`] "build" phase and exposed via
    /// [`Self::compile_time`] so the serve layer can histogram the
    /// cold-path cost per compile.
    ///
    /// # Panics
    /// Panics on parameter/graph combinations the caller must pre-validate
    /// (`k == 0`, edge lengths beyond the `u32` delay range, neuron-id
    /// overflow) — the session layer rejects those as `bad_request` before
    /// reaching here.
    #[must_use]
    pub fn compile(g: &Graph, algo: Algo) -> Self {
        Self::compile_on(g, algo, EngineChoice::Auto)
    }

    /// [`Self::compile`] on an explicit engine choice (the cache always
    /// passes `Auto`; tests pin each engine).
    fn compile_on(g: &Graph, algo: Algo, choice: EngineChoice) -> Self {
        let mut profiler = PhaseProfiler::new();
        profiler.start("build");
        let (net, budget) = match algo {
            Algo::Sssp => {
                let net = SpikingSssp::new(g, 0).build_network();
                let budget = (g.n() as u64).saturating_mul(g.max_len().max(1)) + 1;
                (net, budget)
            }
            Algo::Khop(k) => (
                khop_layered::build_network(g, k),
                khop_layered::step_budget(g, k),
            ),
        };
        profiler.stop();
        let build = profiler.total();
        // "load": making the built network runnable — engine selection
        // over its structure, the one validation, and (when partitioned)
        // the plan compile. Split out so traces can attribute cold-path
        // time to construction vs engine placement.
        profiler.start("load");
        let prepared = choice
            .prepare(net)
            .expect("graph constructions build valid networks");
        profiler.stop();
        let load = profiler.total().saturating_sub(build);
        Self {
            prepared,
            budget,
            n: g.n(),
            algo,
            compile: profiler.total(),
            build,
            load,
        }
    }

    /// Wall-clock time the whole graph→SNN compile took (build + load).
    #[must_use]
    pub fn compile_time(&self) -> Duration {
        self.compile
    }

    /// The compile's `(build, load)` phase split: graph→network
    /// construction vs engine selection/placement.
    #[must_use]
    pub fn phase_times(&self) -> (Duration, Duration) {
        (self.build, self.load)
    }

    /// Resident heap bytes of the compiled network (CSR + parameters),
    /// plus its partition plan when the entry holds one.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.prepared.network().memory_bytes()
            + self.prepared.plan().map_or(0, |plan| plan.memory_bytes())
    }

    /// The `t = 0` stimulus that makes this network answer for `source`.
    #[must_use]
    pub fn initial_spikes(&self, source: usize) -> [NeuronId; 1] {
        match self.algo {
            Algo::Sssp => [NeuronId(source as u32)],
            Algo::Khop(_) => [khop_layered::neuron(source, 0, self.n)],
        }
    }

    /// Step budget for a quiescent run.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Neuron count (for sizing diagnostics).
    #[must_use]
    pub fn neurons(&self) -> usize {
        self.prepared.network().neuron_count()
    }

    /// Runs a query from `source` over the worker's recycled scratch.
    /// `target` (SSSP only) stops the run at the target's first spike.
    ///
    /// # Errors
    /// Propagates simulator errors (none expected for validated inputs).
    pub fn run(
        &self,
        source: usize,
        target: Option<usize>,
        scratch: &mut RunScratch,
    ) -> Result<RunResult, SnnError> {
        self.run_observed(source, target, scratch, &mut NullObserver)
    }

    /// [`Self::run`] with a [`RunObserver`] attached — the traced query
    /// path.
    ///
    /// # Errors
    /// Propagates simulator errors (none expected for validated inputs).
    pub fn run_observed<O: RunObserver>(
        &self,
        source: usize,
        target: Option<usize>,
        scratch: &mut RunScratch,
        obs: &mut O,
    ) -> Result<RunResult, SnnError> {
        let config = match (self.algo, target) {
            // Target-directed stop lives in the RunConfig, not the
            // network, so the cached network stays target-independent.
            (Algo::Sssp, Some(t)) => RunConfig::until_all(vec![NeuronId(t as u32)], self.budget),
            _ => RunConfig::until_quiescent(self.budget),
        };
        self.prepared
            .run(&self.initial_spikes(source), &config, scratch, obs)
    }

    /// Decodes per-node distances from a finished run.
    #[must_use]
    pub fn decode(&self, result: &RunResult) -> Vec<Option<Len>> {
        match self.algo {
            Algo::Sssp => (0..self.n).map(|v| result.first_spikes[v]).collect(),
            Algo::Khop(k) => khop_layered::distances_from(result, self.n, k),
        }
    }
}

/// Whether a query found its network resident.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Reused a resident network.
    Hit,
    /// Compiled (and cached) a new one.
    Miss,
    /// Compiled a throwaway network on request (`cache: "bypass"`);
    /// counted as a miss.
    Bypass,
}

impl CacheOutcome {
    /// Wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::Bypass => "bypass",
        }
    }
}

/// The compiled-network cache front: per-handle entry storage (see
/// [`GraphHandle`]) plus the server-wide hit/miss counters. There is no
/// global entry map and no explicit eviction — replacing a registry name
/// drops the old handle, and its networks with it.
#[derive(Debug, Default)]
pub struct NetCache {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl NetCache {
    /// A cache with zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the resident network for `(handle, algo)`, compiling and
    /// inserting it on a miss.
    ///
    /// The compile happens **outside** the handle's lock: concurrent
    /// misses on the same key may both compile, last insert wins — wasted
    /// work under a cold-start race, never a wrong answer, and no worker
    /// ever blocks on another's compile.
    ///
    /// # Panics
    /// Panics if the handle's cache lock is poisoned, or as
    /// [`CompiledNet::compile`].
    pub fn get_or_compile(
        &self,
        handle: &GraphHandle,
        algo: Algo,
    ) -> (Arc<CompiledNet>, CacheOutcome) {
        if let Some(hit) = handle
            .nets
            .lock()
            .expect("handle cache lock")
            .get(&algo)
            .cloned()
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (hit, CacheOutcome::Hit);
        }
        let compiled = Arc::new(CompiledNet::compile(&handle.graph, algo));
        self.misses.fetch_add(1, Ordering::Relaxed);
        handle
            .nets
            .lock()
            .expect("handle cache lock")
            .insert(algo, Arc::clone(&compiled));
        (compiled, CacheOutcome::Miss)
    }

    /// Compiles a throwaway network, skipping the cache (the stress
    /// harness's repeatable cold path). Counts as a miss.
    ///
    /// # Panics
    /// As [`CompiledNet::compile`].
    pub fn compile_bypass(&self, g: &Graph, algo: Algo) -> (Arc<CompiledNet>, CacheOutcome) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        (
            Arc::new(CompiledNet::compile(g, algo)),
            CacheOutcome::Bypass,
        )
    }

    /// Counts a memoized-result hit. A memo hit short-circuits before
    /// the network is even looked up, but it *is* a cache hit from the
    /// operator's view — the hit ratio must reflect work avoided, not
    /// which of the two layers (network, result) avoided it.
    pub fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// (hits, misses) so far. Bypass compiles count as misses.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sgl_graph::csr::from_edges;
    use sgl_graph::{bellman_ford_khop, dijkstra, generators};

    fn ref_graph(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::gnm_connected(&mut rng, 24, 96, 1..=7)
    }

    #[test]
    fn fingerprint_is_structural_not_nominal() {
        let g1 = from_edges(3, &[(0, 1, 2), (1, 2, 3)]);
        let g2 = from_edges(3, &[(0, 1, 2), (1, 2, 3)]);
        let g3 = from_edges(3, &[(0, 1, 2), (1, 2, 4)]);
        assert_eq!(fingerprint(&g1), fingerprint(&g2));
        assert_ne!(fingerprint(&g1), fingerprint(&g3));
        // Node count matters even with identical edge lists.
        let g4 = from_edges(4, &[(0, 1, 2), (1, 2, 3)]);
        assert_ne!(fingerprint(&g1), fingerprint(&g4));
    }

    #[test]
    fn compiled_sssp_matches_dijkstra_for_every_source() {
        let g = ref_graph(101);
        // One recycled scratch across every engine and source.
        let mut scratch = RunScratch::new();
        for choice in [
            EngineChoice::Auto,
            EngineChoice::Event,
            EngineChoice::Bitplane,
            EngineChoice::Dense,
            EngineChoice::Partitioned {
                parts: 2,
                threads: 1,
            },
            EngineChoice::Partitioned {
                parts: 2,
                threads: 2,
            },
        ] {
            let compiled = CompiledNet::compile_on(&g, Algo::Sssp, choice);
            let net_bytes = compiled.prepared.network().memory_bytes();
            if let EngineChoice::Partitioned { .. } = choice {
                assert!(
                    compiled.memory_bytes() > net_bytes,
                    "{choice:?}: the cached plan is counted"
                );
            } else {
                assert_eq!(compiled.memory_bytes(), net_bytes, "{choice:?}");
            }
            for s in 0..g.n() {
                let r = compiled.run(s, None, &mut scratch).unwrap();
                assert_eq!(
                    compiled.decode(&r),
                    dijkstra(&g, s).distances,
                    "{choice:?}, source {s}"
                );
            }
        }
    }

    #[test]
    fn compiled_khop_matches_bellman_ford() {
        let g = ref_graph(102);
        for k in [1u32, 3] {
            let compiled = CompiledNet::compile(&g, Algo::Khop(k));
            let mut scratch = RunScratch::new();
            for s in [0, g.n() / 2] {
                let r = compiled.run(s, None, &mut scratch).unwrap();
                assert_eq!(
                    compiled.decode(&r),
                    bellman_ford_khop(&g, s, k).distances,
                    "k={k} source={s}"
                );
            }
        }
    }

    #[test]
    fn compiled_networks_are_born_frozen_and_timed() {
        let g = ref_graph(109);
        for algo in [Algo::Sssp, Algo::Khop(3)] {
            let c = CompiledNet::compile(&g, algo);
            assert!(
                c.prepared.network().is_frozen(),
                "bulk compile must not leave adjacency resident"
            );
            assert!(c.compile_time() > Duration::ZERO);
            let (build, load) = c.phase_times();
            assert_eq!(build + load, c.compile_time(), "phases tile the compile");
            assert!(build > Duration::ZERO, "construction dominates, never 0");
            assert!(c.memory_bytes() > 0);
        }
    }

    #[test]
    fn targeted_run_resolves_the_target() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::path(&mut rng, 10, 2..=2);
        let compiled = CompiledNet::compile(&g, Algo::Sssp);
        let mut scratch = RunScratch::new();
        let r = compiled.run(0, Some(4), &mut scratch).unwrap();
        assert_eq!(compiled.decode(&r)[4], Some(8));
    }

    #[test]
    fn same_structure_is_exact() {
        let g1 = from_edges(3, &[(0, 1, 2), (1, 2, 3)]);
        let g2 = from_edges(3, &[(0, 1, 2), (1, 2, 3)]);
        let g3 = from_edges(3, &[(0, 1, 2), (1, 2, 4)]);
        let g4 = from_edges(4, &[(0, 1, 2), (1, 2, 3)]);
        assert!(same_structure(&g1, &g2));
        assert!(!same_structure(&g1, &g3), "edge length differs");
        assert!(!same_structure(&g1, &g4), "node count differs");
    }

    #[test]
    fn cache_hits_after_first_compile_and_keys_by_params() {
        let handle = GraphHandle::new("g", ref_graph(103));
        let cache = NetCache::new();
        let (a, o1) = cache.get_or_compile(&handle, Algo::Sssp);
        let (b, o2) = cache.get_or_compile(&handle, Algo::Sssp);
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&a, &b), "hit must be the same network");
        let (_, o3) = cache.get_or_compile(&handle, Algo::Khop(2));
        let (_, o4) = cache.get_or_compile(&handle, Algo::Khop(3));
        assert_eq!(o3, CacheOutcome::Miss, "k is part of the key");
        assert_eq!(o4, CacheOutcome::Miss);
        assert_eq!(cache.counters(), (1, 3));
        assert_eq!(handle.resident_nets(), 3);
    }

    #[test]
    fn bypass_never_populates_the_cache() {
        let handle = GraphHandle::new("g", ref_graph(104));
        let cache = NetCache::new();
        let (_, o) = cache.compile_bypass(&handle.graph, Algo::Sssp);
        assert_eq!(o, CacheOutcome::Bypass);
        assert_eq!(handle.resident_nets(), 0);
        assert_eq!(cache.counters(), (0, 1));
    }

    #[test]
    fn replaced_handle_takes_its_compiled_networks_with_it() {
        let reg = GraphRegistry::default();
        let cache = NetCache::new();
        let old = reg.insert("g", ref_graph(105));
        cache.get_or_compile(&old, Algo::Sssp);
        cache.get_or_compile(&old, Algo::Khop(2));
        assert_eq!(reg.resident_entries(), 2);
        let new = reg.insert("g", ref_graph(106));
        // The new handle starts cold; the old handle's entries are no
        // longer reachable through the registry.
        assert_eq!(reg.resident_entries(), 0);
        // A worker that raced the replacement and still holds the old
        // handle populates the *old* handle's map — invisible to the new
        // one, freed with the handle, never a global leak.
        let (_, o) = cache.get_or_compile(&old, Algo::Khop(3));
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!(old.resident_nets(), 3);
        assert_eq!(new.resident_nets(), 0);
        assert_eq!(reg.resident_entries(), 0);
        drop(old);
        assert_eq!(reg.resident_entries(), 0);
    }

    #[test]
    fn name_hash_routes_by_name_alone() {
        assert_eq!(name_hash("stress"), name_hash("stress"));
        assert_ne!(name_hash("stress"), name_hash("stress2"));
        assert_ne!(name_hash(""), name_hash("a"));
    }

    #[test]
    fn result_memo_round_trips_and_counts_bytes() {
        let handle = GraphHandle::new("g", ref_graph(110));
        let key = ResultKey::Sssp {
            source: 3,
            target: None,
        };
        assert!(handle.cached_result(&key).is_none());
        let data = Json::obj(vec![
            ("source", Json::UInt(3)),
            ("distances", Json::Arr(vec![Json::UInt(0), Json::Null])),
            ("cache", Json::Str("hit".into())),
        ]);
        let rendered: Arc<str> = data.to_string().into();
        handle.store_result(
            key,
            CachedResult {
                data: data.clone(),
                rendered: Arc::clone(&rendered),
            },
        );
        // The memo holds the rendered bytes themselves, not a copy: a
        // hit on the TCP path is an `Arc` bump of the stored string.
        let spliced = handle.cached_rendered(&key).expect("memoized");
        assert!(Arc::ptr_eq(&spliced, &rendered));
        // In-process readers get the structured payload back, re-parsed
        // from those bytes.
        let got = handle.cached_result(&key).expect("memoized");
        assert!(Arc::ptr_eq(&got.rendered, &rendered));
        assert_eq!(got.data, data);
        assert_eq!(handle.resident_results(), 1);
        assert_eq!(handle.resident_result_bytes(), rendered.len() as u64);
        // A second store under the same key keeps the first answer and
        // counts no bytes twice.
        handle.store_rendered(key, Arc::from("{}"));
        assert!(Arc::ptr_eq(
            &handle.cached_rendered(&key).unwrap(),
            &rendered
        ));
        assert_eq!(handle.resident_result_bytes(), rendered.len() as u64);
        // Distinct params are distinct keys.
        assert!(handle
            .cached_result(&ResultKey::Sssp {
                source: 3,
                target: Some(5),
            })
            .is_none());
        assert!(handle
            .cached_result(&ResultKey::Khop { source: 3, k: 2 })
            .is_none());
    }

    #[test]
    fn graph_stats_memo_computes_once() {
        let handle = GraphHandle::new("g", ref_graph(111));
        let mut calls = 0;
        let first = handle.stats_or_compute(|| {
            calls += 1;
            Json::UInt(41)
        });
        let second = handle.stats_or_compute(|| {
            calls += 1;
            Json::UInt(42)
        });
        assert_eq!(first, Json::UInt(41));
        assert_eq!(second, Json::UInt(41), "memo wins");
        assert_eq!(calls, 1);
    }

    #[test]
    fn registry_replacement_changes_the_handle() {
        let reg = GraphRegistry::default();
        reg.insert("g", ref_graph(107));
        let first = reg.get("g").unwrap();
        reg.insert("g", ref_graph(108));
        let second = reg.get("g").unwrap();
        assert_ne!(first.fingerprint, second.fingerprint);
        assert_eq!(reg.len(), 1);
        assert!(reg.get("absent").is_none());
    }
}
