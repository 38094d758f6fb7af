//! The spiking neural network container (Definition 3 of the paper).

use std::ops::Range;
use std::sync::OnceLock;

use crate::error::SnnError;
use crate::params::LifParams;
use crate::types::NeuronId;

/// A directed synapse with programmable weight and integer delay (≥ 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Synapse {
    /// Post-synaptic neuron.
    pub target: NeuronId,
    /// Synaptic weight `w_ij ∈ ℝ` (negative = inhibitory).
    pub weight: f64,
    /// Synaptic delay `d_ij ∈ ℕ, d_ij >= 1`, in time steps.
    pub delay: u32,
}

/// Flat compressed-sparse-row view of a network's synapse table.
///
/// `offsets` has `n + 1` entries; the outgoing synapses of neuron `i` are
/// the contiguous slice `synapses[offsets[i]..offsets[i + 1]]`, in the
/// order the edges were `connect`ed. Engines iterate this instead of the
/// build-side `Vec<Vec<Synapse>>` so spike routing walks one flat array
/// (one cache stream) rather than chasing a pointer per neuron.
///
/// Invariants: `offsets` is non-decreasing, `offsets[0] == 0`,
/// `offsets[n] == synapses.len() == Network::synapse_count()`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CsrTopology {
    offsets: Vec<usize>,
    synapses: Vec<Synapse>,
}

impl CsrTopology {
    /// Assembles a topology from pre-sorted parts — the bulk compiler's
    /// entry point ([`crate::builder::NetworkBuilder`] counting-sorts
    /// straight into these arrays; no per-neuron allocations, no
    /// build-side adjacency ever exists).
    pub(crate) fn from_parts(offsets: Vec<usize>, synapses: Vec<Synapse>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(*offsets.last().unwrap(), synapses.len());
        Self { offsets, synapses }
    }

    /// Resident bytes of the two flat arrays.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.synapses.capacity() * std::mem::size_of::<Synapse>()
    }

    fn build(adjacency: &[Vec<Synapse>]) -> Self {
        let total = adjacency.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(adjacency.len() + 1);
        let mut synapses = Vec::with_capacity(total);
        offsets.push(0);
        for row in adjacency {
            synapses.extend_from_slice(row);
            offsets.push(synapses.len());
        }
        Self { offsets, synapses }
    }

    /// Outgoing synapses of neuron `i` (dense index).
    #[inline]
    #[must_use]
    pub fn out(&self, i: usize) -> &[Synapse] {
        &self.synapses[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Outgoing synapses of neurons `ids`, as one slice: rows are stored
    /// in id order, so a range of neurons owns a range of synapses.
    #[inline]
    pub(crate) fn rows(&self, ids: Range<usize>) -> &[Synapse] {
        &self.synapses[self.offsets[ids.start]..self.offsets[ids.end]]
    }

    /// Every synapse in the network as one flat slice.
    #[inline]
    #[must_use]
    pub fn all(&self) -> &[Synapse] {
        &self.synapses
    }
}

/// One delay bucket of a [`BitplaneTopology`]: the synapses of a single
/// source that share one in-horizon delay, as a `start..end` range into the
/// flat target/weight arrays.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DelayBucket {
    /// The shared synaptic delay (`1..=horizon`).
    pub(crate) delay: u32,
    /// Start of the bucket's synapses in `targets`/`weights`.
    pub(crate) start: usize,
    /// One past the bucket's last synapse.
    pub(crate) end: usize,
}

/// Delay-bucketed view of the synapse table for the bit-plane engine.
///
/// The bit-plane engine keeps spike frontiers as `u64` bit-planes in a
/// ring buffer and, at step `t`, delivers the arrivals due from each plane
/// still inside the delay horizon. That inverts the time wheel's layout:
/// instead of "which deliveries land at `t`" it asks "which synapses of
/// source `s` have delay `t - t_fire`" — so this snapshot groups each
/// source's in-horizon synapses into per-delay buckets (delays ascending,
/// CSR order preserved within a bucket, which keeps floating-point
/// accumulation order — and therefore whole `RunResult`s — bit-identical
/// to the wheel-based engines).
///
/// Two delivery modes hang off the same buckets:
///
/// * **Gather** (always available) — walk a bucket's target/weight pairs
///   and accumulate `f64` synaptic input, exactly like the wheel drain.
/// * **OR-mask** — when every neuron has `v_reset == 0`,
///   `v_threshold >= 0`, and every synapse weight strictly exceeds its
///   target's threshold, a neuron fires iff at least one arrival lands on
///   it and membrane voltages are identically zero between events. Spike
///   propagation then reduces to OR-ing each bucket's precomputed target
///   bitmask into the step's fired plane — no floating point at all. The
///   masks are materialised only for such networks, and only while small
///   and dense enough to beat the gather (see [`Self::uses_masks`]).
///
/// Synapses with delays beyond the wheel horizon (`HORIZON_CAP`) go to a
/// per-source overflow list; the engine parks them in an ordered map just
/// as the wheel does, so both engines classify every delivery identically.
///
/// Built lazily by [`Network::bitplane`] (like the CSR snapshot) and
/// invalidated by any topology mutation.
#[derive(Clone, Debug)]
pub struct BitplaneTopology {
    /// Delay horizon: `clamp(max_delay, 1, HORIZON_CAP)` — identical to
    /// the time wheel's horizon for the same network.
    pub(crate) horizon: u32,
    /// `u64` words per bit-plane: `ceil(n / 64)`.
    pub(crate) words: usize,
    /// `n + 1` offsets into `buckets`; source `i`'s delay buckets are
    /// `buckets[bucket_offsets[i]..bucket_offsets[i + 1]]`.
    pub(crate) bucket_offsets: Vec<usize>,
    /// All delay buckets, grouped by source, delays ascending per source.
    pub(crate) buckets: Vec<DelayBucket>,
    /// Flat bucket-ordered synapse targets (dense neuron indices).
    pub(crate) targets: Vec<u32>,
    /// Flat bucket-ordered synapse weights (parallel to `targets`).
    pub(crate) weights: Vec<f64>,
    /// Per-source in-horizon out-degree (sum of its bucket sizes).
    pub(crate) horizon_degree: Vec<u32>,
    /// `n + 1` offsets into `overflow`.
    pub(crate) overflow_offsets: Vec<usize>,
    /// Beyond-horizon synapses per source, in CSR order:
    /// `(delay, target, weight)`.
    pub(crate) overflow: Vec<(u32, NeuronId, f64)>,
    /// Per-bucket target bitmasks (`buckets.len() * words` words), present
    /// only in OR-mask mode.
    pub(crate) masks: Option<Vec<u64>>,
}

/// Upper bound on the resident bytes of the optional per-bucket target
/// masks; above it the topology stays in gather mode regardless of
/// density ("CSR-gather fallback for large graphs").
const MASK_BYTES_CAP: usize = 1 << 24; // 16 MiB

impl BitplaneTopology {
    pub(crate) fn build(csr: &CsrTopology, params: &[LifParams], max_delay: u32) -> Self {
        let n = params.len();
        let horizon =
            u32::try_from((max_delay as usize).clamp(1, crate::engine::wheel::HORIZON_CAP))
                .expect("HORIZON_CAP fits in u32");
        let words = n.div_ceil(64);

        let mut bucket_offsets = Vec::with_capacity(n + 1);
        let mut buckets = Vec::new();
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        let mut horizon_degree = vec![0u32; n];
        let mut overflow_offsets = Vec::with_capacity(n + 1);
        let mut overflow = Vec::new();
        // OR-mask eligibility: voltages provably pinned at zero between
        // events, every arrival fires its target (see type-level docs).
        let mut or_eligible = params
            .iter()
            .all(|p| p.v_reset == 0.0 && p.v_threshold >= 0.0);

        bucket_offsets.push(0);
        overflow_offsets.push(0);
        // (delay, CSR position) per in-horizon synapse of one source; the
        // CSR position tiebreak makes the sort a stable partition, so CSR
        // relative order survives within each bucket.
        let mut row: Vec<(u32, usize)> = Vec::new();
        for i in 0..n {
            row.clear();
            for (k, s) in csr.out(i).iter().enumerate() {
                or_eligible &= s.weight > params[s.target.index()].v_threshold;
                if s.delay <= horizon {
                    row.push((s.delay, k));
                } else {
                    overflow.push((s.delay, s.target, s.weight));
                }
            }
            row.sort_unstable();
            horizon_degree[i] = row.len() as u32;
            let out = csr.out(i);
            let mut j = 0;
            while j < row.len() {
                let delay = row[j].0;
                let start = targets.len();
                while j < row.len() && row[j].0 == delay {
                    let s = &out[row[j].1];
                    targets.push(s.target.0);
                    weights.push(s.weight);
                    j += 1;
                }
                buckets.push(DelayBucket {
                    delay,
                    start,
                    end: targets.len(),
                });
            }
            bucket_offsets.push(buckets.len());
            overflow_offsets.push(overflow.len());
        }

        // Mask mode pays `words` OR-ops per (fired source, delay) bucket
        // where the gather pays `bucket len` adds: worth it only for
        // eligible networks whose buckets are reasonably full (avg bucket
        // length >= words / 8 — OR words are SIMD-wide), and only while
        // the mask table stays small.
        let use_masks = or_eligible
            && !buckets.is_empty()
            && targets.len() * 8 >= buckets.len() * words
            && buckets.len().saturating_mul(words).saturating_mul(8) <= MASK_BYTES_CAP;
        let masks = use_masks.then(|| {
            let mut m = vec![0u64; buckets.len() * words];
            for (b, bucket) in buckets.iter().enumerate() {
                let plane = &mut m[b * words..(b + 1) * words];
                for &t in &targets[bucket.start..bucket.end] {
                    plane[(t >> 6) as usize] |= 1u64 << (t & 63);
                }
            }
            m
        });

        Self {
            horizon,
            words,
            bucket_offsets,
            buckets,
            targets,
            weights,
            horizon_degree,
            overflow_offsets,
            overflow,
            masks,
        }
    }

    /// Delay horizon shared with the time wheel.
    #[must_use]
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// Whether spike propagation runs in OR-mask mode (see type docs).
    #[must_use]
    pub fn uses_masks(&self) -> bool {
        self.masks.is_some()
    }

    /// Number of synapses whose delay exceeds the horizon (these take the
    /// ordered-map overflow path, exactly like the wheel's).
    #[must_use]
    pub fn overflow_synapses(&self) -> usize {
        self.overflow.len()
    }

    /// Resident heap bytes of this snapshot (all capacities counted).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.bucket_offsets.capacity() * size_of::<usize>()
            + self.buckets.capacity() * size_of::<DelayBucket>()
            + self.targets.capacity() * size_of::<u32>()
            + self.weights.capacity() * size_of::<f64>()
            + self.horizon_degree.capacity() * size_of::<u32>()
            + self.overflow_offsets.capacity() * size_of::<usize>()
            + self.overflow.capacity() * size_of::<(u32, NeuronId, f64)>()
            + self
                .masks
                .as_ref()
                .map_or(0, |m| m.capacity() * size_of::<u64>())
    }
}

/// A spiking neural network: a directed graph (cycles and self-loops
/// allowed) whose vertices are LIF neurons and whose edges are synapses.
///
/// Designated subsets of neurons act as *inputs* (spikes may be induced in
/// them at `t = 0`), *outputs* (their firing state is read out when the
/// computation terminates), and an optional *terminal* neuron whose first
/// spike ends the computation (Definition 3).
///
/// Construction has two paths:
///
/// * **Incremental** — [`Network::connect`] appends to a per-neuron
///   adjacency list (cheap single-edge edits); the engines read through
///   [`Network::csr`], a flat CSR snapshot built lazily on first use and
///   invalidated by any topology mutation. [`Network::freeze`] drops the
///   build-side adjacency once the CSR exists, halving resident synapse
///   memory for a network that is done being built.
/// * **Bulk** — [`crate::builder::NetworkBuilder`] stages edges in one
///   flat buffer and counting-sorts them straight into the CSR arrays;
///   the resulting network is *born frozen* and the adjacency list never
///   materialises. This is the fast path for mass construction
///   (graph → SNN compilation).
///
/// A frozen network is read-only through the cheap accessors; any
/// mutation ([`Network::connect`], [`Network::add_neuron`],
/// [`Network::synapses_from_mut`]) transparently [`Network::thaw`]s it
/// back into adjacency-list form first (one O(m) copy), so the two
/// representations are observationally identical.
#[derive(Clone, Debug, Default)]
pub struct Network {
    params: Vec<LifParams>,
    /// Build-side adjacency; empty (never allocated) while `frozen`.
    synapses: Vec<Vec<Synapse>>,
    csr: OnceLock<CsrTopology>,
    /// Bit-plane engine snapshot, derived from the CSR and the neuron
    /// parameters on first use and invalidated with either.
    bitplane: OnceLock<BitplaneTopology>,
    /// Cached outcomes of [`Self::validate`], indexed by its
    /// `for_event_engine` flag; cleared by every mutator.
    validity: [OnceLock<Result<(), SnnError>>; 2],
    /// When set, `csr` is the authoritative topology and `synapses` is
    /// dropped.
    frozen: bool,
    inputs: Vec<NeuronId>,
    outputs: Vec<NeuronId>,
    terminal: Option<NeuronId>,
    synapse_count: usize,
    max_delay: u32,
}

impl Network {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty network pre-sized for `neurons` neurons.
    #[must_use]
    pub fn with_capacity(neurons: usize) -> Self {
        Self {
            params: Vec::with_capacity(neurons),
            synapses: Vec::with_capacity(neurons),
            ..Self::default()
        }
    }

    /// Assembles a *born-frozen* network from bulk-compiled parts: the CSR
    /// is authoritative from the start and the build-side adjacency never
    /// exists. The caller ([`crate::builder::NetworkBuilder::build`]) has
    /// already validated every synapse.
    pub(crate) fn from_frozen(
        params: Vec<LifParams>,
        csr: CsrTopology,
        inputs: Vec<NeuronId>,
        outputs: Vec<NeuronId>,
        terminal: Option<NeuronId>,
        max_delay: u32,
    ) -> Self {
        let synapse_count = csr.all().len();
        let lock = OnceLock::new();
        lock.set(csr).expect("fresh lock");
        Self {
            params,
            synapses: Vec::new(),
            csr: lock,
            bitplane: OnceLock::new(),
            validity: Default::default(),
            frozen: true,
            inputs,
            outputs,
            terminal,
            synapse_count,
            max_delay,
        }
    }

    /// Adds a neuron with the given parameters and returns its id.
    pub fn add_neuron(&mut self, params: LifParams) -> NeuronId {
        debug_assert!(params.validate().is_ok(), "invalid LIF parameters");
        self.thaw();
        let id = NeuronId(u32::try_from(self.params.len()).expect("more than u32::MAX neurons"));
        self.params.push(params);
        self.synapses.push(Vec::new());
        self.clear_topology_caches();
        id
    }

    /// Adds `count` neurons sharing the same parameters; returns their ids.
    ///
    /// Reserves capacity for all `count` neurons up front and invalidates
    /// the cached CSR snapshot once, not per neuron.
    pub fn add_neurons(&mut self, params: LifParams, count: usize) -> Vec<NeuronId> {
        debug_assert!(params.validate().is_ok(), "invalid LIF parameters");
        self.thaw();
        self.clear_topology_caches();
        self.params.reserve(count);
        self.synapses.reserve(count);
        let start = self.params.len();
        u32::try_from(start + count).expect("more than u32::MAX neurons");
        let ids = (start..start + count).map(|i| NeuronId(i as u32)).collect();
        for _ in 0..count {
            self.params.push(params);
            self.synapses.push(Vec::new());
        }
        ids
    }

    /// Connects `src -> dst` with the given weight and delay.
    ///
    /// # Errors
    /// Rejects unknown endpoints, zero delays and non-finite weights.
    pub fn connect(
        &mut self,
        src: NeuronId,
        dst: NeuronId,
        weight: f64,
        delay: u32,
    ) -> Result<(), SnnError> {
        if src.index() >= self.params.len() {
            return Err(SnnError::UnknownNeuron(src));
        }
        if dst.index() >= self.params.len() {
            return Err(SnnError::UnknownNeuron(dst));
        }
        if delay == 0 {
            return Err(SnnError::ZeroDelay { src, dst });
        }
        if !weight.is_finite() {
            return Err(SnnError::NonFiniteWeight { src, dst });
        }
        self.thaw();
        self.synapses[src.index()].push(Synapse {
            target: dst,
            weight,
            delay,
        });
        self.clear_topology_caches();
        self.synapse_count += 1;
        self.max_delay = self.max_delay.max(delay);
        Ok(())
    }

    /// Flat CSR view of the synapse table, built on first use and cached
    /// until the topology next changes. Engines route spikes through this.
    /// For a frozen network the CSR *is* the topology — no build, no copy.
    #[must_use]
    pub fn csr(&self) -> &CsrTopology {
        self.csr.get_or_init(|| CsrTopology::build(&self.synapses))
    }

    /// Delay-bucketed bit-plane snapshot of the synapse table (see
    /// [`BitplaneTopology`]), built from the CSR on first use and cached
    /// until the topology next changes. The bit-plane engine routes spikes
    /// through this.
    ///
    /// Built lazily — not eagerly by [`Self::freeze`] — so networks that
    /// never run on the bit-plane engine pay nothing for it; once built it
    /// is counted by [`Self::memory_bytes`].
    #[must_use]
    pub fn bitplane(&self) -> &BitplaneTopology {
        self.bitplane
            .get_or_init(|| BitplaneTopology::build(self.csr(), &self.params, self.max_delay))
    }

    /// Builds the CSR snapshot (if not already cached) and **drops the
    /// build-side adjacency**, roughly halving resident synapse memory.
    /// Call when construction is done and the network will be simulated
    /// (possibly many times) but not edited. Mutations after `freeze` are
    /// still legal — they [`Self::thaw`] first (one O(m) copy).
    pub fn freeze(&mut self) {
        if self.frozen {
            return;
        }
        if self.csr.get().is_none() {
            let built = CsrTopology::build(&self.synapses);
            self.csr.set(built).expect("csr lock checked empty");
        }
        self.synapses = Vec::new();
        self.frozen = true;
    }

    /// Rematerialises the build-side adjacency from the CSR and leaves the
    /// frozen state; a no-op on non-frozen networks. Mutating accessors
    /// call this implicitly, so it rarely needs calling by hand.
    pub fn thaw(&mut self) {
        if !self.frozen {
            return;
        }
        let csr = self.csr.take().expect("frozen implies a resident CSR");
        self.bitplane.take();
        self.synapses = (0..self.params.len())
            .map(|i| csr.out(i).to_vec())
            .collect();
        self.frozen = false;
    }

    /// Whether the CSR is authoritative and the build-side adjacency has
    /// been dropped (see [`Self::freeze`]).
    #[must_use]
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Approximate resident heap bytes of the topology: parameters,
    /// build-side adjacency (rows + per-row buffers), the cached CSR and
    /// bit-plane snapshots, and the designation lists — all counted at
    /// `Vec` capacity, not length. The figure the `compile` bench reports
    /// to show what [`Self::freeze`] / bulk construction save.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = self.params.capacity() * size_of::<LifParams>();
        total += self.synapses.capacity() * size_of::<Vec<Synapse>>();
        for row in &self.synapses {
            total += row.capacity() * size_of::<Synapse>();
        }
        if let Some(csr) = self.csr.get() {
            total += csr.memory_bytes();
        }
        if let Some(bp) = self.bitplane.get() {
            total += bp.memory_bytes();
        }
        total += (self.inputs.capacity() + self.outputs.capacity()) * size_of::<NeuronId>();
        total
    }

    /// Outgoing synapses of dense index `i`, from whichever representation
    /// is live.
    #[inline]
    fn row(&self, i: usize) -> &[Synapse] {
        if self.frozen {
            self.csr
                .get()
                .expect("frozen implies a resident CSR")
                .out(i)
        } else {
            &self.synapses[i]
        }
    }

    /// All neuron parameters as one dense slice (indexable by
    /// [`NeuronId::index`]) — the engines' per-neuron lookup path.
    #[inline]
    #[must_use]
    pub fn params_slice(&self) -> &[LifParams] {
        &self.params
    }

    /// Number of neurons (`n` in the paper's complexity bounds).
    #[must_use]
    pub fn neuron_count(&self) -> usize {
        self.params.len()
    }

    /// Number of synapses.
    #[must_use]
    pub fn synapse_count(&self) -> usize {
        self.synapse_count
    }

    /// Largest synaptic delay in the network (0 for an edgeless network).
    #[must_use]
    pub fn max_delay(&self) -> u32 {
        self.max_delay
    }

    /// Parameters of neuron `id`.
    ///
    /// # Panics
    /// Panics if `id` is not a neuron of this network.
    #[must_use]
    pub fn params(&self, id: NeuronId) -> &LifParams {
        &self.params[id.index()]
    }

    /// Mutable parameters of neuron `id` (reprogramming a deployed net).
    /// Drops the cached validation outcomes and bit-plane snapshot, which
    /// both read neuron parameters; the topology stays as it is.
    pub fn params_mut(&mut self, id: NeuronId) -> &mut LifParams {
        self.clear_param_caches();
        &mut self.params[id.index()]
    }

    /// Outgoing synapses of neuron `id`.
    #[must_use]
    pub fn synapses_from(&self, id: NeuronId) -> &[Synapse] {
        self.row(id.index())
    }

    /// Mutable outgoing synapses of neuron `id` — used by the crossbar
    /// embedder to re-program delays in place (§4.4). Invalidates the
    /// cached CSR view (thawing a frozen network first).
    pub fn synapses_from_mut(&mut self, id: NeuronId) -> &mut [Synapse] {
        self.thaw();
        self.clear_topology_caches();
        &mut self.synapses[id.index()]
    }

    /// Drops what is derived from neuron parameters: the bit-plane
    /// snapshot (its OR-mask mode reads thresholds and resets) and the
    /// cached validation outcomes.
    fn clear_param_caches(&mut self) {
        self.bitplane.take();
        self.validity = Default::default();
    }

    /// Drops everything derived from the topology: the CSR snapshot and
    /// all of [`Self::clear_param_caches`]. Callers thaw first, so the
    /// build-side adjacency is authoritative.
    fn clear_topology_caches(&mut self) {
        debug_assert!(!self.frozen, "a frozen network's CSR is its topology");
        self.csr.take();
        self.clear_param_caches();
    }

    /// Iterates over all neuron ids.
    pub fn neuron_ids(&self) -> impl Iterator<Item = NeuronId> + '_ {
        (0..self.params.len()).map(|i| NeuronId(i as u32))
    }

    /// Marks `id` as an input neuron (idempotent).
    pub fn mark_input(&mut self, id: NeuronId) {
        if !self.inputs.contains(&id) {
            self.inputs.push(id);
        }
    }

    /// Marks `id` as an output neuron (idempotent).
    pub fn mark_output(&mut self, id: NeuronId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Designates the terminal neuron `u_t` whose first spike ends the
    /// computation (Definition 3).
    pub fn set_terminal(&mut self, id: NeuronId) {
        self.terminal = Some(id);
    }

    /// The designated input neurons `I ⊆ N`.
    #[must_use]
    pub fn inputs(&self) -> &[NeuronId] {
        &self.inputs
    }

    /// The designated output neurons `O ⊆ N`.
    #[must_use]
    pub fn outputs(&self) -> &[NeuronId] {
        &self.outputs
    }

    /// The designated terminal neuron, if any.
    #[must_use]
    pub fn terminal(&self) -> Option<NeuronId> {
        self.terminal
    }

    /// In-degrees of every neuron (useful for circuit-size accounting:
    /// the paper's node circuits scale with `indeg(v)`).
    #[must_use]
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.params.len()];
        for i in 0..self.params.len() {
            for s in self.row(i) {
                deg[s.target.index()] += 1;
            }
        }
        deg
    }

    /// Largest absolute synaptic weight (circuit analyses in §5 distinguish
    /// polynomially- from exponentially-bounded weights).
    #[must_use]
    pub fn max_abs_weight(&self) -> f64 {
        (0..self.params.len())
            .flat_map(|i| self.row(i))
            .map(|s| s.weight.abs())
            .fold(0.0, f64::max)
    }

    /// Checks every neuron and synapse for model validity; additionally
    /// verifies the event-engine precondition when `for_event_engine`.
    ///
    /// `connect` already rejects zero delays and non-finite weights, but
    /// [`Self::synapses_from_mut`] and [`Self::params_mut`] permit in-place
    /// re-programming that bypasses those checks, so every
    /// [`crate::engine::EngineChoice::prepare`] validates here rather than
    /// silently mis-scheduling corrupted synapses. The outcome is cached
    /// per flag, so a network is scanned once however often it is
    /// prepared; every mutator clears the cache, and a clone carries it.
    ///
    /// # Errors
    /// The first invalid neuron or synapse found, in id order.
    pub fn validate(&self, for_event_engine: bool) -> Result<(), SnnError> {
        self.validity[usize::from(for_event_engine)]
            .get_or_init(|| self.scan_validity(for_event_engine))
            .clone()
    }

    /// The uncached scan behind [`Self::validate`].
    fn scan_validity(&self, for_event_engine: bool) -> Result<(), SnnError> {
        for (i, p) in self.params.iter().enumerate() {
            p.validate()?;
            if for_event_engine && !p.is_input_driven() {
                return Err(SnnError::SpontaneousNeuron(NeuronId(i as u32)));
            }
        }
        for i in 0..self.params.len() {
            let src = NeuronId(i as u32);
            for s in self.row(i) {
                if s.delay == 0 {
                    return Err(SnnError::ZeroDelay { src, dst: s.target });
                }
                if !s.weight.is_finite() {
                    return Err(SnnError::NonFiniteWeight { src, dst: s.target });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DenseEngine, Engine, EngineChoice, NullObserver, RunConfig, RunScratch};

    #[test]
    fn build_small_network() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate(1.0));
        let b = net.add_neuron(LifParams::gate(1.0));
        net.connect(a, b, 2.0, 5).unwrap();
        assert_eq!(net.neuron_count(), 2);
        assert_eq!(net.synapse_count(), 1);
        assert_eq!(net.max_delay(), 5);
        assert_eq!(net.synapses_from(a).len(), 1);
        assert_eq!(net.synapses_from(b).len(), 0);
        assert_eq!(net.synapses_from(a)[0].target, b);
    }

    #[test]
    fn zero_delay_rejected() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::default());
        let b = net.add_neuron(LifParams::default());
        assert_eq!(
            net.connect(a, b, 1.0, 0),
            Err(SnnError::ZeroDelay { src: a, dst: b })
        );
    }

    #[test]
    fn unknown_neuron_rejected() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::default());
        let ghost = NeuronId(99);
        assert_eq!(
            net.connect(a, ghost, 1.0, 1),
            Err(SnnError::UnknownNeuron(ghost))
        );
        assert_eq!(
            net.connect(ghost, a, 1.0, 1),
            Err(SnnError::UnknownNeuron(ghost))
        );
    }

    #[test]
    fn non_finite_weight_rejected() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::default());
        assert!(net.connect(a, a, f64::NAN, 1).is_err());
        assert!(net.connect(a, a, f64::INFINITY, 1).is_err());
    }

    #[test]
    fn self_loops_allowed() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::integrator(0.5));
        net.connect(a, a, 1.0, 1).unwrap();
        assert_eq!(net.synapses_from(a)[0].target, a);
    }

    #[test]
    fn io_and_terminal_designation() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::default());
        let b = net.add_neuron(LifParams::default());
        net.mark_input(a);
        net.mark_input(a); // idempotent
        net.mark_output(b);
        net.set_terminal(b);
        assert_eq!(net.inputs(), &[a]);
        assert_eq!(net.outputs(), &[b]);
        assert_eq!(net.terminal(), Some(b));
    }

    #[test]
    fn in_degrees_counted() {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::default(), 3);
        net.connect(ids[0], ids[2], 1.0, 1).unwrap();
        net.connect(ids[1], ids[2], 1.0, 1).unwrap();
        net.connect(ids[2], ids[0], 1.0, 1).unwrap();
        assert_eq!(net.in_degrees(), vec![1, 0, 2]);
    }

    #[test]
    fn validate_flags_spontaneous_for_event_engine() {
        let mut net = Network::new();
        net.add_neuron(LifParams {
            v_reset: 2.0,
            v_threshold: 1.0,
            decay: 0.0,
        });
        assert!(net.validate(false).is_ok());
        assert!(matches!(
            net.validate(true),
            Err(SnnError::SpontaneousNeuron(_))
        ));
    }

    #[test]
    fn csr_matches_adjacency_and_invalidates_on_mutation() {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::default(), 4);
        net.connect(ids[0], ids[1], 1.0, 1).unwrap();
        net.connect(ids[0], ids[2], -2.0, 3).unwrap();
        net.connect(ids[2], ids[3], 0.5, 2).unwrap();

        let csr = net.csr();
        assert_eq!(csr.all().len(), 3);
        for id in [ids[0], ids[1], ids[2], ids[3]] {
            assert_eq!(csr.out(id.index()), net.synapses_from(id), "{id}");
        }

        // Mutating the topology must refresh the snapshot.
        net.connect(ids[3], ids[0], 4.0, 7).unwrap();
        assert_eq!(net.csr().all().len(), 4);
        assert_eq!(net.csr().out(ids[3].index()).len(), 1);

        // Growing the neuron set must extend the offsets.
        let e = net.add_neuron(LifParams::default());
        assert_eq!(net.csr().out(e.index()).len(), 0);
    }

    #[test]
    fn csr_empty_network() {
        let net = Network::new();
        assert!(net.csr().all().is_empty());
    }

    #[test]
    fn validate_catches_in_place_weight_corruption() {
        // Both rule sets' outcomes are cached before each corruption.
        let (mut net, a, b) = prepared_chain();
        net.synapses_from_mut(a)[0].weight = f64::NAN;
        for choice in [EngineChoice::Event, EngineChoice::Dense] {
            assert_eq!(
                choice.prepare(&net).err(),
                Some(SnnError::NonFiniteWeight { src: a, dst: b })
            );
        }
        let (mut net, a, b) = prepared_chain();
        net.synapses_from_mut(a)[0].delay = 0;
        for choice in [EngineChoice::Event, EngineChoice::Dense] {
            assert_eq!(
                choice.prepare(&net).err(),
                Some(SnnError::ZeroDelay { src: a, dst: b })
            );
        }
    }

    /// A network with a cached outcome under both validation rules: a
    /// two-gate chain prepared once for the event engine and once for the
    /// dense engine.
    fn prepared_chain() -> (Network, NeuronId, NeuronId) {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate(0.5));
        let b = net.add_neuron(LifParams::gate(0.5));
        net.connect(a, b, 1.0, 2).unwrap();
        net.freeze();
        assert!(EngineChoice::Event.prepare(&net).is_ok());
        assert!(EngineChoice::Dense.prepare(&net).is_ok());
        assert!(net.validity.iter().all(|v| v.get() == Some(&Ok(()))));
        (net, a, b)
    }

    #[test]
    fn cached_validation_sees_params_mut() {
        let (mut net, _, b) = prepared_chain();
        net.params_mut(b).v_reset = 1.0; // above its 0.5 threshold
        assert_eq!(
            EngineChoice::Event.prepare(&net).err(),
            Some(SnnError::SpontaneousNeuron(b))
        );
        assert!(EngineChoice::Dense.prepare(&net).is_ok());
        // Repairing it is seen too.
        net.params_mut(b).v_reset = 0.0;
        assert!(EngineChoice::Event.prepare(&net).is_ok());
        net.params_mut(b).decay = 2.0;
        assert_eq!(
            EngineChoice::Dense.prepare(&net).err(),
            Some(SnnError::InvalidDecay(2.0))
        );
    }

    #[test]
    fn cached_validation_sees_connect_and_add_neuron() {
        let (mut net, a, b) = prepared_chain();
        net.connect(b, a, 1.0, 3).unwrap();
        assert!(net.validity.iter().all(|v| v.get().is_none()));
        assert!(EngineChoice::Event.prepare(&net).is_ok());

        let c = net.add_neuron(LifParams {
            v_reset: 2.0,
            v_threshold: 1.0,
            decay: 0.0,
        });
        assert_eq!(
            EngineChoice::Event.prepare(&net).err(),
            Some(SnnError::SpontaneousNeuron(c))
        );

        let (mut net, _, _) = prepared_chain();
        net.add_neurons(LifParams::gate(0.5), 3);
        assert!(net.validity.iter().all(|v| v.get().is_none()));
    }

    #[test]
    fn cached_validation_survives_designation_thaw_and_freeze() {
        let (mut net, a, b) = prepared_chain();
        net.mark_input(a);
        net.mark_output(b);
        net.set_terminal(b);
        net.thaw();
        net.freeze();
        assert!(net.validity.iter().all(|v| v.get() == Some(&Ok(()))));
    }

    #[test]
    fn a_clone_keeps_the_cached_answer_and_its_own_mutations() {
        let (net, a, b) = prepared_chain();
        let mut copy = net.clone();
        assert!(copy.validity.iter().all(|v| v.get() == Some(&Ok(()))));
        copy.synapses_from_mut(a)[0].weight = f64::INFINITY;
        assert_eq!(
            EngineChoice::Event.prepare(&copy).err(),
            Some(SnnError::NonFiniteWeight { src: a, dst: b })
        );
        assert!(EngineChoice::Event.prepare(&net).is_ok());
        assert!(net.validity.iter().all(|v| v.get() == Some(&Ok(()))));
    }

    #[test]
    fn params_mut_rebuilds_the_bitplane_snapshot() {
        // Gates at 0.5 fed weight 1.0 qualify for OR-mask mode; raising the
        // target's threshold above the weight must not leave a stale mask
        // firing it on every arrival.
        let (mut net, a, b) = prepared_chain();
        assert!(net.bitplane().uses_masks());
        net.params_mut(b).v_threshold = 1.5;
        assert!(net.bitplane.get().is_none());
        assert!(!net.bitplane().uses_masks());
        let cfg = RunConfig::fixed(4);
        let got = EngineChoice::Bitplane
            .prepare(&net)
            .unwrap()
            .run(&[a], &cfg, &mut RunScratch::new(), &mut NullObserver)
            .unwrap();
        assert_eq!(got, DenseEngine.run(&net, &[a], &cfg).unwrap());
        assert_eq!(got.first_spike(b), None);
    }

    #[test]
    fn max_abs_weight_tracks_inhibitory() {
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::default());
        let b = net.add_neuron(LifParams::default());
        net.connect(a, b, -3.5, 1).unwrap();
        net.connect(b, a, 2.0, 1).unwrap();
        assert_eq!(net.max_abs_weight(), 3.5);
    }

    #[test]
    fn freeze_drops_adjacency_and_keeps_reads_identical() {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::default(), 4);
        net.connect(ids[0], ids[1], 1.0, 1).unwrap();
        net.connect(ids[0], ids[2], -2.0, 3).unwrap();
        net.connect(ids[2], ids[3], 0.5, 2).unwrap();
        net.mark_input(ids[0]);
        net.set_terminal(ids[3]);

        let before_rows: Vec<Vec<Synapse>> = net
            .neuron_ids()
            .map(|id| net.synapses_from(id).to_vec())
            .collect();
        let before_deg = net.in_degrees();
        let before_mem = net.memory_bytes();

        net.freeze();
        assert!(net.is_frozen());
        assert!(
            net.memory_bytes() < before_mem,
            "freeze must shed the adjacency"
        );

        // Every cheap accessor answers identically off the CSR.
        for (id, row) in net.neuron_ids().zip(&before_rows) {
            assert_eq!(net.synapses_from(id), row.as_slice());
        }
        assert_eq!(net.in_degrees(), before_deg);
        assert_eq!(net.max_abs_weight(), 2.0);
        assert_eq!(net.synapse_count(), 3);
        assert!(net.validate(false).is_ok());
        assert_eq!(net.csr().all().len(), 3);
    }

    #[test]
    fn freeze_reclaims_at_least_the_adjacency_capacity() {
        use std::mem::size_of;
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate(0.5), 64);
        for i in 0..ids.len() {
            for j in 0..ids.len() {
                if i != j && (i + j) % 3 == 0 {
                    net.connect(ids[i], ids[j], 1.0, 1 + (i % 5) as u32)
                        .unwrap();
                }
            }
        }
        // Build the CSR up front so the before/after figures differ only by
        // what freeze is supposed to shed: the build-side adjacency.
        let _ = net.csr();
        let adjacency_bytes = net.synapses.capacity() * size_of::<Vec<Synapse>>()
            + net
                .synapses
                .iter()
                .map(|row| row.capacity() * size_of::<Synapse>())
                .sum::<usize>();
        assert!(adjacency_bytes > 0);
        let before = net.memory_bytes();
        net.freeze();
        let after = net.memory_bytes();
        assert!(
            before - after >= adjacency_bytes,
            "freeze must reclaim at least the adjacency capacity: \
             before {before}, after {after}, adjacency {adjacency_bytes}"
        );
    }

    #[test]
    fn memory_bytes_counts_the_bitplane_snapshot() {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate(0.5), 8);
        for w in ids.windows(2) {
            net.connect(w[0], w[1], 1.0, 2).unwrap();
        }
        let _ = net.csr();
        let before = net.memory_bytes();
        let bp_bytes = net.bitplane().memory_bytes();
        assert!(bp_bytes > 0);
        assert_eq!(net.memory_bytes(), before + bp_bytes);
    }

    #[test]
    fn bitplane_snapshot_invalidates_on_mutation_and_thaw() {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate(0.5), 4);
        net.connect(ids[0], ids[1], 1.0, 3).unwrap();
        assert_eq!(net.bitplane().horizon(), 3);

        // connect drops the cached snapshot; the rebuild sees the new edge.
        net.connect(ids[1], ids[2], 1.0, 9).unwrap();
        assert!(net.bitplane.get().is_none());
        assert_eq!(net.bitplane().horizon(), 9);

        // freeze keeps it resident (topology unchanged); thaw drops it.
        net.freeze();
        let _ = net.bitplane();
        net.thaw();
        assert!(net.bitplane.get().is_none());

        // add_neuron and synapses_from_mut invalidate too.
        let _ = net.bitplane();
        net.add_neuron(LifParams::gate(0.5));
        assert!(net.bitplane.get().is_none());
        let _ = net.bitplane();
        net.synapses_from_mut(ids[0])[0].weight = -1.0;
        assert!(net.bitplane.get().is_none());
    }

    #[test]
    fn frozen_network_thaws_on_mutation() {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::default(), 3);
        net.connect(ids[0], ids[1], 1.0, 1).unwrap();
        net.freeze();

        // connect thaws implicitly and the edge lands after the existing one.
        net.connect(ids[0], ids[2], 2.0, 4).unwrap();
        assert!(!net.is_frozen());
        assert_eq!(net.synapses_from(ids[0]).len(), 2);
        assert_eq!(net.synapses_from(ids[0])[1].target, ids[2]);
        assert_eq!(net.csr().out(0).len(), 2);

        net.freeze();
        net.synapses_from_mut(ids[0])[0].weight = -9.0;
        assert!(!net.is_frozen());
        assert_eq!(net.csr().out(0)[0].weight, -9.0);

        net.freeze();
        let d = net.add_neuron(LifParams::default());
        assert!(!net.is_frozen());
        assert_eq!(net.csr().out(d.index()).len(), 0);

        // freeze is idempotent.
        net.freeze();
        net.freeze();
        assert!(net.is_frozen());
    }
}
