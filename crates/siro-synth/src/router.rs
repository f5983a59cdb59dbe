//! The version-graph router: any-to-any translation over the catalog.
//!
//! The paper's headline scenario is a set of IR versions with *any-to-any*
//! compatibility. Direct synthesis can serve every pair, but it is the
//! most expensive way to answer a request whose endpoints are already
//! bridged by warm translators. This module models the catalog as a
//! directed graph and answers a `(from, to)` request by cheapest-path
//! composition over that graph.
//!
//! ## Dialect-aware nodes
//!
//! Nodes are keyed by `(dialect, version)` ([`DialectVersion`]), not by a
//! flat version number — `1.0` in the Siro family and `1.0` in the WIR
//! family are different nodes. Edges come in three kinds:
//!
//! * **Siro → Siro** — the synthesized pairwise translator for the pair
//!   (exists when the pair has an oracle corpus);
//! * **WIR → WIR** — the synthesized WIR translator
//!   ([`crate::wir::wir_translator_cached`]; every ordered catalog pair);
//! * **Siro ↔ WIR** — a validated bridge at one of the
//!   [`crate::bridge::BRIDGE_ANCHORS`], in either direction. Non-anchor
//!   cross-dialect pairs get **no** edge, so a request whose endpoints
//!   span dialects with no anchor on any path is reported *unreachable*
//!   rather than served by a bogus chain.
//!
//! [`Router::new`] keeps the historical Siro-only node set (nothing about
//! pure-Siro serving changes); [`Router::with_wir`] adds the WIR catalog
//! and the anchor bridges, after which cross-dialect hops compose like any
//! other edge.
//!
//! ## Edge-cost formula
//!
//! Each edge is classified by how much work acquiring its translator
//! costs *right now*:
//!
//! * **Hot** — a successful outcome sits in the in-memory cache for its
//!   kind ([`COST_HOT_US`] ≈ an `Arc` clone);
//! * **Warm** — a persisted entry (`.sirt`, `.sirw`, or `.sirb`) exists in
//!   the attached [`TranslatorStore`] ([`COST_WARM_US`] ≈ read + validate);
//! * **Cold** — the translator must be synthesized or the bridge validated
//!   ([`COST_COLD_US`] ≈ a measured full-corpus synthesis).
//!
//! `cost(edge) = class_cost_us + observed_hop_us`, where `observed_hop_us`
//! is the mean duration of `route.hop` / `serve.translate` spans recorded
//! by [`siro_trace`] for that pair (zero when tracing is off or the pair
//! has no traffic yet). The unit is "expected microseconds to serve one
//! request through this edge", so path costs add meaningfully.
//!
//! ## Fallback ladder
//!
//! 1. cheapest path over the graph (direct edges compete on cost like any
//!    other path);
//! 2. if acquiring any hop of a composed path fails and both endpoints
//!    are Siro versions, fall back to direct synthesis of the full pair;
//! 3. if direct synthesis also fails — or the endpoints span dialects,
//!    where no direct synthesis exists — the error propagates.
//!
//! Composed chains are memoized per process (the router's composed
//! cache). Each hop's translator persists in its own store entry, so a
//! restarted process re-composes a chain from warm hops.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use siro_ir::{Dialect, DialectVersion, IrVersion, Module};
use siro_wir::{AnyModule, WirVersion};

use crate::bridge::{
    bridge_cached, bridge_is_hot, bridge_store_name, is_anchor_pair, BridgeOutcome,
};
use crate::cache::{CacheLookup, TranslatorCache};
use crate::driver::{SynthError, SynthesisConfig, SynthesisOutcome};
use crate::pertest::OracleTest;
use crate::store::{active_store, oracle_corpus, StoreKey, TranslatorStore};
use crate::wir::{wir_pair_is_hot, wir_store_name, wir_translator_cached, WirOutcome};

/// Cost (µs) of an edge whose translator is in the in-memory cache.
pub const COST_HOT_US: u64 = 10;
/// Cost (µs) of an edge whose translator is persisted in the store.
pub const COST_WARM_US: u64 = 2_000;
/// Cost (µs) of an edge whose translator must be synthesized.
pub const COST_COLD_US: u64 = 50_000;
/// Cap on the observed-latency term, so one pathological trace sample
/// cannot make a hot edge look colder than synthesis.
pub const OBSERVED_CAP_US: u64 = COST_COLD_US / 2;

/// Extracts the WIR-family version, if `v` names one.
fn as_wir(v: DialectVersion) -> Option<WirVersion> {
    matches!(v.dialect, Dialect::Wir).then(|| WirVersion::new(v.major, v.minor))
}

/// How an edge's translator would be acquired right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeClass {
    /// In the in-memory cache for its kind.
    Hot,
    /// Persisted in the attached [`TranslatorStore`].
    Warm,
    /// Must be synthesized (or, for a bridge, validated).
    Cold,
}

impl std::fmt::Display for EdgeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EdgeClass::Hot => "hot",
            EdgeClass::Warm => "warm",
            EdgeClass::Cold => "cold",
        })
    }
}

/// One edge of the version graph, with its cost breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeInfo {
    /// Source node of the hop.
    pub from: DialectVersion,
    /// Target node of the hop.
    pub to: DialectVersion,
    /// Acquisition class at snapshot time.
    pub class: EdgeClass,
    /// Mean observed per-hop translate latency (µs) from trace spans,
    /// when any traffic has been recorded.
    pub observed_us: Option<u64>,
    /// Total edge cost: class cost + capped observed latency.
    pub cost_us: u64,
}

/// A snapshot of the version graph: every node of the catalog (or a
/// custom node set) and every synthesizable edge with its current cost.
#[derive(Debug, Clone)]
pub struct VersionGraph {
    nodes: Vec<DialectVersion>,
    edges: HashMap<(DialectVersion, DialectVersion), EdgeInfo>,
}

impl VersionGraph {
    /// Builds a graph from an explicit edge set. [`Router::graph`] builds
    /// the live snapshot; this constructor exists for planners and tests
    /// that need a synthetic cost landscape (e.g. difftest fuzzing path
    /// selection over randomized warm/cold mixes).
    pub fn from_edges<N: Into<DialectVersion>>(nodes: Vec<N>, edges: Vec<EdgeInfo>) -> Self {
        VersionGraph {
            nodes: nodes.into_iter().map(Into::into).collect(),
            edges: edges.into_iter().map(|e| ((e.from, e.to), e)).collect(),
        }
    }

    /// The node set.
    pub fn nodes(&self) -> &[DialectVersion] {
        &self.nodes
    }

    /// The edge `from -> to`, if it exists in this snapshot.
    pub fn edge(
        &self,
        from: impl Into<DialectVersion>,
        to: impl Into<DialectVersion>,
    ) -> Option<&EdgeInfo> {
        self.edges.get(&(from.into(), to.into()))
    }

    /// Number of edges in the snapshot.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Cheapest path `from -> to` by summed edge cost (Dijkstra; ties
    /// broken toward fewer hops, then lower node order, so plans are
    /// deterministic). `from == to` yields an empty-hop plan.
    pub fn cheapest_path(
        &self,
        from: impl Into<DialectVersion>,
        to: impl Into<DialectVersion>,
    ) -> Option<RoutePlan> {
        let (from, to) = (from.into(), to.into());
        if !self.nodes.contains(&from) || !self.nodes.contains(&to) {
            return None;
        }
        if from == to {
            return Some(RoutePlan {
                from,
                to,
                hops: Vec::new(),
                cost_us: 0,
            });
        }
        // dist: node -> (cost, hops); prev: node -> predecessor.
        let mut dist: HashMap<DialectVersion, (u64, usize)> = HashMap::new();
        let mut prev: HashMap<DialectVersion, DialectVersion> = HashMap::new();
        let mut done: Vec<DialectVersion> = Vec::new();
        dist.insert(from, (0, 0));
        loop {
            let (&node, &(cost, hops)) = dist
                .iter()
                .filter(|(v, _)| !done.contains(v))
                .min_by_key(|(v, &(c, h))| (c, h, **v))?;
            if node == to {
                let mut hops_rev = Vec::new();
                let mut cur = to;
                while cur != from {
                    let p = prev[&cur];
                    hops_rev.push(self.edges[&(p, cur)]);
                    cur = p;
                }
                hops_rev.reverse();
                return Some(RoutePlan {
                    from,
                    to,
                    hops: hops_rev,
                    cost_us: cost,
                });
            }
            done.push(node);
            for (&(a, b), e) in &self.edges {
                if a != node {
                    continue;
                }
                let next = (cost + e.cost_us, hops + 1);
                let better = match dist.get(&b) {
                    None => true,
                    Some(&(c, h)) => next < (c, h),
                };
                if better {
                    dist.insert(b, next);
                    prev.insert(b, node);
                }
            }
        }
    }
}

/// The route chosen for one `(from, to)` request.
#[derive(Debug, Clone)]
pub struct RoutePlan {
    /// Requested source node.
    pub from: DialectVersion,
    /// Requested target node.
    pub to: DialectVersion,
    /// The hops, in order; empty for `from == to`, one entry for a
    /// direct route.
    pub hops: Vec<EdgeInfo>,
    /// Summed edge cost.
    pub cost_us: u64,
}

impl RoutePlan {
    /// Number of hops (0 = identity, 1 = direct, 2+ = composed).
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// Whether this plan needs no composition.
    pub fn is_direct(&self) -> bool {
        self.hops.len() <= 1
    }

    /// Whether every node on the plan (endpoints and hops) is a
    /// Siro-family version.
    pub fn is_all_siro(&self) -> bool {
        self.from.dialect == Dialect::Siro
            && self.to.dialect == Dialect::Siro
            && self
                .hops
                .iter()
                .all(|h| h.from.dialect == Dialect::Siro && h.to.dialect == Dialect::Siro)
    }

    /// One-line rendering, e.g. `13.0 -> 12.0 -> 3.6 (2 hops, cost 2010us)`.
    pub fn describe(&self) -> String {
        let mut path = self.from.to_string();
        for hop in &self.hops {
            path.push_str(&format!(" -> {}", hop.to));
        }
        format!(
            "{path} ({} hop{}, cost {}us)",
            self.hop_count(),
            if self.hop_count() == 1 { "" } else { "s" },
            self.cost_us
        )
    }
}

/// The translator carried by one leg of a composed chain.
#[derive(Debug, Clone)]
pub enum HopKind {
    /// A synthesized Siro pairwise translator.
    Siro(Arc<SynthesisOutcome>),
    /// A synthesized WIR translator.
    Wir(Arc<WirOutcome>),
    /// A validated bridge, applied Siro → WIR (lowering).
    Lower(Arc<BridgeOutcome>),
    /// A validated bridge, applied WIR → Siro (raising).
    Raise(Arc<BridgeOutcome>),
}

/// One leg of a composed translator.
#[derive(Debug, Clone)]
pub struct ComposedHop {
    /// Hop source node.
    pub from: DialectVersion,
    /// Hop target node.
    pub to: DialectVersion,
    /// The hop's translator.
    pub kind: HopKind,
}

impl ComposedHop {
    /// The Siro synthesis outcome, when this is a Siro hop.
    pub fn siro_outcome(&self) -> Option<&Arc<SynthesisOutcome>> {
        match &self.kind {
            HopKind::Siro(o) => Some(o),
            _ => None,
        }
    }
}

fn hop_dialect_error(hop: &ComposedHop, got: &AnyModule) -> siro_core::TranslateError {
    siro_core::TranslateError::Api(siro_api::ApiError::Unsupported(format!(
        "chain hop {} -> {} fed a {} module",
        hop.from,
        hop.to,
        got.dialect_version()
    )))
}

fn hop_error(hop: &ComposedHop, e: impl std::fmt::Display) -> siro_core::TranslateError {
    siro_core::TranslateError::Api(siro_api::ApiError::Unsupported(format!(
        "chain hop {} -> {}: {e}",
        hop.from, hop.to
    )))
}

/// A chain of pairwise translators serving one `(from, to)` pair by
/// module-level composition: the module is translated hop by hop, each
/// hop running its full translation into its own target version. Hops may
/// cross dialects (through bridge legs), so the unit of composition is an
/// [`AnyModule`].
#[derive(Debug, Clone)]
pub struct ComposedTranslator {
    /// Composed source node.
    pub from: DialectVersion,
    /// Composed target node.
    pub to: DialectVersion,
    /// The legs, in application order.
    pub hops: Vec<ComposedHop>,
    /// The plan this chain was built from.
    pub plan: RoutePlan,
}

impl ComposedTranslator {
    /// Number of legs.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// Translates a whole module through every hop in order. The input
    /// dialect must match `from`; Siro-only chains behave exactly as the
    /// pre-dialect router did.
    ///
    /// # Errors
    ///
    /// Propagates the first hop's failure as a
    /// [`siro_core::TranslateError`].
    pub fn translate_any_owned(&self, module: AnyModule) -> siro_core::TranslateResult<AnyModule> {
        let mut current = module;
        for hop in &self.hops {
            let sp = siro_trace::span!("route.hop", "{}->{}", hop.from, hop.to);
            let next = match (&hop.kind, current) {
                (HopKind::Siro(outcome), AnyModule::Siro(m)) => {
                    let to = hop.to.as_siro().expect("siro hop targets a siro version");
                    AnyModule::Siro(crate::compile::translate_module_owned_tiered(
                        outcome, to, m,
                    )?)
                }
                (HopKind::Wir(outcome), AnyModule::Wir(w)) => AnyModule::Wir(
                    outcome
                        .translator
                        .translate_module(&w)
                        .map_err(|e| hop_error(hop, e))?,
                ),
                (HopKind::Lower(bridge), AnyModule::Siro(m)) => AnyModule::Wir(
                    crate::bridge::lower_module(&m, bridge.wir).map_err(|e| hop_error(hop, e))?,
                ),
                (HopKind::Raise(bridge), AnyModule::Wir(w)) => AnyModule::Siro(
                    crate::bridge::raise_module(&w, bridge.siro).map_err(|e| hop_error(hop, e))?,
                ),
                (_, got) => return Err(hop_dialect_error(hop, &got)),
            };
            drop(sp);
            current = next;
        }
        Ok(current)
    }

    /// Translates a whole Siro module through every hop in order.
    ///
    /// # Errors
    ///
    /// Propagates the first hop's [`siro_core::TranslateError`]; a chain
    /// ending at a WIR node reports a dialect mismatch.
    pub fn translate_module(&self, module: &Module) -> siro_core::TranslateResult<Module> {
        self.translate_module_owned(module.clone())
    }

    /// [`ComposedTranslator::translate_module`] for an *owned* module:
    /// every hop consumes the previous hop's output through the tiered
    /// path ([`crate::translate_module_owned_tiered`]), so a fully
    /// compiled chain rewrites one module in place hop after hop — no
    /// per-hop target module, no intermediate clones.
    ///
    /// # Errors
    ///
    /// Propagates the first hop's [`siro_core::TranslateError`].
    pub fn translate_module_owned(&self, module: Module) -> siro_core::TranslateResult<Module> {
        match self.translate_any_owned(AnyModule::Siro(module))? {
            AnyModule::Siro(m) => Ok(m),
            AnyModule::Wir(_) => Err(siro_core::TranslateError::Api(
                siro_api::ApiError::Unsupported(format!(
                    "chain {} -> {} ends at a WIR node; use translate_any_owned",
                    self.from, self.to
                )),
            )),
        }
    }
}

/// How [`Router::acquire`] answered a request.
#[derive(Debug, Clone)]
pub enum RouteOutcome {
    /// A single pairwise translator (direct Siro route).
    Direct(Arc<SynthesisOutcome>),
    /// A composed chain (including every WIR or cross-dialect route).
    Composed(Arc<ComposedTranslator>),
}

/// A resolved `(from, to)` acquisition.
#[derive(Debug, Clone)]
pub struct Acquired {
    /// The translator to run.
    pub outcome: RouteOutcome,
    /// The plan that produced it (the *attempted* plan; when the fallback
    /// ladder demoted a composed plan to direct synthesis,
    /// [`Acquired::fell_back`] is set and the outcome is direct).
    pub plan: RoutePlan,
    /// `true` when any synthesis ran during this call.
    pub fresh: bool,
    /// `true` when a composed hop failed and direct synthesis answered.
    pub fell_back: bool,
}

/// A hop resolver: returns the translator outcome for one Siro pair plus
/// whether this call synthesized it. The serving layer passes a
/// coalescer-backed resolver; the default resolver goes straight to
/// [`TranslatorCache`]. WIR and bridge hops resolve through their own
/// process caches and are not routed through this hook.
pub type HopResolver<'a> = &'a dyn Fn(
    IrVersion,
    IrVersion,
    &[OracleTest],
) -> Result<(Arc<SynthesisOutcome>, bool), SynthError>;

// ---- process-wide router counters (read by serve STATS/METRICS) ---------

static PLANS: AtomicU64 = AtomicU64::new(0);
static DIRECT: AtomicU64 = AtomicU64::new(0);
static COMPOSED: AtomicU64 = AtomicU64::new(0);
static COMPOSED_CACHED: AtomicU64 = AtomicU64::new(0);
static FALLBACKS: AtomicU64 = AtomicU64::new(0);
static MAX_HOPS: AtomicU64 = AtomicU64::new(0);

/// Process-lifetime router counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Route plans computed.
    pub plans: u64,
    /// Acquisitions answered by a direct (≤1 hop) route.
    pub direct: u64,
    /// Acquisitions answered by a composed chain (freshly built or
    /// cached).
    pub composed: u64,
    /// Composed acquisitions answered from the composed cache.
    pub composed_cached: u64,
    /// Composed plans demoted to direct synthesis by a failing hop.
    pub fallbacks: u64,
    /// Longest hop count acquired so far.
    pub max_hops: u64,
}

/// Snapshot of the router counters.
pub fn router_stats() -> RouterStats {
    RouterStats {
        plans: PLANS.load(Ordering::Relaxed),
        direct: DIRECT.load(Ordering::Relaxed),
        composed: COMPOSED.load(Ordering::Relaxed),
        composed_cached: COMPOSED_CACHED.load(Ordering::Relaxed),
        fallbacks: FALLBACKS.load(Ordering::Relaxed),
        max_hops: MAX_HOPS.load(Ordering::Relaxed),
    }
}

/// Zeroes the router counters (benches and tests).
pub fn reset_router_stats() {
    for c in [
        &PLANS,
        &DIRECT,
        &COMPOSED,
        &COMPOSED_CACHED,
        &FALLBACKS,
        &MAX_HOPS,
    ] {
        c.store(0, Ordering::Relaxed);
    }
}

fn note_max_hops(hops: u64) {
    MAX_HOPS.fetch_max(hops, Ordering::Relaxed);
}

/// The version-graph router. One instance per engine / CLI invocation;
/// the counters it bumps are process-global so `STATS` can report them.
pub struct Router {
    nodes: Vec<DialectVersion>,
    corpora: Mutex<PairMap<(Arc<Vec<OracleTest>>, u64)>>,
    composed: Mutex<HashMap<(DialectVersion, DialectVersion), Arc<ComposedTranslator>>>,
}

/// Memoization table keyed by an ordered Siro version pair.
type PairMap<T> = HashMap<(IrVersion, IrVersion), T>;

impl Default for Router {
    fn default() -> Self {
        Self::new()
    }
}

impl Router {
    /// A router over the full Siro [`IrVersion::CATALOG`] (no WIR nodes;
    /// the historical single-dialect behaviour).
    pub fn new() -> Self {
        Self::over(IrVersion::CATALOG.to_vec())
    }

    /// A router over both catalogs: every Siro version, every WIR version
    /// ([`WirVersion::CATALOG`]), and the anchor bridges between them.
    pub fn with_wir() -> Self {
        let mut nodes: Vec<DialectVersion> = IrVersion::CATALOG.iter().map(|&v| v.into()).collect();
        nodes.extend(WirVersion::CATALOG.iter().map(|&v| DialectVersion::from(v)));
        Self::over_dialects(nodes)
    }

    /// A router over a custom Siro node set (tests, partial deployments).
    pub fn over(nodes: Vec<IrVersion>) -> Self {
        Self::over_dialects(nodes.into_iter().map(Into::into).collect())
    }

    /// A router over an explicit dialect-qualified node set.
    pub fn over_dialects(nodes: Vec<DialectVersion>) -> Self {
        Router {
            nodes,
            corpora: Mutex::new(HashMap::new()),
            composed: Mutex::new(HashMap::new()),
        }
    }

    /// The memoized oracle corpus for a Siro pair (empty corpus = no
    /// edge).
    pub fn corpus(&self, from: IrVersion, to: IrVersion) -> Arc<Vec<OracleTest>> {
        self.corpus_with_fingerprint(from, to).0
    }

    /// The memoized corpus *and* its [`crate::cache::corpus_fingerprint`].
    /// The fingerprint is hashed once per pair per router, not per plan —
    /// [`Router::graph`] probes every catalog edge on every call, and
    /// re-hashing ~n² corpora per request was the serving hot path's
    /// dominant cost.
    fn corpus_with_fingerprint(
        &self,
        from: IrVersion,
        to: IrVersion,
    ) -> (Arc<Vec<OracleTest>>, u64) {
        let mut map = self.corpora.lock().expect("router corpora poisoned");
        let (corpus, fp) = map.entry((from, to)).or_insert_with(|| {
            let corpus = Arc::new(oracle_corpus(from, to));
            let fp = crate::cache::corpus_fingerprint(&corpus);
            (corpus, fp)
        });
        (Arc::clone(corpus), *fp)
    }

    fn observed_latencies() -> HashMap<(DialectVersion, DialectVersion), u64> {
        let mut sums: HashMap<(DialectVersion, DialectVersion), (u64, u64)> = HashMap::new();
        for span in siro_trace::snapshot().spans {
            if span.name != "route.hop" && span.name != "serve.translate" {
                continue;
            }
            // Details look like `13.0->3.6` or `wir1.0->wir2.0`
            // (route.hop), or `13.0->3.6 synthesized` (serve.translate).
            let pair_str = span.detail.split(' ').next().unwrap_or("");
            let Some((a, b)) = pair_str.split_once("->") else {
                continue;
            };
            let (Ok(a), Ok(b)) = (a.parse::<DialectVersion>(), b.parse::<DialectVersion>()) else {
                continue;
            };
            let e = sums.entry((a, b)).or_insert((0, 0));
            e.0 += span.dur_ns / 1_000;
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(pair, (total_us, n))| (pair, total_us / n.max(1)))
            .collect()
    }

    /// Classifies one potential edge, or `None` when the pair has no edge
    /// (empty Siro corpus; non-anchor cross-dialect pair).
    fn classify_edge(
        &self,
        a: DialectVersion,
        b: DialectVersion,
        store: Option<&TranslatorStore>,
    ) -> Option<EdgeClass> {
        match (a.dialect, b.dialect) {
            (Dialect::Siro, Dialect::Siro) => {
                let (sa, sb) = (a.as_siro()?, b.as_siro()?);
                let (corpus, fp) = self.corpus_with_fingerprint(sa, sb);
                if corpus.is_empty() {
                    return None;
                }
                let config = SynthesisConfig::new(sa, sb);
                Some(if TranslatorCache::is_warm_fingerprint(&config, fp) {
                    EdgeClass::Hot
                } else if store.is_some_and(|s| s.entry_path(&StoreKey::new(&config, fp)).exists())
                {
                    EdgeClass::Warm
                } else {
                    EdgeClass::Cold
                })
            }
            (Dialect::Wir, Dialect::Wir) => {
                let (wa, wb) = (as_wir(a)?, as_wir(b)?);
                Some(if wir_pair_is_hot(wa, wb) {
                    EdgeClass::Hot
                } else if store.is_some_and(|s| s.named_path(&wir_store_name(wa, wb)).exists()) {
                    EdgeClass::Warm
                } else {
                    EdgeClass::Cold
                })
            }
            (Dialect::Siro, Dialect::Wir) => anchor_class(a.as_siro()?, as_wir(b)?, store),
            (Dialect::Wir, Dialect::Siro) => anchor_class(b.as_siro()?, as_wir(a)?, store),
        }
    }

    /// Snapshots the version graph: classifies every edge against the
    /// in-memory caches and the attached store, and folds in observed
    /// per-hop latencies from the trace collector.
    pub fn graph(&self) -> VersionGraph {
        let store = active_store();
        let observed = Self::observed_latencies();
        let mut edges = HashMap::new();
        for &a in &self.nodes {
            for &b in &self.nodes {
                if a == b {
                    continue;
                }
                let Some(class) = self.classify_edge(a, b, store.as_deref()) else {
                    continue;
                };
                let class_cost = match class {
                    EdgeClass::Hot => COST_HOT_US,
                    EdgeClass::Warm => COST_WARM_US,
                    EdgeClass::Cold => COST_COLD_US,
                };
                let observed_us = observed.get(&(a, b)).copied();
                let cost_us = class_cost + observed_us.unwrap_or(0).min(OBSERVED_CAP_US);
                edges.insert(
                    (a, b),
                    EdgeInfo {
                        from: a,
                        to: b,
                        class,
                        observed_us,
                        cost_us,
                    },
                );
            }
        }
        VersionGraph {
            nodes: self.nodes.clone(),
            edges,
        }
    }

    /// Plans the cheapest route for `(from, to)` over a fresh graph
    /// snapshot. `None` when either endpoint is off-catalog or no path
    /// exists (including cross-dialect requests with no anchor bridge).
    pub fn plan(
        &self,
        from: impl Into<DialectVersion>,
        to: impl Into<DialectVersion>,
    ) -> Option<RoutePlan> {
        let (from, to) = (from.into(), to.into());
        PLANS.fetch_add(1, Ordering::Relaxed);
        siro_trace::counter("route.plans", 1);
        let sp = siro_trace::span!("route.plan", "{from}->{to}");
        let plan = self.graph().cheapest_path(from, to);
        drop(sp);
        plan
    }

    /// Plans every ordered pair over one graph snapshot, row-major in
    /// node order (identity pairs included, as 0-hop plans). Pairs with
    /// no path are reported as `None` at their matrix position.
    pub fn matrix(&self) -> Vec<((DialectVersion, DialectVersion), Option<RoutePlan>)> {
        let graph = self.graph();
        let mut out = Vec::with_capacity(self.nodes.len() * self.nodes.len());
        for &a in &self.nodes {
            for &b in &self.nodes {
                out.push(((a, b), graph.cheapest_path(a, b)));
            }
        }
        out
    }

    /// Acquires a translator for `(from, to)` along the cheapest route,
    /// with the default [`TranslatorCache`]-backed hop resolver.
    ///
    /// # Errors
    ///
    /// [`SynthError`] when no route exists (for Siro pairs, reported as
    /// the direct pair's synthesis error; for cross-dialect pairs, as an
    /// explicit unreachable report) or when the fallback ladder failed.
    pub fn acquire(
        &self,
        from: impl Into<DialectVersion>,
        to: impl Into<DialectVersion>,
    ) -> Result<Acquired, SynthError> {
        self.acquire_with(from.into(), to.into(), &|a, b, tests| {
            TranslatorCache::lookup_or_synthesize(SynthesisConfig::new(a, b), tests)
                .map(|CacheLookup { outcome, fresh, .. }| (outcome, fresh))
        })
    }

    /// [`Router::acquire`] with a caller-supplied Siro hop resolver (the
    /// serving layer passes its coalescer so per-pair serving counters
    /// keep working).
    ///
    /// # Errors
    ///
    /// See [`Router::acquire`].
    pub fn acquire_with(
        &self,
        from: impl Into<DialectVersion>,
        to: impl Into<DialectVersion>,
        resolve: HopResolver<'_>,
    ) -> Result<Acquired, SynthError> {
        let (from, to) = (from.into(), to.into());
        let all_siro_endpoints = from.dialect == Dialect::Siro && to.dialect == Dialect::Siro;
        let plan = match self.plan(from, to) {
            Some(plan) => plan,
            // Off-graph or unreachable. For Siro pairs, attempt the direct
            // pair anyway and let its synthesis error speak — the
            // historical behaviour. Anything cross-dialect has no direct
            // synthesis to attempt: report unreachable instead of
            // fabricating a chain.
            None if all_siro_endpoints => RoutePlan {
                from,
                to,
                hops: Vec::new(),
                cost_us: COST_COLD_US,
            },
            None => {
                return Err(SynthError::Api(format!(
                    "no route {from} -> {to}: the endpoints span dialects with no \
                     validated bridge on any path"
                )))
            }
        };
        note_max_hops(plan.hop_count() as u64);

        if plan.is_direct() && plan.is_all_siro() && all_siro_endpoints {
            let (sf, st) = (
                from.as_siro().expect("checked siro"),
                to.as_siro().expect("checked siro"),
            );
            let (outcome, fresh) = resolve(sf, st, &self.corpus(sf, st))?;
            DIRECT.fetch_add(1, Ordering::Relaxed);
            siro_trace::counter("route.direct", 1);
            return Ok(Acquired {
                outcome: RouteOutcome::Direct(outcome),
                plan,
                fresh,
                fell_back: false,
            });
        }

        // Composed route: serve from the composed cache when possible.
        if let Some(chain) = self
            .composed
            .lock()
            .expect("router composed cache poisoned")
            .get(&(from, to))
        {
            COMPOSED.fetch_add(1, Ordering::Relaxed);
            COMPOSED_CACHED.fetch_add(1, Ordering::Relaxed);
            siro_trace::counter("route.composed_cached", 1);
            return Ok(Acquired {
                outcome: RouteOutcome::Composed(Arc::clone(chain)),
                plan,
                fresh: false,
                fell_back: false,
            });
        }

        match self.compose(&plan, resolve) {
            Ok((chain, fresh)) => {
                COMPOSED.fetch_add(1, Ordering::Relaxed);
                siro_trace::counter("route.composed", 1);
                Ok(Acquired {
                    outcome: RouteOutcome::Composed(chain),
                    plan,
                    fresh,
                    fell_back: false,
                })
            }
            Err(e) if all_siro_endpoints => {
                // Fallback ladder step 2: a hop died; synthesize the Siro
                // pair directly.
                let _ = e;
                FALLBACKS.fetch_add(1, Ordering::Relaxed);
                siro_trace::counter("route.fallbacks", 1);
                let (sf, st) = (
                    from.as_siro().expect("checked siro"),
                    to.as_siro().expect("checked siro"),
                );
                let (outcome, fresh) = resolve(sf, st, &self.corpus(sf, st))?;
                DIRECT.fetch_add(1, Ordering::Relaxed);
                Ok(Acquired {
                    outcome: RouteOutcome::Direct(outcome),
                    plan,
                    fresh,
                    fell_back: true,
                })
            }
            // Cross-dialect hop failures have no direct fallback.
            Err(e) => Err(e),
        }
    }

    /// Resolves one plan edge into a composed hop.
    fn resolve_hop(
        &self,
        edge: &EdgeInfo,
        resolve: HopResolver<'_>,
    ) -> Result<(ComposedHop, bool), SynthError> {
        let (kind, fresh) = match (edge.from.dialect, edge.to.dialect) {
            (Dialect::Siro, Dialect::Siro) => {
                let (a, b) = (
                    edge.from.as_siro().expect("siro edge"),
                    edge.to.as_siro().expect("siro edge"),
                );
                let (outcome, fresh) = resolve(a, b, &self.corpus(a, b))?;
                (HopKind::Siro(outcome), fresh)
            }
            (Dialect::Wir, Dialect::Wir) => {
                let (a, b) = (
                    as_wir(edge.from).expect("wir edge"),
                    as_wir(edge.to).expect("wir edge"),
                );
                let (outcome, fresh) =
                    wir_translator_cached(a, b).map_err(|e| SynthError::Api(e.to_string()))?;
                (HopKind::Wir(outcome), fresh)
            }
            (Dialect::Siro, Dialect::Wir) => {
                let (s, w) = (
                    edge.from.as_siro().expect("siro edge"),
                    as_wir(edge.to).expect("wir edge"),
                );
                let (outcome, fresh) =
                    bridge_cached(s, w).map_err(|e| SynthError::Api(e.to_string()))?;
                (HopKind::Lower(outcome), fresh)
            }
            (Dialect::Wir, Dialect::Siro) => {
                let (w, s) = (
                    as_wir(edge.from).expect("wir edge"),
                    edge.to.as_siro().expect("siro edge"),
                );
                let (outcome, fresh) =
                    bridge_cached(s, w).map_err(|e| SynthError::Api(e.to_string()))?;
                (HopKind::Raise(outcome), fresh)
            }
        };
        let hop = ComposedHop {
            from: edge.from,
            to: edge.to,
            kind,
        };
        Ok((hop, fresh))
    }

    /// Builds (and memoizes) the composed chain for a plan.
    fn compose(
        &self,
        plan: &RoutePlan,
        resolve: HopResolver<'_>,
    ) -> Result<(Arc<ComposedTranslator>, bool), SynthError> {
        let mut hops = Vec::with_capacity(plan.hops.len());
        let mut fresh = false;
        for edge in &plan.hops {
            let (hop, hop_fresh) = self.resolve_hop(edge, resolve)?;
            fresh |= hop_fresh;
            hops.push(hop);
        }
        let chain = Arc::new(ComposedTranslator {
            from: plan.from,
            to: plan.to,
            hops,
            plan: plan.clone(),
        });
        self.composed
            .lock()
            .expect("router composed cache poisoned")
            .insert((plan.from, plan.to), Arc::clone(&chain));
        Ok((chain, fresh))
    }

    /// Composes a translator along an explicit Siro node path, the caller
    /// choosing the route instead of the cost model — the byte-identity
    /// matrix checks and difftest's path-selection fuzzing exercise
    /// router alternates this way. Hops resolve through the process-wide
    /// [`TranslatorCache`]; the chain is returned without entering the
    /// router's composed-chain memo, so cost-driven serving is
    /// unaffected. Hop edges are rendered hot: once resolved, the chain
    /// holds every hop in memory.
    ///
    /// # Errors
    ///
    /// Propagates the first failing hop's [`SynthError`].
    ///
    /// # Panics
    ///
    /// When `path` has fewer than two nodes.
    pub fn compose_path(&self, path: &[IrVersion]) -> Result<ComposedTranslator, SynthError> {
        assert!(path.len() >= 2, "a route needs at least two nodes");
        let mut hops = Vec::with_capacity(path.len() - 1);
        let mut edges = Vec::with_capacity(path.len() - 1);
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            let corpus = self.corpus(a, b);
            let lookup =
                TranslatorCache::lookup_or_synthesize(SynthesisConfig::new(a, b), &corpus)?;
            hops.push(ComposedHop {
                from: a.into(),
                to: b.into(),
                kind: HopKind::Siro(lookup.outcome),
            });
            edges.push(EdgeInfo {
                from: a.into(),
                to: b.into(),
                class: EdgeClass::Hot,
                observed_us: None,
                cost_us: COST_HOT_US,
            });
        }
        let plan = RoutePlan {
            from: path[0].into(),
            to: (*path.last().expect("non-empty path")).into(),
            cost_us: edges.iter().map(|e| e.cost_us).sum(),
            hops: edges,
        };
        Ok(ComposedTranslator {
            from: plan.from,
            to: plan.to,
            hops,
            plan,
        })
    }

    /// Number of chains currently memoized in the composed cache.
    pub fn composed_cached_count(&self) -> usize {
        self.composed
            .lock()
            .expect("router composed cache poisoned")
            .len()
    }
}

/// Edge class for a cross-dialect anchor, or `None` when `(s, w)` is not
/// an anchor pair — the non-edge that makes unbridged cross-dialect
/// requests unreachable.
fn anchor_class(s: IrVersion, w: WirVersion, store: Option<&TranslatorStore>) -> Option<EdgeClass> {
    if !is_anchor_pair(s, w) {
        return None;
    }
    Some(if bridge_is_hot(s, w) {
        EdgeClass::Hot
    } else if store.is_some_and(|st| st.named_path(&bridge_store_name(s, w)).exists()) {
        EdgeClass::Warm
    } else {
        EdgeClass::Cold
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use siro_core::Skeleton;

    // NOTE: router counters are process-global and tests run concurrently,
    // so assertions use per-call results (plans, Acquired flags) and
    // counter *deltas* only where a unique pair guarantees isolation.

    fn small_router() -> Router {
        Router::over(vec![IrVersion::V13_0, IrVersion::V12_0, IrVersion::V3_6])
    }

    #[test]
    fn cold_graph_plans_direct_routes() {
        let r = small_router();
        let plan = r.plan(IrVersion::V13_0, IrVersion::V3_6).expect("plan");
        assert_eq!(plan.hop_count(), 1, "{}", plan.describe());
        assert!(plan.is_direct());
    }

    #[test]
    fn identity_plans_zero_hops() {
        let r = small_router();
        let plan = r.plan(IrVersion::V13_0, IrVersion::V13_0).expect("plan");
        assert_eq!(plan.hop_count(), 0);
        assert_eq!(plan.cost_us, 0);
    }

    #[test]
    fn off_catalog_endpoint_has_no_plan() {
        let r = small_router();
        assert!(r.plan(IrVersion::new(2, 0), IrVersion::V3_6).is_none());
    }

    #[test]
    fn warm_hops_beat_a_cold_direct_edge() {
        // Hand-build a graph where 13.0->3.6 direct is cold but the two
        // hops through 12.0 are hot: the cheapest path must compose.
        let mk = |from: IrVersion, to: IrVersion, class, cost_us| EdgeInfo {
            from: from.into(),
            to: to.into(),
            class,
            observed_us: None,
            cost_us,
        };
        let (a, m, b) = (IrVersion::V13_0, IrVersion::V12_0, IrVersion::V3_6);
        let g = VersionGraph::from_edges(
            vec![a, m, b],
            vec![
                mk(a, b, EdgeClass::Cold, COST_COLD_US),
                mk(a, m, EdgeClass::Hot, COST_HOT_US),
                mk(m, b, EdgeClass::Hot, COST_HOT_US),
            ],
        );
        let plan = g.cheapest_path(a, b).expect("path");
        assert_eq!(plan.hop_count(), 2, "{}", plan.describe());
        assert_eq!(plan.hops[0].to, m.into());
        assert_eq!(plan.cost_us, 2 * COST_HOT_US);
    }

    #[test]
    fn ties_prefer_fewer_hops() {
        let mk = |from: IrVersion, to: IrVersion, cost_us| EdgeInfo {
            from: from.into(),
            to: to.into(),
            class: EdgeClass::Hot,
            observed_us: None,
            cost_us,
        };
        let (a, m, b) = (IrVersion::V13_0, IrVersion::V12_0, IrVersion::V3_6);
        let g = VersionGraph::from_edges(
            vec![a, m, b],
            vec![mk(a, b, 20), mk(a, m, 10), mk(m, b, 10)],
        );
        let plan = g.cheapest_path(a, b).expect("path");
        assert_eq!(plan.hop_count(), 1, "equal cost must stay direct");
    }

    #[test]
    fn fallback_demotes_a_failing_composed_plan_to_direct() {
        // Warm the two hop edges so the plan composes, then hand acquire a
        // resolver that refuses the second hop: the fallback ladder must
        // answer with direct synthesis and set `fell_back`.
        let (a, m, b) = (IrVersion::V14_0, IrVersion::V12_0, IrVersion::V3_0);
        let r = Router::over(vec![a, m, b]);
        for (s, t) in [(a, m), (m, b)] {
            TranslatorCache::get_or_synthesize(SynthesisConfig::new(s, t), &r.corpus(s, t))
                .expect("hop synthesis");
        }
        let plan = r.plan(a, b).expect("plan");
        assert_eq!(plan.hop_count(), 2, "{}", plan.describe());
        let acquired = r
            .acquire_with(a, b, &|s, t, tests| {
                if (s, t) == (m, b) {
                    return Err(SynthError::Api("injected hop failure".into()));
                }
                TranslatorCache::lookup_or_synthesize(SynthesisConfig::new(s, t), tests)
                    .map(|l| (l.outcome, l.fresh))
            })
            .expect("fallback must answer");
        assert!(acquired.fell_back);
        assert!(matches!(acquired.outcome, RouteOutcome::Direct(_)));
    }

    #[test]
    fn composed_chain_is_memoized_and_byte_identical_to_direct() {
        let (a, m, b) = (IrVersion::V15_0, IrVersion::V13_0, IrVersion::V4_0);
        let r = Router::over(vec![a, m, b]);
        for (s, t) in [(a, m), (m, b)] {
            TranslatorCache::get_or_synthesize(SynthesisConfig::new(s, t), &r.corpus(s, t))
                .expect("hop synthesis");
        }
        let first = r.acquire(a, b).expect("acquire");
        let RouteOutcome::Composed(chain) = &first.outcome else {
            panic!("warm hops must compose, got {:?}", first.plan.describe());
        };
        assert_eq!(chain.hop_count(), 2);
        assert_eq!(r.composed_cached_count(), 1);
        let second = r.acquire(a, b).expect("acquire again");
        let RouteOutcome::Composed(chain2) = &second.outcome else {
            panic!("second acquire must stay composed");
        };
        assert!(Arc::ptr_eq(chain, chain2), "chain must be memoized");
        assert!(!second.fresh);

        // Composed output equals the direct translator's output.
        let direct =
            TranslatorCache::get_or_synthesize(SynthesisConfig::new(a, b), &r.corpus(a, b))
                .expect("direct synthesis");
        for case in siro_testcases::corpus_for_pair(a, b).iter().take(8) {
            let module = case.build(a);
            let via_chain = chain.translate_module(&module).expect("chain translate");
            let via_direct = Skeleton::new(b)
                .translate_module(&module, &direct.translator)
                .expect("direct translate");
            assert_eq!(
                siro_ir::write::write_module(&via_chain),
                siro_ir::write::write_module(&via_direct),
                "case {}",
                case.name
            );
        }
    }

    // ---- dialect-aware routing ------------------------------------------

    #[test]
    fn nodes_are_keyed_by_dialect_and_version() {
        let g = Router::with_wir().graph();
        let wir1: DialectVersion = WirVersion::W1_0.into();
        let wir2: DialectVersion = WirVersion::W2_0.into();
        // WIR pairs always have an edge; anchors bridge the dialects; a
        // non-anchor cross pair has no edge at all.
        assert!(g.edge(wir1, wir2).is_some(), "wir catalog pair");
        assert!(
            g.edge(IrVersion::V13_0, wir2).is_some(),
            "anchor bridge edge"
        );
        assert!(
            g.edge(IrVersion::V13_0, wir1).is_none(),
            "non-anchor cross pair must not get an edge"
        );
    }

    #[test]
    fn cross_dialect_plans_route_through_an_anchor() {
        let r = Router::with_wir();
        let plan = r
            .plan(IrVersion::V13_0, WirVersion::W1_0)
            .expect("route exists via the 13.0<->wir2.0 anchor");
        assert!(plan.hop_count() >= 2, "{}", plan.describe());
        assert!(
            plan.hops.iter().any(|h| h.from.dialect != h.to.dialect),
            "the plan must contain a bridge hop: {}",
            plan.describe()
        );
    }

    #[test]
    fn missing_bridge_reports_unreachable_not_a_bogus_chain() {
        // A node set with both dialects but no anchor pair present: the
        // cross-dialect request must be *unreachable*, and acquisition
        // must surface that as an error instead of fabricating a chain.
        let r = Router::over_dialects(vec![
            IrVersion::V3_6.into(),
            IrVersion::V4_0.into(),
            WirVersion::W1_0.into(),
        ]);
        assert!(r.plan(IrVersion::V3_6, WirVersion::W1_0).is_none());
        let err = r
            .acquire(IrVersion::V3_6, WirVersion::W1_0)
            .expect_err("must not fabricate a chain");
        assert!(
            err.to_string().contains("no route"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn wir_pairs_acquire_composed_chains_that_translate() {
        let r = Router::with_wir();
        let acquired = r
            .acquire(WirVersion::W1_0, WirVersion::W2_0)
            .expect("wir pair acquires");
        let RouteOutcome::Composed(chain) = &acquired.outcome else {
            panic!("wir routes are served as composed chains");
        };
        assert_eq!(chain.hop_count(), 1);
        let m = siro_wir::generate_straightline(7, WirVersion::W1_0);
        let out = chain
            .translate_any_owned(AnyModule::Wir(m.clone()))
            .expect("translates");
        let AnyModule::Wir(w) = out else {
            panic!("wir chain must end at a wir module");
        };
        assert_eq!(w.version, WirVersion::W2_0);
        // Behaviour preserved across the synthesized hop.
        assert_eq!(
            crate::bridge::wir_behaviour(&m),
            crate::bridge::wir_behaviour(&w)
        );
    }

    #[test]
    fn siro_chains_refuse_a_wir_module() {
        let r = Router::with_wir();
        let acquired = r
            .acquire(WirVersion::W1_0, WirVersion::W2_0)
            .expect("wir pair acquires");
        let RouteOutcome::Composed(chain) = &acquired.outcome else {
            panic!("composed expected");
        };
        // Feeding the wrong dialect through the typed entry point fails
        // loudly instead of mis-translating.
        let m = Module::new("m", IrVersion::V13_0);
        assert!(chain.translate_module(&m).is_err());
    }
}
