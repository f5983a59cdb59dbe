//! The router's plan memo against a freshly built graph.
//!
//! `Router::plan` memoizes one plan per `(from, to)` under the process-wide
//! edge-class epoch. A memoized plan is only correct if *every* mutation
//! that can change an edge's class bumps that epoch. This test drives a
//! seeded script through each such transition — Siro synthesis, store
//! adoption (lookup and warm start), WIR and bridge cache inserts, every
//! cache reset, `save`, `gc`, attaching and detaching the
//! store — and after each step requires every one of the 240 plans of one
//! long-lived router over both catalogs to equal the cheapest path over a
//! graph built from scratch, and each of its 156 Siro plans to equal the
//! plan of a router over the Siro catalog alone.
//!
//! The caches, the store attachment, the trace collector and the router
//! counters are process-global, so the tests in this file serialize on one
//! lock.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use siro_ir::{DialectVersion, IrVersion};
use siro_rng::seq::SliceRandom;
use siro_rng::{Rng, SeedableRng, StdRng};
use siro_synth::{
    bridge_cached, corpus_fingerprint, oracle_corpus, reset_bridge_cache, reset_wir_cache,
    router_stats, set_active_store, wir_translator_cached, StoreConfig, StoreKey, SynthesisConfig,
    TranslatorCache, TranslatorStore, BRIDGE_ANCHORS,
};
use siro_synth::{RoutePlan, Router};
use siro_wir::WirVersion;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "siro-plan-memo-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("creating temp store dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every ordered pair of distinct nodes of both catalogs.
fn all_pairs() -> Vec<(DialectVersion, DialectVersion)> {
    let nodes = Router::new().graph().nodes().to_vec();
    let mut pairs = Vec::new();
    for &a in &nodes {
        for &b in &nodes {
            if a != b {
                pairs.push((a, b));
            }
        }
    }
    pairs
}

/// Requires every memoized plan of `memo` to equal the cheapest path
/// over a graph snapshot built by a brand-new router.
fn assert_memo_matches_fresh(
    memo: &Router,
    pairs: &[(DialectVersion, DialectVersion)],
    step: &str,
) {
    let fresh = Router::new().graph();
    for &(a, b) in pairs {
        assert_eq!(
            memo.plan(a, b),
            fresh.cheapest_path(a, b),
            "after `{step}`: memoized plan {a} -> {b} is stale"
        );
    }
}

/// Requires every Siro plan of `memo` to equal the plan of a router over
/// the Siro catalog alone, and to stay on Siro nodes.
fn assert_siro_plans_match_siro_only(memo: &Router, siro_only: &Router, step: &str) {
    for &a in &IrVersion::CATALOG {
        for &b in &IrVersion::CATALOG {
            if a == b {
                continue;
            }
            let plan = memo.plan(a, b);
            assert_eq!(
                plan,
                siro_only.plan(a, b),
                "after `{step}`: Siro plan {a} -> {b} differs from the Siro-only router's"
            );
            assert!(
                plan.as_ref().is_some_and(RoutePlan::is_all_siro),
                "after `{step}`: Siro plan {a} -> {b} leaves the Siro catalog: {plan:?}"
            );
        }
    }
}

fn reset_all() {
    set_active_store(None);
    TranslatorCache::reset();
    reset_wir_cache();
    reset_bridge_cache();
}

/// Every ordered pair of distinct versions in `catalog`, shuffled by `rng`.
fn shuffled_pairs<V: Copy + PartialEq>(catalog: &[V], rng: &mut StdRng) -> Vec<(V, V)> {
    let mut pairs: Vec<(V, V)> = catalog
        .iter()
        .flat_map(|&a| catalog.iter().map(move |&b| (a, b)))
        .filter(|(a, b)| a != b)
        .collect();
    pairs.shuffle(rng);
    pairs
}

/// Walks every edge-class transition once, checking the memo after each.
/// Each step performs exactly one class-changing mutation: a step with
/// two would hide a missing bump behind the other one's.
fn run_script(seed: u64, pairs: &[(DialectVersion, DialectVersion)]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let siro = shuffled_pairs(&IrVersion::CATALOG, &mut rng);
    let wir = shuffled_pairs(&WirVersion::CATALOG, &mut rng);
    let ((a, b), (c, d)) = (siro[0], siro[1]);
    let ((w1, w2), (w3, w4)) = (wir[0], wir[1]);
    let anchor = rng.gen_range(0..BRIDGE_ANCHORS.len());
    let (anchor_s, anchor_w) = BRIDGE_ANCHORS[anchor];
    let (other_s, other_w) = BRIDGE_ANCHORS[1 - anchor];

    let dir = TempDir::new(&seed.to_string());
    let store = Arc::new(TranslatorStore::open(StoreConfig::at(&dir.0)).expect("open store"));
    reset_all();

    let memo = Router::new();
    let siro_only = Router::over(IrVersion::CATALOG.to_vec());
    let check = |step: &str| {
        let step = format!("seed {seed}: {step}");
        assert_memo_matches_fresh(&memo, pairs, &step);
        assert_siro_plans_match_siro_only(&memo, &siro_only, &step);
    };
    check("all caches empty");

    // Populate the store and the in-memory caches; the Siro synthesis also
    // writes an entry, so its mutations are checked one by one further
    // down.
    set_active_store(Some(Arc::clone(&store)));
    check("attach an empty store");
    memo.acquire(a, b).expect("synthesize the first Siro pair");
    check("Siro synthesis, written back to the store");
    wir_translator_cached(w1, w2).expect("synthesize a WIR pair");
    check("WIR synthesis");
    bridge_cached(anchor_s, anchor_w).expect("validate a bridge");
    check("bridge validation");

    TranslatorCache::reset();
    check("translator cache reset (the Siro pair turns warm)");
    let (ab_config, ab_corpus) = (SynthesisConfig::new(a, b), oracle_corpus(a, b));
    let adopted = TranslatorCache::lookup_or_synthesize(ab_config.clone(), &ab_corpus)
        .expect("adopt from the store");
    assert!(
        adopted.from_store,
        "seed {seed}: {a}->{b} must load from the store"
    );
    check("store adoption by lookup");
    TranslatorCache::reset();
    check("translator cache reset again");
    assert!(TranslatorCache::warm_from_store(&ab_config, &ab_corpus));
    check("store adoption by warm start");

    reset_wir_cache();
    check("WIR cache reset (the WIR pair turns cold)");
    reset_bridge_cache();
    check("bridge cache reset (the anchor turns cold)");

    set_active_store(None);
    check("detach the store");
    let cd_corpus = oracle_corpus(c, d);
    let cd_config = SynthesisConfig::new(c, d);
    let cd = TranslatorCache::lookup_or_synthesize(cd_config.clone(), &cd_corpus)
        .expect("synthesize the second Siro pair");
    check("translator cache slot populated by synthesis");
    wir_translator_cached(w3, w4).expect("synthesize a second WIR pair");
    check("WIR cache insert");
    bridge_cached(other_s, other_w).expect("validate the other bridge");
    check("bridge cache insert");
    TranslatorCache::reset();
    check("translator cache reset with no store attached");

    set_active_store(Some(Arc::clone(&store)));
    check("reattach the store");
    let cd_key = StoreKey::new(&cd_config, corpus_fingerprint(&cd_corpus));
    store.save(&cd_key, &cd.outcome).expect("save");
    check("store save");
    let report = store.gc(0).expect("gc");
    assert!(
        report.removed >= 2,
        "seed {seed}: gc must delete both Siro entries"
    );
    check("store gc");

    reset_all();
    check("everything reset");
}

#[test]
fn memoized_plans_equal_fresh_plans_across_every_edge_transition() {
    let _serial = serial();
    let pairs = all_pairs();
    assert_eq!(pairs.len(), 240, "13 Siro + 3 WIR nodes");
    for seed in [1, 2] {
        run_script(seed, &pairs);
    }
}

#[test]
fn hot_repeat_plans_build_at_most_one_graph() {
    let _serial = serial();
    let router = Router::new();
    let (from, to) = (IrVersion::V13_0, IrVersion::V3_6);
    let before = router_stats().graph_builds;
    for _ in 0..1_000 {
        router.plan(from, to).expect("plan");
    }
    let builds = router_stats().graph_builds - before;
    assert!(builds <= 1, "1000 repeat plans built {builds} graphs");
}

/// Records `n` long spans per pair under the names the removed
/// trace-fed cost term used to read, so a planner that consulted them
/// would price these edges differently.
fn record_hop_spans(pairs: &[(DialectVersion, DialectVersion)], total: usize) {
    let started = Instant::now() - Duration::from_millis(20);
    for i in 0..total {
        let (a, b) = pairs[i % pairs.len()];
        let name = if i % 2 == 0 {
            "route.hop"
        } else {
            "serve.translate"
        };
        siro_trace::record_since(name, started, || format!("{a}->{b}"));
    }
}

#[test]
fn tracing_changes_no_plan_and_adds_no_graph_builds() {
    let _serial = serial();
    let pairs = all_pairs();
    let was_enabled = siro_trace::enabled();

    siro_trace::set_enabled(false);
    let untraced = Router::new();
    let expected: Vec<Option<RoutePlan>> =
        pairs.iter().map(|&(a, b)| untraced.plan(a, b)).collect();

    siro_trace::set_enabled(true);
    record_hop_spans(&pairs, 20_000);
    assert!(
        siro_trace::snapshot().spans.len() >= 20_000,
        "the collector must hold the recorded spans"
    );

    let traced = Router::new();
    let got: Vec<Option<RoutePlan>> = pairs.iter().map(|&(a, b)| traced.plan(a, b)).collect();
    let before = router_stats().graph_builds;
    for _ in 0..5 {
        for &(a, b) in &pairs {
            traced.plan(a, b);
        }
    }
    let hot_builds = router_stats().graph_builds - before;

    siro_trace::reset();
    siro_trace::set_enabled(was_enabled);

    assert_eq!(got, expected, "tracing must not change any plan");
    assert_eq!(
        hot_builds, 0,
        "hot repeat plans under tracing rebuilt the graph"
    );
}
