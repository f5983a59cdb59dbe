//! # siro-synth — the Siro instruction-translator synthesis system
//!
//! Implements §4 of the paper: an iterative, continuously shrinking search
//! over candidate instruction translators.
//!
//! * [`typegraph`] — the IR type graph (Def. 4.1) and backward
//!   reachability (Def. 4.2);
//! * [`candgen`] — type-guided candidate generation (➊);
//! * [`profile`] — the location / kind / sub-kind profilers and the profile
//!   table (Def. 4.3, ➋);
//! * [`pertest`] — per-test translators (Alg. 3 / Def. 4.4) and their
//!   differential-testing validation (Fig. 6, ➌);
//! * [`refine`] — the conservative mapping `M*` (Alg. 4, ➍);
//! * [`complete`] — skeleton completion and source rendering (➎);
//! * [`driver`] — [`Synthesizer`], wiring Alg. 2 together with the three
//!   optimizations of §4.4 (equivalence, memoization, test ordering) and
//!   parallel probing + validation (§5 "Speeding up Synthesis Process");
//! * [`cache`] — the process-wide [`TranslatorCache`] memoizing finished
//!   outcomes per `(pair, corpus fingerprint, config)` and the
//!   [`synthesize_all`] multi-pair fan-out;
//! * [`persist`] + [`store`] — the on-disk [`TranslatorStore`]: a
//!   versioned, checksummed binary format persisting outcomes across
//!   processes, with load-time validation against the oracle corpus and
//!   LRU-ish garbage collection;
//! * [`router`] — the version-graph router: any `(from, to)` request over
//!   the full catalog answered by cheapest-path composition of pairwise
//!   translators, with composed chains memoized per process;
//! * [`compile`] — the AOT execution tier: validated translators lowered
//!   through a [`TranslatorBackend`] into flat, pre-resolved instruction
//!   streams (dense opcode dispatch, direct function indices, pre-bound
//!   operand slots), persisted as `.sirx` siblings of the store's `.sirt`
//!   entries, with transparent interpreter fallback.
//!
//! ## Example
//!
//! ```no_run
//! use siro_ir::IrVersion;
//! use siro_synth::{OracleTest, Synthesizer};
//!
//! let tests: Vec<OracleTest> = siro_testcases::corpus_for_pair(IrVersion::V13_0, IrVersion::V3_6)
//!     .into_iter()
//!     .map(|c| OracleTest {
//!         name: c.name.to_string(),
//!         module: c.build(IrVersion::V13_0),
//!         oracle: c.oracle,
//!     })
//!     .collect();
//! let outcome = Synthesizer::for_pair(IrVersion::V13_0, IrVersion::V3_6)
//!     .synthesize(&tests)
//!     .unwrap();
//! println!("{}", outcome.rendered);
//! ```

#![deny(missing_docs)]

pub mod bridge;
pub mod cache;
pub mod candgen;
pub mod compile;
pub mod complete;
pub mod driver;
pub mod persist;
pub mod pertest;
pub mod profile;
pub mod refine;
pub mod router;
pub mod store;
pub mod typegraph;
pub mod wir;

pub use bridge::{
    bridge_cached, bridge_is_hot, bridge_store_name, is_anchor_pair, lower_module, raise_module,
    reset_bridge_cache, siro_behaviour, validate_bridge, wir_behaviour, BridgeError, BridgeOutcome,
    BridgeStats, XBehaviour, BRIDGE_ANCHORS, BRIDGE_FUEL, BRIDGE_SEEDS,
};
pub use cache::{
    corpus_fingerprint, synthesize_all, CacheLookup, CacheShardStats, CacheSnapshot, CacheStats,
    TranslatorCache, CACHE_SHARDS,
};
pub use candgen::{generate_all, generate_for_kind, GenLimits};
pub use compile::{
    compile_enabled, compile_stats, reset_compile_stats, set_compile_enabled,
    translate_module_owned_tiered, translate_module_tiered, CompileError, CompileStats,
    CompiledKind, CompiledTranslator, StreamBackend, TranslatorBackend,
};
pub use driver::{
    resolve_threads, threads_from_override, StageTimings, SynthError, SynthesisConfig,
    SynthesisOutcome, SynthesisReport, Synthesizer, TestStats,
};
pub use pertest::{OracleTest, PerTestTranslator};
pub use profile::{profile_module, ProfileTable, ProfiledInst};
pub use refine::{CandIdx, MStar, SynthFault};
pub use router::{
    reset_router_stats, router_stats, Acquired, ComposedHop, ComposedTranslator, EdgeClass,
    EdgeInfo, HopKind, RouteOutcome, RoutePlan, Router, RouterStats, VersionGraph, COST_COLD_US,
    COST_HOT_US, COST_WARM_US, OBSERVED_CAP_US,
};
pub use store::{
    active_store, oracle_corpus, reset_store_stats, set_active_store, store_stats, GcReport,
    StoreConfig, StoreEntry, StoreKey, StoreStats, TranslatorStore, ValidationMode, VerifyOutcome,
};
pub use typegraph::TypeGraph;
pub use wir::{
    reset_wir_cache, synthesize_wir, validate_wir_translator, wir_pair_is_hot, wir_store_name,
    wir_translator_cached, WirOutcome, WirSynthError, WirSynthStats, WirTranslator,
};
