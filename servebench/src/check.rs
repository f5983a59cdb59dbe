//! Output checking, computed off the serve path.
//!
//! For each distinct (payload, pair) the expected text is the payload's
//! module run hop by hop along the route the daemon took, with
//! Siro hops on the interpreted `Skeleton::translate_module` (the daemon
//! serves them from the compiled tier). Every response must match it byte
//! for byte; a response's `main()` must also meet the corpus oracle, or
//! keep its behaviour bucket across WIR and bridge hops.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use siro_core::Skeleton;
use siro_ir::DialectVersion;
use siro_serve::{ClientError, Engine};
use siro_synth::{
    lower_module, raise_module, siro_behaviour, wir_behaviour, HopKind, RouteOutcome,
    TranslatorCache, TranslatorStore, XBehaviour,
};
use siro_wir::AnyModule;

use crate::workload::{Origin, Payload};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RouteKind {
    Direct,
    Composed,
    Wir,
    Bridge,
}

impl RouteKind {
    pub const ALL: [RouteKind; 4] = [
        RouteKind::Direct,
        RouteKind::Composed,
        RouteKind::Wir,
        RouteKind::Bridge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            RouteKind::Direct => "direct",
            RouteKind::Composed => "composed",
            RouteKind::Wir => "wir",
            RouteKind::Bridge => "bridge",
        }
    }
}

/// What a response is checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Semantic {
    Bytes,
    Oracle(i64),
    Bucket(XBehaviour),
}

#[derive(Debug, Clone)]
pub struct Expect {
    /// The expected text, or why the route cannot translate the payload
    /// (then the daemon must answer with an error).
    pub text: Result<String, String>,
    pub route: RouteKind,
    pub hops: usize,
    pub semantic: Semantic,
}

/// The expected output of `payload` sent to `target`, along the route the
/// engine's routers resolve for the pair now. Fails only when no route
/// can be acquired.
pub fn expect(
    engine: &Engine,
    payload: &Payload,
    target: DialectVersion,
) -> Result<Expect, String> {
    let source = payload.source;
    let router = match (source.as_siro(), target.as_siro()) {
        (Some(_), Some(_)) => engine.router(),
        _ => engine.dialect_router(),
    };
    let acquired = router
        .acquire(source, target)
        .map_err(|e| format!("acquiring {source} -> {target}: {e}"))?;
    // The daemon sees only the text, which can carry less than the
    // in-memory module: opaque-pointer versions erase pointee types. So
    // the expectation starts from the re-parsed text; a text that does not
    // parse keeps the in-memory module, and the daemon's error shows.
    let base = AnyModule::parse(&payload.text).unwrap_or_else(|_| payload.module.clone());
    let (out, route, hops) = match &acquired.outcome {
        RouteOutcome::Direct(outcome) => {
            let (AnyModule::Siro(m), Some(t)) = (&base, target.as_siro()) else {
                return Err(format!(
                    "direct route for a non-Siro pair {source} -> {target}"
                ));
            };
            let out = Skeleton::new(t)
                .translate_module(m, &outcome.translator)
                .map(AnyModule::Siro)
                .map_err(|e| format!("{source} -> {target}: {e}"));
            (out, RouteKind::Direct, 1)
        }
        RouteOutcome::Composed(chain) => {
            let mut route = RouteKind::Composed;
            let mut current = Ok(base);
            for hop in &chain.hops {
                let Ok(module) = &current else { break };
                let step = match (&hop.kind, module) {
                    (HopKind::Siro(o), AnyModule::Siro(m)) => hop
                        .to
                        .as_siro()
                        .ok_or_else(|| "Siro hop to a WIR node".to_string())
                        .and_then(|t| {
                            Skeleton::new(t)
                                .translate_module(m, &o.translator)
                                .map_err(|e| e.to_string())
                        })
                        .map(AnyModule::Siro),
                    (HopKind::Wir(o), AnyModule::Wir(w)) => {
                        route = route.max(RouteKind::Wir);
                        o.translator
                            .translate_module(w)
                            .map(AnyModule::Wir)
                            .map_err(|e| e.to_string())
                    }
                    (HopKind::Lower(b), AnyModule::Siro(m)) => {
                        route = RouteKind::Bridge;
                        lower_module(m, b.wir)
                            .map(AnyModule::Wir)
                            .map_err(|e| e.to_string())
                    }
                    (HopKind::Raise(b), AnyModule::Wir(w)) => {
                        route = RouteKind::Bridge;
                        raise_module(w, b.siro)
                            .map(AnyModule::Siro)
                            .map_err(|e| e.to_string())
                    }
                    _ => Err("hop fed a module of the wrong dialect".to_string()),
                };
                current = step.map_err(|e| format!("hop {} -> {}: {e}", hop.from, hop.to));
            }
            (current, route, chain.hops.len())
        }
    };
    let semantic = match payload.origin {
        Origin::Project => Semantic::Bytes,
        Origin::Corpus { oracle, .. } => Semantic::Oracle(oracle),
        Origin::Straight => Semantic::Bucket(behaviour(&payload.module)),
    };
    Ok(Expect {
        text: out.map(|m| m.print()),
        route,
        hops,
        semantic,
    })
}

fn behaviour(m: &AnyModule) -> XBehaviour {
    match m {
        AnyModule::Siro(m) => siro_behaviour(m),
        AnyModule::Wir(w) => wir_behaviour(w),
    }
}

/// Parses a served text and checks its semantics: the corpus oracle, or
/// the behaviour bucket of the payload.
pub fn semantic_ok(expect: &Expect, served: &str) -> bool {
    match &expect.semantic {
        Semantic::Bytes => true,
        Semantic::Oracle(oracle) => {
            siro_ir::parse::parse_module(served)
                .ok()
                .and_then(|m| siro_ir::interp::Machine::new(&m).run_main().ok())
                .and_then(|o| o.return_int())
                == Some(*oracle)
        }
        Semantic::Bucket(want) => AnyModule::parse(served).is_ok_and(|m| behaviour(&m) == *want),
    }
}

/// The verdict on one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The daemon answered with an error, named by its code.
    Error(&'static str),
    /// The daemon answered, but not with the expected bytes or semantics.
    Mismatch,
}

pub fn judge(expect: &Expect, response: &Result<siro_serve::Translated, ClientError>) -> Verdict {
    verdict(
        expect,
        response
            .as_ref()
            .map(|t| t.text.as_str())
            .map_err(error_name),
    )
}

/// A served text, or the name of the error served instead, against the
/// expectation.
pub fn verdict(expect: &Expect, served: Result<&str, &'static str>) -> Verdict {
    match (served, &expect.text) {
        (Ok(got), Ok(want)) if got == want => Verdict::Ok,
        (Ok(_), _) => Verdict::Mismatch,
        (Err(code), _) => Verdict::Error(code),
    }
}

pub fn error_name(e: &ClientError) -> &'static str {
    match e {
        ClientError::Server { code, .. } => code_name(*code),
        ClientError::Throttled { .. } => "throttled",
        ClientError::Timeout => "timeout",
        ClientError::Protocol(_) => "protocol",
        ClientError::Unexpected(_) => "unexpected",
    }
}

pub fn code_name(code: siro_serve::ErrorCode) -> &'static str {
    use siro_serve::ErrorCode as C;
    match code {
        C::Busy => "busy",
        C::Malformed => "malformed",
        C::Parse => "parse",
        C::Verify => "verify",
        C::Unsupported => "unsupported",
        C::Synthesis => "synthesis",
        C::Translate => "translate",
        C::ShuttingDown => "shutting-down",
        C::Internal => "internal",
        C::Throttled => "throttled",
    }
}

/// Failed ops by error code (`mismatch` for wrong answers).
#[derive(Debug, Default, Clone)]
pub struct Failures(pub BTreeMap<&'static str, u64>);

impl Failures {
    pub fn note(&mut self, v: Verdict) {
        match v {
            Verdict::Ok => {}
            Verdict::Error(code) => *self.0.entry(code).or_default() += 1,
            Verdict::Mismatch => *self.0.entry("mismatch").or_default() += 1,
        }
    }

    pub fn absorb(&mut self, other: Failures) {
        for (code, n) in other.0 {
            *self.0.entry(code).or_default() += n;
        }
    }

    pub fn total(&self) -> u64 {
        self.0.values().sum()
    }

    pub fn mismatches(&self) -> u64 {
        self.0.get("mismatch").copied().unwrap_or(0)
    }

    pub fn describe(&self) -> String {
        if self.0.is_empty() {
            return "none".into();
        }
        self.0
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Empties every process cache a cold request must miss. The daemon's own
/// routers keep their corpora (pure data) and composed-chain memos, so a
/// cold run restarts the daemon before a pair repeats.
pub fn reset_caches() {
    TranslatorCache::reset();
    siro_synth::reset_wir_cache();
    siro_synth::reset_bridge_cache();
}

/// Readies the process for a cold op: every cache emptied, a fresh empty
/// store attached, and the translator cache checked to hold no entry.
pub fn cold_start(work: &WorkDir) -> Result<(), String> {
    reset_caches();
    work.fresh_store("store")
        .map_err(|e| format!("store: {e}"))?;
    match TranslatorCache::snapshot().entries {
        0 => Ok(()),
        n => Err(format!("cache holds {n} entries after the reset")),
    }
}

/// Working space under the current directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create() -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Attaches a fresh, empty translator store at `name`, replacing any
    /// earlier one of that name.
    fn fresh_store(&self, name: &str) -> std::io::Result<()> {
        let dir = self.0.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        let store = TranslatorStore::open(siro_synth::StoreConfig::at(dir))?;
        siro_synth::set_active_store(Some(Arc::new(store)));
        Ok(())
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        siro_synth::set_active_store(None);
        let _ = std::fs::remove_dir_all(&self.0);
        // `.bench_work` itself goes too once nothing else is left in it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Total bytes of the files in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use siro_ir::IrVersion;
    use siro_serve::{StageNanos, Translated};

    fn served(text: &str) -> Result<Translated, ClientError> {
        Ok(Translated {
            text: text.to_string(),
            cache_hit: true,
            timings: StageNanos::default(),
        })
    }

    #[test]
    fn one_flipped_byte_fails_the_op() {
        let case = &siro_testcases::full_corpus()[0];
        let m = case.build(IrVersion::V3_6);
        let text = siro_ir::write::write_module(&m);
        let expect = Expect {
            text: Ok(text.clone()),
            route: RouteKind::Direct,
            hops: 1,
            semantic: Semantic::Oracle(case.oracle),
        };
        assert_eq!(judge(&expect, &served(&text)), Verdict::Ok);
        assert!(semantic_ok(&expect, &text));
        for i in [0, text.len() / 2, text.len() - 1] {
            let mut bytes = text.clone().into_bytes();
            bytes[i] ^= 0x01;
            let flipped = String::from_utf8(bytes).expect("ascii stays utf-8");
            let mut failures = Failures::default();
            failures.note(judge(&expect, &served(&flipped)));
            assert_eq!(failures.total(), 1, "flip at byte {i}");
            assert_eq!(failures.mismatches(), 1);
        }
        let wrong_oracle = Expect {
            semantic: Semantic::Oracle(case.oracle + 1),
            ..expect
        };
        assert!(!semantic_ok(&wrong_oracle, &text));
    }

    #[test]
    fn resets_leave_the_cache_empty() {
        let (a, b) = (IrVersion::V4_0, IrVersion::V3_7);
        let corpus = siro_synth::oracle_corpus(a, b);
        TranslatorCache::get_or_synthesize(siro_synth::SynthesisConfig::new(a, b), &corpus)
            .expect("synthesis");
        siro_synth::wir_translator_cached(siro_wir::WirVersion::W1_0, siro_wir::WirVersion::W2_0)
            .expect("wir synthesis");
        assert!(TranslatorCache::snapshot().entries > 0);
        reset_caches();
        let snap = TranslatorCache::snapshot();
        assert_eq!((snap.entries, snap.hits, snap.misses), (0, 0, 0));
        assert!(!siro_synth::wir_pair_is_hot(
            siro_wir::WirVersion::W1_0,
            siro_wir::WirVersion::W2_0
        ));
    }
}
