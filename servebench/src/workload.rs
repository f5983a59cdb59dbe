//! The three workloads: their payloads, their (payload, pair) keys and the
//! seeded op stream over those keys.
//!
//! * `large_modules` — the eight Tab. 4 project modules (High frontend,
//!   13.0) sent 13.0→3.6, each op drawing a project with probability
//!   proportional to its instruction count: IR text work dominates.
//! * `small_pairs` — small modules over every reachable pair of both
//!   dialects (156 Siro pairs, 6 WIR pairs, 78 Siro↔WIR pairs through the
//!   anchor bridges), all hot: the fixed per-request cost dominates. The
//!   seed draws the payloads and the op stream; the warm-up order, and so
//!   the route of every pair, is fixed.
//! * `cold_pairs` — one request per pair over seeded permutations of the
//!   156 Siro pairs, the 6 WIR pairs and the 4 direct bridge pairs, every
//!   cache and store emptied before each op: the write side of the cache,
//!   store and router.
//!
//! Keys the daemon answers with an error are screened out of the stream
//! before measuring and reported as known defects (`served::Excluded`).

use std::collections::BTreeSet;

use siro_ir::{DialectVersion, IrVersion};
use siro_synth::BRIDGE_ANCHORS;
use siro_wir::{AnyModule, WirVersion};

use crate::util::{Fnv, Rng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LargeModules,
    SmallPairs,
    ColdPairs,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "large_modules" => Some(Kind::LargeModules),
            "small_pairs" => Some(Kind::SmallPairs),
            "cold_pairs" => Some(Kind::ColdPairs),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::LargeModules => "large_modules",
            Kind::SmallPairs => "small_pairs",
            Kind::ColdPairs => "cold_pairs",
        }
    }

    pub fn is_cold(self) -> bool {
        self == Kind::ColdPairs
    }
}

/// How a payload was made, which decides its semantic check.
#[derive(Debug, Clone)]
pub enum Origin {
    /// A Tab. 4 project module: byte comparison only.
    Project,
    /// A corpus case: the translation's `main()` must return `oracle`.
    Corpus { oracle: i64 },
    /// A straight-line module on the bridged subset: the behaviour bucket
    /// must survive the translation.
    Straight,
}

pub struct Payload {
    pub source: DialectVersion,
    /// The in-memory module the text was written from.
    pub module: AnyModule,
    pub text: String,
    pub origin: Origin,
    pub insts: usize,
}

/// One distinct request: a payload sent to one target.
#[derive(Debug, Clone, Copy)]
pub struct Key {
    pub payload: usize,
    pub target: DialectVersion,
}

pub struct Workload {
    pub kind: Kind,
    pub payloads: Vec<Payload>,
    pub keys: Vec<Key>,
    /// Distinct pairs, in the order the warm-up first requests them.
    pub pairs: Vec<(DialectVersion, DialectVersion)>,
    /// The op stream, as indices into `keys`.
    pub ops: Vec<u32>,
    /// `cold_pairs`: ops per permutation pass (0 for the hot workloads).
    pub pass_len: usize,
}

/// Ops generated for the hot workloads; the client cycles through them.
const HOT_STREAM: usize = 1 << 16;
/// Permutation passes generated for `cold_pairs`.
const COLD_PASSES: usize = 8;
/// Seed of the one shuffle that orders the `small_pairs` warm-up.
const WARMUP_ORDER_SEED: u64 = 1;
/// Payloads per pair in `small_pairs`.
const SMALL_PER_PAIR: usize = 3;

impl Workload {
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let mut rng = Rng::new(seed ^ kind as u64);
        match kind {
            Kind::LargeModules => large_modules(&mut rng),
            Kind::SmallPairs => small_pairs(&mut rng),
            Kind::ColdPairs => cold_pairs(&mut rng),
        }
    }

    /// Takes every op of the `excluded` keys out of the stream. A
    /// `cold_pairs` pass holds each key once, so it shrinks by as many ops.
    pub fn drop_keys(&mut self, excluded: &BTreeSet<u32>) {
        self.ops.retain(|k| !excluded.contains(k));
        if self.pass_len > 0 {
            self.pass_len -= excluded.len();
        }
    }

    pub fn payload(&self, key: &Key) -> &Payload {
        &self.payloads[key.payload]
    }

    /// Hash of everything the daemon is sent: payload texts and the op
    /// stream. The same seed must give the same hash.
    pub fn stream_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for p in &self.payloads {
            h.bytes(p.source.to_string().as_bytes());
            h.bytes(p.text.as_bytes());
        }
        for &op in &self.ops {
            let key = &self.keys[op as usize];
            h.bytes(&(key.payload as u64).to_le_bytes());
            h.bytes(key.target.to_string().as_bytes());
        }
        h.finish()
    }
}

fn siro_payload(module: siro_ir::Module, origin: Origin) -> Payload {
    let text = siro_ir::write::write_module(&module);
    let insts = module.inst_count();
    Payload {
        source: module.version.into(),
        module: AnyModule::Siro(module),
        text,
        origin,
        insts,
    }
}

/// A straight-line module at `source`: WIR generated directly, Siro raised
/// from WIR so it stays on the subset the bridges lower.
fn straight_payload(source: DialectVersion, seed: u64) -> Payload {
    match source.as_siro() {
        Some(v) => {
            let w = siro_wir::generate_straightline(seed, WirVersion::W2_0);
            let m = siro_synth::raise_module(&w, v).expect("straight-line WIR always raises");
            siro_payload(m, Origin::Straight)
        }
        None => {
            let v = wir_version(source);
            let w = siro_wir::generate_straightline(seed, v);
            let text = siro_wir::write_module(&w);
            let insts = w.funcs.iter().map(|f| f.body.len()).sum();
            Payload {
                source,
                module: AnyModule::Wir(w),
                text,
                origin: Origin::Straight,
                insts,
            }
        }
    }
}

fn wir_version(v: DialectVersion) -> WirVersion {
    WirVersion::CATALOG
        .into_iter()
        .find(|&w| DialectVersion::from(w) == v)
        .expect("a WIR catalog version")
}

fn siro_nodes() -> Vec<DialectVersion> {
    IrVersion::CATALOG.iter().map(|&v| v.into()).collect()
}

fn wir_nodes() -> Vec<DialectVersion> {
    WirVersion::CATALOG.iter().map(|&v| v.into()).collect()
}

fn ordered_pairs(
    from: &[DialectVersion],
    to: &[DialectVersion],
) -> Vec<(DialectVersion, DialectVersion)> {
    let mut out = Vec::new();
    for &a in from {
        for &b in to {
            if a != b {
                out.push((a, b));
            }
        }
    }
    out
}

fn large_modules(rng: &mut Rng) -> Workload {
    let (src, tgt) = (IrVersion::V13_0, IrVersion::V3_6);
    let payloads: Vec<Payload> = siro_workloads::table4_projects()
        .iter()
        .map(|spec| {
            let m = siro_workloads::compile_project(spec, siro_workloads::Frontend::High, src);
            siro_payload(m, Origin::Project)
        })
        .collect();
    let keys: Vec<Key> = (0..payloads.len())
        .map(|payload| Key {
            payload,
            target: tgt.into(),
        })
        .collect();
    let total: usize = payloads.iter().map(|p| p.insts).sum();
    let ops = (0..HOT_STREAM)
        .map(|_| {
            let mut x = rng.below(total);
            let mut k = 0;
            while x >= payloads[k].insts {
                x -= payloads[k].insts;
                k += 1;
            }
            k as u32
        })
        .collect();
    Workload {
        kind: Kind::LargeModules,
        payloads,
        keys,
        pairs: vec![(src.into(), tgt.into())],
        ops,
        pass_len: 0,
    }
}

/// `n` distinct payloads for one pair: corpus cases for Siro pairs,
/// straight-line modules whenever a WIR endpoint is involved.
fn pair_payloads(
    rng: &mut Rng,
    (a, b): (DialectVersion, DialectVersion),
    n: usize,
) -> Vec<Payload> {
    match (a.as_siro(), b.as_siro()) {
        (Some(sa), Some(sb)) => {
            let mut cases = siro_testcases::corpus_for_pair(sa, sb);
            rng.shuffle(&mut cases);
            cases
                .into_iter()
                .take(n)
                .map(|c| siro_payload(c.build(sa), Origin::Corpus { oracle: c.oracle }))
                .collect()
        }
        _ => (0..n)
            .map(|_| straight_payload(a, rng.next_u64() >> 16))
            .collect(),
    }
}

fn small_pairs(rng: &mut Rng) -> Workload {
    let (siro, wir) = (siro_nodes(), wir_nodes());
    let mut pairs = ordered_pairs(&siro, &siro);
    pairs.extend(ordered_pairs(&wir, &wir));
    pairs.extend(ordered_pairs(&siro, &wir));
    pairs.extend(ordered_pairs(&wir, &siro));
    // The warm-up requests pairs in this order, which decides which routes
    // compose. It is one fixed shuffle: seeding it would make the route
    // mix, and with it every timing, vary from seed to seed, and catalog
    // order would route most pairs through the oldest version.
    Rng::new(WARMUP_ORDER_SEED).shuffle(&mut pairs);

    let mut payloads = Vec::new();
    let mut keys = Vec::new();
    // Keys of each pair, by position in `pairs`.
    let mut by_pair: Vec<Vec<u32>> = Vec::with_capacity(pairs.len());
    for &pair in &pairs {
        let mut ids = Vec::new();
        for p in pair_payloads(rng, pair, SMALL_PER_PAIR) {
            ids.push(keys.len() as u32);
            keys.push(Key {
                payload: payloads.len(),
                target: pair.1,
            });
            payloads.push(p);
        }
        by_pair.push(ids);
    }
    let ops = (0..HOT_STREAM)
        .map(|_| {
            let ids = &by_pair[rng.below(by_pair.len())];
            ids[rng.below(ids.len())]
        })
        .collect();
    Workload {
        kind: Kind::SmallPairs,
        payloads,
        keys,
        pairs,
        ops,
        pass_len: 0,
    }
}

fn cold_pairs(rng: &mut Rng) -> Workload {
    let (siro, wir) = (siro_nodes(), wir_nodes());
    let mut pairs = ordered_pairs(&siro, &siro);
    pairs.extend(ordered_pairs(&wir, &wir));
    for (s, w) in BRIDGE_ANCHORS {
        pairs.push((s.into(), w.into()));
        pairs.push((w.into(), s.into()));
    }
    let mut payloads = Vec::new();
    let mut keys = Vec::new();
    for &pair in &pairs {
        for p in pair_payloads(rng, pair, 1) {
            keys.push(Key {
                payload: payloads.len(),
                target: pair.1,
            });
            payloads.push(p);
        }
    }
    let pass_len = keys.len();
    let mut ops = Vec::with_capacity(pass_len * COLD_PASSES);
    for _ in 0..COLD_PASSES {
        let mut pass: Vec<u32> = (0..pass_len as u32).collect();
        rng.shuffle(&mut pass);
        ops.extend(pass);
    }
    Workload {
        kind: Kind::ColdPairs,
        payloads,
        keys,
        pairs,
        ops,
        pass_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_stream() {
        for kind in [Kind::LargeModules, Kind::SmallPairs, Kind::ColdPairs] {
            let a = Workload::generate(kind, 7);
            let b = Workload::generate(kind, 7);
            assert_eq!(a.stream_hash(), b.stream_hash(), "{}", kind.name());
            assert_eq!(a.ops, b.ops);
            let c = Workload::generate(kind, 8);
            assert_ne!(
                a.ops,
                c.ops,
                "{}: another seed draws another stream",
                kind.name()
            );
        }
    }

    #[test]
    fn workloads_cover_their_pair_sets() {
        let small = Workload::generate(Kind::SmallPairs, 1);
        assert_eq!(small.pairs.len(), 156 + 6 + 78);
        let cold = Workload::generate(Kind::ColdPairs, 1);
        assert_eq!(cold.pass_len, 156 + 6 + 4);
        let mut first: Vec<u32> = cold.ops[..cold.pass_len].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..cold.pass_len as u32).collect::<Vec<_>>());
        let large = Workload::generate(Kind::LargeModules, 1);
        assert_eq!(large.payloads.len(), 8);
    }

    #[test]
    fn dropped_keys_leave_the_stream() {
        let mut cold = Workload::generate(Kind::ColdPairs, 3);
        let full = cold.ops.len();
        let excluded: BTreeSet<u32> = [0, 5].into_iter().collect();
        cold.drop_keys(&excluded);
        assert_eq!(cold.pass_len, 156 + 6 + 4 - 2);
        assert_eq!(cold.ops.len(), full - 2 * COLD_PASSES);
        assert!(cold.ops.iter().all(|k| !excluded.contains(k)));
        // Every pass still holds each kept key once.
        let mut first: Vec<u32> = cold.ops[..cold.pass_len].to_vec();
        first.sort_unstable();
        first.dedup();
        assert_eq!(first.len(), cold.pass_len);
    }
}
