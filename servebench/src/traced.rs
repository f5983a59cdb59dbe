//! The traced run: the workload's op stream replayed in this process, with
//! a span around every call the serve path makes into a layer's public
//! functions, in `Engine::execute`'s order. Each op is also timed once as
//! a whole through `Engine::execute` and once as a loopback round trip, so
//! the run reports what the layer spans leave unaccounted, the tracing
//! overhead and the wire's share. The program's own tracing stays off.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use siro_ir::{parse, verify, write, DialectVersion, IrVersion};
use siro_serve::{Engine, Metrics, Request, Response, TranslateMode};
use siro_synth::{
    compile_stats, lower_module, oracle_corpus, raise_module, router_stats, HopKind, RouteOutcome,
    Router, StreamBackend, SynthesisConfig, SynthesisOutcome, TranslatorBackend, TranslatorCache,
    TranslatorStore,
};
use siro_wir::{AnyModule, WirVersion};

use crate::check::{self, Expect, Failures, Verdict, WorkDir};
use crate::served::{self, Prepared};
use crate::util::{self, Metric, Report};
use crate::workload::{Kind, Workload};

/// One recorded span. Spans of one op share `op`; `parent` indexes the
/// enclosing span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: u32,
}

/// Spans kept in memory and written out when the run ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u32) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p as u32),
            op,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    fn us(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e3
    }

    /// Durations in µs of every span called `name`.
    fn durations(&self, names: &[&str]) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Sum in µs of the direct children of span `id`.
    fn children_us(&self, id: usize, from: usize) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.parent == Some(id as u32))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    }

    /// Tab-separated, one span per line after a header: index, name,
    /// start and end (ns since the run's epoch), parent index (`-` for a
    /// root) and op id.
    fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// What the replay of one op produced.
struct Replayed {
    out: Result<String, &'static str>,
    /// The op's root span.
    root: usize,
    /// Siro instructions parsed, when the source is Siro.
    insts: Option<usize>,
    hops: usize,
    /// The Siro translator this op synthesized, if it did.
    fresh: Option<Arc<SynthesisOutcome>>,
}

/// The serve path's hop resolver: every Siro hop through the engine's
/// coalescer.
fn resolve_hop(
    engine: &Engine,
    a: IrVersion,
    b: IrVersion,
) -> Result<(Arc<SynthesisOutcome>, bool), siro_synth::SynthError> {
    engine
        .coalescer()
        .translator_for(a, b)
        .map(|l| (l.outcome, l.fresh))
}

/// Runs a composed chain hop by hop, one span per hop.
fn run_chain(
    tr: &mut Tracer,
    parent: usize,
    op: u32,
    chain: &siro_synth::ComposedTranslator,
    module: AnyModule,
) -> Result<AnyModule, &'static str> {
    let mut current = module;
    for hop in &chain.hops {
        let name = match hop.kind {
            HopKind::Siro(_) => "translate.siro_hop",
            HopKind::Wir(_) => "translate.wir_hop",
            HopKind::Lower(_) => "bridge.lower",
            HopKind::Raise(_) => "bridge.raise",
        };
        let sp = tr.begin(name, Some(parent), op);
        let next = match (&hop.kind, current) {
            (HopKind::Siro(o), AnyModule::Siro(m)) => hop
                .to
                .as_siro()
                .ok_or("internal")
                .and_then(|t| {
                    siro_synth::translate_module_owned_tiered(o, t, m).map_err(|_| "translate")
                })
                .map(AnyModule::Siro),
            (HopKind::Wir(o), AnyModule::Wir(w)) => o
                .translator
                .translate_module(&w)
                .map(AnyModule::Wir)
                .map_err(|_| "translate"),
            (HopKind::Lower(b), AnyModule::Siro(m)) => lower_module(&m, b.wir)
                .map(AnyModule::Wir)
                .map_err(|_| "translate"),
            (HopKind::Raise(b), AnyModule::Wir(w)) => raise_module(&w, b.siro)
                .map(AnyModule::Siro)
                .map_err(|_| "translate"),
            _ => Err("internal"),
        };
        tr.end(sp);
        current = next?;
    }
    Ok(current)
}

fn fresh_outcome(acquired: &siro_synth::Acquired) -> Option<Arc<SynthesisOutcome>> {
    match (&acquired.outcome, acquired.fresh) {
        (RouteOutcome::Direct(o), true) => Some(Arc::clone(o)),
        _ => None,
    }
}

/// `Engine::translate_siro`'s calls, each under its own span.
fn replay_siro(
    tr: &mut Tracer,
    root: usize,
    engine: &Engine,
    op: u32,
    (s, t): (IrVersion, IrVersion),
    text: &str,
    r: &mut Replayed,
) -> Result<String, &'static str> {
    let sp = tr.begin("ir.parse", Some(root), op);
    let parsed = parse::parse_module(text);
    tr.end(sp);
    let module = parsed.map_err(|_| "parse")?;
    if module.version != s {
        return Err("parse");
    }
    r.insts = Some(module.inst_count());
    let sp = tr.begin("ir.verify_in", Some(root), op);
    let verified = verify::verify_module(&module);
    tr.end(sp);
    verified.map_err(|_| "verify")?;

    let sp = tr.begin("router.acquire", Some(root), op);
    let acquired = engine
        .router()
        .acquire_with(s, t, &|a, b, _| resolve_hop(engine, a, b));
    tr.end(sp);
    let acquired = acquired.map_err(|_| "synthesis")?;
    r.hops = acquired.plan.hop_count().max(1);
    r.fresh = fresh_outcome(&acquired);

    let sp = tr.begin("translate", Some(root), op);
    let out = match &acquired.outcome {
        RouteOutcome::Direct(o) => {
            siro_synth::translate_module_owned_tiered(o, t, module).map_err(|_| "translate")
        }
        RouteOutcome::Composed(chain) => run_chain(tr, sp, op, chain, AnyModule::Siro(module))
            .and_then(|m| match m {
                AnyModule::Siro(m) => Ok(m),
                AnyModule::Wir(_) => Err("translate"),
            }),
    };
    tr.end(sp);
    let out = out?;

    let sp = tr.begin("ir.verify_out", Some(root), op);
    let verified = verify::verify_module(&out);
    tr.end(sp);
    verified.map_err(|_| "verify")?;
    let sp = tr.begin("ir.write", Some(root), op);
    let text = write::write_module(&out);
    tr.end(sp);
    Ok(text)
}

/// `Engine::translate_cross`'s calls, each under its own span; spans on
/// WIR text are named `wir.*`.
fn replay_cross(
    tr: &mut Tracer,
    root: usize,
    engine: &Engine,
    op: u32,
    (source, target): (DialectVersion, DialectVersion),
    text: &str,
    r: &mut Replayed,
) -> Result<String, &'static str> {
    let src_wir = source.as_siro().is_none();
    let tgt_wir = target.as_siro().is_none();
    let sp = tr.begin(
        if src_wir { "wir.parse" } else { "ir.parse" },
        Some(root),
        op,
    );
    let parsed = AnyModule::parse(text);
    tr.end(sp);
    let module = parsed.map_err(|_| "parse")?;
    if module.dialect_version() != source {
        return Err("parse");
    }
    r.insts = module.as_siro().map(|m| m.inst_count());
    let sp = tr.begin(
        if src_wir {
            "wir.verify_in"
        } else {
            "ir.verify_in"
        },
        Some(root),
        op,
    );
    let verified = module.verify();
    tr.end(sp);
    verified.map_err(|_| "verify")?;

    let sp = tr.begin("router.acquire", Some(root), op);
    let acquired = engine
        .dialect_router()
        .acquire_with(source, target, &|a, b, _| resolve_hop(engine, a, b));
    tr.end(sp);
    let acquired = acquired.map_err(|_| "unsupported")?;
    r.hops = acquired.plan.hop_count().max(1);

    let sp = tr.begin("translate", Some(root), op);
    let out = match &acquired.outcome {
        RouteOutcome::Composed(chain) => run_chain(tr, sp, op, chain, module),
        RouteOutcome::Direct(_) => Err("internal"),
    };
    tr.end(sp);
    let out = out?;
    if out.dialect_version() != target {
        return Err("internal");
    }
    let sp = tr.begin(
        if tgt_wir {
            "wir.verify_out"
        } else {
            "ir.verify_out"
        },
        Some(root),
        op,
    );
    let verified = out.verify();
    tr.end(sp);
    verified.map_err(|_| "verify")?;
    let sp = tr.begin(
        if tgt_wir { "wir.write" } else { "ir.write" },
        Some(root),
        op,
    );
    let text = out.print();
    tr.end(sp);
    Ok(text)
}

fn replay(
    tr: &mut Tracer,
    engine: &Engine,
    op: u32,
    source: DialectVersion,
    target: DialectVersion,
    text: &str,
) -> Replayed {
    let root = tr.begin("op", None, op);
    let mut r = Replayed {
        out: Err("internal"),
        root,
        insts: None,
        hops: 0,
        fresh: None,
    };
    r.out = match (source.as_siro(), target.as_siro()) {
        (Some(s), Some(t)) => replay_siro(tr, root, engine, op, (s, t), text, &mut r),
        _ => replay_cross(tr, root, engine, op, (source, target), text, &mut r),
    };
    tr.end(root);
    r
}

/// Layer numbers collected outside the op loop.
#[derive(Default)]
struct Probes {
    first_plan_ms: f64,
    oracle_corpus_ms: f64,
    lower_us: Vec<f64>,
    save_ms: Vec<f64>,
    bytes_per_pair: Vec<f64>,
    outcomes: Vec<Arc<SynthesisOutcome>>,
}

/// The first `Router::plan` on a fresh router (it builds every edge
/// corpus), median of three, and every catalog corpus built once.
fn router_probes(p: &mut Probes) {
    let mut firsts = Vec::new();
    for _ in 0..3 {
        let router = Router::new();
        let t = Instant::now();
        std::hint::black_box(router.plan(IrVersion::V13_0, IrVersion::V3_6));
        firsts.push(t.elapsed().as_secs_f64() * 1e3);
    }
    p.first_plan_ms = util::median(&firsts);
    let t = Instant::now();
    for &a in &IrVersion::CATALOG {
        for &b in &IrVersion::CATALOG {
            if a != b {
                std::hint::black_box(oracle_corpus(a, b));
            }
        }
    }
    p.oracle_corpus_ms = t.elapsed().as_secs_f64() * 1e3;
}

/// Straight-line modules the WIR and bridge layers are timed on when no op
/// of the workload calls them.
const LAYER_PROBES: u64 = 64;

/// Times `AnyModule::print`, `AnyModule::parse`, `raise_module` and
/// `lower_module` on seeded straight-line WIR modules, as spans named
/// `probe.*`.
fn wir_layer_probes(tr: &mut Tracer) {
    for seed in 0..LAYER_PROBES {
        let op = u32::MAX;
        let w = AnyModule::Wir(siro_wir::generate_straightline(seed, WirVersion::W2_0));
        let sp = tr.begin("probe.wir.write", None, op);
        let text = w.print();
        tr.end(sp);
        let sp = tr.begin("probe.wir.parse", None, op);
        let parsed = AnyModule::parse(&text);
        tr.end(sp);
        let Some(w) = parsed.ok().and_then(|m| m.as_wir().cloned()) else {
            continue;
        };
        let sp = tr.begin("probe.bridge", None, op);
        let raised = raise_module(&w, IrVersion::V13_0);
        tr.end(sp);
        if let Ok(m) = raised {
            let sp = tr.begin("probe.bridge", None, op);
            std::hint::black_box(lower_module(&m, WirVersion::W2_0).is_ok());
            tr.end(sp);
        }
    }
}

/// p50 of the workload's spans named `names`; when no op made such a call,
/// p50 of the `probe` spans instead.
fn layer_p50(tr: &Tracer, names: &[&str], probe: &str) -> f64 {
    let own = tr.durations(names);
    if own.is_empty() {
        println!(
            "{}: no op calls the layer; timed on {LAYER_PROBES} probe modules",
            names.join("/")
        );
        util::median(&tr.durations(&[probe]))
    } else {
        util::median(&own)
    }
}

/// Lowers a synthesized translator again and saves it to a side store,
/// timing the compile tier's and the store's public calls on it.
fn outcome_probes(p: &mut Probes, outcome: &Arc<SynthesisOutcome>, probe: &TranslatorStore) {
    let t = Instant::now();
    let compiled = StreamBackend.lower(&outcome.translator);
    p.lower_us.push(t.elapsed().as_secs_f64() * 1e6);
    let (a, b) = outcome.report.pair;
    let config = SynthesisConfig::new(a, b);
    let key = siro_synth::StoreKey::new(
        &config,
        siro_synth::corpus_fingerprint(&oracle_corpus(a, b)),
    );
    let t = Instant::now();
    let mut ok = probe.save(&key, outcome).is_ok();
    if let Ok(c) = &compiled {
        ok &= probe.save_compiled(&key, c).is_ok();
    }
    if ok {
        p.save_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    p.outcomes.push(Arc::clone(outcome));
}

/// Counters read before and after the op loop.
struct Counters {
    router: siro_synth::RouterStats,
    compile: siro_synth::CompileStats,
}

impl Counters {
    fn read() -> Self {
        Counters {
            router: router_stats(),
            compile: compile_stats(),
        }
    }
}

/// Everything the op loop measured.
#[derive(Default)]
struct Loop {
    attempted: u64,
    failures: Failures,
    exec_us: Vec<f64>,
    wire_us: Vec<f64>,
    protocol_us: Vec<f64>,
    frame_bytes: Vec<f64>,
    insts: Vec<f64>,
    hops: Vec<f64>,
    parse_bytes: f64,
    /// Per op: Σ root-child spans, root span, execute — all µs.
    sums: Vec<(f64, f64, f64)>,
    cache_hits: u64,
    cache_misses: u64,
    /// Semantic verdict per key, checked once.
    semantic: BTreeMap<usize, bool>,
}

/// Where the three executions of an op run.
struct Targets<'a> {
    replay: &'a Engine,
    execute: &'a Engine,
    client: &'a mut siro_serve::Client,
}

/// Runs one op three ways — traced replay, `Engine::execute`, loopback —
/// checks all three against `expect_for`'s answer and records the timings.
/// `before_each` runs before every execution.
#[allow(clippy::too_many_arguments)]
fn run_op(
    tr: &mut Tracer,
    lp: &mut Loop,
    op: u32,
    wl: &Workload,
    k: usize,
    at: Targets<'_>,
    before_each: &mut dyn FnMut() -> Result<(), String>,
    expect_for: &mut dyn FnMut() -> Result<Expect, String>,
) -> Result<Replayed, String> {
    let key = wl.keys[k];
    let p = wl.payload(&key);
    let request = Request::Translate {
        source: p.source,
        target: key.target,
        mode: TranslateMode::Synthesized,
        text: p.text.clone(),
    };
    let from = tr.spans.len();

    // Alternate which of replay and execute runs first, so neither always
    // finds the other's data in cache.
    let mut replayed = None;
    let mut executed = None;
    for replay_now in [op.is_multiple_of(2), !op.is_multiple_of(2)] {
        before_each()?;
        if replay_now {
            replayed = Some(replay(tr, at.replay, op, p.source, key.target, &p.text));
        } else {
            let t = Instant::now();
            let resp = at.execute.execute(&request);
            executed = Some((resp, t.elapsed().as_secs_f64() * 1e6));
        }
    }
    let r = replayed.expect("replayed");
    let (resp, exec_us) = executed.expect("executed");
    let expect = expect_for();

    before_each()?;
    let text = p.text.clone();
    let t = Instant::now();
    let wire = at
        .client
        .translate(p.source, key.target, TranslateMode::Synthesized, text);
    let rt_us = t.elapsed().as_secs_f64() * 1e6;

    // Client-side codec: encode the request, decode the response.
    let resp_frame = resp.encode(u64::from(op));
    let sp = tr.begin("serve.protocol", None, op);
    let req_frame = request.encode(u64::from(op));
    let decoded = Response::decode(&resp_frame);
    tr.end(sp);
    std::hint::black_box(decoded.is_ok());
    lp.protocol_us.push(tr.us(sp));
    // Two frames, each behind a 4-byte length prefix.
    lp.frame_bytes
        .push((req_frame.len() + resp_frame.len() + 8) as f64);

    let router = match (p.source.as_siro(), key.target.as_siro()) {
        (Some(_), Some(_)) => at.replay.router(),
        _ => at.replay.dialect_router(),
    };
    let sp = tr.begin("router.plan", None, op);
    std::hint::black_box(router.plan(p.source, key.target));
    tr.end(sp);

    lp.attempted += 1;
    let verdict = match &expect {
        Err(_) => match r.out {
            Err(code) => Verdict::Error(code),
            Ok(_) => Verdict::Mismatch,
        },
        Ok(e) => {
            let executed = match &resp {
                Response::TranslateOk { text, .. } => Ok(text.as_str()),
                Response::Error { code, .. } => Err(check::code_name(*code)),
                _ => Err("unexpected"),
            };
            let semantic = *lp
                .semantic
                .entry(k)
                .or_insert_with(|| e.text.as_ref().is_ok_and(|t| check::semantic_ok(e, t)));
            [
                check::verdict(e, r.out.as_deref().map_err(|c| *c)),
                check::verdict(e, executed),
                check::judge(e, &wire),
            ]
            .into_iter()
            .find(|v| *v != Verdict::Ok)
            .unwrap_or(if semantic {
                Verdict::Ok
            } else {
                Verdict::Mismatch
            })
        }
    };
    lp.failures.note(verdict);
    if verdict == Verdict::Ok {
        let children = tr.children_us(r.root, from);
        lp.sums.push((children, tr.us(r.root), exec_us));
        lp.exec_us.push(exec_us);
        lp.wire_us.push(rt_us - exec_us);
        if let Some(n) = r.insts {
            lp.insts.push(n as f64);
            if p.source.as_siro().is_some() {
                lp.parse_bytes += p.text.len() as f64;
            }
        }
        lp.hops.push(r.hops as f64);
    }
    Ok(r)
}

fn fresh_engine(wl: &Workload) -> Engine {
    let engine = Engine::new(Arc::new(Metrics::default()));
    served::build_graphs(&engine, wl.kind);
    engine
}

/// Hot workloads: every execution on the daemon's own engine, whose
/// routers memoized the warm-up's routes.
fn loop_hot(
    tr: &mut Tracer,
    prepared: &Prepared,
    run: Duration,
    probes: &mut Probes,
    probe: &TranslatorStore,
) -> Result<Loop, String> {
    let wl = &prepared.wl;
    let engine = prepared.handle.engine();
    // Every translator the warm-up synthesized: its stage timings, and
    // the compile tier's and store's calls on it.
    for &a in &IrVersion::CATALOG {
        for &b in &IrVersion::CATALOG {
            let config = SynthesisConfig::new(a, b);
            let corpus = engine.router().corpus(a, b);
            if a != b && !corpus.is_empty() && TranslatorCache::is_warm(&config, &corpus) {
                let outcome = TranslatorCache::get_or_synthesize(config, &corpus)
                    .map_err(|e| format!("warm outcome {a}->{b}: {e}"))?;
                outcome_probes(probes, &outcome, probe);
            }
        }
    }
    if !probes.outcomes.is_empty() {
        probes
            .bytes_per_pair
            .push(check::dir_bytes(probe.dir()) as f64 / probes.outcomes.len() as f64);
    }

    let mut client = served::connect(prepared.handle.addr())?;
    let mut lp = Loop::default();
    let before = TranslatorCache::snapshot();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < run {
        let k = wl.ops[i % wl.ops.len()] as usize;
        let at = Targets {
            replay: engine,
            execute: engine,
            client: &mut client,
        };
        run_op(
            tr,
            &mut lp,
            i as u32,
            wl,
            k,
            at,
            &mut || Ok(()),
            &mut || Ok(prepared.expects[k].clone()),
        )?;
        i += 1;
    }
    let after = TranslatorCache::snapshot();
    lp.cache_hits = after.hits.saturating_sub(before.hits);
    lp.cache_misses = after.misses.saturating_sub(before.misses);
    Ok(lp)
}

/// `cold_pairs`: the replay, `Engine::execute` and the loopback each get
/// their own engine and run from emptied caches and a fresh store; all
/// three are replaced when the permutation pass ends.
fn loop_cold(
    tr: &mut Tracer,
    prepared: &mut Prepared,
    run: Duration,
    probes: &mut Probes,
    probe: &TranslatorStore,
    work: &WorkDir,
) -> Result<Loop, String> {
    let wl = &prepared.wl;
    let mut replay_engine = fresh_engine(wl);
    let mut exec_engine = fresh_engine(wl);
    let mut client = served::connect(prepared.handle.addr())?;
    let mut lp = Loop::default();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < run {
        if i > 0 && i.is_multiple_of(wl.pass_len) {
            replay_engine = fresh_engine(wl);
            exec_engine = fresh_engine(wl);
            let fresh = served::boot(wl)?;
            std::mem::replace(&mut prepared.handle, fresh).shutdown();
            client = served::connect(prepared.handle.addr())?;
        }
        let k = wl.ops[i % wl.ops.len()] as usize;
        let key = wl.keys[k];
        let mut store_bytes = 0.0;
        let mut snap = (0, 0);
        let at = Targets {
            replay: &replay_engine,
            execute: &exec_engine,
            client: &mut client,
        };
        let r = run_op(
            tr,
            &mut lp,
            i as u32,
            wl,
            k,
            at,
            &mut || check::cold_start(work),
            &mut || {
                // Read right after the replay and execute, before the
                // loopback's reset.
                let s = TranslatorCache::snapshot();
                snap = (s.hits, s.misses);
                store_bytes = check::dir_bytes(&work.path().join("store")) as f64;
                check::expect(&replay_engine, wl.payload(&key), key.target)
            },
        )?;
        lp.cache_hits += snap.0;
        lp.cache_misses += snap.1;
        if store_bytes > 0.0 {
            probes.bytes_per_pair.push(store_bytes);
        }
        if let Some(outcome) = &r.fresh {
            outcome_probes(probes, outcome, probe);
        }
        i += 1;
    }
    Ok(lp)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn synth_ms(
    outcomes: &[Arc<SynthesisOutcome>],
    stage: fn(&siro_synth::StageTimings) -> Duration,
) -> f64 {
    let v: Vec<f64> = outcomes
        .iter()
        .map(|o| stage(&o.report.timings).as_secs_f64() * 1e3)
        .collect();
    util::median(&v)
}

/// The `--trace 1` run. Returns the result line's fields.
pub fn run(kind: Kind, seed: u64, seconds: u64) -> Result<Report, String> {
    let work = WorkDir::create().map_err(|e| format!("work dir: {e}"))?;
    let cold = if kind.is_cold() {
        Some(served::screen_cold(kind, seed, &work)?)
    } else {
        None
    };
    check::reset_caches();
    let mut prepared = served::prepare(kind, seed, cold.as_ref())?;
    served::print_stream(&prepared.wl);
    prepared.excluded.print(&prepared.wl);
    let mut probes = Probes::default();
    router_probes(&mut probes);

    let counters = Counters::read();
    let mut tr = Tracer::new();
    let run = Duration::from_secs(seconds);
    // Translators are saved here, away from the store the ops use, to
    // time the store's calls.
    let probe = TranslatorStore::open(siro_synth::StoreConfig::at(work.path().join("probe")))
        .map_err(|e| format!("probe store: {e}"))?;
    let lp = if kind.is_cold() {
        loop_cold(&mut tr, &mut prepared, run, &mut probes, &probe, &work)?
    } else {
        loop_hot(&mut tr, &prepared, run, &mut probes, &probe)?
    };
    let after = Counters::read();
    wir_layer_probes(&mut tr);
    let Prepared { handle, .. } = prepared;
    handle.shutdown();

    let spans_path = std::path::Path::new(".bench_work").join(format!("spans-{}.tsv", kind.name()));
    match tr.write_tsv(&spans_path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tr.spans.len(),
            spans_path.display()
        ),
        Err(e) => println!("spans: not written ({e})"),
    }

    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let (r0, r1) = (&counters.router, &after.router);
    let routed = d(r0.direct, r1.direct) + d(r0.composed, r1.composed);
    let (c0, c1) = (&counters.compile, &after.compile);
    let tiered = d(c0.translations_compiled, c1.translations_compiled)
        + d(c0.translations_interpreted, c1.translations_interpreted);
    let parse_us = tr.durations(&["ir.parse"]);
    let (children, roots, execs) = lp.sums.iter().fold((0.0, 0.0, 0.0), |acc, s| {
        (acc.0 + s.0, acc.1 + s.1, acc.2 + s.2)
    });
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let outcomes = &probes.outcomes;
    let candidates: usize = outcomes
        .iter()
        .map(|o| o.report.candidate_counts.values().sum::<usize>())
        .sum();
    let refined: usize = outcomes
        .iter()
        .map(|o| o.report.refined_counts.values().sum::<usize>())
        .sum();
    let validated: Vec<f64> = outcomes
        .iter()
        .map(|o| o.report.assignments_validated as f64)
        .collect();

    let metrics = vec![
        Metric::new("ir.parse_us", util::median(&parse_us), "us"),
        Metric::new(
            "ir.parse_mb_s",
            ratio(lp.parse_bytes, parse_us.iter().sum::<f64>()),
            "MB/s",
        ),
        Metric::new(
            "ir.verify_in_us",
            util::median(&tr.durations(&["ir.verify_in"])),
            "us",
        ),
        Metric::new(
            "ir.verify_out_us",
            util::median(&tr.durations(&["ir.verify_out"])),
            "us",
        ),
        Metric::new(
            "ir.write_us",
            util::median(&tr.durations(&["ir.write"])),
            "us",
        ),
        Metric::new("ir.insts_per_op", mean(&lp.insts), "count"),
        Metric::new(
            "router.plan_us",
            util::median(&tr.durations(&["router.plan"])),
            "us",
        ),
        Metric::new(
            "router.acquire_us",
            util::median(&tr.durations(&["router.acquire"])),
            "us",
        ),
        Metric::new(
            "router.composed_share",
            ratio(d(r0.composed, r1.composed), routed),
            "ratio",
        ),
        Metric::new("router.hops_mean", mean(&lp.hops), "count"),
        Metric::new("router.first_plan_ms", probes.first_plan_ms, "ms"),
        Metric::new(
            "translate.us",
            util::median(&tr.durations(&["translate"])),
            "us",
        ),
        Metric::new(
            "compile.compiled_share",
            ratio(
                d(c0.translations_compiled, c1.translations_compiled),
                tiered,
            ),
            "ratio",
        ),
        Metric::new(
            "compile.fallbacks",
            d(c0.runtime_fallbacks, c1.runtime_fallbacks) + d(c0.lower_failures, c1.lower_failures),
            "count",
        ),
        Metric::new("serve.execute_us", util::median(&lp.exec_us), "us"),
        Metric::new("serve.wire_us", util::median(&lp.wire_us), "us"),
        Metric::new("serve.protocol_us", util::median(&lp.protocol_us), "us"),
        Metric::new("serve.frame_bytes", mean(&lp.frame_bytes), "bytes"),
        Metric::new(
            "wir.parse_us",
            layer_p50(&tr, &["wir.parse"], "probe.wir.parse"),
            "us",
        ),
        Metric::new(
            "wir.write_us",
            layer_p50(&tr, &["wir.write"], "probe.wir.write"),
            "us",
        ),
        Metric::new(
            "bridge.us",
            layer_p50(&tr, &["bridge.lower", "bridge.raise"], "probe.bridge"),
            "us",
        ),
        Metric::new(
            "cache.hit_ratio",
            served::hit_ratio(lp.cache_hits, lp.cache_misses),
            "ratio",
        ),
        Metric::new("synth.total_ms", synth_ms(outcomes, |t| t.total()), "ms"),
        Metric::new(
            "synth.generation_ms",
            synth_ms(outcomes, |t| t.generation),
            "ms",
        ),
        Metric::new(
            "synth.profiling_ms",
            synth_ms(outcomes, |t| t.profiling),
            "ms",
        ),
        Metric::new(
            "synth.enumeration_ms",
            synth_ms(outcomes, |t| t.enumeration),
            "ms",
        ),
        Metric::new(
            "synth.validation_ms",
            synth_ms(outcomes, |t| t.validation),
            "ms",
        ),
        Metric::new(
            "synth.refinement_ms",
            synth_ms(outcomes, |t| t.refinement),
            "ms",
        ),
        Metric::new(
            "synth.completion_ms",
            synth_ms(outcomes, |t| t.completion),
            "ms",
        ),
        Metric::new(
            "synth.refined_share",
            ratio(refined as f64, candidates as f64),
            "ratio",
        ),
        Metric::new("synth.assignments_validated", mean(&validated), "count"),
        Metric::new("synth.oracle_corpus_ms", probes.oracle_corpus_ms, "ms"),
        Metric::new("compile.lower_us", util::median(&probes.lower_us), "us"),
        Metric::new("store.save_ms", util::median(&probes.save_ms), "ms"),
        Metric::new(
            "store.bytes_per_pair",
            mean(&probes.bytes_per_pair),
            "bytes",
        ),
        Metric::new(
            "layers.unaccounted_share",
            1.0 - ratio(children, execs),
            "ratio",
        ),
        Metric::new("trace.overhead_share", ratio(roots, execs) - 1.0, "ratio"),
    ];

    let calls: BTreeMap<&str, usize> = tr.spans.iter().fold(BTreeMap::new(), |mut m, s| {
        *m.entry(s.name).or_default() += 1;
        m
    });
    println!(
        "traced ops: {} ({} synthesized translators probed); spans per name: {}",
        lp.attempted,
        outcomes.len(),
        calls
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "ops failed: {} ({})",
        lp.failures.total(),
        lp.failures.describe()
    );
    println!("{:<30} {:>14}  unit", "per-layer metric", "value");
    for m in &metrics {
        println!("{:<30} {:>14.4}  {}", m.name, m.value, m.unit);
    }
    Ok(Report {
        correct: lp.failures.mismatches() == 0,
        attempted: lp.attempted,
        failed: lp.failures.total(),
        metrics,
    })
}
