//! The end-to-end run: a `siro-serve` daemon in this process on loopback
//! (default event engine, default worker count), driven closed-loop by one
//! client that waits for every reply. One caller, not one per core: on a
//! two-core host a second client thread competes with the daemon's reactor
//! and workers for the cores. With two, `small_pairs`' workers planned
//! every request under the same router locks and its run-to-run spread
//! rose from a few percent to 14-25%, and `large_modules`' tail spread
//! rose from 6% to 17%.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use siro_ir::{DialectVersion, IrVersion};
use siro_serve::{Client, Engine, ServeConfig, ServerHandle, TranslateMode};
use siro_synth::TranslatorCache;

use crate::check::{self, Expect, Failures, RouteKind, Verdict, WorkDir};
use crate::util::{self, Metric, Report};
use crate::workload::{Kind, Workload};

/// Share of a run's measuring windows whose ops the timings pool: the
/// windows with the least time per successful op. On a shared host the
/// neighbours' load slows every timing by up to 1.6x for seconds at a
/// time, and stalls single requests for milliseconds, while host CPU
/// steal can stay near 0 (a fixed loop on registers keeps its speed, a
/// fixed loop that touches memory does not). The timings then read the
/// program as it runs on a quiet host, as long as such spells cover less
/// than half of a run.
const KEPT_SHARE: f64 = 0.5;
/// Ops per measuring window on the hot workloads, about as many as a
/// `cold_pairs` window holds: that one is a whole segment, about 130 ops.
/// So every workload's tail is about p92.
const HOT_WINDOW_OPS: usize = 128;
/// Segments per run. Each sets up from empty caches and a fresh daemon,
/// then measures an equal share of the run; `setup_s` is the median of
/// their set-ups.
const SEGMENTS: u32 = 5;

pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    let mut client =
        Client::connect(addr, Duration::from_secs(30)).map_err(|e| format!("connect: {e}"))?;
    client.set_op_timeout(Some(Duration::from_secs(60)));
    Ok(client)
}

/// Makes an engine's fresh routers build their graphs (and with them every
/// edge corpus), so the first measured op does not pay for it.
pub fn build_graphs(engine: &Engine, kind: Kind) {
    engine.router().plan(IrVersion::V13_0, IrVersion::V3_6);
    if kind != Kind::LargeModules {
        engine
            .dialect_router()
            .plan(DialectVersion::wir(1, 0), DialectVersion::wir(2, 0));
    }
}

/// Starts a daemon with its routers' graphs built.
pub fn boot(wl: &Workload) -> Result<ServerHandle, String> {
    let handle = siro_serve::start(ServeConfig::default()).map_err(|e| format!("serve: {e}"))?;
    build_graphs(handle.engine(), wl.kind);
    Ok(handle)
}

/// Keys the daemon answers with an error before the run measures: known
/// program defects (a text the parser rejects, a route through a version
/// that lacks an instruction, a translation the verifier rejects). Their
/// ops leave the measured stream, so every measured op can succeed, and
/// the report prints them by error code, so a fix shows as fewer keys.
/// A key answered with wrong bytes is not excluded: it stays in the stream
/// and fails there.
#[derive(Debug, Default, Clone)]
pub struct Excluded {
    pub keys: BTreeSet<u32>,
    pub by_code: Failures,
    /// The first error message per error code.
    pub examples: BTreeMap<&'static str, String>,
    /// Share of the generated op stream that the excluded keys held.
    pub op_share: f64,
    /// Wall time the screen took, in s.
    pub screen_s: f64,
}

impl Excluded {
    fn note(&mut self, k: usize, code: &'static str, message: impl FnOnce() -> String) {
        self.keys.insert(k as u32);
        self.by_code.note(Verdict::Error(code));
        self.examples.entry(code).or_insert_with(message);
    }

    pub fn print(&self, wl: &Workload) {
        println!(
            "excluded as known defects: {} of {} keys ({}), {:.2}% of the generated ops, screened in {:.3} s",
            self.keys.len(),
            wl.keys.len(),
            self.by_code.describe(),
            100.0 * self.op_share,
            self.screen_s
        );
        for (code, e) in &self.examples {
            println!("  first {code}: {e}");
        }
    }
}

/// `cold_pairs`' screen: one cold pass over every key on a daemon of its
/// own, run once before the segments. Each op synthesizes its pair, so
/// the error it answers with is the one a measured cold op would get.
pub fn screen_cold(kind: Kind, seed: u64, work: &WorkDir) -> Result<Excluded, String> {
    let t0 = Instant::now();
    let wl = Workload::generate(kind, seed);
    let handle = boot(&wl)?;
    let mut client = connect(handle.addr())?;
    let mut excluded = Excluded::default();
    for k in 0..wl.keys.len() {
        let op = cold_op(&handle, &mut client, &wl, k, work)?;
        if let Verdict::Error(code) = op.verdict {
            excluded.note(k, code, || op.error.unwrap_or_default());
        }
    }
    drop(client);
    handle.shutdown();
    excluded.screen_s = t0.elapsed().as_secs_f64();
    Ok(excluded)
}

/// A workload ready to measure: inputs, a booted daemon and, for the hot
/// workloads, every pair warmed and every expected output computed.
pub struct Prepared {
    pub wl: Workload,
    pub handle: ServerHandle,
    /// Expected output per key; empty for `cold_pairs`, whose outputs are
    /// known only once each op has synthesized its pair.
    pub expects: Vec<Expect>,
    /// Keys taken out of the op stream.
    pub excluded: Excluded,
    pub setup_s: f64,
}

/// Sets a workload up. The hot workloads screen their keys here, after
/// the warm-up; `cold_pairs` takes the exclusions of [`screen_cold`].
pub fn prepare(kind: Kind, seed: u64, cold: Option<&Excluded>) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let mut wl = Workload::generate(kind, seed);
    let handle = boot(&wl)?;
    let mut expects = Vec::new();
    let mut excluded = cold.cloned().unwrap_or_default();
    if !kind.is_cold() {
        // Warm-up: every key once, pair by pair in the workload's order,
        // which decides the routes that compose.
        let mut client = connect(handle.addr())?;
        for key in &wl.keys {
            let p = wl.payload(key);
            let _ = client.translate(
                p.source,
                key.target,
                TranslateMode::Synthesized,
                p.text.clone(),
            );
        }
        for key in &wl.keys {
            expects.push(check::expect(handle.engine(), wl.payload(key), key.target)?);
        }
        // Screen: every key once more, now on the routes the warm-up left.
        // Keys whose route cannot translate them are answered with an
        // error here too.
        let t = Instant::now();
        for (k, key) in wl.keys.iter().enumerate() {
            let p = wl.payload(key);
            let r = client.translate(
                p.source,
                key.target,
                TranslateMode::Synthesized,
                p.text.clone(),
            );
            if let Verdict::Error(code) = check::judge(&expects[k], &r) {
                excluded.note(k, code, || {
                    let e = r.err().map(|e| e.to_string()).unwrap_or_default();
                    format!("{} -> {}: {e}", p.source, key.target)
                });
            }
        }
        excluded.screen_s = t.elapsed().as_secs_f64();
    }
    let generated = wl.ops.len();
    wl.drop_keys(&excluded.keys);
    excluded.op_share = 1.0 - wl.ops.len() as f64 / generated as f64;
    if wl.ops.is_empty() {
        return Err(format!("every key of {} was excluded", kind.name()));
    }
    Ok(Prepared {
        wl,
        handle,
        expects,
        excluded,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// Successful ops measured over one stretch of time.
#[derive(Debug, Default)]
pub struct Window {
    /// Round trips of the successful ops, in ms.
    pub ok_ms: Vec<f64>,
    /// Wall time the window's ops took, in s.
    pub wall_s: f64,
}

impl Window {
    /// Time per successful op, which orders windows from the least
    /// disturbed to the most.
    fn cost(&self) -> f64 {
        if self.ok_ms.is_empty() {
            f64::INFINITY
        } else {
            self.wall_s / self.ok_ms.len() as f64
        }
    }
}

/// What one measured run observed.
#[derive(Default)]
pub struct Observed {
    pub windows: Vec<Window>,
    pub attempted: u64,
    pub failures: Failures,
    /// Ops per key.
    pub per_key: Vec<u64>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// The first error message seen per error code.
    pub examples: BTreeMap<&'static str, String>,
}

impl Observed {
    fn ok(&self) -> usize {
        self.windows.iter().map(|w| w.ok_ms.len()).sum()
    }

    /// Adds another segment's observations to these.
    fn absorb(&mut self, other: Observed) {
        self.windows.extend(other.windows);
        self.attempted += other.attempted;
        self.failures.absorb(other.failures);
        if self.per_key.is_empty() {
            self.per_key = other.per_key;
        } else {
            for (a, b) in self.per_key.iter_mut().zip(other.per_key) {
                *a += b;
            }
        }
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        for (code, e) in other.examples {
            self.examples.entry(code).or_insert(e);
        }
    }
}

struct Driven {
    /// Per [`HOT_WINDOW_OPS`] ops: the successful ones as (key, ms), and the
    /// window's wall time in s.
    windows: Vec<(Vec<(u32, f64)>, f64)>,
    bad: Vec<(u32, Verdict)>,
    first_text: Vec<Option<String>>,
    /// The first error message seen per error code.
    examples: BTreeMap<&'static str, String>,
}

fn drive(wl: &Workload, expects: &[Expect], client: &mut Client, run: Duration) -> Driven {
    let mut windows = Vec::new();
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    let mut first_text = vec![None; wl.keys.len()];
    let mut examples = BTreeMap::new();
    let start = Instant::now();
    let mut window = start;
    let mut i = 0;
    while start.elapsed() < run {
        if i > 0 && i % HOT_WINDOW_OPS == 0 {
            windows.push((std::mem::take(&mut ok), window.elapsed().as_secs_f64()));
            window = Instant::now();
        }
        let k = wl.ops[i % wl.ops.len()] as usize;
        i += 1;
        let key = wl.keys[k];
        let p = wl.payload(&key);
        let text = p.text.clone();
        let t = Instant::now();
        let r = client.translate(p.source, key.target, TranslateMode::Synthesized, text);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match check::judge(&expects[k], &r) {
            Verdict::Ok => {
                if first_text[k].is_none() {
                    first_text[k] = r.ok().map(|t| t.text);
                }
                ok.push((k as u32, ms));
            }
            v => {
                let code = match v {
                    Verdict::Error(code) => code,
                    _ => "mismatch",
                };
                examples.entry(code).or_insert_with(|| match &r {
                    Err(e) => format!("{} -> {}: {e}", p.source, key.target),
                    Ok(_) => format!("{} -> {}: bytes differ", p.source, key.target),
                });
                bad.push((k as u32, v));
            }
        }
    }
    windows.push((ok, window.elapsed().as_secs_f64()));
    Driven {
        windows,
        bad,
        first_text,
        examples,
    }
}

/// Hot workloads: the op stream on one connection, for `run`.
pub fn measure_hot(p: &Prepared, run: Duration) -> Result<Observed, String> {
    let wl = &p.wl;
    let mut client = connect(p.handle.addr())?;
    let before = TranslatorCache::snapshot();
    let r = drive(wl, &p.expects, &mut client, run);
    let after = TranslatorCache::snapshot();

    // Semantic check of one served text per key; byte identity carries
    // the verdict to every other response of that key.
    let semantic_bad: Vec<bool> = r
        .first_text
        .iter()
        .enumerate()
        .map(|(k, text)| {
            text.as_ref()
                .is_some_and(|t| !check::semantic_ok(&p.expects[k], t))
        })
        .collect();
    let mut obs = Observed {
        per_key: vec![0; wl.keys.len()],
        cache_hits: after.hits.saturating_sub(before.hits),
        cache_misses: after.misses.saturating_sub(before.misses),
        ..Observed::default()
    };
    for (ok, wall_s) in r.windows {
        let mut window = Window {
            ok_ms: Vec::with_capacity(ok.len()),
            wall_s,
        };
        for (k, ms) in ok {
            obs.per_key[k as usize] += 1;
            if semantic_bad[k as usize] {
                obs.failures.note(Verdict::Mismatch);
                let key = wl.keys[k as usize];
                let e = &p.expects[k as usize];
                obs.examples.entry("mismatch").or_insert_with(|| {
                    format!(
                        "{} -> {}: semantic check failed ({} route, {} hops)",
                        wl.payload(&key).source,
                        key.target,
                        e.route.name(),
                        e.hops
                    )
                });
            } else {
                window.ok_ms.push(ms);
            }
        }
        obs.windows.push(window);
    }
    for (k, v) in r.bad {
        obs.per_key[k as usize] += 1;
        obs.failures.note(v);
    }
    for (code, e) in r.examples {
        obs.examples.entry(code).or_insert(e);
    }
    obs.attempted = obs.per_key.iter().sum();
    Ok(obs)
}

/// One cold op as the client saw it.
pub struct ColdOp {
    pub ms: f64,
    pub verdict: Verdict,
    /// Translator-cache hits and misses during the op.
    pub hits: u64,
    pub misses: u64,
    pub error: Option<String>,
}

/// The first request of a pair, with every cache and store emptied first.
pub fn cold_op(
    handle: &ServerHandle,
    client: &mut Client,
    wl: &Workload,
    k: usize,
    work: &WorkDir,
) -> Result<ColdOp, String> {
    check::cold_start(work)?;
    let key = wl.keys[k];
    let p = wl.payload(&key);
    let text = p.text.clone();
    let t = Instant::now();
    let r = client.translate(p.source, key.target, TranslateMode::Synthesized, text);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let snap = TranslatorCache::snapshot();
    let verdict = match (check::expect(handle.engine(), p, key.target), &r) {
        (Ok(e), _) => match check::judge(&e, &r) {
            Verdict::Ok if !check::semantic_ok(&e, &r.as_ref().expect("judged ok").text) => {
                Verdict::Mismatch
            }
            v => v,
        },
        (Err(_), Err(e)) => Verdict::Error(check::error_name(e)),
        (Err(_), Ok(_)) => Verdict::Mismatch,
    };
    Ok(ColdOp {
        ms,
        verdict,
        hits: snap.hits,
        misses: snap.misses,
        error: r
            .err()
            .map(|e| format!("{} -> {}: {e}", p.source, key.target)),
    })
}

/// `cold_pairs`: one serial caller; the daemon restarts between passes so
/// no pair repeats on a daemon whose routers memoized its chain. The
/// measured wall time is the sum of the round trips: the resets and
/// checks between ops are the benchmark's work, not the daemon's.
pub fn measure_cold(
    p: &mut Prepared,
    run: Duration,
    work: &WorkDir,
    first_op: usize,
) -> Result<Observed, String> {
    let wl = &p.wl;
    let mut obs = Observed {
        per_key: vec![0; wl.keys.len()],
        ..Observed::default()
    };
    let mut window = Window::default();
    let mut client = connect(p.handle.addr())?;
    let start = Instant::now();
    let mut i = first_op;
    while start.elapsed() < run {
        if i > first_op && i.is_multiple_of(wl.pass_len) {
            let fresh = boot(wl)?;
            std::mem::replace(&mut p.handle, fresh).shutdown();
            client = connect(p.handle.addr())?;
        }
        let k = wl.ops[i % wl.ops.len()] as usize;
        i += 1;
        let op = cold_op(&p.handle, &mut client, wl, k, work)?;
        obs.per_key[k] += 1;
        obs.cache_hits += op.hits;
        obs.cache_misses += op.misses;
        window.wall_s += op.ms / 1e3;
        match op.verdict {
            Verdict::Ok => window.ok_ms.push(op.ms),
            v => obs.failures.note(v),
        }
        if let (Verdict::Error(code), Some(e)) = (op.verdict, op.error) {
            obs.examples.entry(code).or_insert(e);
        }
    }
    obs.windows.push(window);
    obs.attempted = obs.per_key.iter().sum();
    Ok(obs)
}

/// Route kind of each key: from its expectation on the hot workloads, by
/// pair dialects on `cold_pairs` (every cold route is one hop).
pub fn key_routes(wl: &Workload, expects: &[Expect]) -> Vec<(RouteKind, usize)> {
    wl.keys
        .iter()
        .enumerate()
        .map(|(k, key)| match expects.get(k) {
            Some(e) => (e.route, e.hops),
            None => {
                let src = wl.payload(key).source;
                let kind = match (src.as_siro(), key.target.as_siro()) {
                    (Some(_), Some(_)) => RouteKind::Direct,
                    (None, None) => RouteKind::Wir,
                    _ => RouteKind::Bridge,
                };
                (kind, 1)
            }
        })
        .collect()
}

/// The per-workload shape: share of ops by route kind, mean hops, insts
/// and bytes per op, and the cache hit ratio.
pub fn shape_line(
    wl: &Workload,
    routes: &[(RouteKind, usize)],
    per_key: &[u64],
    hit_ratio: f64,
) -> String {
    let total = per_key.iter().sum::<u64>().max(1) as f64;
    let mut by_kind = [0u64; 4];
    let (mut hops, mut insts, mut bytes) = (0.0, 0.0, 0.0);
    for (k, &n) in per_key.iter().enumerate() {
        let (route, h) = routes[k];
        by_kind[route as usize] += n;
        let p = wl.payload(&wl.keys[k]);
        hops += (h as u64 * n) as f64;
        insts += (p.insts as u64 * n) as f64;
        bytes += (p.text.len() as u64 * n) as f64;
    }
    let shares: Vec<String> = RouteKind::ALL
        .iter()
        .map(|r| {
            format!(
                "{} {:.1}%",
                r.name(),
                100.0 * by_kind[*r as usize] as f64 / total
            )
        })
        .collect();
    format!(
        "shape: {}; per op: {:.2} hops, {:.1} insts, {:.0} bytes; cache hit ratio {:.4}",
        shares.join(", "),
        hops / total,
        insts / total,
        bytes / total,
        hit_ratio
    )
}

pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Timings over some windows: throughput and p50 pooled over their ops,
/// the tail the median of the windows' own tails. A window's tail is the
/// highest percentile, up to p99, with at least ten successful ops beyond
/// it: about p92 for the windows of every workload. Pooled, the p99 of
/// `large_modules` read 2.7 to 6.8 ms from run to run, and the p99 of
/// 250 ms windows of `small_pairs` 0.38 to 1.6 ms, set by the host
/// stalling requests for milliseconds; the median over windows of about
/// p92 is not.
struct Timings {
    throughput: f64,
    p50: f64,
    tail: f64,
    tail_q: f64,
    ok: usize,
}

impl Timings {
    fn of<'a>(windows: impl IntoIterator<Item = &'a Window>) -> Timings {
        let mut lat = Vec::new();
        let mut wall_s = 0.0;
        let (mut tails, mut quantiles) = (Vec::new(), Vec::new());
        for w in windows {
            let mut own = w.ok_ms.clone();
            own.sort_by(f64::total_cmp);
            if let Some((q, v)) = util::tail(&own) {
                quantiles.push(q);
                tails.push(v);
            }
            lat.extend_from_slice(&w.ok_ms);
            wall_s += w.wall_s;
        }
        lat.sort_by(f64::total_cmp);
        let p50 = util::nearest_rank(&lat, 0.5).unwrap_or(0.0);
        // Windows too short for a tail of their own: the pooled one.
        let (tail_q, tail) = if tails.is_empty() {
            util::tail(&lat).unwrap_or((1.0, lat.last().copied().unwrap_or(0.0)))
        } else {
            (util::median(&quantiles), util::median(&tails))
        };
        let throughput = if wall_s > 0.0 {
            lat.len() as f64 / wall_s
        } else {
            0.0
        };
        Timings {
            throughput,
            p50,
            tail,
            tail_q,
            ok: lat.len(),
        }
    }
}

/// The [`KEPT_SHARE`] of the windows with the least time per successful
/// op.
fn least_disturbed(windows: &[Window]) -> Vec<&Window> {
    let mut kept: Vec<&Window> = windows.iter().collect();
    kept.sort_by(|a, b| a.cost().total_cmp(&b.cost()));
    kept.truncate((windows.len() as f64 * KEPT_SHARE).ceil() as usize);
    kept
}

/// The `--trace 0` run.
pub fn run(kind: Kind, seed: u64, seconds: u64) -> Result<Report, String> {
    let work = WorkDir::create().map_err(|e| format!("work dir: {e}"))?;
    let segment = Duration::from_secs(seconds) / SEGMENTS;
    let mut setups = Vec::new();
    let mut total = Observed::default();
    let mut last = None;
    let cold = if kind.is_cold() {
        Some(screen_cold(kind, seed, &work)?)
    } else {
        None
    };
    for s in 0..SEGMENTS as usize {
        check::reset_caches();
        let mut prepared = prepare(kind, seed, cold.as_ref())?;
        if s == 0 {
            print_stream(&prepared.wl);
            prepared.excluded.print(&prepared.wl);
        }
        let obs = if kind.is_cold() {
            // Each segment starts a new permutation pass.
            let first_op = s * prepared.wl.pass_len;
            measure_cold(&mut prepared, segment, &work, first_op)?
        } else {
            measure_hot(&prepared, segment)?
        };
        let t = Timings::of(&obs.windows);
        println!(
            "segment {}: set-up {:.3} s; {} ok ops, p50 {:.4} ms, tail p{:.1} {:.4} ms, throughput {:.1} ops/s",
            s + 1,
            prepared.setup_s,
            t.ok,
            t.p50,
            t.tail_q * 100.0,
            t.tail,
            t.throughput
        );
        setups.push(prepared.setup_s);
        total.absorb(obs);
        let Prepared {
            wl,
            handle,
            expects,
            ..
        } = prepared;
        handle.shutdown();
        last = Some((wl, expects));
    }
    let (wl, expects) = last.expect("at least one segment");

    let routes = key_routes(&wl, &expects);
    println!(
        "{}",
        shape_line(
            &wl,
            &routes,
            &total.per_key,
            hit_ratio(total.cache_hits, total.cache_misses)
        )
    );
    println!(
        "ops: attempted {} ok {} failed {} ({})",
        total.attempted,
        total.ok(),
        total.failures.total(),
        total.failures.describe()
    );
    for (code, e) in &total.examples {
        println!("  first {code}: {e}");
    }
    let kept = least_disturbed(&total.windows);
    let t = Timings::of(kept.iter().copied());
    // `cold_pairs` screens once per run, with a synthesis of every pair:
    // that is set-up too.
    let setup_s = util::median(&setups) + cold.as_ref().map_or(0.0, |c| c.screen_s);
    println!(
        "{} of {} windows, {} ok ops: p50 {:.4} ms, tail p{:.1} {:.4} ms, throughput {:.1} ops/s; median set-up {setup_s:.3} s",
        kept.len(),
        total.windows.len(),
        t.ok,
        t.p50,
        t.tail_q * 100.0,
        t.tail,
        t.throughput
    );
    // Printed, not reported: on `cold_pairs` the peak flips between about
    // 90 and 195 MB from run to run with the host's speed, wider than any
    // bound a metric may have.
    println!("peak rss {:.1} MB", util::peak_rss_mb());
    let metrics = vec![
        Metric::new("throughput_rps", t.throughput, "1/s"),
        Metric::new("latency_p50_ms", t.p50, "ms"),
        Metric::new("latency_tail_ms", t.tail, "ms"),
        Metric::new("setup_s", setup_s, "s"),
    ];
    Ok(Report {
        correct: total.failures.mismatches() == 0,
        attempted: total.attempted,
        failed: total.failures.total(),
        metrics,
    })
}

pub fn print_stream(wl: &Workload) {
    println!(
        "op stream: {} ops over {} keys ({} payloads, {} pairs), hash {:016x}",
        wl.ops.len(),
        wl.keys.len(),
        wl.payloads.len(),
        wl.pairs.len(),
        wl.stream_hash()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(ms: &[f64]) -> Window {
        Window {
            ok_ms: ms.to_vec(),
            wall_s: ms.iter().sum::<f64>() / 1e3,
        }
    }

    #[test]
    fn timings_pool_the_least_disturbed_half() {
        // Two quiet windows, two the host slowed down, one with no
        // successful op.
        let windows = [
            window(&[1.6, 1.6]),
            window(&[1.0, 1.0, 2.0]),
            window(&[]),
            window(&[1.0, 1.0]),
            window(&[1.5, 3.0]),
        ];
        let kept = least_disturbed(&windows);
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0].ok_ms, [1.0, 1.0]);
        assert_eq!(kept[1].ok_ms, [1.0, 1.0, 2.0]);
        assert_eq!(kept[2].ok_ms, [1.6, 1.6]);
        let t = Timings::of(kept.iter().copied());
        assert_eq!(t.ok, 7);
        assert_eq!(t.p50, 1.0);
        assert!((t.throughput - 7.0 / 9.2e-3).abs() < 1e-6);
        // Too few ops for a window's own tail: the pooled one.
        assert_eq!(t.tail, 2.0);
    }

    #[test]
    fn tail_is_the_median_of_the_windows_tails() {
        // 100 ops per window, so each window's tail is its p90. One
        // window holds a stall.
        let ramp = |top: f64| -> Vec<f64> { (1..=100).map(|i| top * i as f64 / 100.0).collect() };
        let mut stalled = ramp(1.0);
        stalled[95..].fill(20.0);
        let windows = [window(&ramp(1.0)), window(&stalled), window(&ramp(1.1))];
        let t = Timings::of(&windows);
        assert!((t.tail_q - 0.9).abs() < 1e-12);
        assert_eq!(t.tail, 0.9);
    }
}
