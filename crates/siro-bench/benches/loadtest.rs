//! Sustained-load gate for the `siro-serve` event engine.
//!
//! Boots the daemon on loopback (`SIRO_THREADS` workers), drives it with
//! an open-loop rate sweep from `siro-loadgen` (latencies measured from
//! *scheduled* arrival — no coordinated omission), and reports the max
//! sustained RPS at the p99 SLO. The schedule is spread over many more
//! connections than there are workers, so the sweep also exercises
//! connection scalability: one reactor thread owns every socket.
//!
//! Dumps `BENCH_loadtest.json` (`siro-bench/loadtest-v2`, path
//! overridable via `SIRO_BENCH_LOADTEST_JSON`) and exits non-zero when
//! the max sustained rate falls below `SIRO_LOADTEST_MIN_RPS` (default
//! 10000, `0` disables the floor).
//!
//! Knobs: `SIRO_LOADTEST_CONNS` (default 384), `SIRO_LOADTEST_DURATION_MS`
//! (default 4000 — long enough that a server that can only *briefly*
//! survive a rate tips over instead of squeaking through the step),
//! `SIRO_LOADTEST_RATES` (comma-separated req/s, default
//! `2500,5000,10000,12000,15000,20000` — swept ascending, since max
//! sustained is prefix-monotone), `SIRO_LOADTEST_SLO_MS` (default 20).

use std::time::Duration;

use siro_bench::perf;
use siro_ir::IrVersion;
use siro_loadgen::{corpus_payloads, sweep, EngineRun, LoadgenConfig};
use siro_serve::{ServeConfig, TranslateMode};

/// Version-pair mix for the sweep. Requests use [`TranslateMode::Reference`]
/// so each request does real (but cheap) translate work on one shared core
/// and the serving core — not translator synthesis — is the variable
/// under measurement.
const PAIRS: [(IrVersion, IrVersion); 4] = [
    (IrVersion::V13_0, IrVersion::V3_6),
    (IrVersion::V12_0, IrVersion::V3_0),
    (IrVersion::V17_0, IrVersion::V12_0),
    (IrVersion::V15_0, IrVersion::V13_0),
];

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

fn env_rates(default: &[f64]) -> Vec<f64> {
    std::env::var("SIRO_LOADTEST_RATES")
        .ok()
        .map(|spec| {
            spec.split(',')
                .map(|s| s.trim().parse().expect("bad SIRO_LOADTEST_RATES entry"))
                .collect()
        })
        .unwrap_or_else(|| default.to_vec())
}

fn main() {
    let min_rps = env_f64("SIRO_LOADTEST_MIN_RPS", 10_000.0);
    let base = LoadgenConfig {
        connections: env_usize("SIRO_LOADTEST_CONNS", 384),
        duration: Duration::from_millis(env_usize("SIRO_LOADTEST_DURATION_MS", 4000) as u64),
        rates_rps: env_rates(&[2500.0, 5000.0, 10000.0, 12000.0, 15000.0, 20000.0]),
        slo_p99_ms: env_f64("SIRO_LOADTEST_SLO_MS", 20.0),
        payloads: corpus_payloads(&PAIRS, TranslateMode::Reference),
        connect_timeout: Duration::from_secs(10),
        warmup: true,
        ..LoadgenConfig::default()
    };

    let handle = siro_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 512,
        ..ServeConfig::default()
    })
    .expect("bind loopback server");
    siro_bench::banner(&format!(
        "loadtest [event]: {} workers on {}, {} connections, SLO p99 <= {} ms",
        handle.workers(),
        handle.addr(),
        base.connections,
        base.slo_p99_ms
    ));
    let config = LoadgenConfig {
        addr: handle.addr(),
        ..base
    };
    let report = sweep(&config).expect("rate sweep");
    print!("{}", siro_loadgen::render_table(&report));
    let run = EngineRun {
        engine: "event".into(),
        workers: handle.workers(),
        connections: config.connections,
        report,
    };
    handle.shutdown();

    let sustained = run.report.max_sustained_rps;
    siro_bench::banner(&format!(
        "max sustained RPS at SLO: {sustained:.0} (floor {min_rps:.0})"
    ));

    let json = siro_loadgen::render_loadtest_json(&[run]);
    match perf::write_loadtest_json(&json) {
        Ok(path) => println!("loadtest record written to {}", path.display()),
        Err(e) => eprintln!("warning: writing loadtest JSON: {e}"),
    }

    assert!(
        sustained > 0.0,
        "the event engine met the SLO at no swept rate — lower the rates or raise the SLO"
    );
    assert!(
        sustained >= min_rps,
        "the event engine sustained only {sustained:.0} req/s \
         (floor {min_rps:.0}; relax with SIRO_LOADTEST_MIN_RPS)"
    );
}
