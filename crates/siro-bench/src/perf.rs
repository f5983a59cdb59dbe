//! Machine-readable benchmark output: `BENCH_synthesis.json` and
//! `BENCH_serve.json`.
//!
//! The JSON is hand-rolled (the workspace is registry-free, so no serde):
//! a flat schema of per-pair stage timings plus the process-wide
//! [`TranslatorCache`] hit/miss counters, written to
//! `BENCH_synthesis.json` in the working directory or wherever
//! `SIRO_BENCH_JSON` points. The `serve_loopback` bench writes a
//! [`ServeRecord`] to `BENCH_serve.json` (overridable via
//! `SIRO_BENCH_SERVE_JSON`); the `warmstart` bench writes a
//! [`WarmstartRecord`] to `BENCH_warmstart.json` (overridable via
//! `SIRO_BENCH_WARMSTART_JSON`); the `router_matrix` bench writes a
//! [`RouterRecord`] to `BENCH_router.json` (overridable via
//! `SIRO_BENCH_ROUTER_JSON`).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use siro_ir::IrVersion;
use siro_synth::{StageTimings, SynthesisOutcome, TranslatorCache};

/// One pair's worth of benchmark data for the JSON dump.
#[derive(Debug, Clone)]
pub struct SynthRecord {
    /// Source version.
    pub source: IrVersion,
    /// Target version.
    pub target: IrVersion,
    /// Wall clock of the `TranslatorCache` lookup (≈ synthesis time on a
    /// miss, ≈ zero on a hit).
    pub wall: Duration,
    /// Whether the outcome came from the cache.
    pub from_cache: bool,
    /// Test cases consumed.
    pub tests_used: usize,
    /// Per-test translators validated.
    pub assignments_validated: u64,
    /// Rendered LOC of the final translator.
    pub translator_loc: usize,
    /// Per-stage breakdown (from the memoized report — identical on hit
    /// and miss).
    pub timings: StageTimings,
}

impl SynthRecord {
    /// Builds a record from a finished outcome.
    pub fn new(
        source: IrVersion,
        target: IrVersion,
        outcome: &SynthesisOutcome,
        wall: Duration,
        from_cache: bool,
    ) -> Self {
        SynthRecord {
            source,
            target,
            wall,
            from_cache,
            tests_used: outcome.report.tests_used,
            assignments_validated: outcome.report.assignments_validated,
            translator_loc: outcome.report.translator_loc,
            timings: outcome.report.timings,
        }
    }
}

/// Where the JSON goes: `SIRO_BENCH_JSON` if set, else
/// `BENCH_synthesis.json` in the current directory.
pub fn json_path() -> PathBuf {
    std::env::var_os("SIRO_BENCH_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_synthesis.json"))
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn secs(d: Duration) -> String {
    format!("{:.6}", d.as_secs_f64())
}

/// Renders the records plus current cache counters as a JSON document.
pub fn render_synthesis_json(records: &[SynthRecord]) -> String {
    let stats = TranslatorCache::stats();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"siro-bench/synthesis-v1\",");
    let _ = writeln!(out, "  \"threads\": {},", siro_synth::resolve_threads());
    let _ = writeln!(
        out,
        "  \"cache\": {{ \"hits\": {}, \"misses\": {} }},",
        stats.hits, stats.misses
    );
    out.push_str("  \"pairs\": [\n");
    for (i, r) in records.iter().enumerate() {
        let t = &r.timings;
        out.push_str("    {\n");
        let _ = writeln!(
            out,
            "      \"source\": {},",
            json_string(&r.source.to_string())
        );
        let _ = writeln!(
            out,
            "      \"target\": {},",
            json_string(&r.target.to_string())
        );
        let _ = writeln!(out, "      \"from_cache\": {},", r.from_cache);
        let _ = writeln!(out, "      \"wall_secs\": {},", secs(r.wall));
        let _ = writeln!(out, "      \"tests_used\": {},", r.tests_used);
        let _ = writeln!(
            out,
            "      \"assignments_validated\": {},",
            r.assignments_validated
        );
        let _ = writeln!(out, "      \"translator_loc\": {},", r.translator_loc);
        out.push_str("      \"timings_secs\": {\n");
        let _ = writeln!(out, "        \"generation\": {},", secs(t.generation));
        let _ = writeln!(out, "        \"profiling\": {},", secs(t.profiling));
        let _ = writeln!(out, "        \"enumeration\": {},", secs(t.enumeration));
        let _ = writeln!(out, "        \"validation\": {},", secs(t.validation));
        let _ = writeln!(
            out,
            "        \"validation_execute_cpu\": {},",
            secs(t.validation_execute_cpu)
        );
        let _ = writeln!(
            out,
            "        \"validation_translate_cpu\": {},",
            secs(t.validation_translate_cpu)
        );
        let _ = writeln!(out, "        \"refinement\": {},", secs(t.refinement));
        let _ = writeln!(out, "        \"completion\": {}", secs(t.completion));
        out.push_str("      }\n");
        out.push_str(if i + 1 == records.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `BENCH_synthesis.json` and returns the path written.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_synthesis_json(records: &[SynthRecord]) -> std::io::Result<PathBuf> {
    let path = json_path();
    std::fs::write(&path, render_synthesis_json(records))?;
    Ok(path)
}

/// Whole-run summary of the loopback serving benchmark, dumped to
/// `BENCH_serve.json` (schema `siro-bench/serve-v1`).
#[derive(Debug, Clone)]
pub struct ServeRecord {
    /// Worker threads the daemon ran with.
    pub threads: usize,
    /// Concurrent client connections the bench drove.
    pub connections: usize,
    /// Requests sent (== `requests_total` on the server's STATS page).
    pub requests_total: u64,
    /// Requests answered successfully.
    pub requests_ok: u64,
    /// Requests rejected with `Busy` by the bounded queue.
    pub requests_busy: u64,
    /// Requests answered with any other structured error.
    pub requests_error: u64,
    /// Successful translations among the ok requests.
    pub translations: u64,
    /// Wall clock of the whole driving loop.
    pub wall: Duration,
    /// Median server-side request latency, microseconds.
    pub latency_p50_us: Option<u64>,
    /// 99th-percentile server-side request latency, microseconds.
    pub latency_p99_us: Option<u64>,
    /// Process-wide translator-cache hits at the end of the run.
    pub cache_hits: u64,
    /// Process-wide translator-cache misses at the end of the run.
    pub cache_misses: u64,
    /// Distinct version pairs the daemon synthesized.
    pub pairs_synthesized: u64,
    /// Requests that coalesced onto another request's synthesis.
    pub coalesced_waiters: u64,
}

impl ServeRecord {
    /// Completed requests per second over the driving loop.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.requests_ok as f64 / secs
        }
    }
}

/// Where the serving JSON goes: `SIRO_BENCH_SERVE_JSON` if set, else
/// `BENCH_serve.json` in the current directory.
pub fn serve_json_path() -> PathBuf {
    std::env::var_os("SIRO_BENCH_SERVE_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_serve.json"))
}

fn json_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Renders the serving record as a JSON document.
pub fn render_serve_json(record: &ServeRecord) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"siro-bench/serve-v1\",");
    let _ = writeln!(out, "  \"threads\": {},", record.threads);
    let _ = writeln!(out, "  \"connections\": {},", record.connections);
    let _ = writeln!(
        out,
        "  \"requests\": {{ \"total\": {}, \"ok\": {}, \"busy\": {}, \"error\": {}, \"translations\": {} }},",
        record.requests_total,
        record.requests_ok,
        record.requests_busy,
        record.requests_error,
        record.translations
    );
    let _ = writeln!(out, "  \"duration_secs\": {},", secs(record.wall));
    let _ = writeln!(out, "  \"throughput_rps\": {:.3},", record.throughput_rps());
    let _ = writeln!(
        out,
        "  \"latency_us\": {{ \"p50\": {}, \"p99\": {} }},",
        json_opt_u64(record.latency_p50_us),
        json_opt_u64(record.latency_p99_us)
    );
    let _ = writeln!(
        out,
        "  \"cache\": {{ \"hits\": {}, \"misses\": {} }},",
        record.cache_hits, record.cache_misses
    );
    let _ = writeln!(
        out,
        "  \"coalescing\": {{ \"pairs_synthesized\": {}, \"coalesced_waiters\": {} }}",
        record.pairs_synthesized, record.coalesced_waiters
    );
    out.push_str("}\n");
    out
}

/// Writes `BENCH_serve.json` and returns the path written.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_serve_json(record: &ServeRecord) -> std::io::Result<PathBuf> {
    let path = serve_json_path();
    std::fs::write(&path, render_serve_json(record))?;
    Ok(path)
}

/// Result of the `trace_overhead` bench: the cost of the `siro-trace`
/// instrumentation relative to an uninstrumented workload, dumped to
/// `BENCH_trace.json` (schema `siro-bench/trace-v1`).
#[derive(Debug, Clone)]
pub struct TraceOverheadRecord {
    /// Operations per measurement repetition.
    pub iters: u64,
    /// Repetitions per configuration (the record keeps the medians).
    pub reps: u64,
    /// ns/op with no tracing calls in the loop at all.
    pub baseline_ns_per_op: f64,
    /// ns/op with `span!` + `counter` calls present but tracing off.
    pub disabled_ns_per_op: f64,
    /// ns/op with tracing on (spans recorded and flushed).
    pub enabled_ns_per_op: f64,
    /// `(disabled - baseline) / baseline`, percent.
    pub overhead_disabled_pct: f64,
    /// `(enabled - baseline) / baseline`, percent.
    pub overhead_enabled_pct: f64,
    /// The threshold the disabled overhead was checked against, percent.
    pub threshold_pct: f64,
    /// Whether the disabled overhead stayed under the threshold.
    pub pass: bool,
}

/// Where the trace-overhead JSON goes: `SIRO_BENCH_TRACE_JSON` if set,
/// else `BENCH_trace.json` in the current directory.
pub fn trace_json_path() -> PathBuf {
    std::env::var_os("SIRO_BENCH_TRACE_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_trace.json"))
}

/// Renders the trace-overhead record as a JSON document.
pub fn render_trace_json(record: &TraceOverheadRecord) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"siro-bench/trace-v1\",");
    let _ = writeln!(out, "  \"iters\": {},", record.iters);
    let _ = writeln!(out, "  \"reps\": {},", record.reps);
    let _ = writeln!(
        out,
        "  \"ns_per_op\": {{ \"baseline\": {:.3}, \"disabled\": {:.3}, \"enabled\": {:.3} }},",
        record.baseline_ns_per_op, record.disabled_ns_per_op, record.enabled_ns_per_op
    );
    let _ = writeln!(
        out,
        "  \"overhead_pct\": {{ \"disabled\": {:.3}, \"enabled\": {:.3} }},",
        record.overhead_disabled_pct, record.overhead_enabled_pct
    );
    let _ = writeln!(out, "  \"threshold_pct\": {:.3},", record.threshold_pct);
    let _ = writeln!(out, "  \"pass\": {}", record.pass);
    out.push_str("}\n");
    out
}

/// Writes `BENCH_trace.json` and returns the path written.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_trace_json(record: &TraceOverheadRecord) -> std::io::Result<PathBuf> {
    let path = trace_json_path();
    std::fs::write(&path, render_trace_json(record))?;
    Ok(path)
}

/// Result of the `warmstart` bench: first-request latency of a server
/// booted from a populated translator store versus cold synthesis and
/// versus the steady-state cache hit, dumped to `BENCH_warmstart.json`
/// (schema `siro-bench/warmstart-v1`).
#[derive(Debug, Clone)]
pub struct WarmstartRecord {
    /// Source version of the measured pair.
    pub source: IrVersion,
    /// Target version of the measured pair.
    pub target: IrVersion,
    /// First-request latency on a cold server (includes synthesis), µs.
    pub cold_first_us: u64,
    /// Median cache-hit latency on the cold server after warm-up, µs.
    pub cold_hit_p50_us: u64,
    /// Wall clock of booting the warm server (store open + warm start), µs.
    pub warm_boot_us: u64,
    /// First-request latency on the warm-started server, µs.
    pub warm_first_us: u64,
    /// Median cache-hit latency on the warm server, µs.
    pub warm_hit_p50_us: u64,
    /// Entries pre-loaded from the store at warm boot.
    pub warm_loaded: u64,
    /// Total bytes of the store directory's entries.
    pub store_bytes: u64,
    /// `synth.*` spans recorded during the whole warm phase (must be 0:
    /// warm start never synthesizes).
    pub synth_spans: usize,
    /// The gate: `warm_first_us` must stay within this multiple of the
    /// warm hit median (the median is floored at 200 µs so scheduler
    /// noise on very fast requests cannot flake the gate).
    pub max_ratio: f64,
    /// `warm_first_us / max(warm_hit_p50_us, 200)`.
    pub ratio: f64,
    /// Whether the gate held and no synthesis span was recorded.
    pub pass: bool,
}

/// Where the warm-start JSON goes: `SIRO_BENCH_WARMSTART_JSON` if set,
/// else `BENCH_warmstart.json` in the current directory.
pub fn warmstart_json_path() -> PathBuf {
    std::env::var_os("SIRO_BENCH_WARMSTART_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_warmstart.json"))
}

/// Renders the warm-start record as a JSON document.
pub fn render_warmstart_json(record: &WarmstartRecord) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"siro-bench/warmstart-v1\",");
    let _ = writeln!(
        out,
        "  \"pair\": {{ \"source\": {}, \"target\": {} }},",
        json_string(&record.source.to_string()),
        json_string(&record.target.to_string())
    );
    let _ = writeln!(
        out,
        "  \"cold_us\": {{ \"first_request\": {}, \"hit_p50\": {} }},",
        record.cold_first_us, record.cold_hit_p50_us
    );
    let _ = writeln!(
        out,
        "  \"warm_us\": {{ \"boot\": {}, \"first_request\": {}, \"hit_p50\": {} }},",
        record.warm_boot_us, record.warm_first_us, record.warm_hit_p50_us
    );
    let _ = writeln!(out, "  \"warm_loaded\": {},", record.warm_loaded);
    let _ = writeln!(out, "  \"store_bytes\": {},", record.store_bytes);
    let _ = writeln!(out, "  \"synth_spans\": {},", record.synth_spans);
    let _ = writeln!(out, "  \"max_ratio\": {:.3},", record.max_ratio);
    let _ = writeln!(out, "  \"ratio\": {:.3},", record.ratio);
    let _ = writeln!(out, "  \"pass\": {}", record.pass);
    out.push_str("}\n");
    out
}

/// Writes `BENCH_warmstart.json` and returns the path written.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_warmstart_json(record: &WarmstartRecord) -> std::io::Result<PathBuf> {
    let path = warmstart_json_path();
    std::fs::write(&path, render_warmstart_json(record))?;
    Ok(path)
}

/// Serving latency for one hop-count bucket of the routed matrix.
#[derive(Debug, Clone, Copy)]
pub struct HopBucket {
    /// Hops of the plans in this bucket (1 = direct).
    pub hops: usize,
    /// Pairs served through plans of this length.
    pub count: usize,
    /// Median per-pair serve latency, µs.
    pub p50_us: u64,
    /// 99th-percentile per-pair serve latency, µs.
    pub p99_us: u64,
}

/// Result of the `router_matrix` bench: every ordered catalog pair
/// planned and served through the version-graph router, with composed
/// outputs checked byte-identical to direct synthesis. Dumped to
/// `BENCH_router.json` (schema `siro-bench/router-v1`).
#[derive(Debug, Clone)]
pub struct RouterRecord {
    /// Catalog size (nodes of the graph).
    pub nodes: usize,
    /// Ordered non-identity pairs planned.
    pub pairs: usize,
    /// Pairs whose cheapest plan was a single hop.
    pub direct: usize,
    /// Pairs whose cheapest plan composed two or more hops.
    pub composed: usize,
    /// Pairs with no plan at all — the CI gate requires zero.
    pub unreachable: usize,
    /// Longest planned path, in hops.
    pub max_hops: usize,
    /// Pairs checked composed-vs-direct over the pair's full oracle
    /// corpus.
    pub byte_checked: usize,
    /// Corpus cases compared byte-for-byte (every route version supports
    /// every placed opcode).
    pub byte_cases: usize,
    /// Corpus cases compared by interpreter verdict instead (an
    /// intermediate lowered a feature it cannot represent).
    pub behavioral_cases: usize,
    /// Cases where the routes disagreed (bytes where required, behaviour
    /// otherwise) — the gate requires zero.
    pub byte_mismatches: usize,
    /// Per-hop-count serve latency, ascending by hop count.
    pub hop_latency: Vec<HopBucket>,
    /// Whether both gates held.
    pub pass: bool,
}

/// Where the router JSON goes: `SIRO_BENCH_ROUTER_JSON` if set, else
/// `BENCH_router.json` in the current directory.
pub fn router_json_path() -> PathBuf {
    std::env::var_os("SIRO_BENCH_ROUTER_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_router.json"))
}

/// Renders the router record as a JSON document.
pub fn render_router_json(record: &RouterRecord) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"siro-bench/router-v1\",");
    let _ = writeln!(out, "  \"nodes\": {},", record.nodes);
    let _ = writeln!(out, "  \"pairs\": {},", record.pairs);
    let _ = writeln!(out, "  \"direct\": {},", record.direct);
    let _ = writeln!(out, "  \"composed\": {},", record.composed);
    let _ = writeln!(out, "  \"unreachable\": {},", record.unreachable);
    let _ = writeln!(out, "  \"max_hops\": {},", record.max_hops);
    let _ = writeln!(
        out,
        "  \"byte_identity\": {{ \"pairs_checked\": {}, \"byte_cases\": {}, \
         \"behavioral_cases\": {}, \"mismatches\": {} }},",
        record.byte_checked, record.byte_cases, record.behavioral_cases, record.byte_mismatches
    );
    out.push_str("  \"hop_latency_us\": [\n");
    for (i, b) in record.hop_latency.iter().enumerate() {
        let _ = write!(
            out,
            "    {{ \"hops\": {}, \"count\": {}, \"p50\": {}, \"p99\": {} }}",
            b.hops, b.count, b.p50_us, b.p99_us
        );
        out.push_str(if i + 1 == record.hop_latency.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"pass\": {}", record.pass);
    out.push_str("}\n");
    out
}

/// Writes `BENCH_router.json` and returns the path written.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_router_json(record: &RouterRecord) -> std::io::Result<PathBuf> {
    let path = router_json_path();
    std::fs::write(&path, render_router_json(record))?;
    Ok(path)
}

// -------------------------------------------------------------------------

/// Result of the `translate_hot` bench: the steady-state translate span of
/// the compiled tier versus the interpreter on identical modules, with the
/// outputs checked byte-identical. Dumped to `BENCH_translate_hot.json`
/// (schema `siro-bench/translate-hot-v1`).
#[derive(Debug, Clone)]
pub struct TranslateHotRecord {
    /// Source version of the measured pair.
    pub source: IrVersion,
    /// Target version of the measured pair.
    pub target: IrVersion,
    /// Name of the measured workload module.
    pub module: String,
    /// Instructions in the workload module.
    pub insts: usize,
    /// Timed iterations per tier.
    pub iters: u64,
    /// Median interpreted `translate_module` wall clock, µs.
    pub interpreted_p50_us: u64,
    /// Median compiled `translate_module` wall clock, µs.
    pub compiled_p50_us: u64,
    /// Interpreted per-instruction dispatch cost, ns.
    pub interpreted_ns_per_inst: f64,
    /// Compiled per-instruction dispatch cost, ns.
    pub compiled_ns_per_inst: f64,
    /// One-time lowering cost (`compile.lower`), µs.
    pub lower_us: u64,
    /// `interpreted_p50_us / compiled_p50_us`.
    pub speedup: f64,
    /// The gate: the speedup must be at least this.
    pub min_speedup: f64,
    /// Whether every workload module translated byte-identically across
    /// the tiers.
    pub byte_identical: bool,
    /// Whether the gate held (speedup and byte identity).
    pub pass: bool,
}

/// Where the translate-hot JSON goes: `SIRO_BENCH_TRANSLATE_HOT_JSON` if
/// set, else `BENCH_translate_hot.json` in the current directory.
pub fn translate_hot_json_path() -> PathBuf {
    std::env::var_os("SIRO_BENCH_TRANSLATE_HOT_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_translate_hot.json"))
}

/// Renders the translate-hot record as a JSON document.
pub fn render_translate_hot_json(record: &TranslateHotRecord) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"siro-bench/translate-hot-v1\",");
    let _ = writeln!(
        out,
        "  \"pair\": {{ \"source\": {}, \"target\": {} }},",
        json_string(&record.source.to_string()),
        json_string(&record.target.to_string())
    );
    let _ = writeln!(
        out,
        "  \"module\": {{ \"name\": {}, \"insts\": {} }},",
        json_string(&record.module),
        record.insts
    );
    let _ = writeln!(out, "  \"iters\": {},", record.iters);
    let _ = writeln!(
        out,
        "  \"translate_p50_us\": {{ \"interpreted\": {}, \"compiled\": {} }},",
        record.interpreted_p50_us, record.compiled_p50_us
    );
    let _ = writeln!(
        out,
        "  \"dispatch_ns_per_inst\": {{ \"interpreted\": {:.3}, \"compiled\": {:.3} }},",
        record.interpreted_ns_per_inst, record.compiled_ns_per_inst
    );
    let _ = writeln!(out, "  \"lower_us\": {},", record.lower_us);
    let _ = writeln!(out, "  \"speedup\": {:.3},", record.speedup);
    let _ = writeln!(out, "  \"min_speedup\": {:.3},", record.min_speedup);
    let _ = writeln!(out, "  \"byte_identical\": {},", record.byte_identical);
    let _ = writeln!(out, "  \"pass\": {}", record.pass);
    out.push_str("}\n");
    out
}

/// Writes `BENCH_translate_hot.json` and returns the path written.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_translate_hot_json(record: &TranslateHotRecord) -> std::io::Result<PathBuf> {
    let path = translate_hot_json_path();
    std::fs::write(&path, render_translate_hot_json(record))?;
    Ok(path)
}

/// One row of the `ir_alloc` bench: allocator traffic on the
/// parse→translate→serialize request path (`siro-bench/ir-alloc-v1`).
#[derive(Debug, Clone)]
pub struct IrAllocRecord {
    /// Source version of the measured pair.
    pub source: IrVersion,
    /// Target version of the measured pair.
    pub target: IrVersion,
    /// Workload module name.
    pub module: String,
    /// Instruction count of the workload module.
    pub insts: usize,
    /// Timed/counted repetitions.
    pub iters: u64,
    /// Allocator calls per request in the parse leg.
    pub parse_allocs: u64,
    /// Allocator calls per request in the translate leg (compiled tier).
    pub translate_allocs: u64,
    /// Allocator calls per request in the serialize leg.
    pub serialize_allocs: u64,
    /// Allocator calls per request over the whole composition.
    pub total_allocs: u64,
    /// The pre-arena baseline the gate compares against.
    pub baseline_allocs: u64,
    /// `baseline_allocs / total_allocs`.
    pub reduction: f64,
    /// The gate: the reduction must be at least this.
    pub min_reduction: f64,
    /// p50 wall time of the whole composition, µs.
    pub request_p50_us: u64,
    /// p50 wall time of the translate leg alone, µs.
    pub translate_p50_us: u64,
    /// Whether the gate held.
    pub pass: bool,
}

/// Where the ir-alloc JSON goes: `SIRO_BENCH_IR_ALLOC_JSON` if set, else
/// `BENCH_ir_alloc.json` in the current directory.
pub fn ir_alloc_json_path() -> PathBuf {
    std::env::var_os("SIRO_BENCH_IR_ALLOC_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_ir_alloc.json"))
}

/// Renders the ir-alloc record as a JSON document.
pub fn render_ir_alloc_json(record: &IrAllocRecord) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"siro-bench/ir-alloc-v1\",");
    let _ = writeln!(
        out,
        "  \"pair\": {{ \"source\": {}, \"target\": {} }},",
        json_string(&record.source.to_string()),
        json_string(&record.target.to_string())
    );
    let _ = writeln!(
        out,
        "  \"module\": {{ \"name\": {}, \"insts\": {} }},",
        json_string(&record.module),
        record.insts
    );
    let _ = writeln!(out, "  \"iters\": {},", record.iters);
    let _ = writeln!(
        out,
        "  \"allocs_per_request\": {{ \"parse\": {}, \"translate\": {}, \"serialize\": {}, \"total\": {} }},",
        record.parse_allocs, record.translate_allocs, record.serialize_allocs, record.total_allocs
    );
    let _ = writeln!(out, "  \"baseline_allocs\": {},", record.baseline_allocs);
    let _ = writeln!(out, "  \"reduction\": {:.3},", record.reduction);
    let _ = writeln!(out, "  \"min_reduction\": {:.3},", record.min_reduction);
    let _ = writeln!(out, "  \"request_p50_us\": {},", record.request_p50_us);
    let _ = writeln!(out, "  \"translate_p50_us\": {},", record.translate_p50_us);
    let _ = writeln!(out, "  \"pass\": {}", record.pass);
    out.push_str("}\n");
    out
}

/// Writes `BENCH_ir_alloc.json` and returns the path written.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_ir_alloc_json(record: &IrAllocRecord) -> std::io::Result<PathBuf> {
    let path = ir_alloc_json_path();
    std::fs::write(&path, render_ir_alloc_json(record))?;
    Ok(path)
}

/// Where the sustained-load JSON goes: `SIRO_BENCH_LOADTEST_JSON` if set,
/// else `BENCH_loadtest.json` in the current directory.
pub fn loadtest_json_path() -> PathBuf {
    std::env::var_os("SIRO_BENCH_LOADTEST_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_loadtest.json"))
}

/// Writes the pre-rendered `siro-bench/loadtest-v2` document (see
/// `siro_loadgen::render_loadtest_json`) and returns the path written.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_loadtest_json(json: &str) -> std::io::Result<PathBuf> {
    let path = loadtest_json_path();
    std::fs::write(&path, json)?;
    Ok(path)
}

// -------------------------------------------------------------------------

/// One in-catalog WIR pair measured by the `cross_dialect` bench.
#[derive(Debug, Clone)]
pub struct WirPairRecord {
    /// Source WIR version, rendered (`"1.0"`).
    pub from: String,
    /// Target WIR version, rendered.
    pub to: String,
    /// Cold synthesis latency, µs (0 when the pair was already hot).
    pub synth_cold_us: u64,
    /// Warm (memoized) acquisition + translate latency, µs.
    pub warm_us: u64,
    /// Corpus modules round-tripped `from → to → from`.
    pub corpus: usize,
    /// Modules whose round trip reproduced the source byte-for-byte —
    /// the gate requires `corpus` (all of them).
    pub roundtrip_identical: usize,
    /// Whether the warm re-translation matched the cold bytes.
    pub warm_identical: bool,
}

/// One SIRO↔WIR anchor measured by the `cross_dialect` bench.
#[derive(Debug, Clone)]
pub struct CrossPairRecord {
    /// Siro side, rendered (`"13.0"`).
    pub siro: String,
    /// WIR side, rendered (`"2.0"`).
    pub wir: String,
    /// Bridge certificate validation latency, µs (cold).
    pub bridge_cold_us: u64,
    /// Warm certificate + raise/lower latency, µs.
    pub warm_us: u64,
    /// Corpus modules pushed through raise → lower.
    pub corpus: usize,
    /// Modules whose [`XBehaviour`](siro_synth::XBehaviour) bucket
    /// survived both legs — the gate requires `corpus`.
    pub buckets_preserved: usize,
    /// Whether repeating the round trip warm reproduced identical bytes.
    pub warm_identical: bool,
}

/// Result of the `cross_dialect` bench: every in-catalog WIR pair plus
/// the bridge anchors, each synthesized and round-tripped with warm
/// byte-identity. Dumped to `BENCH_cross_dialect.json`
/// (schema `siro-bench/cross-dialect-v1`).
#[derive(Debug, Clone)]
pub struct CrossDialectRecord {
    /// Every ordered in-catalog WIR pair.
    pub wir_pairs: Vec<WirPairRecord>,
    /// Every bridge anchor (≥1 SIRO↔WIR pair).
    pub cross_pairs: Vec<CrossPairRecord>,
    /// Whether every gate held.
    pub pass: bool,
}

/// Where the cross-dialect JSON goes: `SIRO_BENCH_CROSS_JSON` if set,
/// else `BENCH_cross_dialect.json` in the current directory.
pub fn cross_dialect_json_path() -> PathBuf {
    std::env::var_os("SIRO_BENCH_CROSS_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_cross_dialect.json"))
}

/// Renders the cross-dialect record as a JSON document.
pub fn render_cross_dialect_json(record: &CrossDialectRecord) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"siro-bench/cross-dialect-v1\",");
    out.push_str("  \"wir_pairs\": [\n");
    for (i, p) in record.wir_pairs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{ \"from\": \"{}\", \"to\": \"{}\", \"synth_cold_us\": {}, \
             \"warm_us\": {}, \"corpus\": {}, \"roundtrip_identical\": {}, \
             \"warm_identical\": {} }}",
            p.from,
            p.to,
            p.synth_cold_us,
            p.warm_us,
            p.corpus,
            p.roundtrip_identical,
            p.warm_identical
        );
        out.push_str(if i + 1 == record.wir_pairs.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"cross_pairs\": [\n");
    for (i, p) in record.cross_pairs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{ \"siro\": \"{}\", \"wir\": \"{}\", \"bridge_cold_us\": {}, \
             \"warm_us\": {}, \"corpus\": {}, \"buckets_preserved\": {}, \
             \"warm_identical\": {} }}",
            p.siro,
            p.wir,
            p.bridge_cold_us,
            p.warm_us,
            p.corpus,
            p.buckets_preserved,
            p.warm_identical
        );
        out.push_str(if i + 1 == record.cross_pairs.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"pass\": {}", record.pass);
    out.push_str("}\n");
    out
}

/// Writes `BENCH_cross_dialect.json` and returns the path written.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_cross_dialect_json(record: &CrossDialectRecord) -> std::io::Result<PathBuf> {
    let path = cross_dialect_json_path();
    std::fs::write(&path, render_cross_dialect_json(record))?;
    Ok(path)
}
