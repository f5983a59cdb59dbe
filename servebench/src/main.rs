//! `servebench`: the repository benchmark of served synthesized-mode
//! translation.
//!
//! ```text
//! servebench --workload <large_modules|small_pairs|cold_pairs> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures end to end against a daemon on loopback and
//! reports `throughput_rps`, `latency_p50_ms`, `latency_tail_ms` and
//! `setup_s`; it prints the peak resident set too. `--trace 1` replays the
//! same op stream in this process with a span around every call the serve
//! path makes into a layer, and reports the per-layer table. The last line of standard
//! output is the JSON result; everything above it is the human report.

mod check;
mod served;
mod traced;
mod util;
mod workload;

use std::process::ExitCode;

use workload::Kind;

/// Variables that change the program being measured: `SIRO_TRACE` turns
/// on the program's own spans (which feed route costs), `SIRO_COMPILE`
/// selects the translate tier, `SIRO_THREADS` the worker count.
const FORBIDDEN_ENV: [&str; 3] = ["SIRO_TRACE", "SIRO_COMPILE", "SIRO_THREADS"];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The revision of a git checkout, read from `.git` without running git.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("servebench: refusing to run with {var} set: it changes the program measured");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "servebench: workload {} seed {} seconds {} trace {} nproc {nproc} revision {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision()
    );
    let result = if args.trace {
        traced::run(args.kind, args.seed, args.seconds)
    } else {
        served::run(args.kind, args.seed, args.seconds)
    };
    match result {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
