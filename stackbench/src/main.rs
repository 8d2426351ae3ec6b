//! `stackbench`: the enforcement stack's benchmark.
//!
//! ```text
//! stackbench --workload <fleet|v2x_platoon|policy_update> --seed <n>
//!            --seconds <s> --trace <0|1>
//! stackbench --manifest
//! ```
//!
//! A run prints a `stamp` line (host, toolchain, commit, threads, seed),
//! one `metric`/`note`/`check` line per figure, and as its last line one
//! JSON object with exactly `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. A failing check makes `correct` false and the exit code 1.
//! `--manifest` prints `BENCHMARK.json`. See `README.md` beside this crate.

mod clock;
mod drive;
mod fleet;
mod ledger;
mod policy;
mod report;
mod stats;
mod v2x;

use report::Outcome;
use std::process::{exit, Command};
use std::time::Duration;

/// Every workload runs on one worker thread: on a small shared host,
/// multi-thread runs swing far more between runs than one thread does.
pub const THREADS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !report::WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(report::RUN_SECONDS as f64);
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Runs `program args…` and returns its first output line, waiting for it
/// to exit.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_string)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host fingerprint every result carries, so results from different
/// hosts, toolchains or commits are never read as one trajectory.
fn stamp(args: &Args) -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let fields = [
        ("cpu", cpu_model()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "rustc",
            first_line(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "git_sha",
            // only the checkout's own repository, never an enclosing one
            first_line("git", &["--git-dir=.git", "rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
        ),
        ("threads", THREADS.to_string()),
        ("seed", args.seed.to_string()),
        ("workload", args.workload.clone()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", polsec_sim::json_quote(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--manifest"] {
        print!("{}", report::manifest());
        return;
    }
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            eprintln!("usage: stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            exit(2);
        }
    };
    println!("stamp {}", stamp(&args));
    let budget = Duration::from_secs_f64(args.seconds);
    let mut out = Outcome::default();
    match (args.workload.as_str(), args.trace) {
        ("fleet", false) => fleet::measure(args.seed, budget, &mut out),
        ("fleet", true) => fleet::trace(args.seed, budget, &mut out),
        ("v2x_platoon", false) => v2x::measure(args.seed, budget, &mut out),
        ("v2x_platoon", true) => v2x::trace(args.seed, budget, &mut out),
        ("policy_update", false) => policy::measure(args.seed, budget, &mut out),
        ("policy_update", true) => policy::trace(args.seed, budget, &mut out),
        _ => unreachable!("parse() admits only registered workloads"),
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.note("error_rate", error_rate, "ratio");

    let names: Vec<(String, &'static str)> = if args.trace {
        report::per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect()
    } else {
        report::END_TO_END
            .iter()
            .map(|&(n, u, _, _)| (n.to_string(), u))
            .collect()
    };
    out.validate(&names, !args.trace);
    for (name, (value, unit)) in &out.metrics {
        println!("metric {name} {} {unit}", report::json_number(*value));
    }
    for (name, value, unit) in &out.notes {
        println!("note {name} {} {unit}", report::json_number(*value));
    }
    for c in &out.checks {
        if c.ok {
            println!("check {} ok", c.name);
        } else {
            println!("check {} FAILED {}", c.name, c.detail);
        }
    }
    println!("{}", out.result_line(&names));
    if !out.correct() {
        exit(1);
    }
}
