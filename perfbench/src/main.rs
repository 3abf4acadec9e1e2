//! `pdht-perfbench`: the repository benchmark.
//!
//! ```text
//! pdht-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|toy]
//! pdht-perfbench record --workload <name> --seeds <a>..=<b> [--scale full|toy]
//! ```
//!
//! A run builds the named workload from the seed, runs its fixed prefix and
//! checks the prefix digest against `expected.tsv`, then measures rounds for
//! `--seconds` of wall time. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reruns with the phase hook and phase timers on and reports
//! the per-layer metrics, including the ledger of direct layer calls. The
//! last stdout line is the JSON result; the exit code is 0 only when every
//! output check and shape guard passed. `record` prints the `expected.tsv`
//! lines for a range of seeds.

mod check;
mod ledger;
mod run;
mod workloads;

use run::Outcome;
use std::process::ExitCode;
use workloads::{Scale, Workload};

const USAGE: &str = "usage:
  pdht-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|toy]
  pdht-perfbench record --workload <name> --seeds <a>..=<b> [--scale full|toy]
workloads: gossip_coded, latency_sharded; seconds in (0, 120]";

/// Parsed `--flag value` pairs; every flag must be known and appear once.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    if !args.len().is_multiple_of(2) {
        return Err("every flag takes one value".into());
    }
    let mut out: Vec<(String, String)> = Vec::new();
    for pair in args.chunks(2) {
        let flag = pair[0].strip_prefix("--").filter(|f| known.contains(f));
        let Some(flag) = flag else { return Err(format!("unknown argument {:?}", pair[0])) };
        if out.iter().any(|(f, _)| f == flag) {
            return Err(format!("--{flag} given twice"));
        }
        out.push((flag.to_string(), pair[1].clone()));
    }
    Ok(out)
}

fn get<'a>(flags: &'a [(String, String)], name: &str) -> Result<&'a str, String> {
    flags
        .iter()
        .find(|(f, _)| f == name)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| format!("missing --{name}"))
}

fn parse_common(flags: &[(String, String)]) -> Result<(Workload, Scale), String> {
    let name = get(flags, "workload")?;
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let scale = match flags.iter().find(|(f, _)| f == "scale").map(|(_, v)| v.as_str()) {
        None | Some("full") => Scale::Full,
        Some("toy") => Scale::Toy,
        Some(other) => return Err(format!("--scale must be full or toy, got {other:?}")),
    };
    Ok((w, scale))
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    v.parse().map_err(|_| format!("--{flag} must be a non-negative integer, got {v:?}"))
}

enum Command {
    Run { w: Workload, scale: Scale, seed: u64, seconds: f64, trace: bool },
    Record { w: Workload, scale: Scale, seeds: std::ops::RangeInclusive<u64> },
}

fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("record") {
        let f = flags(&args[1..], &["workload", "seeds", "scale"])?;
        let (w, scale) = parse_common(&f)?;
        let seeds = get(&f, "seeds")?;
        let (a, b) = seeds.split_once("..=").ok_or("--seeds takes <a>..=<b>")?;
        let (a, b) = (parse_u64("seeds", a)?, parse_u64("seeds", b)?);
        return Ok(Command::Record { w, scale, seeds: a..=b });
    }
    let f = flags(args, &["workload", "seed", "seconds", "trace", "scale"])?;
    let (w, scale) = parse_common(&f)?;
    let seed = parse_u64("seed", get(&f, "seed")?)?;
    let seconds_arg = get(&f, "seconds")?;
    let seconds = seconds_arg
        .parse::<f64>()
        .ok()
        .filter(|s| *s > 0.0 && *s <= 120.0)
        .ok_or_else(|| format!("--seconds must be in (0, 120], got {seconds_arg:?}"))?;
    let trace = match get(&f, "trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Command::Run { w, scale, seed, seconds, trace })
}

/// The result line. Values are printed with every digit Rust's shortest
/// round-trip formatting gives.
fn result_json(out: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cmd {
        Command::Record { w, scale, seeds } => match run::record(w, scale, seeds) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Command::Run { w, scale, seed, seconds, trace } => {
            println!(
                "workload {} ({:?} scale), seed {seed}, {seconds} s, trace {}, {} host cpus",
                w.name(),
                scale,
                u8::from(trace),
                std::thread::available_parallelism().map_or(1, |n| n.get())
            );
            let outcome = if trace {
                run::traced(w, scale, seed, seconds)
            } else {
                run::untraced(w, scale, seed, seconds)
            };
            let mut out = match outcome {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for (name, _, v) in &out.metrics {
                if !v.is_finite() {
                    out.problems.push(format!("{name} is not finite"));
                }
            }
            for (name, unit, v) in &out.metrics {
                println!("{name} = {v} {unit}");
            }
            for p in &out.problems {
                println!("CHECK FAILED: {p}");
            }
            let correct = out.problems.is_empty() && out.failed == 0;
            out.metrics.iter_mut().filter(|m| !m.2.is_finite()).for_each(|m| m.2 = 0.0);
            println!("{}", result_json(&out, correct));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
