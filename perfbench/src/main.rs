//! `perfbench`: the lifecycle benchmark of Surveyor.
//!
//! ```text
//! perfbench --workload <mine_table2|update_longtail|serve_decide>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Builds its inputs from the seed, measures the workload for the given
//! number of seconds, checks the program's outputs, and prints the
//! metrics with their units. The last line of standard output is the
//! result as one JSON object. The exit code is nonzero when a
//! correctness check fails. See README.md.

mod harness;
mod host;
mod lifecycle;
mod loadgen;
mod mine;
mod report;
mod requests;
mod serve;
mod stats;
mod trace;
mod update;

use serde_json::json;
use std::path::{Path, PathBuf};

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 2015;
/// The seed later changes confirm a claimed gain on, never used while
/// the change is written.
pub const HELD_OUT_SEED: u64 = 4242;
/// The workloads, in the order README.md describes them.
pub const WORKLOADS: [&str; 3] = ["mine_table2", "update_longtail", "serve_decide"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// The repository root: the benchmark's package sits one level below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Reports a problem on standard error.
fn warn(message: &str) {
    eprintln!("perfbench: {message}"); // lint:allow(no-print-in-lib): the benchmark's command line reports here
}

/// Where runs leave result files, traces and the served snapshot.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        warn(&format!("cannot create {}: {e}", dir.display()));
    }
    dir
}

fn run_stem(args: &Args) -> String {
    format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    )
}

/// Writes a traced run's spans, one JSON object per line.
pub fn write_spans(args: &Args, spans: &[trace::Span]) {
    let path = out_dir().join(format!("{}.spans.jsonl", run_stem(args)));
    if let Err(e) = std::fs::write(&path, trace::to_json_lines(spans)) {
        warn(&format!("cannot write {}: {e}", path.display()));
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            warn(&e);
            std::process::exit(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "mine_table2" => mine::run(&args),
        "update_longtail" => update::run(&args),
        _ => serve::run(&args),
    };
    let peak = host::peak_rss_mb();
    outcome.end_to_end.insert("peak_rss_mb".to_owned(), peak);
    outcome.name("peak_rss_mb", peak, "MB");
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.name("error_rate", error_rate, "ratio");

    let provenance = json!({
        "host": host::describe(&repo_root()),
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "tracing": args.trace,
        "params": outcome.params,
    });

    let mut text = format!(
        "# {} seed {} trace {}\n# provenance {}\n",
        args.workload,
        args.seed,
        u8::from(args.trace),
        serde_json::to_string(&provenance).unwrap_or_default()
    );
    for (name, value, unit) in &outcome.named {
        text.push_str(&format!("{name:<32} {value:>16.6} {unit}\n"));
    }
    if args.trace {
        for (name, value) in &outcome.per_layer {
            text.push_str(&format!("{name:<32} {value:>16.9}\n"));
        }
        for (layer, seconds) in &outcome.self_seconds {
            text.push_str(&format!("self.{layer:<27} {seconds:>16.6} s\n"));
        }
    }
    for check in &outcome.checks {
        let verdict = if check.passed { "ok" } else { "FAILED" };
        text.push_str(&format!(
            "check {:<44} {verdict} ({})\n",
            check.name, check.detail
        ));
    }

    let correct = outcome.correct();
    let (listed, values) = if args.trace {
        (report::PER_LAYER, &outcome.per_layer)
    } else {
        (report::END_TO_END, &outcome.end_to_end)
    };
    let line = report::result_line(listed, values, correct, outcome.attempted, outcome.failed);
    let record = json!({
        "provenance": provenance,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "end_to_end": outcome.end_to_end,
        "per_layer": outcome.per_layer,
        "self_seconds": outcome.self_seconds,
        "named": outcome.named.iter().map(|(n, v, u)| json!({"name": n, "value": v, "unit": u})).collect::<Vec<_>>(),
        "checks": outcome.checks.iter().map(|c| json!({"name": c.name, "passed": c.passed, "detail": c.detail})).collect::<Vec<_>>(),
    });
    let path = out_dir().join(format!("{}.json", run_stem(&args)));
    if let Err(e) = std::fs::write(
        &path,
        serde_json::to_string_pretty(&record).unwrap_or_default(),
    ) {
        warn(&format!("cannot write {}: {e}", path.display()));
    }
    // The result line is the last line of standard output.
    let line = line.map(|line| text.push_str(&format!("{line}\n")));
    print!("{text}");
    if let Err(e) = line {
        warn(&e);
        std::process::exit(1);
    }
    if !correct {
        warn("a correctness check failed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_driver_arguments() {
        let args = parse(&[
            "--workload",
            "serve_decide",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(args.workload, "serve_decide");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 12, true));
        assert_eq!(
            parse(&["--workload", "mine_table2"]).expect("valid").seed,
            DEFAULT_SEED
        );
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "mine_table2", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "mine_table2", "--bogus", "1"]).is_err());
    }
}
