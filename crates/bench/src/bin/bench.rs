//! `bench` — throughput harness for the Surveyor pipeline.
//!
//! ```text
//! bench pipeline [--seed N] [--threads N] [--out PATH] [--baseline PATH] [--report PATH]
//! bench scale [--seed N] [--out PATH] [--quick] [--assert-scaling] [--scaling-tolerance T]
//! bench snapshot [--seed N] [--out PATH] [--quick] [--assert-speedup X]
//! bench serve [--seed N] [--out PATH] [--quick] [--assert-chaos]
//! bench lint [--root PATH] [--out PATH] [--quick] [--assert-cache]
//! bench incremental [--seed N] [--out PATH] [--quick] [--assert-delta-scaling]
//! bench diff <current.json> <baseline.json>
//! ```
//!
//! `pipeline` measures extraction docs/sec (1/2/4/8 worker threads) and
//! end-to-end wall time on a fixed corpus preset, and writes
//! `BENCH_pipeline.json`. When `--baseline` points at a previous run's
//! artifact, the output also reports the throughput ratio against it.
//! `--report` additionally runs an observed end-to-end pass and writes a
//! versioned run report (phase times, counters, EM telemetry).
//!
//! `scale` sweeps 1/2/4/8 worker threads over a ~10× larger corpus, timing
//! the generation, extraction, model, and grouping phases separately, and
//! writes `BENCH_scale.json`. `--quick` shrinks the corpus for CI smoke
//! tests. `--assert-scaling` additionally checks every phase's speedup
//! curve against its per-phase target curve (see
//! `surveyor_bench::scaling`), embeds the verdict in the artifact under
//! `assert_scaling`, and exits nonzero on regression;
//! `--scaling-tolerance T` overrides the default slack (0 ≤ T < 1).
//!
//! `snapshot` measures binary snapshot throughput: re-mine time vs
//! `surveyor-wire` encode/decode time on the pipeline preset, and writes
//! `BENCH_snapshot.json`. The artifact records `speedup_load_vs_remine`
//! and a `byte_identical` round-trip verdict. `--assert-speedup X` exits
//! nonzero when the speedup falls below `X` or the round trip is not
//! byte-identical.
//!
//! `serve` boots a `surveyor-server` on a loopback port, replays
//! `/decide` queries from 1/2/4/8 client threads (p50/p99 latency and
//! queries/sec), then drives a seeded chaos phase — malformed bytes,
//! slowloris writes, disconnects, worker panics, concurrent
//! corrupt-reload attempts — against a deliberately tight second server,
//! and writes `BENCH_serve.json`. `--assert-chaos` exits nonzero unless
//! every valid query answered correctly, every corrupt reload was
//! rejected, the shed counter moved under overload, and the server shut
//! down gracefully.
//!
//! `lint` measures the flow-aware linter over the workspace at `--root`
//! (default `.`): a 1/2/4/8-worker sweep with byte-identity checks, then
//! a cold-vs-warm incremental-cache pass, and writes `BENCH_lint.json`.
//! `--assert-cache` exits nonzero unless the warm run reused at least 90%
//! of the unchanged files, outran the cold run, and every configuration
//! produced the same report.
//!
//! `incremental` measures delta ingestion against from-scratch mining:
//! a delta-size sweep on a fixed corpus (update time must track the
//! delta, every update byte-identical to the from-scratch mine), a
//! corpus-size sweep at fixed delta, 1/2/4/8-thread byte-identity, and a
//! seeded chaos quarantine-then-replay convergence check, written to
//! `BENCH_incremental.json`. `--assert-delta-scaling` exits nonzero
//! unless every ≤10% delta ran at least 5x faster than from-scratch and
//! every byte-identity held.
//!
//! Every subcommand above except `diff` is one row of [`EXPERIMENTS`]:
//! its flags, run function, artifact schema, and gate. One function,
//! `drive`, parses the row's flags, runs it, stamps `host_cpus`,
//! evaluates the gate when armed, validates the artifact against the
//! row's schema, writes it, and only then exits nonzero on a failed gate.
//! `--quick` shrinks the corpus wherever it is accepted.
//!
//! `diff` compares two `pipeline --report` run reports phase by phase.

#![forbid(unsafe_code)]

use serde_json::{json, Value};
use std::process::ExitCode;
use surveyor::obs::RunReport;
use surveyor_bench::experiments::{self, ReproConfig};
use surveyor_bench::scaling;

/// One `bench` experiment subcommand.
struct Experiment {
    name: &'static str,
    /// Artifact path when `--out` is absent.
    out: &'static str,
    /// The flags this subcommand accepts, in usage order.
    flags: &'static [Flag],
    run: fn(&Options) -> Result<(String, Value), String>,
    /// The artifact shape, checked before anything is written.
    schema: &'static [Field],
    /// Evaluated when the subcommand's gate flag arms it.
    gate: Option<Gate>,
}

/// A gate predicate: `Err` carries the failure line for stderr.
type Gate = fn(&Value, &Options) -> Result<(), String>;

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "pipeline",
        out: "BENCH_pipeline.json",
        flags: &[
            Flag::Seed,
            Flag::Threads,
            Flag::Out,
            Flag::Baseline,
            Flag::Report,
        ],
        run: pipeline,
        schema: PIPELINE_SCHEMA,
        gate: None,
    },
    Experiment {
        name: "scale",
        out: "BENCH_scale.json",
        flags: &[
            Flag::Seed,
            Flag::Out,
            Flag::Quick,
            Flag::Arm("--assert-scaling"),
            Flag::Tolerance,
        ],
        run: |o| {
            let tolerance = o.armed.then_some(o.tolerance);
            Ok(experiments::scale_sweep(&o.config, o.quick, tolerance))
        },
        schema: SCALE_SCHEMA,
        gate: Some(scaling_gate),
    },
    Experiment {
        name: "snapshot",
        out: "BENCH_snapshot.json",
        flags: &[Flag::Seed, Flag::Out, Flag::Quick, Flag::SpeedupFloor],
        run: |o| Ok(experiments::snapshot_bench(&o.config, o.quick)),
        schema: SNAPSHOT_SCHEMA,
        gate: Some(speedup_gate),
    },
    Experiment {
        name: "serve",
        out: "BENCH_serve.json",
        flags: &[
            Flag::Seed,
            Flag::Out,
            Flag::Quick,
            Flag::Arm("--assert-chaos"),
        ],
        run: |o| Ok(experiments::serve_bench(&o.config, o.quick)),
        schema: SERVE_SCHEMA,
        gate: Some(chaos_gate),
    },
    Experiment {
        name: "lint",
        out: "BENCH_lint.json",
        flags: &[
            Flag::Root,
            Flag::Out,
            Flag::Quick,
            Flag::Arm("--assert-cache"),
        ],
        run: |o| experiments::lint_bench(std::path::Path::new(&o.root), o.quick),
        schema: LINT_SCHEMA,
        gate: Some(cache_gate),
    },
    Experiment {
        name: "incremental",
        out: "BENCH_incremental.json",
        flags: &[
            Flag::Seed,
            Flag::Out,
            Flag::Quick,
            Flag::Arm("--assert-delta-scaling"),
        ],
        run: |o| Ok(experiments::incremental_bench(&o.config, o.quick)),
        schema: INCREMENTAL_SCHEMA,
        gate: Some(delta_scaling_gate),
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let outcome = match EXPERIMENTS.iter().find(|e| e.name == command) {
        Some(experiment) => drive(experiment, rest),
        None if command == "diff" => diff(rest),
        None => Err(usage()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one experiment row end to end. The artifact is written before a
/// failing gate turns into an error, so CI keeps the evidence.
fn drive(experiment: &Experiment, args: &[String]) -> Result<(), String> {
    let opts = parse(experiment, args)?;
    let (text, mut value) = (experiment.run)(&opts)?;
    println!("{text}");
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    insert(&mut value, "host_cpus", json!(host_cpus));
    let verdict = match experiment.gate {
        Some(gate) if opts.armed => gate(&value, &opts),
        _ => Ok(()),
    };
    validate(&value, experiment.schema).map_err(|e| {
        format!(
            "internal error: {} artifact failed schema validation: {e}",
            experiment.name
        )
    })?;
    let json = serde_json::to_string_pretty(&value).expect("serializable artifact");
    std::fs::write(&opts.out, json).map_err(|e| format!("cannot write {}: {e}", opts.out))?;
    eprintln!("wrote {}", opts.out);
    verdict
}

/// `bench diff`: render the phase/counter comparison of two run reports.
fn diff(rest: &[String]) -> Result<(), String> {
    let [current, baseline] = rest else {
        return Err(usage());
    };
    let load = |path: &str| -> Result<RunReport, String> {
        let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        RunReport::from_json(&json).map_err(|e| format!("invalid run report {path}: {e}"))
    };
    println!("{}", load(current)?.diff(&load(baseline)?));
    Ok(())
}

/// `bench pipeline`: the throughput harness, plus the optional baseline
/// comparison and observed run report.
fn pipeline(opts: &Options) -> Result<(String, Value), String> {
    let (mut text, mut value) = experiments::pipeline(&opts.config);
    if let Some(path) = &opts.baseline {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str::<Value>(&s).map_err(|e| e.to_string()))
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let speedup = throughput_at(&value, 8)
            .zip(throughput_at(&baseline, 8))
            .map(|(cur, base)| cur / base);
        if let Some(s) = speedup {
            text.push_str(&format!(
                "\nextraction speedup vs baseline (8 threads): {s:.2}x"
            ));
            insert(&mut value, "speedup_extraction_8_threads", json!(s));
        }
        insert(&mut value, "baseline", baseline);
    }
    if let Some(path) = &opts.report {
        let report = experiments::pipeline_report(&opts.config);
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write run report {path}: {e}"))?;
        eprintln!("wrote run report {path}");
    }
    Ok((text, value))
}

/// `docs_per_sec` of the extraction row with the given thread count.
fn throughput_at(artifact: &Value, threads: u64) -> Option<f64> {
    artifact["extraction"]
        .as_array()?
        .iter()
        .find(|row| row["threads"].as_u64() == Some(threads))?["docs_per_sec"]
        .as_f64()
}

fn insert(artifact: &mut Value, key: &str, value: Value) {
    if let Value::Object(obj) = artifact {
        obj.insert(key.to_owned(), value);
    }
}

// ---- Gates ----

/// `--assert-scaling`: the verdict the scale run embedded passed.
fn scaling_gate(artifact: &Value, _: &Options) -> Result<(), String> {
    if scaling::passed(&artifact["assert_scaling"]) {
        Ok(())
    } else {
        Err("assert-scaling: regression detected (see verdict above)".to_owned())
    }
}

/// `--assert-speedup X`: loading beat re-mining by at least X and the
/// round trip was byte-identical.
fn speedup_gate(artifact: &Value, opts: &Options) -> Result<(), String> {
    let floor = opts.speedup_floor;
    let speedup = artifact["speedup_load_vs_remine"].as_f64().unwrap_or(0.0);
    let identical = artifact["byte_identical"].as_bool() == Some(true);
    if speedup < floor || !identical {
        return Err(format!(
            "assert-speedup: failed (speedup {speedup:.1}x vs floor {floor:.1}x, \
             byte identical: {identical})"
        ));
    }
    Ok(())
}

/// `--assert-chaos`: every valid query answered, every corrupt reload
/// rejected, overload shed, and the shutdown drained.
fn chaos_gate(artifact: &Value, _: &Options) -> Result<(), String> {
    let chaos = &artifact["chaos"];
    let all_valid = chaos["all_valid_answered"].as_bool() == Some(true);
    let reloads_held = chaos["corrupt_reloads"].as_u64().unwrap_or(0) > 0
        && chaos["corrupt_reloads"] == chaos["corrupt_reloads_rejected"];
    let shed = chaos["overload"]["shed_503"].as_u64().unwrap_or(0) > 0;
    let graceful = chaos["graceful_shutdown"].as_bool() == Some(true);
    if !(all_valid && reloads_held && shed && graceful) {
        return Err(format!(
            "assert-chaos: failed (valid answered: {all_valid}, corrupt reloads \
             rejected: {reloads_held}, shed under overload: {shed}, graceful \
             shutdown: {graceful})"
        ));
    }
    Ok(())
}

/// `--assert-cache`: the warm run reused at least 90% of the files,
/// outran the cold run, and every configuration reported the same.
fn cache_gate(artifact: &Value, _: &Options) -> Result<(), String> {
    let cache = &artifact["cache"];
    let reuse = cache["reuse_fraction"].as_f64().unwrap_or(0.0);
    let warm_faster = cache["warm_speedup"].as_f64().unwrap_or(0.0) > 1.0;
    let identical = artifact["identical_across_workers"].as_bool() == Some(true)
        && cache["identical_to_cold"].as_bool() == Some(true);
    if reuse < 0.9 || !warm_faster || !identical {
        return Err(format!(
            "assert-cache: failed (reuse {reuse:.2} vs floor 0.90, warm faster \
             than cold: {warm_faster}, identical output: {identical})"
        ));
    }
    Ok(())
}

/// `--assert-delta-scaling`: every ≤10% delta ran at least 5x faster
/// than from-scratch, and every byte-identity held.
fn delta_scaling_gate(artifact: &Value, _: &Options) -> Result<(), String> {
    let rows = artifact["delta_sweep"]
        .as_array()
        .map_or(&[][..], Vec::as_slice);
    let all_identical = rows
        .iter()
        .all(|r| r["byte_identical"].as_bool() == Some(true));
    let small_fast = rows
        .iter()
        .filter(|r| r["delta_fraction"].as_f64().unwrap_or(1.0) <= 0.101)
        .all(|r| r["speedup_vs_scratch"].as_f64().unwrap_or(0.0) >= 5.0);
    let determinism = &artifact["determinism"];
    let threads_ok = determinism["byte_identical_all_threads"].as_bool() == Some(true);
    let chaos_ok = determinism["chaos"]["byte_identical_after_replay"].as_bool() == Some(true);
    if !(all_identical && small_fast && threads_ok && chaos_ok) {
        return Err(format!(
            "assert-delta-scaling: failed (byte identical: {all_identical}, \
             <=10% deltas >=5x: {small_fast}, identical across threads: \
             {threads_ok}, chaos replay converged: {chaos_ok})"
        ));
    }
    Ok(())
}

// ---- Flags ----

/// A command-line flag. Each [`Experiment`] lists the flags it accepts;
/// the parser rejects every other one.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Flag {
    /// `--seed N`: the master seed.
    Seed,
    /// `--threads N`: worker threads (at least 1).
    Threads,
    /// `--out PATH`: the artifact path.
    Out,
    /// `--root PATH`: the workspace to lint.
    Root,
    /// `--baseline PATH`: a previous artifact to compare throughput with.
    Baseline,
    /// `--report PATH`: also write an observed run report.
    Report,
    /// `--quick`: the small CI preset.
    Quick,
    /// The subcommand's gate switch, e.g. `--assert-chaos`.
    Arm(&'static str),
    /// `--scaling-tolerance T`, with 0 ≤ T < 1.
    Tolerance,
    /// `--assert-speedup X`: arms the gate at floor X > 0.
    SpeedupFloor,
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Seed => "--seed",
            Flag::Threads => "--threads",
            Flag::Out => "--out",
            Flag::Root => "--root",
            Flag::Baseline => "--baseline",
            Flag::Report => "--report",
            Flag::Quick => "--quick",
            Flag::Arm(name) => name,
            Flag::Tolerance => "--scaling-tolerance",
            Flag::SpeedupFloor => "--assert-speedup",
        }
    }

    /// The value placeholder in the usage text; `None` for a switch.
    fn metavar(self) -> Option<&'static str> {
        match self {
            Flag::Seed | Flag::Threads => Some("N"),
            Flag::Out | Flag::Root | Flag::Baseline | Flag::Report => Some("PATH"),
            Flag::Tolerance => Some("T"),
            Flag::SpeedupFloor => Some("X"),
            Flag::Quick | Flag::Arm(_) => None,
        }
    }
}

/// Everything the flags set.
#[derive(Debug)]
struct Options {
    config: ReproConfig,
    out: String,
    root: String,
    baseline: Option<String>,
    report: Option<String>,
    quick: bool,
    /// Whether the experiment's gate is evaluated.
    armed: bool,
    tolerance: f64,
    speedup_floor: f64,
}

/// Parses `args` against the flags `experiment` accepts.
fn parse(experiment: &Experiment, args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        config: ReproConfig::default(),
        out: experiment.out.to_owned(),
        root: ".".to_owned(),
        baseline: None,
        report: None,
        quick: false,
        armed: false,
        tolerance: scaling::DEFAULT_TOLERANCE,
        speedup_floor: 0.0,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(&flag) = experiment.flags.iter().find(|f| f.name() == arg) else {
            return Err(format!("unknown flag {arg}\n{}", usage()));
        };
        let value = match flag.metavar() {
            Some(_) => it
                .next()
                .ok_or_else(|| format!("missing value for {arg}\n{}", usage()))?,
            None => "",
        };
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("invalid numeric value for {arg}: {value}"))
        };
        match flag {
            Flag::Seed => opts.config.seed = number()?,
            Flag::Threads => opts.config.threads = (number()? as usize).max(1),
            Flag::Out => opts.out = value.to_owned(),
            Flag::Root => opts.root = value.to_owned(),
            Flag::Baseline => opts.baseline = Some(value.to_owned()),
            Flag::Report => opts.report = Some(value.to_owned()),
            Flag::Quick => opts.quick = true,
            Flag::Arm(_) => opts.armed = true,
            Flag::Tolerance => match value.parse::<f64>() {
                Ok(t) if (0.0..1.0).contains(&t) => opts.tolerance = t,
                _ => {
                    return Err(format!(
                        "invalid tolerance for {arg}: {value} (want 0 <= T < 1)"
                    ))
                }
            },
            Flag::SpeedupFloor => match value.parse::<f64>() {
                Ok(x) if x > 0.0 => {
                    opts.speedup_floor = x;
                    opts.armed = true;
                }
                _ => return Err(format!("invalid speedup floor for {arg}: {value}")),
            },
        }
    }
    Ok(opts)
}

/// The usage text, one line per [`EXPERIMENTS`] row plus `diff`.
fn usage() -> String {
    let lines: Vec<String> = EXPERIMENTS
        .iter()
        .map(|e| {
            let flags: String = e
                .flags
                .iter()
                .map(|f| match f.metavar() {
                    Some(metavar) => format!(" [{} {metavar}]", f.name()),
                    None => format!(" [{}]", f.name()),
                })
                .collect();
            format!("bench {}{flags}", e.name)
        })
        .chain(["bench diff <current.json> <baseline.json>".to_owned()])
        .collect();
    format!("usage: {}", lines.join("\n       "))
}

// ---- Artifact schemas ----

/// What a schema row demands of the value at its path.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// Any value.
    Present,
    U64,
    /// Any JSON number.
    Number,
    Bool,
    Str,
    /// The exact `schema_version`.
    Version(u64),
    /// A non-empty array.
    Rows,
    /// An array of exactly this many rows.
    RowsExactly(usize),
}

impl Kind {
    fn admits(self, value: &Value) -> bool {
        match self {
            Kind::Present => true,
            Kind::U64 => value.as_u64().is_some(),
            Kind::Number => value.as_f64().is_some(),
            Kind::Bool => value.as_bool().is_some(),
            Kind::Str => value.as_str().is_some(),
            Kind::Version(version) => value.as_u64() == Some(version),
            Kind::Rows => value.as_array().is_some_and(|rows| !rows.is_empty()),
            Kind::RowsExactly(n) => value.as_array().is_some_and(|rows| rows.len() == n),
        }
    }
}

/// A schema row: a dotted JSON path and the kind of value it must hold.
/// A `key[]` segment applies the rest of the path to every row of the
/// array at `key`; a `key?` segment skips the row when `key` is absent.
type Field = (&'static str, Kind);

/// Checks `artifact` against every row of `schema`.
fn validate(artifact: &Value, schema: &[Field]) -> Result<(), String> {
    schema.iter().try_for_each(|&(path, kind)| {
        let segments: Vec<&str> = path.split('.').collect();
        check(artifact, &segments, path, kind)
    })
}

fn check(value: &Value, segments: &[&str], path: &str, kind: Kind) -> Result<(), String> {
    let Some((segment, rest)) = segments.split_first() else {
        return if kind.admits(value) {
            Ok(())
        } else {
            Err(format!("{path} is not {kind:?}"))
        };
    };
    let (key, optional) = segment
        .strip_suffix('?')
        .map_or((*segment, false), |k| (k, true));
    let (key, each_row) = key.strip_suffix("[]").map_or((key, false), |k| (k, true));
    match value.get(key) {
        None if optional => Ok(()),
        None => Err(format!("missing key {path}")),
        Some(rows) if each_row => rows
            .as_array()
            .ok_or_else(|| format!("{key} is not an array"))?
            .iter()
            .try_for_each(|row| check(row, rest, path, kind)),
        Some(child) => check(child, rest, path, kind),
    }
}

const PIPELINE_SCHEMA: &[Field] = &[
    ("preset", Kind::Str),
    ("seed", Kind::U64),
    ("shards", Kind::U64),
    ("documents", Kind::U64),
    ("sentences", Kind::U64),
    ("host_cpus", Kind::U64),
    ("timing", Kind::Present),
    ("extraction", Kind::RowsExactly(4)),
    ("extraction[].threads", Kind::U64),
    ("extraction[].seconds", Kind::Number),
    ("extraction[].docs_per_sec", Kind::Number),
    ("extraction[].statements", Kind::U64),
    ("end_to_end", Kind::Present),
];

const SCALE_SCHEMA: &[Field] = &[
    ("schema_version", Kind::Version(2)),
    ("preset", Kind::Present),
    ("seed", Kind::Present),
    ("shards", Kind::Present),
    ("documents", Kind::Present),
    ("host_cpus", Kind::U64),
    ("timing", Kind::Present),
    ("phases.generation", Kind::Rows),
    ("phases.generation[].threads", Kind::Number),
    ("phases.generation[].seconds", Kind::Number),
    ("phases.generation[].speedup", Kind::Number),
    ("phases.extraction", Kind::Rows),
    ("phases.extraction[].threads", Kind::Number),
    ("phases.extraction[].seconds", Kind::Number),
    ("phases.extraction[].speedup", Kind::Number),
    ("phases.model", Kind::Rows),
    ("phases.model[].threads", Kind::Number),
    ("phases.model[].seconds", Kind::Number),
    ("phases.model[].speedup", Kind::Number),
    ("phases.group", Kind::Rows),
    ("phases.group[].threads", Kind::Number),
    ("phases.group[].seconds", Kind::Number),
    ("phases.group[].speedup", Kind::Number),
    ("determinism.documents_identical", Kind::Bool),
    ("determinism.statements_identical", Kind::Bool),
    ("determinism.decided_pairs_identical", Kind::Bool),
    ("determinism.groups_identical", Kind::Bool),
    ("assert_scaling?.verdict", Kind::Str),
    ("intern_cache.hits", Kind::Number),
    ("intern_cache.global_lookups", Kind::Number),
    ("intern_cache.hit_rate", Kind::Number),
];

const SNAPSHOT_SCHEMA: &[Field] = &[
    ("schema_version", Kind::Version(1)),
    ("preset", Kind::Present),
    ("seed", Kind::Present),
    ("shards", Kind::Present),
    ("host_cpus", Kind::U64),
    ("timing", Kind::Present),
    ("format_version", Kind::Present),
    ("snapshot_bytes", Kind::Number),
    ("remine_seconds", Kind::Number),
    ("encode_seconds", Kind::Number),
    ("encode_mb_s", Kind::Number),
    ("load_seconds", Kind::Number),
    ("decode_mb_s", Kind::Number),
    ("speedup_load_vs_remine", Kind::Number),
    ("byte_identical", Kind::Bool),
];

const SERVE_SCHEMA: &[Field] = &[
    ("schema_version", Kind::Version(1)),
    ("preset", Kind::Present),
    ("seed", Kind::Present),
    ("shards", Kind::Present),
    ("associations", Kind::Present),
    ("host_cpus", Kind::U64),
    ("throughput", Kind::RowsExactly(4)),
    ("throughput[].threads", Kind::Number),
    ("throughput[].requests", Kind::Number),
    ("throughput[].ok", Kind::Number),
    ("throughput[].errors", Kind::Number),
    ("throughput[].qps", Kind::Number),
    ("throughput[].p50_ms", Kind::Number),
    ("throughput[].p99_ms", Kind::Number),
    ("chaos.ops", Kind::U64),
    ("chaos.valid_queries", Kind::U64),
    ("chaos.valid_ok", Kind::U64),
    ("chaos.malformed", Kind::U64),
    ("chaos.slowloris", Kind::U64),
    ("chaos.disconnects", Kind::U64),
    ("chaos.corrupt_reloads", Kind::U64),
    ("chaos.corrupt_reloads_rejected", Kind::U64),
    ("chaos.panics_injected", Kind::U64),
    ("chaos.all_valid_answered", Kind::Bool),
    ("chaos.accepted_reload", Kind::Bool),
    ("chaos.graceful_shutdown", Kind::Bool),
    ("chaos.overload.shed_503", Kind::U64),
    ("chaos.metrics.shed", Kind::U64),
    ("chaos.metrics.reload_ok", Kind::U64),
    ("chaos.metrics.reload_rejected", Kind::U64),
    ("chaos.metrics.requests", Kind::U64),
    ("chaos.metrics.panics", Kind::U64),
];

const LINT_SCHEMA: &[Field] = &[
    ("schema_version", Kind::Version(1)),
    ("preset", Kind::Present),
    ("ruleset_version", Kind::Present),
    ("host_cpus", Kind::U64),
    ("timing", Kind::Present),
    ("files_scanned", Kind::U64),
    ("findings", Kind::U64),
    ("workers", Kind::RowsExactly(4)),
    ("workers[].workers", Kind::Number),
    ("workers[].seconds", Kind::Number),
    ("parallel_speedup", Kind::Number),
    ("identical_across_workers", Kind::Bool),
    ("cache.cold_seconds", Kind::Number),
    ("cache.warm_seconds", Kind::Number),
    ("cache.warm_speedup", Kind::Number),
    ("cache.reuse_fraction", Kind::Number),
    ("cache.files_reused", Kind::U64),
    ("cache.identical_to_cold", Kind::Bool),
];

const INCREMENTAL_SCHEMA: &[Field] = &[
    ("schema_version", Kind::Version(2)),
    ("preset", Kind::Present),
    ("host_cpus", Kind::U64),
    ("seed", Kind::Present),
    ("shards", Kind::Present),
    ("rho", Kind::Present),
    ("timing", Kind::Present),
    ("from_scratch_seconds", Kind::Number),
    ("delta_sweep", Kind::Rows),
    ("delta_sweep[].delta_shards", Kind::Number),
    ("delta_sweep[].delta_fraction", Kind::Number),
    ("delta_sweep[].update_seconds", Kind::Number),
    ("delta_sweep[].speedup_vs_scratch", Kind::Number),
    ("delta_sweep[].groups_total", Kind::Number),
    ("delta_sweep[].groups_dirty", Kind::Number),
    ("delta_sweep[].groups_carried", Kind::Number),
    ("delta_sweep[].groups_refit", Kind::Number),
    ("delta_sweep[].delta_pairs", Kind::Number),
    ("delta_sweep[].delta_statements", Kind::Number),
    ("delta_sweep[].byte_identical", Kind::Bool),
    ("corpus_sweep", Kind::Rows),
    ("corpus_sweep[].shards", Kind::Number),
    ("corpus_sweep[].delta_shards", Kind::Number),
    ("corpus_sweep[].scratch_seconds", Kind::Number),
    ("corpus_sweep[].update_seconds", Kind::Number),
    ("corpus_sweep[].update_fraction_of_scratch", Kind::Number),
    ("determinism.byte_identical_all_threads", Kind::Bool),
    ("determinism.chaos.seed", Kind::U64),
    ("determinism.chaos.byte_identical_after_replay", Kind::Bool),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Each subcommand's accepted flags, as the per-subcommand parsers
    /// accepted them before they became one table-driven parser.
    const ACCEPTED: &[(&str, &[&str])] = &[
        (
            "pipeline",
            &["--seed", "--threads", "--out", "--baseline", "--report"],
        ),
        (
            "scale",
            &[
                "--seed",
                "--out",
                "--quick",
                "--assert-scaling",
                "--scaling-tolerance",
            ],
        ),
        (
            "snapshot",
            &["--seed", "--out", "--quick", "--assert-speedup"],
        ),
        ("serve", &["--seed", "--out", "--quick", "--assert-chaos"]),
        ("lint", &["--root", "--out", "--quick", "--assert-cache"]),
        (
            "incremental",
            &["--seed", "--out", "--quick", "--assert-delta-scaling"],
        ),
    ];

    fn experiment(name: &str) -> &'static Experiment {
        EXPERIMENTS
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no experiment {name}"))
    }

    fn parse_args(name: &str, args: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        parse(experiment(name), &args)
    }

    fn flag(name: &str) -> Flag {
        EXPERIMENTS
            .iter()
            .flat_map(|e| e.flags)
            .copied()
            .find(|f| f.name() == name)
            .unwrap_or_else(|| panic!("no flag {name}"))
    }

    /// A well-formed value for a flag, by its placeholder.
    fn sample(flag: Flag) -> Option<&'static str> {
        flag.metavar().map(|metavar| match metavar {
            "N" => "7",
            "T" => "0.5",
            "X" => "5",
            _ => "some/path.json",
        })
    }

    /// The committed artifact at `path`, relative to the workspace root.
    fn committed(path: &str) -> Value {
        let full = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{full}: {e}"))
    }

    /// Every committed artifact of each experiment.
    fn artifacts(name: &str) -> Vec<(String, Value)> {
        let mut paths = vec![format!("BENCH_{name}.json")];
        if name != "pipeline" {
            paths.push(format!("artifacts/{name}_smoke.json"));
        }
        paths
            .into_iter()
            .map(|path| {
                let value = committed(&path);
                (path, value)
            })
            .collect()
    }

    /// The object holding the last key of a schema path, and that key;
    /// `key[]` segments descend into the array's first row.
    fn parent_mut<'v, 'p>(
        value: &'v mut Value,
        path: &'p str,
    ) -> (&'v mut serde_json::Map, &'p str) {
        let (init, last) = path.rsplit_once('.').map_or(("", path), |(i, l)| (i, l));
        let mut current = value;
        for segment in init.split('.').filter(|s| !s.is_empty()) {
            let key = segment.trim_end_matches('?');
            let (key, each_row) = key.strip_suffix("[]").map_or((key, false), |k| (k, true));
            let Value::Object(obj) = current else {
                panic!("{path}: {key} has no object parent");
            };
            current = obj
                .get_mut(key)
                .unwrap_or_else(|| panic!("{path}: no {key}"));
            if each_row {
                let Value::Array(rows) = current else {
                    panic!("{path}: {key} is not an array");
                };
                current = &mut rows[0];
            }
        }
        let Value::Object(obj) = current else {
            panic!("{path}: leaf parent is not an object");
        };
        (obj, last)
    }

    fn with(artifact: &Value, path: &str, replacement: Value) -> Value {
        let mut mutated = artifact.clone();
        let (obj, key) = parent_mut(&mut mutated, path);
        assert!(obj.contains_key(key), "{path} is absent");
        obj.insert(key.to_owned(), replacement);
        mutated
    }

    #[test]
    fn table_accepts_exactly_the_parent_flag_sets() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let expected: Vec<&str> = ACCEPTED.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, expected);
        for (name, flags) in ACCEPTED {
            let row: Vec<&str> = experiment(name).flags.iter().map(|f| f.name()).collect();
            assert_eq!(&row, flags, "{name}");
        }
    }

    #[test]
    fn accepted_flags_parse_and_others_are_rejected() {
        let all: Vec<&str> = ACCEPTED
            .iter()
            .flat_map(|(_, flags)| *flags)
            .copied()
            .collect();
        for (name, accepted) in ACCEPTED {
            for &name_of_flag in &all {
                let flag = flag(name_of_flag);
                let mut args = vec![name_of_flag];
                args.extend(sample(flag));
                let parsed = parse_args(name, &args);
                if accepted.contains(&name_of_flag) {
                    assert!(parsed.is_ok(), "{name} {args:?}: {parsed:?}");
                } else {
                    let err = parsed.expect_err(&format!("{name} accepted {name_of_flag}"));
                    assert!(err.starts_with("unknown flag"), "{err}");
                }
                if let Some(metavar) = flag.metavar().filter(|_| accepted.contains(&name_of_flag)) {
                    let err = parse_args(name, &[name_of_flag]).expect_err("missing value");
                    assert!(err.starts_with("missing value for"), "{err}");
                    let err = parse_args(name, &[name_of_flag, "abc"]);
                    assert_eq!(err.is_err(), metavar != "PATH", "{name} {name_of_flag} abc");
                }
            }
        }
    }

    #[test]
    fn flag_values_are_parsed_and_bounded() {
        let opts = parse_args("pipeline", &["--seed", "7", "--threads", "0"]).unwrap();
        assert_eq!((opts.config.seed, opts.config.threads), (7, 1));
        assert_eq!(opts.out, "BENCH_pipeline.json");
        let err = parse_args("scale", &["--seed", "x"]).unwrap_err();
        assert_eq!(err, "invalid numeric value for --seed: x");
        let opts = parse_args("scale", &["--scaling-tolerance", "0.5", "--quick"]).unwrap();
        assert_eq!(opts.tolerance, 0.5);
        assert!(opts.quick && !opts.armed);
        assert!(parse_args("scale", &["--scaling-tolerance", "1"]).is_err());
        assert!(parse_args("scale", &["--scaling-tolerance", "-0.1"]).is_err());
        assert!(parse_args("snapshot", &["--assert-speedup", "0"]).is_err());
        let opts = parse_args("snapshot", &["--assert-speedup", "5"]).unwrap();
        assert!(opts.armed && opts.speedup_floor == 5.0);
        let opts = parse_args(
            "lint",
            &["--root", "ws", "--out", "o.json", "--assert-cache"],
        )
        .unwrap();
        assert_eq!((opts.root.as_str(), opts.out.as_str()), ("ws", "o.json"));
        assert!(opts.armed);
    }

    #[test]
    fn usage_lists_every_subcommand() {
        let usage = usage();
        for e in EXPERIMENTS {
            assert!(usage.contains(&format!("bench {} [", e.name)), "{usage}");
        }
        assert!(usage.contains("[--assert-speedup X]"));
        assert!(usage.ends_with("bench diff <current.json> <baseline.json>"));
    }

    #[test]
    fn committed_artifacts_match_their_schemas() {
        for e in EXPERIMENTS {
            for (path, artifact) in artifacts(e.name) {
                if let Err(err) = validate(&artifact, e.schema) {
                    panic!("{path}: {err}");
                }
            }
        }
    }

    #[test]
    fn every_schema_row_rejects_a_missing_or_retyped_key() {
        for e in EXPERIMENTS {
            for (file, artifact) in artifacts(e.name) {
                for &(path, kind) in e.schema {
                    let mut removed = artifact.clone();
                    let (obj, key) = parent_mut(&mut removed, path);
                    assert!(obj.remove(key).is_some(), "{file}: {path} is absent");
                    assert!(
                        validate(&removed, e.schema).is_err(),
                        "{file}: removed {path}"
                    );
                    if kind != Kind::Present {
                        let wrong = if kind == Kind::Str {
                            json!(0)
                        } else {
                            json!("x")
                        };
                        let retyped = with(&artifact, path, wrong);
                        assert!(
                            validate(&retyped, e.schema).is_err(),
                            "{file}: retyped {path}"
                        );
                    }
                }
            }
        }
    }

    /// The `scripts/verify.sh` key pins for each `artifacts/*_smoke.json`.
    fn verify_pins() -> Vec<(String, Vec<String>)> {
        let script = std::fs::read_to_string(format!(
            "{}/../../scripts/verify.sh",
            env!("CARGO_MANIFEST_DIR")
        ))
        .expect("verify.sh");
        script
            .split("for key in ")
            .skip(1)
            .filter_map(|block| {
                let (list, body) = block.split_once("; do")?;
                let target = body.split("artifacts/").nth(1)?;
                let name = target.split_once("_smoke.json")?.0;
                if name.contains(char::is_whitespace) {
                    return None;
                }
                let keys = list
                    .split('\'')
                    .skip(1)
                    .step_by(2)
                    .map(|key| key.trim_matches('"').to_owned())
                    .collect();
                Some((name.to_owned(), keys))
            })
            .collect()
    }

    #[test]
    fn verify_sh_pins_are_named_by_the_schema() {
        let pins = verify_pins();
        let names: Vec<&str> = pins.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["scale", "snapshot", "serve", "lint", "incremental"]);
        for (name, keys) in &pins {
            assert!(!keys.is_empty(), "{name}");
            let named: Vec<&str> = experiment(name)
                .schema
                .iter()
                .flat_map(|(path, _)| path.split('.'))
                .map(|segment| segment.trim_end_matches('?').trim_end_matches("[]"))
                .collect();
            for key in keys {
                assert!(
                    named.contains(&key.as_str()),
                    "{name}: verify.sh pins {key}"
                );
            }
        }
    }

    fn armed(name: &str, args: &[&str]) -> Options {
        let opts = parse_args(name, args).unwrap();
        assert!(opts.armed);
        opts
    }

    #[test]
    fn snapshot_gate_holds_the_floor_and_identity() {
        let opts = armed("snapshot", &["--assert-speedup", "5"]);
        let artifact = committed("BENCH_snapshot.json");
        assert_eq!(speedup_gate(&artifact, &opts), Ok(()));
        let slow = with(&artifact, "speedup_load_vs_remine", json!(4.99));
        assert!(speedup_gate(&slow, &opts).is_err());
        let drifted = with(&artifact, "byte_identical", json!(false));
        assert!(speedup_gate(&drifted, &opts).is_err());
    }

    #[test]
    fn chaos_gate_holds_every_invariant() {
        let opts = armed("serve", &["--assert-chaos"]);
        let artifact = committed("BENCH_serve.json");
        assert_eq!(chaos_gate(&artifact, &opts), Ok(()));
        let reloads = artifact["chaos"]["corrupt_reloads"].as_u64().unwrap();
        for (path, bad) in [
            ("chaos.corrupt_reloads_rejected", json!(reloads - 1)),
            ("chaos.overload.shed_503", json!(0)),
            ("chaos.graceful_shutdown", json!(false)),
        ] {
            assert!(
                chaos_gate(&with(&artifact, path, bad), &opts).is_err(),
                "{path}"
            );
        }
    }

    #[test]
    fn cache_gate_holds_reuse_speed_and_identity() {
        let opts = armed("lint", &["--assert-cache"]);
        // The smoke artifact, not BENCH_lint.json: on a 2-CPU host the
        // full-size warm run is barely faster than the parallel cold run,
        // and the committed BENCH_lint.json records a run where it was not.
        let artifact = committed("artifacts/lint_smoke.json");
        assert_eq!(cache_gate(&artifact, &opts), Ok(()));
        let full = committed("BENCH_lint.json");
        let margin = full["cache"]["warm_speedup"].as_f64().unwrap();
        assert_eq!(cache_gate(&full, &opts).is_ok(), margin > 1.0);
        for (path, bad) in [
            ("cache.reuse_fraction", json!(0.89)),
            ("cache.warm_speedup", json!(1.0)),
            ("cache.identical_to_cold", json!(false)),
        ] {
            assert!(
                cache_gate(&with(&artifact, path, bad), &opts).is_err(),
                "{path}"
            );
        }
    }

    #[test]
    fn delta_scaling_gate_holds_speed_and_identity() {
        let opts = armed("incremental", &["--assert-delta-scaling"]);
        let artifact = committed("BENCH_incremental.json");
        assert_eq!(delta_scaling_gate(&artifact, &opts), Ok(()));
        assert!(
            artifact["delta_sweep"][0]["delta_fraction"]
                .as_f64()
                .unwrap()
                <= 0.101
        );
        for (path, bad) in [
            ("delta_sweep[].speedup_vs_scratch", json!(4.99)),
            ("delta_sweep[].byte_identical", json!(false)),
            (
                "determinism.chaos.byte_identical_after_replay",
                json!(false),
            ),
        ] {
            let mutated = with(&artifact, path, bad);
            assert!(delta_scaling_gate(&mutated, &opts).is_err(), "{path}");
        }
    }

    #[test]
    fn scaling_gate_reads_the_embedded_verdict() {
        let opts = armed("scale", &["--assert-scaling"]);
        let artifact = committed("artifacts/scale_smoke.json");
        assert_eq!(scaling_gate(&artifact, &opts), Ok(()));
        let failed = with(&artifact, "assert_scaling.verdict", json!("fail"));
        assert!(scaling_gate(&failed, &opts).is_err());
    }
}
