//! What every workload's run does around its units of work: repeated
//! set-ups, medians of per-unit layer metrics, the `op_p50_ms` report,
//! the check that the piecewise trace measures the same program, and the
//! traced run's span accounting.

use crate::lifecycle::{extract_piecewise, runner_metrics, Corpus};
use crate::report::Outcome;
use crate::stats;
use crate::trace::{now, Tracer};
use std::collections::BTreeMap;
use surveyor::extract::{run_sharded_full, run_sharded_observed};
use surveyor::obs::MetricsRegistry;
use surveyor::Surveyor;

/// Set-ups per run; the median is reported.
pub const SETUPS: usize = 5;
/// Fewest measured units per run, however short the window.
pub const MIN_UNITS: usize = 3;

/// Checks that the piecewise annotation and extraction reproduce
/// `annotate_with` and `run_sharded_full` on the shards in `range`, and
/// collects the shard runner's own worker and interner metrics.
pub fn check_piecewise(
    corpus: &Corpus,
    range: std::ops::Range<usize>,
    surveyor: &Surveyor,
    outcome: &mut Outcome,
) {
    let config = surveyor.config();
    let scratch = Tracer::default();
    let unit = scratch.root("check");
    let (piecewise, tally) = extract_piecewise(
        &corpus.shards[range.clone()],
        corpus.kb(),
        &corpus.lexicon,
        &config.extraction,
        config.threads,
        &scratch,
        &unit,
        true,
    );
    let source = corpus.source(range);
    let reference = run_sharded_full(&source, corpus.kb(), &config.extraction, config.threads);
    let registry = MetricsRegistry::new();
    let observed_run = run_sharded_observed(
        &source,
        corpus.kb(),
        &config.extraction,
        config.threads,
        &registry,
    );
    runner_metrics(&registry, &mut outcome.per_layer);
    outcome.attempted += 1;
    let annotate_ok = tally.annotate_mismatches == 0;
    let extract_ok = piecewise == reference && observed_run == reference;
    outcome.failed += u64::from(!(annotate_ok && extract_ok));
    outcome.check(
        "piecewise_annotation_matches_annotate_with",
        annotate_ok,
        format!("{} documents differ", tally.annotate_mismatches),
    );
    outcome.check(
        "piecewise_extraction_matches_run_sharded_full",
        extract_ok,
        "evidence and provenance equal the shard runner's",
    );
}

/// Runs a workload's set-up `SETUPS` times and returns the first result
/// with the median time. Each later result is dropped after its timing
/// stops, so no set-up pays for freeing the one before.
pub fn set_up<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let start = now();
    let first = f();
    let mut times = vec![start.elapsed().as_secs_f64()];
    for _ in 1..SETUPS {
        let start = now();
        let again = f();
        times.push(start.elapsed().as_secs_f64());
        drop(again);
    }
    (first, stats::median(&times))
}

/// Medians of per-unit layer metrics.
pub fn median_layers(units: &[BTreeMap<String, f64>], out: &mut BTreeMap<String, f64>) {
    let mut names: Vec<&String> = units.iter().flat_map(|u| u.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let samples: Vec<f64> = units.iter().filter_map(|u| u.get(name).copied()).collect();
        out.insert(name.clone(), stats::median(&samples));
    }
}

/// Reports a unit-of-work sample set: its median as `op_p50_ms`, and,
/// printed under `name`, its tail (the highest percentile with ten samples
/// beyond it, when the sample has one) and the units done per second.
pub fn op_metrics(samples_s: &[f64], name: &str, outcome: &mut Outcome) {
    let ms: Vec<f64> = samples_s.iter().map(|s| s * 1e3).collect();
    outcome
        .end_to_end
        .insert("op_p50_ms".to_owned(), stats::median(&ms));
    if let Some((p, value)) = stats::tail(&ms, 99.0) {
        outcome.name(&format!("{name}_p{p}_ms"), value, "ms");
    }
    outcome.name(
        &format!("{name}s_per_s"),
        samples_s.len() as f64 / samples_s.iter().sum::<f64>(),
        "1/s",
    );
}

/// Traced-run accounting: span coverage of the `root` units, the
/// uncovered remainder per unit, self time per layer, and the tracing
/// overhead (median traced unit time over median untraced, minus one; the
/// two sample sets share one time unit).
pub fn trace_accounting(
    tracer: &Tracer,
    root: &str,
    traced: &[f64],
    untraced: &[f64],
    outcome: &mut Outcome,
) {
    let spans = tracer.spans();
    let (covered, wall) = crate::trace::coverage(&spans, root);
    let units = traced.len().max(1) as f64;
    outcome.per_layer.insert(
        "trace.coverage_ratio".to_owned(),
        if wall > 0.0 { covered / wall } else { 0.0 },
    );
    outcome
        .per_layer
        .insert("trace.uncovered_s".to_owned(), (wall - covered) / units);
    outcome.per_layer.insert(
        "trace.overhead_ratio".to_owned(),
        stats::median(traced) / stats::median(untraced) - 1.0,
    );
    outcome.self_seconds = crate::trace::self_seconds_by_layer(&spans)
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
}
