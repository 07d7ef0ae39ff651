//! `update_longtail`: ingest a 5% delta into a mined long-tail world.
//!
//! The base snapshot holds the first 38 of 40 shards of
//! `long_tail_world(40, 120, 8)`, mined at ρ = 25 with the default EM
//! configuration `surveyor update` runs. One unit of work decodes it,
//! extracts the two-shard delta from raw text, merges it with `try_update`
//! (`WarmStart::Exact`, so only dirtied groups are refit) and encodes the
//! result. The from-scratch mine of all 40 shards is timed too: its bytes
//! are what every update must reproduce. Here `wire` and `model` carry
//! most of the work and `nlp`/`extract` see only the delta.

use crate::harness::{
    check_piecewise, median_layers, op_metrics, set_up, trace_accounting, MIN_UNITS, SETUPS,
};
use crate::lifecycle::{
    decision_accuracy, extract_piecewise, model_metrics, observed, timed, Corpus, Probe,
};
use crate::report::Outcome;
use crate::stats;
use crate::trace::{now, Tracer};
use crate::Args;
use serde_json::json;
use std::collections::BTreeMap;
use std::time::Duration;
use surveyor::corpus::presets;
use surveyor::extract::{FailurePolicy, RetryPolicy};
use surveyor::wire::IncrementalState;
use surveyor::{Surveyor, SurveyorConfig, SurveyorOutput, WarmStart};

/// Shards of the world; the base holds all but the last `DELTA_SHARDS`.
pub const SHARDS: usize = 40;
pub const DELTA_SHARDS: usize = 2;
/// The long-tail world's shape: types, entities per type, properties
/// per type.
const WORLD: (usize, usize, usize) = (40, 120, 8);
/// The occurrence threshold: the long-tail rates are low, and the
/// default ρ = 100 would leave every group unmodeled.
const RHO: u64 = 25;

struct Update {
    corpus: Corpus,
    surveyor: Surveyor,
    base_bytes: Vec<u8>,
}

/// Incremental state of a snapshot that ingested shards `[0, upto)`.
fn state(config: &SurveyorConfig, seed: u64, upto: usize) -> IncrementalState {
    let mut state = IncrementalState {
        rho: config.rho,
        config_digest: config.digest(),
        corpus_digest: seed,
        ingested: Vec::new(),
        pending: Vec::new(),
    };
    state.ingest_range(0, upto as u64);
    state
}

impl Update {
    /// Builds the world, generates its raw text and mines the base.
    fn setup(seed: u64, threads: usize) -> Self {
        let (types, entities, properties) = WORLD;
        let world = presets::long_tail_world(types, entities, properties, seed);
        let surveyor = Surveyor::new(
            world.kb().clone(),
            SurveyorConfig {
                rho: RHO,
                threads,
                ..SurveyorConfig::default()
            },
        );
        let corpus = Corpus::generate(world, SHARDS, threads);
        let base_shards = SHARDS - DELTA_SHARDS;
        let base = surveyor.run(&corpus.source(0..base_shards));
        let base_bytes =
            surveyor::save_snapshot_with_state(&base, &state(surveyor.config(), seed, base_shards));
        Self {
            corpus,
            surveyor,
            base_bytes,
        }
    }

    /// The from-scratch mine of every shard, as a snapshot with state.
    fn mine_all(&self, seed: u64) -> (SurveyorOutput, Vec<u8>) {
        let output = self.surveyor.run(&self.corpus.source(0..SHARDS));
        let bytes = surveyor::save_snapshot_with_state(
            &output,
            &state(self.surveyor.config(), seed, SHARDS),
        );
        (output, bytes)
    }

    /// One untraced update: base bytes plus raw delta to updated bytes.
    /// Also returns the time spent loading the base.
    fn update(&self) -> Result<(SurveyorOutput, Vec<u8>, f64), String> {
        let start = now();
        let (base, state) =
            surveyor::load_snapshot_with_state(&self.base_bytes).map_err(|e| e.to_string())?;
        let mut state = state.ok_or("base snapshot carries no incremental state")?;
        let load_s = start.elapsed().as_secs_f64();
        let delta = self.corpus.source(SHARDS - DELTA_SHARDS..SHARDS);
        let outcome = self
            .surveyor
            .try_update(
                base,
                &delta,
                &RetryPolicy::default(),
                &FailurePolicy::FailFast,
                WarmStart::Exact,
            )
            .map_err(|e| e.to_string())?;
        state.ingest_range((SHARDS - DELTA_SHARDS) as u64, SHARDS as u64);
        let bytes = surveyor::save_snapshot_with_state(&outcome.output, &state);
        Ok((outcome.output, bytes, load_s))
    }

    /// One traced update: the same steps called piecewise under an
    /// `update` root span.
    fn update_traced(&self, tracer: &Tracer) -> Result<(Vec<u8>, BTreeMap<String, f64>), String> {
        let unit = tracer.root("update");
        let within = Some((tracer, &unit));
        let (snapshot, decode_s) = timed(within, "wire.decode", || {
            surveyor::wire::decode(&self.base_bytes)
        });
        let snapshot = snapshot.map_err(|e| e.to_string())?;
        // The consistency check `load_snapshot_with_state` makes.
        let (consistent, _) = timed(within, "wire.fingerprints", || {
            snapshot.fingerprints.is_empty()
                || snapshot.fingerprints == surveyor::wire::group_fingerprints(&snapshot)
        });
        if !consistent {
            return Err("group fingerprints do not match evidence".to_owned());
        }
        let (base, output_s) = timed(within, "core.output_from_snapshot", || {
            surveyor::output_from_snapshot(&snapshot)
        });
        let base = base.map_err(|e| e.to_string())?;
        let mut state = snapshot
            .incremental
            .clone()
            .ok_or("base snapshot carries no incremental state")?;
        let config = self.surveyor.config();
        let (delta, tally) = extract_piecewise(
            &self.corpus.shards[SHARDS - DELTA_SHARDS..],
            self.corpus.kb(),
            &self.corpus.lexicon,
            &config.extraction,
            config.threads,
            tracer,
            &unit,
            false,
        );
        let (pipeline, registry) = observed(&self.surveyor);
        let ((output, stats), apply_s) = timed(within, "core.apply_delta", || {
            pipeline.apply_delta(base, delta, WarmStart::Exact)
        });
        state.ingest_range((SHARDS - DELTA_SHARDS) as u64, SHARDS as u64);
        let (snapshot, build_s) = timed(within, "core.snapshot_build", || {
            surveyor::snapshot_output_with_state(&output, &state)
        });
        let (bytes, encode_s) = timed(within, "wire.encode", || surveyor::wire::encode(&snapshot));
        tracer.close(unit);

        let mut layers = BTreeMap::new();
        tally.layer_metrics(&mut layers);
        model_metrics(&registry, &output, &mut layers);
        let carried = stats.groups_carried as f64;
        let total = stats.groups_total.max(1) as f64;
        for (name, value) in [
            ("wire.decode_s", decode_s),
            ("core.output_from_snapshot_s", output_s),
            ("core.apply_delta_s", apply_s),
            ("core.update.groups_refit", stats.groups_refit as f64),
            ("core.update.groups_carried", carried),
            ("core.update.carried_ratio", carried / total),
            ("core.snapshot_build_s", build_s),
            ("wire.encode_s", encode_s),
        ] {
            layers.insert(name.to_owned(), value);
        }
        Ok((bytes, layers))
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let threads = crate::host::nproc();

    let (update, setup_s) = set_up(|| Update::setup(args.seed, threads));
    outcome.end_to_end.insert("setup_s".to_owned(), setup_s);

    // The measured window splits its time evenly between from-scratch
    // mines and updates: whichever has used less time goes next.
    let tracer = Tracer::default();
    let (mut mines, mut updates, mut traced, mut loads) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut layers = Vec::new();
    let mut updated: Option<SurveyorOutput> = None;
    let mut wrong = 0u64;
    let mut errors = Vec::new();
    let t0 = now();
    let (output, oracle) = update.mine_all(args.seed);
    mines.push(t0.elapsed().as_secs_f64());
    drop(output);
    let mut probe = Probe::new(
        &oracle,
        args.seed,
        args.trace.then_some(&tracer),
        false,
        &mut outcome,
    );
    let window = Duration::from_secs(args.seconds);
    let start = now();
    let mut k = 0usize;
    let enough = |n: usize| n >= MIN_UNITS;
    while errors.is_empty()
        && (start.elapsed() < window
            || !enough(mines.len())
            || !enough(updates.len())
            || (args.trace && !enough(traced.len())))
    {
        let mine_time: f64 = mines.iter().sum();
        let update_time: f64 = updates.iter().chain(&traced).sum();
        let t0 = now();
        if mine_time <= update_time && enough(updates.len()) {
            let (output, bytes) = update.mine_all(args.seed);
            mines.push(t0.elapsed().as_secs_f64());
            drop(output);
            wrong += u64::from(bytes != oracle);
            probe.tick(&mut outcome);
            continue;
        }
        let trace_this = args.trace && k % 2 == 1;
        k += 1;
        let result = if trace_this {
            update.update_traced(&tracer).map(|(bytes, unit_layers)| {
                traced.push(t0.elapsed().as_secs_f64());
                layers.push(unit_layers);
                bytes
            })
        } else {
            update.update().map(|(output, bytes, load_s)| {
                updates.push(t0.elapsed().as_secs_f64());
                loads.push(load_s);
                updated.get_or_insert(output);
                bytes
            })
        };
        match result {
            Ok(bytes) => wrong += u64::from(bytes != oracle),
            Err(e) => {
                wrong += 1;
                errors.push(e);
            }
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    let (load_s, _) = probe.finish(&mut outcome);
    outcome.end_to_end.insert("load_s".to_owned(), load_s);
    outcome.attempted += (mines.len() + updates.len() + traced.len()) as u64 + errors.len() as u64;
    outcome.failed += wrong;
    outcome.check(
        "updates_equal_from_scratch_mine",
        wrong == 0,
        format!(
            "{wrong} updates or mines differ from the first from-scratch mine{}",
            errors
                .first()
                .map(|e| format!("; first error: {e}"))
                .unwrap_or_default()
        ),
    );

    let mine_s = stats::median(&mines);
    let update_s = stats::median(&updates);
    outcome.end_to_end.insert("mine_s".to_owned(), mine_s);
    op_metrics(&updates, "update", &mut outcome);

    let accuracy = match &updated {
        Some(output) => {
            let (matching, decided) = decision_accuracy(&update.corpus.world, output);
            matching as f64 / decided.max(1) as f64
        }
        None => f64::NAN,
    };
    outcome
        .end_to_end
        .insert("decision_accuracy".to_owned(), accuracy);

    if args.trace {
        check_piecewise(
            &update.corpus,
            SHARDS - DELTA_SHARDS..SHARDS,
            &update.surveyor,
            &mut outcome,
        );
        // The update's own decode and load steps override the probe's.
        median_layers(&layers, &mut outcome.per_layer);
        for name in [
            "server.requests_per_connection",
            "server.shed",
            "server.deadline_expired",
        ] {
            outcome.per_layer.insert(name.to_owned(), 0.0);
        }
        trace_accounting(&tracer, "update", &traced, &updates, &mut outcome);
        crate::write_spans(args, &tracer.spans());
    }

    outcome.name("setup_s", setup_s, "s");
    outcome.name("update_s", update_s, "s");
    outcome.name("update_load_s", stats::median(&loads), "s");
    outcome.name("mine_s", mine_s, "s");
    outcome.name("decision_accuracy", accuracy, "ratio");
    let (types, entities, properties) = WORLD;
    outcome.params = json!({
        "world": format!("long_tail_world({types},{entities},{properties})"),
        "shards": SHARDS,
        "delta_shards": DELTA_SHARDS,
        "documents": update.corpus.documents(),
        "rho": RHO,
        "em": "EmConfig::default()",
        "warm_start": "Exact",
        "threads": threads,
        "setups": SETUPS,
        "measured_seconds": measured_s,
        "untraced_updates": updates.len(),
        "traced_updates": traced.len(),
        "from_scratch_mines": mines.len(),
        "op": "one update: base snapshot bytes and raw delta to updated snapshot bytes",
        "snapshot_bytes": oracle.len(),
    });
    outcome
}
