//! `mine_table2`: batch-mine pre-generated raw text of the Table 2 world
//! (grown with background entities) from annotation to encoded snapshot
//! bytes. Annotation and extraction do most of the work here; the server
//! does nothing.

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
use surveyor::{Surveyor, SurveyorConfig, SurveyorOutput};

/// Background entities per type: enough that one mine takes about a
/// second on a 2-CPU host rather than being a sub-second blip.
pub const BACKGROUND_PER_TYPE: usize = 2_400;
/// Corpus shards: the unit the extraction workers pull.
pub const SHARDS: usize = 32;
/// A generated Table 2 corpus and the pipeline that mines it.
pub struct Mine {
    pub corpus: Corpus,
    pub surveyor: Surveyor,
}

impl Mine {
    /// Builds the world, generates its raw text and sets up the pipeline.
    pub fn setup(seed: u64, threads: usize) -> Self {
        let world = presets::table2_world_sized(seed, BACKGROUND_PER_TYPE);
        let surveyor = Surveyor::new(
            world.kb().clone(),
            SurveyorConfig {
                threads,
                ..SurveyorConfig::default()
            },
        );
        Self {
            corpus: Corpus::generate(world, SHARDS, threads),
            surveyor,
        }
    }

    /// One untraced mine: raw documents to snapshot bytes.
    pub fn mine(&self) -> (SurveyorOutput, Vec<u8>) {
        let output = self
            .surveyor
            .run(&self.corpus.source(0..self.corpus.shards.len()));
        let bytes = surveyor::save_snapshot(&output);
        (output, bytes)
    }

    /// One traced mine: the same steps called piecewise under a `mine`
    /// root span. Returns the snapshot bytes and the layer metrics.
    pub fn mine_traced(&self, tracer: &Tracer) -> (Vec<u8>, BTreeMap<String, f64>) {
        let unit = tracer.root("mine");
        let config = self.surveyor.config();
        let (extraction, tally) = extract_piecewise(
            &self.corpus.shards,
            self.corpus.kb(),
            &self.corpus.lexicon,
            &config.extraction,
            config.threads,
            tracer,
            &unit,
            false,
        );
        let (pipeline, registry) = observed(&self.surveyor);
        let within = Some((tracer, &unit));
        let (output, _) = timed(within, "core.run_on_evidence", || {
            let mut output = pipeline.run_on_evidence(extraction.evidence);
            output.provenance = extraction.provenance;
            output
        });
        let (snapshot, build_s) = timed(within, "core.snapshot_build", || {
            surveyor::snapshot_output(&output)
        });
        let (bytes, encode_s) = timed(within, "wire.encode", || surveyor::wire::encode(&snapshot));
        tracer.close(unit);
        let mut layers = BTreeMap::new();
        tally.layer_metrics(&mut layers);
        model_metrics(&registry, &output, &mut layers);
        layers.insert("core.snapshot_build_s".to_owned(), build_s);
        layers.insert("wire.encode_s".to_owned(), encode_s);
        (bytes, layers)
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let threads = crate::host::nproc();

    let (mine, setup_s) = set_up(|| Mine::setup(args.seed, threads));
    outcome.end_to_end.insert("setup_s".to_owned(), setup_s);

    let tracer = Tracer::default();
    let mut traced = Vec::new();
    let mut layers = Vec::new();
    let mut differing = 0u64;
    let t0 = now();
    let (output, bytes) = mine.mine();
    let mut untraced = vec![t0.elapsed().as_secs_f64()];
    let mut probe = Probe::new(
        &bytes,
        args.seed,
        args.trace.then_some(&tracer),
        false,
        &mut outcome,
    );
    let window = Duration::from_secs(args.seconds);
    let start = now();
    let mut k = 1usize;
    while start.elapsed() < window
        || untraced.len() < MIN_UNITS
        || (args.trace && traced.len() < MIN_UNITS)
    {
        // A traced run alternates traced and untraced units, so their
        // difference is the tracing overhead on the same host state.
        let trace_this = args.trace && k % 2 == 1;
        k += 1;
        let t0 = now();
        let again = if trace_this {
            let (again, unit_layers) = mine.mine_traced(&tracer);
            traced.push(t0.elapsed().as_secs_f64());
            layers.push(unit_layers);
            again
        } else {
            let (output, again) = mine.mine();
            untraced.push(t0.elapsed().as_secs_f64());
            drop(output);
            probe.tick(&mut outcome);
            again
        };
        differing += u64::from(again != bytes);
    }
    let measured_s = start.elapsed().as_secs_f64();
    let (load_s, _) = probe.finish(&mut outcome);
    outcome.end_to_end.insert("load_s".to_owned(), load_s);
    outcome.attempted += (untraced.len() + traced.len()) as u64;
    outcome.failed += differing;
    outcome.check(
        "mines_are_byte_identical",
        differing == 0,
        format!("{differing} mines (traced or not) differ from the first"),
    );

    let mine_s = stats::median(&untraced);
    outcome.end_to_end.insert("mine_s".to_owned(), mine_s);
    op_metrics(&untraced, "mine", &mut outcome);

    let (matching, decided) = decision_accuracy(&mine.corpus.world, &output);
    let accuracy = matching as f64 / decided.max(1) as f64;
    outcome
        .end_to_end
        .insert("decision_accuracy".to_owned(), accuracy);

    if args.trace {
        check_piecewise(
            &mine.corpus,
            0..mine.corpus.shards.len(),
            &mine.surveyor,
            &mut outcome,
        );
        median_layers(&layers, &mut outcome.per_layer);
        for name in [
            "core.update.groups_refit",
            "core.update.groups_carried",
            "core.update.carried_ratio",
            "server.requests_per_connection",
            "server.shed",
            "server.deadline_expired",
        ] {
            outcome.per_layer.insert(name.to_owned(), 0.0);
        }
        trace_accounting(&tracer, "mine", &traced, &untraced, &mut outcome);
        crate::write_spans(args, &tracer.spans());
    }

    outcome.name("setup_s", setup_s, "s");
    outcome.name("mine_s", mine_s, "s");
    outcome.name("decision_accuracy", accuracy, "ratio");
    outcome.params = json!({
        "world": "table2_world_sized",
        "background_per_type": BACKGROUND_PER_TYPE,
        "shards": SHARDS,
        "documents": mine.corpus.documents(),
        "threads": threads,
        "rho": mine.surveyor.config().rho,
        "setups": SETUPS,
        "measured_seconds": measured_s,
        "untraced_mines": untraced.len(),
        "traced_mines": traced.len(),
        "op": "one mine: raw documents to encoded snapshot bytes",
        "decided_pairs": decided,
        "snapshot_bytes": bytes.len(),
    });
    outcome
}
