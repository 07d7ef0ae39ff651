//! The lifecycle steps every workload shares: the generated corpus, the
//! piecewise (traced) annotation and extraction, model-layer metrics from
//! the program's registry, decision accuracy against the world's planted
//! opinions, and snapshot loading and per-section decoding.
//!
//! The piecewise functions call the same public functions of `nlp` and
//! `extract` that the program's own annotator and shard runner call, in
//! the same order, and time each call. Their output is checked against
//! the program's (`annotate_with`, `run_sharded_full`), so the trace
//! measures the same program the untraced run does.

use crate::requests::{read_mix, route_in_process, InProcess, Request};
use crate::trace::{now, Open, Span, Tracer};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use surveyor::corpus::{CorpusConfig, CorpusGenerator, RawDocument, World};
use surveyor::extract::{
    extract_sentence_into, ExtractContext, ExtractionConfig, ExtractionOutput, PatternCounts,
    ShardSource, Statement,
};
use surveyor::kb::KnowledgeBase;
use surveyor::nlp::token::split_sentence_bounds;
use surveyor::nlp::{
    annotate_with, parse, tag_entities, tokenize_with, AnnotateScratch, AnnotatedDocument,
    AnnotatedSentence, Lexicon,
};
use surveyor::obs::MetricsRegistry;
use surveyor::wire::SnapshotReader;
use surveyor::{SubjectiveKb, Surveyor, SurveyorOutput};
use surveyor_server::ServedState;

/// A world's generated raw text, materialized before any timing starts:
/// generation produces the workload's input and is never measured.
pub struct Corpus {
    pub world: World,
    pub lexicon: Lexicon,
    pub shards: Vec<Vec<RawDocument>>,
}

impl Corpus {
    /// Generates every shard of `world` split `num_shards` ways.
    pub fn generate(world: World, num_shards: usize, threads: usize) -> Self {
        let generator = CorpusGenerator::new(
            world.clone(),
            CorpusConfig {
                num_shards,
                ..CorpusConfig::default()
            },
        );
        Self {
            lexicon: generator.lexicon(),
            shards: generator.all_shards_text(threads),
            world,
        }
    }

    pub fn kb(&self) -> &KnowledgeBase {
        self.world.kb()
    }

    /// The shards in `range` as a source that annotates inside `shard`,
    /// as a crawler feeding raw pages would.
    pub fn source(&self, range: std::ops::Range<usize>) -> RawShards<'_> {
        RawShards {
            shards: &self.shards[range],
            kb: self.kb(),
            lexicon: &self.lexicon,
        }
    }

    pub fn documents(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }
}

/// Pre-generated raw shards, annotated on demand by the program's
/// annotator. Document ids carry their world shard, so any sub-range
/// yields the same documents it would inside the full corpus.
pub struct RawShards<'a> {
    shards: &'a [Vec<RawDocument>],
    kb: &'a KnowledgeBase,
    lexicon: &'a Lexicon,
}

impl ShardSource for RawShards<'_> {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, index: usize) -> Cow<'_, [AnnotatedDocument]> {
        let mut scratch = AnnotateScratch::default();
        Cow::Owned(
            self.shards[index]
                .iter()
                .map(|d| annotate_with(d.id, &d.text, self.kb, self.lexicon, &mut scratch))
                .collect(),
        )
    }
}

/// Busy time and counts of one piecewise annotate-and-extract pass,
/// summed over worker threads.
#[derive(Debug, Clone, Default)]
pub struct PieceTally {
    pub split: Duration,
    pub tokenize: Duration,
    pub pos_tag: Duration,
    pub parse: Duration,
    pub entity_tag: Duration,
    pub matching: Duration,
    pub insert: Duration,
    /// Sentences the splitter produced.
    pub sentences: u64,
    /// Of those, sentences with at least one token.
    pub tokenized: u64,
    /// Of those, sentences that parsed (annotated sentences).
    pub parsed: u64,
    pub tokens: u64,
    pub mentions: u64,
    pub statements: u64,
    /// Annotated sentences that yielded at least one statement.
    pub yielding: u64,
    /// Documents whose piecewise annotation differed from `annotate_with`
    /// (only counted when verifying).
    pub annotate_mismatches: u64,
}

impl PieceTally {
    fn merge(&mut self, o: &PieceTally) {
        self.split += o.split;
        self.tokenize += o.tokenize;
        self.pos_tag += o.pos_tag;
        self.parse += o.parse;
        self.entity_tag += o.entity_tag;
        self.matching += o.matching;
        self.insert += o.insert;
        self.sentences += o.sentences;
        self.tokenized += o.tokenized;
        self.parsed += o.parsed;
        self.tokens += o.tokens;
        self.mentions += o.mentions;
        self.statements += o.statements;
        self.yielding += o.yielding;
        self.annotate_mismatches += o.annotate_mismatches;
    }

    /// The `nlp.*` and `extract.*` per-layer metrics this pass measured.
    pub fn layer_metrics(&self, out: &mut BTreeMap<String, f64>) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        for (name, value) in [
            ("nlp.split_s", self.split.as_secs_f64()),
            ("nlp.tokenize_s", self.tokenize.as_secs_f64()),
            ("nlp.pos_tag_s", self.pos_tag.as_secs_f64()),
            ("nlp.parse_s", self.parse.as_secs_f64()),
            ("nlp.entity_tag_s", self.entity_tag.as_secs_f64()),
            ("nlp.sentences", self.sentences as f64),
            ("nlp.tokens", self.tokens as f64),
            ("nlp.mentions", self.mentions as f64),
            ("nlp.parse_ok_ratio", ratio(self.parsed, self.tokenized)),
            ("extract.match_s", self.matching.as_secs_f64()),
            ("extract.evidence_insert_s", self.insert.as_secs_f64()),
            ("extract.statements", self.statements as f64),
            ("extract.yield_ratio", ratio(self.yielding, self.parsed)),
        ] {
            out.insert(name.to_owned(), value);
        }
    }
}

/// Scratch one worker reuses across documents, as `AnnotateScratch` does.
#[derive(Default)]
struct PieceScratch {
    bounds: Vec<(usize, usize)>,
    trailing: Vec<(usize, usize)>,
    verify: AnnotateScratch,
}

/// `annotate_with`, one timed call at a time.
fn annotate_piecewise(
    doc: &RawDocument,
    kb: &KnowledgeBase,
    lexicon: &Lexicon,
    scratch: &mut PieceScratch,
    tally: &mut PieceTally,
) -> AnnotatedDocument {
    let text = doc.text.as_str();
    let t0 = now();
    scratch.bounds.clear();
    split_sentence_bounds(text, &mut scratch.bounds);
    tally.split += t0.elapsed();
    tally.sentences += scratch.bounds.len() as u64;
    let mut sentences = Vec::new();
    for &(from, to) in &scratch.bounds {
        let t0 = now();
        let mut tokens = tokenize_with(&mut scratch.trailing, &text[from..to]);
        let t1 = now();
        tally.tokenize += t1 - t0;
        if tokens.is_empty() {
            continue;
        }
        tally.tokenized += 1;
        tally.tokens += tokens.len() as u64;
        lexicon.tag(&mut tokens);
        let t2 = now();
        tally.pos_tag += t2 - t1;
        let tree = parse(&tokens);
        let t3 = now();
        tally.parse += t3 - t2;
        let Some(tree) = tree else {
            continue;
        };
        tally.parsed += 1;
        let mentions = tag_entities(&tokens, kb);
        tally.entity_tag += t3.elapsed();
        tally.mentions += mentions.len() as u64;
        sentences.push(AnnotatedSentence {
            tokens,
            tree,
            mentions,
        });
    }
    AnnotatedDocument {
        id: doc.id,
        sentences,
    }
}

/// Annotates and extracts `shards` piecewise on `threads` workers pulling
/// shards off a shared cursor, as the program's shard runner does. Each
/// shard records an `nlp.annotate` and an `extract.shard` span under
/// `unit`. With `verify`, every document is also annotated by
/// `annotate_with` and compared (outside the timed calls).
#[allow(clippy::too_many_arguments)]
pub fn extract_piecewise(
    shards: &[Vec<RawDocument>],
    kb: &KnowledgeBase,
    lexicon: &Lexicon,
    config: &ExtractionConfig,
    threads: usize,
    tracer: &Tracer,
    unit: &Open,
    verify: bool,
) -> (ExtractionOutput, PieceTally) {
    let cursor = AtomicUsize::new(0);
    let workers = threads.clamp(1, shards.len().max(1));
    let results: Vec<(ExtractionOutput, PieceTally, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut output = ExtractionOutput::default();
                    let mut tally = PieceTally::default();
                    let mut spans = Vec::new();
                    let mut scratch = PieceScratch::default();
                    let mut cx = ExtractContext::new();
                    let mut counts = PatternCounts::default();
                    let mut statements: Vec<Statement> = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(shard) = shards.get(index) else {
                            break;
                        };
                        let t0 = tracer.now_ns();
                        let docs: Vec<AnnotatedDocument> = shard
                            .iter()
                            .map(|d| annotate_piecewise(d, kb, lexicon, &mut scratch, &mut tally))
                            .collect();
                        let t1 = tracer.now_ns();
                        spans.push(tracer.finished(unit, "nlp.annotate", t0, t1));
                        for doc in &docs {
                            for sentence in &doc.sentences {
                                let t0 = now();
                                extract_sentence_into(
                                    sentence,
                                    kb,
                                    config,
                                    &mut counts,
                                    &mut cx,
                                    &mut statements,
                                );
                                let t1 = now();
                                tally.matching += t1 - t0;
                                if statements.is_empty() {
                                    continue;
                                }
                                tally.yielding += 1;
                                tally.statements += statements.len() as u64;
                                for statement in &statements {
                                    output.evidence.add(statement);
                                    output.provenance.record(statement, doc.id);
                                }
                                tally.insert += t1.elapsed();
                            }
                        }
                        spans.push(tracer.finished(unit, "extract.shard", t1, tracer.now_ns()));
                        if verify {
                            for (raw, doc) in shard.iter().zip(&docs) {
                                let reference = annotate_with(
                                    raw.id,
                                    &raw.text,
                                    kb,
                                    lexicon,
                                    &mut scratch.verify,
                                );
                                if &reference != doc {
                                    tally.annotate_mismatches += 1;
                                }
                            }
                        }
                    }
                    (output, tally, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("piecewise extraction worker panicked")) // lint:allow(no-panic-in-lib): a panicking worker is a bug the run must surface
            .collect()
    });
    let mut merged = ExtractionOutput::default();
    let mut tally = PieceTally::default();
    for (output, worker_tally, spans) in results {
        merged.evidence.merge(output.evidence);
        merged.provenance.merge(output.provenance);
        tally.merge(&worker_tally);
        tracer.keep(spans);
    }
    (merged, tally)
}

/// Times a closure under a child span of `unit` when tracing.
pub fn timed<T>(
    tracer: Option<(&Tracer, &Open)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let open = tracer.map(|(t, unit)| t.child(unit, name));
    let start = now();
    let value = f();
    let seconds = start.elapsed().as_secs_f64();
    if let (Some((t, _)), Some(open)) = (tracer, open) {
        t.close(open);
    }
    (value, seconds)
}

/// Model-layer metrics of one interpretation or update, from the
/// program's own registry: busy times of the group, EM and decide phases
/// (summed over workers) and the outcome of every fit the run made.
pub fn model_metrics(
    registry: &MetricsRegistry,
    output: &SurveyorOutput,
    out: &mut BTreeMap<String, f64>,
) {
    let report = registry.report();
    let phase = |name: &str| report.phase(name).map_or(0.0, |p| p.seconds);
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0) as f64;
    let (groups, iterations) = report
        .histograms
        .get("em.iterations")
        .map_or((0.0, 0.0), |h| (h.count as f64, h.mean * h.count as f64));
    let entities: u64 = report.em_groups.iter().map(|g| g.entities).sum();
    for (name, value) in [
        ("extract.group_s", phase("group")),
        ("extract.pairs", output.evidence.pair_count() as f64),
        ("model.em_fit_s", phase("model")),
        ("model.decide_s", phase("decide")),
        ("model.em_iterations", iterations.round()),
        (
            "model.em_capped_groups",
            counter("em.converged.max_iterations"),
        ),
        (
            "model.em_converged_ratio",
            if groups == 0.0 {
                0.0
            } else {
                counter("em.converged.tolerance") / groups
            },
        ),
        ("model.groups_fitted", groups),
        ("model.entities_fitted", entities as f64),
    ] {
        out.insert(name.to_owned(), value);
    }
}

/// Worker and interner metrics the program's shard runner records into a
/// registry (`run_sharded_observed` or an observed `try_update`).
pub fn runner_metrics(registry: &MetricsRegistry, out: &mut BTreeMap<String, f64>) {
    let report = registry.report();
    let total = |name: &str| {
        report
            .histograms
            .get(name)
            .map_or(0.0, |h| h.mean * h.count as f64)
    };
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0) as f64;
    let hits = counter("extract.intern.cache_hits");
    let lookups = hits + counter("extract.intern.global_lookups");
    out.insert(
        "extract.worker_busy_s".to_owned(),
        total("extract.worker.work_seconds"),
    );
    out.insert(
        "extract.worker_wait_s".to_owned(),
        total("extract.worker.queue_wait_seconds"),
    );
    out.insert(
        "extract.intern_hit_ratio".to_owned(),
        if lookups == 0.0 { 0.0 } else { hits / lookups },
    );
}

/// Share of decided pairs whose decision matches the world's planted
/// dominant opinion: `(matching, decided)`.
pub fn decision_accuracy(world: &World, output: &SurveyorOutput) -> (u64, u64) {
    let mut matching = 0;
    let mut decided = 0;
    for result in &output.results {
        let property = result.key.property.resolve();
        let Some(domain) = world.domain(result.key.type_id, &property) else {
            continue;
        };
        // Decisions and planted opinions are both parallel to the type's
        // entity list.
        for ((_, decision), &truth) in result.decisions.iter().zip(&domain.opinions) {
            let verdict = match decision.decision {
                surveyor::model::Decision::Positive => true,
                surveyor::model::Decision::Negative => false,
                surveyor::model::Decision::Unsolved => continue,
            };
            decided += 1;
            if verdict == truth {
                matching += 1;
            }
        }
    }
    (matching, decided)
}

/// The sections of a snapshot in file order, as `(tag, payload bytes)`,
/// read from the container framing of FORMAT.md §2.
fn section_sizes(bytes: &[u8]) -> Vec<(String, u64)> {
    let read_u32 = |at: usize| {
        bytes
            .get(at..at + 4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    };
    let read_u64 = |at: usize| {
        bytes
            .get(at..at + 8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
    };
    let mut sections = Vec::new();
    let Some(count) = read_u32(12) else {
        return sections;
    };
    let mut at = 16usize;
    for _ in 0..count {
        let (Some(tag), Some(len)) = (bytes.get(at..at + 4), read_u64(at + 4)) else {
            break;
        };
        sections.push((String::from_utf8_lossy(tag).into_owned(), len));
        at = at.saturating_add(16).saturating_add(len as usize);
    }
    sections
}

/// Decodes every section through the wire crate's borrowing iterators
/// and times each: `(tag, seconds)`. Nested lists are walked too, so
/// each record is decoded in full.
fn decode_sections(bytes: &[u8]) -> Result<Vec<(&'static str, f64)>, String> {
    let err = |e: surveyor::wire::WireError| e.to_string();
    let reader = SnapshotReader::new(bytes).map_err(err)?;
    let mut times = Vec::new();
    let mut time =
        |tag: &'static str, f: &mut dyn FnMut() -> Result<usize, surveyor::wire::WireError>| {
            let start = now();
            let n = f().map_err(err)?;
            std::hint::black_box(n);
            times.push((tag, start.elapsed().as_secs_f64()));
            Ok::<(), String>(())
        };
    time("PROP", &mut || {
        let mut n = 0;
        for r in reader.properties() {
            let r = r?;
            for a in r.adverbs {
                n += a?.len();
            }
            n += r.adjective.len();
        }
        Ok(n)
    })?;
    time("TYPE", &mut || {
        let mut n = 0;
        for r in reader.types() {
            let r = r?;
            for s in r.head_nouns.chain(r.context_cues) {
                n += s?.len();
            }
        }
        Ok(n)
    })?;
    time("ENTS", &mut || {
        let mut n = 0;
        for r in reader.entities() {
            let r = r?;
            for s in r.aliases {
                n += s?.len();
            }
            for a in r.attributes {
                n += a?.0.len();
            }
        }
        Ok(n)
    })?;
    time("EVID", &mut || {
        let mut n = 0;
        for r in reader.evidence() {
            std::hint::black_box(r?);
            n += 1;
        }
        Ok(n)
    })?;
    time("PROV", &mut || {
        let mut n = 0;
        for r in reader.provenance() {
            n += r?.documents.count();
        }
        Ok(n)
    })?;
    time("MODL", &mut || {
        let mut n = 0;
        for r in reader.models() {
            std::hint::black_box(r?);
            n += 1;
        }
        Ok(n)
    })?;
    time("DECN", &mut || {
        let mut n = 0;
        for r in reader.decisions() {
            for d in r?.decisions {
                std::hint::black_box(d?);
                n += 1;
            }
        }
        Ok(n)
    })?;
    time("INCR", &mut || {
        Ok(usize::from(reader.incremental()?.is_some()))
    })?;
    time("GRPF", &mut || {
        let mut n = 0;
        for r in reader.fingerprints() {
            std::hint::black_box(r?);
            n += 1;
        }
        Ok(n)
    })?;
    Ok(times)
}

/// Snapshot bytes made servable, one timed step at a time: the steps
/// `ServedState::from_snapshot_bytes` takes.
struct Loaded {
    store: SubjectiveKb,
    decode_s: f64,
    output_s: f64,
    index_s: f64,
}

/// Decodes, validates and indexes `bytes`, recording spans under `unit`
/// when tracing.
fn load(bytes: &[u8], tracer: Option<(&Tracer, &Open)>) -> Result<Loaded, String> {
    let (snapshot, decode_s) = timed(tracer, "wire.decode", || surveyor::wire::decode(bytes));
    let snapshot = snapshot.map_err(|e| e.to_string())?;
    let (output, output_s) = timed(tracer, "core.output_from_snapshot", || {
        surveyor::snapshot::output_from_snapshot(&snapshot)
    });
    let output = output.map_err(|e| e.to_string())?;
    let (store, index_s) = timed(tracer, "core.index", || {
        SubjectiveKb::from_output(&output, output.kb())
    });
    Ok(Loaded {
        store,
        decode_s,
        output_s,
        index_s,
    })
}

/// Builds a pipeline with the workload's settings, optionally observed.
pub fn observed(surveyor: &Surveyor) -> (Surveyor, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new());
    (surveyor.clone().with_observer(registry.clone()), registry)
}

/// Fewest loads of the snapshot per run; the median is reported.
const MIN_LOADS: usize = 5;
/// Section-decode passes per traced run; the median is reported.
const SECTION_SAMPLES: usize = 3;
/// Requests the in-process server probe replays per run, and per tick.
const PROBE_REQUESTS: usize = 2_000;
const PROBE_CHUNK: usize = 200;

/// The snapshot probes of a run: loads of its snapshot into a servable
/// store and, when asked for, the in-process server probe. They are taken
/// a few at a time, one `tick` between the run's units of work: host
/// contention on a shared machine comes in bursts of seconds, and spread
/// over the run a burst moves a few samples rather than the median.
pub struct Probe<'a> {
    bytes: &'a [u8],
    tracer: Option<&'a Tracer>,
    loads: Vec<f64>,
    steps: [Vec<f64>; 3],
    /// The in-process probe's store and read mix, and how far through the
    /// mix it has got.
    serving: Option<(Arc<ServedState>, Vec<Request>, usize)>,
    served: InProcess,
}

impl<'a> Probe<'a> {
    /// Checks the decode→encode round trip and, traced, times each
    /// section's decoding. With a tracer or `serve`, prepares the
    /// in-process server probe over a read mix drawn from the store.
    pub fn new(
        bytes: &'a [u8],
        seed: u64,
        tracer: Option<&'a Tracer>,
        serve: bool,
        outcome: &mut crate::report::Outcome,
    ) -> Self {
        let round_trip = surveyor::wire::decode(bytes)
            .map(|s| surveyor::wire::encode(&s) == bytes)
            .unwrap_or(false);
        outcome.attempted += 1;
        outcome.failed += u64::from(!round_trip);
        outcome.check(
            "decode_encode_round_trip",
            round_trip,
            "decoding the snapshot and encoding it again reproduces its bytes",
        );
        if tracer.is_some() {
            section_metrics(bytes, outcome);
        }
        let serving = match (tracer.is_some() || serve).then(|| load(bytes, None)) {
            Some(Ok(loaded)) => {
                let requests = read_mix(&loaded.store, seed, PROBE_REQUESTS);
                let state = Arc::new(ServedState {
                    store: loaded.store,
                    generation: 1,
                    source: "perfbench".to_owned(),
                    snapshot_bytes: bytes.len() as u64,
                });
                Some((state, requests, 0))
            }
            Some(Err(e)) => {
                outcome.failed += 1;
                outcome.check("snapshot_loads", false, e);
                None
            }
            None => None,
        };
        Self {
            bytes,
            tracer,
            loads: Vec::new(),
            steps: Default::default(),
            serving,
            served: InProcess::default(),
        }
    }

    /// One load of the snapshot and, with the in-process probe, its next
    /// `PROBE_CHUNK` requests.
    pub fn tick(&mut self, outcome: &mut crate::report::Outcome) {
        self.load_once(outcome);
        if let Some((state, requests, next)) = self.serving.as_mut() {
            let end = (*next + PROBE_CHUNK).min(requests.len());
            let chunk = route_in_process(state.clone(), &requests[*next..end], self.tracer);
            self.served.absorb(chunk);
            *next = end;
        }
    }

    /// One timed load; false when it failed.
    fn load_once(&mut self, outcome: &mut crate::report::Outcome) -> bool {
        let unit = self.tracer.map(|t| t.root("load"));
        let result = load(self.bytes, self.tracer.zip(unit.as_ref()));
        if let (Some(t), Some(unit)) = (self.tracer, unit) {
            t.close(unit);
        }
        outcome.attempted += 1;
        match result {
            Ok(l) => {
                self.loads.push(l.decode_s + l.output_s + l.index_s);
                for (slot, v) in self
                    .steps
                    .iter_mut()
                    .zip([l.decode_s, l.output_s, l.index_s])
                {
                    slot.push(v);
                }
                true
            }
            Err(e) => {
                outcome.failed += 1;
                outcome.check("snapshot_loads", false, e);
                false
            }
        }
    }

    /// Takes what the ticks left untaken and reports: the load steps' and
    /// server calls' per-layer metrics, and the median load time with the
    /// in-process per-request times (empty without the server probe).
    pub fn finish(mut self, outcome: &mut crate::report::Outcome) -> (f64, Vec<f64>) {
        while self.loads.len() < MIN_LOADS && self.load_once(outcome) {}
        if let Some((state, requests, next)) = self.serving.take() {
            let rest = route_in_process(state, &requests[next..], self.tracer);
            self.served.absorb(rest);
            let served = &self.served;
            outcome.attempted += requests.len() as u64;
            outcome.failed += served.wrong;
            outcome.check(
                "in_process_answers",
                served.wrong == 0,
                format!(
                    "{} of {} in-process answers differ from the store",
                    served.wrong,
                    requests.len()
                ),
            );
            for (name, v) in [
                ("server.parse_s", served.parse_s),
                ("server.route_s", served.route_s),
                ("server.render_s", served.render_s),
            ] {
                outcome.per_layer.insert(name.to_owned(), v);
            }
        }
        for (name, samples) in [
            "wire.decode_s",
            "core.output_from_snapshot_s",
            "core.index_s",
        ]
        .into_iter()
        .zip(&self.steps)
        {
            outcome
                .per_layer
                .insert(name.to_owned(), crate::stats::median(samples));
        }
        (crate::stats::median(&self.loads), self.served.request_ms)
    }
}

/// Per-section decode times and sizes of a snapshot, into the per-layer
/// metrics.
fn section_metrics(bytes: &[u8], outcome: &mut crate::report::Outcome) {
    let mut by_tag: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for _ in 0..SECTION_SAMPLES {
        match decode_sections(bytes) {
            Ok(times) => {
                for (tag, s) in times {
                    by_tag.entry(tag).or_default().push(s);
                }
            }
            Err(e) => outcome.check("sections_decode", false, e),
        }
    }
    for (tag, samples) in by_tag {
        outcome.per_layer.insert(
            format!("wire.decode.{tag}_s"),
            crate::stats::median(&samples),
        );
    }
    for tag in surveyor::wire::KNOWN_ORDER {
        let tag = String::from_utf8_lossy(&tag.0).into_owned();
        outcome.per_layer.insert(format!("wire.bytes.{tag}"), 0.0);
    }
    for (tag, len) in section_sizes(bytes) {
        outcome
            .per_layer
            .insert(format!("wire.bytes.{tag}"), len as f64);
    }
    outcome
        .per_layer
        .insert("wire.bytes".to_owned(), bytes.len() as f64);
}
