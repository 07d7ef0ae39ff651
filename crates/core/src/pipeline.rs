//! Algorithm 1: the end-to-end Surveyor pipeline.
//!
//! ```text
//! function Surveyor(W, KB, ρ):
//!     iterate over documents in W to extract evidence
//!     for ⟨type, property⟩ with at least ρ extractions:
//!         learn model parameters (EM)
//!         for entity of type:
//!             prb = Pr(property applies)
//!             emit ⟨entity, property, +⟩ if prb > ½
//!             emit ⟨entity, property, −⟩ if prb < ½
//! ```

use crate::incremental::WarmStart;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use surveyor_extract::{
    run_sharded_fault_tolerant, run_sharded_full, run_sharded_observed, EvidenceTable,
    ExtractionConfig, ExtractionOutput, FailurePolicy, FallibleShardSource, GroupKey,
    GroupedEvidence, ProvenanceTable, RetryPolicy, RunError, RunOutcome, ShardCoverage,
    ShardSource,
};
use surveyor_kb::{EntityId, KnowledgeBase, Property, PropertyId};
use surveyor_model::{Decision, EmConfig, EmFit, ModelDecision};
use surveyor_obs::{FaultSummary, MetricsRegistry};

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurveyorConfig {
    /// Occurrence threshold ρ: minimum extracted statements for a
    /// (type, property) combination to be modeled (the paper used 100).
    pub rho: u64,
    /// EM configuration.
    pub em: EmConfig,
    /// Extraction pattern configuration (defaults to the shipped V4).
    pub extraction: ExtractionConfig,
    /// Worker threads for the sharded extraction phase.
    pub threads: usize,
}

impl Default for SurveyorConfig {
    fn default() -> Self {
        Self {
            rho: 100,
            em: EmConfig::default(),
            extraction: ExtractionConfig::paper_final(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

/// A decided entity-property association — one output row of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpinionTriple {
    /// The entity's canonical name.
    pub entity: String,
    /// The property surface form.
    pub property: String,
    /// `+` or `-`.
    pub polarity: char,
    /// The posterior probability behind the decision.
    pub probability: f64,
}

/// Per-combination result: the fitted model and all entity decisions.
#[derive(Debug, Clone)]
pub struct DomainResult {
    /// The (type, property) combination.
    pub key: GroupKey,
    /// The EM fit for the combination.
    pub fit: EmFit,
    /// Decisions for every entity of the type (not just mentioned ones),
    /// parallel to `kb.entities_of_type(key.type_id)`.
    pub decisions: Vec<(EntityId, ModelDecision)>,
}

/// Full pipeline output.
#[derive(Debug, Clone)]
pub struct SurveyorOutput {
    /// The merged evidence table from extraction.
    pub evidence: EvidenceTable,
    /// Supporting-document samples per pair (empty when the output was
    /// built from pre-extracted evidence).
    pub provenance: ProvenanceTable,
    /// Evidence grouped by (type, property).
    pub grouped: GroupedEvidence,
    /// One result per combination above the threshold.
    pub results: Vec<DomainResult>,
    index: FxHashMap<(EntityId, PropertyId), ModelDecision>,
    /// The knowledge base the run decided over — kept so
    /// [`triples`](Self::triples) can resolve canonical entity names.
    kb: Arc<KnowledgeBase>,
    /// Decided-pair count, cached at construction instead of recounted on
    /// every call.
    decided: usize,
}

impl SurveyorOutput {
    /// An output with nothing mined: the base a from-scratch mine updates.
    pub(crate) fn empty(kb: Arc<KnowledgeBase>) -> Self {
        Self::from_parts(
            EvidenceTable::new(),
            ProvenanceTable::default(),
            GroupedEvidence::default(),
            Vec::new(),
            kb,
        )
    }

    /// Assembles an output from its portable parts — the one place the
    /// decision index and decided-pair count are built, for mining,
    /// updating and snapshot loading alike. Every decision lands in the
    /// index exactly once, so the capacity is known up front and the
    /// build never rehashes.
    pub(crate) fn from_parts(
        evidence: EvidenceTable,
        provenance: ProvenanceTable,
        grouped: GroupedEvidence,
        results: Vec<DomainResult>,
        kb: Arc<KnowledgeBase>,
    ) -> Self {
        let decisions_total: usize = results.iter().map(|r| r.decisions.len()).sum();
        let mut index: FxHashMap<(EntityId, PropertyId), ModelDecision> =
            FxHashMap::with_capacity_and_hasher(decisions_total, Default::default());
        let mut decided = 0usize;
        for result in &results {
            for (e, d) in &result.decisions {
                if d.decision.is_solved() {
                    decided += 1;
                }
                index.insert((*e, result.key.property), *d);
            }
        }
        Self {
            evidence,
            provenance,
            grouped,
            results,
            index,
            kb,
            decided,
        }
    }

    /// The knowledge base the run decided over.
    pub fn kb(&self) -> &Arc<KnowledgeBase> {
        &self.kb
    }

    /// Entity-property pairs in the decision index.
    pub(crate) fn indexed_pairs(&self) -> usize {
        self.index.len()
    }

    /// The decision for an entity-property pair, if its combination was
    /// modeled. Allocation-free: the property is looked up in the interner
    /// (a never-extracted property cannot have an opinion).
    pub fn opinion(&self, entity: EntityId, property: &Property) -> Option<ModelDecision> {
        let id = PropertyId::lookup(property)?;
        self.opinion_id(entity, id)
    }

    /// Like [`opinion`](Self::opinion) for an already-interned property.
    pub fn opinion_id(&self, entity: EntityId, property: PropertyId) -> Option<ModelDecision> {
        self.index.get(&(entity, property)).copied()
    }

    /// All decided triples (skips unsolved entities), in deterministic
    /// order. The output vector is pre-sized from the cached decided-pair
    /// count, and entity names come straight from the knowledge base (a
    /// single buffer copy each) instead of the `Display` machinery.
    pub fn triples(&self) -> Vec<OpinionTriple> {
        let mut out = Vec::with_capacity(self.decided);
        for result in &self.results {
            // One resolve per combination, not one `to_string` per triple.
            let property = result.key.property.resolve().to_string();
            for (entity, decision) in &result.decisions {
                let polarity = match decision.decision {
                    Decision::Positive => '+',
                    Decision::Negative => '-',
                    Decision::Unsolved => continue,
                };
                out.push(OpinionTriple {
                    entity: self.kb.entity(*entity).name().to_owned(),
                    property: property.clone(),
                    polarity,
                    probability: decision.probability.unwrap_or(0.5),
                });
            }
        }
        out
    }

    /// Number of modeled combinations.
    pub fn modeled_combinations(&self) -> usize {
        self.results.len()
    }

    /// Total decided entity-property pairs (counted once at construction).
    pub fn decided_pairs(&self) -> usize {
        self.decided
    }
}

/// A fault-tolerant pipeline run: the full output plus the extraction
/// shard accounting behind it. Produced by [`Surveyor::try_run`].
#[derive(Debug, Clone)]
pub struct SurveyorRun {
    /// The pipeline output over every surviving shard.
    pub output: SurveyorOutput,
    /// What extraction attempted, retried, and lost.
    pub coverage: ShardCoverage,
}

/// The Surveyor pipeline over a fixed knowledge base.
#[derive(Debug, Clone)]
pub struct Surveyor {
    kb: Arc<KnowledgeBase>,
    config: SurveyorConfig,
    obs: Option<Arc<MetricsRegistry>>,
}

impl Surveyor {
    /// Creates a pipeline.
    pub fn new(kb: Arc<KnowledgeBase>, config: SurveyorConfig) -> Self {
        Self {
            kb,
            config,
            obs: None,
        }
    }

    /// Attaches a metrics registry: subsequent runs record the five
    /// pipeline phases (`extract`, `group`, `model`, `decide`, `index`),
    /// extraction counters, and per-combination EM telemetry into it.
    /// Output is identical with or without an observer; overhead is a
    /// handful of clock reads per combination plus one counter flush per
    /// worker.
    pub fn with_observer(mut self, obs: Arc<MetricsRegistry>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The attached metrics registry, if any.
    pub fn observer(&self) -> Option<&Arc<MetricsRegistry>> {
        self.obs.as_ref()
    }

    /// The knowledge base.
    pub fn kb(&self) -> &Arc<KnowledgeBase> {
        &self.kb
    }

    /// The configuration.
    pub fn config(&self) -> &SurveyorConfig {
        &self.config
    }

    /// Runs the full pipeline: sharded extraction over `source`, grouping,
    /// threshold filtering, per-combination EM, and decisions.
    pub fn run<S: ShardSource>(&self, source: &S) -> SurveyorOutput {
        let extraction = match &self.obs {
            Some(obs) => {
                let docs_before = obs.counter_value("extract.documents");
                let mut span = obs.span("extract");
                let extraction = run_sharded_observed(
                    source,
                    &self.kb,
                    &self.config.extraction,
                    self.config.threads,
                    obs,
                );
                span.set_items(obs.counter_value("extract.documents") - docs_before);
                extraction
            }
            None => run_sharded_full(
                source,
                &self.kb,
                &self.config.extraction,
                self.config.threads,
            ),
        };
        self.mine(extraction)
    }

    /// Runs the full pipeline under a failure policy: extraction shards
    /// that fail are retried per `retry` and, if the budget is exhausted,
    /// handled per `policy` — aborting the run ([`FailurePolicy::FailFast`])
    /// or quarantining the shard and continuing on the survivors
    /// ([`FailurePolicy::Degrade`]).
    ///
    /// With an observer attached, the run additionally stamps a
    /// [`FaultSummary`] into the registry so the resulting report carries
    /// the coverage, retry, and quarantine accounting — a degraded answer
    /// is never silent.
    ///
    /// For an infallible source and `FailurePolicy::FailFast` with
    /// [`RetryPolicy::no_retries`], the output is bit-identical to
    /// [`run`](Self::run).
    pub fn try_run<F: FallibleShardSource>(
        &self,
        source: &F,
        retry: &RetryPolicy,
        policy: &FailurePolicy,
    ) -> Result<SurveyorRun, RunError> {
        let outcome = self.extract(source, retry, policy)?;
        Ok(SurveyorRun {
            output: self.mine(outcome.output),
            coverage: outcome.coverage,
        })
    }

    /// Runs the interpretation phase on pre-extracted evidence (Algorithm 1
    /// lines 5–12). Useful when the same evidence is interpreted under
    /// several model configurations.
    pub fn run_on_evidence(&self, evidence: EvidenceTable) -> SurveyorOutput {
        self.mine(ExtractionOutput {
            evidence,
            provenance: ProvenanceTable::default(),
        })
    }

    /// A from-scratch mine is an update of the empty output in which
    /// every group is dirty: one grouping, fitting and decision path
    /// serves both, so a mine and an update over the same evidence agree
    /// by construction. The empty base's tables take the extraction's by
    /// move, so this costs nothing over interpreting it directly.
    fn mine(&self, extraction: ExtractionOutput) -> SurveyorOutput {
        let (output, _) = self.apply_delta(
            SurveyorOutput::empty(self.kb.clone()),
            extraction,
            WarmStart::Exact,
        );
        output
    }

    /// Fault-tolerant sharded extraction, the first step of both
    /// [`try_run`](Self::try_run) and [`try_update`](Self::try_update).
    /// With an observer attached it records the `extract` phase and the
    /// run's [`FaultSummary`].
    pub(crate) fn extract<F: FallibleShardSource>(
        &self,
        source: &F,
        retry: &RetryPolicy,
        policy: &FailurePolicy,
    ) -> Result<RunOutcome, RunError> {
        let obs = self.obs.as_deref();
        let docs_before = obs.map_or(0, |obs| obs.counter_value("extract.documents"));
        let mut span = obs.map(|obs| obs.span("extract"));
        let outcome = run_sharded_fault_tolerant(
            source,
            &self.kb,
            &self.config.extraction,
            self.config.threads,
            retry,
            policy,
            obs,
        )?;
        if let (Some(obs), Some(span)) = (obs, span.as_mut()) {
            span.set_items(obs.counter_value("extract.documents") - docs_before);
            obs.record_fault_summary(FaultSummary {
                coverage: outcome.coverage.fraction(),
                retries: outcome.coverage.retries,
                quarantined_shards: outcome.coverage.quarantined_shards(),
            });
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surveyor_extract::{Polarity, Statement};
    use surveyor_kb::KnowledgeBaseBuilder;

    fn kb() -> Arc<KnowledgeBase> {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        for name in ["Kitten", "Tiger", "Spider", "Puppy", "Rock"] {
            b.add_entity(name, animal).finish();
        }
        Arc::new(b.build())
    }

    fn evidence(kb: &KnowledgeBase) -> EvidenceTable {
        let cute = Property::adjective("cute");
        let mut table = EvidenceTable::new();
        let add = |table: &mut EvidenceTable, name: &str, pos: u64, neg: u64| {
            let e = kb.entity_by_name(name).unwrap();
            for _ in 0..pos {
                table.add(&Statement::new(e, &cute, Polarity::Positive));
            }
            for _ in 0..neg {
                table.add(&Statement::new(e, &cute, Polarity::Negative));
            }
        };
        add(&mut table, "Kitten", 50, 2);
        add(&mut table, "Puppy", 40, 1);
        add(&mut table, "Tiger", 4, 8);
        add(&mut table, "Spider", 1, 10);
        // "Rock" never mentioned.
        table
    }

    #[test]
    fn algorithm1_decides_all_entities_above_threshold() {
        let kb = kb();
        let config = SurveyorConfig {
            rho: 50,
            ..Default::default()
        };
        let surveyor = Surveyor::new(kb.clone(), config);
        let output = surveyor.run_on_evidence(evidence(&kb));
        assert_eq!(output.modeled_combinations(), 1);
        let cute = Property::adjective("cute");
        let kitten = kb.entity_by_name("Kitten").unwrap();
        let spider = kb.entity_by_name("Spider").unwrap();
        let rock = kb.entity_by_name("Rock").unwrap();
        assert_eq!(
            output.opinion(kitten, &cute).unwrap().decision,
            Decision::Positive
        );
        assert_eq!(
            output.opinion(spider, &cute).unwrap().decision,
            Decision::Negative
        );
        // The never-mentioned entity still gets a decision (negative: cute
        // entities are chatty in this evidence).
        assert_eq!(
            output.opinion(rock, &cute).unwrap().decision,
            Decision::Negative
        );
        assert_eq!(output.decided_pairs(), 5);
    }

    #[test]
    fn threshold_suppresses_sparse_combinations() {
        let kb = kb();
        let config = SurveyorConfig {
            rho: 1_000,
            ..Default::default()
        };
        let surveyor = Surveyor::new(kb.clone(), config);
        let output = surveyor.run_on_evidence(evidence(&kb));
        assert_eq!(output.modeled_combinations(), 0);
        let cute = Property::adjective("cute");
        let kitten = kb.entity_by_name("Kitten").unwrap();
        assert!(output.opinion(kitten, &cute).is_none());
    }

    #[test]
    fn triples_skip_unsolved_and_format_polarity() {
        let kb = kb();
        let surveyor = Surveyor::new(
            kb.clone(),
            SurveyorConfig {
                rho: 10,
                ..Default::default()
            },
        );
        let output = surveyor.run_on_evidence(evidence(&kb));
        let triples = output.triples();
        assert_eq!(triples.len(), output.decided_pairs());
        assert!(triples
            .iter()
            .all(|t| t.polarity == '+' || t.polarity == '-'));
        assert!(triples.iter().all(|t| t.property == "cute"));
        // Entities surface under their canonical KB names, not raw ids.
        assert!(triples
            .iter()
            .all(|t| kb.entity_by_name(&t.entity).is_some()));
    }
}
