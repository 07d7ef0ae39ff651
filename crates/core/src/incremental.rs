//! Incremental mining: delta ingestion with dirty-group re-decide
//! (ROADMAP item 3) — and, as the update of an empty output, every
//! from-scratch mine.
//!
//! A mined [`SurveyorOutput`] plus a delta corpus — newly crawled shards,
//! or a replayed quarantine queue — updates in time proportional to the
//! *delta*, not the corpus:
//!
//! 1. Extraction runs only over the delta shards, through the existing
//!    parallel fault-tolerant runner.
//! 2. Evidence, provenance, and grouped tables merge by sorted
//!    `(entity, property)` / `(type, property)` key. Every merge is
//!    commutative, so the merged state equals a from-scratch mine of the
//!    concatenated corpus.
//! 3. Only combinations the delta touched ("dirty" groups) are re-fitted
//!    and re-decided. An untouched group's counts did not change, and EM
//!    is a pure function of the counts — so its previous [`DomainResult`]
//!    carries forward *byte-identically*, without re-running EM at all.
//!
//! Step 3 is where the asymptotics change: a from-scratch interpretation
//! phase is `O(groups)`, an update is `O(dirty groups)`. A from-scratch
//! mine is the same three steps over an empty base, where every group is
//! dirty, so mine and update share one fit-and-decide loop. The guarantee
//! the bench (`bench incremental`) and `scripts/verify.sh` pin is that the
//! final snapshot is byte-identical to mining the concatenated corpus from
//! scratch, at every worker count, clean and under injected chaos.

use crate::pipeline::{DomainResult, Surveyor, SurveyorConfig, SurveyorOutput};
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use surveyor_extract::evidence::Group;
use surveyor_extract::{
    ExtractionOutput, FailurePolicy, FallibleShardSource, GroupKey, GroupedEvidence, RetryPolicy,
    RunError, ShardCoverage,
};
use surveyor_kb::EntityId;
use surveyor_model::{decide, posterior_positive, ModelDecision, ObservedCounts, SurveyorModel};
use surveyor_obs::{EmGroupReport, MetricsRegistry};
use surveyor_wire::Fnv64;

/// How dirty groups are re-fitted during an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmStart {
    /// Re-fit with the standard cold multi-restart EM — exactly what a
    /// from-scratch run would do, so the updated output is byte-identical
    /// to re-mining the concatenated corpus.
    #[default]
    Exact,
}

/// What an update did, beyond the output itself.
///
/// `groups_carried + groups_refit == groups_total`. `groups_dirty` counts
/// every combination the delta touched, below ρ included, so it can
/// exceed `groups_refit`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Modeled combinations after the update.
    pub groups_total: usize,
    /// Combinations the delta added evidence to (whether or not they
    /// cleared the threshold ρ).
    pub groups_dirty: usize,
    /// Modeled combinations carried forward without re-fitting.
    pub groups_carried: usize,
    /// Modeled combinations re-fitted and re-decided.
    pub groups_refit: usize,
    /// Entity-property pairs in the delta's evidence table.
    pub delta_pairs: usize,
    /// Statements the delta contributed.
    pub delta_statements: u64,
}

/// An incremental update's result: the merged output, the delta
/// extraction's shard accounting, and the dirty-group accounting.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// The updated pipeline output over base ∪ delta.
    pub output: SurveyorOutput,
    /// What the delta extraction attempted, retried, and lost.
    pub coverage: ShardCoverage,
    /// Group-level accounting of the update.
    pub stats: UpdateStats,
}

impl SurveyorConfig {
    /// A digest of everything about this configuration that determines
    /// the mined output: ρ, the EM configuration, and the extraction
    /// configuration. Thread count is deliberately excluded — the
    /// pipeline is byte-identical across worker counts. Stored in a
    /// snapshot's `INCR` section so an updater can refuse a delta mined
    /// under different settings.
    pub fn digest(&self) -> u64 {
        let json = serde_json::to_string(&(self.rho, self.em.clone(), self.extraction))
            .expect("pipeline configuration serializes"); // lint:allow(no-panic-in-lib): plain structs of numbers and strings cannot fail to serialize
        let mut digest = Fnv64::new();
        digest.write(json.as_bytes()); // lint:allow(no-shared-lock-in-worker-loop): Fnv64 hashing, not a lock; once per config
        digest.finish()
    }
}

/// One combination queued for fitting.
struct RefitTask<'a> {
    /// Position among the modeled combinations (the output order).
    rank: usize,
    key: GroupKey,
    group: &'a Group,
}

/// One fit-and-decide worker's state: a counts scratch buffer reused
/// across combinations, plus locally-buffered timing flushed after the
/// pool returns, so the loop shares nothing but the pool's cursor.
#[derive(Default)]
struct FitWorker {
    counts: Vec<ObservedCounts>,
    em_time: Duration,
    decide_time: Duration,
    groups_fitted: u64,
    decisions_made: u64,
}

impl Surveyor {
    /// Incrementally updates a previously mined output with a delta
    /// corpus, under the same fault-tolerance contract as
    /// [`try_run`](Self::try_run): delta shards are retried per `retry`
    /// and quarantined or aborted per `policy`.
    ///
    /// `base` must have been mined by this pipeline's configuration (same
    /// ρ, EM grid, and extraction patterns — see
    /// [`SurveyorConfig::digest`]); the caller is responsible for that
    /// check, which the CLI performs against the snapshot's `INCR`
    /// section.
    ///
    /// The returned output is byte-identical to running the pipeline from
    /// scratch over the concatenation of the base corpus and the delta's
    /// surviving shards.
    pub fn try_update<F: FallibleShardSource>(
        &self,
        base: SurveyorOutput,
        source: &F,
        retry: &RetryPolicy,
        policy: &FailurePolicy,
        warm: WarmStart,
    ) -> Result<UpdateOutcome, RunError> {
        let outcome = self.extract(source, retry, policy)?;
        let (output, stats) = self.apply_delta(base, outcome.output, warm);
        Ok(UpdateOutcome {
            output,
            coverage: outcome.coverage,
            stats,
        })
    }

    /// The merge-and-re-decide half of an update: folds already-extracted
    /// delta evidence into `base` and re-fits only the dirtied groups.
    /// [`try_update`](Self::try_update) calls this after delta
    /// extraction, and every from-scratch mine calls it with an empty
    /// base; tests use it directly to exercise the dirty-group logic
    /// without a corpus.
    ///
    /// With an observer attached it records the `group`, `model`,
    /// `decide` and `index` phases, the `group.*` and `update.*`
    /// counters, and EM telemetry for every re-fitted combination.
    pub fn apply_delta(
        &self,
        base: SurveyorOutput,
        delta: ExtractionOutput,
        warm: WarmStart,
    ) -> (SurveyorOutput, UpdateStats) {
        let WarmStart::Exact = warm;
        let config = self.config();
        let obs = self.observer().map(Arc::as_ref);
        let delta_pairs = delta.evidence.pair_count();
        let delta_statements = delta.evidence.total_statements();

        // Group the delta alone first: its keys are exactly the dirty set.
        let delta_grouped = {
            let mut span = obs.map(|o| o.span("group"));
            let grouped =
                GroupedEvidence::from_table_parallel(&delta.evidence, self.kb(), config.threads);
            if let Some(span) = span.as_mut() {
                span.set_items(delta_statements);
            }
            grouped
        };
        if let Some(obs) = obs {
            obs.add("group.pairs", delta_pairs as u64);
            obs.add("group.combinations", delta_grouped.len() as u64);
        }
        let dirty: FxHashSet<GroupKey> = delta_grouped.iter().map(|(key, _)| *key).collect();

        // Merge the three tables; every merge is commutative, so the
        // result equals from-scratch extraction over base ∪ delta.
        let SurveyorOutput {
            mut evidence,
            mut provenance,
            mut grouped,
            results,
            ..
        } = base;
        evidence.merge(delta.evidence);
        provenance.merge(delta.provenance);
        grouped.merge(delta_grouped);

        let mut previous: FxHashMap<GroupKey, DomainResult> =
            results.into_iter().map(|r| (r.key, r)).collect();

        let (results, stats) = {
            // Partition: clean groups with a previous result carry it
            // forward untouched (their counts did not change, and a clean
            // group cannot newly cross ρ); everything else is re-fitted.
            let mut carried: Vec<(usize, DomainResult)> = Vec::new();
            let mut refits: Vec<RefitTask<'_>> = Vec::new();
            for (rank, (key, group)) in grouped.above_threshold(config.rho).enumerate() {
                match previous.remove(key) {
                    Some(result) if !dirty.contains(key) => carried.push((rank, result)),
                    _ => refits.push(RefitTask {
                        rank,
                        key: *key,
                        group,
                    }),
                }
            }
            let stats = UpdateStats {
                groups_total: carried.len() + refits.len(),
                groups_dirty: dirty.len(),
                groups_carried: carried.len(),
                groups_refit: refits.len(),
                delta_pairs,
                delta_statements,
            };
            if let Some(obs) = obs {
                obs.add("update.groups_carried", stats.groups_carried as u64);
                obs.add("update.groups_refit", stats.groups_refit as u64);
            }

            let fitted = self.fit_and_decide(&refits);
            let mut ranked: Vec<(usize, DomainResult)> = refits
                .iter()
                .map(|task| task.rank)
                .zip(fitted)
                .chain(carried)
                .collect();
            ranked.sort_by_key(|&(rank, _)| rank);
            let results: Vec<DomainResult> = ranked.into_iter().map(|(_, result)| result).collect();
            (results, stats)
        };

        let mut index_span = obs.map(|o| o.span("index"));
        let output =
            SurveyorOutput::from_parts(evidence, provenance, grouped, results, self.kb().clone());
        if let Some(span) = index_span.as_mut() {
            span.set_items(output.indexed_pairs() as u64);
        }
        (output, stats)
    }

    /// Fits and decides `tasks` on the ordered worker pool (Algorithm 1
    /// lines 6–11). Combinations are independent, so they fan out over
    /// `config.threads` workers: a dynamic cursor balances skewed group
    /// sizes, each worker reuses one counts buffer, and results come back
    /// in task order for any worker count. Worker timings and EM
    /// telemetry are flushed after the pool returns, in task order.
    fn fit_and_decide(&self, tasks: &[RefitTask<'_>]) -> Vec<DomainResult> {
        let obs = self.observer().map(Arc::as_ref);
        let timed = obs.is_some();
        let model = SurveyorModel::with_config(self.config().em.clone());
        let (results, workers) = surveyor_par::map(
            tasks.len(),
            self.config().threads,
            FitWorker::default,
            |worker, slot| {
                let task = &tasks[slot];
                let entities = self.kb().entities_of_type(task.key.type_id);
                worker.counts.clear();
                worker.counts.extend(entities.iter().map(|&e| {
                    let c = task.group.counts(e);
                    ObservedCounts::new(c.positive, c.negative)
                }));
                let fit_start = timed.then(Instant::now); // lint:allow(no-wall-clock): feeds the obs phase report only, never the output
                let fit = model.fit_group(&worker.counts);
                if let Some(start) = fit_start {
                    worker.em_time += start.elapsed();
                    worker.groups_fitted += 1;
                }
                let decide_start = timed.then(Instant::now); // lint:allow(no-wall-clock): feeds the obs phase report only, never the output
                let decisions: Vec<(EntityId, ModelDecision)> = entities
                    .iter()
                    .zip(&worker.counts)
                    .map(|(&e, &c)| (e, decide(posterior_positive(c, &fit.params))))
                    .collect();
                if let Some(start) = decide_start {
                    worker.decide_time += start.elapsed();
                    worker.decisions_made += decisions.len() as u64;
                }
                DomainResult {
                    key: task.key,
                    fit,
                    decisions,
                }
            },
        );
        if let Some(obs) = obs {
            for worker in &workers {
                // Summed worker CPU time, not wall time: with N workers the
                // "model" phase can exceed elapsed time.
                obs.record_phase("model", worker.em_time, worker.groups_fitted);
                obs.record_phase("decide", worker.decide_time, worker.decisions_made);
            }
            for result in &results {
                self.record_em_telemetry(obs, result);
            }
        }
        results
    }

    /// Feeds one combination's EM fit into the registry: the iteration
    /// histogram, a convergence-reason counter, and the full per-group
    /// report row (traces included).
    fn record_em_telemetry(&self, obs: &MetricsRegistry, result: &DomainResult) {
        let fit = &result.fit;
        obs.observe("em.iterations", fit.iterations as f64);
        obs.add(&format!("em.converged.{}", fit.converged.as_str()), 1);
        obs.record_em_group(EmGroupReport {
            type_name: self.kb().entity_type(result.key.type_id).name().to_owned(),
            property: result.key.property.resolve().to_string(),
            entities: result.decisions.len() as u64,
            iterations: fit.iterations as u64,
            converged: fit.converged.as_str().to_owned(),
            log_likelihood: fit.log_likelihood,
            final_delta: fit.delta_trace.last().copied().unwrap_or(0.0),
            q_trace: fit.q_trace.clone(),
            delta_trace: fit.delta_trace.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use surveyor_extract::{EvidenceTable, Polarity, ProvenanceTable, Statement};
    use surveyor_kb::{KnowledgeBase, KnowledgeBaseBuilder, Property};

    fn kb() -> Arc<KnowledgeBase> {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        for name in ["Kitten", "Tiger", "Spider", "Puppy", "Rock"] {
            b.add_entity(name, animal).finish();
        }
        Arc::new(b.build())
    }

    fn add(
        table: &mut EvidenceTable,
        kb: &KnowledgeBase,
        name: &str,
        property: &Property,
        pos: u64,
        neg: u64,
    ) {
        let e = kb.entity_by_name(name).unwrap();
        for _ in 0..pos {
            table.add(&Statement::new(e, property, Polarity::Positive));
        }
        for _ in 0..neg {
            table.add(&Statement::new(e, property, Polarity::Negative));
        }
    }

    fn surveyor(kb: &Arc<KnowledgeBase>) -> Surveyor {
        Surveyor::new(
            kb.clone(),
            SurveyorConfig {
                rho: 30,
                ..Default::default()
            },
        )
    }

    fn base_evidence(kb: &KnowledgeBase) -> EvidenceTable {
        let cute = Property::adjective("cute");
        let tiny = Property::adjective("tiny");
        let mut table = EvidenceTable::new();
        add(&mut table, kb, "Kitten", &cute, 50, 2);
        add(&mut table, kb, "Puppy", &cute, 40, 1);
        add(&mut table, kb, "Tiger", &cute, 4, 8);
        add(&mut table, kb, "Spider", &tiny, 30, 3);
        add(&mut table, kb, "Kitten", &tiny, 20, 6);
        table
    }

    /// Delta touching only the "tiny" group, plus a brand-new "fierce"
    /// group that clears the threshold on its own.
    fn delta_evidence(kb: &KnowledgeBase) -> EvidenceTable {
        let tiny = Property::adjective("tiny");
        let fierce = Property::adjective("fierce");
        let mut table = EvidenceTable::new();
        add(&mut table, kb, "Spider", &tiny, 10, 1);
        add(&mut table, kb, "Tiger", &fierce, 35, 2);
        add(&mut table, kb, "Kitten", &fierce, 2, 10);
        table
    }

    fn delta_output(kb: &KnowledgeBase) -> ExtractionOutput {
        ExtractionOutput {
            evidence: delta_evidence(kb),
            provenance: ProvenanceTable::default(),
        }
    }

    fn combined(kb: &KnowledgeBase) -> EvidenceTable {
        let mut table = base_evidence(kb);
        table.merge(delta_evidence(kb));
        table
    }

    #[test]
    fn exact_update_matches_from_scratch_byte_identically() {
        let kb = kb();
        let surveyor = surveyor(&kb);
        let base = surveyor.run_on_evidence(base_evidence(&kb));
        let (updated, stats) = surveyor.apply_delta(base, delta_output(&kb), WarmStart::Exact);
        let scratch = surveyor.run_on_evidence(combined(&kb));
        assert_eq!(
            crate::snapshot::save_snapshot(&updated),
            crate::snapshot::save_snapshot(&scratch)
        );
        // "cute" untouched and carried; "tiny" dirtied; "fierce" new.
        assert_eq!(stats.groups_carried, 1);
        assert_eq!(stats.groups_refit, 2);
        assert_eq!(stats.groups_dirty, 2);
        assert_eq!(stats.groups_total, 3);
        assert!(stats.delta_statements > 0);
    }

    #[test]
    fn untouched_groups_skip_em_entirely() {
        let kb = kb();
        let surveyor = surveyor(&kb);
        let base = surveyor.run_on_evidence(base_evidence(&kb));
        let cute_fit = base
            .results
            .iter()
            .find(|r| r.key.property.resolve().to_string() == "cute")
            .unwrap()
            .fit
            .clone();
        let (updated, _) = surveyor.apply_delta(base, delta_output(&kb), WarmStart::Exact);
        let carried = updated
            .results
            .iter()
            .find(|r| r.key.property.resolve().to_string() == "cute")
            .unwrap();
        // Bit-identical carry-forward, traces included.
        assert_eq!(carried.fit.q_trace, cute_fit.q_trace);
        assert_eq!(
            carried.fit.log_likelihood.to_bits(),
            cute_fit.log_likelihood.to_bits()
        );
    }

    #[test]
    fn empty_delta_is_identity() {
        let kb = kb();
        let surveyor = surveyor(&kb);
        let base = surveyor.run_on_evidence(base_evidence(&kb));
        let bytes = crate::snapshot::save_snapshot(&base);
        let (updated, stats) = surveyor.apply_delta(
            base,
            ExtractionOutput {
                evidence: EvidenceTable::new(),
                provenance: ProvenanceTable::default(),
            },
            WarmStart::Exact,
        );
        assert_eq!(crate::snapshot::save_snapshot(&updated), bytes);
        assert_eq!(stats.groups_refit, 0);
        assert_eq!(stats.groups_dirty, 0);
        assert_eq!(stats.groups_carried, stats.groups_total);
    }

    #[test]
    fn carried_plus_refit_accounts_for_every_modeled_group() {
        let kb = kb();
        let surveyor = surveyor(&kb);
        let base = surveyor.run_on_evidence(base_evidence(&kb));
        let (updated, stats) = surveyor.apply_delta(base, delta_output(&kb), WarmStart::Exact);
        assert_eq!(
            stats.groups_carried + stats.groups_refit,
            stats.groups_total
        );
        assert_eq!(stats.groups_total, updated.modeled_combinations());
    }

    #[test]
    fn update_from_empty_refits_every_group() {
        let kb = kb();
        let surveyor = surveyor(&kb);
        let (output, stats) = surveyor.apply_delta(
            SurveyorOutput::empty(kb.clone()),
            ExtractionOutput {
                evidence: combined(&kb),
                provenance: ProvenanceTable::default(),
            },
            WarmStart::Exact,
        );
        assert_eq!(stats.groups_carried, 0);
        assert_eq!(stats.groups_refit, stats.groups_total);
        assert_eq!(stats.groups_total, output.modeled_combinations());
        assert!(stats.groups_total > 0);
    }

    #[test]
    fn config_digest_ignores_threads_but_not_rho() {
        let a = SurveyorConfig {
            threads: 1,
            ..Default::default()
        };
        let b = SurveyorConfig {
            threads: 8,
            ..Default::default()
        };
        assert_eq!(a.digest(), b.digest());
        let c = SurveyorConfig {
            rho: 40,
            ..Default::default()
        };
        assert_ne!(a.digest(), c.digest());
    }
}
