//! Saving and loading mined worlds as `surveyor-wire` snapshots.
//!
//! [`save_snapshot`] flattens a [`SurveyorOutput`] — knowledge base,
//! evidence, provenance, fitted models, decisions — into the portable
//! binary format specified in `FORMAT.md`; [`load_snapshot`] rebuilds a
//! fully functional output (decision index included) without re-mining.
//! The round trip is exact: a loaded output produces byte-identical
//! stores, triples, and re-encoded snapshots.
//!
//! Process-local ids never cross this boundary. Properties travel as a
//! snapshot-local sorted table and are re-interned on load; `TypeId` and
//! `EntityId` are dense table indexes the rebuilt knowledge base assigns
//! identically.

use crate::pipeline::{DomainResult, SurveyorOutput};
use rustc_hash::{FxHashMap, FxHashSet};
use std::fmt;
use std::sync::Arc;
use surveyor_extract::{EvidenceCounts, EvidenceTable, GroupKey, GroupedEvidence, ProvenanceTable};
use surveyor_kb::{EntityId, KnowledgeBaseBuilder, Property, PropertyId, TypeId};
use surveyor_model::{ConvergenceReason, Decision, EmFit, ModelDecision, ModelParams};
use surveyor_wire::{
    DecisionCode, DecisionGroupRow, DecisionRow, EvidenceRow, IncrementalState, ModelRow,
    ProvenanceRow, Snapshot, SnapshotEntity, SnapshotProperty, SnapshotType, WireError,
};

/// Why snapshot bytes could not be turned back into a pipeline output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The container or a record is malformed at the wire level.
    Wire(WireError),
    /// The wire structure is sound but the content is inconsistent — a
    /// dangling table index, an unknown code, an impossible parameter.
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Wire(e) => write!(f, "{e}"),
            Self::Corrupt(detail) => write!(f, "corrupt snapshot: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// Flattens a pipeline output into the portable snapshot model.
pub fn snapshot_output(output: &SurveyorOutput) -> Snapshot {
    let kb = output.kb();

    // The snapshot-local property table: every property referenced
    // anywhere, deduplicated and sorted by the resolved form. Indexes
    // into this table are the only property references on the wire —
    // process-local interner ids depend on thread interleaving. Each
    // distinct id is resolved once; rows then carry their id's rank in
    // this table, so sorting rows by `(entity, rank)` gives the same order
    // as sorting them by `(entity, resolved property)`.
    let mut ids: FxHashSet<PropertyId> = output.evidence.iter().map(|(&(_, p), _)| p).collect();
    ids.extend(output.provenance.iter().map(|(&(_, p), _)| p));
    ids.extend(output.results.iter().map(|result| result.key.property));
    let mut table: Vec<(Property, PropertyId)> =
        ids.into_iter().map(|id| (id.resolve(), id)).collect();
    table.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let rank: FxHashMap<PropertyId, u32> = table
        .iter()
        .enumerate()
        .map(|(rank, &(_, id))| (id, rank as u32))
        .collect();
    let properties = table
        .into_iter()
        .map(|(property, _)| SnapshotProperty {
            adverbs: property.adverbs().to_vec(),
            adjective: property.head().to_string(),
        })
        .collect();

    let types = kb
        .types()
        .iter()
        .map(|t| SnapshotType {
            name: t.name().to_string(),
            head_nouns: t.head_nouns().to_vec(),
            context_cues: t.context_cues().to_vec(),
        })
        .collect();

    let entities = kb
        .entities()
        .iter()
        .map(|e| SnapshotEntity {
            name: e.name().to_string(),
            aliases: e.aliases().to_vec(),
            type_index: e.notable_type().0,
            attributes: e
                .attributes()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        })
        .collect();

    let mut evidence: Vec<EvidenceRow> = output
        .evidence
        .iter()
        .map(|(&(entity, property), counts)| EvidenceRow {
            entity: entity.0,
            property: rank[&property],
            positive: counts.positive,
            negative: counts.negative,
        })
        .collect();
    evidence.sort_unstable_by_key(|row| (row.entity, row.property));

    let mut provenance: Vec<ProvenanceRow> = output
        .provenance
        .iter()
        .map(|(&(entity, property), documents)| ProvenanceRow {
            entity: entity.0,
            property: rank[&property],
            documents: documents.clone(),
        })
        .collect();
    provenance.sort_unstable_by_key(|row| (row.entity, row.property));

    let mut models = Vec::with_capacity(output.results.len());
    let mut decisions = Vec::with_capacity(output.results.len());
    for result in &output.results {
        let type_index = result.key.type_id.0;
        let property = rank[&result.key.property];
        models.push(ModelRow {
            type_index,
            property,
            p_agree: result.fit.params.p_agree,
            rate_pos: result.fit.params.rate_pos,
            rate_neg: result.fit.params.rate_neg,
            iterations: result.fit.iterations as u64,
            converged: result.fit.converged.code(),
            log_likelihood: result.fit.log_likelihood,
            q_trace: result.fit.q_trace.clone(),
            delta_trace: result.fit.delta_trace.clone(),
        });
        decisions.push(DecisionGroupRow {
            type_index,
            property,
            decisions: result
                .decisions
                .iter()
                .map(|(entity, d)| DecisionRow {
                    entity: entity.0,
                    decision: match d.decision {
                        Decision::Unsolved => DecisionCode::Unsolved,
                        Decision::Positive => DecisionCode::Positive,
                        Decision::Negative => DecisionCode::Negative,
                    },
                    probability: d.probability,
                })
                .collect(),
        });
    }

    Snapshot {
        properties,
        types,
        entities,
        evidence,
        provenance_sample_size: output.provenance.sample_size() as u64,
        provenance,
        models,
        decisions,
        incremental: None,
        fingerprints: Vec::new(),
    }
}

/// Like [`snapshot_output`], but carrying the incremental mining state:
/// the `INCR` section records what was ingested (and what is still
/// pending replay), and the `GRPF` section fingerprints every
/// (type, property) group so a later `diff` can name the groups a delta
/// dirtied. Snapshots without these sections stay byte-identical to
/// pre-incremental producers.
pub fn snapshot_output_with_state(output: &SurveyorOutput, state: &IncrementalState) -> Snapshot {
    let mut snapshot = snapshot_output(output);
    snapshot.fingerprints = surveyor_wire::group_fingerprints(&snapshot);
    snapshot.incremental = Some(state.clone());
    snapshot
}

/// Encodes a pipeline output as snapshot bytes.
pub fn save_snapshot(output: &SurveyorOutput) -> Vec<u8> {
    surveyor_wire::encode(&snapshot_output(output))
}

/// Encodes a pipeline output plus its incremental state as snapshot
/// bytes (see [`snapshot_output_with_state`]).
pub fn save_snapshot_with_state(output: &SurveyorOutput, state: &IncrementalState) -> Vec<u8> {
    surveyor_wire::encode(&snapshot_output_with_state(output, state))
}

/// Rebuilds a pipeline output from the portable snapshot model,
/// validating every cross-reference. The rebuilt output's knowledge base
/// assigns the same dense `TypeId`/`EntityId` values the snapshot's
/// table order implies; properties are re-interned in this process.
pub fn output_from_snapshot(snapshot: &Snapshot) -> Result<SurveyorOutput, SnapshotError> {
    let type_count = snapshot.types.len() as u64;
    let entity_count = snapshot.entities.len() as u64;
    let property_count = snapshot.properties.len() as u64;

    // Rebuild the knowledge base; dense ids come back in table order.
    let mut builder = KnowledgeBaseBuilder::new();
    for t in &snapshot.types {
        let nouns: Vec<&str> = t.head_nouns.iter().map(String::as_str).collect();
        let cues: Vec<&str> = t.context_cues.iter().map(String::as_str).collect();
        builder.add_type(&t.name, &nouns, &cues);
    }
    for e in &snapshot.entities {
        if u64::from(e.type_index) >= type_count {
            return Err(SnapshotError::Corrupt("entity type index out of range"));
        }
        let mut entity = builder.add_entity(&e.name, TypeId(e.type_index));
        for alias in &e.aliases {
            entity = entity.alias(alias);
        }
        for (key, value) in &e.attributes {
            entity = entity.attribute(key, *value);
        }
        entity.finish();
    }
    let kb = Arc::new(builder.build());
    if kb.types().len() != snapshot.types.len() || kb.entities().len() != snapshot.entities.len() {
        return Err(SnapshotError::Corrupt(
            "duplicate type or entity collapsed during rebuild",
        ));
    }

    // Re-intern the property table once; indexes on the wire become ids
    // here, and evidence and provenance rows are keyed by those ids.
    let property_ids: Vec<PropertyId> = snapshot
        .properties
        .iter()
        .map(|p| {
            let adverbs: Vec<&str> = p.adverbs.iter().map(String::as_str).collect();
            PropertyId::intern(&Property::with_adverbs(&adverbs, &p.adjective))
        })
        .collect();

    let mut evidence_rows = Vec::with_capacity(snapshot.evidence.len());
    for row in &snapshot.evidence {
        if u64::from(row.entity) >= entity_count {
            return Err(SnapshotError::Corrupt("evidence entity out of range"));
        }
        let Some(&property) = property_ids.get(row.property as usize) else {
            return Err(SnapshotError::Corrupt("evidence property out of range"));
        };
        evidence_rows.push((
            EntityId(row.entity),
            property,
            EvidenceCounts::new(row.positive, row.negative),
        ));
    }
    let evidence = EvidenceTable::from_id_rows(evidence_rows);

    let sample_size = usize::try_from(snapshot.provenance_sample_size)
        .map_err(|_| SnapshotError::Corrupt("provenance sample size out of range"))?;
    let mut provenance_rows = Vec::with_capacity(snapshot.provenance.len());
    for row in &snapshot.provenance {
        if u64::from(row.entity) >= entity_count {
            return Err(SnapshotError::Corrupt("provenance entity out of range"));
        }
        let Some(&property) = property_ids.get(row.property as usize) else {
            return Err(SnapshotError::Corrupt("provenance property out of range"));
        };
        provenance_rows.push((EntityId(row.entity), property, row.documents.clone()));
    }
    let provenance = ProvenanceTable::from_id_rows(sample_size, provenance_rows);

    let grouped = GroupedEvidence::from_table(&evidence, &kb);

    if snapshot.models.len() != snapshot.decisions.len() {
        return Err(SnapshotError::Corrupt(
            "model and decision sections disagree on group count",
        ));
    }
    let mut results = Vec::with_capacity(snapshot.models.len());
    for (model, group) in snapshot.models.iter().zip(&snapshot.decisions) {
        if (model.type_index, model.property) != (group.type_index, group.property) {
            return Err(SnapshotError::Corrupt(
                "model and decision groups out of step",
            ));
        }
        if u64::from(model.type_index) >= type_count {
            return Err(SnapshotError::Corrupt("model type index out of range"));
        }
        if u64::from(model.property) >= property_count {
            return Err(SnapshotError::Corrupt("model property out of range"));
        }
        let Some(converged) = ConvergenceReason::from_code(model.converged) else {
            return Err(SnapshotError::Corrupt("unknown convergence code"));
        };
        // `ModelParams::new` asserts these invariants; check them here so
        // a corrupt snapshot surfaces as an error, never a panic.
        if !((0.0..=1.0).contains(&model.p_agree)
            && model.rate_pos.is_finite()
            && model.rate_pos >= 0.0
            && model.rate_neg.is_finite()
            && model.rate_neg >= 0.0)
        {
            return Err(SnapshotError::Corrupt("model parameters out of range"));
        }
        let mut decisions = Vec::with_capacity(group.decisions.len());
        for row in &group.decisions {
            if u64::from(row.entity) >= entity_count {
                return Err(SnapshotError::Corrupt("decision entity out of range"));
            }
            decisions.push((
                EntityId(row.entity),
                ModelDecision {
                    decision: match row.decision {
                        DecisionCode::Unsolved => Decision::Unsolved,
                        DecisionCode::Positive => Decision::Positive,
                        DecisionCode::Negative => Decision::Negative,
                    },
                    probability: row.probability,
                },
            ));
        }
        results.push(DomainResult {
            key: GroupKey {
                type_id: TypeId(model.type_index),
                property: property_ids[model.property as usize],
            },
            fit: EmFit {
                params: ModelParams::new(model.p_agree, model.rate_pos, model.rate_neg),
                iterations: usize::try_from(model.iterations)
                    .map_err(|_| SnapshotError::Corrupt("iteration count out of range"))?,
                q_trace: model.q_trace.clone(),
                delta_trace: model.delta_trace.clone(),
                converged,
                log_likelihood: model.log_likelihood,
            },
            decisions,
        });
    }

    Ok(SurveyorOutput::from_parts(
        evidence, provenance, grouped, results, kb,
    ))
}

/// Decodes snapshot bytes back into a fully functional pipeline output.
pub fn load_snapshot(bytes: &[u8]) -> Result<SurveyorOutput, SnapshotError> {
    output_from_snapshot(&surveyor_wire::decode(bytes)?)
}

/// Decodes snapshot bytes into a pipeline output plus its incremental
/// mining state, if the producer recorded one.
///
/// When the snapshot carries group fingerprints they are re-derived from
/// the evidence section and compared — a snapshot whose fingerprints no
/// longer match its evidence was assembled inconsistently and is rejected
/// rather than silently carried into an update.
pub fn load_snapshot_with_state(
    bytes: &[u8],
) -> Result<(SurveyorOutput, Option<IncrementalState>), SnapshotError> {
    let snapshot = surveyor_wire::decode(bytes)?;
    if !snapshot.fingerprints.is_empty()
        && snapshot.fingerprints != surveyor_wire::group_fingerprints(&snapshot)
    {
        return Err(SnapshotError::Corrupt(
            "group fingerprints do not match evidence",
        ));
    }
    let output = output_from_snapshot(&snapshot)?;
    Ok((output, snapshot.incremental))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Surveyor, SurveyorConfig};
    use crate::store::SubjectiveKb;
    use surveyor_extract::{Polarity, Statement};
    use surveyor_kb::KnowledgeBase;

    fn mined_output() -> SurveyorOutput {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal", "creature"], &["zoo"]);
        for name in ["Kitten", "Tiger", "Spider", "Puppy", "Rock"] {
            b.add_entity(name, animal)
                .alias(&format!("the {name}"))
                .attribute("legs", 4.0)
                .finish();
        }
        let kb = Arc::new(b.build());
        let cute = Property::adjective("cute");
        let tiny = Property::with_adverbs(&["very"], "tiny");
        let mut table = EvidenceTable::new();
        let mut prov = ProvenanceTable::new(3);
        let mut doc = 0u64;
        let mut add = |table: &mut EvidenceTable,
                       prov: &mut ProvenanceTable,
                       name: &str,
                       property: &Property,
                       pos: u64,
                       neg: u64| {
            let e = kb.entity_by_name(name).unwrap();
            for _ in 0..pos {
                let s = Statement::new(e, property, Polarity::Positive);
                prov.record(&s, doc);
                doc += 1;
                table.add(&s);
            }
            for _ in 0..neg {
                let s = Statement::new(e, property, Polarity::Negative);
                prov.record(&s, doc);
                doc += 1;
                table.add(&s);
            }
        };
        add(&mut table, &mut prov, "Kitten", &cute, 50, 2);
        add(&mut table, &mut prov, "Puppy", &cute, 40, 1);
        add(&mut table, &mut prov, "Tiger", &cute, 4, 8);
        add(&mut table, &mut prov, "Spider", &cute, 1, 10);
        add(&mut table, &mut prov, "Spider", &tiny, 30, 3);
        add(&mut table, &mut prov, "Kitten", &tiny, 20, 6);
        let surveyor = Surveyor::new(
            kb,
            SurveyorConfig {
                rho: 30,
                ..Default::default()
            },
        );
        let mut output = surveyor.run_on_evidence(table);
        output.provenance = prov;
        output
    }

    #[test]
    fn save_load_round_trips_the_whole_world() {
        let output = mined_output();
        let bytes = save_snapshot(&output);
        let loaded = load_snapshot(&bytes).unwrap();

        // The decision surface is identical...
        assert_eq!(
            SubjectiveKb::from_output(&loaded, loaded.kb()).to_json(),
            SubjectiveKb::from_output(&output, output.kb()).to_json()
        );
        assert_eq!(loaded.triples(), output.triples());
        assert_eq!(loaded.decided_pairs(), output.decided_pairs());
        assert_eq!(loaded.evidence.to_json(), output.evidence.to_json());
        // ...and so is a re-encoded snapshot, byte for byte.
        assert_eq!(save_snapshot(&loaded), bytes);
    }

    #[test]
    fn loaded_kb_matches_the_original() {
        let output = mined_output();
        let loaded = load_snapshot(&save_snapshot(&output)).unwrap();
        let (a, b): (&KnowledgeBase, &KnowledgeBase) = (loaded.kb(), output.kb());
        assert_eq!(a.types().len(), b.types().len());
        assert_eq!(a.entities().len(), b.entities().len());
        for (x, y) in a.entities().iter().zip(b.entities()) {
            assert_eq!(x.name(), y.name());
            assert_eq!(x.aliases(), y.aliases());
            assert_eq!(x.notable_type(), y.notable_type());
            assert_eq!(x.attributes(), y.attributes());
        }
    }

    #[test]
    fn empty_output_round_trips() {
        let mut b = KnowledgeBaseBuilder::new();
        b.add_type("animal", &["animal"], &[]);
        let kb = Arc::new(b.build());
        let surveyor = Surveyor::new(kb, SurveyorConfig::default());
        let output = surveyor.run_on_evidence(EvidenceTable::new());
        let bytes = save_snapshot(&output);
        let loaded = load_snapshot(&bytes).unwrap();
        assert_eq!(loaded.modeled_combinations(), 0);
        assert_eq!(save_snapshot(&loaded), bytes);
    }

    #[test]
    fn dangling_indexes_are_corrupt_not_panics() {
        let output = mined_output();
        let good = snapshot_output(&output);

        let mut bad = good.clone();
        bad.entities[0].type_index = 99;
        assert_eq!(
            output_from_snapshot(&bad).err(),
            Some(SnapshotError::Corrupt("entity type index out of range"))
        );

        let mut bad = good.clone();
        bad.evidence[0].entity = 1_000;
        assert_eq!(
            output_from_snapshot(&bad).err(),
            Some(SnapshotError::Corrupt("evidence entity out of range"))
        );

        let mut bad = good.clone();
        bad.evidence[0].property = 99;
        assert_eq!(
            output_from_snapshot(&bad).err(),
            Some(SnapshotError::Corrupt("evidence property out of range"))
        );

        let mut bad = good.clone();
        bad.provenance[0].entity = 1_000;
        assert_eq!(
            output_from_snapshot(&bad).err(),
            Some(SnapshotError::Corrupt("provenance entity out of range"))
        );

        let mut bad = good.clone();
        bad.provenance[0].property = 99;
        assert_eq!(
            output_from_snapshot(&bad).err(),
            Some(SnapshotError::Corrupt("provenance property out of range"))
        );

        let mut bad = good.clone();
        bad.models[0].converged = 77;
        assert_eq!(
            output_from_snapshot(&bad).err(),
            Some(SnapshotError::Corrupt("unknown convergence code"))
        );

        let mut bad = good.clone();
        bad.models[0].p_agree = f64::NAN;
        assert_eq!(
            output_from_snapshot(&bad).err(),
            Some(SnapshotError::Corrupt("model parameters out of range"))
        );

        let mut bad = good.clone();
        bad.decisions.pop();
        assert_eq!(
            output_from_snapshot(&bad).err(),
            Some(SnapshotError::Corrupt(
                "model and decision sections disagree on group count"
            ))
        );

        let mut bad = good;
        bad.decisions[0].decisions[0].entity = 1_000;
        assert_eq!(
            output_from_snapshot(&bad).err(),
            Some(SnapshotError::Corrupt("decision entity out of range"))
        );
    }

    #[test]
    fn property_table_follows_resolved_order_not_intern_order() {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        for name in ["Kitten", "Tiger"] {
            b.add_entity(name, animal).finish();
        }
        let kb = Arc::new(b.build());
        // Interned last-first, so id order is the reverse of resolved
        // order (the names are unique to this test, so no other test can
        // have interned them first).
        let names = ["snapshotorder-c", "snapshotorder-b", "snapshotorder-a"];
        let properties: Vec<Property> = names.iter().map(|n| Property::adjective(n)).collect();
        let ids: Vec<PropertyId> = properties.iter().map(PropertyId::intern).collect();
        assert!(ids[0].0 < ids[1].0 && ids[1].0 < ids[2].0);

        let mut table = EvidenceTable::new();
        let mut prov = ProvenanceTable::new(2);
        for (doc, name) in ["Tiger", "Kitten"].iter().enumerate() {
            let entity = kb.entity_by_name(name).unwrap();
            for property in &properties {
                let s = Statement::new(entity, property, Polarity::Positive);
                table.add(&s);
                prov.record(&s, doc as u64);
            }
        }
        let surveyor = Surveyor::new(kb, SurveyorConfig::default());
        let mut output = surveyor.run_on_evidence(table);
        output.provenance = prov;

        let snapshot = snapshot_output(&output);
        let adjectives: Vec<&str> = snapshot
            .properties
            .iter()
            .map(|p| p.adjective.as_str())
            .collect();
        assert_eq!(
            adjectives,
            ["snapshotorder-a", "snapshotorder-b", "snapshotorder-c"]
        );
        let keys: Vec<(u32, u32)> = snapshot
            .evidence
            .iter()
            .map(|r| (r.entity, r.property))
            .collect();
        assert_eq!(keys, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
        let prov_keys: Vec<(u32, u32)> = snapshot
            .provenance
            .iter()
            .map(|r| (r.entity, r.property))
            .collect();
        assert_eq!(prov_keys, keys);
        // Kitten (entity 0) was recorded in document 1, Tiger in document 0.
        assert!(snapshot.provenance[..3].iter().all(|r| r.documents == [1]));
        assert!(snapshot.provenance[3..].iter().all(|r| r.documents == [0]));
    }

    #[test]
    fn wire_errors_pass_through() {
        assert!(matches!(
            load_snapshot(b"junk"),
            Err(SnapshotError::Wire(WireError::BadMagic { .. }))
        ));
    }
}
