//! The subjective knowledge base: Surveyor's downstream deliverable.
//!
//! "The purpose is to build a knowledge base of subjective properties and
//! entities … Upon receipt of a subjective query, the search engine can
//! exploit high-confidence entity-property associations" (paper §1–§2).
//! This module materializes pipeline output into a queryable, persistable
//! store answering exactly those queries: *safe cities*, *cute animals*.

use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use surveyor_kb::{EntityId, KnowledgeBase, Property, TypeId};
use surveyor_model::Decision;

use crate::pipeline::SurveyorOutput;

/// One stored association.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredOpinion {
    /// The entity.
    pub entity: EntityId,
    /// Canonical entity name (denormalized for display).
    pub entity_name: String,
    /// `true` = the dominant opinion applies the property.
    pub positive: bool,
    /// Posterior probability that the property applies.
    pub probability: f64,
    /// Evidence counts behind the decision.
    pub positive_statements: u64,
    /// Negative statement count.
    pub negative_statements: u64,
    /// Sample of supporting document ids — the "links to supporting
    /// content on the Web" the paper's search scenario offers (§2).
    pub supporting_documents: Vec<u64>,
}

/// Per-combination block of the store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CombinationBlock {
    /// The entity type.
    pub type_id: TypeId,
    /// Type name.
    pub type_name: String,
    /// The subjective property.
    pub property: Property,
    /// Fitted model parameters (pA, np+S, np-S).
    pub p_agree: f64,
    /// Fitted positive statement rate.
    pub rate_pos: f64,
    /// Fitted negative statement rate.
    pub rate_neg: f64,
    /// All decided entities, positives first, by descending probability.
    pub opinions: Vec<StoredOpinion>,
}

/// A queryable, serializable knowledge base of subjective properties.
///
/// ```
/// # use std::sync::Arc;
/// # use surveyor::prelude::*;
/// # use surveyor::{CorpusSource, SubjectiveKb};
/// # let mut b = KnowledgeBaseBuilder::new();
/// # let animal = b.add_type("animal", &["animal"], &[]);
/// # b.add_entity("Kitten", animal).finish();
/// # b.add_entity("Tiger", animal).finish();
/// # let kb = Arc::new(b.build());
/// # let world = WorldBuilder::new(kb.clone(), 42)
/// #     .domain("animal", Property::adjective("cute"), DomainParams::default())
/// #     .build();
/// # let generator = CorpusGenerator::new(world, CorpusConfig::default());
/// # let surveyor = Surveyor::new(kb.clone(), SurveyorConfig { rho: 5, ..Default::default() });
/// # let output = surveyor.run(&CorpusSource::new(&generator));
/// let store = SubjectiveKb::from_output(&output, &kb);
/// // The search-engine use case: answer the subjective query "cute animals".
/// for hit in store.query("animal", &Property::adjective("cute")) {
///     println!("{} ({:.2})", hit.entity_name, hit.probability);
/// }
/// ```
///
/// The store persists through [`Self::to_json`] and [`Self::from_json`],
/// which rebuild its lookup indexes; it has no serde impls of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct SubjectiveKb {
    blocks: Vec<CombinationBlock>,
    index: FxHashMap<(String, Property), usize>,
    /// One `(block, opinion)` position per stored opinion, sorted by the
    /// ASCII-folded hash of the entity name and, within one name, in hit
    /// order (see [`Self::opinions_of_entity`]). Built once per store.
    by_entity: Vec<(u32, u32)>,
}

impl SubjectiveKb {
    /// Materializes pipeline output into a store.
    pub fn from_output(output: &SurveyorOutput, kb: &Arc<KnowledgeBase>) -> Self {
        let mut blocks = Vec::with_capacity(output.results.len());
        for result in &output.results {
            let type_name = kb.entity_type(result.key.type_id).name().to_owned();
            let mut opinions: Vec<StoredOpinion> = result
                .decisions
                .iter()
                .filter(|(_, d)| d.decision.is_solved())
                .map(|(entity, d)| {
                    let counts = output.evidence.counts_id(*entity, result.key.property);
                    StoredOpinion {
                        entity: *entity,
                        entity_name: kb.entity(*entity).name().to_owned(),
                        positive: d.decision == Decision::Positive,
                        probability: d.probability.unwrap_or(0.5),
                        positive_statements: counts.positive,
                        negative_statements: counts.negative,
                        supporting_documents: output
                            .provenance
                            .documents_id(*entity, result.key.property)
                            .to_vec(),
                    }
                })
                .collect();
            opinions.sort_by(|a, b| {
                b.probability
                    .total_cmp(&a.probability)
                    .then_with(|| b.positive_statements.cmp(&a.positive_statements))
                    .then_with(|| a.entity.cmp(&b.entity))
            });
            blocks.push(CombinationBlock {
                type_id: result.key.type_id,
                type_name,
                property: result.key.property.resolve(),
                p_agree: result.fit.params.p_agree,
                rate_pos: result.fit.params.rate_pos,
                rate_neg: result.fit.params.rate_neg,
                opinions,
            });
        }
        Self::from_blocks(blocks)
    }

    fn from_blocks(blocks: Vec<CombinationBlock>) -> Self {
        let index = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| ((b.type_name.clone(), b.property.clone()), i))
            .collect();
        let by_entity = entity_index(&blocks);
        Self {
            blocks,
            index,
            by_entity,
        }
    }

    /// All stored combinations.
    pub fn blocks(&self) -> &[CombinationBlock] {
        &self.blocks
    }

    /// Number of stored entity-property associations.
    pub fn len(&self) -> usize {
        // The entity index holds exactly one entry per stored opinion.
        self.by_entity.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Answers a subjective query: entities of `type_name` for which the
    /// dominant opinion applies `property`, ranked by probability.
    ///
    /// This is the paper's motivating search-engine scenario ("queries
    /// such as `safe cities` would not trigger search results from
    /// structured data" — now they can).
    pub fn query(&self, type_name: &str, property: &Property) -> Vec<&StoredOpinion> {
        self.combination(type_name, property)
            .map(|b| b.opinions.iter().filter(|o| o.positive).collect())
            .unwrap_or_default()
    }

    /// The negated query: entities the dominant opinion says are *not*
    /// `property`, most confident first.
    pub fn query_negative(&self, type_name: &str, property: &Property) -> Vec<&StoredOpinion> {
        let Some(block) = self.combination(type_name, property) else {
            return Vec::new();
        };
        let mut hits: Vec<&StoredOpinion> = block.opinions.iter().filter(|o| !o.positive).collect();
        hits.reverse(); // ascending probability = descending confidence in ¬P
        hits
    }

    /// The block for one combination, if modeled.
    pub fn combination(&self, type_name: &str, property: &Property) -> Option<&CombinationBlock> {
        self.block_index(type_name, property)
            .map(|i| &self.blocks[i])
    }

    fn block_index(&self, type_name: &str, property: &Property) -> Option<usize> {
        self.index
            .get(&(type_name.to_lowercase(), property.clone()))
            .copied()
    }

    /// All properties stored for a type.
    pub fn properties_of(&self, type_name: &str) -> Vec<&Property> {
        let lower = type_name.to_lowercase();
        self.blocks
            .iter()
            .filter(|b| b.type_name == lower)
            .map(|b| &b.property)
            .collect()
    }

    /// Every stored opinion about `entity_name` across all combinations,
    /// most confident first (largest `|p − 0.5|`), then by type name, then
    /// by property surface, then in store order. Names match with ASCII
    /// case folding only. This is the query server's
    /// top-k-properties-per-entity lookup, answered from the entity index.
    pub fn opinions_of_entity(
        &self,
        entity_name: &str,
    ) -> Vec<(&CombinationBlock, &StoredOpinion)> {
        self.entity_hits(entity_name)
            .map(|(b, o)| self.at(b, o))
            .collect()
    }

    /// The stored opinion for one entity-property pair, searched across
    /// every type — the query server's `/decide/{entity}/{property}`
    /// lookup, where the URL carries no type name. When the entity is
    /// stored under several types (rare), the most confident block wins.
    pub fn find_opinion(
        &self,
        entity_name: &str,
        property: &Property,
    ) -> Option<(&CombinationBlock, &StoredOpinion)> {
        self.entity_hits(entity_name)
            .map(|(b, o)| self.at(b, o))
            .find(|(b, _)| &b.property == property)
    }

    /// The opinion on one entity-property pair, if stored. When several
    /// opinions in the block match the name, the first in block order wins.
    pub fn opinion(
        &self,
        type_name: &str,
        property: &Property,
        entity_name: &str,
    ) -> Option<&StoredOpinion> {
        let block = self.block_index(type_name, property)?;
        let first = self
            .entity_hits(entity_name)
            .filter(|&(b, _)| b == block)
            .map(|(_, o)| o)
            .min()?;
        Some(self.at(block, first).1)
    }

    /// `(block, opinion)` positions of the opinions about `entity_name`,
    /// in hit order: a binary search for the name's hash range, then an
    /// exact ASCII-folded comparison that drops hash collisions.
    fn entity_hits<'a>(
        &'a self,
        entity_name: &'a str,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let hash = folded_name_hash(entity_name);
        let name_hash = move |&(b, o): &(u32, u32)| {
            folded_name_hash(&self.at(b as usize, o as usize).1.entity_name)
        };
        let start = self.by_entity.partition_point(|pos| name_hash(pos) < hash);
        self.by_entity[start..]
            .iter()
            .take_while(move |pos| name_hash(pos) == hash)
            .map(|&(b, o)| (b as usize, o as usize))
            .filter(move |&(b, o)| {
                self.at(b, o)
                    .1
                    .entity_name
                    .eq_ignore_ascii_case(entity_name)
            })
    }

    fn at(&self, block: usize, opinion: usize) -> (&CombinationBlock, &StoredOpinion) {
        let block = &self.blocks[block];
        (block, &block.opinions[opinion])
    }

    /// Serializes the store to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.blocks).expect("store serializes") // lint:allow(no-panic-in-lib): the store value tree holds only serializable primitives
    }

    /// Restores a store from JSON produced by [`Self::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let blocks: Vec<CombinationBlock> = serde_json::from_str(json)?;
        Ok(Self::from_blocks(blocks))
    }
}

/// A 32-bit FxHash of `name` with ASCII letters lowered, so names equal
/// under `eq_ignore_ascii_case` hash alike while non-ASCII bytes stay
/// exact. Building the index hashes every stored opinion's name, so this
/// reads whole words: eight bytes per step, with the last word (or, for
/// short names, two four-byte halves) overlapping the one before instead
/// of looping over the tail byte by byte. The length seeds the hash
/// because the overlapping reads alone do not tell lengths apart.
fn folded_name_hash(name: &str) -> u32 {
    let mix = |hash: u64, word: u64| {
        (hash.rotate_left(5) ^ fold_ascii_word(word)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    };
    let bytes = name.as_bytes();
    let len = bytes.len();
    let word = |at: usize| {
        let mut word = [0; 8];
        word.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(word)
    };
    let half = |at: usize| {
        let mut half = [0; 4];
        half.copy_from_slice(&bytes[at..at + 4]);
        u64::from(u32::from_le_bytes(half))
    };
    let mut hash = len as u64;
    if len >= 8 {
        let mut at = 0;
        while at + 8 < len {
            hash = mix(hash, word(at));
            at += 8;
        }
        hash = mix(hash, word(len - 8));
    } else if len >= 4 {
        hash = mix(hash, half(0) << 32 | half(len - 4));
    } else if len > 0 {
        let byte = |at: usize| u64::from(bytes[at]);
        hash = mix(hash, byte(0) << 16 | byte(len / 2) << 8 | byte(len - 1));
    }
    (hash >> 32) as u32
}

/// Lowers the ASCII capitals among eight packed bytes, leaving every
/// other byte (non-ASCII included) as it is.
fn fold_ascii_word(word: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let low7 = word & !HIGH;
    // Bit 7 of a byte is set when its low seven bits are >= 'A' (resp. > 'Z');
    // no sum exceeds 0xff, so no carry crosses into the next byte.
    let at_least_a = low7 + ONES * u64::from(0x80 - b'A');
    let above_z = low7 + ONES * u64::from(0x7f - b'Z');
    let capitals = at_least_a & !above_z & !word & HIGH;
    word | capitals >> 2
}

/// Builds [`SubjectiveKb::by_entity`]: every opinion's position, sorted by
/// name hash and then by hit order — confidence `|p − 0.5|` descending,
/// type name, property surface, block, opinion.
fn entity_index(blocks: &[CombinationBlock]) -> Vec<(u32, u32)> {
    let position = |i: usize| u32::try_from(i).expect("store positions fit in u32"); // lint:allow(no-panic-in-lib): 2^32 opinions cannot be held in memory

    // Number the opinions in the tie-break order: blocks by (type name,
    // property surface), the stable sort keeping equal pairs in block
    // order, then opinions in block order.
    let surfaces: Vec<String> = blocks.iter().map(|b| b.property.to_string()).collect();
    let mut ranked: Vec<usize> = (0..blocks.len()).collect();
    ranked.sort_by(|&a, &b| {
        (&blocks[a].type_name, &surfaces[a]).cmp(&(&blocks[b].type_name, &surfaces[b]))
    });
    let total = blocks.iter().map(|b| b.opinions.len()).sum();
    let mut slots: Vec<(u32, u32)> = Vec::with_capacity(total);
    let mut keys: Vec<u128> = Vec::with_capacity(total);
    for b in ranked {
        for (o, opinion) in blocks[b].opinions.iter().enumerate() {
            // `abs` clears the sign bit, so the confidence's bit pattern
            // orders exactly like `f64::total_cmp`; inverted, the most
            // confident sorts first.
            let confidence = (opinion.probability - 0.5).abs().to_bits();
            keys.push(
                u128::from(folded_name_hash(&opinion.entity_name)) << 96
                    | u128::from(!confidence) << 32
                    | u128::from(position(slots.len())),
            );
            slots.push((position(b), position(o)));
        }
    }
    // A counting sort on the top bits of the name hash leaves small buckets
    // (one or two names' opinions on a 60 500-opinion store) to sort in
    // full: about half the cost of one comparison sort over every key.
    const BUCKET_BITS: u32 = 12;
    let bucket = |key: u128| (key >> (128 - BUCKET_BITS)) as usize;
    let mut starts = vec![0; (1 << BUCKET_BITS) + 1];
    for &key in &keys {
        starts[bucket(key) + 1] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut sorted = vec![0; keys.len()];
    let mut next = starts.clone();
    for key in keys {
        sorted[next[bucket(key)]] = key;
        next[bucket(key)] += 1;
    }
    for range in starts.windows(2) {
        sorted[range[0]..range[1]].sort_unstable();
    }
    sorted
        .into_iter()
        .map(|key| slots[key as u32 as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Surveyor, SurveyorConfig};
    use proptest::prelude::*;
    use surveyor_extract::{EvidenceTable, Polarity, Statement};
    use surveyor_kb::KnowledgeBaseBuilder;

    /// The linear scan the entity index replaced: every opinion whose name
    /// matches under ASCII folding, stably sorted by confidence, type name
    /// and property surface.
    fn reference_opinions_of_entity<'a>(
        store: &'a SubjectiveKb,
        entity_name: &str,
    ) -> Vec<(&'a CombinationBlock, &'a StoredOpinion)> {
        let mut hits: Vec<(&CombinationBlock, &StoredOpinion)> = store
            .blocks
            .iter()
            .flat_map(|b| {
                b.opinions
                    .iter()
                    .filter(|o| o.entity_name.eq_ignore_ascii_case(entity_name))
                    .map(move |o| (b, o))
            })
            .collect();
        hits.sort_by(|(ba, a), (bb, b)| {
            let conf_a = (a.probability - 0.5).abs();
            let conf_b = (b.probability - 0.5).abs();
            conf_b
                .total_cmp(&conf_a)
                .then_with(|| ba.type_name.cmp(&bb.type_name))
                .then_with(|| ba.property.to_string().cmp(&bb.property.to_string()))
        });
        hits
    }

    fn reference_find_opinion<'a>(
        store: &'a SubjectiveKb,
        entity_name: &str,
        property: &Property,
    ) -> Option<(&'a CombinationBlock, &'a StoredOpinion)> {
        reference_opinions_of_entity(store, entity_name)
            .into_iter()
            .find(|(b, _)| &b.property == property)
    }

    fn reference_opinion<'a>(
        store: &'a SubjectiveKb,
        type_name: &str,
        property: &Property,
        entity_name: &str,
    ) -> Option<&'a StoredOpinion> {
        store
            .combination(type_name, property)?
            .opinions
            .iter()
            .find(|o| o.entity_name.eq_ignore_ascii_case(entity_name))
    }

    /// Hits as `(block, opinion)` positions, so equal-valued opinions in
    /// different places still tell apart.
    fn positions(
        store: &SubjectiveKb,
        hits: &[(&CombinationBlock, &StoredOpinion)],
    ) -> Vec<(usize, usize)> {
        hits.iter()
            .map(|&(b, o)| {
                let block = store
                    .blocks
                    .iter()
                    .position(|x| std::ptr::eq(x, b))
                    .unwrap();
                let opinion = b.opinions.iter().position(|x| std::ptr::eq(x, o)).unwrap();
                (block, opinion)
            })
            .collect()
    }

    const TYPES: [&str; 2] = ["animal", "city"];
    const PROPERTIES: [&str; 3] = ["cute", "big", "very big"];
    /// Names shorter than, equal to and longer than one hashed word, and
    /// two whose name hashes collide.
    const NAMES: [&str; 10] = [
        "Kitten",
        "kitten",
        "Tiger",
        "Zoë",
        "Ox",
        "New York",
        "Los Angeles",
        "São Paulo Metro",
        "Entity 190037",
        "Entity 418400",
    ];
    /// 0.25/0.75 and 0.0/1.0 tie exactly on confidence.
    const PROBABILITIES: [f64; 7] = [0.0, 0.25, 0.5, 0.75, 1.0, 0.9, 0.1];

    fn block(type_name: &str, property: &str, opinions: &[(usize, usize)]) -> CombinationBlock {
        CombinationBlock {
            type_id: TypeId(0),
            type_name: type_name.to_owned(),
            property: Property::parse(property).unwrap(),
            p_agree: 0.9,
            rate_pos: 1.0,
            rate_neg: 1.0,
            opinions: opinions
                .iter()
                .map(|&(name, p)| StoredOpinion {
                    entity: EntityId(name as u32),
                    entity_name: NAMES[name].to_owned(),
                    positive: PROBABILITIES[p] > 0.5,
                    probability: PROBABILITIES[p],
                    positive_statements: 1,
                    negative_statements: 0,
                    supporting_documents: Vec::new(),
                })
                .collect(),
        }
    }

    fn check_against_reference(store: &SubjectiveKb) -> Result<(), TestCaseError> {
        let mut queries: Vec<String> = Vec::new();
        for name in NAMES {
            queries.push(name.to_owned());
            queries.push(name.to_ascii_uppercase());
            queries.push(name.to_ascii_lowercase());
            // Only ASCII folds: "ZOË" must not find "Zoë".
            queries.push(name.to_uppercase());
        }
        queries.extend(["Ghost".to_owned(), String::new()]);
        prop_assert_eq!(
            store.len(),
            store.blocks.iter().map(|b| b.opinions.len()).sum::<usize>()
        );
        for query in &queries {
            prop_assert_eq!(
                positions(store, &store.opinions_of_entity(query)),
                positions(store, &reference_opinions_of_entity(store, query)),
                "opinions_of_entity({:?})",
                query
            );
            for property in PROPERTIES.map(|p| Property::parse(p).unwrap()) {
                let got = store.find_opinion(query, &property);
                let want = reference_find_opinion(store, query, &property);
                prop_assert_eq!(
                    positions(store, got.as_slice()),
                    positions(store, want.as_slice()),
                    "find_opinion({:?}, {})",
                    query,
                    property
                );
                for type_name in TYPES {
                    let got = store.opinion(type_name, &property, query);
                    let want = reference_opinion(store, type_name, &property, query);
                    prop_assert!(
                        got.map(std::ptr::from_ref) == want.map(std::ptr::from_ref),
                        "opinion({:?}, {}, {:?})",
                        type_name,
                        property,
                        query
                    );
                }
            }
        }
        Ok(())
    }

    #[test]
    fn word_fold_lowers_exactly_the_ascii_capitals() {
        for byte in 0..=u8::MAX {
            for shift in (0..64).step_by(8) {
                let word = 0x4142_4344_5a5b_6061 & !(0xff << shift) | u64::from(byte) << shift;
                let want = u64::from_le_bytes(word.to_le_bytes().map(|b| b.to_ascii_lowercase()));
                assert_eq!(fold_ascii_word(word), want, "byte {byte:#x} at bit {shift}");
            }
        }
    }

    #[test]
    fn colliding_names_share_a_hash() {
        // Keeps the collision case in the property test below meaningful.
        assert_eq!(folded_name_hash(NAMES[8]), folded_name_hash(NAMES[9]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn entity_index_matches_linear_scan(
            random in prop::collection::vec(
                (
                    0usize..TYPES.len(),
                    0usize..PROPERTIES.len(),
                    prop::collection::vec((0usize..NAMES.len(), 0usize..PROBABILITIES.len()), 0..6),
                ),
                0..6,
            )
        ) {
            // Every store holds one entity under two types with the same
            // property and exactly equal confidence, a non-ASCII name, and
            // both names of the hash collision.
            let mut blocks = vec![
                block("city", "cute", &[(0, 3), (3, 4), (8, 1), (9, 5)]),
                block("animal", "cute", &[(3, 0), (0, 1)]),
            ];
            blocks.extend(
                random
                    .iter()
                    .map(|(t, p, opinions)| block(TYPES[*t], PROPERTIES[*p], opinions)),
            );
            let store = SubjectiveKb::from_blocks(blocks);
            check_against_reference(&store)?;
            let rebuilt = SubjectiveKb::from_json(&store.to_json()).unwrap();
            check_against_reference(&rebuilt)?;
        }
    }

    fn output_fixture() -> (Arc<KnowledgeBase>, SurveyorOutput) {
        let mut b = KnowledgeBaseBuilder::new();
        let animal = b.add_type("animal", &["animal"], &[]);
        b.add_entity("Kitten", animal).finish();
        b.add_entity("Puppy", animal).finish();
        b.add_entity("Spider", animal).finish();
        b.add_entity("Rock", animal).finish();
        let kb = Arc::new(b.build());
        let cute = Property::adjective("cute");
        let mut table = EvidenceTable::new();
        let mut add = |name: &str, pos: u64, neg: u64| {
            let e = kb.entity_by_name(name).unwrap();
            for _ in 0..pos {
                table.add(&Statement::new(e, &cute, Polarity::Positive));
            }
            for _ in 0..neg {
                table.add(&Statement::new(e, &cute, Polarity::Negative));
            }
        };
        add("Kitten", 40, 1);
        add("Puppy", 25, 1);
        add("Spider", 1, 9);
        let surveyor = Surveyor::new(
            kb.clone(),
            SurveyorConfig {
                rho: 10,
                ..SurveyorConfig::default()
            },
        );
        let output = surveyor.run_on_evidence(table);
        (kb, output)
    }

    #[test]
    fn query_returns_ranked_positives() {
        let (kb, output) = output_fixture();
        let store = SubjectiveKb::from_output(&output, &kb);
        let cute = Property::adjective("cute");
        let hits = store.query("animal", &cute);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].entity_name, "Kitten");
        assert_eq!(hits[1].entity_name, "Puppy");
        assert!(hits[0].probability >= hits[1].probability);
        // Negative query surfaces the confident non-cute entities.
        let negs = store.query_negative("animal", &cute);
        assert!(negs.iter().any(|o| o.entity_name == "Spider"));
        // The never-mentioned entity is decided too (negative here).
        assert!(negs.iter().any(|o| o.entity_name == "Rock"));
    }

    #[test]
    fn store_lookup_and_metadata() {
        let (kb, output) = output_fixture();
        let store = SubjectiveKb::from_output(&output, &kb);
        let cute = Property::adjective("cute");
        let block = store.combination("animal", &cute).unwrap();
        assert!(block.p_agree >= 0.5);
        assert_eq!(store.properties_of("animal"), vec![&cute]);
        let kitten = store.opinion("animal", &cute, "kitten").unwrap();
        assert!(kitten.positive);
        assert_eq!(kitten.positive_statements, 40);
        assert!(store.opinion("animal", &cute, "ghost").is_none());
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn json_round_trip() {
        let (kb, output) = output_fixture();
        let store = SubjectiveKb::from_output(&output, &kb);
        let json = store.to_json();
        let restored = SubjectiveKb::from_json(&json).unwrap();
        // JSON round-trips floats up to the last ULP; compare structure.
        assert_eq!(store.len(), restored.len());
        assert_eq!(store.blocks().len(), restored.blocks().len());
        let cute = Property::adjective("cute");
        let a = store.query("animal", &cute);
        let b = restored.query("animal", &cute);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.entity_name, y.entity_name);
            assert_eq!(x.positive, y.positive);
            assert!((x.probability - y.probability).abs() < 1e-9);
        }
    }

    #[test]
    fn unknown_combination_is_empty() {
        let (kb, output) = output_fixture();
        let store = SubjectiveKb::from_output(&output, &kb);
        assert!(store
            .query("animal", &Property::adjective("safe"))
            .is_empty());
        assert!(store.query("city", &Property::adjective("cute")).is_empty());
    }
}
