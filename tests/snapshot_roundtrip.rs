//! Snapshot round-trip fixture: mine → save → load must reproduce the
//! whole mined world byte for byte. The saved bytes are a pure function
//! of the mined output, so re-encoding the loaded world reproduces them
//! exactly; the loaded world's store JSON, evidence, and triples match
//! the mined originals; and none of this depends on how many worker
//! threads did the mining — or on a chaos plan quarantining a shard.

use std::sync::Arc;
use surveyor::prelude::*;
use surveyor::{load_snapshot, save_snapshot, Fault, SubjectiveKb};
use surveyor_corpus::CorpusGenerator;

const SHARDS: usize = 8;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Two domains over two types, with adverb-graded properties, so the
/// snapshot's property table holds more than bare adjectives.
fn world(seed: u64) -> (Arc<KnowledgeBase>, surveyor_corpus::World) {
    let mut b = KnowledgeBaseBuilder::new();
    let animal = b.add_type("animal", &["animal"], &[]);
    let city = b.add_type("city", &["city"], &[]);
    for name in [
        "Kitten", "Puppy", "Pony", "Koala", "Tiger", "Spider", "Scorpion", "Rat", "Crow", "Moose",
    ] {
        b.add_entity(name, animal).finish();
    }
    for name in [
        "Arlen",
        "Bedrock",
        "Quahog",
        "Springfield",
        "Shelbyville",
        "Langley",
        "Sunnydale",
        "Gotham",
        "Metropolis",
        "Riverdale",
    ] {
        b.add_entity(name, city).finish();
    }
    let kb = Arc::new(b.build());
    let params = DomainParams {
        p_agree: 0.9,
        rate_pos: 18.0,
        rate_neg: 5.0,
        opinions: OpinionRule::RandomShare(0.5),
        plural_subjects: true,
        ..DomainParams::default()
    };
    let world = WorldBuilder::new(kb.clone(), seed)
        .domain("animal", Property::adjective("cute"), params.clone())
        .domain("city", Property::adjective("big"), params)
        .build();
    (kb, world)
}

fn generator(seed: u64) -> (Arc<KnowledgeBase>, CorpusGenerator) {
    let (kb, world) = world(seed);
    let generator = CorpusGenerator::new(
        world,
        CorpusConfig {
            num_shards: SHARDS,
            ..CorpusConfig::default()
        },
    );
    (kb, generator)
}

fn surveyor(kb: Arc<KnowledgeBase>, threads: usize) -> Surveyor {
    Surveyor::new(
        kb,
        SurveyorConfig {
            rho: 20,
            threads,
            ..SurveyorConfig::default()
        },
    )
}

/// The serialized views that must survive the binary round trip.
fn fingerprint(output: &SurveyorOutput, kb: &Arc<KnowledgeBase>) -> (String, String, String) {
    let store = SubjectiveKb::from_output(output, kb).to_json();
    let evidence = output.evidence.to_json();
    let decisions = serde_json::to_string(&output.triples()).expect("triples serialize");
    (store, evidence, decisions)
}

/// Asserts the full save → load → re-save contract on one mined output.
fn assert_round_trip(output: &SurveyorOutput, kb: &Arc<KnowledgeBase>, context: &str) {
    let bytes = save_snapshot(output);
    assert_eq!(&bytes[..8], b"SURVWIRE", "{context}: magic");
    let loaded = load_snapshot(&bytes).expect("own snapshot decodes");
    assert_eq!(
        fingerprint(output, kb),
        fingerprint(&loaded, loaded.kb()),
        "{context}: loaded world diverges from the mined one"
    );
    assert_eq!(
        output.decided_pairs(),
        loaded.decided_pairs(),
        "{context}: decided-pair count"
    );
    // Encoding is canonical: the loaded world re-encodes to the exact
    // same bytes.
    assert_eq!(
        bytes,
        save_snapshot(&loaded),
        "{context}: re-encode is not byte-identical"
    );
}

#[test]
fn snapshots_round_trip_byte_identically_across_thread_counts() {
    let (kb, generator) = generator(17);
    let mut reference: Option<Vec<u8>> = None;
    for threads in THREAD_COUNTS {
        let output = surveyor(kb.clone(), threads).run(&CorpusSource::new(&generator));
        assert!(output.decided_pairs() > 0);
        assert_round_trip(&output, &kb, &format!("{threads} threads"));
        // Thread count may not leak into the snapshot bytes either: the
        // same world snapshots to the same file however it was mined.
        let bytes = save_snapshot(&output);
        match &reference {
            None => reference = Some(bytes),
            Some(reference) => {
                assert_eq!(reference, &bytes, "snapshot differs at {threads} threads");
            }
        }
    }
}

#[test]
fn snapshots_round_trip_under_chaos() {
    // A transient shard (recovers via retry) and a permanent one (always
    // quarantined): the snapshot must capture exactly the degraded world
    // the run produced, and still round-trip byte-identically.
    let plan = FaultPlan::none()
        .with(2, Fault::Transient { failures: 1 })
        .with(5, Fault::Permanent);
    let (kb, generator) = generator(17);
    let injector = FaultInjector::new(CorpusSource::new(&generator), plan);
    let run = surveyor(kb.clone(), 4)
        .try_run(
            &injector,
            &RetryPolicy::immediate(),
            &FailurePolicy::Degrade {
                min_shard_coverage: 0.5,
            },
        )
        .expect("7 of 8 shards survive the plan");
    assert_eq!(run.coverage.quarantined_shards(), vec![5]);
    assert_round_trip(&run.output, &kb, "chaos run");

    // The degraded snapshot differs from the clean one — the quarantined
    // shard's statements are genuinely absent.
    let clean = surveyor(kb.clone(), 4).run(&CorpusSource::new(&generator));
    assert_ne!(
        save_snapshot(&run.output),
        save_snapshot(&clean),
        "chaos snapshot should not equal the clean snapshot"
    );
}

#[test]
fn loaded_worlds_answer_queries_like_mined_ones() {
    let (kb, generator) = generator(17);
    let output = surveyor(kb.clone(), 4).run(&CorpusSource::new(&generator));
    let loaded = load_snapshot(&save_snapshot(&output)).expect("own snapshot decodes");
    let mined_store = SubjectiveKb::from_output(&output, &kb);
    let loaded_store = SubjectiveKb::from_output(&loaded, loaded.kb());
    for (type_name, property) in [("animal", "cute"), ("city", "big")] {
        let property = Property::adjective(property);
        let mined: Vec<&str> = mined_store
            .query(type_name, &property)
            .iter()
            .map(|h| h.entity_name.as_str())
            .collect();
        let loaded: Vec<&str> = loaded_store
            .query(type_name, &property)
            .iter()
            .map(|h| h.entity_name.as_str())
            .collect();
        assert_eq!(mined, loaded, "query results differ for {type_name}");
        assert!(!mined.is_empty(), "no hits for {type_name}");
    }
}

#[test]
fn corrupting_any_single_byte_is_an_error_or_the_same_world() {
    // Flip one byte at a stride through the snapshot: every flip must
    // either fail with a typed error (CRC catches payload damage, the
    // validators catch the rest) — or, for the rare flip the CRC layer
    // cannot see (inside an unknown-section-skip scenario this format
    // never produces), still decode. It must never panic.
    let (kb, generator) = generator(17);
    let output = surveyor(kb.clone(), 2).run(&CorpusSource::new(&generator));
    let bytes = save_snapshot(&output);
    for pos in (0..bytes.len()).step_by(211) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x55;
        let _ = load_snapshot(&bad);
    }
    // And the unmodified bytes still decode after all that cloning.
    assert!(load_snapshot(&bytes).is_ok());
}

#[test]
fn cities_snapshot_matches_the_committed_artifact() {
    // The mine `scripts/verify.sh` snapshots: the `cities` preset at seed
    // 5, rho 40, over 2 shards. Its bytes are pinned by the committed
    // `artifacts/world.swire`, so any change to how a mine is built or
    // encoded that moves a single byte fails here.
    let world = surveyor_corpus::presets::big_cities_world(5);
    let kb = world.kb().clone();
    let generator = CorpusGenerator::new(
        world,
        CorpusConfig {
            num_shards: 2,
            ..CorpusConfig::default()
        },
    );
    let surveyor = Surveyor::new(
        kb,
        SurveyorConfig {
            rho: 40,
            ..SurveyorConfig::default()
        },
    );
    let output = surveyor.run(&CorpusSource::new(&generator));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../artifacts/world.swire");
    let committed = std::fs::read(path).expect("committed snapshot is readable");
    assert!(
        save_snapshot(&output) == committed,
        "cities/seed 5 snapshot differs from artifacts/world.swire"
    );
}
