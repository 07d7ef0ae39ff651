//! Entity tagging: linking text mentions to knowledge-base entities.
//!
//! The paper's extraction runs over documents "pre-processed by an entity
//! tagger using state-of-the-art means for disambiguation" (§2) — its
//! empirical study discarded 11 of 23 frequent cities for ambiguity, so the
//! tagger here is deliberately precision-first:
//!
//! 1. longest-match alias lookup over a token window (multi-word names like
//!    "San Francisco" and "Grizzly bear" match before their suffix words);
//! 2. lemmatized retry (plural "snakes" links entity "Snake");
//! 3. ambiguous aliases (several candidate entities) resolve only when the
//!    sentence contains context cues (type head nouns or cue words) for
//!    exactly one candidate's type — otherwise the mention is dropped.

use crate::token::{singular_parts, TokenizedSentence};
use serde::{Deserialize, Serialize};
use surveyor_kb::{EntityId, KnowledgeBase};

/// A linked entity mention: token span `[start, end)` with the span's final
/// token acting as syntactic head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mention {
    /// Linked entity.
    pub entity: EntityId,
    /// First token index of the span.
    pub start: usize,
    /// One past the last token index.
    pub end: usize,
}

impl Mention {
    /// The syntactic head token of the mention (its last token, matching
    /// the NP-chunker's head-final convention).
    pub fn head(&self) -> usize {
        self.end - 1
    }

    /// Whether the mention covers token `i`.
    pub fn covers(&self, i: usize) -> bool {
        (self.start..self.end).contains(&i)
    }
}

/// Builds the lemmatized lookup form for a token window into `scratch`
/// (reused across windows): the window's lowercase forms with the final
/// token singularized. Returns `None` when the final token has no distinct
/// singular — the exact form already covered that probe.
fn lemma_window<'a>(
    tokens: &TokenizedSentence,
    start: usize,
    end: usize,
    scratch: &'a mut String,
) -> Option<&'a str> {
    let (stem, suffix) = singular_parts(tokens.lower_of(end - 1))?;
    scratch.clear();
    scratch.push_str(tokens.window_lower(start, end - 1));
    if end - 1 > start {
        scratch.push(' ');
    }
    scratch.push_str(stem);
    scratch.push_str(suffix);
    Some(scratch)
}

/// Resolves an ambiguous alias using sentence context: returns the single
/// candidate whose type vocabulary (head nouns or context cues) appears in
/// the sentence, or `None` when zero or several candidates match.
fn disambiguate(
    kb: &KnowledgeBase,
    candidates: &[EntityId],
    tokens: &TokenizedSentence,
) -> Option<EntityId> {
    let mut matching = Vec::new();
    for &cand in candidates {
        let t = kb.entity_type(kb.entity(cand).notable_type());
        let cued = (0..tokens.len())
            .map(|i| tokens.lower_of(i))
            .any(|w| t.matches_head_noun(w) || t.context_cues().iter().any(|c| c == w));
        if cued {
            matching.push(cand);
        }
    }
    match matching.as_slice() {
        [only] => Some(*only),
        _ => None,
    }
}

/// Tags all entity mentions in a tagged token sequence.
///
/// Mentions never overlap; matching is greedy left-to-right with longer
/// windows tried first.
///
/// Every window starting at token `i`, exact or lemmatized, begins with
/// that token's lowercase form — except the one-token lemma, which replaces
/// it. So when the token starts no alias ([`KnowledgeBase::is_alias_head`]),
/// the one-token lemma is the only probe that can match, and the only one
/// made.
pub fn tag_entities(tokens: &TokenizedSentence, kb: &KnowledgeBase) -> Vec<Mention> {
    let max_window = kb.max_alias_tokens().max(1);
    let mut mentions = Vec::new();
    let mut scratch = String::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut matched = false;
        let is_head = kb.is_alias_head(tokens.lower_of(i));
        let upper = if is_head {
            max_window.min(tokens.len() - i)
        } else {
            1
        };
        for w in (1..=upper).rev() {
            // The exact window is a contiguous slice of the sentence's
            // shared lowercase buffer — no allocation per probe. Only the
            // lemmatized retry writes (into a reused scratch buffer).
            let mut candidates = if is_head {
                kb.candidates(tokens.window_lower(i, i + w))
            } else {
                &[]
            };
            if candidates.is_empty() {
                if let Some(lemma) = lemma_window(tokens, i, i + w, &mut scratch) {
                    candidates = kb.candidates(lemma);
                }
            }
            let resolved = match candidates {
                [] => None,
                [only] => Some(*only),
                many => disambiguate(kb, many, tokens),
            };
            if let Some(entity) = resolved {
                mentions.push(Mention {
                    entity,
                    start: i,
                    end: i + w,
                });
                i += w;
                matched = true;
                break;
            }
            // An ambiguous unresolved window still consumes its span so a
            // shorter sub-match cannot mislink part of the name.
            if candidates.len() > 1 {
                i += w;
                matched = true;
                break;
            }
        }
        if !matched {
            i += 1;
        }
    }
    mentions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexicon::Lexicon;
    use crate::token::tokenize;
    use surveyor_kb::KnowledgeBaseBuilder;

    fn kb() -> KnowledgeBase {
        let mut b = KnowledgeBaseBuilder::new();
        let city = b.add_type("city", &["city", "town"], &["downtown"]);
        let animal = b.add_type("animal", &["animal"], &["zoo", "wildlife"]);
        b.add_entity("San Francisco", city).alias("SF").finish();
        b.add_entity("Phoenix", city).finish();
        b.add_entity("Phoenix Bird", animal)
            .alias("Phoenix")
            .finish();
        b.add_entity("Snake", animal).finish();
        b.add_entity("Grizzly bear", animal).finish();
        b.build()
    }

    fn tag(s: &str, kb: &KnowledgeBase) -> Vec<(String, u32)> {
        let lex = Lexicon::new();
        let mut toks = tokenize(s);
        lex.tag(&mut toks);
        tag_entities(&toks, kb)
            .into_iter()
            .map(|m| {
                let span: Vec<&str> = (m.start..m.end).map(|i| toks.text_of(i)).collect();
                (span.join(" "), m.entity.0)
            })
            .collect()
    }

    #[test]
    fn links_multiword_name() {
        let kb = kb();
        let tags = tag("San Francisco is a big city", &kb);
        assert_eq!(tags.len(), 1);
        assert_eq!(tags[0].0, "San Francisco");
    }

    #[test]
    fn links_alias() {
        let kb = kb();
        let tags = tag("SF is a big city", &kb);
        assert_eq!(tags.len(), 1);
        let sf = kb.entity_by_name("San Francisco").unwrap();
        assert_eq!(tags[0].1, sf.0);
    }

    #[test]
    fn links_plural_via_lemmatization() {
        let kb = kb();
        let tags = tag("Snakes are dangerous animals", &kb);
        assert_eq!(tags.len(), 1);
        let snake = kb.entity_by_name("Snake").unwrap();
        assert_eq!(tags[0].1, snake.0);
        assert_eq!(tags[0].0, "Snakes");
    }

    #[test]
    fn ambiguous_alias_dropped_without_context() {
        let kb = kb();
        let tags = tag("Phoenix is big", &kb);
        assert!(tags.is_empty());
    }

    #[test]
    fn ambiguous_alias_resolved_by_type_cue() {
        let kb = kb();
        // "city" cues the city reading.
        let tags = tag("Phoenix is a big city", &kb);
        assert_eq!(tags.len(), 1);
        let city_type = kb.type_by_name("city").unwrap();
        let e = kb.entity(surveyor_kb::EntityId(tags[0].1));
        assert_eq!(e.notable_type(), city_type);

        // "zoo" cues the animal reading.
        let tags = tag("I saw Phoenix at the zoo", &kb);
        assert_eq!(tags.len(), 1);
        let animal_type = kb.type_by_name("animal").unwrap();
        let e = kb.entity(surveyor_kb::EntityId(tags[0].1));
        assert_eq!(e.notable_type(), animal_type);
    }

    #[test]
    fn ambiguous_with_both_cues_stays_dropped() {
        let kb = kb();
        let tags = tag("Phoenix has a city zoo", &kb);
        assert!(tags.is_empty());
    }

    #[test]
    fn longest_match_wins() {
        let kb = kb();
        // "Phoenix Bird" must match as the animal, not ambiguous "Phoenix".
        let tags = tag("The Phoenix Bird is big", &kb);
        assert_eq!(tags.len(), 1);
        assert_eq!(tags[0].0, "Phoenix Bird");
    }

    #[test]
    fn lowercase_multiword_plural() {
        let kb = kb();
        let tags = tag("I think grizzly bears are dangerous", &kb);
        assert_eq!(tags.len(), 1);
        assert_eq!(tags[0].0, "grizzly bears");
    }

    #[test]
    fn mentions_do_not_overlap() {
        let kb = kb();
        let lex = Lexicon::new();
        let mut toks = tokenize("San Francisco and SF and snakes");
        lex.tag(&mut toks);
        let mentions = tag_entities(&toks, &kb);
        for pair in mentions.windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
        assert_eq!(mentions.len(), 3);
    }

    #[test]
    fn mention_head_is_last_token() {
        let m = Mention {
            entity: EntityId(0),
            start: 2,
            end: 4,
        };
        assert_eq!(m.head(), 3);
        assert!(m.covers(2) && m.covers(3) && !m.covers(4));
    }

    #[test]
    fn deserialized_kb_tags_like_the_original_after_reindex() {
        let mut b = KnowledgeBaseBuilder::new();
        let city = b.add_type("city", &["city"], &["downtown"]);
        let animal = b.add_type("animal", &["animal"], &["zoo"]);
        // "New" and "Grizzly" start aliases but are not aliases themselves.
        b.add_entity("New York", city).alias("NYC").finish();
        b.add_entity("Phoenix", city).finish();
        b.add_entity("Phoenix Bird", animal)
            .alias("Phoenix")
            .finish();
        b.add_entity("Grizzly bear", animal).finish();
        b.add_entity("Snake", animal).finish();
        let kb = b.build();
        assert!(kb.candidates("new").is_empty());

        let json = serde_json::to_string(&kb).unwrap();
        let raw: KnowledgeBase = serde_json::from_str(&json).unwrap();
        let sentence = "New York and NYC have grizzly bears, snakes and Phoenix downtown";
        // The derived indexes are skipped by serde: before the rebuild the
        // knowledge base tags nothing.
        assert!(tag(sentence, &raw).is_empty());
        let back = raw.reindex();
        let expected = tag(sentence, &kb);
        assert_eq!(
            expected.iter().map(|(s, _)| s.as_str()).collect::<Vec<_>>(),
            ["New York", "NYC", "grizzly bears", "snakes", "Phoenix"]
        );
        assert_eq!(tag(sentence, &back), expected);
    }

    #[test]
    fn non_head_tokens_still_link_by_lemma() {
        // "cities" starts no alias, but its lemma "city" is one.
        let mut b = KnowledgeBaseBuilder::new();
        let t = b.add_type("thing", &["thing"], &[]);
        b.add_entity("City", t).finish();
        let kb = b.build();
        assert!(!kb.is_alias_head("cities"));
        assert_eq!(tag("I like cities", &kb).len(), 1);
    }

    #[test]
    fn no_mentions_in_unrelated_text() {
        let kb = kb();
        assert!(tag("the weather is nice today", &kb).is_empty());
    }
}
