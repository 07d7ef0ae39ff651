//! Property-based tests for the NLP substrate: tokenizer totality, parser
//! structural invariants on arbitrary word soup, and polarity parity.

use proptest::prelude::*;
use surveyor_nlp::token::{singularize, split_sentence_bounds};
use surveyor_nlp::{parse, split_sentences, tokenize, Lexicon};

/// Arbitrary "words" drawn from a mix of real vocabulary and noise.
fn word_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("the".to_owned()),
        Just("is".to_owned()),
        Just("are".to_owned()),
        Just("not".to_owned()),
        Just("never".to_owned()),
        Just("big".to_owned()),
        Just("cute".to_owned()),
        Just("very".to_owned()),
        Just("city".to_owned()),
        Just("I".to_owned()),
        Just("think".to_owned()),
        Just("and".to_owned()),
        Just("for".to_owned()),
        Just("that".to_owned()),
        Just("Chicago".to_owned()),
        "[a-zA-Z]{1,12}",
    ]
}

/// Text fragments beyond ASCII: multibyte letters (some ending a word on
/// a multibyte char, some lowercasing to a different byte length), emoji,
/// a curly apostrophe, punctuation and terminators, and Unicode whitespace
/// (NBSP, U+3000) alongside plain spaces.
fn unicode_fragment() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("é"),
        Just("É"),
        Just("ß"),
        Just("ï"),
        Just("Ïs"),
        Just("İ"),
        Just("😀"),
        Just("’"),
        Just("n’t"),
        Just("n't"),
        Just("don't"),
        Just("big"),
        Just("Cities"),
        Just("a"),
        Just("'"),
        Just(","),
        Just("."),
        Just("?"),
        Just("("),
        Just(" "),
        Just(" "),
        Just("\u{a0}"),
        Just("\u{3000}"),
    ]
}

/// Sentences glued from [`unicode_fragment`]s.
fn unicode_text() -> impl Strategy<Value = String> {
    prop::collection::vec(unicode_fragment(), 0..24).prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tokenizer_handles_non_ascii_text(text in unicode_text()) {
        let tokens = tokenize(&text);
        let mut previous_end = 0;
        for i in 0..tokens.len() {
            let (from, to) = tokens[i].span();
            prop_assert!(text.is_char_boundary(from) && text.is_char_boundary(to), "{text:?}");
            prop_assert!(previous_end <= from && from < to, "{text:?}");
            previous_end = to;
            prop_assert_eq!(&text[from..to], tokens.text_of(i));
            prop_assert_eq!(tokens.lower_of(i).to_owned(), tokens.text_of(i).to_lowercase());
        }
        let mut bounds = Vec::new();
        split_sentence_bounds(&text, &mut bounds);
        for &(from, to) in &bounds {
            let sentence = &text[from..to];
            prop_assert!(!sentence.is_empty(), "{text:?}");
            prop_assert_eq!(sentence, sentence.trim());
            let tokens = tokenize(sentence);
            prop_assert!(!tokens.is_empty(), "{sentence:?}");
        }
    }

    #[test]
    fn tokenizer_never_produces_empty_tokens(words in prop::collection::vec(word_strategy(), 0..20)) {
        let sentence = words.join(" ");
        let tokens = tokenize(&sentence);
        for i in 0..tokens.len() {
            prop_assert!(!tokens.text_of(i).is_empty());
            prop_assert_eq!(tokens.lower_of(i).to_owned(), tokens.text_of(i).to_lowercase());
        }
    }

    #[test]
    fn tokenizer_preserves_alphanumeric_content(words in prop::collection::vec("[a-zA-Z]{1,10}", 1..12)) {
        // Pure alphabetic words round-trip: same sequence, no splits.
        let sentence = words.join(" ");
        let tokens = tokenize(&sentence);
        let rejoined: Vec<String> = (0..tokens.len())
            .map(|i| tokens.text_of(i).to_owned())
            .collect();
        prop_assert_eq!(rejoined, words);
    }

    #[test]
    fn parser_always_yields_a_valid_tree(words in prop::collection::vec(word_strategy(), 1..20)) {
        let sentence = words.join(" ");
        let lex = Lexicon::new();
        let mut tokens = tokenize(&sentence);
        if tokens.is_empty() {
            return Ok(());
        }
        lex.tag(&mut tokens);
        let tree = parse(&tokens).expect("non-empty input parses");
        prop_assert!(tree.validate().is_ok(), "invalid tree for: {sentence}");
        prop_assert_eq!(tree.len(), tokens.len());
    }

    #[test]
    fn parse_is_deterministic(words in prop::collection::vec(word_strategy(), 1..16)) {
        let sentence = words.join(" ");
        let lex = Lexicon::new();
        let mut a = tokenize(&sentence);
        let mut b = tokenize(&sentence);
        if a.is_empty() {
            return Ok(());
        }
        lex.tag(&mut a);
        lex.tag(&mut b);
        prop_assert_eq!(parse(&a), parse(&b));
    }

    #[test]
    fn sentence_splitting_loses_no_alphabetic_text(
        parts in prop::collection::vec("[a-zA-Z ]{1,30}", 1..5),
    ) {
        let text = parts.join(". ");
        let sentences = split_sentences(&text);
        let original: String = text.chars().filter(|c| c.is_alphabetic()).collect();
        let recovered: String = sentences
            .iter()
            .flat_map(|s| s.chars())
            .filter(|c| c.is_alphabetic())
            .collect();
        prop_assert_eq!(original, recovered);
    }

    #[test]
    fn singularize_strips_at_most_three_chars(word in "[a-z]{2,15}") {
        if let Some(s) = singularize(&word) {
            prop_assert!(!s.is_empty());
            prop_assert!(word.len() - s.len() <= 2 || s.ends_with('y'));
            // The singular form is a plausible stem: shares a prefix.
            let common = s.chars().zip(word.chars()).take_while(|(a, b)| a == b).count();
            prop_assert!(common >= s.len().saturating_sub(1));
        }
    }
}
