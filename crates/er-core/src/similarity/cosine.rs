//! Term-frequency cosine similarity over token multisets.

use super::token::string_overlap;

/// Cosine similarity between the term-frequency vectors of two token lists.
///
/// Two empty token lists are considered identical (similarity `1`); an empty vs
/// non-empty comparison scores `0`.
pub fn tf_cosine_similarity<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    string_overlap(a, b).cosine()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::word_tokens;
    use proptest::prelude::*;

    #[test]
    fn identical_token_lists_score_one() {
        let t = word_tokens("a b c a");
        assert!((tf_cosine_similarity(&t, &t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_token_lists_score_zero() {
        assert_eq!(tf_cosine_similarity(&word_tokens("a b"), &word_tokens("c d")), 0.0);
    }

    #[test]
    fn empty_cases() {
        let empty: Vec<String> = Vec::new();
        assert_eq!(tf_cosine_similarity(&empty, &empty), 1.0);
        assert_eq!(tf_cosine_similarity(&empty, &word_tokens("a")), 0.0);
    }

    #[test]
    fn frequency_matters() {
        // "a a b" is closer to "a a a b" than "a b b b" is.
        let base = word_tokens("a a b");
        let close = word_tokens("a a a b");
        let far = word_tokens("a b b b");
        assert!(tf_cosine_similarity(&base, &close) > tf_cosine_similarity(&base, &far));
    }

    proptest! {
        #[test]
        fn cosine_bounded_and_symmetric(a in "[a-d ]{0,20}", b in "[a-d ]{0,20}") {
            let (ta, tb) = (word_tokens(&a), word_tokens(&b));
            let ab = tf_cosine_similarity(&ta, &tb);
            prop_assert!((0.0..=1.0).contains(&ab));
            prop_assert!((ab - tf_cosine_similarity(&tb, &ta)).abs() < 1e-12);
        }
    }
}
