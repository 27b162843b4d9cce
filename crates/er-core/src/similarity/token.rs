//! Token-multiset similarities: Jaccard, Dice, the overlap coefficient and
//! term-frequency cosine.
//!
//! Jaccard over word tokens is the primary attribute similarity used by the
//! paper's experiments (titles, author lists, product names and descriptions).
//!
//! Every measure is a formula over the integer counts that one sort-merge pass
//! gathers from two *ascending* token sequences ([`sorted_overlap`]): distinct
//! tokens per side, distinct tokens in common, and the term-frequency dot
//! product and squared norms. The string entry points sort token references
//! and merge them; [`crate::aggregate::TokenCache`] stores interned `u32` id
//! sequences already sorted and merges those. The counts do not depend on the
//! element type or on how ties are ordered, and the formulas are ratios of
//! exact integers, so both paths yield bit-identical similarities.

use std::cmp::Ordering;

/// Multiset counts of two ascending token sequences.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SortedOverlap {
    /// Distinct tokens of the left sequence.
    distinct_a: usize,
    /// Distinct tokens of the right sequence.
    distinct_b: usize,
    /// Distinct tokens present in both sequences.
    common: usize,
    /// `Σ tf_a(t) · tf_b(t)` over the common tokens.
    dot: u64,
    /// `Σ tf_a(t)²` over the left tokens.
    square_a: u64,
    /// `Σ tf_b(t)²` over the right tokens.
    square_b: u64,
}

/// Length of the run of equal elements starting at `start`.
fn run_length<T: Eq>(tokens: &[T], start: usize) -> usize {
    let first = &tokens[start];
    tokens[start..].iter().take_while(|t| *t == first).count()
}

/// Counts two ascending (duplicates allowed) token sequences in one merge.
pub(crate) fn sorted_overlap<T: Ord>(a: &[T], b: &[T]) -> SortedOverlap {
    let mut s = SortedOverlap::default();
    let (mut i, mut j) = (0, 0);
    loop {
        let order = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => x.cmp(y),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return s,
        };
        if order != Ordering::Greater {
            let n = run_length(a, i) as u64;
            s.distinct_a += 1;
            s.square_a += n * n;
            i += n as usize;
            if order == Ordering::Equal {
                let m = run_length(b, j) as u64;
                s.distinct_b += 1;
                s.square_b += m * m;
                s.common += 1;
                s.dot += n * m;
                j += m as usize;
            }
        } else {
            let m = run_length(b, j) as u64;
            s.distinct_b += 1;
            s.square_b += m * m;
            j += m as usize;
        }
    }
}

impl SortedOverlap {
    /// `|A ∩ B| / |A ∪ B|` over token sets; two empty sets score `1`.
    pub(crate) fn jaccard(&self) -> f64 {
        if self.distinct_a == 0 && self.distinct_b == 0 {
            return 1.0;
        }
        self.common as f64 / (self.distinct_a + self.distinct_b - self.common) as f64
    }

    /// `2|A ∩ B| / (|A| + |B|)` over token sets; two empty sets score `1`.
    pub(crate) fn dice(&self) -> f64 {
        if self.distinct_a == 0 && self.distinct_b == 0 {
            return 1.0;
        }
        2.0 * self.common as f64 / (self.distinct_a + self.distinct_b) as f64
    }

    /// `|A ∩ B| / min(|A|, |B|)` over token sets; `1` when both are empty and
    /// `0` when exactly one is.
    pub(crate) fn overlap(&self) -> f64 {
        if self.distinct_a == 0 && self.distinct_b == 0 {
            return 1.0;
        }
        if self.distinct_a == 0 || self.distinct_b == 0 {
            return 0.0;
        }
        self.common as f64 / self.distinct_a.min(self.distinct_b) as f64
    }

    /// Cosine of the term-frequency vectors; `1` when both are empty and `0`
    /// when exactly one is. Every sum is an exact integer, so the result does
    /// not depend on summation order.
    pub(crate) fn cosine(&self) -> f64 {
        if self.distinct_a == 0 && self.distinct_b == 0 {
            return 1.0;
        }
        if self.distinct_a == 0 || self.distinct_b == 0 {
            return 0.0;
        }
        let norm_a = (self.square_a as f64).sqrt();
        let norm_b = (self.square_b as f64).sqrt();
        (self.dot as f64 / (norm_a * norm_b)).clamp(0.0, 1.0)
    }
}

/// Counts two unsorted string token lists by sorting references to them.
pub(crate) fn string_overlap<S: AsRef<str>>(a: &[S], b: &[S]) -> SortedOverlap {
    fn sorted<S: AsRef<str>>(tokens: &[S]) -> Vec<&str> {
        let mut refs: Vec<&str> = tokens.iter().map(AsRef::as_ref).collect();
        refs.sort_unstable();
        refs
    }
    sorted_overlap(&sorted(a), &sorted(b))
}

/// Jaccard similarity `|A ∩ B| / |A ∪ B|` over token *sets*.
///
/// Two empty token lists are considered identical (similarity `1`).
pub fn jaccard_similarity<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    string_overlap(a, b).jaccard()
}

/// Dice similarity `2|A ∩ B| / (|A| + |B|)` over token sets.
pub fn dice_similarity<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    string_overlap(a, b).dice()
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)` over token sets.
///
/// Returns `0` when exactly one side is empty and `1` when both are empty.
pub fn overlap_coefficient<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    string_overlap(a, b).overlap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toks(s: &str) -> Vec<String> {
        crate::text::word_tokens(s)
    }

    #[test]
    fn jaccard_known_values() {
        assert_eq!(jaccard_similarity(&toks("a b c"), &toks("a b c")), 1.0);
        assert_eq!(jaccard_similarity(&toks("a b"), &toks("c d")), 0.0);
        assert!((jaccard_similarity(&toks("a b c"), &toks("b c d")) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_ignores_duplicates() {
        // Set semantics: duplicates collapse.
        assert_eq!(jaccard_similarity(&toks("a a a b"), &toks("a b")), 1.0);
    }

    #[test]
    fn dice_known_values() {
        assert!((dice_similarity(&toks("a b c"), &toks("b c d")) - 2.0 * 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(dice_similarity(&toks(""), &toks("")), 1.0);
        assert_eq!(dice_similarity(&toks("a"), &toks("")), 0.0);
    }

    #[test]
    fn overlap_is_one_for_subset() {
        assert_eq!(overlap_coefficient(&toks("a b"), &toks("a b c d")), 1.0);
        assert_eq!(overlap_coefficient(&toks(""), &toks("a")), 0.0);
        assert_eq!(overlap_coefficient(&toks(""), &toks("")), 1.0);
    }

    #[test]
    fn dice_at_least_jaccard() {
        let a = toks("entity resolution with quality control");
        let b = toks("quality control for entity matching");
        assert!(dice_similarity(&a, &b) >= jaccard_similarity(&a, &b));
    }

    proptest! {
        #[test]
        fn token_measures_bounded_and_symmetric(a in "[a-d ]{0,20}", b in "[a-d ]{0,20}") {
            let (ta, tb) = (toks(&a), toks(&b));
            for f in [jaccard_similarity::<String>, dice_similarity::<String>, overlap_coefficient::<String>] {
                let ab = f(&ta, &tb);
                prop_assert!((0.0..=1.0).contains(&ab));
                prop_assert!((ab - f(&tb, &ta)).abs() < 1e-12);
            }
        }

        #[test]
        fn merge_counts_equal_set_and_map_definitions(a in "[a-dé ]{0,24}", b in "[a-dé ]{0,24}") {
            // The sort-merge formulas against the textbook set and
            // term-frequency-map computations, bit for bit.
            use std::collections::{BTreeMap, BTreeSet};
            let (ta, tb) = (toks(&a), toks(&b));
            let (sa, sb): (BTreeSet<&String>, BTreeSet<&String>) = (ta.iter().collect(), tb.iter().collect());
            let common = sa.intersection(&sb).count();
            let jaccard = if sa.is_empty() && sb.is_empty() {
                1.0
            } else {
                common as f64 / sa.union(&sb).count() as f64
            };
            prop_assert_eq!(jaccard_similarity(&ta, &tb).to_bits(), jaccard.to_bits());
            fn tf(tokens: &[String]) -> BTreeMap<&str, usize> {
                let mut tf = BTreeMap::new();
                for t in tokens {
                    *tf.entry(t.as_str()).or_default() += 1;
                }
                tf
            }
            let (fa, fb) = (tf(&ta), tf(&tb));
            let cosine = if ta.is_empty() && tb.is_empty() {
                1.0
            } else if ta.is_empty() || tb.is_empty() {
                0.0
            } else {
                let mut dot = 0.0;
                for (t, &ca) in &fa {
                    if let Some(&cb) = fb.get(t) {
                        dot += ca as f64 * cb as f64;
                    }
                }
                let norm = |f: &BTreeMap<&str, usize>| f.values().map(|&c| (c * c) as f64).sum::<f64>().sqrt();
                (dot / (norm(&fa) * norm(&fb))).clamp(0.0, 1.0)
            };
            prop_assert_eq!(crate::similarity::tf_cosine_similarity(&ta, &tb).to_bits(), cosine.to_bits());
        }

        #[test]
        fn jaccard_le_dice_le_overlap(a in "[a-d ]{1,20}", b in "[a-d ]{1,20}") {
            let (ta, tb) = (toks(&a), toks(&b));
            prop_assume!(!ta.is_empty() && !tb.is_empty());
            let j = jaccard_similarity(&ta, &tb);
            let d = dice_similarity(&ta, &tb);
            let o = overlap_coefficient(&ta, &tb);
            prop_assert!(j <= d + 1e-12);
            prop_assert!(d <= o + 1e-12);
        }
    }
}
