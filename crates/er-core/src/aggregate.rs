//! Attribute-weighted pair similarity.
//!
//! The paper computes pair similarity "by aggregating attribute similarities with
//! weights", where "the weight of each attribute is determined by the number of
//! its distinct attribute values". This module implements that scheme:
//! a [`PairScorer`] evaluates a configured similarity measure per attribute and
//! combines the scores with per-attribute weights, renormalizing over the
//! attributes actually present on both records.
//!
//! [`PairScorer::score`] is the one scoring path. Its token-based measures
//! read record token sequences from a [`TokenCache`] — the memo the
//! resolution engine fills once per record at ingest and shares with
//! blocking — and tokenize afresh whatever the cache lacks, so a caller with
//! no memo passes an empty cache and gets bit-identical scores.

use crate::record::{Dataset, Record, RecordId};
use crate::similarity::StringMeasure;
use crate::similarity::{
    absolute_difference_similarity, dice_similarity, jaccard_similarity, overlap_coefficient,
    relative_difference_similarity, tf_cosine_similarity,
};
use crate::text::Tokenizer;
use crate::{AttributeValue, ErError, Result};
use std::collections::HashMap;

/// How per-attribute weights are derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttributeWeighting {
    /// All attributes weigh the same.
    Uniform,
    /// Each attribute is weighted by its number of distinct values across the
    /// datasets being matched (the paper's rule): attributes with many distinct
    /// values are more discriminative and therefore weigh more.
    DistinctValues,
}

/// How a single attribute contributes to the pair similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttributeMeasure {
    /// Compare attribute texts with a string measure.
    Text(StringMeasure),
    /// Compare numeric attributes with `max(0, 1 - |a-b|/tolerance)`.
    NumberAbsolute {
        /// The difference at which similarity reaches zero.
        tolerance: f64,
    },
    /// Compare numeric attributes with `1 - |a-b| / max(|a|,|b|)`.
    NumberRelative,
}

impl AttributeMeasure {
    fn eval(&self, a: &AttributeValue, b: &AttributeValue) -> Option<f64> {
        match self {
            AttributeMeasure::Text(measure) => match (a.as_text(), b.as_text()) {
                (Some(ta), Some(tb)) => Some(measure.eval(ta, tb)),
                _ => None,
            },
            AttributeMeasure::NumberAbsolute { tolerance } => {
                match (a.as_number(), b.as_number()) {
                    (Some(na), Some(nb)) => {
                        Some(absolute_difference_similarity(na, nb, *tolerance))
                    }
                    _ => None,
                }
            }
            AttributeMeasure::NumberRelative => match (a.as_number(), b.as_number()) {
                (Some(na), Some(nb)) => Some(relative_difference_similarity(na, nb)),
                _ => None,
            },
        }
    }
}

/// Configuration of a [`PairScorer`]: which attributes to compare, how, and how to weight them.
#[derive(Debug, Clone)]
pub struct ScoringConfig {
    /// `(attribute name, measure)` pairs.
    pub attributes: Vec<(String, AttributeMeasure)>,
    /// Weighting rule.
    pub weighting: AttributeWeighting,
}

impl ScoringConfig {
    /// Creates a configuration comparing the given attributes with the given measures.
    pub fn new(
        attributes: impl IntoIterator<Item = (impl Into<String>, AttributeMeasure)>,
        weighting: AttributeWeighting,
    ) -> Self {
        Self { attributes: attributes.into_iter().map(|(n, m)| (n.into(), m)).collect(), weighting }
    }
}

/// A configured attribute with its resolved weight.
#[derive(Debug, Clone)]
struct WeightedAttribute {
    name: String,
    measure: AttributeMeasure,
    weight: f64,
}

/// Computes weighted pair similarities between records.
#[derive(Debug, Clone)]
pub struct PairScorer {
    attributes: Vec<WeightedAttribute>,
}

impl PairScorer {
    /// Builds a scorer from a configuration and the datasets being matched.
    ///
    /// The datasets are only consulted when [`AttributeWeighting::DistinctValues`]
    /// is selected, to count distinct values per attribute.
    pub fn new(config: &ScoringConfig, datasets: &[&Dataset]) -> Result<Self> {
        if config.attributes.is_empty() {
            return Err(ErError::InvalidArgument(
                "scoring configuration must name at least one attribute".to_string(),
            ));
        }
        let mut attributes = Vec::with_capacity(config.attributes.len());
        for (name, measure) in &config.attributes {
            let weight = match config.weighting {
                AttributeWeighting::Uniform => 1.0,
                AttributeWeighting::DistinctValues => {
                    let count: usize = datasets.iter().map(|d| d.distinct_value_count(name)).sum();
                    // An attribute absent from every dataset still participates with a
                    // minimal weight so the scorer never divides by zero.
                    (count as f64).max(1.0)
                }
            };
            attributes.push(WeightedAttribute { name: name.clone(), measure: *measure, weight });
        }
        Ok(Self { attributes })
    }

    /// The attribute names this scorer compares, with their weights.
    pub fn weights(&self) -> Vec<(&str, f64)> {
        self.attributes.iter().map(|a| (a.name.as_str(), a.weight)).collect()
    }

    /// Per-attribute similarity scores for a record pair (`None` where either side
    /// is missing or of the wrong type). Useful as a feature vector for classifiers.
    pub fn attribute_scores(&self, a: &Record, b: &Record) -> Vec<Option<f64>> {
        self.attributes
            .iter()
            .map(|attr| attr.measure.eval(a.get(&attr.name), b.get(&attr.name)))
            .collect()
    }

    /// Weighted aggregate similarity of a record pair in `[0, 1]`.
    ///
    /// Attributes missing on either side are excluded and the remaining weights are
    /// renormalized; if every attribute is missing the pair scores `0`.
    ///
    /// The token-based string measures (Jaccard, Dice, overlap, TF-cosine)
    /// read memoized token sequences from `cache` — `a` on its left side, `b`
    /// on its right side. Cached sequences are the exact `Tokenizer::tokenize`
    /// output and feed the same similarity functions, and anything the cache
    /// does not cover (records it never admitted, character-based or numeric
    /// measures) is evaluated directly, so the score is bit-identical for any
    /// cache state. A caller without a memo passes an empty [`TokenCache`].
    pub fn score(&self, a: &Record, b: &Record, cache: &TokenCache) -> f64 {
        let mut weighted_sum = 0.0;
        let mut weight_total = 0.0;
        for attr in &self.attributes {
            if let Some(sim) = Self::eval_attribute(attr, a, b, cache) {
                weighted_sum += attr.weight * sim;
                weight_total += attr.weight;
            }
        }
        if weight_total == 0.0 {
            0.0
        } else {
            (weighted_sum / weight_total).clamp(0.0, 1.0)
        }
    }

    fn eval_attribute(
        attr: &WeightedAttribute,
        a: &Record,
        b: &Record,
        cache: &TokenCache,
    ) -> Option<f64> {
        if let AttributeMeasure::Text(measure) = attr.measure {
            if let Some(tokenizer) = token_based_tokenizer(measure) {
                // Text presence mirrors `AttributeMeasure::eval` exactly.
                let ta = a.get(&attr.name).as_text()?;
                let tb = b.get(&attr.name).as_text()?;
                let fresh_a;
                let tokens_a: &[String] = match cache.left_tokens(&attr.name, tokenizer, a.id()) {
                    Some(tokens) => tokens,
                    None => {
                        fresh_a = tokenizer.tokenize(ta);
                        &fresh_a
                    }
                };
                let fresh_b;
                let tokens_b: &[String] = match cache.right_tokens(&attr.name, tokenizer, b.id()) {
                    Some(tokens) => tokens,
                    None => {
                        fresh_b = tokenizer.tokenize(tb);
                        &fresh_b
                    }
                };
                return Some(eval_token_measure(measure, tokens_a, tokens_b));
            }
        }
        attr.measure.eval(a.get(&attr.name), b.get(&attr.name))
    }
}

/// The tokenizer of a token-based string measure, `None` for character-based ones.
fn token_based_tokenizer(measure: StringMeasure) -> Option<Tokenizer> {
    match measure {
        StringMeasure::Jaccard(t)
        | StringMeasure::Dice(t)
        | StringMeasure::Overlap(t)
        | StringMeasure::Cosine(t) => Some(t),
        _ => None,
    }
}

/// Evaluates a token-based measure on pre-tokenized sequences — the same
/// similarity functions `StringMeasure::eval` calls after tokenizing.
fn eval_token_measure(measure: StringMeasure, a: &[String], b: &[String]) -> f64 {
    match measure {
        StringMeasure::Jaccard(_) => jaccard_similarity(a, b),
        StringMeasure::Dice(_) => dice_similarity(a, b),
        StringMeasure::Overlap(_) => overlap_coefficient(a, b),
        StringMeasure::Cosine(_) => tf_cosine_similarity(a, b),
        _ => unreachable!("eval_token_measure is only called for token-based measures"),
    }
}

/// A memo of per-record token sequences, shared by blocking and scoring so
/// repeated passes over the same records stop re-normalizing and re-tokenizing
/// their attribute texts.
///
/// Sequences are keyed by `(attribute, tokenizer, side, record id)` and hold
/// the raw `Tokenizer::tokenize` output (duplicates included), so consumers
/// observe exactly what a fresh tokenization would produce. Left and right
/// sides are kept apart because the two datasets' record ids may collide. The
/// cache trusts that an admitted record's text does not change afterwards —
/// the resolution engine admits each record once, at ingest.
#[derive(Debug, Default, Clone)]
pub struct TokenCache {
    entries: Vec<TokenCacheEntry>,
}

#[derive(Debug, Clone)]
struct TokenCacheEntry {
    attribute: String,
    tokenizer: Tokenizer,
    /// Token sequences by record id, index 0 = left side, 1 = right side.
    sides: [HashMap<u64, Vec<String>>; 2],
}

impl TokenCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn admit(&mut self, attribute: &str, tokenizer: Tokenizer, side: usize, records: &[Record]) {
        let entry = match self
            .entries
            .iter()
            .position(|e| e.attribute == attribute && e.tokenizer == tokenizer)
        {
            Some(i) => &mut self.entries[i],
            None => {
                self.entries.push(TokenCacheEntry {
                    attribute: attribute.to_string(),
                    tokenizer,
                    sides: [HashMap::new(), HashMap::new()],
                });
                self.entries.last_mut().expect("entry just pushed")
            }
        };
        for record in records {
            if let Some(text) = record.text(attribute) {
                entry.sides[side].entry(record.id().0).or_insert_with(|| tokenizer.tokenize(text));
            }
        }
    }

    /// Tokenizes and memoizes a batch of left-side records for an attribute.
    pub fn admit_left(&mut self, attribute: &str, tokenizer: Tokenizer, records: &[Record]) {
        self.admit(attribute, tokenizer, 0, records);
    }

    /// Tokenizes and memoizes a batch of right-side records for an attribute.
    pub fn admit_right(&mut self, attribute: &str, tokenizer: Tokenizer, records: &[Record]) {
        self.admit(attribute, tokenizer, 1, records);
    }

    /// Admits left- and right-side batches for every *token-based* text
    /// attribute of a scoring configuration (character-based and numeric
    /// measures gain nothing from token memoization and are skipped), so
    /// [`PairScorer::score`] finds every sequence it can use.
    pub fn admit_scoring(
        &mut self,
        config: &ScoringConfig,
        left_records: &[Record],
        right_records: &[Record],
    ) {
        for (name, measure) in &config.attributes {
            let AttributeMeasure::Text(measure) = measure else { continue };
            let Some(tokenizer) = token_based_tokenizer(*measure) else { continue };
            self.admit(name, tokenizer, 0, left_records);
            self.admit(name, tokenizer, 1, right_records);
        }
    }

    fn tokens(
        &self,
        attribute: &str,
        tokenizer: Tokenizer,
        side: usize,
        id: RecordId,
    ) -> Option<&[String]> {
        self.entries
            .iter()
            .find(|e| e.attribute == attribute && e.tokenizer == tokenizer)
            .and_then(|e| e.sides[side].get(&id.0))
            .map(Vec::as_slice)
    }

    /// The memoized token sequence of a left-side record, if admitted.
    pub fn left_tokens(
        &self,
        attribute: &str,
        tokenizer: Tokenizer,
        id: RecordId,
    ) -> Option<&[String]> {
        self.tokens(attribute, tokenizer, 0, id)
    }

    /// The memoized token sequence of a right-side record, if admitted.
    pub fn right_tokens(
        &self,
        attribute: &str,
        tokenizer: Tokenizer,
        id: RecordId,
    ) -> Option<&[String]> {
        self.tokens(attribute, tokenizer, 1, id)
    }

    /// Total number of memoized record token sequences across all entries.
    pub fn cached_records(&self) -> usize {
        self.entries.iter().map(|e| e.sides[0].len() + e.sides[1].len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, RecordId, Schema};
    use crate::text::Tokenizer;

    fn paper_record(id: u64, title: &str, venue: &str) -> Record {
        Record::new(RecordId(id)).with("title", title).with("venue", venue)
    }

    fn bib_dataset(records: Vec<Record>) -> Dataset {
        let mut ds = Dataset::new("test", Schema::new(["title", "venue", "year"]));
        for r in records {
            ds.push(r).unwrap();
        }
        ds
    }

    fn title_venue_config() -> ScoringConfig {
        ScoringConfig::new(
            [
                ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
                ("venue", AttributeMeasure::Text(StringMeasure::JaroWinkler)),
            ],
            AttributeWeighting::DistinctValues,
        )
    }

    #[test]
    fn identical_records_score_one() {
        let ds = bib_dataset(vec![
            paper_record(1, "entity resolution", "icde"),
            paper_record(2, "record linkage", "vldb"),
        ]);
        let scorer = PairScorer::new(&title_venue_config(), &[&ds]).unwrap();
        let a = paper_record(10, "entity resolution", "icde");
        assert!((scorer.score(&a, &a, &TokenCache::new()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unrelated_records_score_low() {
        let ds = bib_dataset(vec![paper_record(1, "entity resolution", "icde")]);
        let scorer = PairScorer::new(&title_venue_config(), &[&ds]).unwrap();
        let a = paper_record(10, "entity resolution with quality guarantees", "icde");
        let b = paper_record(11, "deep convolutional networks", "nips");
        assert!(scorer.score(&a, &b, &TokenCache::new()) < 0.5);
        assert!(scorer.score(&a, &b, &TokenCache::new()) >= 0.0);
    }

    #[test]
    fn missing_attributes_renormalize_weights() {
        let ds = bib_dataset(vec![paper_record(1, "entity resolution", "icde")]);
        let scorer = PairScorer::new(&title_venue_config(), &[&ds]).unwrap();
        let full = paper_record(10, "entity resolution", "icde");
        let missing_venue = Record::new(RecordId(11)).with("title", "entity resolution");
        // Only the title attribute participates, and the titles are identical.
        assert!((scorer.score(&full, &missing_venue, &TokenCache::new()) - 1.0).abs() < 1e-12);
        // A record with no comparable attributes scores 0.
        let empty = Record::new(RecordId(12));
        assert_eq!(scorer.score(&full, &empty, &TokenCache::new()), 0.0);
    }

    #[test]
    fn distinct_value_weighting_prefers_discriminative_attributes() {
        // Titles are all distinct; venue has a single value, so title carries more weight.
        let ds = bib_dataset(vec![
            paper_record(1, "paper one", "icde"),
            paper_record(2, "paper two", "icde"),
            paper_record(3, "paper three", "icde"),
        ]);
        let scorer = PairScorer::new(&title_venue_config(), &[&ds]).unwrap();
        let weights = scorer.weights();
        let title_weight = weights.iter().find(|(n, _)| *n == "title").unwrap().1;
        let venue_weight = weights.iter().find(|(n, _)| *n == "venue").unwrap().1;
        assert!(title_weight > venue_weight);

        // Same titles, different venue: should still score high because venue weighs little.
        let a = paper_record(10, "matching paper", "icde");
        let b = paper_record(11, "matching paper", "sigmod");
        assert!(scorer.score(&a, &b, &TokenCache::new()) > 0.7);
    }

    /// A uniformly weighted scorer (every weight 1) over the given attributes.
    fn uniform_scorer(attributes: Vec<(&str, AttributeMeasure)>) -> PairScorer {
        PairScorer::new(&ScoringConfig::new(attributes, AttributeWeighting::Uniform), &[]).unwrap()
    }

    #[test]
    fn numeric_attribute_measures() {
        let scorer = uniform_scorer(vec![
            ("year", AttributeMeasure::NumberAbsolute { tolerance: 10.0 }),
            ("price", AttributeMeasure::NumberRelative),
        ]);
        let a = Record::new(RecordId(1)).with("year", 2000.0).with("price", 100.0);
        let b = Record::new(RecordId(2)).with("year", 2005.0).with("price", 50.0);
        // year: 1 - 5/10 = 0.5; price: 1 - 50/100 = 0.5 → aggregate 0.5.
        assert!((scorer.score(&a, &b, &TokenCache::new()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn attribute_scores_expose_feature_vector() {
        let scorer = uniform_scorer(vec![
            ("title", AttributeMeasure::Text(StringMeasure::Levenshtein)),
            ("year", AttributeMeasure::NumberAbsolute { tolerance: 5.0 }),
        ]);
        let a = Record::new(RecordId(1)).with("title", "abc").with("year", 2000.0);
        let b = Record::new(RecordId(2)).with("title", "abc");
        let scores = scorer.attribute_scores(&a, &b);
        assert_eq!(scores.len(), 2);
        assert!((scores[0].unwrap() - 1.0).abs() < 1e-12);
        assert!(scores[1].is_none());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let ds = bib_dataset(vec![]);
        let empty = ScoringConfig::new(
            Vec::<(String, AttributeMeasure)>::new(),
            AttributeWeighting::Uniform,
        );
        assert!(PairScorer::new(&empty, &[&ds]).is_err());
    }

    /// The weighted mean of [`PairScorer::attribute_scores`] — per-attribute
    /// `StringMeasure::eval` on raw text, which never touches a token cache —
    /// with the scorer's weights, summed in attribute order.
    fn reference_score(scorer: &PairScorer, a: &Record, b: &Record) -> f64 {
        let mut weighted_sum = 0.0;
        let mut weight_total = 0.0;
        for (sim, (_, weight)) in scorer.attribute_scores(a, b).into_iter().zip(scorer.weights()) {
            if let Some(sim) = sim {
                weighted_sum += weight * sim;
                weight_total += weight;
            }
        }
        if weight_total == 0.0 {
            0.0
        } else {
            (weighted_sum / weight_total).clamp(0.0, 1.0)
        }
    }

    #[test]
    fn cached_scores_are_bit_identical() {
        // Mixed measures: token-based (Jaccard/Cosine go through the cache),
        // character-based (JaroWinkler) and numeric (absolute) fall back.
        let lefts = vec![
            Record::new(RecordId(1))
                .with("title", "Entity Resolution, a Survey")
                .with("authors", "getoor machanavajjhala")
                .with("venue", "vldb")
                .with("year", 2012.0),
            Record::new(RecordId(2)).with("title", "graph networks").with("venue", "vldb"),
        ];
        let rights = vec![
            Record::new(RecordId(1)) // same id as a left record: sides must not mix
                .with("title", "a survey of entity resolution")
                .with("authors", "machanavajjhala")
                .with("venue", "pvldb")
                .with("year", 2011.0),
            Record::new(RecordId(9)).with("venue", "icde"),
        ];
        let schema = Schema::new(["title", "authors", "venue", "year"]);
        let mut left_ds = Dataset::new("l", schema.clone());
        let mut right_ds = Dataset::new("r", schema);
        for r in &lefts {
            left_ds.push(r.clone()).unwrap();
        }
        for r in &rights {
            right_ds.push(r.clone()).unwrap();
        }
        let config = ScoringConfig::new(
            [
                ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
                ("authors", AttributeMeasure::Text(StringMeasure::Cosine(Tokenizer::QGrams(2)))),
                ("venue", AttributeMeasure::Text(StringMeasure::JaroWinkler)),
                ("year", AttributeMeasure::NumberAbsolute { tolerance: 5.0 }),
            ],
            AttributeWeighting::DistinctValues,
        );
        let scorer = PairScorer::new(&config, &[&left_ds, &right_ds]).unwrap();
        let weights: Vec<f64> = scorer.weights().into_iter().map(|(_, w)| w).collect();
        assert!(weights.windows(2).any(|w| w[0] != w[1]), "weights should differ: {weights:?}");
        let mut admitted = TokenCache::new();
        admitted.admit_scoring(&config, &lefts, &rights);
        assert!(admitted.cached_records() > 0);
        let empty = TokenCache::new();
        for a in &lefts {
            for b in &rights {
                let expected = reference_score(&scorer, a, b).to_bits();
                for cache in [&admitted, &empty] {
                    let got = scorer.score(a, b, cache).to_bits();
                    assert_eq!(got, expected, "{:?} vs {:?}", a.id(), b.id());
                }
            }
        }
    }
}
