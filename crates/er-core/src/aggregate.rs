//! Attribute-weighted pair similarity.
//!
//! The paper computes pair similarity "by aggregating attribute similarities with
//! weights", where "the weight of each attribute is determined by the number of
//! its distinct attribute values". This module implements that scheme:
//! a [`PairScorer`] evaluates a configured similarity measure per attribute and
//! combines the scores with per-attribute weights, renormalizing over the
//! attributes actually present on both records.
//!
//! [`PairScorer::score_bounded`] is the one scoring path, and
//! [`PairScorer::score`] is its floor-0 case. Its token-based measures read
//! interned, sorted token-id sequences from a [`TokenCache`] — the memo the
//! resolution engine fills once per record at ingest and shares with
//! blocking — and merge them without allocating. Whatever the cache lacks is
//! tokenized afresh from the raw text, so a caller with no memo passes an
//! empty cache and gets bit-identical scores.
//!
//! With a positive floor the scorer first evaluates the cheap measures
//! (token-based and numeric) and bounds every character-based measure
//! (Jaro–Winkler, Levenshtein, …) by 1. When that upper bound on the
//! weighted score already falls below the floor, the expensive measures are
//! skipped: the length-and-prefix filtering idea of AllPairs (Bayardo et
//! al., WWW 2007) and PPJoin (Xiao et al., WWW 2008), applied to a weighted
//! multi-attribute score. A pair that is not skipped is scored exactly as
//! with floor 0.

use crate::record::{Dataset, Record, RecordId};
use crate::similarity::token::sorted_overlap;
use crate::similarity::StringMeasure;
use crate::similarity::{absolute_difference_similarity, relative_difference_similarity};
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
    /// merge the memoized token-id sequences of `cache` — `a` on its left
    /// side, `b` on its right side — and anything the cache does not cover
    /// (records it never admitted, character-based or numeric measures) is
    /// evaluated directly on the attribute values, so the score is
    /// bit-identical for any cache state. A caller without a memo passes an
    /// empty [`TokenCache`].
    pub fn score(&self, a: &Record, b: &Record, cache: &TokenCache) -> f64 {
        // Every attribute similarity is non-negative, so a floor of 0 never
        // prunes.
        self.score_bounded(a, b, cache, 0.0).unwrap_or(0.0)
    }

    /// [`PairScorer::score`] that may give up on pairs scoring below `floor`.
    ///
    /// The cheap measures (token-based and numeric) are evaluated first, and
    /// each character-based measure present on both records is bounded by
    /// `1`. When the weighted mean of that bound is below `floor` by more
    /// than a rounding margin, the pair is *pruned*: `None` is returned and
    /// the character-based measures never run. Otherwise the result is
    /// `Some` of the exact [`PairScorer::score`] value, bit for bit, which may
    /// still lie below `floor`.
    pub fn score_bounded(
        &self,
        a: &Record,
        b: &Record,
        cache: &TokenCache,
        floor: f64,
    ) -> Option<f64> {
        let mut inline = [None; INLINE_ATTRIBUTES];
        let mut spilled;
        let sims: &mut [Option<f64>] = match self.attributes.len() {
            n if n <= INLINE_ATTRIBUTES => &mut inline[..n],
            n => {
                spilled = vec![None; n];
                &mut spilled
            }
        };
        // Pass 1: the cheap measures, and the presence of the deferred ones.
        let mut bound = 0.0;
        let mut weight_total = 0.0;
        let mut deferred = false;
        for (attr, sim) in self.attributes.iter().zip(sims.iter_mut()) {
            if attr.is_deferred() {
                if a.get(&attr.name).as_text().is_some() && b.get(&attr.name).as_text().is_some() {
                    deferred = true;
                    bound += attr.weight;
                    weight_total += attr.weight;
                }
            } else if let Some(s) = Self::eval_cheap(attr, a, b, cache) {
                *sim = Some(s);
                bound += attr.weight * s;
                weight_total += attr.weight;
            }
        }
        if deferred && bound / weight_total < floor - PRUNE_MARGIN {
            return None;
        }
        // Pass 2: the deferred measures, then the weighted sum in attribute
        // order — the same additions, in the same order, for every floor.
        let mut weighted_sum = 0.0;
        for (attr, sim) in self.attributes.iter().zip(sims.iter()) {
            let sim = if attr.is_deferred() {
                attr.measure.eval(a.get(&attr.name), b.get(&attr.name))
            } else {
                *sim
            };
            if let Some(sim) = sim {
                weighted_sum += attr.weight * sim;
            }
        }
        Some(if weight_total == 0.0 { 0.0 } else { (weighted_sum / weight_total).clamp(0.0, 1.0) })
    }

    /// Evaluates a token-based or numeric attribute, reading token ids from
    /// `cache` when both records are admitted.
    fn eval_cheap(
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
                let cached = cache.entry(&attr.name, tokenizer).and_then(|entry| {
                    Some((entry.ids(SIDE_LEFT, a.id())?, entry.ids(SIDE_RIGHT, b.id())?))
                });
                return Some(match cached {
                    Some((ids_a, ids_b)) => {
                        let overlap = sorted_overlap(ids_a, ids_b);
                        match measure {
                            StringMeasure::Jaccard(_) => overlap.jaccard(),
                            StringMeasure::Dice(_) => overlap.dice(),
                            StringMeasure::Overlap(_) => overlap.overlap(),
                            _ => overlap.cosine(),
                        }
                    }
                    None => measure.eval(ta, tb),
                });
            }
        }
        attr.measure.eval(a.get(&attr.name), b.get(&attr.name))
    }
}

/// Attributes a scorer keeps per-pair scratch for on the stack.
const INLINE_ATTRIBUTES: usize = 16;

/// How far below the floor a bound must fall before a pair is pruned. The
/// bound and the exact score sum the same few products in different orders,
/// so they differ by a few ulps at most; this margin dwarfs that.
const PRUNE_MARGIN: f64 = 1e-9;

/// Cache side of the left-hand record of a scored pair.
const SIDE_LEFT: usize = 0;
/// Cache side of the right-hand record of a scored pair.
const SIDE_RIGHT: usize = 1;

impl WeightedAttribute {
    /// Whether the measure is character-based: costly, bounded by `1` and
    /// evaluated only when the cheap measures leave the floor reachable.
    fn is_deferred(&self) -> bool {
        matches!(self.measure, AttributeMeasure::Text(m) if token_based_tokenizer(m).is_none())
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

/// A memo of per-record token sequences, shared by blocking and scoring so
/// repeated passes over the same records stop re-normalizing and re-tokenizing
/// their attribute texts.
///
/// Each `(attribute, tokenizer)` entry interns its tokens into a `u32`
/// vocabulary shared by both sides and stores every admitted record's
/// `Tokenizer::tokenize` output as an ascending id sequence, duplicates
/// kept: set measures merge distinct ids, TF-cosine counts the runs, and
/// blocking maps ids back to token text through the vocabulary. Sequences
/// are keyed by `(attribute, tokenizer, side, record id)`; left and right
/// sides are kept apart because the two datasets' record ids may collide. The
/// cache trusts that an admitted record's text does not change afterwards —
/// the resolution engine admits each record once, at ingest.
#[derive(Debug, Default, Clone)]
pub struct TokenCache {
    entries: Vec<TokenCacheEntry>,
}

/// The interned token sequences of one `(attribute, tokenizer)`.
#[derive(Debug, Clone)]
pub(crate) struct TokenCacheEntry {
    attribute: String,
    tokenizer: Tokenizer,
    /// Token text by id.
    vocabulary: Vec<Box<str>>,
    /// Token id by text.
    ids: HashMap<Box<str>, u32>,
    /// Ascending token-id sequences by record id, index 0 = left side, 1 = right side.
    sides: [HashMap<u64, Box<[u32]>>; 2],
}

impl TokenCacheEntry {
    /// The ascending token-id sequence of an admitted record.
    pub(crate) fn ids(&self, side: usize, id: RecordId) -> Option<&[u32]> {
        self.sides[side].get(&id.0).map(|ids| &ids[..])
    }

    /// The text of an interned token.
    pub(crate) fn token(&self, id: u32) -> &str {
        &self.vocabulary[id as usize]
    }

    fn intern(&mut self, token: String) -> u32 {
        if let Some(&id) = self.ids.get(token.as_str()) {
            return id;
        }
        let id = u32::try_from(self.vocabulary.len()).expect("token vocabulary exceeds u32 ids");
        let token = token.into_boxed_str();
        self.vocabulary.push(token.clone());
        self.ids.insert(token, id);
        id
    }
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
                    vocabulary: Vec::new(),
                    ids: HashMap::new(),
                    sides: [HashMap::new(), HashMap::new()],
                });
                self.entries.last_mut().expect("entry just pushed")
            }
        };
        for record in records {
            let Some(text) = record.text(attribute) else { continue };
            if entry.sides[side].contains_key(&record.id().0) {
                continue;
            }
            let mut ids: Vec<u32> =
                tokenizer.tokenize(text).into_iter().map(|token| entry.intern(token)).collect();
            ids.sort_unstable();
            entry.sides[side].insert(record.id().0, ids.into_boxed_slice());
        }
    }

    /// Tokenizes and memoizes a batch of left-side records for an attribute.
    pub fn admit_left(&mut self, attribute: &str, tokenizer: Tokenizer, records: &[Record]) {
        self.admit(attribute, tokenizer, SIDE_LEFT, records);
    }

    /// Tokenizes and memoizes a batch of right-side records for an attribute.
    pub fn admit_right(&mut self, attribute: &str, tokenizer: Tokenizer, records: &[Record]) {
        self.admit(attribute, tokenizer, SIDE_RIGHT, records);
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
            self.admit(name, tokenizer, SIDE_LEFT, left_records);
            self.admit(name, tokenizer, SIDE_RIGHT, right_records);
        }
    }

    /// The entry of an `(attribute, tokenizer)`, if anything was admitted for it.
    pub(crate) fn entry(&self, attribute: &str, tokenizer: Tokenizer) -> Option<&TokenCacheEntry> {
        self.entries.iter().find(|e| e.attribute == attribute && e.tokenizer == tokenizer)
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
    use proptest::prelude::*;

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

    #[test]
    fn bounded_scoring_prunes_only_below_the_floor() {
        let scorer = uniform_scorer(vec![
            ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("venue", AttributeMeasure::Text(StringMeasure::JaroWinkler)),
        ]);
        let a = paper_record(1, "entity resolution", "vldb");
        let b = paper_record(2, "graph systems", "vldb journal");
        let cache = TokenCache::new();
        // Disjoint titles bound the pair at (0 + 1) / 2.
        assert_eq!(scorer.score_bounded(&a, &b, &cache, 0.6), None);
        let exact = scorer.score(&a, &b, &cache);
        assert_eq!(
            scorer.score_bounded(&a, &b, &cache, 0.5).map(f64::to_bits),
            Some(exact.to_bits())
        );
        // Without the deferred attribute there is nothing to skip.
        let no_venue = Record::new(RecordId(3)).with("title", "graph systems");
        assert_eq!(scorer.score_bounded(&a, &no_venue, &cache, 0.9), Some(0.0));
    }

    /// A text of the given attribute, unless `missing`.
    fn text_record(id: u64, text: &str, missing: bool) -> Record {
        let record = Record::new(RecordId(id));
        if missing {
            record
        } else {
            record.with("text", text)
        }
    }

    proptest! {
        #[test]
        fn interned_id_kernels_equal_string_kernels(
            l1 in "[abÉé .]{0,14}",
            l2 in "[abÉé .]{0,14}",
            r1 in "[abÉé .]{0,14}",
            r2 in "[abÉé .]{0,14}",
            missing in 0u32..16,
            collide in 0u64..2,
        ) {
            // Right record ids collide with left ones (always for id 2, for id
            // 1 when `collide` is set): the cache must keep the sides apart.
            let lefts = vec![text_record(1, &l1, missing & 1 != 0), text_record(2, &l2, missing & 2 != 0)];
            let rights = vec![
                text_record(if collide == 1 { 1 } else { 3 }, &r1, missing & 4 != 0),
                text_record(2, &r2, missing & 8 != 0),
            ];
            for tokenizer in [Tokenizer::Words, Tokenizer::QGrams(2)] {
                for measure in [
                    StringMeasure::Jaccard(tokenizer),
                    StringMeasure::Dice(tokenizer),
                    StringMeasure::Overlap(tokenizer),
                    StringMeasure::Cosine(tokenizer),
                ] {
                    let config = ScoringConfig::new(
                        [("text", AttributeMeasure::Text(measure))],
                        AttributeWeighting::Uniform,
                    );
                    let scorer = PairScorer::new(&config, &[]).unwrap();
                    let mut admitted = TokenCache::new();
                    admitted.admit_scoring(&config, &lefts, &rights);
                    for a in &lefts {
                        for b in &rights {
                            let expected = match (a.text("text"), b.text("text")) {
                                (Some(ta), Some(tb)) => measure.eval(ta, tb),
                                _ => 0.0,
                            };
                            let got = scorer.score(a, b, &admitted);
                            prop_assert!(
                                got.to_bits() == expected.to_bits(),
                                "{measure:?} on {a:?} vs {b:?}: {got} != {expected}"
                            );
                        }
                    }
                }
            }
        }
    }
}
