//! Record-level bibliographic corpus generator (DBLP-Scholar-like).
//!
//! Generates two publication datasets — a clean, curated-looking one ("DBLP")
//! and a noisier one ("Scholar") — together with the ground-truth set of
//! cross-dataset duplicates. The corpora are used to exercise the complete ER
//! pipeline: token blocking → attribute-weighted similarity → HUMO.

use crate::corrupt::corrupt;
use crate::rng::{bernoulli, choice};
use er_core::record::{Dataset, Record, RecordId, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const TITLE_WORDS: &[&str] = &[
    "entity",
    "resolution",
    "quality",
    "control",
    "record",
    "linkage",
    "query",
    "optimization",
    "distributed",
    "database",
    "systems",
    "learning",
    "active",
    "crowdsourcing",
    "framework",
    "adaptive",
    "indexing",
    "transaction",
    "processing",
    "graph",
    "stream",
    "approximate",
    "sampling",
    "probabilistic",
    "scalable",
    "efficient",
    "incremental",
    "parallel",
    "semantic",
    "integration",
    "cleaning",
    "deduplication",
    "matching",
    "similarity",
    "blocking",
    "schema",
    "provenance",
    "analytics",
    "workload",
    "partitioning",
];

const FIRST_NAMES: &[&str] = &[
    "wei", "lei", "qun", "hong", "jian", "peter", "michael", "anna", "laura", "david", "rajeev",
    "divesh", "felix", "surajit", "jennifer", "hector", "ahmed", "xin", "yu", "chen",
];

const LAST_NAMES: &[&str] = &[
    "chen",
    "li",
    "wang",
    "zhang",
    "liu",
    "christen",
    "naumann",
    "garcia-molina",
    "widom",
    "chaudhuri",
    "srivastava",
    "halevy",
    "doan",
    "stonebraker",
    "dewitt",
    "abadi",
    "kraska",
    "franklin",
    "madden",
    "fan",
];

const VENUES: &[&str] = &[
    "proceedings of the vldb endowment",
    "acm sigmod international conference on management of data",
    "ieee international conference on data engineering",
    "acm transactions on database systems",
    "ieee transactions on knowledge and data engineering",
    "international conference on very large data bases",
    "acm sigkdd conference on knowledge discovery and data mining",
    "conference on information and knowledge management",
];

/// Configuration of the bibliographic corpus generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BibliographicConfig {
    /// Number of distinct real-world publications generated for the clean dataset.
    pub num_entities: usize,
    /// Probability that a publication also appears (corrupted) in the noisy dataset.
    pub duplicate_probability: f64,
    /// Number of additional noisy-dataset-only publications (non-matches).
    pub extra_right_entities: usize,
    /// Corruption severity applied to duplicated records, in `[0, 1]`.
    pub corruption: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BibliographicConfig {
    fn default() -> Self {
        Self {
            num_entities: 400,
            duplicate_probability: 0.6,
            extra_right_entities: 400,
            corruption: 0.35,
            seed: 7,
        }
    }
}

/// A generated pair of datasets plus the cross-dataset ground truth.
#[derive(Debug, Clone)]
pub struct GeneratedCorpus {
    /// The "clean" dataset (left side of the matching task).
    pub left: Dataset,
    /// The "noisy" dataset (right side of the matching task).
    pub right: Dataset,
    /// Ground-truth matches as `(left record id, right record id)` pairs.
    pub ground_truth: BTreeSet<(RecordId, RecordId)>,
}

impl GeneratedCorpus {
    /// Number of ground-truth matching record pairs.
    pub fn match_count(&self) -> usize {
        self.ground_truth.len()
    }
}

/// Generates bibliographic corpora.
#[derive(Debug, Clone)]
pub struct BibliographicGenerator {
    config: BibliographicConfig,
}

impl BibliographicGenerator {
    /// Creates a generator with the given configuration.
    pub fn new(config: BibliographicConfig) -> Self {
        Self { config }
    }

    /// The schema shared by both generated datasets.
    pub fn schema() -> Schema {
        Schema::new(["title", "authors", "venue", "year"])
    }

    fn random_title<R: Rng + ?Sized>(rng: &mut R) -> String {
        let len = rng.gen_range(4..=8);
        (0..len).map(|_| *choice(rng, TITLE_WORDS)).collect::<Vec<_>>().join(" ")
    }

    fn random_authors<R: Rng + ?Sized>(rng: &mut R) -> String {
        let count = rng.gen_range(1..=3);
        (0..count)
            .map(|_| format!("{} {}", choice(rng, FIRST_NAMES), choice(rng, LAST_NAMES)))
            .collect::<Vec<_>>()
            .join(" and ")
    }

    fn clean_record<R: Rng + ?Sized>(rng: &mut R, id: u64) -> Record {
        Record::new(RecordId(id))
            .with("title", Self::random_title(rng))
            .with("authors", Self::random_authors(rng))
            .with("venue", *choice(rng, VENUES))
            .with("year", rng.gen_range(1995..=2018) as f64)
    }

    fn corrupted_copy<R: Rng + ?Sized>(
        rng: &mut R,
        original: &Record,
        id: u64,
        severity: f64,
    ) -> Record {
        let title = corrupt(rng, original.text("title").unwrap_or(""), severity);
        let authors = corrupt(rng, original.text("authors").unwrap_or(""), severity * 0.8);
        let venue = corrupt(rng, original.text("venue").unwrap_or(""), severity * 1.2);
        let mut record = Record::new(RecordId(id))
            .with("title", title)
            .with("authors", authors)
            .with("venue", venue);
        // Years occasionally drift by one (reprints, preprints).
        if let Some(year) = original.get("year").as_number() {
            let drift = if bernoulli(rng, severity * 0.3) { rng.gen_range(-1..=1) } else { 0 };
            record.set("year", year + drift as f64);
        }
        record
    }

    /// Generates a corpus: the left (clean) dataset, the right (noisy) dataset and
    /// the ground-truth match set.
    pub fn generate(&self) -> GeneratedCorpus {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut left = Dataset::new("dblp-like", Self::schema());
        let mut right = Dataset::new("scholar-like", Self::schema());
        let mut ground_truth = BTreeSet::new();

        let mut right_id = 1_000_000u64;
        for i in 0..cfg.num_entities {
            let record = Self::clean_record(&mut rng, i as u64);
            if bernoulli(&mut rng, cfg.duplicate_probability) {
                let copy = Self::corrupted_copy(&mut rng, &record, right_id, cfg.corruption);
                ground_truth.insert((record.id(), copy.id()));
                right.push(copy).expect("generated record ids are unique");
                right_id += 1;
            }
            left.push(record).expect("generated record ids are unique");
        }
        for _ in 0..cfg.extra_right_entities {
            let record = Self::clean_record(&mut rng, right_id);
            right.push(record).expect("generated record ids are unique");
            right_id += 1;
        }

        GeneratedCorpus { left, right, ground_truth }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::aggregate::{
        AttributeMeasure, AttributeWeighting, PairScorer, ScoringConfig, TokenCache,
    };
    use er_core::similarity::StringMeasure;
    use er_core::text::Tokenizer;

    fn small_config() -> BibliographicConfig {
        BibliographicConfig {
            num_entities: 120,
            duplicate_probability: 0.5,
            extra_right_entities: 120,
            corruption: 0.3,
            seed: 11,
        }
    }

    #[test]
    fn corpus_sizes_and_ground_truth_are_consistent() {
        let corpus = BibliographicGenerator::new(small_config()).generate();
        assert_eq!(corpus.left.len(), 120);
        assert!(corpus.right.len() >= 120); // extras plus duplicates
        assert!(corpus.match_count() > 0);
        assert!(corpus.match_count() <= 120);
        // Every ground-truth pair references existing records.
        for &(l, r) in &corpus.ground_truth {
            assert!(corpus.left.get(l).is_some());
            assert!(corpus.right.get(r).is_some());
        }
    }

    #[test]
    fn duplicates_are_more_similar_than_random_pairs() {
        let corpus = BibliographicGenerator::new(small_config()).generate();
        let config = ScoringConfig::new(
            [
                ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
                ("authors", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
                ("venue", AttributeMeasure::Text(StringMeasure::JaroWinkler)),
            ],
            AttributeWeighting::DistinctValues,
        );
        let scorer = PairScorer::new(&config, &[&corpus.left, &corpus.right]).unwrap();

        let mut match_sims = Vec::new();
        for &(l, r) in &corpus.ground_truth {
            let a = corpus.left.get(l).unwrap();
            let b = corpus.right.get(r).unwrap();
            match_sims.push(scorer.score(a, b, &TokenCache::new()));
        }
        let avg_match: f64 = match_sims.iter().sum::<f64>() / match_sims.len() as f64;

        // Random non-matching pairs.
        let mut nonmatch_sims = Vec::new();
        for (i, a) in corpus.left.iter().enumerate().take(50) {
            let b = &corpus.right.records()[(i * 7) % corpus.right.len()];
            if !corpus.ground_truth.contains(&(a.id(), b.id())) {
                nonmatch_sims.push(scorer.score(a, b, &TokenCache::new()));
            }
        }
        let avg_nonmatch: f64 = nonmatch_sims.iter().sum::<f64>() / nonmatch_sims.len() as f64;
        assert!(
            avg_match > avg_nonmatch + 0.2,
            "duplicates ({avg_match}) should score well above non-matches ({avg_nonmatch})"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = BibliographicGenerator::new(small_config()).generate();
        let b = BibliographicGenerator::new(small_config()).generate();
        assert_eq!(a.ground_truth, b.ground_truth);
        assert_eq!(a.left.len(), b.left.len());
    }

    #[test]
    fn records_conform_to_schema() {
        let corpus = BibliographicGenerator::new(small_config()).generate();
        let schema = BibliographicGenerator::schema();
        for r in corpus.left.iter().chain(corpus.right.iter()) {
            assert!(r.validate(&schema).is_ok());
            assert!(r.text("title").is_some());
        }
    }
}
