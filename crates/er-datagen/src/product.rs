//! Record-level product corpus generator (Abt-Buy-like).
//!
//! Generates two product catalogues — a terse one ("Abt") and a verbose one
//! ("Buy") — with overlapping offers. Product matching is intentionally harder
//! than bibliographic matching: descriptions differ in vocabulary, prices drift
//! between shops and names are heavily abbreviated, so matching pairs end up with
//! medium similarity values (the regime where HUMO's human region earns its keep).

use crate::corrupt::{corrupt, truncate_tokens};
use crate::rng::{bernoulli, choice};
use er_core::record::{Dataset, Record, RecordId, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const BRANDS: &[&str] = &[
    "sony",
    "panasonic",
    "samsung",
    "canon",
    "nikon",
    "bose",
    "yamaha",
    "logitech",
    "philips",
    "toshiba",
    "garmin",
    "netgear",
    "linksys",
    "olympus",
    "sanus",
    "denon",
];

const CATEGORIES: &[&str] = &[
    "digital camera",
    "wireless router",
    "home theater system",
    "noise cancelling headphones",
    "portable speaker",
    "lcd television",
    "camcorder",
    "gps navigator",
    "blu ray player",
    "surround sound receiver",
    "wall mount bracket",
    "cordless phone",
];

const DESCRIPTION_WORDS: &[&str] = &[
    "black",
    "silver",
    "compact",
    "megapixel",
    "optical",
    "zoom",
    "wireless",
    "bluetooth",
    "rechargeable",
    "battery",
    "remote",
    "control",
    "hdmi",
    "input",
    "output",
    "warranty",
    "digital",
    "stereo",
    "channel",
    "watt",
    "inch",
    "display",
    "widescreen",
    "portable",
    "energy",
    "efficient",
    "premium",
    "professional",
    "series",
    "edition",
];

/// Configuration of the product corpus generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProductConfig {
    /// Number of products in the left catalogue.
    pub num_entities: usize,
    /// Probability that a left product also appears in the right catalogue.
    pub duplicate_probability: f64,
    /// Number of right-catalogue-only products.
    pub extra_right_entities: usize,
    /// Corruption severity applied to duplicated offers, in `[0, 1]`. Product
    /// duplicates are corrupted more aggressively than bibliographic ones.
    pub corruption: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ProductConfig {
    fn default() -> Self {
        Self {
            num_entities: 400,
            duplicate_probability: 0.5,
            extra_right_entities: 500,
            corruption: 0.6,
            seed: 21,
        }
    }
}

/// Generates product corpora.
#[derive(Debug, Clone)]
pub struct ProductGenerator {
    config: ProductConfig,
}

impl ProductGenerator {
    /// Creates a generator with the given configuration.
    pub fn new(config: ProductConfig) -> Self {
        Self { config }
    }

    /// The schema shared by both generated catalogues.
    pub fn schema() -> Schema {
        Schema::new(["name", "description", "price"])
    }

    fn random_name<R: Rng + ?Sized>(rng: &mut R) -> String {
        let brand = *choice(rng, BRANDS);
        let category = *choice(rng, CATEGORIES);
        let model: String = (0..rng.gen_range(2..=4))
            .map(|_| char::from(b'a' + rng.gen_range(0..26)))
            .collect::<String>()
            .to_uppercase();
        let number = rng.gen_range(100..9999);
        format!("{brand} {category} {model}{number}")
    }

    fn random_description<R: Rng + ?Sized>(rng: &mut R, name: &str) -> String {
        let extra_len = rng.gen_range(6..=14);
        let extras: Vec<&str> = (0..extra_len).map(|_| *choice(rng, DESCRIPTION_WORDS)).collect();
        format!("{name} {}", extras.join(" "))
    }

    fn clean_record<R: Rng + ?Sized>(rng: &mut R, id: u64) -> Record {
        let name = Self::random_name(rng);
        let description = Self::random_description(rng, &name);
        Record::new(RecordId(id))
            .with("name", name)
            .with("description", description)
            .with("price", (rng.gen_range(20.0..1500.0_f64) * 100.0).round() / 100.0)
    }

    fn corrupted_copy<R: Rng + ?Sized>(
        rng: &mut R,
        original: &Record,
        id: u64,
        severity: f64,
    ) -> Record {
        // The other shop writes its own name (drops the model number half the
        // time) and a largely different description.
        let mut name = corrupt(rng, original.text("name").unwrap_or(""), severity);
        if bernoulli(rng, 0.5) {
            let keep = name.split_whitespace().count().saturating_sub(1).max(1);
            name = truncate_tokens(&name, keep);
        }
        let new_description = {
            let base = corrupt(rng, original.text("description").unwrap_or(""), severity);
            let extras: Vec<&str> =
                (0..rng.gen_range(3..=8)).map(|_| *choice(rng, DESCRIPTION_WORDS)).collect();
            format!("{} {}", truncate_tokens(&base, 8), extras.join(" "))
        };
        let price = original.get("price").as_number().unwrap_or(100.0);
        let drift = 1.0 + (rng.gen_range(-0.15..0.15));
        Record::new(RecordId(id))
            .with("name", name)
            .with("description", new_description)
            .with("price", (price * drift * 100.0).round() / 100.0)
    }

    /// Generates a corpus: left catalogue, right catalogue and ground truth.
    pub fn generate(&self) -> crate::bibliographic::GeneratedCorpus {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut left = Dataset::new("abt-like", Self::schema());
        let mut right = Dataset::new("buy-like", Self::schema());
        let mut ground_truth = BTreeSet::new();

        let mut right_id = 2_000_000u64;
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

        crate::bibliographic::GeneratedCorpus { left, right, ground_truth }
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

    fn small_config() -> ProductConfig {
        ProductConfig {
            num_entities: 100,
            duplicate_probability: 0.5,
            extra_right_entities: 120,
            corruption: 0.6,
            seed: 33,
        }
    }

    fn product_scorer(corpus: &crate::bibliographic::GeneratedCorpus) -> PairScorer {
        let config = ScoringConfig::new(
            [
                ("name", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
                ("description", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ],
            AttributeWeighting::DistinctValues,
        );
        PairScorer::new(&config, &[&corpus.left, &corpus.right]).unwrap()
    }

    #[test]
    fn corpus_structure_is_consistent() {
        let corpus = ProductGenerator::new(small_config()).generate();
        assert_eq!(corpus.left.len(), 100);
        assert!(corpus.match_count() > 10);
        for &(l, r) in &corpus.ground_truth {
            assert!(corpus.left.get(l).is_some());
            assert!(corpus.right.get(r).is_some());
        }
    }

    #[test]
    fn product_matches_score_lower_than_bibliographic_matches() {
        // This is the property that makes the AB-style workload harder (Fig. 4).
        let products = ProductGenerator::new(small_config()).generate();
        let papers = crate::bibliographic::BibliographicGenerator::new(
            crate::bibliographic::BibliographicConfig {
                num_entities: 100,
                duplicate_probability: 0.5,
                extra_right_entities: 120,
                corruption: 0.3,
                seed: 33,
            },
        )
        .generate();

        let product_scorer = product_scorer(&products);
        let paper_config = ScoringConfig::new(
            [
                ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
                ("authors", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ],
            AttributeWeighting::DistinctValues,
        );
        let paper_scorer = PairScorer::new(&paper_config, &[&papers.left, &papers.right]).unwrap();

        let avg = |corpus: &crate::bibliographic::GeneratedCorpus, scorer: &PairScorer| {
            let sims: Vec<f64> = corpus
                .ground_truth
                .iter()
                .map(|&(l, r)| {
                    scorer.score(
                        corpus.left.get(l).unwrap(),
                        corpus.right.get(r).unwrap(),
                        &TokenCache::new(),
                    )
                })
                .collect();
            sims.iter().sum::<f64>() / sims.len() as f64
        };
        let product_avg = avg(&products, &product_scorer);
        let paper_avg = avg(&papers, &paper_scorer);
        assert!(
            product_avg < paper_avg,
            "product matches ({product_avg}) should be less similar than paper matches ({paper_avg})"
        );
    }

    #[test]
    fn prices_are_positive_and_drift_bounded() {
        let corpus = ProductGenerator::new(small_config()).generate();
        for r in corpus.left.iter().chain(corpus.right.iter()) {
            let price = r.get("price").as_number().unwrap();
            assert!(price > 0.0);
            assert!(price < 2000.0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ProductGenerator::new(small_config()).generate();
        let b = ProductGenerator::new(small_config()).generate();
        assert_eq!(a.ground_truth, b.ground_truth);
    }
}
