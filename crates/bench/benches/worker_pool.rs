//! Criterion bench of the worker-pool pair-scoring path.
//!
//! Measures the chunk-sharded `WorkerPool::score_pairs` over a realistic
//! blocked candidate set at several thread counts (the interesting read is the
//! per-thread-count throughput ratio), plus the raw `map` sharding overhead on
//! a trivial function.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use er_core::aggregate::{
    AttributeMeasure, AttributeWeighting, PairScorer, ScoringConfig, TokenCache,
};
use er_core::blocking::TokenBlocker;
use er_core::similarity::StringMeasure;
use er_core::text::Tokenizer;
use er_datagen::bibliographic::{BibliographicConfig, BibliographicGenerator};
use er_pipeline::WorkerPool;

fn thread_counts() -> Vec<usize> {
    let available = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut counts = vec![1, 2, 4, available];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn scoring(criterion: &mut Criterion) {
    let corpus = BibliographicGenerator::new(BibliographicConfig {
        num_entities: 400,
        duplicate_probability: 0.6,
        extra_right_entities: 400,
        corruption: 0.35,
        seed: 7,
    })
    .generate();
    let candidates =
        TokenBlocker::new("title", Tokenizer::Words).candidates(&corpus.left, &corpus.right);
    let config = ScoringConfig::new(
        [
            ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("authors", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("venue", AttributeMeasure::Text(StringMeasure::JaroWinkler)),
        ],
        AttributeWeighting::Uniform,
    );
    let scorer = PairScorer::new(&config, &[&corpus.left, &corpus.right]).expect("valid scorer");
    let no_memo = TokenCache::new();

    let mut group = criterion.benchmark_group("worker_pool_scoring");
    group.sample_size(10);
    group.throughput(Throughput::Elements(candidates.len() as u64));
    for threads in thread_counts() {
        let pool = WorkerPool::new(threads);
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &candidates,
            |bencher, pairs| {
                bencher.iter(|| {
                    pool.score_pairs(&corpus.left, &corpus.right, &scorer, &no_memo, pairs, 0.0)
                        .expect("scoring succeeds")
                });
            },
        );
    }
    group.finish();
}

fn sharding_overhead(criterion: &mut Criterion) {
    let items: Vec<u64> = (0..100_000).collect();
    let mut group = criterion.benchmark_group("worker_pool_map_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(items.len() as u64));
    for threads in thread_counts() {
        let pool = WorkerPool::new(threads);
        group.bench_with_input(BenchmarkId::new("threads", threads), &items, |bencher, data| {
            bencher.iter(|| pool.map(data, |&x| x.wrapping_mul(2_654_435_761)));
        });
    }
    group.finish();
}

criterion_group!(benches, scoring, sharding_overhead);
criterion_main!(benches);
