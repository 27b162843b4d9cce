//! `stream_ingest`: a bibliographic corpus streamed in batches into one
//! resident `ResolutionEngine`, each epoch resolved warm-started against a
//! ground-truth labeler.
//!
//! Ingest (blocking, scoring, merge) dominates the timed phase, so this is the
//! workload on which scoring, pruning and blocking changes show. There is no
//! write-ahead log and no memory budget.

use crate::harness::{combine, misses_quality, outcome_digest, requirement, timed};
use crate::harness::{Iteration, Outcome, Probe};
use er_core::aggregate::{AttributeMeasure, AttributeWeighting, ScoringConfig};
use er_core::record::{Record, RecordId};
use er_core::similarity::StringMeasure;
use er_core::text::Tokenizer;
use er_datagen::bibliographic::{BibliographicConfig, BibliographicGenerator};
use er_pipeline::{PipelineConfig, ResolutionEngine, ResolutionStep};
use humo::{answer_requests, GroundTruthOracle, LabelResponse, Oracle};
use std::time::Instant;

/// Independent corpora per run.
pub const INSTANCES: usize = 4;
/// Left-dataset entities of each corpus.
const ENTITIES: usize = 800;
/// Ingest batches, one resolution epoch each.
const BATCHES: usize = 4;

fn pipeline_config(probe: &Probe<'_>) -> PipelineConfig {
    let scoring = ScoringConfig::new(
        [
            ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("authors", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("venue", AttributeMeasure::Text(StringMeasure::JaroWinkler)),
        ],
        AttributeWeighting::Uniform,
    );
    let mut config = PipelineConfig::new(scoring, "title", requirement());
    // Unrelated pairs score about 0.25 under these three measures; 0.4
    // separates candidate junk from plausible matches on this corpus.
    config.similarity_threshold = 0.4;
    config.optimizer.unit_size = 100;
    config.recorder = probe.recorder.clone();
    config
}

fn batches(records: &[Record]) -> Vec<Vec<Record>> {
    let size = records.len().div_ceil(BATCHES).max(1);
    records.chunks(size).map(<[Record]>::to_vec).collect()
}

pub fn iteration(seed: u64, probe: &Probe<'_>) -> Result<Iteration, String> {
    let mut it = Iteration::default();

    let setup_start = Instant::now();
    let (left, right, truth, mut engine) = {
        let _setup = probe.span("setup");
        let (corpus, generate_s) = timed(|| {
            let _span = probe.span("datagen.generate");
            BibliographicGenerator::new(BibliographicConfig {
                num_entities: ENTITIES,
                duplicate_probability: 0.6,
                extra_right_entities: ENTITIES / 2,
                corruption: 0.3,
                seed,
            })
            .generate()
        });
        it.add_layer("datagen.generate_s", generate_s);
        let truth: Vec<(RecordId, RecordId)> = corpus.ground_truth.iter().copied().collect();
        let schema = BibliographicGenerator::schema();
        let engine = {
            let _span = probe.span("engine.new");
            ResolutionEngine::new(pipeline_config(probe), schema.clone(), schema)
                .map_err(|e| format!("engine construction: {e}"))?
        };
        (batches(corpus.left.records()), batches(corpus.right.records()), truth, engine)
    };
    it.setup_s = setup_start.elapsed().as_secs_f64();

    let run_start = Instant::now();
    let _run = probe.span("run");
    let mut oracle = GroundTruthOracle::new();
    let mut digests = Vec::new();
    let mut outcome = Outcome::default();
    let mut delta = 0u64;
    for epoch in 0..left.len().max(right.len()) {
        let l = left.get(epoch).cloned().unwrap_or_default();
        let r = right.get(epoch).cloned().unwrap_or_default();
        let edges = if epoch == 0 { truth.as_slice() } else { &[] };
        let (report, ingest_s) = timed(|| {
            let _span = probe.span("engine.ingest");
            engine.ingest(l, r, edges)
        });
        let report = report.map_err(|e| format!("epoch {epoch} ingest: {e}"))?;
        it.ingest_s += ingest_s;
        it.add_layer("engine.ingest_calls", 1.0);
        it.set_layer("pool.threads", report.scoring_threads as f64);
        delta += report.delta_candidates as u64;

        it.attempted += 1;
        let mut session = {
            let _span = probe.span("session.begin");
            engine.begin_resolve().map_err(|e| format!("epoch {epoch} begin: {e}"))?
        };
        let mut responses: Vec<LabelResponse> = Vec::new();
        let report = loop {
            let step_start = Instant::now();
            let step = {
                let _span = probe.span("session.step");
                session.step(&responses)
            };
            it.step_ms.push(step_start.elapsed().as_secs_f64() * 1e3);
            it.add_layer("session.labels", responses.len() as f64);
            match step.map_err(|e| format!("epoch {epoch} step: {e}"))? {
                ResolutionStep::Done(report) => break report,
                ResolutionStep::NeedLabels(requests) => {
                    let _span = probe.span("labeler.answer");
                    responses = answer_requests(session.workload(), &requests, &mut oracle);
                }
            }
        };
        it.check(report.plan_rounds + report.refine_rounds == report.label_rounds, || {
            format!(
                "epoch {epoch}: {} plan + {} refine rounds != {} label rounds",
                report.plan_rounds, report.refine_rounds, report.label_rounds
            )
        });
        it.add_layer("session.fallbacks", f64::from(u8::from(report.fallback_all_human)));
        outcome.human_labels += report.oracle_queries as u64;
        outcome.label_rounds += report.label_rounds as u64;
        outcome.quality_misses += u64::from(misses_quality(&report.outcome));
        outcome.resolutions += 1;
        outcome.cluster_f1 = Some(report.cluster_metrics.f1());
        digests.push(outcome_digest(&report.outcome));
    }
    drop(_run);
    it.run_s = run_start.elapsed().as_secs_f64();

    it.check(outcome.human_labels == oracle.labels_issued() as u64, || {
        format!(
            "reported {} human labels, the oracle counted {} distinct pairs",
            outcome.human_labels,
            oracle.labels_issued()
        )
    });
    it.add_layer("workload.final_pairs", engine.workload().len() as f64);
    outcome.delta_candidates = Some(delta);
    outcome.digest = combine(&digests);
    it.outcome = outcome;
    Ok(it)
}
