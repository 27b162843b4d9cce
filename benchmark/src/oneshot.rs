//! `oneshot_resolve`: the paper's one-shot optimization on the calibrated
//! AB-like workload at full paper size (313,040 pairs). BASE, SAMP and HYBR
//! labeling sessions are each driven to completion with ground-truth labels.
//!
//! The resolve layers (sampling, hybrid search, the GP) do all the work; there
//! is no ingest, so a scoring or blocking change must show no change here.

use crate::harness::{combine, misses_quality, outcome_digest, requirement, timed};
use crate::harness::{Iteration, Outcome, Probe};
use er_core::workload::Workload;
use er_datagen::calibrated::CalibratedConfig;
use humo::{
    answer_requests, BaselineConfig, BaselineOptimizer, GroundTruthOracle, HybridConfig,
    HybridOptimizer, LabelResponse, LabelingSession, OptimizationOutcome, Oracle,
    PartialSamplingConfig, PartialSamplingOptimizer, QualityRequirement, Step,
};
use std::time::Instant;

/// The three optimizers, in the order their sessions run.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Base,
    Samp,
    Hybr,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Base, Kind::Samp, Kind::Hybr];

    fn name(self) -> &'static str {
        match self {
            Kind::Base => "base",
            Kind::Samp => "samp",
            Kind::Hybr => "hybr",
        }
    }

    fn step_metric(self) -> &'static str {
        match self {
            Kind::Base => "base.step_s",
            Kind::Samp => "samp.step_s",
            Kind::Hybr => "hybr.step_s",
        }
    }

    fn labels_metric(self) -> &'static str {
        match self {
            Kind::Base => "base.human_labels",
            Kind::Samp => "samp.human_labels",
            Kind::Hybr => "hybr.human_labels",
        }
    }

    /// A fresh session, configured exactly like the matching
    /// `humo_bench::run_*` runner so the two can be compared byte for byte.
    fn session(self, workload: &Workload, seed: u64) -> humo::Result<LabelingSession<'_>> {
        let requirement = requirement();
        match self {
            Kind::Base => {
                BaselineOptimizer::new(BaselineConfig::new(requirement))?.session(workload)
            }
            Kind::Samp => PartialSamplingOptimizer::new(
                PartialSamplingConfig::new(requirement).with_seed(seed),
            )?
            .session(workload),
            Kind::Hybr => HybridOptimizer::new(HybridConfig::new(requirement).with_seed(seed))?
                .session(workload),
        }
    }

    /// The classic `Optimizer::optimize` run of the same optimizer.
    fn classic(self, workload: &Workload, seed: u64) -> OptimizationOutcome {
        let requirement: QualityRequirement = requirement();
        match self {
            Kind::Base => humo_bench::run_base(workload, requirement, seed),
            Kind::Samp => humo_bench::run_samp(workload, requirement, seed),
            Kind::Hybr => humo_bench::run_hybr(workload, requirement, seed),
        }
    }
}

/// What the closing check needs from an iteration: its seed and the outcome
/// digest of each session. The workload is generated again for the check, so
/// no iteration's workload stays alive while the next one runs.
pub struct Sessions {
    seed: u64,
    digests: Vec<u64>,
}

fn generate(seed: u64, probe: &Probe<'_>, it: &mut Iteration) -> Workload {
    let _setup = probe.span("setup");
    let (mut workload, generate_s) = timed(|| {
        let _span = probe.span("datagen.generate");
        CalibratedConfig::ab(seed).generate()
    });
    it.add_layer("datagen.generate_s", generate_s);
    workload.set_obs(probe.recorder.clone());
    workload
}

pub fn iteration(seed: u64, probe: &Probe<'_>) -> Result<(Iteration, Sessions), String> {
    let mut it = Iteration::default();
    let setup_start = Instant::now();
    let workload = generate(seed, probe, &mut it);
    it.setup_s = setup_start.elapsed().as_secs_f64();

    let run_start = Instant::now();
    let run = probe.span("run");
    let mut outcome = Outcome::default();
    let mut digests = Vec::new();
    for kind in Kind::ALL {
        it.attempted += 1;
        let mut session = {
            let _span = probe.span("session.begin");
            kind.session(&workload, seed).map_err(|e| format!("{} session: {e}", kind.name()))?
        };
        let mut oracle = GroundTruthOracle::new();
        let mut responses: Vec<LabelResponse> = Vec::new();
        let mut step_s = 0.0;
        let result = loop {
            let step_start = Instant::now();
            let step = {
                let _span = probe.span("session.step");
                session.step(&responses)
            };
            let elapsed = step_start.elapsed().as_secs_f64();
            step_s += elapsed;
            it.step_ms.push(elapsed * 1e3);
            it.add_layer("session.labels", responses.len() as f64);
            match step.map_err(|e| format!("{} step: {e}", kind.name()))? {
                Step::Done(result) => break result,
                Step::NeedLabels(requests) => {
                    let _span = probe.span("labeler.answer");
                    responses = answer_requests(&workload, &requests, &mut oracle);
                }
            }
        };
        it.add_layer(kind.step_metric(), step_s);
        it.check(result.total_human_cost == oracle.labels_issued(), || {
            format!(
                "{}: outcome reports {} human labels, the oracle counted {}",
                kind.name(),
                result.total_human_cost,
                oracle.labels_issued()
            )
        });
        outcome.human_labels += result.total_human_cost as u64;
        outcome.label_rounds += session.rounds() as u64;
        outcome.quality_misses += u64::from(misses_quality(&result));
        outcome.resolutions += 1;
        outcome.extra.push((kind.labels_metric(), result.total_human_cost as u64));
        digests.push(outcome_digest(&result));
    }
    drop(run);
    it.run_s = run_start.elapsed().as_secs_f64();
    it.set_layer("workload.final_pairs", workload.len() as f64);
    outcome.digest = combine(&digests);
    it.outcome = outcome;
    Ok((it, Sessions { seed, digests }))
}

/// Runs the classic `Optimizer::optimize` entry point of every optimizer on
/// the same workload and seed, and returns one description per session whose
/// outcome differs from it. Each comparison is one attempted operation.
pub fn verify(sessions: &Sessions, probe: &Probe<'_>) -> Vec<String> {
    let _span = probe.span("verify.classic");
    let workload = CalibratedConfig::ab(sessions.seed).generate();
    Kind::ALL
        .iter()
        .zip(&sessions.digests)
        .filter_map(|(&kind, &session_digest)| {
            let classic = outcome_digest(&kind.classic(&workload, sessions.seed));
            (classic != session_digest).then(|| {
                format!(
                    "{}: session digest {session_digest:016x} != classic optimize {classic:016x}",
                    kind.name()
                )
            })
        })
        .collect()
}

/// Operations `verify` attempts.
pub const VERIFY_OPERATIONS: u64 = Kind::ALL.len() as u64;
