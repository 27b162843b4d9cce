//! What every workload hands back to the main loop, plus the helpers the
//! workloads share: outcome digests, the quality requirement, and the probe
//! that carries the tracer and the program's metrics recorder.

use crate::trace::{Span, Tracer};
use er_core::codec::fnv1a;
use er_core::workload::Label;
use er_obs::ObsHandle;
use humo::{OptimizationOutcome, QualityRequirement};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The paper's 0.9/0.9 precision/recall requirement, used by every workload.
pub fn requirement() -> QualityRequirement {
    QualityRequirement::symmetric(0.9).expect("0.9/0.9 is a valid requirement")
}

/// Instrumentation for one iteration: benchmark-side spans plus the program's
/// own recorder (a no-op handle on untraced iterations).
pub struct Probe<'a> {
    pub tracer: &'a Tracer,
    pub recorder: ObsHandle,
    /// Working directory for this process's WAL and spill files.
    pub workdir: PathBuf,
}

impl Probe<'_> {
    pub fn span(&self, name: &'static str) -> Span<'_> {
        self.tracer.span(name)
    }
}

/// The deterministic part of an iteration. At a fixed seed it must repeat
/// exactly, iteration after iteration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// FNV-1a digest over every resolution's outcome digest, in order.
    pub digest: u64,
    /// Distinct pairs sent to humans (the paper's cost).
    pub human_labels: u64,
    /// Label dispatch waves.
    pub label_rounds: u64,
    /// Crowd votes cast, where a crowd answers.
    pub crowd_votes: Option<u64>,
    /// Epochs, sessions or tenant resolutions completed.
    pub resolutions: u64,
    /// Resolutions whose pair-level precision or recall missed 0.9/0.9.
    pub quality_misses: u64,
    /// Final cluster F1 (averaged over tenants), where entities are clustered.
    pub cluster_f1: Option<f64>,
    /// Delta candidates through `ingest`, where the workload ingests.
    pub delta_candidates: Option<u64>,
    /// Extra named counts printed with the end-to-end metrics.
    pub extra: Vec<(&'static str, u64)>,
}

/// What one iteration (set-up plus timed phase) measured.
#[derive(Debug, Default)]
pub struct Iteration {
    pub setup_s: f64,
    pub run_s: f64,
    /// Wall time of `ingest` calls made in the timed phase.
    pub ingest_s: f64,
    /// Latency of every `step` call, in milliseconds.
    pub step_ms: Vec<f64>,
    pub outcome: Outcome,
    /// Operations attempted (epochs, sessions, tenant resolutions, resumes).
    pub attempted: u64,
    /// Descriptions of operations that failed a correctness check.
    pub failures: Vec<String>,
    /// Per-layer numbers only the benchmark side can see.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Iteration {
    /// Records a correctness check: counts a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Sets a benchmark-side per-layer number.
    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Adds `value` to a benchmark-side per-layer number.
    pub fn add_layer(&mut self, name: &'static str, value: f64) {
        *self.layers.entry(name).or_insert(0.0) += value;
    }
}

/// Times a closure, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Digest of the parts of an outcome the quality guarantee speaks about:
/// solution boundaries, the full label assignment and the cost counters.
/// Label rounds are per-process bookkeeping and stay out.
pub fn outcome_digest(outcome: &OptimizationOutcome) -> u64 {
    let mut bytes = Vec::with_capacity(outcome.assignment.len() + 40);
    bytes.extend_from_slice(&(outcome.solution.lower_index as u64).to_le_bytes());
    bytes.extend_from_slice(&(outcome.solution.upper_index as u64).to_le_bytes());
    bytes.extend(outcome.assignment.labels().iter().map(|&label| u8::from(label == Label::Match)));
    bytes.extend_from_slice(&(outcome.verification_cost as u64).to_le_bytes());
    bytes.extend_from_slice(&(outcome.sampling_cost as u64).to_le_bytes());
    bytes.extend_from_slice(&(outcome.total_human_cost as u64).to_le_bytes());
    fnv1a(&bytes)
}

/// Folds a sequence of digests into one.
pub fn combine(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Whether an outcome misses the pair-level 0.9/0.9 requirement.
pub fn misses_quality(outcome: &OptimizationOutcome) -> bool {
    !requirement().is_satisfied_by(&outcome.metrics)
}
