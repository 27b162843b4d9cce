//! Collects iterations into the run's metrics and prints them.
//!
//! A run repeats rounds; each round runs every instance of the workload once.
//! Timings are taken per instance as the median over rounds and summed over
//! instances, so one slow round does not move them. Counts are summed over
//! the instances' first outcomes, which every later round must reproduce.

use crate::harness::{combine, Iteration, Outcome};
use crate::trace::Tracer;
use er_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Step latencies need this many samples before a 99th percentile (ten
/// samples beyond it) is reported.
const P99_MIN_SAMPLES: usize = 1_000;

/// Timings and the reference outcome of one workload instance.
#[derive(Debug, Default)]
struct Instance {
    /// The instance's first outcome; every later iteration must equal it.
    reference: Option<Outcome>,
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    traced_run_s: Vec<f64>,
}

#[derive(Debug)]
pub struct RunResult {
    workload: &'static str,
    seed: u64,
    trace: bool,
    instances: Vec<Instance>,
    iterations: usize,
    traced_iterations: usize,
    ingest_s: f64,
    delta_candidates: u64,
    step_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    /// Benchmark-side per-layer numbers summed over traced iterations.
    layers: BTreeMap<&'static str, f64>,
    per_layer: Vec<Metric>,
}

/// The value at quantile `q` of `sorted` (nearest rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

impl RunResult {
    pub fn new(workload: &'static str, seed: u64, trace: bool, instances: usize) -> Self {
        Self {
            workload,
            seed,
            trace,
            instances: (0..instances).map(|_| Instance::default()).collect(),
            iterations: 0,
            traced_iterations: 0,
            ingest_s: 0.0,
            delta_candidates: 0,
            step_ms: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            layers: BTreeMap::new(),
            per_layer: Vec::new(),
        }
    }

    /// Folds in one iteration of instance `k`; checks it reproduced the
    /// instance's first iteration exactly.
    pub fn absorb(&mut self, k: usize, it: Iteration, traced: bool) {
        self.iterations += 1;
        println!(
            "iteration {} instance {k} {}: setup {:.6} s, run {:.6} s, {} steps",
            self.iterations,
            if traced { "traced" } else { "untraced" },
            it.setup_s,
            it.run_s,
            it.step_ms.len()
        );
        self.attempted += it.attempted;
        self.failures.extend(it.failures);
        let instance = &mut self.instances[k];
        match &instance.reference {
            None => instance.reference = Some(it.outcome.clone()),
            Some(reference) if *reference != it.outcome => self.failures.push(format!(
                "instance {k} is not deterministic: {:?} != first {reference:?}",
                it.outcome
            )),
            Some(_) => {}
        }
        instance.setup_s.push(it.setup_s);
        if traced {
            self.traced_iterations += 1;
            instance.traced_run_s.push(it.run_s);
            for (name, value) in it.layers {
                *self.layers.entry(name).or_insert(0.0) += value;
            }
        } else {
            instance.run_s.push(it.run_s);
            self.step_ms.extend(it.step_ms);
            self.ingest_s += it.ingest_s;
            self.delta_candidates += it.outcome.delta_candidates.unwrap_or(0);
        }
    }

    /// Records an operation that errored.
    pub fn fail(&mut self, error: String) {
        self.attempted += 1;
        self.failures.push(error);
    }

    /// Records `operations` closing checks, `failures` of which failed.
    pub fn add_checks(&mut self, operations: u64, failures: Vec<String>) {
        self.attempted += operations;
        self.failures.extend(failures);
    }

    fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.instances.iter().all(|i| i.reference.is_some())
    }

    /// Sum over instances of the per-instance median of `times`.
    fn summed_median(&self, times: impl Fn(&Instance) -> &[f64]) -> f64 {
        self.instances.iter().map(|i| median(times(i))).sum()
    }

    /// The instances' outcomes folded into one: counts add up, the cluster
    /// F1 is averaged, the digests are combined.
    fn outcome(&self) -> Outcome {
        let outcomes: Vec<&Outcome> =
            self.instances.iter().filter_map(|i| i.reference.as_ref()).collect();
        let mut total = Outcome {
            digest: combine(&outcomes.iter().map(|o| o.digest).collect::<Vec<_>>()),
            ..Outcome::default()
        };
        let sum = |a: Option<u64>, b: Option<u64>| match (a, b) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(0) + b.unwrap_or(0)),
        };
        let f1: Vec<f64> = outcomes.iter().filter_map(|o| o.cluster_f1).collect();
        for o in &outcomes {
            total.human_labels += o.human_labels;
            total.label_rounds += o.label_rounds;
            total.resolutions += o.resolutions;
            total.quality_misses += o.quality_misses;
            total.crowd_votes = sum(total.crowd_votes, o.crowd_votes);
            total.delta_candidates = sum(total.delta_candidates, o.delta_candidates);
            for &(name, value) in &o.extra {
                match total.extra.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, v)) => *v += value,
                    None => total.extra.push((name, value)),
                }
            }
        }
        total.cluster_f1 = (!f1.is_empty()).then(|| f1.iter().sum::<f64>() / f1.len() as f64);
        total
    }

    /// The end-to-end metrics: gated ones first, then the ones that exist on
    /// some workloads only. Returns `(gated, informational)`.
    fn end_to_end(&self) -> (Vec<Metric>, Vec<Metric>) {
        let mut steps = self.step_ms.clone();
        steps.sort_by(f64::total_cmp);
        let outcome = self.outcome();
        let metric = |name, value, unit| Metric { name, value, unit };
        let gated = vec![
            metric("setup_s", self.summed_median(|i| &i.setup_s), "s"),
            metric("run_s", self.summed_median(|i| &i.run_s), "s"),
            metric("step_p50_ms", quantile(&steps, 0.50), "ms"),
            metric("step_p90_ms", quantile(&steps, 0.90), "ms"),
            metric("human_labels", outcome.human_labels as f64, "count"),
            metric("label_rounds", outcome.label_rounds as f64, "count"),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        ];
        let mut info = vec![metric("step_samples", steps.len() as f64, "count")];
        if steps.len() >= P99_MIN_SAMPLES {
            info.push(metric("step_p99_ms", quantile(&steps, 0.99), "ms"));
        }
        if outcome.delta_candidates.is_some() {
            let rate = ratio(self.delta_candidates as f64, self.ingest_s);
            info.push(metric("ingest_pairs_per_s", rate, "1/s"));
        }
        if let Some(votes) = outcome.crowd_votes {
            info.push(metric("crowd_votes", votes as f64, "count"));
        }
        info.push(metric("quality_misses", outcome.quality_misses as f64, "count"));
        info.push(metric("resolutions", outcome.resolutions as f64, "count"));
        if let Some(f1) = outcome.cluster_f1 {
            info.push(metric("cluster_f1", f1, "ratio"));
        }
        info.push(metric(
            "failed_frac",
            ratio(self.failed() as f64, self.attempted as f64),
            "ratio",
        ));
        for &(name, value) in &outcome.extra {
            info.push(metric(name, value as f64, "count"));
        }
        (gated, info)
    }

    /// Computes the per-layer metrics from the traced iterations, per round
    /// (one iteration of every instance).
    pub fn finish_trace(&mut self, tracer: &Tracer, snap: &MetricsSnapshot) {
        let rounds = self.traced_iterations as f64 / self.instances.len().max(1) as f64;
        let n = rounds.max(1.0);
        let spans = tracer.totals();
        let span_s = |name: &str| spans.get(name).map_or(0.0, |t| t.total_s) / n;
        let recorded_s = |name: &str| snap.span(name).map_or(0.0, |s| s.total_secs) / n;
        let counter = |name: &str| snap.counter(name) as f64 / n;
        let layer = |name: &str| self.layers.get(name).copied().unwrap_or(0.0) / n;
        let hit_ratio =
            |hits: &str, misses: &str| ratio(counter(hits), counter(hits) + counter(misses));
        let chunk_imbalance =
            snap.histogram("pool.chunk_pairs").map_or(0.0, |h| ratio(h.max, h.mean()));
        let steps = spans.get("session.step").map_or(0.0, |t| t.count as f64) / n;
        let run = spans.get("run").map_or(0.0, |t| t.total_s);
        let run_children = tracer.child_totals("run");
        let share = |name: &str| ratio(run_children.get(name).copied().unwrap_or(0.0), run);
        let outcome = self.outcome();
        let labels = |name: &'static str| {
            outcome.extra.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v as f64)
        };
        let m = |name, value, unit| Metric { name, value, unit };
        self.per_layer = vec![
            m("engine.ingest_s", span_s("engine.ingest"), "s"),
            m("engine.ingest_calls", layer("engine.ingest_calls"), "count"),
            m("blocking.block_s", recorded_s("ingest.block"), "s"),
            m("blocking.delta_candidates", counter("ingest.delta_candidates"), "count"),
            m(
                "blocking.tokencache_hit_ratio",
                hit_ratio("blocking.tokencache.hits", "blocking.tokencache.misses"),
                "ratio",
            ),
            m("scoring.score_s", recorded_s("ingest.score"), "s"),
            m(
                "scoring.pairs_per_s",
                ratio(counter("ingest.delta_candidates"), recorded_s("ingest.score")),
                "1/s",
            ),
            m(
                "scoring.retained_ratio",
                ratio(counter("ingest.retained_pairs"), counter("ingest.delta_candidates")),
                "ratio",
            ),
            m("pool.threads", layer("pool.threads") / self.instances.len() as f64, "count"),
            m("pool.chunk_imbalance", chunk_imbalance, "ratio"),
            m("workload.merge_s", recorded_s("ingest.merge"), "s"),
            m("workload.final_pairs", layer("workload.final_pairs"), "count"),
            m("spill.segments_spilled", layer("spill.segments_spilled"), "count"),
            m("spill.segments_loaded", layer("spill.segments_loaded"), "count"),
            m("spill.bytes_loaded", layer("spill.bytes_loaded"), "B"),
            m(
                "spill.segcache_hit_ratio",
                hit_ratio("spill.segcache.hits", "spill.segcache.misses"),
                "ratio",
            ),
            m("session.step_s", span_s("session.step"), "s"),
            m("resolve.step_s", recorded_s("resolve.step"), "s"),
            m("session.steps", steps, "count"),
            m("session.labels_per_step", ratio(layer("session.labels"), steps), "count"),
            m("session.plan_rounds", counter("session.rounds.plan"), "count"),
            m("session.refine_rounds", counter("session.rounds.refine"), "count"),
            m(
                "session.replay_cache_hits",
                counter("session.replay_cache.plan_hits")
                    + counter("session.replay_cache.training_hits"),
                "count",
            ),
            m("session.fallbacks", layer("session.fallbacks"), "count"),
            m("base.step_s", layer("base.step_s"), "s"),
            m("samp.step_s", layer("samp.step_s"), "s"),
            m("hybr.step_s", layer("hybr.step_s"), "s"),
            m("base.human_labels", labels("base.human_labels"), "count"),
            m("samp.human_labels", labels("samp.human_labels"), "count"),
            m("hybr.human_labels", labels("hybr.human_labels"), "count"),
            m("gp.refits_incremental", counter("gp.refit.incremental"), "count"),
            m("gp.refits_full", counter("gp.refit.full"), "count"),
            m("gp.reselects", counter("gp.reselect"), "count"),
            m("wal.appends", counter("session.wal.appends"), "count"),
            m("wal.bytes", counter("session.wal.bytes"), "B"),
            m("wal.resume_s", layer("wal.resume_s"), "s"),
            m("wal.resume_labels", layer("wal.resume_labels"), "count"),
            m("crowd.submit_s", span_s("crowd.submit"), "s"),
            m("crowd.absorb_s", span_s("crowd.absorb"), "s"),
            m("crowd.take_ready_s", span_s("crowd.take_ready"), "s"),
            m(
                "crowd.votes_per_label",
                ratio(counter("crowd.votes"), counter("crowd.labels")),
                "count",
            ),
            m("crowd.escalations", counter("crowd.escalations"), "count"),
            m("datagen.generate_s", span_s("datagen.generate"), "s"),
            m("labeler.answer_s", span_s("labeler.answer"), "s"),
            m(
                "obs.trace_overhead_ratio",
                ratio(self.summed_median(|i| &i.traced_run_s), self.summed_median(|i| &i.run_s)),
                "ratio",
            ),
            m("trace.span_coverage", ratio(run_children.values().sum(), run), "ratio"),
            m("trace.ingest_share", share("engine.ingest"), "ratio"),
            m("trace.step_share", share("session.step"), "ratio"),
        ];
        println!("-- benchmark-side spans per round (self time excludes child spans) --");
        println!("{:<20} {:>10} {:>12} {:>12}", "span", "count", "total_s", "self_s");
        for (name, t) in &spans {
            println!(
                "{name:<20} {:>10.1} {:>12.6} {:>12.6}",
                t.count as f64 / n,
                t.total_s / n,
                t.self_s / n
            );
        }
    }

    /// Prints every metric, then returns the result object for the last line.
    pub fn to_json(&self) -> String {
        let (gated, info) = self.end_to_end();
        println!(
            "workload {} seed {}: {} instances, {} iterations ({} traced), {} threads available",
            self.workload,
            self.seed,
            self.instances.len(),
            self.iterations,
            self.traced_iterations,
            std::thread::available_parallelism().map_or(1, usize::from)
        );
        for failure in &self.failures {
            println!("FAILED: {failure}");
        }
        println!("digest {:016x}", self.outcome().digest);
        for m in gated.iter().chain(&info).chain(&self.per_layer) {
            println!("metric {:<30} {:>18} {}", m.name, json_number(m.value), m.unit);
        }
        let reported = if self.trace { &self.per_layer } else { &gated };
        let mut metrics = String::new();
        for (i, m) in reported.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed()
        )
    }
}
