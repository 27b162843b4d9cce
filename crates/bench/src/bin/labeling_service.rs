//! Multi-tenant labeling service over durable, crash-safe resolution sessions.
//!
//! The service multiplexes N tenant [`er_pipeline::ResolutionEngine`]s — each
//! with its own bibliographic corpus and its own `HAL1` write-ahead label store
//! — over one shared pool of simulated labelers. Every scheduler *tick* the
//! pool answers up to `LABELERS` outstanding label requests, round-robining
//! across tenants, and each tenant that received answers is stepped with them
//! immediately: the engine appends the absorbed batch to the tenant's WAL
//! (fsynced) *before* replaying it, so a crash at any tick loses at most the
//! labels answered since the previous step.
//!
//! Per-tenant round/cost reporting is printed at the end; the `session.wal.*`
//! observability counters are emitted through each engine's recorder
//! (enable with `HUMO_OBS=metrics` to see them).
//!
//! Environment knobs (see [`humo_bench::BenchConfig`]):
//!
//! * `HUMO_SVC_TENANTS`  — number of tenants (default 4);
//! * `HUMO_SVC_ENTITIES` — base corpus size per tenant in left-dataset
//!   entities; tenant *i* gets `ENTITIES + 10·i` so the tenants are
//!   heterogeneous (default 120);
//! * `HUMO_SVC_LABELERS` — shared labeler-pool capacity: labels answered per
//!   tick across all tenants (default 16);
//! * `HUMO_SVC_SEED`     — base corpus seed; tenant *i* uses `SEED + 101·i`
//!   (default 42);
//! * `HUMO_SVC_WAL_DIR`  — directory for the per-tenant `tenant-<i>.hal`
//!   logs (default: a fresh directory under the system temp dir, removed on
//!   clean exit);
//! * `HUMO_SVC_RESUME`   — when truthy, resume every tenant from its existing
//!   WAL instead of starting fresh: in-flight epochs continue mid-session,
//!   committed epochs are replayed from the log to recover their outcome;
//! * `HUMO_SVC_KILL_TICKS` — crash-harness mode: after this many completed
//!   ticks, print `HUMO_SVC_KILL_POINT` and park forever, waiting for SIGKILL
//!   (used by the self test and the CI smoke);
//! * `HUMO_SVC_KILL_AT`  — comma-separated kill points for the self test
//!   (default `1,4,24`; points past service completion exercise the
//!   committed-epoch replay path);
//! * `HUMO_SVC_SELFTEST` — when truthy, run the kill-and-resume self test:
//!   for each kill point, re-spawn this binary as a child, SIGKILL it at the
//!   kill point, resume from the surviving WALs in-process, and assert every
//!   tenant's outcome digest is identical to an uninterrupted reference run.
//!
//! Crowd labeling (off by default; see [`humo::crowd`]):
//!
//! * `HUMO_SVC_CROWD_WORKERS` — per-tenant worker-pool size; `0` (default)
//!   answers every request with ground truth, exactly as before;
//! * `HUMO_SVC_CROWD_ERROR` — symmetric per-worker flip rate (default 0.1);
//! * `HUMO_SVC_CROWD_REDUNDANCY` — votes per pair (default 3);
//! * `HUMO_SVC_CROWD_ESCALATE_MAX` — when greater than the redundancy,
//!   escalate disagreements one extra worker at a time up to this cap
//!   (adaptive redundancy; default: equal, i.e. fixed);
//! * `HUMO_SVC_CROWD_AGG` — `majority` (default) or `em`. The kill-and-resume
//!   guarantee holds for `majority`: votes are pure functions of
//!   `(worker seed, pair id)`, so re-voting pairs lost in a crash reproduces
//!   identical aggregated labels. EM aggregation decides from the whole vote
//!   matrix, whose scope depends on tick alignment — use it for quality
//!   studies (`crowd_quality`), not for byte-stable replay.
//!
//! With the crowd enabled, the shared pool capacity is *votes* per tick (a
//! redundancy-r tenant consumes roughly r× more pool), and only the
//! aggregated labels — never raw votes — are stepped into the sessions and
//! hence onto the per-tenant WALs.
//!
//! The outcome digest covers the solution boundaries, the full label
//! assignment and the cost counters — everything the paper's quality
//! guarantee speaks about. Label round-trips are deliberately excluded: they
//! are per-process bookkeeping, not part of the checkpoint (see
//! [`humo::SessionState::rounds`]).

use er_core::aggregate::{AttributeMeasure, AttributeWeighting, ScoringConfig};
use er_core::codec::fnv1a;
use er_core::record::RecordId;
use er_core::similarity::StringMeasure;
use er_core::text::Tokenizer;
use er_core::workload::{Label, Workload};
use er_datagen::bibliographic::{BibliographicConfig, BibliographicGenerator};
use er_pipeline::{PipelineConfig, ResolutionEngine, ResolutionSession, ResolutionStep};
use humo::crowd::mix;
use humo::wal::{fold, read_log};
use humo::{
    Aggregation, CrowdSession, HumoError, LabelRequest, LabelResponse, OptimizationOutcome,
    QualityRequirement, Redundancy, Step, VoteRequest, WorkerModel, WorkerVote,
};
use humo_bench::BenchConfig;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Marker printed by a crash-harness child when it reaches its kill point.
const KILL_MARKER: &str = "HUMO_SVC_KILL_POINT";

/// Crowd-labeling knobs; `workers == 0` disables the crowd path entirely.
#[derive(Debug, Clone)]
struct CrowdParams {
    workers: usize,
    error: f64,
    redundancy: usize,
    escalate_max: usize,
    em: bool,
}

impl CrowdParams {
    fn from_env(cfg: &BenchConfig) -> Self {
        let redundancy = cfg.usize("CROWD_REDUNDANCY", 3).max(1);
        Self {
            workers: cfg.usize("CROWD_WORKERS", 0),
            error: cfg.f64("CROWD_ERROR", 0.1),
            redundancy,
            escalate_max: cfg.usize("CROWD_ESCALATE_MAX", redundancy).max(redundancy),
            em: std::env::var("HUMO_SVC_CROWD_AGG").is_ok_and(|v| v.eq_ignore_ascii_case("em")),
        }
    }

    fn enabled(&self) -> bool {
        self.workers > 0
    }

    fn redundancy(&self) -> Redundancy {
        if self.escalate_max > self.redundancy {
            Redundancy::Adaptive { min: self.redundancy, max: self.escalate_max }
        } else {
            Redundancy::Fixed(self.redundancy)
        }
    }

    fn aggregation(&self) -> Aggregation {
        if self.em {
            Aggregation::Em(humo::EmConfig::default())
        } else {
            Aggregation::Majority
        }
    }
}

#[derive(Debug, Clone)]
struct ServiceParams {
    tenants: usize,
    entities: usize,
    labelers: usize,
    seed: u64,
    wal_dir: PathBuf,
    resume: bool,
    kill_ticks: usize,
    crowd: CrowdParams,
}

impl ServiceParams {
    fn from_env(cfg: &BenchConfig) -> Self {
        let wal_dir = std::env::var("HUMO_SVC_WAL_DIR")
            .ok()
            .filter(|p| !p.is_empty())
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                std::env::temp_dir().join(format!("humo-labeling-service-{}", std::process::id()))
            });
        Self {
            tenants: cfg.usize("TENANTS", 4).max(1),
            entities: cfg.usize("ENTITIES", 120),
            labelers: cfg.usize("LABELERS", 16).max(1),
            seed: cfg.usize("SEED", 42) as u64,
            wal_dir,
            resume: cfg.flag("RESUME"),
            kill_ticks: cfg.usize("KILL_TICKS", 0),
            crowd: CrowdParams::from_env(cfg),
        }
    }

    fn wal_path(&self, tenant: usize) -> PathBuf {
        self.wal_dir.join(format!("tenant-{tenant}.hal"))
    }
}

/// Per-tenant crowd state: the simulated worker pool, the sans-I/O crowd
/// session, and the queue of dispatched-but-unanswered vote requests.
///
/// Everything here is derived deterministically from `(service seed, tenant)`,
/// so a resumed process rebuilds the identical crowd and — majority
/// aggregation being a pure per-pair function of the votes, themselves pure
/// functions of `(worker seed, pair id)` — re-votes lost in-flight pairs to
/// the identical aggregated labels.
struct TenantCrowd {
    workers: Vec<WorkerModel>,
    session: CrowdSession,
    queue: VecDeque<VoteRequest>,
}

impl TenantCrowd {
    fn new(params: &ServiceParams, tenant: usize) -> Self {
        let crowd = &params.crowd;
        let pool_seed = mix(params.seed, 0xC0FFEE ^ tenant as u64);
        let workers: Vec<WorkerModel> = (0..crowd.workers)
            .map(|w| WorkerModel::symmetric(crowd.error, mix(pool_seed, w as u64)))
            .collect();
        let session = CrowdSession::new(
            crowd.workers,
            crowd.redundancy(),
            crowd.aggregation(),
            mix(params.seed, 0x5EED ^ tenant as u64),
        );
        Self { workers, session, queue: VecDeque::new() }
    }
}

/// Final per-tenant outcome: everything the self test compares, plus the
/// delivered-quality and crowd-cost columns of the report.
#[derive(Debug, Clone)]
struct TenantSummary {
    tenant: usize,
    pairs: usize,
    queries: usize,
    rounds: usize,
    f1: f64,
    /// Entity-cluster F1 against ground truth — delivered quality after
    /// transitive closure. `None` for `replayed` tenants: the log replay
    /// recovers the outcome, and clustering is not re-run.
    cluster_f1: Option<f64>,
    /// Crowd votes cast for this tenant (0 when the crowd path is off).
    votes: u64,
    /// Votes per aggregated label — the label-cost multiplier.
    votes_per_label: f64,
    /// Fraction of aggregated labels whose final vote set disagreed.
    escalation_rate: f64,
    digest: u64,
    /// `fresh`, `resumed` (in-flight epoch continued) or `replayed`
    /// (committed epoch recovered from the log alone).
    mode: &'static str,
}

/// One tenant inside the scheduler: either mid-session with a queue of
/// outstanding label requests, or finished with its summary material.
enum Tenant<'e> {
    Active {
        session: Box<ResolutionSession<'e>>,
        outstanding: Vec<LabelRequest>,
        mode: &'static str,
    },
    Done {
        outcome: OptimizationOutcome,
        rounds: usize,
        cluster_f1: Option<f64>,
        mode: &'static str,
    },
}

fn scoring_config() -> ScoringConfig {
    ScoringConfig::new(
        [
            ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("authors", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
        ],
        AttributeWeighting::Uniform,
    )
}

fn tenant_engine(params: &ServiceParams, tenant: usize) -> ResolutionEngine {
    let requirement = QualityRequirement::symmetric(0.9).expect("valid requirement");
    let mut config = PipelineConfig::new(scoring_config(), "title", requirement);
    config.similarity_threshold = 0.15;
    config.optimizer.unit_size = 25;
    let schema = BibliographicGenerator::schema();
    let mut engine = ResolutionEngine::new(config, schema.clone(), schema)
        .expect("valid pipeline configuration");
    let entities = params.entities + 10 * tenant;
    let corpus = BibliographicGenerator::new(BibliographicConfig {
        num_entities: entities,
        duplicate_probability: 0.6,
        extra_right_entities: entities / 2,
        corruption: 0.3,
        seed: params.seed + 101 * tenant as u64,
    })
    .generate();
    let truth: Vec<(RecordId, RecordId)> = corpus.ground_truth.iter().copied().collect();
    engine
        .ingest(corpus.left.records().to_vec(), corpus.right.records().to_vec(), &truth)
        .expect("tenant corpus ingests");
    engine
}

/// FNV-1a digest of the parts of an outcome the quality guarantee speaks
/// about: solution boundaries, full label assignment, cost counters. Rounds
/// are excluded — they are per-process bookkeeping, not checkpoint state.
fn outcome_digest(outcome: &OptimizationOutcome) -> u64 {
    let mut bytes = Vec::with_capacity(outcome.assignment.len() + 48);
    bytes.extend_from_slice(&(outcome.solution.lower_index as u64).to_le_bytes());
    bytes.extend_from_slice(&(outcome.solution.upper_index as u64).to_le_bytes());
    for &label in outcome.assignment.labels() {
        bytes.push(u8::from(label == Label::Match));
    }
    bytes.extend_from_slice(&(outcome.verification_cost as u64).to_le_bytes());
    bytes.extend_from_slice(&(outcome.sampling_cost as u64).to_le_bytes());
    bytes.extend_from_slice(&(outcome.total_human_cost as u64).to_le_bytes());
    fnv1a(&bytes)
}

/// What a tenant's log holds, decided before touching the engine (the engine's
/// `resume` hands back a borrow, so the branch must be known up front).
enum LogShape {
    /// A trailing epoch without a commit — `resume` rebuilds it mid-flight.
    InFlight,
    /// The last epoch committed: its outcome, replayed from the log alone.
    Committed(Box<OptimizationOutcome>),
    /// No epoch on the log (or no log file at all).
    Empty,
}

/// Scans a tenant's log through [`humo::wal::fold`]. For a trailing committed
/// epoch, replays it through [`humo::wal::Epoch::resume`] (which refuses a
/// workload of a different length): the answered log is a complete
/// checkpoint, so the replay re-derives the byte-identical outcome without
/// any extra labels. Earlier committed epochs contribute their labels as
/// preloads, mirroring the engine's cross-epoch label store, and the replay
/// takes the engine's all-human fallback at the same point the original
/// session did.
fn scan_log(workload: &Workload, path: &Path) -> humo::Result<LogShape> {
    if !path.exists() {
        return Ok(LogShape::Empty);
    }
    let mut epochs = fold(read_log(path)?.records)?;
    let Some(last) = epochs.pop() else { return Ok(LogShape::Empty) };
    if !last.committed {
        return Ok(LogShape::InFlight);
    }
    let mut state = last.resume(workload)?;
    // Latest epoch first: preloads keep the first label per pair, the
    // engine's store keeps the last.
    state.preload(epochs.iter().rev().flat_map(|epoch| epoch.labels.iter().copied()));
    match state.poll_with_fallback(workload)? {
        Step::Done(outcome) => Ok(LogShape::Committed(Box::new(outcome))),
        Step::NeedLabels(_) => {
            Err(HumoError::Wal("committed epoch's log does not replay to completion".to_string()))
        }
    }
}

/// Primes a freshly created or resumed session: the first step replays
/// everything absorbed so far and emits the first outstanding batch (or
/// completes outright, for a resumed log that was one step from done).
fn prime<'e>(mut session: ResolutionSession<'e>, mode: &'static str) -> Tenant<'e> {
    match session.step(&[]).expect("session step succeeds") {
        ResolutionStep::Done(report) => Tenant::Done {
            outcome: report.outcome,
            rounds: report.label_rounds,
            cluster_f1: Some(report.cluster_metrics.f1()),
            mode,
        },
        ResolutionStep::NeedLabels(outstanding) => {
            Tenant::Active { session: Box::new(session), outstanding, mode }
        }
    }
}

/// Runs the service to completion (or to the kill point) and returns the
/// per-tenant summaries, tenant-major.
fn run_service(params: &ServiceParams, engines: &mut [ResolutionEngine]) -> Vec<TenantSummary> {
    std::fs::create_dir_all(&params.wal_dir).expect("WAL directory is creatable");
    let mut tenants: Vec<Tenant<'_>> = engines
        .iter_mut()
        .enumerate()
        .map(|(i, engine)| {
            let path = params.wal_path(i);
            if params.resume {
                match scan_log(engine.workload(), &path).expect("log scan succeeds") {
                    LogShape::InFlight => {
                        let session = engine
                            .resume(&path)
                            .expect("WAL recovery succeeds")
                            .expect("scan saw an in-flight epoch");
                        prime(session, "resumed")
                    }
                    LogShape::Committed(outcome) => {
                        // Fold the committed labels into the engine anyway, so
                        // any later epoch starts from the recovered store.
                        assert!(engine.resume(&path).expect("WAL recovery succeeds").is_none());
                        Tenant::Done {
                            outcome: *outcome,
                            rounds: 0,
                            cluster_f1: None,
                            mode: "replayed",
                        }
                    }
                    // Empty or missing log: the writer died before
                    // `begin_resolve` ever ran. Recover or create the file and
                    // start a fresh session appending to it.
                    LogShape::Empty => {
                        if path.exists() {
                            assert!(engine.resume(&path).expect("WAL recovery succeeds").is_none());
                        } else {
                            engine.attach_wal(&path).expect("WAL is creatable");
                        }
                        prime(engine.begin_resolve().expect("session begins"), "fresh")
                    }
                }
            } else {
                engine.attach_wal(&path).expect("WAL is creatable");
                prime(engine.begin_resolve().expect("session begins"), "fresh")
            }
        })
        .collect();

    // Per-tenant crowd state, derived deterministically from the seed so a
    // resumed process rebuilds the identical crowd.
    let mut crowds: Vec<Option<TenantCrowd>> = (0..tenants.len())
        .map(|i| params.crowd.enabled().then(|| TenantCrowd::new(params, i)))
        .collect();

    let mut ticks = 0usize;
    loop {
        let all_done = tenants.iter().all(|t| matches!(t, Tenant::Done { .. }));
        if all_done {
            break;
        }
        if params.kill_ticks > 0 && ticks >= params.kill_ticks {
            println!("{KILL_MARKER}: parked after {ticks} ticks, waiting for SIGKILL");
            std::io::stdout().flush().expect("stdout flushes");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        ticks += 1;
        // The shared pool: up to `labelers` answers this tick (labels without
        // the crowd, votes with it), handed out round-robin with a rotating
        // head so no tenant starves.
        let mut capacity = params.labelers;
        let n = tenants.len();
        for k in 0..n {
            if capacity == 0 {
                break;
            }
            let i = (ticks - 1 + k) % n;
            let finished = {
                let Tenant::Active { session, outstanding, .. } = &mut tenants[i] else {
                    continue;
                };
                let responses: Vec<LabelResponse> = if let Some(crowd) = crowds[i].as_mut() {
                    // Re-dispatch wholesale: the crowd session re-emits only
                    // asked-but-unanswered votes, so nothing is duplicated and
                    // nothing is lost across ticks (or across a resume).
                    crowd.queue = crowd.session.submit(outstanding).into();
                    let take = crowd.queue.len().min(capacity);
                    capacity -= take;
                    let votes: Vec<WorkerVote> = (0..take)
                        .map(|_| {
                            let ask = crowd.queue.pop_front().expect("queue holds `take` asks");
                            let truth = session.workload().pair(ask.request.index).ground_truth();
                            WorkerVote {
                                pair_id: ask.request.pair_id,
                                worker: ask.worker,
                                label: Label::from_bool(
                                    crowd.workers[ask.worker.0 as usize]
                                        .vote(ask.request.pair_id.0, truth == Label::Match),
                                ),
                            }
                        })
                        .collect();
                    let escalations = crowd.session.absorb(&votes);
                    crowd.queue.extend(escalations);
                    crowd.session.take_ready()
                } else {
                    let take = outstanding.len().min(capacity);
                    capacity -= take;
                    outstanding
                        .drain(..take)
                        .map(|request| LabelResponse {
                            pair_id: request.pair_id,
                            label: session.workload().pair(request.index).ground_truth(),
                        })
                        .collect()
                };
                if responses.is_empty() {
                    continue;
                }
                // Stepping with a partial batch appends it to the WAL right
                // away; the session re-emits whatever is still missing, so
                // the outstanding queue is replaced wholesale.
                match session.step(&responses).expect("session step succeeds") {
                    ResolutionStep::Done(report) => {
                        Some((report.outcome, report.label_rounds, report.cluster_metrics.f1()))
                    }
                    ResolutionStep::NeedLabels(next) => {
                        *outstanding = next;
                        None
                    }
                }
            };
            if let Some((outcome, rounds, cluster_f1)) = finished {
                let mode = match &tenants[i] {
                    Tenant::Active { mode, .. } | Tenant::Done { mode, .. } => mode,
                };
                tenants[i] = Tenant::Done { outcome, rounds, cluster_f1: Some(cluster_f1), mode };
            }
        }
    }
    println!(
        "service drained in {ticks} ticks ({} {}/tick pool capacity)",
        params.labelers,
        if params.crowd.enabled() { "votes" } else { "labels" }
    );

    tenants
        .into_iter()
        .enumerate()
        .map(|(tenant, t)| {
            let Tenant::Done { outcome, rounds, cluster_f1, mode } = t else {
                unreachable!("scheduler drained every tenant");
            };
            let stats = crowds[tenant].take().map(|c| c.session.stats()).unwrap_or_default();
            let decided = stats.decided.max(1) as f64;
            TenantSummary {
                tenant,
                pairs: outcome.assignment.len(),
                queries: outcome.total_human_cost,
                rounds,
                f1: outcome.metrics.f1(),
                cluster_f1,
                votes: stats.votes,
                votes_per_label: stats.votes as f64 / decided,
                escalation_rate: stats.disagreements as f64 / decided,
                digest: outcome_digest(&outcome),
                mode,
            }
        })
        .collect()
}

fn print_summaries(summaries: &[TenantSummary]) {
    println!(
        "{:<7} {:>7} {:>8} {:>7} {:>7} {:>9} {:>7} {:>9} {:>6}  {:<16}  mode",
        "tenant",
        "pairs",
        "queries",
        "rounds",
        "pairF1",
        "clusterF1",
        "votes",
        "votes/lab",
        "esc%",
        "digest"
    );
    for s in summaries {
        let cluster_f1 = s.cluster_f1.map_or_else(|| "-".to_string(), |f1| format!("{f1:.3}"));
        let (votes, per_label, esc) = if s.votes > 0 {
            (
                s.votes.to_string(),
                format!("{:.2}", s.votes_per_label),
                format!("{:.1}", 100.0 * s.escalation_rate),
            )
        } else {
            ("-".to_string(), "-".to_string(), "-".to_string())
        };
        println!(
            "{:<7} {:>7} {:>8} {:>7} {:>7.3} {:>9} {:>7} {:>9} {:>6}  {:016x}  {}",
            s.tenant,
            s.pairs,
            s.queries,
            s.rounds,
            s.f1,
            cluster_f1,
            votes,
            per_label,
            esc,
            s.digest,
            s.mode
        );
    }
}

/// Spawns this binary as a crash-harness child writing into `wal_dir`, waits
/// for its kill marker (or clean exit, for kill points past completion) and
/// SIGKILLs it. Returns whether the kill point was reached before completion.
fn run_child_until_killed(params: &ServiceParams, kill_ticks: usize) -> bool {
    let exe = std::env::current_exe().expect("own executable path is known");
    let mut child = std::process::Command::new(exe)
        .env("HUMO_SVC_SELFTEST", "0")
        .env("HUMO_SVC_RESUME", "0")
        .env("HUMO_SVC_KILL_TICKS", kill_ticks.to_string())
        .env("HUMO_SVC_WAL_DIR", &params.wal_dir)
        .env("HUMO_SVC_TENANTS", params.tenants.to_string())
        .env("HUMO_SVC_ENTITIES", params.entities.to_string())
        .env("HUMO_SVC_LABELERS", params.labelers.to_string())
        .env("HUMO_SVC_SEED", params.seed.to_string())
        .env("HUMO_SVC_CROWD_WORKERS", params.crowd.workers.to_string())
        .env("HUMO_SVC_CROWD_ERROR", params.crowd.error.to_string())
        .env("HUMO_SVC_CROWD_REDUNDANCY", params.crowd.redundancy.to_string())
        .env("HUMO_SVC_CROWD_ESCALATE_MAX", params.crowd.escalate_max.to_string())
        .env("HUMO_SVC_CROWD_AGG", if params.crowd.em { "em" } else { "majority" })
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("crash-harness child spawns");
    let stdout = child.stdout.take().expect("child stdout is piped");
    let mut reached = false;
    for line in BufReader::new(stdout).lines() {
        let line = line.unwrap_or_default();
        if line.contains(KILL_MARKER) {
            reached = true;
            break;
        }
    }
    // SIGKILL — no destructors, no flushes: everything the resume sees is
    // what `fsync` already put on disk.
    let _ = child.kill();
    let _ = child.wait();
    reached
}

/// The kill-and-resume self test: an uninterrupted reference run, then for
/// each kill point a child killed mid-flight and an in-process resume from
/// the surviving WALs — asserting every tenant's outcome digest matches.
fn run_selftest(base: &ServiceParams, kill_points: &[usize]) {
    let reference_params = ServiceParams {
        resume: false,
        kill_ticks: 0,
        wal_dir: base.wal_dir.join("reference"),
        ..base.clone()
    };
    println!("-- reference run ({} tenants, uninterrupted) --", base.tenants);
    let mut engines: Vec<ResolutionEngine> =
        (0..base.tenants).map(|i| tenant_engine(base, i)).collect();
    let reference = run_service(&reference_params, &mut engines);
    print_summaries(&reference);

    for &kill_ticks in kill_points {
        let crash_params = ServiceParams {
            resume: false,
            kill_ticks: 0,
            wal_dir: base.wal_dir.join(format!("kill-{kill_ticks}")),
            ..base.clone()
        };
        println!("\n-- kill point: {kill_ticks} ticks --");
        let reached = run_child_until_killed(&crash_params, kill_ticks);
        println!(
            "child {}",
            if reached { "SIGKILLed at the kill point" } else { "completed before the kill point" }
        );
        let resume_params = ServiceParams { resume: true, ..crash_params };
        let mut engines: Vec<ResolutionEngine> =
            (0..base.tenants).map(|i| tenant_engine(base, i)).collect();
        let resumed = run_service(&resume_params, &mut engines);
        print_summaries(&resumed);
        for (r, s) in reference.iter().zip(&resumed) {
            assert_eq!(
                r.digest, s.digest,
                "tenant {}: resumed outcome digest diverged from the reference \
                 (kill point {kill_ticks})",
                r.tenant
            );
            assert_eq!(
                r.queries, s.queries,
                "tenant {}: resumed label cost diverged from the reference \
                 (kill point {kill_ticks})",
                r.tenant
            );
        }
        println!("[kill {kill_ticks}] all {} tenant outcomes byte-identical", reference.len());
    }
    let _ = std::fs::remove_dir_all(&base.wal_dir);
    println!("\n[selftest] kill-and-resume reproduced the reference outcome at every kill point");
}

fn main() {
    let cfg = BenchConfig::from_env("HUMO_SVC");
    let params = ServiceParams::from_env(&cfg);
    let default_wal_dir = std::env::var("HUMO_SVC_WAL_DIR").map_or(true, |p| p.is_empty());

    println!("================================================================");
    println!("labeling_service: durable multi-tenant labeling over shared labelers");
    println!(
        "tenants = {}, base entities = {}, pool capacity = {}/tick, wal dir = {}",
        params.tenants,
        params.entities,
        params.labelers,
        params.wal_dir.display()
    );
    if params.crowd.enabled() {
        println!(
            "crowd: {} workers/tenant, error = {}, redundancy = {:?}, aggregation = {}",
            params.crowd.workers,
            params.crowd.error,
            params.crowd.redundancy(),
            if params.crowd.em { "em" } else { "majority" }
        );
    }
    println!("================================================================");

    if cfg.flag("SELFTEST") {
        let kill_points: Vec<usize> = cfg
            .f64_list("KILL_AT", &[1.0, 4.0, 24.0])
            .into_iter()
            .map(|k| k.max(1.0) as usize)
            .collect();
        run_selftest(&params, &kill_points);
        return;
    }

    let mut engines: Vec<ResolutionEngine> =
        (0..params.tenants).map(|i| tenant_engine(&params, i)).collect();
    let summaries = run_service(&params, &mut engines);
    print_summaries(&summaries);
    if default_wal_dir && !params.resume {
        let _ = std::fs::remove_dir_all(&params.wal_dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
    use humo::wal::{WalRecord, WalWriter};
    use humo::SessionConfig;

    fn workload(n: usize) -> Workload {
        SyntheticGenerator::new(SyntheticConfig::new(n, 14.0, 0.1)).generate()
    }

    /// Writes `records` to a fresh log in a unique temp directory.
    fn write_log(name: &str, records: &[WalRecord]) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("humo-labeling-service-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tenant-0.hal");
        let mut writer = WalWriter::create(&path).unwrap();
        for record in records {
            writer.append(record).unwrap();
        }
        path
    }

    fn all_human_epoch(workload: &Workload, workload_len: u64) -> Vec<WalRecord> {
        let labels = workload
            .iter()
            .map(|pair| LabelResponse { pair_id: pair.id(), label: pair.ground_truth() })
            .collect();
        vec![
            WalRecord::SessionBegin { workload_len, config: SessionConfig::AllHuman, warm: None },
            WalRecord::Labels(labels),
            WalRecord::Commit { warm: None },
        ]
    }

    #[test]
    fn committed_epochs_replay_only_over_a_workload_of_their_length() {
        let w = workload(400);
        let path = write_log("length", &all_human_epoch(&w, 400));
        let Ok(LogShape::Committed(outcome)) = scan_log(&w, &path) else {
            panic!("a committed all-human epoch replays to its outcome");
        };
        assert_eq!(outcome.total_human_cost, w.len());

        let smaller = workload(300);
        match scan_log(&smaller, &path) {
            Err(HumoError::Wal(message)) => {
                assert!(message.contains("400") && message.contains("300"), "{message}")
            }
            other => {
                panic!("replay over a 300-pair workload must be refused, got {:?}", other.err())
            }
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn malformed_logs_are_refused_like_the_engine_refuses_them() {
        let w = workload(400);
        let begin = || WalRecord::SessionBegin {
            workload_len: 400,
            config: SessionConfig::AllHuman,
            warm: None,
        };
        let labels_outside = vec![WalRecord::Labels(Vec::new()), begin()];
        let double_begin = vec![begin(), begin(), WalRecord::Commit { warm: None }];
        for (name, records) in [("outside", labels_outside), ("double", double_begin)] {
            let path = write_log(name, &records);
            assert!(matches!(scan_log(&w, &path), Err(HumoError::Wal(_))), "{name}");
            std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        }
    }
}
