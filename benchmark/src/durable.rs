//! `durable_service`: several tenants, each a `ResolutionEngine` with a `HAL1`
//! write-ahead label log and a memory budget under which the workload spills,
//! served by one shared crowd pool that delivers a fixed number of votes per
//! tick. The service defaults apply: 5 workers per tenant, 10% symmetric
//! error, 3 votes per pair, majority aggregation.
//!
//! Every tenant's log is copied in the second half of its session. After the pool
//! drains, each tenant resumes from its copy on a pristine engine, is driven
//! to completion, and must reach the outcome digest of its uninterrupted run.
//!
//! The work is session steps in tiny partial batches, each with an fsynced
//! log append and reads back from the spilled workload.

use crate::harness::{combine, misses_quality, outcome_digest, requirement, timed};
use crate::harness::{Iteration, Probe};
use er_core::aggregate::{AttributeMeasure, AttributeWeighting, ScoringConfig};
use er_core::record::RecordId;
use er_core::similarity::StringMeasure;
use er_core::spill::MemoryBudget;
use er_core::text::Tokenizer;
use er_core::workload::Label;
use er_datagen::bibliographic::{BibliographicConfig, BibliographicGenerator};
use er_pipeline::{
    PipelineConfig, ResolutionEngine, ResolutionReport, ResolutionSession, ResolutionStep,
};
use humo::crowd::mix;
use humo::{
    Aggregation, CrowdSession, LabelRequest, LabelResponse, Redundancy, VoteRequest, WorkerModel,
    WorkerVote,
};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

/// Independent services per run.
pub const INSTANCES: usize = 2;
/// Tenants served by the shared pool.
const TENANTS: usize = 4;
/// Left-dataset entities of tenant 0; tenant `i` gets `10·i` more.
const ENTITIES: usize = 250;
/// Votes the shared pool delivers per tick, across all tenants.
const VOTES_PER_TICK: usize = 16;
/// Crowd workers per tenant.
const WORKERS: usize = 5;
/// Symmetric per-worker flip rate.
const CROWD_ERROR: f64 = 0.1;
/// Votes per pair.
const REDUNDANCY: usize = 3;
/// Workload pairs each tenant keeps resident; colder segments spill.
const RESIDENT_PAIRS: usize = 2_000;

fn tenant_config(probe: &Probe<'_>) -> PipelineConfig {
    let scoring = ScoringConfig::new(
        [
            ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("authors", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
        ],
        AttributeWeighting::Uniform,
    );
    let mut config = PipelineConfig::new(scoring, "title", requirement());
    config.similarity_threshold = 0.15;
    config.optimizer.unit_size = 25;
    config.memory_budget = MemoryBudget {
        resident_pairs: RESIDENT_PAIRS,
        spill_dir: Some(probe.workdir.clone()),
        ..MemoryBudget::unbounded()
    };
    config.recorder = probe.recorder.clone();
    config
}

fn tenant_engine(
    seed: u64,
    tenant: usize,
    probe: &Probe<'_>,
    it: &mut Iteration,
) -> Result<ResolutionEngine, String> {
    let entities = ENTITIES + 10 * tenant;
    let (corpus, generate_s) = timed(|| {
        let _span = probe.span("datagen.generate");
        BibliographicGenerator::new(BibliographicConfig {
            num_entities: entities,
            duplicate_probability: 0.6,
            extra_right_entities: entities / 2,
            corruption: 0.3,
            seed: mix(seed, tenant as u64),
        })
        .generate()
    });
    it.add_layer("datagen.generate_s", generate_s);
    let truth: Vec<(RecordId, RecordId)> = corpus.ground_truth.iter().copied().collect();
    let schema = BibliographicGenerator::schema();
    let mut engine = {
        let _span = probe.span("engine.new");
        ResolutionEngine::new(tenant_config(probe), schema.clone(), schema)
            .map_err(|e| format!("tenant {tenant} engine: {e}"))?
    };
    let (report, ingest_s) = timed(|| {
        let _span = probe.span("engine.ingest");
        engine.ingest(corpus.left.records().to_vec(), corpus.right.records().to_vec(), &truth)
    });
    let report = report.map_err(|e| format!("tenant {tenant} ingest: {e}"))?;
    it.ingest_s += ingest_s;
    it.add_layer("engine.ingest_calls", 1.0);
    it.set_layer("pool.threads", report.scoring_threads as f64);
    it.outcome.delta_candidates =
        Some(it.outcome.delta_candidates.unwrap_or(0) + report.delta_candidates as u64);
    Ok(engine)
}

/// One tenant's simulated crowd. Everything is derived from `(seed, tenant)`,
/// so a resumed tenant gets the identical crowd back.
struct Crowd {
    workers: Vec<WorkerModel>,
    session: CrowdSession,
    queue: VecDeque<VoteRequest>,
    /// Whether each workload position was already submitted to the crowd.
    submitted: Vec<bool>,
}

impl Crowd {
    fn new(seed: u64, tenant: usize, pairs: usize, probe: &Probe<'_>) -> Self {
        let pool_seed = mix(seed, 0xC0FFEE ^ tenant as u64);
        let workers = (0..WORKERS)
            .map(|w| WorkerModel::symmetric(CROWD_ERROR, mix(pool_seed, w as u64)))
            .collect();
        let session = CrowdSession::new(
            WORKERS,
            Redundancy::Fixed(REDUNDANCY),
            Aggregation::Majority,
            mix(seed, 0x5EED ^ tenant as u64),
        )
        .with_obs(probe.recorder.clone());
        Self { workers, session, queue: VecDeque::new(), submitted: vec![false; pairs] }
    }
}

/// A tenant inside the scheduler.
struct Slot<'e> {
    tenant: usize,
    session: ResolutionSession<'e>,
    crowd: Crowd,
    steps: usize,
    report: Option<ResolutionReport>,
    /// The live log, and where its mid-session copy goes.
    wal: PathBuf,
    snapshot: Option<PathBuf>,
}

impl<'e> Slot<'e> {
    fn new(
        tenant: usize,
        session: ResolutionSession<'e>,
        seed: u64,
        probe: &Probe<'_>,
        wal: PathBuf,
        snapshot: Option<PathBuf>,
    ) -> Self {
        let crowd = Crowd::new(seed, tenant, session.workload().len(), probe);
        Self { tenant, session, crowd, steps: 0, report: None, wal, snapshot }
    }

    /// Steps the session with `responses`, timing the call.
    fn step(
        &mut self,
        responses: &[LabelResponse],
        probe: &Probe<'_>,
        it: &mut Iteration,
    ) -> Result<(), String> {
        let start = Instant::now();
        let step = {
            let _span = probe.span("session.step");
            self.session.step(responses)
        };
        it.step_ms.push(start.elapsed().as_secs_f64() * 1e3);
        it.add_layer("session.labels", responses.len() as f64);
        self.steps += 1;
        match step.map_err(|e| format!("tenant {} step: {e}", self.tenant))? {
            ResolutionStep::Done(report) => self.report = Some(report),
            ResolutionStep::NeedLabels(next) => {
                // Only requests the crowd has not seen yet are submitted; the
                // queue keeps every vote asked for earlier until the pool
                // delivers it.
                let fresh: Vec<LabelRequest> = next
                    .into_iter()
                    .filter(|request| {
                        !std::mem::replace(&mut self.crowd.submitted[request.index], true)
                    })
                    .collect();
                if !fresh.is_empty() {
                    let asks = {
                        let _span = probe.span("crowd.submit");
                        self.crowd.session.submit(&fresh)
                    };
                    self.crowd.queue.extend(asks);
                }
            }
        }
        Ok(())
    }

    /// Spends up to `capacity` votes of the pool on this tenant and steps it
    /// with whatever labels the votes completed. Returns the votes spent.
    fn tick(
        &mut self,
        capacity: usize,
        probe: &Probe<'_>,
        it: &mut Iteration,
    ) -> Result<usize, String> {
        let take = self.crowd.queue.len().min(capacity);
        let votes: Vec<WorkerVote> = {
            let _span = probe.span("labeler.answer");
            let workload = self.session.workload();
            self.crowd
                .queue
                .drain(..take)
                .map(|ask| {
                    let truth = workload.pair(ask.request.index).ground_truth() == Label::Match;
                    let worker = &self.crowd.workers[ask.worker.0 as usize];
                    WorkerVote {
                        pair_id: ask.request.pair_id,
                        worker: ask.worker,
                        label: Label::from_bool(worker.vote(ask.request.pair_id.0, truth)),
                    }
                })
                .collect()
        };
        let escalations = {
            let _span = probe.span("crowd.absorb");
            self.crowd.session.absorb(&votes)
        };
        self.crowd.queue.extend(escalations);
        let responses = {
            let _span = probe.span("crowd.take_ready");
            self.crowd.session.take_ready()
        };
        if !responses.is_empty() {
            self.step(&responses, probe, it)?;
            // Copying at every power-of-two step count leaves a copy taken
            // in the second half of the session, while it was still open.
            if self.steps.is_power_of_two() && self.report.is_none() {
                if let Some(copy) = &self.snapshot {
                    let _span = probe.span("wal.copy");
                    std::fs::copy(&self.wal, copy)
                        .map_err(|e| format!("tenant {} log copy: {e}", self.tenant))?;
                }
            }
        }
        Ok(take)
    }
}

/// Runs the shared pool until every slot is done: each tick hands out up to
/// `VOTES_PER_TICK` votes round-robin, starting at a rotating head.
fn serve(slots: &mut [Slot<'_>], probe: &Probe<'_>, it: &mut Iteration) -> Result<(), String> {
    for slot in slots.iter_mut() {
        // The first step replays whatever the session already holds and
        // emits its first batch.
        slot.step(&[], probe, it)?;
    }
    let n = slots.len();
    let mut tick = 0usize;
    while slots.iter().any(|s| s.report.is_none()) {
        let steps_before = it.step_ms.len();
        let mut capacity = VOTES_PER_TICK;
        for k in 0..n {
            let slot = &mut slots[(tick + k) % n];
            if capacity == 0 {
                break;
            }
            if slot.report.is_none() {
                capacity -= slot.tick(capacity, probe, it)?;
            }
        }
        if capacity == VOTES_PER_TICK && it.step_ms.len() == steps_before {
            return Err(format!("tick {tick}: no votes to deliver and no session stepped"));
        }
        tick += 1;
    }
    Ok(())
}

pub fn iteration(seed: u64, probe: &Probe<'_>) -> Result<Iteration, String> {
    let mut it = Iteration::default();
    let setup_start = Instant::now();
    let (mut engines, mut pristine) = {
        let _setup = probe.span("setup");
        let engines = (0..TENANTS)
            .map(|tenant| tenant_engine(seed, tenant, probe, &mut it))
            .collect::<Result<Vec<_>, _>>()?;
        let pristine = {
            let _span = probe.span("engine.clone");
            engines.clone()
        };
        (engines, pristine)
    };
    it.setup_s = setup_start.elapsed().as_secs_f64();

    let run_start = Instant::now();
    let run = probe.span("run");
    let mut slots = Vec::with_capacity(TENANTS);
    for (tenant, engine) in engines.iter_mut().enumerate() {
        let wal = probe.workdir.join(format!("tenant-{tenant}.hal"));
        {
            let _span = probe.span("wal.attach");
            engine.attach_wal(&wal).map_err(|e| format!("tenant {tenant} WAL: {e}"))?;
        }
        let session = {
            let _span = probe.span("session.begin");
            engine.begin_resolve().map_err(|e| format!("tenant {tenant} begin: {e}"))?
        };
        let snapshot = probe.workdir.join(format!("tenant-{tenant}.mid.hal"));
        // A copy left by an earlier iteration must not stand in for this one.
        if snapshot.exists() {
            std::fs::remove_file(&snapshot)
                .map_err(|e| format!("tenant {tenant} log copy: {e}"))?;
        }
        let snapshot = Some(snapshot);
        slots.push(Slot::new(tenant, session, seed, probe, wal, snapshot));
    }
    it.attempted += TENANTS as u64;
    serve(&mut slots, probe, &mut it)?;

    // Set-up already recorded the delta candidates of the tenant ingests.
    let mut outcome = std::mem::take(&mut it.outcome);
    let mut digests = Vec::new();
    let mut snapshots = Vec::new();
    let mut cluster_f1 = 0.0;
    let mut votes = 0u64;
    for slot in &slots {
        let report = slot.report.as_ref().expect("serve drains every tenant");
        outcome.human_labels += report.oracle_queries as u64;
        outcome.label_rounds += report.label_rounds as u64;
        outcome.quality_misses += u64::from(misses_quality(&report.outcome));
        outcome.resolutions += 1;
        cluster_f1 += report.cluster_metrics.f1();
        votes += slot.crowd.session.stats().votes;
        it.add_layer("crowd.labels", slot.crowd.session.stats().decided as f64);
        it.add_layer("session.fallbacks", f64::from(u8::from(report.fallback_all_human)));
        digests.push(outcome_digest(&report.outcome));
        snapshots.push(slot.snapshot.clone().filter(|copy| copy.exists()));
    }
    drop(slots);

    // Resume every tenant from its mid-session log copy on a pristine engine.
    let mut resumed = Vec::with_capacity(TENANTS);
    for ((tenant, engine), snapshot) in pristine.iter_mut().enumerate().zip(&snapshots) {
        it.attempted += 1;
        let Some(copy) = snapshot else {
            it.check(false, || {
                format!("tenant {tenant}: no log copy was taken while its session was open")
            });
            continue;
        };
        let (session, resume_s) = timed(|| {
            let _span = probe.span("wal.resume");
            engine.resume(copy)
        });
        it.add_layer("wal.resume_s", resume_s);
        match session.map_err(|e| format!("tenant {tenant} resume: {e}"))? {
            Some(session) => {
                it.add_layer("wal.resume_labels", session.answered_log().len() as f64);
                resumed.push(Slot::new(tenant, session, seed, probe, copy.clone(), None));
            }
            None => it.check(false, || format!("tenant {tenant}: log copy holds no open session")),
        }
    }
    serve(&mut resumed, probe, &mut it)?;
    for slot in &resumed {
        let report = slot.report.as_ref().expect("serve drains every tenant");
        let (tenant, digest) = (slot.tenant, outcome_digest(&report.outcome));
        it.check(digest == digests[tenant], || {
            format!(
                "tenant {tenant}: resumed digest {digest:016x} != uninterrupted {:016x}",
                digests[tenant]
            )
        });
    }
    drop(resumed);
    drop(run);
    it.run_s = run_start.elapsed().as_secs_f64();

    let spill = engines.iter().map(ResolutionEngine::spill_report).fold(
        [0u64; 3],
        |[spilled, loaded, bytes], s| {
            [spilled + s.segments_spilled, loaded + s.segments_loaded, bytes + s.bytes_loaded]
        },
    );
    it.set_layer("spill.segments_spilled", spill[0] as f64);
    it.set_layer("spill.segments_loaded", spill[1] as f64);
    it.set_layer("spill.bytes_loaded", spill[2] as f64);
    it.set_layer(
        "workload.final_pairs",
        engines.iter().map(|e| e.workload().len()).sum::<usize>() as f64,
    );
    outcome.crowd_votes = Some(votes);
    outcome.cluster_f1 = Some(cluster_f1 / TENANTS as f64);
    outcome.digest = combine(&digests);
    it.outcome = outcome;
    Ok(it)
}
