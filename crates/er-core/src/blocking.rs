//! Token blocking: generating candidate record pairs without enumerating the
//! full cartesian product, plus the similarity-threshold filtering the paper
//! applies when building its ER workloads.
//!
//! The paper's experiments "use the blocking technique to filter the instance
//! pairs unlikely to match", keeping only pairs whose aggregated similarity is at
//! least a per-dataset threshold (0.2 for DBLP-Scholar, 0.05 for Abt-Buy). The
//! [`build_workload`] helper reproduces that pipeline: candidate generation →
//! scoring → threshold filter → similarity-sorted [`Workload`].
//!
//! The token blocker also comes in an **incremental** flavour for streaming
//! ingestion ([`TokenBlocker::incremental`]): record batches are folded into a
//! persistent, token-hash-sharded index and each
//! [`IncrementalTokenIndex::add_records`] call returns only the *delta*
//! candidate pairs — the pairs involving at least one record of the new batch —
//! without rescanning the pairs of previously ingested records. Record token
//! sets come from a [`TokenCache`] where admitted; an empty cache tokenizes
//! afresh with identical results.

use crate::aggregate::{PairScorer, TokenCache};
use crate::codec::{fnv1a, ByteReader, ByteWriter};
use crate::parallel::ParallelExecutor;
use crate::record::{Dataset, Record, RecordId};
use crate::spill::{ChunkHandle, MemoryBudget, SpillFile};
use crate::text::Tokenizer;
use crate::workload::{InstancePair, Label, PairId, Workload};
use crate::Result;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// All pairs of the cartesian product between two datasets.
pub fn cartesian_pairs(a: &Dataset, b: &Dataset) -> Vec<(RecordId, RecordId)> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for ra in a.iter() {
        for rb in b.iter() {
            out.push((ra.id(), rb.id()));
        }
    }
    out
}

/// Token blocking: candidate pairs are record pairs sharing at least one token of
/// the blocking attribute.
#[derive(Debug, Clone)]
pub struct TokenBlocker {
    attribute: String,
    tokenizer: Tokenizer,
}

impl TokenBlocker {
    /// Creates a token blocker over the given attribute.
    pub fn new(attribute: impl Into<String>, tokenizer: Tokenizer) -> Self {
        Self { attribute: attribute.into(), tokenizer }
    }

    /// Generates candidate pairs between two datasets.
    pub fn candidates(&self, a: &Dataset, b: &Dataset) -> Vec<(RecordId, RecordId)> {
        // Tokens are deduplicated per record before indexing and probing: a
        // record repeating a token ("new york, new york") must not push its id
        // into a posting list twice, nor probe the same posting list twice —
        // the output set would hide it, but every duplicate re-scans a whole
        // posting list.
        let cache = TokenCache::new();
        let record_tokens = |record: &Record, side: usize| -> BTreeSet<String> {
            unique_record_tokens(&self.attribute, self.tokenizer, record, side, &cache).0
        };
        // Invert dataset b: token → record ids.
        let mut index: BTreeMap<String, Vec<RecordId>> = BTreeMap::new();
        for rb in b.iter() {
            for token in record_tokens(rb, 1) {
                index.entry(token).or_default().push(rb.id());
            }
        }
        let mut seen: BTreeSet<(RecordId, RecordId)> = BTreeSet::new();
        for ra in a.iter() {
            for token in record_tokens(ra, 0) {
                if let Some(ids) = index.get(&token) {
                    for &rb_id in ids {
                        seen.insert((ra.id(), rb_id));
                    }
                }
            }
        }
        seen.into_iter().collect()
    }

    /// Creates an empty incremental index with this blocker's attribute and
    /// tokenizer, sharded over [`DEFAULT_SHARDS`] token-hash shards. Feed
    /// record batches through [`IncrementalTokenIndex::add_records`] to obtain
    /// delta candidates.
    pub fn incremental(&self) -> IncrementalTokenIndex {
        self.incremental_sharded(DEFAULT_SHARDS)
    }

    /// Creates an empty incremental index with an explicit shard count.
    /// Candidates are shard-count-invariant; the count only controls how much
    /// of the per-batch work a parallel executor can spread.
    pub fn incremental_sharded(&self, shards: usize) -> IncrementalTokenIndex {
        IncrementalTokenIndex {
            attribute: self.attribute.clone(),
            tokenizer: self.tokenizer,
            shards: (0..shards.max(1)).map(|_| TokenShard::default()).collect(),
            records_indexed: 0,
            budget: MemoryBudget::default(),
            spill: None,
            obs: er_obs::ObsHandle::default(),
        }
    }
}

/// Default shard count of [`TokenBlocker::incremental`].
pub const DEFAULT_SHARDS: usize = 8;

/// The unique token set of one record, via the cache when admitted (`side`
/// 0 = left, 1 = right; cached ids map back to text through the vocabulary)
/// and by fresh tokenization otherwise. The flag reports whether the cache
/// answered.
fn unique_record_tokens(
    attribute: &str,
    tokenizer: Tokenizer,
    record: &Record,
    side: usize,
    cache: &TokenCache,
) -> (BTreeSet<String>, bool) {
    let cached = cache
        .entry(attribute, tokenizer)
        .and_then(|entry| Some((entry, entry.ids(side, record.id())?)));
    match cached {
        Some((entry, ids)) => (ids.iter().map(|&id| entry.token(id).to_string()).collect(), true),
        None => {
            let tokens = record
                .text(attribute)
                .map(|text| tokenizer.tokenize(text).into_iter().collect())
                .unwrap_or_default();
            (tokens, false)
        }
    }
}

/// A persistent token-blocking index supporting incremental ingestion,
/// sharded by token hash.
///
/// The index keeps one posting list per token and side, spread over N
/// independent shards (token → shard via FNV-1a). Adding a batch probes the
/// *existing* posting lists for the new records' tokens, so the work per
/// batch is proportional to the new records and their matching postings — old
/// candidate pairs are never re-derived. The union of the deltas over any batch
/// split equals [`TokenBlocker::candidates`] on the union of the records, and a
/// pair is never emitted twice (every delta pair involves a record of the
/// current batch).
///
/// Sharding is behaviour-invisible: because every token lives in exactly one
/// shard and each shard replays the same probe-before-insert discipline over
/// its token subset, the merged + deduplicated per-batch delta is identical
/// for every shard count — pairs sharing tokens in several shards are emitted
/// by each of them (always in the same batch, the one where the later record
/// arrives) and collapse in the merge. [`add_records`] fans the per-shard
/// work out over a [`ParallelExecutor`].
///
/// Under a [`MemoryBudget`] with a posting bound, shards freeze their resident
/// posting maps into immutable on-disk *generations* (`HPG1` chunks, see
/// [`crate::spill`]) between batches; probes consult the resident maps plus
/// every generation through a small resident hash directory, so budgeted and
/// unbounded indexes produce identical candidates.
///
/// [`add_records`]: IncrementalTokenIndex::add_records
#[derive(Debug, Clone)]
pub struct IncrementalTokenIndex {
    attribute: String,
    tokenizer: Tokenizer,
    shards: Vec<TokenShard>,
    records_indexed: usize,
    budget: MemoryBudget,
    spill: Option<Arc<SpillFile>>,
    obs: er_obs::ObsHandle,
}

const SIDE_LEFT: u8 = 0;
const SIDE_RIGHT: u8 = 1;
const POSTING_MAGIC: [u8; 4] = *b"HPG1";

/// FNV-1a over `(side, token)` — the key of posting-generation directories.
fn posting_key(side: u8, token: &str) -> u64 {
    let mut buf = Vec::with_capacity(1 + token.len());
    buf.push(side);
    buf.extend_from_slice(token.as_bytes());
    fnv1a(&buf)
}

/// One token-hash shard: resident posting maps plus frozen on-disk generations.
#[derive(Debug, Clone, Default)]
struct TokenShard {
    resident_left: BTreeMap<String, Vec<RecordId>>,
    resident_right: BTreeMap<String, Vec<RecordId>>,
    /// Total record-id entries across both resident maps.
    resident_postings: usize,
    generations: Vec<PostingGeneration>,
}

/// An immutable spilled snapshot of a shard's posting maps.
#[derive(Debug, Clone)]
struct PostingGeneration {
    spill: Arc<SpillFile>,
    handle: ChunkHandle,
    /// FNV-1a of `(side, token)` → byte ranges of matching entries inside the
    /// chunk. A bucket may hold hash collisions; probes verify token bytes.
    directory: HashMap<u64, Vec<(u32, u32)>>,
}

impl PostingGeneration {
    fn probe_into(&self, side: u8, token: &str, out: &mut Vec<RecordId>) {
        let Some(ranges) = self.directory.get(&posting_key(side, token)) else {
            return;
        };
        for &(start, len) in ranges {
            // Sub-entry read: the enclosing chunk was checksummed when written
            // whole; entry reads skip re-verification by design.
            let bytes = self
                .spill
                .read_at(self.handle.offset + start as u64, len as usize)
                .expect("posting spill read failed");
            let mut r = ByteReader::unchecked(&bytes);
            let parse = |r: &mut ByteReader<'_>| -> Result<(u8, Vec<RecordId>)> {
                let entry_side = r.take_u8()?;
                let token_len = r.take_u32()? as usize;
                let entry_token = r.take_bytes(token_len)?;
                if entry_side != side || entry_token != token.as_bytes() {
                    return Ok((entry_side, Vec::new())); // hash collision
                }
                let n = r.take_u32()? as usize;
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(RecordId(r.take_u64()?));
                }
                Ok((entry_side, ids))
            };
            let (_, ids) = parse(&mut r).expect("posting generation entry corrupt");
            out.extend(ids);
        }
    }
}

impl TokenShard {
    /// All indexed record ids for a token on one side: every frozen generation
    /// plus the resident map.
    fn probe(&self, side: u8, token: &str) -> Vec<RecordId> {
        let mut out = Vec::new();
        for generation in &self.generations {
            generation.probe_into(side, token, &mut out);
        }
        let resident = if side == SIDE_LEFT { &self.resident_left } else { &self.resident_right };
        if let Some(ids) = resident.get(token) {
            out.extend_from_slice(ids);
        }
        out
    }

    /// Folds this shard's slice of a batch into the shard and returns its
    /// delta pairs. Right side first, mirroring the pre-shard index: new right
    /// records pair with previously indexed left records here, and pairs with
    /// the new left records are found below once the right postings are in
    /// place — the split that keeps every within-batch pair emitted exactly
    /// once per shard.
    fn apply(&mut self, work: &ShardWork) -> Vec<(RecordId, RecordId)> {
        let mut delta: BTreeSet<(RecordId, RecordId)> = BTreeSet::new();
        for (id, tokens) in &work.rights {
            for token in tokens {
                for left_id in self.probe(SIDE_LEFT, token) {
                    delta.insert((left_id, *id));
                }
                self.resident_right.entry(token.clone()).or_default().push(*id);
                self.resident_postings += 1;
            }
        }
        for (id, tokens) in &work.lefts {
            for token in tokens {
                for right_id in self.probe(SIDE_RIGHT, token) {
                    delta.insert((*id, right_id));
                }
                self.resident_left.entry(token.clone()).or_default().push(*id);
                self.resident_postings += 1;
            }
        }
        delta.into_iter().collect()
    }

    /// Freezes the resident posting maps into one immutable `HPG1` generation
    /// chunk and clears them.
    fn freeze(&mut self, spill: &Arc<SpillFile>) -> Result<()> {
        if self.resident_postings == 0 {
            return Ok(());
        }
        let entry_count = self.resident_left.len() + self.resident_right.len();
        let mut w = ByteWriter::with_capacity(16 + self.resident_postings * 8);
        w.put_bytes(&POSTING_MAGIC);
        w.put_u32(entry_count as u32);
        let mut entries: Vec<(u64, u32, u32)> = Vec::with_capacity(entry_count);
        for (side, map) in [(SIDE_LEFT, &self.resident_left), (SIDE_RIGHT, &self.resident_right)] {
            for (token, ids) in map {
                let start = w.len() as u32;
                w.put_u8(side);
                w.put_u32(token.len() as u32);
                w.put_bytes(token.as_bytes());
                w.put_u32(ids.len() as u32);
                for id in ids {
                    w.put_u64(id.0);
                }
                entries.push((posting_key(side, token), start, w.len() as u32 - start));
            }
        }
        let handle = spill.append(&w.finish())?;
        let mut directory: HashMap<u64, Vec<(u32, u32)>> = HashMap::with_capacity(entry_count);
        for (key, start, len) in entries {
            directory.entry(key).or_default().push((start, len));
        }
        self.generations.push(PostingGeneration { spill: Arc::clone(spill), handle, directory });
        self.resident_left.clear();
        self.resident_right.clear();
        self.resident_postings = 0;
        Ok(())
    }
}

/// One shard's slice of a record batch: per record, the unique tokens that
/// hash into the shard, in batch order.
#[derive(Debug, Default)]
struct ShardWork {
    lefts: Vec<(RecordId, Vec<String>)>,
    rights: Vec<(RecordId, Vec<String>)>,
}

impl IncrementalTokenIndex {
    /// Number of records folded into the index so far (both sides).
    pub fn records_indexed(&self) -> usize {
        self.records_indexed
    }

    /// Number of token-hash shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Sets the memory budget governing resident postings and immediately
    /// freezes shards if the index is already over it.
    pub fn set_memory_budget(&mut self, budget: MemoryBudget) -> Result<()> {
        self.budget = budget;
        self.enforce_budget()
    }

    /// The configured memory budget.
    pub fn memory_budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// Record-id posting entries currently resident across all shards.
    pub fn resident_postings(&self) -> usize {
        self.shards.iter().map(|s| s.resident_postings).sum()
    }

    /// Number of frozen on-disk posting generations across all shards.
    pub fn spilled_generations(&self) -> usize {
        self.shards.iter().map(|s| s.generations.len()).sum()
    }

    /// Total bytes appended to the index's spill file (0 without spilling).
    pub fn spilled_bytes(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.bytes_written())
    }

    /// Attaches an observability handle; blocking and posting-spill events
    /// are recorded through it from then on.
    pub fn set_obs(&mut self, obs: er_obs::ObsHandle) {
        self.obs = obs;
    }

    /// Folds a batch of records into the index and returns the **new** candidate
    /// pairs: every `(left, right)` pair sharing at least one token where at
    /// least one side belongs to this batch. Pairs are deduplicated and sorted.
    ///
    /// The per-shard candidate deltas are computed through `executor` (one
    /// work item per shard) and record token sets come from `cache` where
    /// admitted. Neither changes the result: the returned delta is identical
    /// for any executor, cache state and shard count.
    pub fn add_records<E: ParallelExecutor>(
        &mut self,
        left_batch: &[Record],
        right_batch: &[Record],
        executor: &E,
        cache: &TokenCache,
    ) -> Vec<(RecordId, RecordId)> {
        let shard_count = self.shards.len();
        let mut work: Vec<ShardWork> = (0..shard_count).map(|_| ShardWork::default()).collect();
        let mut token_cache_hits = 0u64;
        let mut token_cache_misses = 0u64;
        for (side, batch) in [(SIDE_LEFT, left_batch), (SIDE_RIGHT, right_batch)] {
            for record in batch {
                let (tokens, cache_hit) = unique_record_tokens(
                    &self.attribute,
                    self.tokenizer,
                    record,
                    side as usize,
                    cache,
                );
                if cache_hit {
                    token_cache_hits += 1;
                } else {
                    token_cache_misses += 1;
                }
                let mut split: Vec<Vec<String>> = vec![Vec::new(); shard_count];
                for token in tokens {
                    let shard = (fnv1a(token.as_bytes()) % shard_count as u64) as usize;
                    split[shard].push(token);
                }
                for (shard, shard_tokens) in split.into_iter().enumerate() {
                    if shard_tokens.is_empty() {
                        continue;
                    }
                    let routed = (record.id(), shard_tokens);
                    if side == SIDE_LEFT {
                        work[shard].lefts.push(routed);
                    } else {
                        work[shard].rights.push(routed);
                    }
                }
            }
        }
        let deltas = executor.map_mut(&mut self.shards, |i, shard| shard.apply(&work[i]));
        self.records_indexed += left_batch.len() + right_batch.len();
        if self.obs.is_enabled() {
            self.obs.counter("blocking.tokencache.hits", token_cache_hits);
            self.obs.counter("blocking.tokencache.misses", token_cache_misses);
            // Per-shard delta sizes expose blocking skew across shards.
            for delta in &deltas {
                self.obs.observe("blocking.shard_delta_pairs", delta.len() as f64);
            }
        }
        let mut merged: BTreeSet<(RecordId, RecordId)> = BTreeSet::new();
        for delta in deltas {
            merged.extend(delta);
        }
        // Between-batch budget enforcement; the index owns its unlinked spill
        // file, so I/O failures here are unrecoverable and loud.
        self.enforce_budget().expect("posting spill failed");
        merged.into_iter().collect()
    }

    /// Freezes every shard's resident postings into on-disk generations when
    /// the resident total exceeds the budget.
    fn enforce_budget(&mut self) -> Result<()> {
        let budget = self.budget.resident_postings;
        if budget == 0 || self.resident_postings() <= budget {
            return Ok(());
        }
        if self.spill.is_none() {
            self.spill = Some(Arc::new(SpillFile::create_in(self.budget.spill_dir.as_deref())?));
        }
        let spill = Arc::clone(self.spill.as_ref().expect("spill file just ensured"));
        let generations_before = self.spilled_generations();
        let bytes_before = spill.bytes_written();
        for shard in &mut self.shards {
            shard.freeze(&spill)?;
        }
        let frozen = (self.spilled_generations() - generations_before) as u64;
        if frozen > 0 {
            self.obs.counter("spill.postings.generations_spilled", frozen);
            self.obs.counter("spill.postings.bytes_spilled", spill.bytes_written() - bytes_before);
        }
        Ok(())
    }
}

/// Scores candidate pairs, filters them by a similarity threshold, and assembles a
/// similarity-sorted [`Workload`] with ground-truth labels.
///
/// * `candidates` — the output of a blocker (or [`cartesian_pairs`]);
/// * `scorer` — the attribute-weighted pair scorer;
/// * `ground_truth` — the set of record-id pairs that are true matches;
/// * `threshold` — pairs scoring below this aggregated similarity are dropped
///   (the paper's per-dataset blocking threshold).
pub fn build_workload(
    a: &Dataset,
    b: &Dataset,
    candidates: &[(RecordId, RecordId)],
    scorer: &PairScorer,
    ground_truth: &BTreeSet<(RecordId, RecordId)>,
    threshold: f64,
) -> Result<Workload> {
    let cache = TokenCache::new();
    let mut pairs = Vec::new();
    let mut next_id = 0u64;
    for &(left, right) in candidates {
        let ra = a.require(left)?;
        let rb = b.require(right)?;
        let similarity = scorer.score(ra, rb, &cache);
        if similarity < threshold {
            continue;
        }
        let label = Label::from_bool(ground_truth.contains(&(left, right)));
        pairs.push(InstancePair::with_records(PairId(next_id), left, right, similarity, label));
        next_id += 1;
    }
    Workload::from_pairs(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AttributeMeasure, AttributeWeighting, ScoringConfig};
    use crate::parallel::SerialExecutor;
    use crate::record::{Record, Schema};
    use crate::similarity::StringMeasure;
    use proptest::prelude::*;

    fn dataset(name: &str, titles: &[(u64, &str)]) -> Dataset {
        let mut ds = Dataset::new(name, Schema::new(["title"]));
        for &(id, title) in titles {
            ds.push(Record::new(RecordId(id)).with("title", title)).unwrap();
        }
        ds
    }

    fn title_scorer(datasets: &[&Dataset]) -> PairScorer {
        let config = ScoringConfig::new(
            [("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words)))],
            AttributeWeighting::Uniform,
        );
        PairScorer::new(&config, datasets).unwrap()
    }

    #[test]
    fn cartesian_pairs_full_product() {
        let a = dataset("a", &[(1, "x"), (2, "y")]);
        let b = dataset("b", &[(10, "x"), (11, "y"), (12, "z")]);
        assert_eq!(cartesian_pairs(&a, &b).len(), 6);
    }

    #[test]
    fn token_blocking_only_pairs_sharing_tokens() {
        let a = dataset("a", &[(1, "entity resolution survey"), (2, "graph neural networks")]);
        let b = dataset(
            "b",
            &[
                (10, "a survey of entity resolution"),
                (11, "convolutional networks"),
                (12, "databases"),
            ],
        );
        let blocker = TokenBlocker::new("title", Tokenizer::Words);
        let candidates = blocker.candidates(&a, &b);
        assert!(candidates.contains(&(RecordId(1), RecordId(10))));
        assert!(candidates.contains(&(RecordId(2), RecordId(11)))); // shares "networks"
        assert!(!candidates.contains(&(RecordId(1), RecordId(12))));
        // No duplicates even though multiple tokens are shared.
        let unique: BTreeSet<_> = candidates.iter().collect();
        assert_eq!(unique.len(), candidates.len());
    }

    #[test]
    fn repeated_tokens_do_not_duplicate_index_postings() {
        // Records that repeat a token ("new york new york") must behave exactly
        // like their deduplicated counterparts: same candidates, no duplicate
        // posting-list entries blowing up the probe work.
        let a = dataset("a", &[(1, "york york york new new"), (2, "boston")]);
        let b = dataset("b", &[(10, "new york"), (11, "york york minster"), (12, "chicago")]);
        let blocker = TokenBlocker::new("title", Tokenizer::Words);
        let candidates = blocker.candidates(&a, &b);
        let dedup_a = dataset("a", &[(1, "york new"), (2, "boston")]);
        let dedup_b = dataset("b", &[(10, "new york"), (11, "york minster"), (12, "chicago")]);
        let dedup_candidates = blocker.candidates(&dedup_a, &dedup_b);
        assert_eq!(candidates, dedup_candidates);
        assert!(candidates.contains(&(RecordId(1), RecordId(10))));
        assert!(candidates.contains(&(RecordId(1), RecordId(11))));
        assert!(!candidates.contains(&(RecordId(2), RecordId(12))));
        let unique: BTreeSet<_> = candidates.iter().collect();
        assert_eq!(unique.len(), candidates.len());
    }

    #[test]
    fn token_blocking_is_subset_of_cartesian() {
        let a = dataset("a", &[(1, "alpha beta"), (2, "gamma")]);
        let b = dataset("b", &[(10, "beta"), (11, "delta")]);
        let candidates = TokenBlocker::new("title", Tokenizer::Words).candidates(&a, &b);
        let all: BTreeSet<_> = cartesian_pairs(&a, &b).into_iter().collect();
        for c in &candidates {
            assert!(all.contains(c));
        }
        assert!(candidates.len() < all.len());
    }

    #[test]
    fn build_workload_scores_filters_and_labels() {
        let a = dataset("a", &[(1, "entity resolution framework"), (2, "deep learning")]);
        let b = dataset(
            "b",
            &[(10, "entity resolution framework"), (11, "reinforcement learning agents")],
        );
        let scorer = title_scorer(&[&a, &b]);
        let candidates = cartesian_pairs(&a, &b);
        let mut truth = BTreeSet::new();
        truth.insert((RecordId(1), RecordId(10)));
        let workload = build_workload(&a, &b, &candidates, &scorer, &truth, 0.1).unwrap();
        // The exact-match pair survives with similarity 1 and a Match label.
        let pairs = workload.pairs();
        let top = pairs.last().unwrap();
        assert_eq!(top.left(), Some(RecordId(1)));
        assert_eq!(top.right(), Some(RecordId(10)));
        assert!((top.similarity() - 1.0).abs() < 1e-12);
        assert!(top.is_match());
        // Completely dissimilar pairs are filtered by the threshold.
        assert!(workload.len() < candidates.len());
        // Every retained pair meets the threshold.
        for p in workload.pairs() {
            assert!(p.similarity() >= 0.1);
        }
    }

    #[test]
    fn build_workload_rejects_unknown_records() {
        let a = dataset("a", &[(1, "x")]);
        let b = dataset("b", &[(10, "x")]);
        let scorer = title_scorer(&[&a, &b]);
        let bogus = vec![(RecordId(99), RecordId(10))];
        assert!(build_workload(&a, &b, &bogus, &scorer, &BTreeSet::new(), 0.0).is_err());
    }

    fn batched(records: &[Record], batches: usize) -> Vec<&[Record]> {
        let size = records.len().div_ceil(batches.max(1)).max(1);
        records.chunks(size).collect()
    }

    #[test]
    fn incremental_token_index_matches_batch_for_any_split() {
        let a = dataset(
            "a",
            &[(1, "entity resolution survey"), (2, "graph neural networks"), (3, "databases")],
        );
        let b = dataset(
            "b",
            &[
                (10, "a survey of entity resolution"),
                (11, "convolutional networks"),
                (12, "databases and networks"),
                (13, "quantum computing"),
            ],
        );
        let blocker = TokenBlocker::new("title", Tokenizer::Words);
        let expected: BTreeSet<_> = blocker.candidates(&a, &b).into_iter().collect();
        for (left_batches, right_batches) in [(1, 1), (2, 3), (3, 2), (3, 4)] {
            let mut index = blocker.incremental();
            let mut union: BTreeSet<(RecordId, RecordId)> = BTreeSet::new();
            let left_chunks = batched(a.records(), left_batches);
            let right_chunks = batched(b.records(), right_batches);
            for i in 0..left_chunks.len().max(right_chunks.len()) {
                let l = left_chunks.get(i).copied().unwrap_or(&[]);
                let r = right_chunks.get(i).copied().unwrap_or(&[]);
                for pair in index.add_records(l, r, &SerialExecutor, &TokenCache::new()) {
                    assert!(union.insert(pair), "pair {pair:?} emitted twice");
                }
            }
            assert_eq!(union, expected, "split ({left_batches},{right_batches}) diverged");
            assert_eq!(index.records_indexed(), a.len() + b.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..Default::default() })]
        #[test]
        fn incremental_token_deltas_union_to_batch_candidates(
            n_left in 1usize..12,
            n_right in 1usize..12,
            split in 1usize..5,
            salt in 0u64..1_000,
        ) {
            // Tiny vocabulary so records share tokens often.
            let vocab = ["ant", "bee", "cat", "dog", "elk"];
            let title = |id: u64| -> String {
                let mut words = Vec::new();
                for k in 0..(1 + (id.wrapping_mul(2654435761).wrapping_add(salt) % 3)) {
                    let h = id.wrapping_mul(31).wrapping_add(k).wrapping_add(salt);
                    words.push(vocab[(h % vocab.len() as u64) as usize]);
                }
                words.join(" ")
            };
            let mut a = Dataset::new("a", Schema::new(["title"]));
            for i in 0..n_left as u64 {
                a.push(Record::new(RecordId(i)).with("title", title(i))).unwrap();
            }
            let mut b = Dataset::new("b", Schema::new(["title"]));
            for i in 0..n_right as u64 {
                b.push(Record::new(RecordId(1_000 + i)).with("title", title(77 + i))).unwrap();
            }
            let blocker = TokenBlocker::new("title", Tokenizer::Words);
            let expected: BTreeSet<_> = blocker.candidates(&a, &b).into_iter().collect();
            let mut index = blocker.incremental();
            let mut union: BTreeSet<(RecordId, RecordId)> = BTreeSet::new();
            let left_chunks = batched(a.records(), split);
            let right_chunks = batched(b.records(), split);
            for i in 0..left_chunks.len().max(right_chunks.len()) {
                let l = left_chunks.get(i).copied().unwrap_or(&[]);
                let r = right_chunks.get(i).copied().unwrap_or(&[]);
                for pair in index.add_records(l, r, &SerialExecutor, &TokenCache::new()) {
                    prop_assert!(union.insert(pair), "pair emitted twice: {:?}", pair);
                }
            }
            prop_assert_eq!(union, expected);
        }
    }

    #[test]
    fn admitted_and_empty_caches_yield_identical_deltas() {
        let a = dataset("a", &[(1, "entity resolution survey"), (2, "graph neural networks")]);
        let b =
            dataset("b", &[(10, "a survey of entity resolution"), (11, "convolutional networks")]);
        let blocker = TokenBlocker::new("title", Tokenizer::Words);
        let mut admitted = TokenCache::new();
        admitted.admit_left("title", Tokenizer::Words, a.records());
        admitted.admit_right("title", Tokenizer::Words, b.records());
        let empty = TokenCache::new();
        let mut warm = blocker.incremental();
        let mut cold = blocker.incremental();
        let mut union = Vec::new();
        // Two batches, so the second probes postings the first one indexed.
        let (left, right) = (a.records(), b.records());
        for (l, r) in [(&left[..1], &right[1..]), (&left[1..], &right[..1])] {
            let delta = warm.add_records(l, r, &SerialExecutor, &admitted);
            assert_eq!(delta, cold.add_records(l, r, &SerialExecutor, &empty));
            union.extend(delta);
        }
        union.sort();
        assert_eq!(union, blocker.candidates(&a, &b));
    }

    #[test]
    fn sharded_index_spills_postings_and_keeps_candidates() {
        let titles: Vec<(u64, String)> =
            (0..40).map(|i| (i, format!("tok{} tok{} shared", i % 7, (i * 3) % 11))).collect();
        let mut a = Dataset::new("a", Schema::new(["title"]));
        let mut b = Dataset::new("b", Schema::new(["title"]));
        for &(id, ref title) in &titles {
            a.push(Record::new(RecordId(id)).with("title", title.clone())).unwrap();
            b.push(Record::new(RecordId(1_000 + id)).with("title", title.clone())).unwrap();
        }
        let blocker = TokenBlocker::new("title", Tokenizer::Words);
        let mut unbounded = blocker.incremental();
        let mut budgeted = blocker.incremental();
        budgeted
            .set_memory_budget(MemoryBudget { resident_postings: 16, ..MemoryBudget::default() })
            .unwrap();
        for i in 0..4 {
            let l = &a.records()[i * 10..(i + 1) * 10];
            let r = &b.records()[i * 10..(i + 1) * 10];
            assert_eq!(
                budgeted.add_records(l, r, &SerialExecutor, &TokenCache::new()),
                unbounded.add_records(l, r, &SerialExecutor, &TokenCache::new()),
                "budgeted delta diverged on batch {i}"
            );
            // Over-budget shards were frozen between batches.
            assert!(budgeted.resident_postings() <= 16, "resident postings left over budget");
        }
        assert!(budgeted.spilled_generations() > 0, "budget never triggered a spill");
        assert!(budgeted.spilled_bytes() > 0);
        assert_eq!(unbounded.spilled_generations(), 0);
        // A clone shares the spill file and still probes generations correctly.
        let mut cloned = budgeted.clone();
        let extra = Record::new(RecordId(9_999)).with("title", "tok1 shared");
        let from_clone = cloned.add_records(
            &[],
            std::slice::from_ref(&extra),
            &SerialExecutor,
            &TokenCache::new(),
        );
        let from_orig = budgeted.add_records(
            &[],
            std::slice::from_ref(&extra),
            &SerialExecutor,
            &TokenCache::new(),
        );
        assert_eq!(from_clone, from_orig);
        assert!(!from_clone.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]
        #[test]
        fn shard_count_never_changes_candidates(
            n_left in 1usize..14,
            n_right in 1usize..14,
            split in 1usize..4,
            salt in 0u64..1_000,
        ) {
            // Same generator as the split-invariance proptest: tiny vocabulary,
            // high token overlap.
            let vocab = ["ant", "bee", "cat", "dog", "elk"];
            let title = |id: u64| -> String {
                let mut words = Vec::new();
                for k in 0..(1 + (id.wrapping_mul(2654435761).wrapping_add(salt) % 3)) {
                    let h = id.wrapping_mul(31).wrapping_add(k).wrapping_add(salt);
                    words.push(vocab[(h % vocab.len() as u64) as usize]);
                }
                words.join(" ")
            };
            let mut a = Dataset::new("a", Schema::new(["title"]));
            for i in 0..n_left as u64 {
                a.push(Record::new(RecordId(i)).with("title", title(i))).unwrap();
            }
            let mut b = Dataset::new("b", Schema::new(["title"]));
            for i in 0..n_right as u64 {
                b.push(Record::new(RecordId(1_000 + i)).with("title", title(77 + i))).unwrap();
            }
            let blocker = TokenBlocker::new("title", Tokenizer::Words);
            let expected: BTreeSet<_> = blocker.candidates(&a, &b).into_iter().collect();
            let left_chunks = batched(a.records(), split);
            let right_chunks = batched(b.records(), split);
            // Per-batch deltas must be identical for every shard count, and
            // their union must equal the batch candidates.
            let mut reference: Option<Vec<Vec<(RecordId, RecordId)>>> = None;
            for shards in [1usize, 2, 7, 16] {
                let mut index = blocker.incremental_sharded(shards);
                prop_assert_eq!(index.shard_count(), shards);
                let mut deltas = Vec::new();
                for i in 0..left_chunks.len().max(right_chunks.len()) {
                    let l = left_chunks.get(i).copied().unwrap_or(&[]);
                    let r = right_chunks.get(i).copied().unwrap_or(&[]);
                    deltas.push(index.add_records(l, r, &SerialExecutor, &TokenCache::new()));
                }
                let union: BTreeSet<_> = deltas.iter().flatten().copied().collect();
                prop_assert_eq!(&union, &expected);
                match &reference {
                    None => reference = Some(deltas),
                    Some(reference) => prop_assert_eq!(reference, &deltas),
                }
            }
        }
    }
}
