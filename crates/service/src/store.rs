//! The server's fingerprint store.
//!
//! Fingerprints live in one [`FingerprintDb`], stored packed; an entry's id
//! is its insertion index, which is also the coordinate system of the core
//! [`LshIndex`] and of [`probable_cause::persistence`]. The online cluster
//! book is a second [`FingerprintDb`] walked by the same Algorithm 4 step
//! as core [`probable_cause::cluster`]
//! ([`FingerprintDb::first_within`]). The store holds no fingerprint
//! representation of its own.
//!
//! [`ShardedStore::identify`] plans, scores the candidates under the
//! database's read lock, and applies the threshold, all on the calling
//! thread. Mutations (characterize, cluster-ingest) are serialized by the
//! dispatcher thread (see [`crate::pool`]) and take the write locks they
//! need. Every write the server takes, live or replayed from a router's
//! journal, goes through one step, [`ShardedStore::apply_write`], which
//! also keeps the applied-write watermark that lets
//! [`ShardedStore::apply_replay`] skip what this store already applied.
//! The [`LshIndex`] routes every identify to the candidate ids that share a
//! MinHash band with the query, so only those pay full modified-Jaccard
//! distance.

use crate::protocol::{ReplayEntry, Response, SequencedEntry};
use parking_lot::{Mutex, RwLock};
use pc_kernels::Parallelism;
use pc_telemetry::counter;
use probable_cause::persistence::{self, DbIoError};
use probable_cause::{ErrorString, Fingerprint, FingerprintDb, LshIndex, PcDistance};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Index geometry and matching parameters.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// MinHash bands for the routing index.
    pub bands: usize,
    /// Rows per band.
    pub rows_per_band: usize,
    /// Seed of the MinHash family.
    pub index_seed: u64,
    /// Matching threshold for identify and cluster-ingest.
    pub threshold: f64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        // 16×4 banding: a same-chip pair at Jaccard similarity 0.9 is missed
        // with probability ~5e-8; unrelated chips essentially never collide.
        Self {
            bands: 16,
            rows_per_band: 4,
            index_seed: 0x5eed,
            threshold: 0.25,
        }
    }
}

/// A request-path failure inside the store, answered as a typed error so
/// the pool emits an `Error` frame instead of panicking into the
/// `catch_unwind` net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A plan referenced a shard other than the store's one shard, 0.
    MissingShard {
        /// The out-of-range shard index.
        shard: usize,
    },
    /// A plan or the label book referenced an entry id the database does
    /// not have.
    MissingEntry {
        /// The out-of-range entry id.
        id: usize,
    },
    /// A cluster id vanished between match and refine.
    MissingCluster {
        /// The missing cluster id.
        cluster: usize,
    },
    /// A refine failed (observation size disagrees with the fingerprint).
    Refine(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::MissingShard { shard } => {
                write!(f, "store shard {shard} does not exist")
            }
            StoreError::MissingEntry { id } => {
                write!(f, "store has no entry {id}")
            }
            StoreError::MissingCluster { cluster } => {
                write!(f, "cluster {cluster} does not exist")
            }
            StoreError::Refine(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for StoreError {}

/// An identify's outcome: `Ok((label, distance))` on a match, otherwise
/// `Err` with the closest candidate scored, if any.
pub type Verdict = Result<(String, f64), Option<(String, f64)>>;

/// The applied-write watermark once write `seq` lands on `mark`. Within one
/// router epoch (the high 32 bits of both, see [`crate::router`]) it only
/// rises; a write from another epoch replaces it; an unsequenced write
/// (`seq` 0) leaves it alone.
fn advance(mark: u64, seq: u64) -> u64 {
    match seq {
        0 => mark,
        _ if mark >> 32 == seq >> 32 => mark.max(seq),
        _ => seq,
    }
}

/// Candidate-set size at which scoring borrows the kernel thread pool.
/// Routine LSH-routed identifies shortlist about one candidate and score on
/// the calling thread; degraded full scans of large stores cross it.
const PARALLEL_SCORE_MIN: usize = 4_096;

/// The index-routed fingerprint store plus the online cluster book.
#[derive(Debug)]
pub struct ShardedStore {
    config: StoreConfig,
    /// Every stored fingerprint; id = insertion index.
    db: RwLock<FingerprintDb<String, PcDistance>>,
    index: RwLock<LshIndex>,
    /// label → entry id. Held across every mutation and the index build,
    /// so it also orders them.
    labels: Mutex<BTreeMap<String, u32>>,
    /// Algorithm 4 state for `cluster-ingest`: the cluster fingerprints,
    /// cluster id = entry id.
    clusters: Mutex<FingerprintDb<(), PcDistance>>,
    distance_evals: AtomicU64,
    /// Degraded mode: the routing index is absent or rebuilding; identifies
    /// fall back to a full linear scan and index writes are skipped.
    degraded: AtomicBool,
    /// Highest router write sequence this store has processed, live or via
    /// replay, within the epoch of the router that stamped it. Deliberately
    /// in-memory only: after a restart it resets to 0, which is exactly
    /// "re-apply everything since my last checkpoint" — the router's
    /// journal holds precisely the entries since this replica's last acked
    /// save. Written only by [`ShardedStore::apply_write`].
    applied_wseq: AtomicU64,
}

impl ShardedStore {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if the banding is zero or the threshold is outside `(0, 1]`.
    pub fn new(config: StoreConfig) -> Self {
        let db = FingerprintDb::new(PcDistance::new(), config.threshold);
        let index = LshIndex::new(config.bands, config.rows_per_band, config.index_seed);
        Self::assemble(config, db, index, false)
    }

    /// Creates a store from `db` in degraded mode: entries load without
    /// index signing, identifies answer by linear scan, and a later
    /// [`ShardedStore::build_index`] (typically on a background thread)
    /// restores routed serving. This is the recovery path when the index
    /// file is damaged but the database survived.
    pub fn from_db_degraded(
        mut config: StoreConfig,
        db: FingerprintDb<String, PcDistance>,
    ) -> Self {
        config.threshold = db.threshold();
        let index = LshIndex::new(config.bands, config.rows_per_band, config.index_seed);
        Self::assemble(config, db, index, true)
    }

    /// Wraps `db` (entry id = insertion order) and `index` into a store,
    /// building the label book; when a label repeats, its first entry owns
    /// it.
    fn assemble(
        config: StoreConfig,
        db: FingerprintDb<String, PcDistance>,
        index: LshIndex,
        degraded: bool,
    ) -> Self {
        let mut labels = BTreeMap::new();
        for (id, label) in db.labels().enumerate() {
            labels.entry(label.clone()).or_insert(id as u32);
        }
        let clusters = FingerprintDb::new(PcDistance::new(), config.threshold);
        Self {
            config,
            db: RwLock::new(db),
            index: RwLock::new(index),
            labels: Mutex::new(labels),
            clusters: Mutex::new(clusters),
            distance_evals: AtomicU64::new(0),
            degraded: AtomicBool::new(degraded),
            applied_wseq: AtomicU64::new(0),
        }
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The matching threshold.
    pub fn threshold(&self) -> f64 {
        self.config.threshold
    }

    /// Fingerprints stored.
    pub fn len(&self) -> usize {
        self.db.read().len()
    }

    /// Whether identifies are serving by linear scan while the routing
    /// index is absent or rebuilding.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Whether no fingerprints are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clusters formed by [`ShardedStore::cluster_ingest`] so far.
    pub fn cluster_count(&self) -> usize {
        self.clusters.lock().len()
    }

    /// Full distance evaluations paid by scoring since construction.
    pub fn distance_evals(&self) -> u64 {
        self.distance_evals.load(Ordering::Relaxed)
    }

    /// Inserts a brand-new labelled fingerprint under the next entry id.
    /// The caller holds the label book and must have verified the label is
    /// unused.
    fn insert_locked(&self, labels: &mut BTreeMap<String, u32>, label: String, fp: Fingerprint) {
        debug_assert!(!labels.contains_key(&label));
        let mut db = self.db.write();
        let id = db.len() as u32;
        if !self.degraded.load(Ordering::Acquire) {
            self.index.write().insert(id, fp.errors());
        }
        db.insert(label.clone(), fp);
        labels.insert(label, id);
    }

    /// The entry ids an identify of `errors` scores: the LSH candidates,
    /// or every id while degraded.
    fn candidates(&self, errors: &ErrorString) -> Vec<u32> {
        let candidates = if self.degraded.load(Ordering::Acquire) {
            // Degraded mode: the index is absent or rebuilding, so score
            // everything — slower, never wrong (LSH only ever prunes).
            counter!("service.store.degraded_scans").incr();
            (0..self.len() as u32).collect()
        } else {
            self.index.read().candidates(errors)
        };
        counter!("service.store.candidates").add(candidates.len() as u64);
        candidates
    }

    /// The LSH candidate ids for `errors` as a one-bucket plan for shard 0
    /// (see [`ShardedStore::score_shard`]), with the candidate count.
    pub fn plan_identify(&self, errors: &ErrorString) -> (Vec<Vec<u32>>, usize) {
        let candidates = self.candidates(errors);
        let total = candidates.len();
        (vec![candidates], total)
    }

    /// Scores the entry ids `ids` against `errors` in one pass, returning
    /// the best as `(label, distance)` — lowest distance, ties by label
    /// order ([`FingerprintDb::closest_among`]). `shard` must be 0, the
    /// store's one shard.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when `shard` is not 0 or an id has no entry (a bug,
    /// but one that must answer an `Error` frame rather than panic).
    pub fn score_shard(
        &self,
        shard: usize,
        ids: &[u32],
        errors: &ErrorString,
    ) -> Result<Option<(String, f64)>, StoreError> {
        let _span = pc_telemetry::time!("service.store.score");
        if pc_faults::fail_point("store.score") {
            // pc-allow: P003 — deliberate fault-injection site; the dispatcher answers it under catch_unwind
            panic!("injected fault at store.score");
        }
        if shard != 0 {
            return Err(StoreError::MissingShard { shard });
        }
        let db = self.db.read();
        let ids: Vec<usize> = ids.iter().map(|&id| id as usize).collect();
        if let Some(&id) = ids.iter().find(|&&id| id >= db.len()) {
            return Err(StoreError::MissingEntry { id });
        }
        // Small candidate sets score single-threaded on the packed kernels.
        // Full-scan-sized sets (index degraded or rebuilding) borrow the
        // persistent kernel pool instead of scanning on one thread.
        let par = if ids.len() >= PARALLEL_SCORE_MIN {
            Parallelism::auto()
        } else {
            Parallelism::single()
        };
        let best = db
            .closest_among(&ids, errors, par)
            .map(|(label, d)| (label.clone(), d));
        self.distance_evals
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        counter!("service.store.distance_evals").add(ids.len() as u64);
        Ok(best)
    }

    /// Applies the threshold to [`ShardedStore::score_shard`]'s best:
    /// `Ok((label, distance))` when it clears the threshold, `Err(closest)`
    /// otherwise. Only the first item of `best` is read; the store has one
    /// shard, so there is at most one.
    pub fn merge_verdict(&self, best: impl IntoIterator<Item = (String, f64)>) -> Verdict {
        match best.into_iter().next() {
            Some((label, d)) if d < self.config.threshold => Ok((label, d)),
            other => Err(other),
        }
    }

    /// Identify (Algorithm 2 over the LSH shortlist): plans, scores the
    /// candidates, and applies the threshold. This is the one identify
    /// path; the server's dispatcher answers identifies through it.
    ///
    /// # Errors
    ///
    /// The [`StoreError`] scoring reports.
    pub fn identify(&self, errors: &ErrorString) -> Result<Verdict, StoreError> {
        let candidates = self.candidates(errors);
        let best = if candidates.is_empty() {
            None
        } else {
            self.score_shard(0, &candidates, errors)?
        };
        Ok(self.merge_verdict(best))
    }

    /// Incremental Algorithm 1: refines the labelled fingerprint with one
    /// more observation, creating the label if it is new. Returns
    /// `(weight, observations, created)` for the post-update fingerprint.
    ///
    /// # Errors
    ///
    /// [`StoreError::Refine`] when the observation's size disagrees with
    /// the stored fingerprint.
    pub fn characterize(
        &self,
        label: &str,
        errors: &ErrorString,
    ) -> Result<(u64, u32, bool), StoreError> {
        // The label book is held across the whole mutation so no refine can
        // interleave with an index build (which also holds it): every
        // mutation lands either fully before or fully after the build's
        // snapshot.
        let mut labels = self.labels.lock();
        let Some(id) = labels.get(label).copied() else {
            let fp = Fingerprint::from_observation(errors.clone());
            let (weight, observations) = (fp.weight(), fp.observations());
            self.insert_locked(&mut labels, label.to_string(), fp);
            counter!("service.store.characterize.created").incr();
            return Ok((weight, observations, true));
        };
        let mut db = self.db.write();
        let Some(refined) = db.refine(id as usize, errors) else {
            return Err(StoreError::MissingEntry { id: id as usize });
        };
        let refined =
            refined.map_err(|e| StoreError::Refine(format!("cannot refine {label:?}: {e}")))?;
        if !self.degraded.load(Ordering::Acquire) {
            self.index.write().insert(id, refined.errors());
        }
        counter!("service.store.characterize.refined").incr();
        Ok((refined.weight(), refined.observations(), false))
    }

    /// Builds the routing index from the database, then leaves degraded
    /// mode. Holds the label book for the duration, so mutations queue
    /// behind the build while identifies keep serving linear scans.
    pub fn build_index(&self) {
        let _span = pc_telemetry::time!("service.store.rebuild_index");
        let labels = self.labels.lock();
        let index = self.db.read().build_index(
            self.config.bands,
            self.config.rows_per_band,
            self.config.index_seed,
        );
        *self.index.write() = index;
        self.degraded.store(false, Ordering::Release);
        counter!("service.store.index_rebuilt").incr();
        drop(labels);
    }

    /// Online Algorithm 4: assigns `errors` to the first cluster within the
    /// threshold (refining it) or seeds a new one. Returns
    /// `(cluster_id, seeded, total_clusters)`.
    ///
    /// First-match semantics follow the paper's pseudocode
    /// ([`FingerprintDb::first_within`]); ingests are serialized by the
    /// dispatcher, so cluster ids are deterministic for a given arrival
    /// order.
    ///
    /// # Errors
    ///
    /// [`StoreError::Refine`] when the observation's size disagrees with
    /// the matched cluster's fingerprint.
    pub fn cluster_ingest(&self, errors: &ErrorString) -> Result<(u64, bool, u64), StoreError> {
        let _span = pc_telemetry::time!("service.store.cluster_ingest");
        let mut clusters = self.clusters.lock();
        let matched = clusters.first_within(errors);
        let compared = matched.map_or(clusters.len(), |j| j + 1) as u64;
        self.distance_evals.fetch_add(compared, Ordering::Relaxed);
        match matched {
            Some(j) => {
                let Some(refined) = clusters.refine(j, errors) else {
                    return Err(StoreError::MissingCluster { cluster: j });
                };
                refined
                    .map_err(|e| StoreError::Refine(format!("cannot refine cluster {j}: {e}")))?;
                counter!("service.store.cluster.refined").incr();
                Ok((j as u64, false, clusters.len() as u64))
            }
            None => {
                clusters.insert((), Fingerprint::from_observation(errors.clone()));
                counter!("service.store.cluster.seeded").incr();
                Ok((clusters.len() as u64 - 1, true, clusters.len() as u64))
            }
        }
    }

    /// The highest router write sequence this store has processed.
    pub fn applied_wseq(&self) -> u64 {
        self.applied_wseq.load(Ordering::Acquire)
    }

    /// Applies one write, live or replayed, and advances the applied-write
    /// watermark to its `seq`; this is the only step that moves it.
    ///
    /// The watermark moves whenever the mutation returns, refused or not
    /// (a validation refusal would be refused again on replay); a panic
    /// skips it, so a replay retries the entry.
    ///
    /// # Errors
    ///
    /// The [`StoreError`] the mutation reports.
    pub fn apply_write(&self, write: &SequencedEntry) -> Result<Response, StoreError> {
        let outcome = match &write.entry {
            ReplayEntry::Characterize { label, errors } => {
                self.characterize(label, errors)
                    .map(|(weight, observations, created)| Response::Characterized {
                        label: label.clone(),
                        weight,
                        observations,
                        created,
                    })
            }
            ReplayEntry::ClusterIngest { errors } => {
                self.cluster_ingest(errors)
                    .map(|(cluster, seeded, clusters)| Response::Clustered {
                        cluster,
                        seeded,
                        clusters,
                    })
            }
        };
        let _ = self
            .applied_wseq
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |mark| {
                Some(advance(mark, write.seq))
            });
        outcome
    }

    /// Applies a router journal replay batch in original order through
    /// [`ShardedStore::apply_write`], returning `(applied, skipped)`.
    /// Entries the watermark covers — same router epoch, at or below it —
    /// were already processed live (the router force-downs a replica on
    /// *any* unacked write, including plain timeouts where no state was
    /// lost) and are skipped: characterize and cluster-ingest refine
    /// weights, so re-applying them would diverge this replica from its
    /// siblings permanently. An entry that fails store validation counts as
    /// neither and does not abort the batch: replay must make maximal
    /// progress toward convergence.
    pub fn apply_replay(&self, entries: &[SequencedEntry]) -> (u64, u64) {
        let mut applied = 0u64;
        let mut skipped = 0u64;
        for write in entries {
            // Covered: a sequenced write that would not move the mark.
            let mark = self.applied_wseq();
            if write.seq != 0 && advance(mark, write.seq) == mark {
                counter!("service.store.replay_skipped").incr();
                skipped = skipped.saturating_add(1);
            } else if self.apply_write(write).is_ok() {
                applied = applied.saturating_add(1);
            }
        }
        (applied, skipped)
    }

    /// A snapshot of the database, taken under its read lock.
    pub fn to_db(&self) -> FingerprintDb<String, PcDistance> {
        self.db.read().clone()
    }

    /// Writes the database (entry-id order) to `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_db<W: Write>(&self, w: W) -> std::io::Result<()> {
        persistence::save_db(&self.to_db(), w)
    }

    /// Writes the routing index to `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_index<W: Write>(&self, w: W) -> std::io::Result<()> {
        persistence::save_index(&self.index.read(), w)
    }

    /// Persists the database (and, unless degraded, the index) crash-safely
    /// via [`persistence::atomic_write`]. Returns the number of
    /// fingerprints written. While degraded the index file is skipped — it
    /// would be incomplete; the next startup rebuilds it from the database.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (including injected `persist.*` faults).
    pub fn save_to_paths(
        &self,
        db_path: Option<&Path>,
        index_path: Option<&Path>,
    ) -> std::io::Result<u64> {
        let db = self.to_db();
        if let Some(path) = db_path {
            persistence::save_db_to_path(&db, path)?;
        }
        if let Some(path) = index_path {
            if !self.degraded() {
                persistence::save_index_to_path(&self.index.read(), path)?;
            }
        }
        Ok(db.len() as u64)
    }

    /// Builds a store from a persisted database and index pair, validating
    /// that the index matches the database (same banding is assumed from the
    /// file; entry counts must agree).
    ///
    /// # Errors
    ///
    /// Propagates format errors, plus a mismatch error when the index does
    /// not cover exactly the database's entries.
    pub fn from_persisted<R1: BufRead, R2: BufRead>(
        config: StoreConfig,
        db_reader: R1,
        index_reader: R2,
    ) -> Result<Self, DbIoError> {
        let db = persistence::load_db(db_reader)?;
        let index = persistence::load_index(index_reader)?;
        Self::from_db_with_index(config, db, index)
    }

    /// Builds a store from an already-loaded database and routing index,
    /// adopting both as they are: the persisted bucket layout is kept
    /// verbatim, so a save round-trips byte-identically.
    ///
    /// # Errors
    ///
    /// A mismatch error when the index does not cover exactly the database's
    /// entries. The server checks first, while it still owns the database,
    /// so a mismatch can fall back to [`ShardedStore::from_db_degraded`].
    pub fn from_db_with_index(
        mut config: StoreConfig,
        db: FingerprintDb<String, PcDistance>,
        index: LshIndex,
    ) -> Result<Self, DbIoError> {
        Self::check_index(&db, &index)?;
        config.threshold = db.threshold();
        config.bands = index.bands();
        config.rows_per_band = index.rows_per_band();
        config.index_seed = index.seed();
        Ok(Self::assemble(config, db, index, false))
    }

    /// Checks that `index` covers exactly `db`'s entries.
    ///
    /// # Errors
    ///
    /// A format error naming both entry counts when they disagree.
    pub(crate) fn check_index(
        db: &FingerprintDb<String, PcDistance>,
        index: &LshIndex,
    ) -> Result<(), DbIoError> {
        if index.len() == db.len() {
            return Ok(());
        }
        Err(DbIoError::BadFormat {
            line: 0,
            message: format!(
                "index covers {} entries but database has {}",
                index.len(),
                db.len()
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn es(bits: &[u64]) -> ErrorString {
        ErrorString::from_sorted(bits.to_vec(), 4096).unwrap()
    }

    fn chip_bits(chip: u64) -> Vec<u64> {
        (0..40).map(|i| chip * 40 + i).collect()
    }

    fn populated() -> ShardedStore {
        let store = ShardedStore::new(StoreConfig {
            threshold: 0.3,
            ..StoreConfig::default()
        });
        for chip in 0..10u64 {
            store
                .characterize(&format!("chip-{chip:02}"), &es(&chip_bits(chip)))
                .unwrap();
        }
        store
    }

    /// Everything a write can change: the database bytes, the cluster
    /// book and the watermark.
    fn written_state(store: &ShardedStore) -> (Vec<u8>, usize, u64) {
        let mut db = Vec::new();
        store.save_db(&mut db).unwrap();
        (db, store.cluster_count(), store.applied_wseq())
    }

    #[test]
    fn live_and_replayed_writes_converge() {
        let epoch = 7u64 << 32;
        let writes: Vec<SequencedEntry> = [
            ReplayEntry::Characterize {
                label: "dev-a".to_string(),
                errors: es(&chip_bits(1)),
            },
            ReplayEntry::Characterize {
                label: "dev-a".to_string(),
                errors: es(&chip_bits(1)[..30]),
            },
            ReplayEntry::ClusterIngest {
                errors: es(&[1, 2, 3, 4]),
            },
            ReplayEntry::ClusterIngest {
                errors: es(&[1, 2, 3, 9]),
            },
            // Refused: dev-a is a 4096-bit fingerprint.
            ReplayEntry::Characterize {
                label: "dev-a".to_string(),
                errors: ErrorString::from_sorted(vec![1, 2], 64).unwrap(),
            },
        ]
        .into_iter()
        .zip(1..)
        .map(|(entry, n)| SequencedEntry {
            seq: epoch | n,
            entry,
        })
        .collect();

        let config = StoreConfig {
            threshold: 0.3,
            ..StoreConfig::default()
        };
        let live = ShardedStore::new(config.clone());
        let outcomes: Vec<bool> = writes.iter().map(|w| live.apply_write(w).is_ok()).collect();
        assert_eq!(outcomes, [true, true, true, true, false]);
        assert_eq!(live.cluster_count(), 1, "the second ingest joins the first");

        let replayed = ShardedStore::new(config);
        assert_eq!(replayed.apply_replay(&writes), (4, 0));
        let state = written_state(&live);
        assert_eq!(state, written_state(&replayed));
        assert_eq!(state.2, epoch | 5, "the refusal advances the watermark");

        // Replaying the batch into the store that took it live skips it all.
        assert_eq!(live.apply_replay(&writes), (0, 5));
        assert_eq!(written_state(&live), state);
    }

    #[test]
    fn a_new_router_epoch_replaces_the_watermark() {
        let store = ShardedStore::new(StoreConfig::default());
        let write = |seq: u64, chip: u64| SequencedEntry {
            seq,
            entry: ReplayEntry::Characterize {
                label: format!("chip-{chip}"),
                errors: es(&chip_bits(chip)),
            },
        };
        let old = 1u64 << 32;
        let new = 2u64 << 32;
        for n in 1..=4 {
            store.apply_write(&write(old | n, n)).unwrap();
        }
        // A restarted router numbers from 1 again: not covered.
        assert_eq!(store.apply_replay(&[write(new | 1, 5)]), (1, 0));
        assert_eq!(store.applied_wseq(), new | 1);
        assert_eq!(store.len(), 5);
        // Within the new epoch, dedup works as before; unsequenced writes
        // always apply and leave the watermark alone.
        assert_eq!(
            store.apply_replay(&[write(new | 1, 5), write(0, 6)]),
            (1, 1)
        );
        assert_eq!(store.applied_wseq(), new | 1);
    }

    #[test]
    fn identify_matches_flat_db_reference() {
        let store = populated();
        let db = store.to_db();
        for chip in 0..10u64 {
            let mut bits = chip_bits(chip);
            bits.push(4000 + chip); // one noise bit
            let probe = es(&bits);
            let sharded = store.identify(&probe).unwrap().ok();
            let flat = db
                .identify_with_distance(&probe)
                .map(|(l, d)| (l.clone(), d));
            assert_eq!(sharded, flat, "chip {chip}");
        }
    }

    #[test]
    fn characterize_refines_and_reroutes() {
        let store = populated();
        let (w1, o1, created) = store
            .characterize("chip-00", &es(&chip_bits(0)[..30]))
            .unwrap();
        assert!(!created);
        assert_eq!(o1, 2);
        assert_eq!(w1, 30);
        // The refined fingerprint must still be found via the index.
        let (label, _) = store.identify(&es(&chip_bits(0)[..30])).unwrap().unwrap();
        assert_eq!(label, "chip-00");
    }

    #[test]
    fn characterize_size_mismatch_is_an_error() {
        let store = populated();
        let wrong = ErrorString::from_sorted(vec![1, 2], 64).unwrap();
        assert!(store.characterize("chip-00", &wrong).is_err());
        // A fresh label with an unusual size is fine: sizes are per-label.
        assert!(store.characterize("other", &wrong).unwrap().2);
    }

    #[test]
    fn cluster_ingest_follows_algorithm_4() {
        let store = ShardedStore::new(StoreConfig {
            threshold: 0.3,
            ..StoreConfig::default()
        });
        let a = es(&[1, 2, 3, 4]);
        let b = es(&[100, 200, 300, 400]);
        assert_eq!(store.cluster_ingest(&a).unwrap(), (0, true, 1));
        assert_eq!(store.cluster_ingest(&b).unwrap(), (1, true, 2));
        assert_eq!(
            store.cluster_ingest(&es(&[1, 2, 3, 9])).unwrap(),
            (0, false, 2)
        );
        assert_eq!(store.cluster_count(), 2);
    }

    #[test]
    fn cluster_ingest_matches_core_cluster() {
        // Six devices, five noisy outputs each, arriving interleaved: every
        // output keeps its device's 40 bits minus one and adds two noise bits.
        let mut observations: Vec<ErrorString> = (0..5u64)
            .flat_map(|round| {
                (0..6u64).map(move |chip| {
                    let mut bits = chip_bits(chip);
                    bits.remove(((round * 7 + chip) % 40) as usize);
                    bits.extend([3000 + round * 13 + chip, 3500 + round * 29 + chip]);
                    ErrorString::from_unsorted(bits, 4096).unwrap()
                })
            })
            .collect();
        // A bridge within the threshold of clusters 0 and 1, closer to 1:
        // first match, not best match, must take it to cluster 0.
        let mut bridge = chip_bits(0)[..35].to_vec();
        bridge.extend(chip_bits(1));
        observations.push(es(&bridge));
        let threshold = 0.3;
        let store = ShardedStore::new(StoreConfig {
            threshold,
            ..StoreConfig::default()
        });
        let core = probable_cause::cluster(&observations, &PcDistance::new(), threshold);
        let mut seen = 0usize;
        for (obs, &want) in observations.iter().zip(core.assignments()) {
            let seeded = want == seen;
            seen += usize::from(seeded);
            let (id, got_seeded, total) = store.cluster_ingest(obs).unwrap();
            assert_eq!((id as usize, got_seeded), (want, seeded));
            assert_eq!(total as usize, seen);
        }
        assert_eq!(store.cluster_count(), core.len());
        assert_eq!(core.len(), 6);
        assert_eq!(core.assignments().last(), Some(&0));

        // Cluster 0's own bits over a different size: it matches, the
        // refine refuses, and no cluster is added.
        let resized = ErrorString::from_sorted(chip_bits(0), 8192).unwrap();
        assert!(matches!(
            store.cluster_ingest(&resized),
            Err(StoreError::Refine(_))
        ));
        assert_eq!(store.cluster_count(), 6);
    }

    #[test]
    fn unknown_probe_reports_closest_or_nothing() {
        let store = populated();
        // Far from everything and sharing no band: no candidates at all.
        let stranger = es(&[2000, 2100, 2200, 2300]);
        match store.identify(&stranger).unwrap() {
            Err(closest) => {
                if let Some((_, d)) = closest {
                    assert!(d >= store.threshold());
                }
            }
            Ok(hit) => panic!("stranger matched {hit:?}"),
        }
    }

    #[test]
    fn persistence_roundtrip_is_byte_identical() {
        let store = populated();
        let (mut db1, mut idx1) = (Vec::new(), Vec::new());
        store.save_db(&mut db1).unwrap();
        store.save_index(&mut idx1).unwrap();

        let restored =
            ShardedStore::from_persisted(StoreConfig::default(), db1.as_slice(), idx1.as_slice())
                .unwrap();
        assert_eq!(restored.len(), store.len());

        let (mut db2, mut idx2) = (Vec::new(), Vec::new());
        restored.save_db(&mut db2).unwrap();
        restored.save_index(&mut idx2).unwrap();
        assert_eq!(db1, db2, "database save/load/save must be byte-identical");
        assert_eq!(idx1, idx2, "index save/load/save must be byte-identical");

        // And the restored store still identifies.
        let (label, _) = restored.identify(&es(&chip_bits(7))).unwrap().unwrap();
        assert_eq!(label, "chip-07");
    }

    #[test]
    fn from_persisted_rejects_mismatched_pair() {
        let store = populated();
        let (mut db, mut idx) = (Vec::new(), Vec::new());
        store.save_db(&mut db).unwrap();
        store.save_index(&mut idx).unwrap();
        // Drop one fingerprint line from the database.
        let trimmed: String = {
            let text = String::from_utf8(db).unwrap();
            let mut lines: Vec<&str> = text.lines().collect();
            lines.pop();
            lines.join("\n") + "\n"
        };
        assert!(ShardedStore::from_persisted(
            StoreConfig::default(),
            trimmed.as_bytes(),
            idx.as_slice()
        )
        .is_err());
    }

    #[test]
    fn degraded_store_scans_linearly_and_rebuild_restores_routing() {
        let db = populated().to_db();
        let store = ShardedStore::from_db_degraded(StoreConfig::default(), db);
        assert!(store.degraded());
        assert_eq!(store.len(), 10);

        // Degraded identifies scan every entry and still answer correctly.
        let before = store.distance_evals();
        let (label, _) = store.identify(&es(&chip_bits(4))).unwrap().unwrap();
        assert_eq!(label, "chip-04");
        assert_eq!(
            store.distance_evals() - before,
            10,
            "degraded identify must score the whole store"
        );

        // Mutations while degraded land in the database (index writes skipped).
        store.characterize("chip-10", &es(&chip_bits(10))).unwrap();

        // The rebuild restores routed serving, covering the new entry too.
        store.build_index();
        assert!(!store.degraded());
        for chip in [4u64, 10] {
            let before = store.distance_evals();
            let (label, _) = store.identify(&es(&chip_bits(chip))).unwrap().unwrap();
            assert_eq!(label, format!("chip-{chip:02}"));
            assert!(
                store.distance_evals() - before < 11,
                "rebuilt index should prune"
            );
        }
    }

    #[test]
    fn distance_evals_counts_scored_candidates() {
        let store = populated();
        let before = store.distance_evals();
        let _ = store.identify(&es(&chip_bits(3)));
        let evals = store.distance_evals() - before;
        assert!(evals >= 1, "the true chip must be scored");
        assert!(
            evals < 10,
            "LSH routing should prune most of the 10 chips, scored {evals}"
        );
    }

    #[test]
    fn full_scan_past_parallel_min_matches_flat_db() {
        // Four disjoint bits per chip, so a chip's own probe is its unique
        // nearest entry.
        let n = PARALLEL_SCORE_MIN + 1;
        let wide = |bits: Vec<u64>| ErrorString::from_sorted(bits, 1 << 16).unwrap();
        let mut db = FingerprintDb::new(PcDistance::new(), 0.3);
        for chip in 0..n as u64 {
            let fp = Fingerprint::from_observation(wide((0..4).map(|i| chip * 4 + i).collect()));
            db.insert(format!("chip-{chip:05}"), fp);
        }
        let store = ShardedStore::from_db_degraded(StoreConfig::default(), db.clone());
        assert!(store.degraded());

        let hit = wide(vec![400, 401, 402, 403, 60_000]);
        let miss = wide(vec![400, 60_001, 60_002, 60_003]);
        for probe in [&hit, &miss] {
            let before = store.distance_evals();
            let got = store.identify(probe).unwrap().ok();
            let want = db
                .identify_with_distance(probe)
                .map(|(l, d)| (l.clone(), d));
            assert_eq!(got, want);
            assert_eq!(store.distance_evals() - before, n as u64);
        }
        assert_eq!(
            store
                .identify(&hit)
                .unwrap()
                .ok()
                .map(|(l, _)| l)
                .as_deref(),
            Some("chip-00100")
        );
        assert!(store.identify(&miss).unwrap().is_err());
    }
}
