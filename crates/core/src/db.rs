//! The fingerprint database and Algorithm 2 (identification).
//!
//! [`FingerprintDb`] is the one holder of stored fingerprints, in the core
//! crate and in the serving store alike. Each entry is kept once, in the
//! packed form the scoring kernels read ([`PackedErrors`]), beside its label
//! and observation count. Sparse positions ([`ErrorString`]) are derived
//! only where something needs them: [`FingerprintDb::entry`] and
//! [`FingerprintDb::iter`], [`FingerprintDb::refine`], the index build,
//! persistence, and scoring under a custom metric with no packed form.

use crate::batch::{add_comparisons, Parallelism};
use crate::{DistanceMetric, ErrorString, Fingerprint, LshIndex};
use parking_lot::RwLock;
use pc_kernels::PackedErrors;
use std::sync::Arc;

/// A database of labelled device fingerprints with threshold identification —
/// **Algorithm 2** — and the first-match step of **Algorithm 4**
/// ([`FingerprintDb::first_within`]).
///
/// Labels are generic: chip serials, user handles, machine names.
///
/// # Example
///
/// ```
/// use probable_cause::{ErrorString, Fingerprint, FingerprintDb, PcDistance};
/// let mut db = FingerprintDb::new(PcDistance::new(), 0.25);
/// let fp = Fingerprint::from_observation(ErrorString::from_sorted(vec![3, 7, 11], 64)?);
/// db.insert("chip-A", fp);
///
/// let output = ErrorString::from_sorted(vec![3, 7, 11, 40], 64)?;
/// assert_eq!(db.identify(&output), Some(&"chip-A"));
/// let stranger = ErrorString::from_sorted(vec![0, 1, 2], 64)?;
/// assert_eq!(db.identify(&stranger), None);
/// # Ok::<(), probable_cause::BitStringError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FingerprintDb<L, M = crate::PcDistance> {
    /// Columns indexed by entry id (insertion order): each fingerprint is
    /// kept once, packed, beside its label and observation count.
    labels: Vec<L>,
    packed: Vec<PackedErrors>,
    observations: Vec<u32>,
    metric: M,
    threshold: f64,
}

impl<L, M: DistanceMetric> FingerprintDb<L, M> {
    /// Creates an empty database using `metric` with the given matching
    /// `threshold`.
    ///
    /// # Panics
    ///
    /// Panics unless `threshold` is in `(0, 1]`.
    pub fn new(metric: M, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0, 1], got {threshold}"
        );
        Self {
            labels: Vec::new(),
            packed: Vec::new(),
            observations: Vec::new(),
            metric,
            threshold,
        }
    }

    /// The matching threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The distance metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Number of fingerprints stored.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Adds a labelled fingerprint (stored packed).
    pub fn insert(&mut self, label: L, fingerprint: Fingerprint) {
        self.packed.push(fingerprint.errors().to_packed());
        self.observations.push(fingerprint.observations());
        self.labels.push(label);
    }

    /// The labels in insertion order, without unpacking any fingerprint.
    pub fn labels(&self) -> impl Iterator<Item = &L> {
        self.labels.iter()
    }

    /// Iterates over `(label, fingerprint)` entries in insertion order,
    /// unpacking each fingerprint.
    pub fn iter(&self) -> impl Iterator<Item = (&L, Fingerprint)> {
        (0..self.len()).map(|id| (&self.labels[id], self.fingerprint(id)))
    }

    /// The entry with insertion-order id `id`, if it exists, its fingerprint
    /// unpacked. Ids are the coordinates [`LshIndex`] candidates are
    /// expressed in.
    pub fn entry(&self, id: usize) -> Option<(&L, Fingerprint)> {
        (id < self.len()).then(|| (&self.labels[id], self.fingerprint(id)))
    }

    /// Refines entry `id` with one more observation (Algorithm 1's
    /// intersection) and returns the refined fingerprint. `None` when there
    /// is no such entry; an error leaves the entry unchanged.
    pub fn refine(
        &mut self,
        id: usize,
        observation: &ErrorString,
    ) -> Option<Result<Fingerprint, crate::BitStringError>> {
        let refined = self.entry(id)?.1.refine(observation);
        if let Ok(fp) = &refined {
            self.packed[id] = fp.errors().to_packed();
            self.observations[id] = fp.observations();
        }
        Some(refined)
    }

    /// Builds an [`LshIndex`] over every stored fingerprint (entry id =
    /// insertion order), for [`FingerprintDb::identify_indexed`].
    pub fn build_index(&self, bands: usize, rows_per_band: usize, seed: u64) -> LshIndex {
        let mut index = LshIndex::new(bands, rows_per_band, seed);
        for (id, packed) in self.packed.iter().enumerate() {
            index.insert(id as u32, &ErrorString::from_packed(packed));
        }
        index
    }

    /// **Algorithm 4**'s matching step: the first entry, in insertion order,
    /// whose distance to `error_string` is below the threshold. The walk
    /// stops at that entry, so only the entries up to it are scored (and
    /// counted on the metric's distance counter).
    pub fn first_within(&self, error_string: &ErrorString) -> Option<usize> {
        match self.metric.kind() {
            Some(kind) => {
                let probe = error_string.to_packed();
                let hit = self
                    .packed
                    .iter()
                    .position(|fp| pc_kernels::distance_packed(fp, &probe, kind) < self.threshold);
                add_comparisons(kind, hit.map_or(self.len(), |j| j + 1) as u64);
                hit
            }
            None => (0..self.len()).position(|id| {
                self.metric.distance(&self.errors(id), error_string) < self.threshold
            }),
        }
    }

    /// Distances for the entry ids in `ids` (same order) — the candidate-set
    /// shape of indexed identification.
    fn distances_of(
        &self,
        ids: &[usize],
        error_string: &ErrorString,
        par: Parallelism,
    ) -> Vec<f64> {
        match self.metric.kind() {
            Some(kind) => {
                add_comparisons(kind, ids.len() as u64);
                pc_kernels::score_subset(&self.packed, ids, &error_string.to_packed(), kind, par)
            }
            None => ids
                .iter()
                .map(|&id| self.metric.distance(&self.errors(id), error_string))
                .collect(),
        }
    }

    /// Entry `id`'s error bits, unpacked.
    fn errors(&self, id: usize) -> ErrorString {
        ErrorString::from_packed(&self.packed[id])
    }

    /// Entry `id`'s fingerprint, unpacked.
    fn fingerprint(&self, id: usize) -> Fingerprint {
        Fingerprint::from_parts(self.errors(id), self.observations[id])
    }
}

impl<L: Ord, M: DistanceMetric> FingerprintDb<L, M> {
    /// **Algorithm 2**: the stored fingerprint closest to `error_string`,
    /// provided its distance is below the threshold; `None` means "failed".
    ///
    /// Selection is deterministic: lowest distance wins, and an exact
    /// distance tie is broken by label order (`Ord`), never by insertion
    /// order. (The paper's pseudocode returns the first sub-threshold match;
    /// that made results depend silently on database construction order.)
    pub fn identify(&self, error_string: &ErrorString) -> Option<&L> {
        self.identify_with_distance(error_string).map(|(l, _)| l)
    }

    /// [`FingerprintDb::identify`], also reporting the winning distance.
    pub fn identify_with_distance(&self, error_string: &ErrorString) -> Option<(&L, f64)> {
        let _span = pc_telemetry::time!("core.db.identify");
        pc_telemetry::counter!("core.db.identify.comparisons").add(self.len() as u64);
        let hit = self
            .best_of(0..self.len(), error_string)
            .filter(|&(_, d)| d < self.threshold);
        if hit.is_some() {
            pc_telemetry::counter!("core.db.identify.hits").incr();
        } else {
            pc_telemetry::counter!("core.db.identify.misses").incr();
        }
        hit
    }

    /// Index-pruned **Algorithm 2**: like
    /// [`identify_with_distance`](FingerprintDb::identify_with_distance) but
    /// paying full distance computation only for `index` candidates, with
    /// the same deterministic tie-break over that candidate set.
    ///
    /// The caller is responsible for keeping `index` in sync with this
    /// database (same entry ids). A true match the index fails to shortlist
    /// is reported as a miss — that false-negative probability is set by the
    /// index's band/row parameters (see [`LshIndex`]).
    pub fn identify_indexed(
        &self,
        index: &LshIndex,
        error_string: &ErrorString,
    ) -> Option<(&L, f64)> {
        let _span = pc_telemetry::time!("core.db.identify_indexed");
        let candidates = index.candidates(error_string);
        pc_telemetry::counter!("core.db.identify_indexed.comparisons").add(candidates.len() as u64);
        pc_telemetry::counter!("core.db.identify_indexed.pruned")
            .add(self.len().saturating_sub(candidates.len()) as u64);
        let hit = self
            .best_of(candidates.into_iter().map(|c| c as usize), error_string)
            .filter(|&(_, d)| d < self.threshold);
        if hit.is_some() {
            pc_telemetry::counter!("core.db.identify_indexed.hits").incr();
        } else {
            pc_telemetry::counter!("core.db.identify_indexed.misses").incr();
        }
        hit
    }

    /// Exhaustive variant: the closest fingerprint and its distance,
    /// regardless of threshold (useful for calibrating thresholds and for
    /// the experiment harnesses). `None` only when the database is empty.
    /// Distance ties break by label order, like
    /// [`identify`](FingerprintDb::identify).
    pub fn identify_best(&self, error_string: &ErrorString) -> Option<(&L, f64)> {
        self.best_of(0..self.len(), error_string)
    }

    /// Identifies every probe: `out[i]` is what
    /// [`identify_with_distance`](FingerprintDb::identify_with_distance)
    /// returns for `probes[i]`, with probes scored across worker threads in
    /// deterministic chunks — the result is identical for every thread
    /// count. This is the bulk shape of fleet-scale matching (many captured
    /// outputs against one database).
    pub fn identify_batch(&self, probes: &[ErrorString]) -> Vec<Option<(&L, f64)>>
    where
        L: Sync,
        M: Sync,
    {
        self.identify_batch_with(probes, Parallelism::auto())
    }

    /// [`identify_batch`](FingerprintDb::identify_batch) with an explicit
    /// thread budget (for benchmarks and determinism tests).
    pub fn identify_batch_with(
        &self,
        probes: &[ErrorString],
        par: Parallelism,
    ) -> Vec<Option<(&L, f64)>>
    where
        L: Sync,
        M: Sync,
    {
        let _span = pc_telemetry::time!("core.db.identify_batch");
        let all: Vec<usize> = (0..self.len()).collect();
        // One probe per chunk: each item is a full candidate scan (µs–ms of
        // work), so the atomic chunk claim is noise and per-item claims give
        // the pool the best balance — the old fixed chunk of 16 ran small
        // batches (< 16 probes) entirely inline.
        let results = pc_kernels::map_chunked(probes.len(), 1, par, |i| {
            // Each worker scores its probe single-threaded; parallelism
            // lives in the probe dimension.
            self.closest_among(&all, &probes[i], Parallelism::single())
                .filter(|&(_, d)| d < self.threshold)
        });
        pc_telemetry::counter!("core.db.identify.comparisons")
            .add((self.len() * probes.len()) as u64);
        let hits = results.iter().filter(|r| r.is_some()).count() as u64;
        pc_telemetry::counter!("core.db.identify.hits").add(hits);
        pc_telemetry::counter!("core.db.identify.misses").add(probes.len() as u64 - hits);
        results
    }

    /// The lowest-distance entry among `ids`, ties broken by label order.
    fn best_of(
        &self,
        ids: impl Iterator<Item = usize>,
        error_string: &ErrorString,
    ) -> Option<(&L, f64)> {
        let ids: Vec<usize> = ids.collect();
        self.closest_among(&ids, error_string, Parallelism::single())
    }

    /// The lowest-distance entry among the entry ids `ids`, ties broken by
    /// label order, regardless of threshold; `None` only when `ids` is
    /// empty. The candidates are scored in one pass with `par` threads.
    ///
    /// # Panics
    ///
    /// Panics if an id is not below [`FingerprintDb::len`].
    pub fn closest_among(
        &self,
        ids: &[usize],
        error_string: &ErrorString,
        par: Parallelism,
    ) -> Option<(&L, f64)> {
        let distances = self.distances_of(ids, error_string, par);
        // Argmin runs sequentially over the scored vector so the label
        // tie-break is exact regardless of how scoring was chunked.
        let mut best: Option<(&L, f64)> = None;
        for (&id, &d) in ids.iter().zip(&distances) {
            let label = &self.labels[id];
            let better = match best {
                None => true,
                Some((best_label, best_d)) => d < best_d || (d == best_d && label < best_label),
            };
            if better {
                best = Some((label, d));
            }
        }
        best
    }
}

/// A cheaply clonable, thread-safe handle to a [`FingerprintDb`], used by the
/// experiment harnesses to identify outputs from worker threads while the
/// characterization thread is still inserting.
pub type SharedFingerprintDb<L, M = crate::PcDistance> = Arc<RwLock<FingerprintDb<L, M>>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PcDistance;

    fn es(bits: &[u64]) -> ErrorString {
        ErrorString::from_sorted(bits.to_vec(), 128).unwrap()
    }

    fn fp(bits: &[u64]) -> Fingerprint {
        Fingerprint::from_observation(es(bits))
    }

    #[test]
    fn identify_picks_lowest_distance() {
        let mut db = FingerprintDb::new(PcDistance::new(), 0.5);
        db.insert("b", fp(&[1, 2, 3, 5])); // distance 0.25 — also sub-threshold
        db.insert("a", fp(&[1, 2, 3, 4])); // distance 0, inserted second
        let probe = es(&[1, 2, 3, 4]);
        assert_eq!(db.identify(&probe), Some(&"a"));
        let (label, d) = db.identify_with_distance(&probe).unwrap();
        assert_eq!((label, d), (&"a", 0.0));
    }

    #[test]
    fn identify_breaks_distance_ties_by_label_order() {
        let mut db = FingerprintDb::new(PcDistance::new(), 0.5);
        // Identical fingerprints: every probe is equidistant from both.
        db.insert("zeta", fp(&[1, 2, 3, 4]));
        db.insert("alpha", fp(&[1, 2, 3, 4]));
        let probe = es(&[1, 2, 3, 40]);
        // Label order decides, not insertion order.
        assert_eq!(db.identify(&probe), Some(&"alpha"));
        assert_eq!(db.identify_best(&probe).unwrap().0, &"alpha");
    }

    #[test]
    fn identify_indexed_agrees_with_linear_scan() {
        let mut db = FingerprintDb::new(PcDistance::new(), 0.5);
        for chip in 0..16u32 {
            let bits: Vec<u64> = (0..8).map(|i| chip as u64 * 8 + i).collect();
            db.insert(chip, Fingerprint::from_observation(es(&bits)));
        }
        let index = db.build_index(16, 2, 99);
        for chip in 0..16u32 {
            let bits: Vec<u64> = (0..8).map(|i| chip as u64 * 8 + i).collect();
            let probe = es(&bits);
            assert_eq!(
                db.identify_indexed(&index, &probe),
                db.identify_with_distance(&probe),
                "chip {chip}"
            );
        }
    }

    #[test]
    fn refine_updates_the_packed_entry() {
        let mut db = FingerprintDb::new(PcDistance::new(), 0.5);
        db.insert("a", fp(&[1, 2, 3, 4]));
        let refined = db.refine(0, &es(&[1, 2, 9])).unwrap().unwrap();
        assert_eq!(refined.observations(), 2);
        assert_eq!(refined.weight(), 2);
        // Scoring reads the packed column: it must see the refined {1, 2}.
        assert_eq!(db.identify_best(&es(&[1, 2])), Some((&"a", 0.0)));
        let other_size = ErrorString::from_sorted(vec![1], 64).unwrap();
        assert!(db.refine(0, &other_size).unwrap().is_err());
        assert!(db.refine(1, &es(&[1])).is_none());
    }

    #[test]
    fn first_within_takes_the_first_match_in_insertion_order() {
        let mut db = FingerprintDb::new(PcDistance::new(), 0.3);
        db.insert("far", fp(&[90, 91, 92, 93]));
        db.insert("near", fp(&[1, 2, 3, 5])); // distance 0.25: first under 0.3
        db.insert("exact", fp(&[1, 2, 3, 4])); // distance 0, but later
        assert_eq!(db.first_within(&es(&[1, 2, 3, 4])), Some(1));
        assert_eq!(db.first_within(&es(&[60, 61])), None);
    }

    #[test]
    fn entries_unpack_to_what_was_inserted() {
        let mut db = FingerprintDb::new(PcDistance::new(), 0.3);
        let a = Fingerprint::from_parts(es(&[1, 5, 100]), 3);
        db.insert("a", a.clone());
        assert_eq!(db.entry(0), Some((&"a", a.clone())));
        assert_eq!(db.entry(1), None);
        assert_eq!(db.iter().collect::<Vec<_>>(), vec![(&"a", a)]);
        assert_eq!(db.labels().collect::<Vec<_>>(), vec![&"a"]);
    }

    #[test]
    fn identify_fails_above_threshold() {
        let mut db = FingerprintDb::new(PcDistance::new(), 0.25);
        db.insert("a", fp(&[1, 2, 3, 4]));
        assert_eq!(db.identify(&es(&[50, 60, 70])), None);
    }

    #[test]
    fn identify_best_ranks() {
        let mut db = FingerprintDb::new(PcDistance::new(), 0.25);
        db.insert("far", fp(&[90, 100, 110, 120]));
        db.insert("near", fp(&[1, 2, 3, 4]));
        let (label, d) = db.identify_best(&es(&[1, 2, 3, 40])).unwrap();
        assert_eq!(label, &"near");
        assert!((d - 0.25).abs() < 1e-12);
    }

    #[test]
    fn identify_best_empty_db() {
        let db: FingerprintDb<&str> = FingerprintDb::new(PcDistance::new(), 0.25);
        assert!(db.identify_best(&es(&[1])).is_none());
        assert!(db.is_empty());
    }

    #[test]
    fn shared_db_cross_thread() {
        let db: SharedFingerprintDb<String> =
            Arc::new(RwLock::new(FingerprintDb::new(PcDistance::new(), 0.3)));
        let writer = db.clone();
        std::thread::spawn(move || {
            writer.write().insert("x".to_string(), fp(&[5, 6, 7]));
        })
        .join()
        .unwrap();
        assert_eq!(db.read().identify(&es(&[5, 6, 7])), Some(&"x".to_string()));
    }

    #[test]
    #[should_panic(expected = "threshold must be")]
    fn zero_threshold_rejected() {
        let _: FingerprintDb<u8> = FingerprintDb::new(PcDistance::new(), 0.0);
    }
}
