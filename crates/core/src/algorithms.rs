//! Algorithms 1 and 4: characterization and clustering.
//! (Algorithm 2, identification, lives on [`crate::FingerprintDb`].)

use crate::{DistanceMetric, ErrorString, Fingerprint, FingerprintDb};
use std::fmt;

/// Error from [`characterize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CharacterizeError {
    /// No observations were supplied.
    NoObservations,
    /// Observations have differing sizes.
    SizeMismatch,
}

impl fmt::Display for CharacterizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharacterizeError::NoObservations => write!(f, "no observations to characterize"),
            CharacterizeError::SizeMismatch => {
                write!(f, "observations must share one bit-string size")
            }
        }
    }
}

impl std::error::Error for CharacterizeError {}

/// **Algorithm 1** — characterization: the device fingerprint is the
/// intersection of the error bits across all observed approximate results.
///
/// Intersection keeps only the most volatile (always-failing) cells, which
/// minimizes noise, keeps fingerprints applicable to lightly approximated
/// systems, and makes matching fast (§5.1).
///
/// # Errors
///
/// [`CharacterizeError::NoObservations`] for an empty slice,
/// [`CharacterizeError::SizeMismatch`] if observations differ in size.
///
/// # Example
///
/// ```
/// use probable_cause::{characterize, ErrorString};
/// let runs = vec![
///     ErrorString::from_sorted(vec![2, 5, 7, 11], 32)?,
///     ErrorString::from_sorted(vec![2, 5, 9, 11], 32)?,
///     ErrorString::from_sorted(vec![2, 5, 11, 30], 32)?,
/// ];
/// let fp = characterize(&runs)?;
/// assert_eq!(fp.errors().positions(), &[2, 5, 11]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn characterize(observations: &[ErrorString]) -> Result<Fingerprint, CharacterizeError> {
    let _span = pc_telemetry::time!("core.characterize");
    pc_telemetry::counter!("core.characterize.observations").add(observations.len() as u64);
    let (first, rest) = observations
        .split_first()
        .ok_or(CharacterizeError::NoObservations)?;
    let mut fp = Fingerprint::from_observation(first.clone());
    for obs in rest {
        fp = fp
            .refine(obs)
            .map_err(|_| CharacterizeError::SizeMismatch)?;
    }
    Ok(fp)
}

/// The result of **Algorithm 4** — clustering approximate results by origin
/// device.
#[derive(Debug, Clone)]
pub struct Clustering {
    clusters: Vec<Fingerprint>,
    assignments: Vec<usize>,
}

impl Clustering {
    /// The per-cluster fingerprints (cluster id = index).
    pub fn clusters(&self) -> &[Fingerprint] {
        &self.clusters
    }

    /// `assignments[i]` is the cluster id of input observation `i`.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Number of clusters found (suspected devices).
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether no clusters were formed (no input).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }
}

/// **Algorithm 4** — clustering: each output's error string is compared to
/// the existing cluster fingerprints in creation order; the first within
/// `threshold` ([`FingerprintDb::first_within`]) is refined by intersection,
/// otherwise the output seeds a new cluster. The cluster book is a
/// [`FingerprintDb`], so clusters are stored packed and scored on the
/// packed kernels whenever the metric has a packed form.
///
/// Note: the paper's pseudocode augments `fingerprintDB[i]` on line 7; the
/// surrounding text makes clear the *matched cluster* `fingerprintDB[j]` is
/// intended, which is what this implementation does.
///
/// # Panics
///
/// Panics unless `threshold` is in `(0, 1]` (the [`FingerprintDb::new`]
/// precondition), and if observations have mismatched sizes (they come from
/// one pipeline in practice; the mismatch is a programming error).
///
/// # Example
///
/// ```
/// use probable_cause::{cluster, ErrorString, PcDistance};
/// let outs = vec![
///     ErrorString::from_sorted(vec![1, 2, 3, 4], 64)?,   // device A
///     ErrorString::from_sorted(vec![40, 41, 42, 43], 64)?, // device B
///     ErrorString::from_sorted(vec![1, 2, 3, 4, 9], 64)?, // device A again
/// ];
/// let c = cluster(&outs, &PcDistance::new(), 0.25);
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.assignments(), &[0, 1, 0]);
/// # Ok::<(), probable_cause::BitStringError>(())
/// ```
pub fn cluster<M: DistanceMetric + ?Sized>(
    observations: &[ErrorString],
    metric: &M,
    threshold: f64,
) -> Clustering {
    let _span = pc_telemetry::time!("core.cluster");
    let mut book = FingerprintDb::new(metric, threshold);
    let mut assignments = Vec::with_capacity(observations.len());
    for obs in observations {
        let id = match book.first_within(obs) {
            Some(j) => {
                book.refine(j, obs)
                    .expect("first_within returns a stored id")
                    .expect("clustered observations must share a size");
                pc_telemetry::counter!("core.cluster.refined").incr();
                j
            }
            None => {
                book.insert((), Fingerprint::from_observation(obs.clone()));
                pc_telemetry::counter!("core.cluster.seeded").incr();
                book.len() - 1
            }
        };
        assignments.push(id);
    }
    Clustering {
        clusters: book.iter().map(|(_, fp)| fp).collect(),
        assignments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PcDistance;

    fn es(bits: &[u64]) -> ErrorString {
        ErrorString::from_sorted(bits.to_vec(), 256).unwrap()
    }

    #[test]
    fn characterize_is_intersection() {
        let fp = characterize(&[es(&[1, 2, 3]), es(&[2, 3, 4]), es(&[0, 2, 3])]).unwrap();
        assert_eq!(fp.errors().positions(), &[2, 3]);
        assert_eq!(fp.observations(), 3);
    }

    #[test]
    fn characterize_single_observation() {
        let fp = characterize(&[es(&[9])]).unwrap();
        assert_eq!(fp.errors().positions(), &[9]);
    }

    #[test]
    fn characterize_empty_fails() {
        assert_eq!(
            characterize(&[]).unwrap_err(),
            CharacterizeError::NoObservations
        );
    }

    #[test]
    fn characterize_size_mismatch_fails() {
        let a = es(&[1]);
        let b = ErrorString::from_sorted(vec![1], 512).unwrap();
        assert_eq!(
            characterize(&[a, b]).unwrap_err(),
            CharacterizeError::SizeMismatch
        );
    }

    #[test]
    fn cluster_groups_same_device() {
        // Two devices, three outputs each, with mild noise.
        let dev_a = [
            es(&[1, 5, 9, 13]),
            es(&[1, 5, 9, 14]),
            es(&[1, 5, 9, 13, 20]),
        ];
        let dev_b = [es(&[2, 6, 10, 50]), es(&[2, 6, 10, 51]), es(&[2, 6, 10])];
        let mut all = Vec::new();
        all.extend(dev_a.iter().cloned());
        all.extend(dev_b.iter().cloned());
        let c = cluster(&all, &PcDistance::new(), 0.3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.assignments()[..3], [0, 0, 0]);
        assert_eq!(c.assignments()[3..], [1, 1, 1]);
    }

    #[test]
    fn cluster_fingerprints_are_refined() {
        let outs = vec![es(&[1, 2, 3, 4]), es(&[1, 2, 3, 5])];
        let c = cluster(&outs, &PcDistance::new(), 0.5);
        assert_eq!(c.len(), 1);
        assert_eq!(c.clusters()[0].errors().positions(), &[1, 2, 3]);
        assert_eq!(c.clusters()[0].observations(), 2);
    }

    #[test]
    fn cluster_empty_input() {
        let c = cluster(&[], &PcDistance::new(), 0.3);
        assert!(c.is_empty());
        assert!(c.assignments().is_empty());
    }

    #[test]
    fn tight_threshold_splits_everything() {
        let outs = vec![es(&[1, 2, 3]), es(&[1, 2, 4]), es(&[1, 2, 5])];
        // Each pair differs in 1/3 of fingerprint bits; threshold below that
        // keeps them apart.
        let c = cluster(&outs, &PcDistance::new(), 0.2);
        assert_eq!(c.len(), 3);
    }
}
