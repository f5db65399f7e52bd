//! Collection strategies: `vec` and `btree_set`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

/// Size specification for collection strategies: an exact length or a range
/// of lengths.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl SizeRange {
    fn pick(self, rng: &mut TestRng) -> usize {
        if self.lo >= self.hi_inclusive {
            self.lo
        } else {
            self.lo + rng.index(self.hi_inclusive - self.lo + 1)
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self {
            lo: n,
            hi_inclusive: n,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            lo: r.start,
            hi_inclusive: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        Self {
            lo: *r.start(),
            hi_inclusive: *r.end(),
        }
    }
}

/// Strategy for `Vec<S::Value>` with a length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        let len = self.size.pick(rng);
        (0..len).map(|_| self.element.new_value(rng)).collect()
    }
}

/// Strategy for `BTreeSet<S::Value>` targeting a size drawn from `size`
/// (duplicates may land the set below the target, as in real proptest).
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`btree_set`].
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        let target = self.size.pick(rng);
        let mut set = BTreeSet::new();
        // Bounded attempts: narrow element domains may not hold `target`
        // distinct values.
        for _ in 0..target.saturating_mul(8) + 8 {
            if set.len() >= target {
                break;
            }
            set.insert(self.element.new_value(rng));
        }
        set
    }
}
