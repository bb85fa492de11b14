//! Dependency-distance histograms (paper §3.1.3).

use serde::{Deserialize, Serialize};

/// Upper edges of the dependency-distance buckets used by the paper:
/// distance 1, ≤2, ≤4, ≤6, ≤8, ≤16, ≤32, and >32.
pub const DEP_BUCKET_EDGES: [u64; 7] = [1, 2, 4, 6, 8, 16, 32];

/// Number of dependency-distance buckets (the seven edges plus ">32").
pub const NUM_DEP_BUCKETS: usize = 8;

/// A histogram over producer→consumer dependency distances, bucketed as in
/// the paper (§3.1.3).
///
/// # Example
///
/// ```
/// use perfclone_profile::DepHistogram;
/// let mut h = DepHistogram::new();
/// h.record(1);
/// h.record(3);
/// h.record(100);
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.counts()[0], 1); // distance 1
/// assert_eq!(h.counts()[2], 1); // distance <= 4
/// assert_eq!(h.counts()[7], 1); // distance > 32
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepHistogram {
    counts: [u64; NUM_DEP_BUCKETS],
}

impl DepHistogram {
    /// Creates an empty histogram.
    pub fn new() -> DepHistogram {
        DepHistogram::default()
    }

    /// Builds a histogram directly from bucket counts — for deserialized,
    /// synthetic, or fault-injected data.
    pub fn from_counts(counts: [u64; NUM_DEP_BUCKETS]) -> DepHistogram {
        DepHistogram { counts }
    }

    /// Bucket index for a dependency distance (`distance >= 1`).
    #[inline]
    pub fn bucket(distance: u64) -> usize {
        match DEP_BUCKET_EDGES.iter().position(|&e| distance <= e) {
            Some(i) => i,
            None => NUM_DEP_BUCKETS - 1,
        }
    }

    /// Records one dependency of the given distance.
    #[inline]
    pub fn record(&mut self, distance: u64) {
        self.counts[Self::bucket(distance)] += 1;
    }

    /// Adds `times` copies of `other`.
    pub(crate) fn add_times(&mut self, other: &DepHistogram, times: u64) {
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b * times;
        }
    }

    /// The raw bucket counts.
    pub fn counts(&self) -> &[u64; NUM_DEP_BUCKETS] {
        &self.counts
    }

    /// Total recorded dependencies. Saturates instead of overflowing so
    /// corrupted (absurdly large) bucket counts stay panic-free.
    pub fn total(&self) -> u64 {
        self.counts.iter().fold(0u64, |acc, c| acc.saturating_add(*c))
    }

    /// Merges another histogram into this one, saturating on overflow.
    pub fn merge(&mut self, other: &DepHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// Samples a representative distance for bucket `idx` — the bucket's
    /// upper edge, or 48 for the overflow bucket (the synthesizer's
    /// realization choice).
    pub fn representative(idx: usize) -> u64 {
        if idx < DEP_BUCKET_EDGES.len() {
            DEP_BUCKET_EDGES[idx]
        } else {
            48
        }
    }

    /// The bucket probabilities (empty histogram yields all zeros).
    pub fn probabilities(&self) -> [f64; NUM_DEP_BUCKETS] {
        let total = self.total();
        let mut out = [0.0; NUM_DEP_BUCKETS];
        if total > 0 {
            for (o, c) in out.iter_mut().zip(self.counts.iter()) {
                *o = *c as f64 / total as f64;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(DepHistogram::bucket(1), 0);
        assert_eq!(DepHistogram::bucket(2), 1);
        assert_eq!(DepHistogram::bucket(3), 2);
        assert_eq!(DepHistogram::bucket(4), 2);
        assert_eq!(DepHistogram::bucket(5), 3);
        assert_eq!(DepHistogram::bucket(8), 4);
        assert_eq!(DepHistogram::bucket(16), 5);
        assert_eq!(DepHistogram::bucket(32), 6);
        assert_eq!(DepHistogram::bucket(33), 7);
        assert_eq!(DepHistogram::bucket(1_000_000), 7);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = DepHistogram::new();
        a.record(1);
        let mut b = DepHistogram::new();
        b.record(1);
        b.record(40);
        a.merge(&b);
        assert_eq!(a.counts()[0], 2);
        assert_eq!(a.counts()[7], 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut h = DepHistogram::new();
        for d in [1, 2, 2, 7, 30, 99] {
            h.record(d);
        }
        let sum: f64 = h.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn representatives_fall_in_their_bucket() {
        for idx in 0..NUM_DEP_BUCKETS {
            let r = DepHistogram::representative(idx);
            assert_eq!(DepHistogram::bucket(r), idx);
        }
    }
}
