//! Fixed-bucket log-scale latency histograms (HDR-style).
//!
//! The bucket layout trades a small, fixed memory footprint for bounded
//! relative error: each power-of-two octave above 8 ns is split into
//! [`SUB`] linear sub-buckets, so any recorded value lands in a bucket
//! whose width is at most 1/8 of its magnitude (≤ 12.5 % relative
//! error). Values 0–7 get exact unit buckets. The layout covers the full
//! `u64` nanosecond range in [`N_BUCKETS`] = 496 counters, recording is
//! two shifts and an increment, and two histograms merge by element-wise
//! addition — the properties the campaign aggregator relies on.

/// Linear sub-buckets per power-of-two octave.
pub const SUB: usize = 8;
/// Total bucket count: 8 exact unit buckets + 61 octaves × 8 sub-buckets.
pub const N_BUCKETS: usize = 496;

/// A mergeable log-scale histogram of `u64` samples (nanoseconds by
/// convention, but nothing in the math assumes a unit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHist {
    counts: [u64; N_BUCKETS],
    count: u64,
    max_ns: u64,
    sum_ns: u128,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    pub fn new() -> Self {
        Self {
            counts: [0u64; N_BUCKETS],
            count: 0,
            max_ns: 0,
            sum_ns: 0,
        }
    }

    /// Bucket index for a value. Total over all of `u64`; monotone
    /// non-decreasing in `v`.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v < SUB as u64 {
            v as usize
        } else {
            // e = position of the leading one bit, e >= 3.
            let e = 63 - v.leading_zeros() as usize;
            (e - 2) * SUB + ((v >> (e - 3)) & 7) as usize
        }
    }

    /// Inclusive `(lo, hi)` value range covered by bucket `b`.
    pub fn bucket_bounds(b: usize) -> (u64, u64) {
        assert!(b < N_BUCKETS, "bucket index out of range");
        if b < SUB {
            (b as u64, b as u64)
        } else {
            let e = b / SUB + 2;
            let sub = (b % SUB) as u64;
            let width = 1u64 << (e - 3);
            let lo = (SUB as u64 + sub) << (e - 3);
            (lo, lo + (width - 1))
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        let b = Self::bucket_index(ns);
        debug_assert!(b < self.counts.len());
        self.counts[b] = self.counts[b].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum_ns = self.sum_ns.saturating_add(ns as u128);
        if ns > self.max_ns {
            self.max_ns = ns;
        }
    }

    /// Fold `other` into `self`. Equivalent (bucket-for-bucket) to having
    /// recorded the union of both sample tapes into one histogram.
    ///
    /// All additions saturate, so a bucket pinned at `u64::MAX` stays
    /// pinned instead of wrapping — and because saturating addition of
    /// unsigned values is `min(true sum, MAX)`, merge order never changes
    /// the result: merging is commutative and associative even at the
    /// saturation boundary. Merging an empty histogram is a no-op
    /// (including `max_ns`, which an empty histogram holds at 0).
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        if other.max_ns > self.max_ns {
            self.max_ns = other.max_ns;
        }
    }

    /// Rebuilds a histogram from exporter parts: sparse `(bucket, count)`
    /// pairs plus the exact sample sum and maximum the exporter carried
    /// alongside (neither is recoverable from bucket counts alone). Pairs
    /// with an out-of-range bucket index are ignored rather than panicking
    /// — snapshot files cross version boundaries. Repeated indices
    /// accumulate; the total count is the saturating sum of the pairs.
    pub fn from_parts(
        buckets: impl IntoIterator<Item = (usize, u64)>,
        sum_ns: u128,
        max_ns: u64,
    ) -> Self {
        let mut h = Self::new();
        for (b, n) in buckets {
            if b >= N_BUCKETS {
                continue;
            }
            h.counts[b] = h.counts[b].saturating_add(n);
            h.count = h.count.saturating_add(n);
        }
        h.sum_ns = sum_ns;
        h.max_ns = max_ns;
        h
    }

    pub fn clear(&mut self) {
        *self = Self::new();
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest recorded value, exact (not bucket-quantised).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Exact sum of all recorded values (saturating at `u128::MAX`).
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Raw bucket counts, for exporters and tests.
    pub fn bucket_counts(&self) -> &[u64; N_BUCKETS] {
        &self.counts
    }

    /// Value at percentile `p` (0–100). Returns the upper bound of the
    /// bucket holding the rank-⌈p·n/100⌉ sample, tightened to the exact
    /// maximum when that bucket contains it — so the result always lies
    /// within the bounds of the bucket the true sample fell in.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let (_, hi) = Self::bucket_bounds(b);
                return if Self::bucket_index(self.max_ns) == b {
                    hi.min(self.max_ns)
                } else {
                    hi
                };
            }
        }
        self.max_ns
    }

    pub fn summary(&self) -> StageSummary {
        StageSummary {
            count: self.count,
            p50_ns: self.percentile_ns(50.0),
            p95_ns: self.percentile_ns(95.0),
            p99_ns: self.percentile_ns(99.0),
            max_ns: self.max_ns,
        }
    }
}

/// Percentile summary of one stage's latency histogram — the compact,
/// copyable form that rides on `RunResult`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageSummary {
    pub count: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..8u64 {
            assert_eq!(LatencyHist::bucket_index(v), v as usize);
            assert_eq!(LatencyHist::bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn every_value_lands_inside_its_bucket_bounds() {
        let probes = [
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            17,
            1_000,
            123_456,
            u32::MAX as u64,
            1u64 << 40,
            (1u64 << 40) + 12_345,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let b = LatencyHist::bucket_index(v);
            assert!(b < N_BUCKETS);
            let (lo, hi) = LatencyHist::bucket_bounds(b);
            assert!(lo <= v && v <= hi, "v={v} b={b} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn bucket_bounds_tile_the_u64_line() {
        // Consecutive buckets must abut exactly: hi(b) + 1 == lo(b+1).
        for b in 0..N_BUCKETS - 1 {
            let (_, hi) = LatencyHist::bucket_bounds(b);
            let (lo_next, _) = LatencyHist::bucket_bounds(b + 1);
            assert_eq!(hi + 1, lo_next, "gap/overlap at bucket {b}");
        }
        assert_eq!(LatencyHist::bucket_bounds(N_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn relative_error_is_bounded() {
        for &v in &[100u64, 1_000, 50_000, 1_000_000, 123_456_789] {
            let (lo, hi) = LatencyHist::bucket_bounds(LatencyHist::bucket_index(v));
            let width = (hi - lo) as f64;
            assert!(width / v as f64 <= 0.125, "v={v} width={width}");
        }
    }

    #[test]
    fn percentiles_and_max() {
        let mut h = LatencyHist::new();
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max_ns(), 100_000);
        let p50 = h.percentile_ns(50.0);
        let (lo, hi) = LatencyHist::bucket_bounds(LatencyHist::bucket_index(50_000));
        assert!(p50 >= lo && p50 <= hi, "p50={p50} not in [{lo},{hi}]");
        assert_eq!(h.percentile_ns(100.0), 100_000);
        assert!(h.percentile_ns(0.0) >= 1000);
    }

    #[test]
    fn merge_matches_union() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut u = LatencyHist::new();
        for v in [3u64, 900, 12_000, 1 << 30] {
            a.record(v);
            u.record(v);
        }
        for v in [0u64, 900, 77, u64::MAX] {
            b.record(v);
            u.record(v);
        }
        a.merge(&b);
        assert_eq!(a, u);
    }

    /// Three deterministic sample tapes with different shapes, plus a
    /// histogram pre-loaded to the saturation boundary.
    fn merge_fixtures() -> [LatencyHist; 4] {
        let mut a = LatencyHist::new();
        for v in [3u64, 900, 12_000, 1 << 30] {
            a.record(v);
        }
        let mut b = LatencyHist::new();
        for v in [0u64, 900, 77, u64::MAX] {
            b.record(v);
        }
        let mut c = LatencyHist::new();
        for v in 1..=50u64 {
            c.record(v * 333);
        }
        // Near-saturated: one bucket and the totals pinned just below MAX,
        // so any further merge crosses the boundary.
        let sat = LatencyHist::from_parts(
            [(LatencyHist::bucket_index(900), u64::MAX - 1)],
            u128::MAX - 1,
            u64::MAX,
        );
        [a, b, c, sat]
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        for h in merge_fixtures() {
            let empty = LatencyHist::new();
            let mut lhs = h.clone();
            lhs.merge(&empty);
            assert_eq!(lhs, h, "h.merge(empty) must leave h unchanged");
            let mut rhs = LatencyHist::new();
            rhs.merge(&h);
            assert_eq!(rhs, h, "empty.merge(h) must equal h");
        }
    }

    #[test]
    fn merge_is_commutative() {
        let fx = merge_fixtures();
        for x in &fx {
            for y in &fx {
                let mut xy = x.clone();
                xy.merge(y);
                let mut yx = y.clone();
                yx.merge(x);
                assert_eq!(xy, yx);
            }
        }
    }

    #[test]
    fn merge_is_associative() {
        let fx = merge_fixtures();
        for x in &fx {
            for y in &fx {
                for z in &fx {
                    let mut left = x.clone();
                    left.merge(y);
                    left.merge(z);
                    let mut yz = y.clone();
                    yz.merge(z);
                    let mut right = x.clone();
                    right.merge(&yz);
                    assert_eq!(left, right);
                }
            }
        }
    }

    #[test]
    fn merge_saturates_at_bucket_max_instead_of_wrapping() {
        let b = LatencyHist::bucket_index(900);
        let sat = LatencyHist::from_parts([(b, u64::MAX - 1)], u128::MAX - 1, u64::MAX);
        let mut two = LatencyHist::new();
        two.record(900);
        two.record(900);
        let mut m = sat.clone();
        m.merge(&two);
        assert_eq!(m.bucket_counts()[b], u64::MAX);
        assert_eq!(m.count(), u64::MAX);
        assert_eq!(m.max_ns(), u64::MAX);
        // Recording into a pinned histogram saturates too.
        m.record(900);
        assert_eq!(m.bucket_counts()[b], u64::MAX);
        assert_eq!(m.count(), u64::MAX);
    }

    #[test]
    fn from_parts_roundtrips_bucket_counts() {
        let mut h = LatencyHist::new();
        for v in [5u64, 900, 900, 1 << 20] {
            h.record(v);
        }
        let sparse: Vec<(usize, u64)> = h
            .bucket_counts()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (b, c))
            .collect();
        let r = LatencyHist::from_parts(sparse, 5 + 900 + 900 + (1u128 << 20), 1 << 20);
        assert_eq!(r, h);
        // Out-of-range indices are skipped, not a panic.
        let odd = LatencyHist::from_parts([(N_BUCKETS, 7), (N_BUCKETS + 40, 1)], 0, 0);
        assert!(odd.is_empty());
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = LatencyHist::new();
        assert_eq!(h.percentile_ns(50.0), 0);
        assert_eq!(h.summary(), StageSummary::default());
    }
}
