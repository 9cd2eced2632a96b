//! Property-based tests for the log-scale latency histogram.
//!
//! Pins the three invariants campaign-level merging relies on:
//! merge-equals-union (recording two streams separately then merging is
//! indistinguishable from recording the concatenation), bucket
//! monotonicity (bucket index and bucket bounds never regress as values
//! grow), and percentile containment (a reported percentile always lies
//! within the bounds of a bucket that actually holds samples, and never
//! exceeds the exact recorded maximum).

use mmwave_telemetry::{LatencyHist, N_BUCKETS};
use proptest::prelude::*;

/// Any u64, octave-stratified: latencies span ns to minutes, so exercise
/// every magnitude rather than a uniform draw's top decade.
fn any_ns() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        64u64..100_000,
        100_000u64..10_000_000_000,
        0u64..u64::MAX,
        Just(u64::MAX),
    ]
}

fn values() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any_ns(), 0..200)
}

proptest! {
    #[test]
    fn merge_equals_union(a in values(), b in values()) {
        let mut ha = LatencyHist::new();
        let mut hb = LatencyHist::new();
        for &v in &a {
            ha.record(v);
        }
        for &v in &b {
            hb.record(v);
        }
        let mut merged = ha.clone();
        merged.merge(&hb);

        let mut union = LatencyHist::new();
        for &v in a.iter().chain(&b) {
            union.record(v);
        }
        prop_assert_eq!(merged.count(), union.count());
        prop_assert_eq!(merged.max_ns(), union.max_ns());
        prop_assert_eq!(merged.bucket_counts(), union.bucket_counts());
        prop_assert_eq!(merged.summary(), union.summary());
    }

    #[test]
    fn bucket_index_is_monotone_and_self_consistent(v in any_ns()) {
        let b = LatencyHist::bucket_index(v);
        prop_assert!(b < N_BUCKETS);
        let (lo, hi) = LatencyHist::bucket_bounds(b);
        prop_assert!(lo <= v && v <= hi, "value {v} outside bucket {b} [{lo}, {hi}]");
        // Monotone in the value: the next value never maps to an earlier
        // bucket.
        if v < u64::MAX {
            prop_assert!(LatencyHist::bucket_index(v + 1) >= b);
        }
        // Monotone in the bucket: bounds tile without overlap.
        if b + 1 < N_BUCKETS {
            let (lo_next, _) = LatencyHist::bucket_bounds(b + 1);
            prop_assert_eq!(hi + 1, lo_next);
        }
    }

    #[test]
    fn percentiles_stay_within_bucket_bounds(vs in values(), q in 0.0..1.0f64) {
        let mut h = LatencyHist::new();
        for &v in &vs {
            h.record(v);
        }
        if vs.is_empty() {
            prop_assert_eq!(h.percentile_ns(q), 0);
            return Ok(());
        }
        let p = h.percentile_ns(q);
        // Never above the exact recorded maximum...
        let max = *vs.iter().max().unwrap();
        prop_assert!(p <= max, "p{q}={p} above exact max {max}");
        // ...and always within a bucket that actually holds samples.
        let b = LatencyHist::bucket_index(p);
        let counts = h.bucket_counts();
        let nonempty = (0..N_BUCKETS).any(|i| {
            counts[i] > 0 && {
                let (lo, hi) = LatencyHist::bucket_bounds(i);
                lo <= p && p <= hi
            }
        });
        prop_assert!(nonempty, "p{q}={p} (bucket {b}) not inside any occupied bucket");
        // Quantile ordering: a higher q never reports a lower value.
        prop_assert!(h.percentile_ns(1.0) >= h.percentile_ns(q));
        prop_assert!(h.percentile_ns(q) >= h.percentile_ns(0.0));
    }

    #[test]
    fn summary_is_merge_stable_under_split(vs in values(), split in 0usize..200) {
        // Splitting one stream at any point and merging the halves is the
        // identity on every exported statistic.
        let cut = split.min(vs.len());
        let (left, right) = vs.split_at(cut);
        let mut hl = LatencyHist::new();
        let mut hr = LatencyHist::new();
        for &v in left {
            hl.record(v);
        }
        for &v in right {
            hr.record(v);
        }
        hl.merge(&hr);
        let mut whole = LatencyHist::new();
        for &v in &vs {
            whole.record(v);
        }
        prop_assert_eq!(hl.summary(), whole.summary());
        prop_assert_eq!(hl.sum_ns(), whole.sum_ns());
    }
}
