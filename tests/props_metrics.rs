//! Property-based tests for the metric reduction: merging shard sets gives
//! the same result in any order or grouping, and bucketed quantiles stay
//! within their stated error of the exact nearest-rank value.

use polsec::sim::{Histogram, MetricSet};
use proptest::prelude::*;

/// Small fixed key pools so generated sets overlap (merging disjoint sets
/// never exercises the interesting paths).
const COUNTER_KEYS: [&str; 4] = ["frames", "attack.leaked", "plane.sent", "ota.applied"];
const HISTOGRAM_KEYS: [&str; 3] = ["verdict_ns", "inbox.digest", "wall.decide_ns"];

/// One shard's worth of metrics: a few counters and histogram samples
/// drawn from the shared pools, over the whole `u64` range.
fn arb_metric_set() -> impl Strategy<Value = MetricSet> {
    let counters = prop::collection::vec((0usize..COUNTER_KEYS.len(), 0u64..1_000), 0..6);
    let samples = prop::collection::vec((0usize..HISTOGRAM_KEYS.len(), any::<u64>()), 0..12);
    (counters, samples).prop_map(|(counters, samples)| {
        let mut m = MetricSet::new();
        for (k, n) in counters {
            m.count(COUNTER_KEYS[k], n);
        }
        for (k, v) in samples {
            m.observe(HISTOGRAM_KEYS[k], v >> (v % 64));
        }
        m
    })
}

fn fold<'a>(sets: impl IntoIterator<Item = &'a MetricSet>) -> MetricSet {
    let mut acc = MetricSet::new();
    for set in sets {
        acc.merge(set);
    }
    acc
}

proptest! {
    #[test]
    fn merge_order_and_grouping_never_change_the_result(
        sets in prop::collection::vec(arb_metric_set(), 0..17),
        split in 0usize..17,
    ) {
        let reference = fold(&sets).to_json();
        prop_assert_eq!(fold(sets.iter().rev()).to_json(), reference.clone(), "reversed");
        // Two partial folds merged in swapped order, as the workers' sets
        // are at a join.
        let split = split.min(sets.len());
        let mut grouped = fold(&sets[split..]);
        grouped.merge(&fold(&sets[..split]));
        prop_assert_eq!(grouped.to_json(), reference, "grouped at {}", split);
    }

    #[test]
    fn quantiles_stay_within_bucket_error_and_range(
        raw in prop::collection::vec(any::<u64>(), 1..200),
        permille in 0u32..=1000,
    ) {
        let q = f64::from(permille) / 1000.0;
        // Shifting by `v % 64` spreads the samples over every power of two,
        // some of them below 64.
        let mut samples: Vec<u64> = raw.iter().map(|v| v >> (v % 64)).collect();
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let exact = samples[rank - 1];
        let got = h.quantile(q).expect("non-empty");
        let (min, max) = (samples[0], samples[samples.len() - 1]);
        prop_assert!(min <= got && got <= max, "{} outside [{}, {}]", got, min, max);
        if exact < 64 {
            prop_assert_eq!(got, exact);
        } else {
            prop_assert!(
                got.abs_diff(exact) <= exact / 64,
                "p{} = {} but the nearest-rank value is {}",
                q,
                got,
                exact
            );
        }
        prop_assert_eq!(h.sum(), samples.iter().map(|&v| u128::from(v)).sum::<u128>());
    }
}
