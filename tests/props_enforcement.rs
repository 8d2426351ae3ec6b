//! Property-based tests spanning the enforcement crates: HPE id/mask cover
//! soundness and DREAD invariants.

use polsec::hpe::synthesize_id_mask_cover;
use polsec::model::{DreadScore, RiskRating, StrideSet};
use proptest::prelude::*;

proptest! {
    #[test]
    fn id_mask_cover_is_exact(a in 0u32..=0x7FF, b in 0u32..=0x7FF) {
        // soundness AND completeness: the cover admits exactly [lo, hi]
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let pairs = synthesize_id_mask_cover(lo, hi);
        for x in 0..=0x7FFu32 {
            let covered = pairs.iter().any(|(id, mask)| x & mask == id & mask);
            prop_assert_eq!(
                covered,
                (lo..=hi).contains(&x),
                "id 0x{:X} mis-covered for range 0x{:X}-0x{:X}", x, lo, hi
            );
        }
    }

    #[test]
    fn id_mask_cover_size_is_logarithmic(a in 0u32..=0x7FF, b in 0u32..=0x7FF) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let pairs = synthesize_id_mask_cover(lo, hi);
        // classic bound: at most 2·(width−1) blocks for any interval
        prop_assert!(pairs.len() <= 20, "{} entries for 0x{:X}-0x{:X}", pairs.len(), lo, hi);
    }

    #[test]
    fn dread_average_is_bounded_and_monotone(
        d in 0u8..=10, r in 0u8..=10, e in 0u8..=10, a in 0u8..=10, di in 0u8..=10
    ) {
        let score = DreadScore::new(d, r, e, a, di).expect("components in range");
        let avg = score.average();
        prop_assert!((0.0..=10.0).contains(&avg));
        let min = *[d, r, e, a, di].iter().min().expect("non-empty") as f64;
        let max = *[d, r, e, a, di].iter().max().expect("non-empty") as f64;
        prop_assert!(min <= avg && avg <= max);
        // raising one component never lowers the average
        if d < 10 {
            let higher = DreadScore::new(d + 1, r, e, a, di).expect("in range");
            prop_assert!(higher.average() > score.average());
        }
    }

    #[test]
    fn dread_rating_bands_are_monotone(
        x in 0u8..=10, y in 0u8..=10
    ) {
        let lo = x.min(y);
        let hi = x.max(y);
        let low = DreadScore::new(lo, lo, lo, lo, lo).expect("in range");
        let high = DreadScore::new(hi, hi, hi, hi, hi).expect("in range");
        prop_assert!(low.rating() <= high.rating());
        prop_assert!(matches!(
            low.rating(),
            RiskRating::Low | RiskRating::Medium | RiskRating::High | RiskRating::Critical
        ));
    }

    #[test]
    fn stride_round_trips_any_subset(bits in 0u8..64) {
        use polsec::model::StrideCategory;
        let mut set = StrideSet::EMPTY;
        for (i, c) in StrideCategory::ALL.iter().enumerate() {
            if bits & (1 << i) != 0 {
                set.insert(*c);
            }
        }
        prop_assume!(!set.is_empty());
        let parsed: StrideSet = set.to_string().parse().expect("canonical form parses");
        prop_assert_eq!(parsed, set);
    }
}
