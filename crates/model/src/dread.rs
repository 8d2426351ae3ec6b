//! DREAD risk rating.
//!
//! DREAD quantifies a threat along five axes, each scored 0–10:
//! **D**amage potential, **R**eproducibility, **E**xploitability,
//! **A**ffected users, **D**iscoverability. The paper's Table I reports a
//! five-component vector plus its arithmetic mean, e.g. `8,5,4,6,4 (5.4)`;
//! [`DreadScore`] reproduces that exact notation and arithmetic.

use crate::error::ModelError;
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// Maximum value of each DREAD component.
pub const MAX_COMPONENT: u8 = 10;

/// A validated DREAD score vector.
///
/// # Example
/// ```
/// use polsec_model::DreadScore;
/// let d = DreadScore::new(8, 6, 7, 8, 5)?; // lock-during-accident row
/// assert!((d.average() - 6.8).abs() < 1e-9);
/// assert_eq!(d.to_string(), "8,6,7,8,5 (6.8)");
/// # Ok::<(), polsec_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DreadScore {
    damage: u8,
    reproducibility: u8,
    exploitability: u8,
    affected_users: u8,
    discoverability: u8,
}

impl DreadScore {
    /// Creates a score vector, validating each component against the 0–10
    /// scale.
    ///
    /// # Errors
    /// [`ModelError::ScoreOutOfRange`] naming the offending component.
    pub fn new(
        damage: u8,
        reproducibility: u8,
        exploitability: u8,
        affected_users: u8,
        discoverability: u8,
    ) -> Result<Self, ModelError> {
        for (component, value) in [
            ("damage", damage),
            ("reproducibility", reproducibility),
            ("exploitability", exploitability),
            ("affected users", affected_users),
            ("discoverability", discoverability),
        ] {
            if value > MAX_COMPONENT {
                return Err(ModelError::ScoreOutOfRange { component, value });
            }
        }
        Ok(DreadScore {
            damage,
            reproducibility,
            exploitability,
            affected_users,
            discoverability,
        })
    }

    /// Damage potential (0–10).
    pub fn damage(self) -> u8 {
        self.damage
    }

    /// Reproducibility (0–10).
    pub fn reproducibility(self) -> u8 {
        self.reproducibility
    }

    /// Exploitability (0–10).
    pub fn exploitability(self) -> u8 {
        self.exploitability
    }

    /// Affected users (0–10).
    pub fn affected_users(self) -> u8 {
        self.affected_users
    }

    /// Discoverability (0–10).
    pub fn discoverability(self) -> u8 {
        self.discoverability
    }

    /// The components as an array in D,R,E,A,D order.
    pub fn components(self) -> [u8; 5] {
        [
            self.damage,
            self.reproducibility,
            self.exploitability,
            self.affected_users,
            self.discoverability,
        ]
    }

    /// The arithmetic mean of the five components — the parenthesised value
    /// in Table I.
    pub fn average(self) -> f64 {
        self.components().iter().map(|&v| v as f64).sum::<f64>() / 5.0
    }

    /// The average rounded to one decimal, as printed in the paper.
    pub fn average_1dp(self) -> f64 {
        (self.average() * 10.0).round() / 10.0
    }

    /// The qualitative rating band of the average.
    pub fn rating(self) -> RiskRating {
        RiskRating::from_average(self.average())
    }

    /// Likelihood proxy: mean of reproducibility, exploitability and
    /// discoverability (how easy the attack is to find and perform).
    pub fn likelihood_score(self) -> f64 {
        (self.reproducibility as f64 + self.exploitability as f64 + self.discoverability as f64)
            / 3.0
    }

    /// Impact proxy: mean of damage and affected users.
    pub fn impact_score(self) -> f64 {
        (self.damage as f64 + self.affected_users as f64) / 2.0
    }
}

impl PartialOrd for DreadScore {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DreadScore {
    /// Orders by average risk, tie-broken by damage then the full vector —
    /// a total order so threat lists sort deterministically.
    fn cmp(&self, other: &Self) -> Ordering {
        let a = self.components().iter().map(|&v| v as u16).sum::<u16>();
        let b = other.components().iter().map(|&v| v as u16).sum::<u16>();
        a.cmp(&b)
            .then_with(|| self.damage.cmp(&other.damage))
            .then_with(|| self.components().cmp(&other.components()))
    }
}

impl fmt::Display for DreadScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{},{},{},{},{} ({:.1})",
            self.damage,
            self.reproducibility,
            self.exploitability,
            self.affected_users,
            self.discoverability,
            self.average_1dp()
        )
    }
}

impl FromStr for DreadScore {
    type Err = ModelError;

    /// Parses `"8,5,4,6,4"` or the full Table I form `"8,5,4,6,4 (5.4)"`
    /// (the parenthesised average, when present, is recomputed and ignored).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let head = s.split('(').next().unwrap_or("").trim();
        let parts: Vec<&str> = head.split(',').map(str::trim).collect();
        if parts.len() != 5 {
            return Err(ModelError::ScoreOutOfRange { component: "vector length", value: parts.len() as u8 });
        }
        let mut vals = [0u8; 5];
        for (i, p) in parts.iter().enumerate() {
            vals[i] = p
                .parse::<u8>()
                .map_err(|_| ModelError::ScoreOutOfRange { component: "component", value: u8::MAX })?;
        }
        DreadScore::new(vals[0], vals[1], vals[2], vals[3], vals[4])
    }
}

/// Qualitative risk bands over the DREAD average.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RiskRating {
    /// Average below 3.
    Low,
    /// Average in `[3, 5)`.
    Medium,
    /// Average in `[5, 7)`.
    High,
    /// Average 7 or above.
    Critical,
}

impl RiskRating {
    /// Classifies an average into a band.
    pub fn from_average(avg: f64) -> Self {
        if avg >= 7.0 {
            RiskRating::Critical
        } else if avg >= 5.0 {
            RiskRating::High
        } else if avg >= 3.0 {
            RiskRating::Medium
        } else {
            RiskRating::Low
        }
    }
}

impl fmt::Display for RiskRating {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RiskRating::Low => "low",
            RiskRating::Medium => "medium",
            RiskRating::High => "high",
            RiskRating::Critical => "critical",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every DREAD vector in Table I of the paper with its printed average.
    pub const PAPER_ROWS: [([u8; 5], f64); 14] = [
        ([8, 5, 4, 6, 4], 5.4),
        ([6, 3, 3, 6, 4], 4.4),
        ([5, 5, 5, 7, 6], 5.6),
        ([5, 5, 5, 6, 7], 5.6),
        ([6, 5, 4, 7, 5], 5.4),
        ([7, 5, 5, 9, 4], 6.0),
        ([7, 5, 5, 6, 5], 5.6),
        ([6, 6, 7, 8, 6], 6.6),
        ([7, 5, 6, 8, 6], 6.4),
        ([3, 5, 6, 4, 5], 4.6),
        ([8, 5, 3, 8, 5], 5.8),
        ([8, 6, 7, 8, 5], 6.8),
        ([7, 4, 5, 8, 4], 5.6),
        ([9, 4, 5, 9, 4], 6.2),
    ];

    #[test]
    fn paper_averages_reproduce_exactly() {
        for (v, expected) in PAPER_ROWS {
            let d = DreadScore::new(v[0], v[1], v[2], v[3], v[4]).unwrap();
            assert!(
                (d.average_1dp() - expected).abs() < 1e-9,
                "vector {v:?}: got {} expected {expected}",
                d.average_1dp()
            );
        }
    }

    #[test]
    fn component_validation() {
        assert!(DreadScore::new(10, 10, 10, 10, 10).is_ok());
        let err = DreadScore::new(11, 0, 0, 0, 0).unwrap_err();
        assert_eq!(err, ModelError::ScoreOutOfRange { component: "damage", value: 11 });
        let err = DreadScore::new(0, 0, 0, 0, 12).unwrap_err();
        assert_eq!(
            err,
            ModelError::ScoreOutOfRange { component: "discoverability", value: 12 }
        );
    }

    #[test]
    fn accessors_and_components() {
        let d = DreadScore::new(1, 2, 3, 4, 5).unwrap();
        assert_eq!(d.damage(), 1);
        assert_eq!(d.reproducibility(), 2);
        assert_eq!(d.exploitability(), 3);
        assert_eq!(d.affected_users(), 4);
        assert_eq!(d.discoverability(), 5);
        assert_eq!(d.components(), [1, 2, 3, 4, 5]);
        assert!((d.average() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_matches_paper_notation() {
        let d = DreadScore::new(8, 5, 4, 6, 4).unwrap();
        assert_eq!(d.to_string(), "8,5,4,6,4 (5.4)");
        let d2 = DreadScore::new(7, 5, 5, 9, 4).unwrap();
        assert_eq!(d2.to_string(), "7,5,5,9,4 (6.0)");
    }

    #[test]
    fn parse_round_trip() {
        for (v, _) in PAPER_ROWS {
            let d = DreadScore::new(v[0], v[1], v[2], v[3], v[4]).unwrap();
            let parsed: DreadScore = d.to_string().parse().unwrap();
            assert_eq!(parsed, d);
            // bare vector also parses
            let bare: DreadScore = format!("{},{},{},{},{}", v[0], v[1], v[2], v[3], v[4])
                .parse()
                .unwrap();
            assert_eq!(bare, d);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!("1,2,3,4".parse::<DreadScore>().is_err());
        assert!("1,2,3,4,5,6".parse::<DreadScore>().is_err());
        assert!("a,b,c,d,e".parse::<DreadScore>().is_err());
        assert!("1,2,3,4,99".parse::<DreadScore>().is_err());
    }

    #[test]
    fn rating_bands() {
        assert_eq!(RiskRating::from_average(0.0), RiskRating::Low);
        assert_eq!(RiskRating::from_average(2.99), RiskRating::Low);
        assert_eq!(RiskRating::from_average(3.0), RiskRating::Medium);
        assert_eq!(RiskRating::from_average(4.99), RiskRating::Medium);
        assert_eq!(RiskRating::from_average(5.0), RiskRating::High);
        assert_eq!(RiskRating::from_average(6.99), RiskRating::High);
        assert_eq!(RiskRating::from_average(7.0), RiskRating::Critical);
        assert_eq!(RiskRating::from_average(10.0), RiskRating::Critical);
    }

    #[test]
    fn all_paper_threats_rate_medium_or_high() {
        // sanity check matching the paper: averages range 4.4–6.8
        for (v, _) in PAPER_ROWS {
            let d = DreadScore::new(v[0], v[1], v[2], v[3], v[4]).unwrap();
            assert!(matches!(d.rating(), RiskRating::Medium | RiskRating::High));
        }
    }

    #[test]
    fn ordering_by_total_risk() {
        let low = DreadScore::new(1, 1, 1, 1, 1).unwrap();
        let high = DreadScore::new(9, 9, 9, 9, 9).unwrap();
        assert!(low < high);
        let mut v = [high, low];
        v.sort();
        assert_eq!(v[0], low);
    }

    #[test]
    fn ordering_is_total_with_ties() {
        // same sum, different damage: higher damage sorts later
        let a = DreadScore::new(2, 8, 0, 0, 0).unwrap();
        let b = DreadScore::new(8, 2, 0, 0, 0).unwrap();
        assert!(a < b);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn likelihood_and_impact_proxies() {
        let d = DreadScore::new(9, 3, 3, 9, 3).unwrap();
        assert!((d.likelihood_score() - 3.0).abs() < 1e-12);
        assert!((d.impact_score() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn rating_band_display() {
        assert_eq!(RiskRating::High.to_string(), "high");
        assert_eq!(RiskRating::Critical.to_string(), "critical");
    }
}
