//! Risk assessment: likelihood/impact classification.
//!
//! The "Threat Rating" stage of the Fig. 1 pipeline prioritises threats "based
//! on their likelihood, risk and potential damage". This module projects the
//! five-dimensional DREAD vector onto a classic likelihood×impact risk matrix
//! so design effort can be prioritised (the same move Akatyev et al. make,
//! which the paper cites approvingly).

use crate::dread::DreadScore;
use crate::threat::Threat;
use std::fmt;

/// Qualitative likelihood derived from DREAD's reproducibility,
/// exploitability and discoverability components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Likelihood {
    /// Mean of the three likelihood components below 3.
    Rare,
    /// Mean in `[3, 5)`.
    Possible,
    /// Mean in `[5, 7)`.
    Likely,
    /// Mean 7 or above.
    AlmostCertain,
}

impl Likelihood {
    /// Classifies a DREAD score's likelihood proxy.
    pub fn from_dread(d: DreadScore) -> Self {
        let l = d.likelihood_score();
        if l >= 7.0 {
            Likelihood::AlmostCertain
        } else if l >= 5.0 {
            Likelihood::Likely
        } else if l >= 3.0 {
            Likelihood::Possible
        } else {
            Likelihood::Rare
        }
    }
}

impl fmt::Display for Likelihood {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Likelihood::Rare => "rare",
            Likelihood::Possible => "possible",
            Likelihood::Likely => "likely",
            Likelihood::AlmostCertain => "almost-certain",
        };
        f.write_str(s)
    }
}

/// Position in the 2×2 risk matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RiskQuadrant {
    /// Low likelihood, low impact — accept / best practices.
    Monitor,
    /// High likelihood, low impact — cheap mitigations.
    Mitigate,
    /// Low likelihood, high impact — contingency / fail-safe design.
    Contingency,
    /// High likelihood, high impact — top design priority.
    Priority,
}

impl fmt::Display for RiskQuadrant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RiskQuadrant::Monitor => "monitor",
            RiskQuadrant::Mitigate => "mitigate",
            RiskQuadrant::Contingency => "contingency",
            RiskQuadrant::Priority => "priority",
        };
        f.write_str(s)
    }
}

/// A likelihood×impact classifier with configurable thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskMatrix {
    /// Likelihood proxy at or above this value counts as "high likelihood".
    pub likelihood_threshold: f64,
    /// Impact proxy at or above this value counts as "high impact".
    pub impact_threshold: f64,
}

impl Default for RiskMatrix {
    fn default() -> Self {
        RiskMatrix {
            likelihood_threshold: 5.0,
            impact_threshold: 5.0,
        }
    }
}

impl RiskMatrix {
    /// Creates a matrix with default thresholds (5.0 / 5.0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies a DREAD score into a quadrant.
    pub fn classify(&self, d: DreadScore) -> RiskQuadrant {
        let high_likelihood = d.likelihood_score() >= self.likelihood_threshold;
        let high_impact = d.impact_score() >= self.impact_threshold;
        match (high_likelihood, high_impact) {
            (false, false) => RiskQuadrant::Monitor,
            (true, false) => RiskQuadrant::Mitigate,
            (false, true) => RiskQuadrant::Contingency,
            (true, true) => RiskQuadrant::Priority,
        }
    }

    /// Partitions threats into the four quadrants, preserving input order.
    pub fn partition<'a>(&self, threats: &'a [Threat]) -> [(RiskQuadrant, Vec<&'a Threat>); 4] {
        let mut out = [
            (RiskQuadrant::Priority, Vec::new()),
            (RiskQuadrant::Contingency, Vec::new()),
            (RiskQuadrant::Mitigate, Vec::new()),
            (RiskQuadrant::Monitor, Vec::new()),
        ];
        for t in threats {
            let q = self.classify(t.dread());
            for (quadrant, bucket) in &mut out {
                if *quadrant == q {
                    bucket.push(t);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(v: [u8; 5]) -> DreadScore {
        DreadScore::new(v[0], v[1], v[2], v[3], v[4]).unwrap()
    }

    #[test]
    fn likelihood_bands() {
        assert_eq!(Likelihood::from_dread(d([0, 1, 1, 0, 1])), Likelihood::Rare);
        assert_eq!(Likelihood::from_dread(d([0, 4, 4, 0, 4])), Likelihood::Possible);
        assert_eq!(Likelihood::from_dread(d([0, 6, 6, 0, 6])), Likelihood::Likely);
        assert_eq!(
            Likelihood::from_dread(d([0, 8, 8, 0, 8])),
            Likelihood::AlmostCertain
        );
    }

    #[test]
    fn quadrants_cover_all_combinations() {
        let m = RiskMatrix::new();
        // low/low
        assert_eq!(m.classify(d([1, 1, 1, 1, 1])), RiskQuadrant::Monitor);
        // high likelihood, low impact
        assert_eq!(m.classify(d([1, 9, 9, 1, 9])), RiskQuadrant::Mitigate);
        // low likelihood, high impact
        assert_eq!(m.classify(d([9, 1, 1, 9, 1])), RiskQuadrant::Contingency);
        // high/high
        assert_eq!(m.classify(d([9, 9, 9, 9, 9])), RiskQuadrant::Priority);
    }

    #[test]
    fn thresholds_are_configurable() {
        let strict = RiskMatrix {
            likelihood_threshold: 9.0,
            impact_threshold: 9.0,
        };
        assert_eq!(strict.classify(d([8, 8, 8, 8, 8])), RiskQuadrant::Monitor);
    }

    #[test]
    fn partition_buckets_threats() {
        use crate::countermeasure::PermissionHint;
        use crate::threat::Threat;
        let mk = |id: &str, v: [u8; 5]| {
            Threat::builder(id, "x")
                .asset("a")
                .entry_point("e")
                .dread(d(v))
                .policy(PermissionHint::Read)
                .build()
        };
        let threats = vec![
            mk("prio", [9, 9, 9, 9, 9]),
            mk("mon", [1, 1, 1, 1, 1]),
            mk("prio2", [8, 8, 8, 8, 8]),
        ];
        let parts = RiskMatrix::new().partition(&threats);
        let prio = parts.iter().find(|(q, _)| *q == RiskQuadrant::Priority).unwrap();
        assert_eq!(prio.1.len(), 2);
        assert_eq!(prio.1[0].id().as_str(), "prio", "input order preserved");
        let mon = parts.iter().find(|(q, _)| *q == RiskQuadrant::Monitor).unwrap();
        assert_eq!(mon.1.len(), 1);
    }

    #[test]
    fn displays() {
        assert_eq!(Likelihood::AlmostCertain.to_string(), "almost-certain");
        assert_eq!(RiskQuadrant::Priority.to_string(), "priority");
    }
}
