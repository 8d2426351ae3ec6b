//! Threats.
//!
//! A [`Threat`] ties together everything one row of the paper's Table I
//! records: the targeted asset, the entry points that expose it, the STRIDE
//! categorisation, the DREAD rating, the operating modes in which the threat
//! applies, and the derived permission policy.

use crate::asset::AssetId;
use crate::countermeasure::PermissionHint;
use crate::dread::DreadScore;
use crate::entry_point::EntryPointId;
use crate::mode::OperatingMode;
use crate::stride::StrideSet;
use std::fmt;

/// A stable identifier for a threat.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreatId(String);

impl ThreatId {
    /// Creates an identifier.
    pub fn new(id: impl Into<String>) -> Self {
        ThreatId(id.into())
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ThreatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ThreatId {
    fn from(s: &str) -> Self {
        ThreatId::new(s)
    }
}

/// One identified threat against an asset.
///
/// # Example
/// ```
/// use polsec_model::{DreadScore, PermissionHint, Threat};
///
/// let t = Threat::builder("ecu-spoof", "Spoofed data over CAN bus causing disablement of ECU")
///     .asset("ev-ecu")
///     .entry_point("sensors")
///     .stride("STD".parse()?)
///     .dread(DreadScore::new(8, 5, 4, 6, 4)?)
///     .mode("normal")
///     .policy(PermissionHint::Read)
///     .build();
/// assert_eq!(t.dread().average_1dp(), 5.4);
/// # Ok::<(), polsec_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Threat {
    id: ThreatId,
    description: String,
    asset: AssetId,
    entry_points: Vec<EntryPointId>,
    stride: StrideSet,
    dread: DreadScore,
    modes: Vec<OperatingMode>,
    policy: PermissionHint,
}

impl Threat {
    /// Starts building a threat.
    pub fn builder(id: impl Into<ThreatId>, description: impl Into<String>) -> ThreatBuilder {
        ThreatBuilder {
            id: id.into(),
            description: description.into(),
            asset: AssetId::new("unspecified"),
            entry_points: Vec::new(),
            stride: StrideSet::EMPTY,
            dread: DreadScore::new(0, 0, 0, 0, 0).expect("zero scores are valid"),
            modes: Vec::new(),
            policy: PermissionHint::Read,
        }
    }

    /// The threat identifier.
    pub fn id(&self) -> &ThreatId {
        &self.id
    }

    /// The threat description ("Potential Threats" column).
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The targeted asset.
    pub fn asset(&self) -> &AssetId {
        &self.asset
    }

    /// The exposing entry points.
    pub fn entry_points(&self) -> &[EntryPointId] {
        &self.entry_points
    }

    /// The STRIDE categorisation.
    pub fn stride(&self) -> StrideSet {
        self.stride
    }

    /// The DREAD rating.
    pub fn dread(&self) -> DreadScore {
        self.dread
    }

    /// Modes in which the threat applies (empty = all modes).
    pub fn modes(&self) -> &[OperatingMode] {
        &self.modes
    }

    /// Whether the threat applies in `mode`.
    pub fn applies_in(&self, mode: &OperatingMode) -> bool {
        self.modes.is_empty() || self.modes.contains(mode)
    }

    /// The derived permission policy ("Policy" column).
    pub fn policy(&self) -> PermissionHint {
        self.policy
    }
}

impl fmt::Display for Threat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} → {} | {} | {} | {}",
            self.id, self.description, self.asset, self.stride, self.dread, self.policy
        )
    }
}

/// Builder for [`Threat`].
#[derive(Debug, Clone)]
pub struct ThreatBuilder {
    id: ThreatId,
    description: String,
    asset: AssetId,
    entry_points: Vec<EntryPointId>,
    stride: StrideSet,
    dread: DreadScore,
    modes: Vec<OperatingMode>,
    policy: PermissionHint,
}

impl ThreatBuilder {
    /// Sets the targeted asset.
    pub fn asset(mut self, id: impl Into<AssetId>) -> Self {
        self.asset = id.into();
        self
    }

    /// Adds an exposing entry point.
    pub fn entry_point(mut self, id: impl Into<EntryPointId>) -> Self {
        self.entry_points.push(id.into());
        self
    }

    /// Sets the STRIDE categorisation.
    pub fn stride(mut self, s: StrideSet) -> Self {
        self.stride = s;
        self
    }

    /// Sets the DREAD rating.
    pub fn dread(mut self, d: DreadScore) -> Self {
        self.dread = d;
        self
    }

    /// Adds an applicable operating mode.
    pub fn mode(mut self, m: impl Into<OperatingMode>) -> Self {
        self.modes.push(m.into());
        self
    }

    /// Sets the derived permission policy.
    pub fn policy(mut self, p: PermissionHint) -> Self {
        self.policy = p;
        self
    }

    /// Finishes the threat.
    pub fn build(self) -> Threat {
        Threat {
            id: self.id,
            description: self.description,
            asset: self.asset,
            entry_points: self.entry_points,
            stride: self.stride,
            dread: self.dread,
            modes: self.modes,
            policy: self.policy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Threat {
        Threat::builder("t1", "EPS deactivation through compromised CAN node")
            .asset("eps")
            .entry_point("any-node")
            .stride("STD".parse().unwrap())
            .dread(DreadScore::new(5, 5, 5, 6, 7).unwrap())
            .mode("normal")
            .mode("fail-safe")
            .policy(PermissionHint::Read)
            .build()
    }

    #[test]
    fn builder_populates_all_fields() {
        let t = sample();
        assert_eq!(t.id().as_str(), "t1");
        assert_eq!(t.asset().as_str(), "eps");
        assert_eq!(t.entry_points().len(), 1);
        assert_eq!(t.stride().to_string(), "STD");
        assert_eq!(t.dread().average_1dp(), 5.6);
        assert_eq!(t.modes().len(), 2);
        assert_eq!(t.policy(), PermissionHint::Read);
    }

    #[test]
    fn mode_applicability() {
        let t = sample();
        assert!(t.applies_in(&OperatingMode::new("normal")));
        assert!(t.applies_in(&OperatingMode::new("fail-safe")));
        assert!(!t.applies_in(&OperatingMode::new("remote diagnostic")));
    }

    #[test]
    fn empty_modes_means_all() {
        let t = Threat::builder("t2", "x")
            .asset("a")
            .entry_point("e")
            .build();
        assert!(t.applies_in(&OperatingMode::new("anything")));
    }

    #[test]
    fn display_contains_key_columns() {
        let s = sample().to_string();
        assert!(s.contains("eps"));
        assert!(s.contains("STD"));
        assert!(s.contains("(5.6)"));
        assert!(s.contains("| R"));
    }

    #[test]
    fn threats_sort_by_dread_via_key() {
        let mut v = vec![sample()];
        let worse = Threat::builder("t3", "lock during accident")
            .asset("door-locks")
            .entry_point("telematics")
            .dread(DreadScore::new(8, 6, 7, 8, 5).unwrap())
            .build();
        v.push(worse);
        v.sort_by_key(|t| std::cmp::Reverse(t.dread()));
        assert_eq!(v[0].id().as_str(), "t3", "highest risk first");
    }
}
