//! Application use cases.
//!
//! A [`UseCase`] is the input to the Fig. 1 pipeline: the decomposed
//! application with its assets, entry points, declared operating modes and
//! identified threats. [`UseCaseBuilder::build`] validates referential
//! integrity (every threat must reference declared assets, entry points and
//! modes) so later stages can index without checking.

use crate::asset::{Asset, AssetId};
use crate::entry_point::{EntryPoint, EntryPointId};
use crate::error::ModelError;
use crate::mode::OperatingMode;
use crate::threat::{Threat, ThreatId};
use std::collections::BTreeSet;

/// A validated application use case.
#[derive(Debug, Clone, PartialEq)]
pub struct UseCase {
    name: String,
    description: String,
    assets: Vec<Asset>,
    entry_points: Vec<EntryPoint>,
    modes: Vec<OperatingMode>,
    threats: Vec<Threat>,
}

impl UseCase {
    /// Starts building a use case.
    pub fn builder(name: impl Into<String>) -> UseCaseBuilder {
        UseCaseBuilder {
            name: name.into(),
            description: String::new(),
            assets: Vec::new(),
            entry_points: Vec::new(),
            modes: Vec::new(),
            threats: Vec::new(),
        }
    }

    /// The use case name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The description (may be empty).
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Declared assets.
    pub fn assets(&self) -> &[Asset] {
        &self.assets
    }

    /// Declared entry points.
    pub fn entry_points(&self) -> &[EntryPoint] {
        &self.entry_points
    }

    /// Declared operating modes.
    pub fn modes(&self) -> &[OperatingMode] {
        &self.modes
    }

    /// Identified threats.
    pub fn threats(&self) -> &[Threat] {
        &self.threats
    }

    /// Looks up an asset by id.
    pub fn asset(&self, id: &AssetId) -> Option<&Asset> {
        self.assets.iter().find(|a| a.id() == id)
    }

    /// Looks up an entry point by id.
    pub fn entry_point(&self, id: &EntryPointId) -> Option<&EntryPoint> {
        self.entry_points.iter().find(|e| e.id() == id)
    }

    /// Looks up a threat by id.
    pub fn threat(&self, id: &ThreatId) -> Option<&Threat> {
        self.threats.iter().find(|t| t.id() == id)
    }

    /// Threats against a given asset.
    pub fn threats_against<'a>(&'a self, id: &'a AssetId) -> impl Iterator<Item = &'a Threat> {
        self.threats.iter().filter(move |t| t.asset() == id)
    }

    /// Threats ordered by descending DREAD rating (prioritisation order).
    pub fn threats_by_risk(&self) -> Vec<&Threat> {
        let mut v: Vec<&Threat> = self.threats.iter().collect();
        v.sort_by(|a, b| b.dread().cmp(&a.dread()).then_with(|| a.id().cmp(b.id())));
        v
    }
}

/// Builder for [`UseCase`] with validation at `build`.
///
/// # Example
/// ```
/// use polsec_model::{Asset, Criticality, EntryPoint, InterfaceKind, UseCase};
///
/// let uc = UseCase::builder("demo")
///     .asset(Asset::new("ecu", "ECU", Criticality::High))
///     .entry_point(EntryPoint::new("can", "CAN bus", InterfaceKind::Bus))
///     .mode("normal")
///     .build()?;
/// assert_eq!(uc.assets().len(), 1);
/// # Ok::<(), polsec_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct UseCaseBuilder {
    name: String,
    description: String,
    assets: Vec<Asset>,
    entry_points: Vec<EntryPoint>,
    modes: Vec<OperatingMode>,
    threats: Vec<Threat>,
}

impl UseCaseBuilder {
    /// Sets the description.
    pub fn description(mut self, d: impl Into<String>) -> Self {
        self.description = d.into();
        self
    }

    /// Declares an asset.
    pub fn asset(mut self, a: Asset) -> Self {
        self.assets.push(a);
        self
    }

    /// Declares an entry point.
    pub fn entry_point(mut self, e: EntryPoint) -> Self {
        self.entry_points.push(e);
        self
    }

    /// Declares an operating mode.
    pub fn mode(mut self, m: impl Into<OperatingMode>) -> Self {
        self.modes.push(m.into());
        self
    }

    /// Records an identified threat.
    pub fn threat(mut self, t: Threat) -> Self {
        self.threats.push(t);
        self
    }

    /// Validates and finishes the use case.
    ///
    /// # Errors
    /// * [`ModelError::NoAssets`] — no assets declared;
    /// * [`ModelError::DuplicateId`] — repeated asset/entry-point/threat ids;
    /// * [`ModelError::UnknownAsset`] / [`ModelError::UnknownEntryPoint`] /
    ///   [`ModelError::UnknownMode`] — a threat referencing undeclared parts;
    /// * [`ModelError::NoEntryPoints`] — a threat listing no entry points.
    pub fn build(self) -> Result<UseCase, ModelError> {
        if self.assets.is_empty() {
            return Err(ModelError::NoAssets);
        }
        let mut asset_ids = BTreeSet::new();
        for a in &self.assets {
            if !asset_ids.insert(a.id().clone()) {
                return Err(ModelError::DuplicateId {
                    kind: "asset",
                    id: a.id().to_string(),
                });
            }
        }
        let mut ep_ids = BTreeSet::new();
        for e in &self.entry_points {
            if !ep_ids.insert(e.id().clone()) {
                return Err(ModelError::DuplicateId {
                    kind: "entry point",
                    id: e.id().to_string(),
                });
            }
        }
        let mode_set: BTreeSet<&OperatingMode> = self.modes.iter().collect();
        let mut threat_ids = BTreeSet::new();
        for t in &self.threats {
            if !threat_ids.insert(t.id().clone()) {
                return Err(ModelError::DuplicateId {
                    kind: "threat",
                    id: t.id().to_string(),
                });
            }
            if !asset_ids.contains(t.asset()) {
                return Err(ModelError::UnknownAsset {
                    id: t.asset().to_string(),
                });
            }
            if t.entry_points().is_empty() {
                return Err(ModelError::NoEntryPoints {
                    threat: t.id().to_string(),
                });
            }
            for ep in t.entry_points() {
                if !ep_ids.contains(ep) {
                    return Err(ModelError::UnknownEntryPoint { id: ep.to_string() });
                }
            }
            for m in t.modes() {
                if !mode_set.contains(m) {
                    return Err(ModelError::UnknownMode {
                        name: m.name().to_string(),
                    });
                }
            }
        }
        Ok(UseCase {
            name: self.name,
            description: self.description,
            assets: self.assets,
            entry_points: self.entry_points,
            modes: self.modes,
            threats: self.threats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asset::Criticality;
    use crate::countermeasure::PermissionHint;
    use crate::dread::DreadScore;
    use crate::entry_point::InterfaceKind;

    fn minimal() -> UseCaseBuilder {
        UseCase::builder("test")
            .asset(Asset::new("ecu", "ECU", Criticality::High))
            .entry_point(EntryPoint::new("can", "CAN", InterfaceKind::Bus))
            .mode("normal")
    }

    fn threat(id: &str) -> Threat {
        Threat::builder(id, "spoof")
            .asset("ecu")
            .entry_point("can")
            .stride("S".parse().unwrap())
            .dread(DreadScore::new(5, 5, 5, 5, 5).unwrap())
            .mode("normal")
            .policy(PermissionHint::Read)
            .build()
    }

    #[test]
    fn valid_use_case_builds() {
        let uc = minimal().threat(threat("t1")).build().unwrap();
        assert_eq!(uc.name(), "test");
        assert_eq!(uc.threats().len(), 1);
        assert!(uc.asset(&AssetId::new("ecu")).is_some());
        assert!(uc.entry_point(&EntryPointId::new("can")).is_some());
        assert!(uc.threat(&ThreatId::new("t1")).is_some());
    }

    #[test]
    fn no_assets_rejected() {
        let err = UseCase::builder("x").build().unwrap_err();
        assert_eq!(err, ModelError::NoAssets);
    }

    #[test]
    fn duplicate_asset_rejected() {
        let err = minimal()
            .asset(Asset::new("ecu", "ECU again", Criticality::Low))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::DuplicateId { kind: "asset", .. }));
    }

    #[test]
    fn duplicate_entry_point_rejected() {
        let err = minimal()
            .entry_point(EntryPoint::new("can", "CAN2", InterfaceKind::Bus))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::DuplicateId { kind: "entry point", .. }));
    }

    #[test]
    fn duplicate_threat_rejected() {
        let err = minimal()
            .threat(threat("t1"))
            .threat(threat("t1"))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::DuplicateId { kind: "threat", .. }));
    }

    #[test]
    fn dangling_asset_reference_rejected() {
        let t = Threat::builder("t1", "x")
            .asset("ghost")
            .entry_point("can")
            .build();
        let err = minimal().threat(t).build().unwrap_err();
        assert_eq!(err, ModelError::UnknownAsset { id: "ghost".into() });
    }

    #[test]
    fn dangling_entry_point_rejected() {
        let t = Threat::builder("t1", "x")
            .asset("ecu")
            .entry_point("ghost")
            .build();
        let err = minimal().threat(t).build().unwrap_err();
        assert_eq!(err, ModelError::UnknownEntryPoint { id: "ghost".into() });
    }

    #[test]
    fn dangling_mode_rejected() {
        let t = Threat::builder("t1", "x")
            .asset("ecu")
            .entry_point("can")
            .mode("warp")
            .build();
        let err = minimal().threat(t).build().unwrap_err();
        assert_eq!(err, ModelError::UnknownMode { name: "warp".into() });
    }

    #[test]
    fn threat_without_entry_points_rejected() {
        let t = Threat::builder("t1", "x").asset("ecu").build();
        let err = minimal().threat(t).build().unwrap_err();
        assert_eq!(err, ModelError::NoEntryPoints { threat: "t1".into() });
    }

    #[test]
    fn threats_by_risk_sorts_descending() {
        let t_low = Threat::builder("low", "x")
            .asset("ecu")
            .entry_point("can")
            .dread(DreadScore::new(1, 1, 1, 1, 1).unwrap())
            .build();
        let t_high = Threat::builder("high", "y")
            .asset("ecu")
            .entry_point("can")
            .dread(DreadScore::new(9, 9, 9, 9, 9).unwrap())
            .build();
        let uc = minimal().threat(t_low).threat(t_high).build().unwrap();
        let ordered = uc.threats_by_risk();
        assert_eq!(ordered[0].id().as_str(), "high");
        assert_eq!(ordered[1].id().as_str(), "low");
    }

    #[test]
    fn threats_against_filters_by_asset() {
        let uc = minimal()
            .asset(Asset::new("eps", "EPS", Criticality::SafetyCritical))
            .threat(threat("t1"))
            .build()
            .unwrap();
        assert_eq!(uc.threats_against(&AssetId::new("ecu")).count(), 1);
        assert_eq!(uc.threats_against(&AssetId::new("eps")).count(), 0);
    }
}
