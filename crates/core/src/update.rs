//! Device-side policy store with signed updates and rollback.
//!
//! [`DevicePolicyStore`] models the on-device half of the paper's update
//! mechanism: it holds the active [`PolicySet`] and its version, accepts
//! [`SignedBundle`]s (verifying authenticity and version monotonicity),
//! keeps the previous set for one-step rollback, and records a bounded
//! update history for audit.
//!
//! [`DevicePolicyStore::apply`] checks an offered bundle in the order
//! tag → header → version → body, and stops at the first failure: a
//! forged bundle is rejected before its header is read, and a stale or
//! replayed one — an authentic bundle whose version does not advance the
//! store's — before any of its policies is parsed.

use crate::bundle::SignedBundle;
use crate::error::PolicyError;
use crate::policy::PolicySet;
use std::fmt;

/// Update records a [`DevicePolicyStore`] keeps: the newest this many.
/// Every rejected bundle is recorded too, so without a bound a peer
/// replaying garbage over the air would grow device memory linearly.
pub const HISTORY_LIMIT: usize = 64;

/// One entry in the device's update history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateRecord {
    /// Version installed by this event.
    pub version: u64,
    /// What happened.
    pub outcome: UpdateOutcome,
    /// The bundle's stated rationale (empty for rollbacks).
    pub rationale: String,
}

/// Result classification for an update attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The bundle verified and was installed.
    Applied,
    /// The bundle's signature failed verification.
    RejectedSignature,
    /// The bundle did not advance the version.
    RejectedStale,
    /// The payload did not decode.
    RejectedMalformed,
    /// A rollback to the previous version.
    RolledBack,
}

impl fmt::Display for UpdateOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UpdateOutcome::Applied => "applied",
            UpdateOutcome::RejectedSignature => "rejected (signature)",
            UpdateOutcome::RejectedStale => "rejected (stale version)",
            UpdateOutcome::RejectedMalformed => "rejected (malformed)",
            UpdateOutcome::RolledBack => "rolled back",
        };
        f.write_str(s)
    }
}

/// The on-device policy store.
///
/// # Example
/// ```
/// use polsec_core::{DevicePolicyStore, PolicyBundle, Policy, PolicySet};
///
/// let key = b"oem-key".to_vec();
/// let mut store = DevicePolicyStore::new(PolicySet::new(), key.clone());
/// let bundle = PolicyBundle::new(1, "initial provisioning", vec![Policy::new("base", 1)]);
/// store.apply(&bundle.sign(&key))?;
/// assert_eq!(store.version(), 1);
/// # Ok::<(), polsec_core::PolicyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DevicePolicyStore {
    active: PolicySet,
    version: u64,
    previous: Option<(PolicySet, u64)>,
    key: Vec<u8>,
    history: Vec<UpdateRecord>,
}

impl DevicePolicyStore {
    /// Creates a store with a factory policy set at version 0 and the OEM
    /// verification key.
    pub fn new(factory: PolicySet, key: Vec<u8>) -> Self {
        DevicePolicyStore {
            active: factory,
            version: 0,
            previous: None,
            key,
            history: Vec::new(),
        }
    }

    /// The active policy set.
    pub fn active(&self) -> &PolicySet {
        &self.active
    }

    /// The active version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The update history, oldest first: the newest [`HISTORY_LIMIT`]
    /// records.
    pub fn history(&self) -> &[UpdateRecord] {
        &self.history
    }

    fn record(&mut self, version: u64, outcome: UpdateOutcome, rationale: String) {
        if self.history.len() == HISTORY_LIMIT {
            self.history.remove(0);
        }
        self.history.push(UpdateRecord {
            version,
            outcome,
            rationale,
        });
    }

    /// Records a rejection at the current version and hands `e` back.
    fn reject(&mut self, e: PolicyError, rationale: String) -> PolicyError {
        let outcome = match e {
            PolicyError::BadSignature => UpdateOutcome::RejectedSignature,
            PolicyError::StaleVersion { .. } => UpdateOutcome::RejectedStale,
            _ => UpdateOutcome::RejectedMalformed,
        };
        self.record(self.version, outcome, rationale);
        e
    }

    /// Applies a signed bundle: verifies the signature, requires the version
    /// to strictly advance, retains the outgoing set for rollback. The
    /// order is tag → header → version → body, so a stale bundle is
    /// rejected from its header, and its policies are never parsed.
    ///
    /// # Errors
    /// [`PolicyError::BadSignature`], [`PolicyError::StaleVersion`] or
    /// [`PolicyError::MalformedBundle`]; every rejection is also recorded in
    /// the history, a stale one with the bundle's rationale.
    pub fn apply(&mut self, signed: &SignedBundle) -> Result<(), PolicyError> {
        let header = match signed.authentic_header(&self.key) {
            Ok(header) => header,
            Err(e) => return Err(self.reject(e, String::new())),
        };
        if header.version <= self.version {
            let stale = PolicyError::StaleVersion {
                current: self.version,
                offered: header.version,
            };
            return Err(self.reject(stale, header.rationale()));
        }
        let incoming: PolicySet = match header.policies() {
            Ok(policies) => policies.into_iter().collect(),
            Err(e) => return Err(self.reject(e, String::new())),
        };
        let outgoing = std::mem::replace(&mut self.active, incoming);
        self.previous = Some((outgoing, self.version));
        self.version = header.version;
        self.record(header.version, UpdateOutcome::Applied, header.rationale());
        Ok(())
    }

    /// Rolls back to the previous policy set (one step).
    ///
    /// # Errors
    /// [`PolicyError::NothingToRollBack`] when no previous set is retained.
    pub fn rollback(&mut self) -> Result<(), PolicyError> {
        let (prev_set, prev_version) = self.previous.take().ok_or(PolicyError::NothingToRollBack)?;
        self.active = prev_set;
        self.version = prev_version;
        self.record(prev_version, UpdateOutcome::RolledBack, String::new());
        Ok(())
    }

    /// Whether a rollback target exists.
    pub fn can_rollback(&self) -> bool {
        self.previous.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, ActionSet};
    use crate::bundle::PolicyBundle;
    use crate::entity::EntityMatcher;
    use crate::policy::{Effect, Policy, Rule};
    use crate::sign::{hmac_sha256, to_hex};

    const KEY: &[u8] = b"device-key";

    fn store() -> DevicePolicyStore {
        DevicePolicyStore::new(PolicySet::new(), KEY.to_vec())
    }

    fn bundle(version: u64, name: &str) -> PolicyBundle {
        PolicyBundle::new(version, format!("update {version}"), vec![Policy::new(name, version)])
    }

    #[test]
    fn apply_advances_version_and_set() {
        let mut s = store();
        s.apply(&bundle(1, "a").sign(KEY)).unwrap();
        assert_eq!(s.version(), 1);
        assert!(s.active().policy("a").is_some());
        s.apply(&bundle(2, "b").sign(KEY)).unwrap();
        assert_eq!(s.version(), 2);
        assert!(s.active().policy("b").is_some());
        assert!(s.active().policy("a").is_none(), "bundle replaces the set");
    }

    #[test]
    fn stale_and_equal_versions_rejected() {
        let mut s = store();
        s.apply(&bundle(5, "a").sign(KEY)).unwrap();
        let err = s.apply(&bundle(5, "b").sign(KEY)).unwrap_err();
        assert_eq!(err, PolicyError::StaleVersion { current: 5, offered: 5 });
        let err = s.apply(&bundle(4, "b").sign(KEY)).unwrap_err();
        assert_eq!(err, PolicyError::StaleVersion { current: 5, offered: 4 });
        assert_eq!(s.version(), 5, "rejections leave the store unchanged");
    }

    #[test]
    fn bad_signature_rejected_and_recorded() {
        let mut s = store();
        let forged = bundle(1, "a").sign(b"attacker-key");
        assert_eq!(s.apply(&forged).unwrap_err(), PolicyError::BadSignature);
        assert_eq!(s.version(), 0);
        assert_eq!(
            s.history().last().unwrap().outcome,
            UpdateOutcome::RejectedSignature
        );
    }

    #[test]
    fn tampered_bundle_rejected() {
        let mut s = store();
        let signed = bundle(1, "a").sign(KEY);
        assert_eq!(s.apply(&signed.tampered()).unwrap_err(), PolicyError::BadSignature);
        let last = s.history().last().unwrap();
        assert_eq!((last.outcome, last.version), (UpdateOutcome::RejectedSignature, 0));
    }

    #[test]
    fn rollback_restores_previous() {
        let mut s = store();
        s.apply(&bundle(1, "a").sign(KEY)).unwrap();
        s.apply(&bundle(2, "b").sign(KEY)).unwrap();
        assert!(s.can_rollback());
        s.rollback().unwrap();
        assert_eq!(s.version(), 1);
        assert!(s.active().policy("a").is_some());
        // only one step retained
        assert!(!s.can_rollback());
        assert_eq!(s.rollback().unwrap_err(), PolicyError::NothingToRollBack);
    }

    #[test]
    fn history_records_everything() {
        let mut s = store();
        s.apply(&bundle(1, "a").sign(KEY)).unwrap();
        let _ = s.apply(&bundle(1, "b").sign(KEY));
        let _ = s.apply(&bundle(2, "c").sign(b"bad-key"));
        s.apply(&bundle(2, "c").sign(KEY)).unwrap();
        s.rollback().unwrap();
        let outcomes: Vec<UpdateOutcome> = s.history().iter().map(|r| r.outcome).collect();
        assert_eq!(
            outcomes,
            vec![
                UpdateOutcome::Applied,
                UpdateOutcome::RejectedStale,
                UpdateOutcome::RejectedSignature,
                UpdateOutcome::Applied,
                UpdateOutcome::RolledBack,
            ]
        );
    }

    #[test]
    fn history_keeps_only_the_newest_records_under_ota_garbage() {
        let mut s = store();
        s.apply(&bundle(1, "a").sign(KEY)).unwrap();
        let tampered = bundle(2, "b").sign(KEY).tampered();
        for _ in 0..10_000 {
            assert_eq!(s.apply(&tampered).unwrap_err(), PolicyError::BadSignature);
        }
        assert_eq!(s.history().len(), HISTORY_LIMIT);
        assert_eq!(
            s.history().last().unwrap().outcome,
            UpdateOutcome::RejectedSignature
        );
        assert_eq!(s.version(), 1);
    }

    /// `payload` under a valid tag: authentic, whatever it says.
    fn signed_raw(payload: &str) -> SignedBundle {
        let tag = to_hex(&hmac_sha256(KEY, payload.as_bytes()));
        SignedBundle::from_parts(payload.as_bytes().to_vec(), tag)
    }

    #[test]
    fn a_valid_tag_on_a_malformed_header_is_malformed() {
        let mut s = store();
        for payload in ["not a bundle", "polsec-bundle/1\nversion x\nrationale r\n"] {
            assert!(matches!(
                s.apply(&signed_raw(payload)).unwrap_err(),
                PolicyError::MalformedBundle { .. }
            ));
            assert_eq!(s.history().last().unwrap().outcome, UpdateOutcome::RejectedMalformed);
        }
        assert_eq!(s.version(), 0);
    }

    #[test]
    fn a_stale_version_is_rejected_before_its_body_is_parsed() {
        let mut s = store();
        s.apply(&bundle(3, "a").sign(KEY)).unwrap();
        let replay =
            signed_raw("polsec-bundle/1\nversion 2\nrationale replayed\\nadvisory\npolicy {{{");
        assert_eq!(
            s.apply(&replay).unwrap_err(),
            PolicyError::StaleVersion { current: 3, offered: 2 }
        );
        let last = s.history().last().unwrap();
        assert_eq!(last.outcome, UpdateOutcome::RejectedStale);
        assert_eq!(last.version, 3);
        assert_eq!(last.rationale, "replayed\nadvisory", "recorded unescaped");
    }

    #[test]
    fn a_fresh_version_with_a_broken_body_changes_nothing() {
        let mut s = store();
        s.apply(&bundle(1, "a").sign(KEY)).unwrap();
        let before = s.active().clone();
        let broken = signed_raw("polsec-bundle/1\nversion 2\nrationale r\npolicy {{{");
        assert!(matches!(
            s.apply(&broken).unwrap_err(),
            PolicyError::MalformedBundle { .. }
        ));
        assert_eq!(s.history().last().unwrap().outcome, UpdateOutcome::RejectedMalformed);
        assert_eq!(s.version(), 1);
        assert_eq!(s.active(), &before);
    }

    #[test]
    fn rollback_after_an_apply_restores_the_factory_set() {
        let factory = PolicySet::from_policy(
            Policy::new("factory", 0)
                .add_rule(Rule::new(
                    "r",
                    Effect::Allow,
                    ActionSet::only(Action::Read),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                ))
                .unwrap(),
        );
        let mut s = DevicePolicyStore::new(factory.clone(), KEY.to_vec());
        s.apply(&bundle(1, "a").sign(KEY)).unwrap();
        assert_ne!(s.active(), &factory);
        s.rollback().unwrap();
        assert_eq!(s.active(), &factory);
        assert_eq!(s.version(), 0);
    }

    #[test]
    fn outcome_display() {
        assert_eq!(UpdateOutcome::Applied.to_string(), "applied");
        assert_eq!(UpdateOutcome::RejectedStale.to_string(), "rejected (stale version)");
    }
}
