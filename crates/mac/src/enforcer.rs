//! The enforcement entry point.
//!
//! [`Enforcer::check`] is the `avc_has_perm` of this MAC: consult the cache,
//! fall back to the linked policy, audit what policy says to audit, and —
//! in **permissive** mode — log would-be denials while letting them
//! through (how real deployments stage new policy before enforcing it).

use crate::avc::{AccessVector, Avc, AvcStats};
use crate::context::SecurityContext;
use crate::policy::MacPolicy;
use polsec_core::Symbol;
use std::fmt;

/// Enforcing vs permissive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnforcementMode {
    /// Denials are enforced.
    #[default]
    Enforcing,
    /// Denials are logged but permitted.
    Permissive,
}

impl fmt::Display for EnforcementMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnforcementMode::Enforcing => f.write_str("enforcing"),
            EnforcementMode::Permissive => f.write_str("permissive"),
        }
    }
}

/// The outcome of one check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckResult {
    permitted: bool,
    policy_allowed: bool,
    cached: bool,
}

impl CheckResult {
    /// Whether the access proceeds (in permissive mode this can be true
    /// even when policy denies).
    pub fn permitted(&self) -> bool {
        self.permitted
    }

    /// What the policy itself said.
    pub fn policy_allowed(&self) -> bool {
        self.policy_allowed
    }

    /// Whether the AVC answered without a policy walk.
    pub fn cached(&self) -> bool {
        self.cached
    }
}

/// One audit log line (an `avc: denied`/`granted` message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvcMessage {
    /// `true` for grants (auditallow), `false` for denials.
    pub granted: bool,
    /// Source context.
    pub scontext: String,
    /// Target context.
    pub tcontext: String,
    /// Object class.
    pub class: String,
    /// Permission checked.
    pub perm: String,
    /// Whether enforcement was permissive at the time.
    pub permissive: bool,
}

impl fmt::Display for AvcMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "avc: {} {{ {} }} scontext={} tcontext={} tclass={}{}",
            if self.granted { "granted" } else { "denied" },
            self.perm,
            self.scontext,
            self.tcontext,
            self.class,
            if self.permissive { " permissive=1" } else { "" },
        )
    }
}

/// The MAC enforcement point.
#[derive(Debug, Clone, Default)]
pub struct Enforcer {
    policy: MacPolicy,
    avc: Avc,
    mode: EnforcementMode,
    audit: Vec<AvcMessage>,
}

impl Enforcer {
    /// Creates an enforcing-mode enforcer over a policy.
    pub fn new(policy: MacPolicy) -> Self {
        Enforcer {
            policy,
            avc: Avc::new(),
            mode: EnforcementMode::Enforcing,
            audit: Vec::new(),
        }
    }

    /// Sets the enforcement mode.
    pub fn set_mode(&mut self, mode: EnforcementMode) {
        self.mode = mode;
    }

    /// The current mode.
    pub fn mode(&self) -> EnforcementMode {
        self.mode
    }

    /// Read access to the policy.
    pub fn policy(&self) -> &MacPolicy {
        &self.policy
    }

    /// Mutable access to the policy (module load/unload). The AVC's
    /// generation tagging makes stale entries invisible automatically.
    pub fn policy_mut(&mut self) -> &mut MacPolicy {
        &mut self.policy
    }

    /// AVC statistics.
    pub fn avc_stats(&self) -> AvcStats {
        self.avc.stats()
    }

    /// Audit messages so far.
    pub fn audit(&self) -> &[AvcMessage] {
        &self.audit
    }

    /// Checks whether `scontext` may perform `perm` on `tcontext` of
    /// `class`.
    pub fn check(
        &mut self,
        scontext: &SecurityContext,
        tcontext: &SecurityContext,
        class: &str,
        perm: &str,
    ) -> CheckResult {
        let generation = self.policy.generation();
        let (source, target) = (scontext.type_(), tcontext.type_());
        let key = (
            scontext.type_symbol(),
            tcontext.type_symbol(),
            Symbol::intern(class),
            Symbol::intern(perm),
        );
        // A hit answers allow *and* audit directives from the cached
        // vector, so repeated checks never walk policy at all.
        let (vector, cached) =
            match self.avc.lookup_symbols(key.0, key.1, key.2, key.3, generation) {
                Some(v) => (v, true),
                None => {
                    let allowed = self.policy.allows(source, target, class, perm);
                    let vector = AccessVector {
                        allowed,
                        audit_grant: allowed
                            && self.policy.audits_grant(source, target, class, perm),
                        audit_deny: !allowed
                            && self.policy.audits_denial(source, target, class, perm),
                    };
                    self.avc
                        .insert_symbols(key.0, key.1, key.2, key.3, generation, vector);
                    (vector, false)
                }
            };
        let allowed = vector.allowed;

        let permissive = self.mode == EnforcementMode::Permissive;
        if (!allowed && vector.audit_deny) || (allowed && vector.audit_grant) {
            self.audit.push(AvcMessage {
                granted: allowed,
                scontext: scontext.to_string(),
                tcontext: tcontext.to_string(),
                class: class.to_string(),
                perm: perm.to_string(),
                permissive,
            });
        }

        CheckResult {
            permitted: allowed || permissive,
            policy_allowed: allowed,
            cached,
        }
    }

    /// Resolves the domain for executing a file of `entry_type` from
    /// `scontext`: the transition target if one is defined, otherwise the
    /// caller's own domain (no transition).
    pub fn exec_transition(
        &self,
        scontext: &SecurityContext,
        entry_type: &str,
    ) -> SecurityContext {
        match self.policy.transition(scontext.type_(), entry_type) {
            Some(new_type) => scontext.with_type(new_type),
            None => scontext.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyModule;
    use crate::te::{TeKind, TeRule, TypeTransition};

    fn enforcer() -> Enforcer {
        let mut m = PolicyModule::new("base", 1);
        m.declare_type("media_t")
            .declare_type("ecu_t")
            .declare_type("diag_exec_t")
            .declare_type("diag_t");
        m.add_allow(TeRule::allow("media_t", "ecu_t", "can_socket", &["read"]));
        m.add_rule(TeRule::new(
            TeKind::DontAudit,
            "media_t",
            "ecu_t",
            "can_socket",
            &["getattr"],
        ));
        m.add_rule(TeRule::new(
            TeKind::AuditAllow,
            "media_t",
            "ecu_t",
            "can_socket",
            &["read"],
        ));
        m.add_transition(TypeTransition::new("media_t", "diag_exec_t", "diag_t"));
        let mut p = MacPolicy::new();
        p.load_module(m).unwrap();
        Enforcer::new(p)
    }

    fn media() -> SecurityContext {
        SecurityContext::new("system", "system_r", "media_t")
    }
    fn ecu() -> SecurityContext {
        SecurityContext::object("ecu_t")
    }

    #[test]
    fn enforcing_allows_and_denies() {
        let mut e = enforcer();
        assert!(e.check(&media(), &ecu(), "can_socket", "read").permitted());
        let denied = e.check(&media(), &ecu(), "can_socket", "write");
        assert!(!denied.permitted());
        assert!(!denied.policy_allowed());
    }

    #[test]
    fn permissive_permits_but_records() {
        let mut e = enforcer();
        e.set_mode(EnforcementMode::Permissive);
        let r = e.check(&media(), &ecu(), "can_socket", "write");
        assert!(r.permitted(), "permissive lets it through");
        assert!(!r.policy_allowed(), "…but policy still said no");
        let msg = e.audit().last().unwrap();
        assert!(!msg.granted);
        assert!(msg.permissive);
    }

    #[test]
    fn avc_caches_repeat_checks() {
        let mut e = enforcer();
        let first = e.check(&media(), &ecu(), "can_socket", "read");
        assert!(!first.cached());
        let second = e.check(&media(), &ecu(), "can_socket", "read");
        assert!(second.cached());
        assert_eq!(e.avc_stats().hits, 1);
    }

    #[test]
    fn policy_reload_invalidates_cache() {
        let mut e = enforcer();
        e.check(&media(), &ecu(), "can_socket", "read");
        // load a new module bumps the generation
        let mut extra = PolicyModule::new("extra", 1);
        extra.declare_type("radio_t");
        e.policy_mut().load_module(extra).unwrap();
        let after = e.check(&media(), &ecu(), "can_socket", "read");
        assert!(!after.cached(), "generation bump must force a policy walk");
    }

    #[test]
    fn dontaudit_suppresses_denial_message() {
        let mut e = enforcer();
        e.check(&media(), &ecu(), "can_socket", "getattr");
        assert!(e.audit().is_empty(), "dontaudit vector must not log");
        e.check(&media(), &ecu(), "can_socket", "write");
        assert_eq!(e.audit().len(), 1);
    }

    #[test]
    fn auditallow_logs_grants() {
        let mut e = enforcer();
        e.check(&media(), &ecu(), "can_socket", "read");
        let grants: Vec<_> = e.audit().iter().filter(|m| m.granted).collect();
        assert_eq!(grants.len(), 1);
        assert!(grants[0].to_string().starts_with("avc: granted"));
    }

    #[test]
    fn exec_transition_changes_domain() {
        let e = enforcer();
        let diag = e.exec_transition(&media(), "diag_exec_t");
        assert_eq!(diag.type_(), "diag_t");
        assert_eq!(diag.user(), "system");
        // no transition defined → stays in caller's domain
        let same = e.exec_transition(&media(), "unknown_exec_t");
        assert_eq!(same.type_(), "media_t");
    }

    #[test]
    fn audit_message_format() {
        let mut e = enforcer();
        e.check(&media(), &ecu(), "can_socket", "write");
        let line = e.audit()[0].to_string();
        assert!(line.contains("avc: denied { write }"));
        assert!(line.contains("scontext=system:system_r:media_t"));
        assert!(line.contains("tclass=can_socket"));
    }

    #[test]
    fn mode_display() {
        assert_eq!(EnforcementMode::Enforcing.to_string(), "enforcing");
        assert_eq!(EnforcementMode::Permissive.to_string(), "permissive");
    }
}
