//! The enforcement entry point.
//!
//! [`Enforcer::check`] is the `avc_has_perm` of this MAC: ask the linked
//! policy, audit what policy says to audit, and — in **permissive** mode —
//! log would-be denials while letting them through (how real deployments
//! stage new policy before enforcing it). There is no access-vector cache:
//! every check reads the policy as it is now, so a module load or unload
//! decides the very next check, and a check allocates nothing unless it
//! writes an audit line.

use crate::context::SecurityContext;
use crate::policy::MacPolicy;
use std::fmt;

/// Audit lines an enforcer keeps. Later ones are only counted
/// ([`Enforcer::audit_dropped`]), so a flood of audited checks holds
/// bounded memory.
const AUDIT_CAPACITY: usize = 1024;

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
    mode: EnforcementMode,
    audit: Vec<AvcMessage>,
    audit_dropped: u64,
}

impl Enforcer {
    /// Creates an enforcing-mode enforcer over a policy.
    pub fn new(policy: MacPolicy) -> Self {
        Enforcer {
            policy,
            mode: EnforcementMode::Enforcing,
            audit: Vec::new(),
            audit_dropped: 0,
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

    /// Mutable access to the policy (module load/unload). The next check
    /// reads the changed policy.
    pub fn policy_mut(&mut self) -> &mut MacPolicy {
        &mut self.policy
    }

    /// The first 1024 audit messages, in order.
    pub fn audit(&self) -> &[AvcMessage] {
        &self.audit
    }

    /// Audit messages counted but not kept once [`Enforcer::audit`] was
    /// full.
    pub fn audit_dropped(&self) -> u64 {
        self.audit_dropped
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
        let (source, target) = (scontext.type_(), tcontext.type_());
        let allowed = self.policy.allows(source, target, class, perm);
        let audited = if allowed {
            self.policy.audits_grant(source, target, class, perm)
        } else {
            self.policy.audits_denial(source, target, class, perm)
        };
        let permissive = self.mode == EnforcementMode::Permissive;
        if audited {
            if self.audit.len() < AUDIT_CAPACITY {
                self.audit.push(AvcMessage {
                    granted: allowed,
                    scontext: scontext.to_string(),
                    tcontext: tcontext.to_string(),
                    class: class.to_string(),
                    perm: perm.to_string(),
                    permissive,
                });
            } else {
                self.audit_dropped += 1;
            }
        }

        CheckResult {
            permitted: allowed || permissive,
            policy_allowed: allowed,
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
    fn module_load_and_unload_decide_the_next_check() {
        let mut e = enforcer();
        assert!(!e.check(&media(), &ecu(), "can_socket", "write").permitted());
        let mut grant = PolicyModule::new("grant-write", 1);
        grant.add_allow(TeRule::allow("media_t", "ecu_t", "can_socket", &["write"]));
        e.policy_mut().load_module(grant).unwrap();
        assert!(e.check(&media(), &ecu(), "can_socket", "write").permitted());
        e.policy_mut().unload_module("grant-write").unwrap();
        assert!(!e.check(&media(), &ecu(), "can_socket", "write").permitted());
    }

    #[test]
    fn audit_keeps_the_first_lines_and_counts_the_rest() {
        let mut e = enforcer();
        e.check(&media(), &ecu(), "can_socket", "write");
        let first = e.audit()[0].clone();
        for _ in 1..10_000 {
            e.check(&media(), &ecu(), "can_socket", "write");
        }
        assert_eq!(e.audit().len(), AUDIT_CAPACITY);
        assert_eq!(e.audit_dropped(), 10_000 - AUDIT_CAPACITY as u64);
        assert_eq!(e.audit()[0], first);
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
