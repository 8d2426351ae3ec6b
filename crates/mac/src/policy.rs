//! Modular MAC policy: modules, loading, linking and validation.
//!
//! SELinux policy ships as modules that declare types and rules; loading a
//! module re-links the policy. `neverallow` assertions from *any* loaded
//! module constrain allows from *all* modules — loading anything that would
//! grant an asserted-forbidden vector fails (this is how the paper's
//! "enforce access of permitted commands" guarantee survives later module
//! additions).

use crate::error::MacError;
use crate::te::{TeKind, TeRule, TypeTransition};
use std::collections::BTreeSet;
use std::fmt;

/// A loadable policy module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyModule {
    name: String,
    version: u64,
    types: BTreeSet<String>,
    rules: Vec<TeRule>,
    transitions: Vec<TypeTransition>,
}

impl PolicyModule {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>, version: u64) -> Self {
        PolicyModule {
            name: name.into(),
            version,
            types: BTreeSet::new(),
            rules: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// Declares a type owned by this module.
    pub fn declare_type(&mut self, t: impl Into<String>) -> &mut Self {
        self.types.insert(t.into());
        self
    }

    /// Adds a rule (any kind).
    pub fn add_rule(&mut self, r: TeRule) -> &mut Self {
        self.rules.push(r);
        self
    }

    /// Adds an allow rule (convenience, mirrors [`TeRule::allow`]).
    pub fn add_allow(&mut self, r: TeRule) -> &mut Self {
        debug_assert_eq!(r.kind(), TeKind::Allow);
        self.rules.push(r);
        self
    }

    /// Adds a type transition.
    pub fn add_transition(&mut self, t: TypeTransition) -> &mut Self {
        self.transitions.push(t);
        self
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Module version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Types declared by this module.
    pub fn types(&self) -> &BTreeSet<String> {
        &self.types
    }

    /// Rules carried by this module.
    pub fn rules(&self) -> &[TeRule] {
        &self.rules
    }

    /// Transitions carried by this module.
    pub fn transitions(&self) -> &[TypeTransition] {
        &self.transitions
    }
}

impl fmt::Display for PolicyModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "module {} v{} ({} types, {} rules)",
            self.name,
            self.version,
            self.types.len(),
            self.rules.len()
        )
    }
}

/// The linked policy: all loaded modules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MacPolicy {
    modules: Vec<PolicyModule>,
}

impl MacPolicy {
    /// Creates an empty policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loaded module names in load order.
    pub fn module_names(&self) -> Vec<&str> {
        self.modules.iter().map(|m| m.name()).collect()
    }

    /// All declared types across modules.
    pub fn types(&self) -> BTreeSet<&str> {
        self.modules
            .iter()
            .flat_map(|m| m.types().iter().map(|s| s.as_str()))
            .collect()
    }

    /// Loads a module after validation.
    ///
    /// # Errors
    /// * [`MacError::ModuleExists`] — name already loaded;
    /// * [`MacError::UnknownType`] — a rule references a type declared by
    ///   no module (including the incoming one);
    /// * [`MacError::NeverallowViolation`] — the union of allows would
    ///   intersect any neverallow assertion.
    pub fn load_module(&mut self, module: PolicyModule) -> Result<(), MacError> {
        if self.modules.iter().any(|m| m.name() == module.name()) {
            return Err(MacError::ModuleExists { name: module.name().to_string() });
        }
        // type closure check
        let mut known: BTreeSet<&str> = self.types();
        known.extend(module.types().iter().map(|s| s.as_str()));
        for rule in module.rules() {
            for t in [rule.source(), rule.target()] {
                if !known.contains(t) {
                    return Err(MacError::UnknownType { name: t.to_string() });
                }
            }
        }
        for tr in module.transitions() {
            for t in [tr.source.as_str(), tr.entry_type.as_str(), tr.new_type.as_str()] {
                if !known.contains(t) {
                    return Err(MacError::UnknownType { name: t.to_string() });
                }
            }
        }
        // neverallow link check over the would-be combined policy
        let all_allows = self
            .rules_of_kind(TeKind::Allow)
            .chain(module.rules().iter().filter(|r| r.kind() == TeKind::Allow));
        let all_assertions: Vec<&TeRule> = self
            .rules_of_kind(TeKind::Neverallow)
            .chain(
                module
                    .rules()
                    .iter()
                    .filter(|r| r.kind() == TeKind::Neverallow),
            )
            .collect();
        for allow in all_allows {
            for assertion in &all_assertions {
                if allow.conflicts_with(assertion) {
                    return Err(MacError::NeverallowViolation {
                        rule: allow.to_string(),
                        assertion: assertion.to_string(),
                    });
                }
            }
        }
        self.modules.push(module);
        Ok(())
    }

    /// Unloads a module by name.
    ///
    /// # Errors
    /// [`MacError::ModuleNotFound`].
    pub fn unload_module(&mut self, name: &str) -> Result<PolicyModule, MacError> {
        let idx = self
            .modules
            .iter()
            .position(|m| m.name() == name)
            .ok_or_else(|| MacError::ModuleNotFound { name: name.to_string() })?;
        Ok(self.modules.remove(idx))
    }

    fn rules_of_kind(&self, kind: TeKind) -> impl Iterator<Item = &TeRule> {
        self.modules
            .iter()
            .flat_map(|m| m.rules().iter())
            .filter(move |r| r.kind() == kind)
    }

    /// Whether the linked policy allows the access vector.
    pub fn allows(&self, source: &str, target: &str, class: &str, perm: &str) -> bool {
        self.rules_of_kind(TeKind::Allow)
            .any(|r| r.covers(source, target, class, perm))
    }

    /// Whether a denial of this vector should be audited (`dontaudit`
    /// suppresses).
    pub fn audits_denial(&self, source: &str, target: &str, class: &str, perm: &str) -> bool {
        !self
            .rules_of_kind(TeKind::DontAudit)
            .any(|r| r.covers(source, target, class, perm))
    }

    /// Whether a grant of this vector should be audited (`auditallow`).
    pub fn audits_grant(&self, source: &str, target: &str, class: &str, perm: &str) -> bool {
        self.rules_of_kind(TeKind::AuditAllow)
            .any(|r| r.covers(source, target, class, perm))
    }

    /// The domain transition for executing `entry_type` from `source`, if
    /// any (first match across modules in load order).
    pub fn transition(&self, source: &str, entry_type: &str) -> Option<&str> {
        self.modules
            .iter()
            .flat_map(|m| m.transitions().iter())
            .find(|t| t.source == source && t.entry_type == entry_type)
            .map(|t| t.new_type.as_str())
    }

    /// Total rule count across modules.
    pub fn rule_count(&self) -> usize {
        self.modules.iter().map(|m| m.rules().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_module() -> PolicyModule {
        let mut m = PolicyModule::new("base", 1);
        m.declare_type("media_t")
            .declare_type("ecu_t")
            .declare_type("media_exec_t");
        m.add_allow(TeRule::allow("media_t", "ecu_t", "can_socket", &["read"]));
        m
    }

    #[test]
    fn load_and_query() {
        let mut p = MacPolicy::new();
        p.load_module(base_module()).unwrap();
        assert!(p.allows("media_t", "ecu_t", "can_socket", "read"));
        assert!(!p.allows("media_t", "ecu_t", "can_socket", "write"));
        assert_eq!(p.rule_count(), 1);
        assert_eq!(p.module_names(), vec!["base"]);
    }

    #[test]
    fn duplicate_module_rejected() {
        let mut p = MacPolicy::new();
        p.load_module(base_module()).unwrap();
        assert_eq!(
            p.load_module(base_module()).unwrap_err(),
            MacError::ModuleExists { name: "base".into() }
        );
    }

    #[test]
    fn undeclared_types_rejected() {
        let mut p = MacPolicy::new();
        let mut m = PolicyModule::new("broken", 1);
        m.add_allow(TeRule::allow("ghost_t", "ecu_t", "file", &["read"]));
        assert_eq!(
            p.load_module(m).unwrap_err(),
            MacError::UnknownType { name: "ghost_t".into() }
        );
    }

    #[test]
    fn cross_module_type_references_allowed() {
        let mut p = MacPolicy::new();
        p.load_module(base_module()).unwrap();
        let mut m2 = PolicyModule::new("extra", 1);
        m2.declare_type("radio_t");
        m2.add_allow(TeRule::allow("radio_t", "ecu_t", "can_socket", &["read"]));
        p.load_module(m2).unwrap();
        assert!(p.allows("radio_t", "ecu_t", "can_socket", "read"));
    }

    #[test]
    fn neverallow_blocks_offending_module() {
        let mut p = MacPolicy::new();
        let mut base = base_module();
        base.add_rule(TeRule::neverallow("media_t", "ecu_t", "can_socket", &["write"]));
        p.load_module(base).unwrap();
        // a later module trying to grant the asserted vector must fail
        let mut evil = PolicyModule::new("evil", 1);
        evil.add_allow(TeRule::allow("media_t", "ecu_t", "can_socket", &["write"]));
        let err = p.load_module(evil).unwrap_err();
        assert!(matches!(err, MacError::NeverallowViolation { .. }));
        assert!(!p.allows("media_t", "ecu_t", "can_socket", "write"));
        assert_eq!(p.module_names(), vec!["base"], "rejected module not loaded");
    }

    #[test]
    fn neverallow_in_new_module_checks_existing_allows() {
        let mut p = MacPolicy::new();
        p.load_module(base_module()).unwrap(); // allows read
        let mut assert_mod = PolicyModule::new("hardening", 1);
        assert_mod.add_rule(TeRule::neverallow("media_t", "ecu_t", "can_socket", &["read"]));
        let err = p.load_module(assert_mod).unwrap_err();
        assert!(matches!(err, MacError::NeverallowViolation { .. }));
    }

    #[test]
    fn unload_restores_denial() {
        let mut p = MacPolicy::new();
        p.load_module(base_module()).unwrap();
        let removed = p.unload_module("base").unwrap();
        assert_eq!(removed.name(), "base");
        assert!(!p.allows("media_t", "ecu_t", "can_socket", "read"));
        assert!(matches!(
            p.unload_module("base"),
            Err(MacError::ModuleNotFound { .. })
        ));
    }

    #[test]
    fn dontaudit_and_auditallow() {
        let mut p = MacPolicy::new();
        let mut m = base_module();
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
        p.load_module(m).unwrap();
        assert!(!p.audits_denial("media_t", "ecu_t", "can_socket", "getattr"));
        assert!(p.audits_denial("media_t", "ecu_t", "can_socket", "write"));
        assert!(p.audits_grant("media_t", "ecu_t", "can_socket", "read"));
        assert!(!p.audits_grant("media_t", "ecu_t", "can_socket", "getattr"));
    }

    #[test]
    fn transitions_resolve_in_load_order() {
        let mut p = MacPolicy::new();
        let mut m = base_module();
        m.add_transition(TypeTransition::new("media_t", "media_exec_t", "ecu_t"));
        p.load_module(m).unwrap();
        assert_eq!(p.transition("media_t", "media_exec_t"), Some("ecu_t"));
        assert_eq!(p.transition("media_t", "other_exec_t"), None);
    }

    #[test]
    fn transition_with_undeclared_type_rejected() {
        let mut p = MacPolicy::new();
        let mut m = PolicyModule::new("m", 1);
        m.declare_type("a_t").declare_type("b_t");
        m.add_transition(TypeTransition::new("a_t", "b_t", "ghost_t"));
        assert!(matches!(
            p.load_module(m),
            Err(MacError::UnknownType { .. })
        ));
    }

    #[test]
    fn module_display() {
        assert_eq!(base_module().to_string(), "module base v1 (3 types, 1 rules)");
    }
}
