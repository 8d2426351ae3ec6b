//! Type-enforcement rules.

use std::collections::BTreeSet;
use std::fmt;

/// The kind of a TE rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TeKind {
    /// Grants the permissions.
    Allow,
    /// Grants nothing; suppresses audit of matching denials.
    DontAudit,
    /// Grants the permissions and audits the grants.
    AuditAllow,
    /// An assertion: no loaded allow rule may grant this vector.
    Neverallow,
}

impl fmt::Display for TeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TeKind::Allow => "allow",
            TeKind::DontAudit => "dontaudit",
            TeKind::AuditAllow => "auditallow",
            TeKind::Neverallow => "neverallow",
        };
        f.write_str(s)
    }
}

/// One type-enforcement rule:
/// `<kind> source_t target_t : class { perm… };`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TeRule {
    kind: TeKind,
    source: String,
    target: String,
    class: String,
    perms: BTreeSet<String>,
}

impl TeRule {
    /// Creates a rule of arbitrary kind.
    pub fn new(
        kind: TeKind,
        source: impl Into<String>,
        target: impl Into<String>,
        class: impl Into<String>,
        perms: &[&str],
    ) -> Self {
        TeRule {
            kind,
            source: source.into(),
            target: target.into(),
            class: class.into(),
            perms: perms.iter().map(|p| p.to_string()).collect(),
        }
    }

    /// An `allow` rule.
    pub fn allow(
        source: impl Into<String>,
        target: impl Into<String>,
        class: impl Into<String>,
        perms: &[&str],
    ) -> Self {
        TeRule::new(TeKind::Allow, source, target, class, perms)
    }

    /// A `neverallow` assertion.
    pub fn neverallow(
        source: impl Into<String>,
        target: impl Into<String>,
        class: impl Into<String>,
        perms: &[&str],
    ) -> Self {
        TeRule::new(TeKind::Neverallow, source, target, class, perms)
    }

    /// The rule kind.
    pub fn kind(&self) -> TeKind {
        self.kind
    }

    /// Source (subject) type.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Target (object) type.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Object class.
    pub fn class(&self) -> &str {
        &self.class
    }

    /// Granted/asserted permissions.
    pub fn perms(&self) -> &BTreeSet<String> {
        &self.perms
    }

    /// Whether the rule covers the given access vector.
    pub fn covers(&self, source: &str, target: &str, class: &str, perm: &str) -> bool {
        self.source == source
            && self.target == target
            && self.class == class
            && self.perms.contains(perm)
    }

    /// Whether this allow rule intersects a neverallow assertion (same
    /// source, target, class and at least one shared permission).
    pub fn conflicts_with(&self, assertion: &TeRule) -> bool {
        self.source == assertion.source
            && self.target == assertion.target
            && self.class == assertion.class
            && self.perms.intersection(&assertion.perms).next().is_some()
    }
}

impl fmt::Display for TeRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let perms: Vec<&str> = self.perms.iter().map(|s| s.as_str()).collect();
        write!(
            f,
            "{} {} {} : {} {{ {} }};",
            self.kind,
            self.source,
            self.target,
            self.class,
            perms.join(" ")
        )
    }
}

/// A `type_transition` rule: executing a file of `entry_type` from domain
/// `source` lands the new process in `new_type`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeTransition {
    /// The executing domain.
    pub source: String,
    /// The entrypoint (executable) type.
    pub entry_type: String,
    /// The resulting domain.
    pub new_type: String,
}

impl TypeTransition {
    /// Creates a transition rule.
    pub fn new(
        source: impl Into<String>,
        entry_type: impl Into<String>,
        new_type: impl Into<String>,
    ) -> Self {
        TypeTransition {
            source: source.into(),
            entry_type: entry_type.into(),
            new_type: new_type.into(),
        }
    }
}

impl fmt::Display for TypeTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "type_transition {} {} : process {};",
            self.source, self.entry_type, self.new_type
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_requires_all_fields() {
        let r = TeRule::allow("a_t", "b_t", "file", &["read", "open"]);
        assert!(r.covers("a_t", "b_t", "file", "read"));
        assert!(r.covers("a_t", "b_t", "file", "open"));
        assert!(!r.covers("a_t", "b_t", "file", "write"));
        assert!(!r.covers("x_t", "b_t", "file", "read"));
        assert!(!r.covers("a_t", "x_t", "file", "read"));
        assert!(!r.covers("a_t", "b_t", "dir", "read"));
    }

    #[test]
    fn conflict_detection() {
        let allow = TeRule::allow("media_t", "ecu_t", "can_socket", &["write", "read"]);
        let never = TeRule::neverallow("media_t", "ecu_t", "can_socket", &["write"]);
        assert!(allow.conflicts_with(&never));
        let never_other = TeRule::neverallow("media_t", "ecu_t", "can_socket", &["ioctl"]);
        assert!(!allow.conflicts_with(&never_other));
        let never_class = TeRule::neverallow("media_t", "ecu_t", "file", &["write"]);
        assert!(!allow.conflicts_with(&never_class));
    }

    #[test]
    fn display_selinux_syntax() {
        let r = TeRule::allow("a_t", "b_t", "file", &["read", "open"]);
        assert_eq!(r.to_string(), "allow a_t b_t : file { open read };");
        let n = TeRule::neverallow("a_t", "b_t", "file", &["write"]);
        assert!(n.to_string().starts_with("neverallow"));
        let t = TypeTransition::new("init_t", "media_exec_t", "media_t");
        assert_eq!(
            t.to_string(),
            "type_transition init_t media_exec_t : process media_t;"
        );
    }

    #[test]
    fn perms_deduplicate() {
        let r = TeRule::allow("a_t", "b_t", "file", &["read", "read"]);
        assert_eq!(r.perms().len(), 1);
    }

    #[test]
    fn kinds_display() {
        assert_eq!(TeKind::DontAudit.to_string(), "dontaudit");
        assert_eq!(TeKind::AuditAllow.to_string(), "auditallow");
    }
}
