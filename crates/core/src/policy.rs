//! Rules, policies and policy sets.

use crate::action::{Action, ActionSet};
use crate::condition::Condition;
use crate::entity::EntityMatcher;
use crate::error::PolicyError;
use crate::intern::Symbol;
use crate::request::AccessRequest;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// The outcome a rule (or the engine) prescribes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Effect {
    /// Access granted.
    Allow,
    /// Access denied.
    Deny,
}

impl Effect {
    /// The DSL keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            Effect::Allow => "allow",
            Effect::Deny => "deny",
        }
    }

    /// The opposite effect.
    pub fn invert(self) -> Effect {
        match self {
            Effect::Allow => Effect::Deny,
            Effect::Deny => Effect::Allow,
        }
    }
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// One policy rule.
///
/// A rule *applies* to a request when its subject matcher, object matcher
/// and action set all match and its condition holds in the context; an
/// applying rule contributes its [`Effect`] under the engine's combining
/// strategy. Priority orders rules under the priority-order strategy
/// (higher wins).
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    id: Symbol,
    effect: Effect,
    actions: ActionSet,
    subject: EntityMatcher,
    object: EntityMatcher,
    condition: Condition,
    priority: i32,
}

impl Rule {
    /// Creates a rule with [`Condition::Always`] and priority 0.
    pub fn new(
        id: impl AsRef<str>,
        effect: Effect,
        actions: ActionSet,
        subject: EntityMatcher,
        object: EntityMatcher,
    ) -> Self {
        Rule {
            id: Symbol::intern(id.as_ref()),
            effect,
            actions,
            subject,
            object,
            condition: Condition::Always,
            priority: 0,
        }
    }

    /// Sets the condition (builder style).
    pub fn when(mut self, c: Condition) -> Self {
        self.condition = c;
        self
    }

    /// Sets the priority (builder style).
    pub fn with_priority(mut self, p: i32) -> Self {
        self.priority = p;
        self
    }

    /// The rule id.
    pub fn id(&self) -> &'static str {
        self.id.as_str()
    }

    /// The rule's effect.
    pub fn effect(&self) -> Effect {
        self.effect
    }

    /// The actions the rule covers.
    pub fn actions(&self) -> ActionSet {
        self.actions
    }

    /// The subject matcher.
    pub fn subject(&self) -> &EntityMatcher {
        &self.subject
    }

    /// The object matcher.
    pub fn object(&self) -> &EntityMatcher {
        &self.object
    }

    /// The condition.
    pub fn condition(&self) -> &Condition {
        &self.condition
    }

    /// The priority (higher wins under priority-order combining).
    pub fn priority(&self) -> i32 {
        self.priority
    }

    /// The interned rule id.
    pub(crate) fn id_symbol(&self) -> Symbol {
        self.id
    }

    /// Whether the rule's actions, subject and object all match `req`:
    /// what applying asks besides the condition, and what no context can
    /// change.
    pub fn matches(&self, req: &AccessRequest) -> bool {
        self.actions.contains(req.action())
            && self.subject.matches(req.subject())
            && self.object.matches(req.object())
    }

    /// Whether the rule covers `action` at all (context-independent).
    pub fn covers_action(&self, action: Action) -> bool {
        self.actions.contains(action)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} on {} from {}",
            self.effect, self.actions, self.object, self.subject
        )?;
        if self.condition != Condition::Always {
            write!(f, " when {}", self.condition)?;
        }
        if self.priority != 0 {
            write!(f, " priority {}", self.priority)?;
        }
        Ok(())
    }
}

/// A named, versioned collection of rules with a default effect.
///
/// The rules sit behind an [`Arc`]: a policy is built once and then
/// shared, so a clone — into a [`PolicySet`], an engine or a rollback
/// slot — copies its name and no rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    name: String,
    version: u64,
    default_effect: Effect,
    rules: Arc<Vec<Rule>>,
}

impl Policy {
    /// Creates an empty policy with default effect deny (least privilege).
    pub fn new(name: impl Into<String>, version: u64) -> Self {
        Policy {
            name: name.into(),
            version,
            default_effect: Effect::Deny,
            rules: Arc::default(),
        }
    }

    /// Sets the default effect (builder style).
    pub fn with_default(mut self, e: Effect) -> Self {
        self.default_effect = e;
        self
    }

    /// Appends a rule (builder style). The rules are copied first only if
    /// a clone of this policy shares them.
    ///
    /// # Errors
    /// [`PolicyError::DuplicateRule`] when a rule with the same id exists.
    pub fn add_rule(mut self, rule: Rule) -> Result<Self, PolicyError> {
        if self.rules.iter().any(|r| r.id == rule.id) {
            return Err(PolicyError::DuplicateRule { id: rule.id().to_string() });
        }
        Arc::make_mut(&mut self.rules).push(rule);
        Ok(self)
    }

    /// The policy name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The policy version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The default effect when no rule applies.
    pub fn default_effect(&self) -> Effect {
        self.default_effect
    }

    /// The rules in declaration order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The shared rule vector itself, for an engine's rule table to
    /// refer into without copying a rule.
    pub(crate) fn shared_rules(&self) -> &Arc<Vec<Rule>> {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the policy has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "policy \"{}\" version {} (default {}, {} rules)",
            self.name,
            self.version,
            self.default_effect,
            self.rules.len()
        )?;
        for r in self.rules.iter() {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

/// Several policies evaluated together.
///
/// The set's default effect is deny if *any* member policy defaults to deny
/// (least privilege wins); rules keep their owning policy's name for audit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PolicySet {
    policies: Vec<Policy>,
}

impl PolicySet {
    /// Creates an empty set (default effect: deny).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set from one policy.
    pub fn from_policy(p: Policy) -> Self {
        PolicySet { policies: vec![p] }
    }

    /// Adds a policy.
    pub fn add(&mut self, p: Policy) {
        self.policies.push(p);
    }

    /// Replaces a policy with the same name, or adds it. Returns whether an
    /// existing policy was replaced.
    pub fn upsert(&mut self, p: Policy) -> bool {
        if let Some(slot) = self.policies.iter_mut().find(|x| x.name() == p.name()) {
            *slot = p;
            true
        } else {
            self.policies.push(p);
            false
        }
    }

    /// Removes a policy by name; returns it if present.
    pub fn remove(&mut self, name: &str) -> Option<Policy> {
        let idx = self.policies.iter().position(|p| p.name() == name)?;
        Some(self.policies.remove(idx))
    }

    /// The member policies.
    pub fn policies(&self) -> &[Policy] {
        &self.policies
    }

    /// Looks up a policy by name.
    pub fn policy(&self, name: &str) -> Option<&Policy> {
        self.policies.iter().find(|p| p.name() == name)
    }

    /// Iterates all rules with their owning policy name.
    pub fn rules(&self) -> impl Iterator<Item = (&str, &Rule)> {
        self.policies
            .iter()
            .flat_map(|p| p.rules().iter().map(move |r| (p.name(), r)))
    }

    /// Total rule count.
    pub fn rule_count(&self) -> usize {
        self.policies.iter().map(|p| p.len()).sum()
    }

    /// The combined default effect: deny unless every member policy (and at
    /// least one exists) defaults to allow.
    pub fn default_effect(&self) -> Effect {
        if !self.policies.is_empty()
            && self.policies.iter().all(|p| p.default_effect() == Effect::Allow)
        {
            Effect::Allow
        } else {
            Effect::Deny
        }
    }

    /// All distinct rate-counter keys referenced by rule conditions.
    pub fn rate_keys(&self) -> BTreeSet<String> {
        self.rules()
            .flat_map(|(_, r)| r.condition().rate_keys())
            .map(str::to_string)
            .collect()
    }
}

impl FromIterator<Policy> for PolicySet {
    fn from_iter<T: IntoIterator<Item = Policy>>(iter: T) -> Self {
        PolicySet {
            policies: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::RateSource;
    use crate::entity::{EntityId, Pattern};
    use crate::request::EvalContext;

    /// No key has seen an event.
    struct Quiet;

    impl RateSource for Quiet {
        fn rate_per_sec(&self, _key: &str) -> f64 {
            0.0
        }
    }

    fn rule(id: &str, effect: Effect) -> Rule {
        Rule::new(
            id,
            effect,
            ActionSet::only(Action::Read),
            EntityMatcher::anything(),
            EntityMatcher::anything(),
        )
    }

    fn req(action: Action) -> AccessRequest {
        AccessRequest::new(
            EntityId::new("entry", "sensors"),
            EntityId::new("asset", "ecu"),
            action,
        )
    }

    #[test]
    fn effect_invert_and_display() {
        assert_eq!(Effect::Allow.invert(), Effect::Deny);
        assert_eq!(Effect::Deny.invert(), Effect::Allow);
        assert_eq!(Effect::Allow.to_string(), "allow");
    }

    #[test]
    fn rule_applies_checks_all_dimensions() {
        let ctx = EvalContext::new().with_mode("normal");
        let r = Rule::new(
            "r1",
            Effect::Allow,
            ActionSet::only(Action::Read),
            EntityMatcher::new("entry", Pattern::Any),
            EntityMatcher::new("asset", Pattern::Exact("ecu".into())),
        )
        .when(Condition::InMode("normal".into()));
        let applies = |req: &AccessRequest, ctx: &EvalContext| {
            r.matches(req) && r.condition().eval(ctx, &Quiet)
        };
        assert!(applies(&req(Action::Read), &ctx));
        // wrong action
        assert!(!r.matches(&req(Action::Write)));
        assert!(!applies(&req(Action::Write), &ctx));
        // wrong mode
        let fail_safe = EvalContext::new().with_mode("fail-safe");
        assert!(r.matches(&req(Action::Read)));
        assert!(!applies(&req(Action::Read), &fail_safe));
        // wrong object
        let other = AccessRequest::new(
            EntityId::new("entry", "sensors"),
            EntityId::new("asset", "eps"),
            Action::Read,
        );
        assert!(!applies(&other, &ctx));
        // wrong subject namespace
        let alien = AccessRequest::new(
            EntityId::new("proc", "sensors"),
            EntityId::new("asset", "ecu"),
            Action::Read,
        );
        assert!(!applies(&alien, &ctx));
    }

    #[test]
    fn rule_display_forms() {
        let r = rule("r", Effect::Deny)
            .when(Condition::InMode("normal".into()))
            .with_priority(5);
        let s = r.to_string();
        assert!(s.starts_with("deny read on *:* from *:*"));
        assert!(s.contains("when mode == normal"));
        assert!(s.contains("priority 5"));
    }

    #[test]
    fn policy_rejects_duplicate_rule_ids() {
        let p = Policy::new("p", 1)
            .add_rule(rule("a", Effect::Allow))
            .unwrap();
        let err = p.add_rule(rule("a", Effect::Deny)).unwrap_err();
        assert_eq!(err, PolicyError::DuplicateRule { id: "a".into() });
    }

    #[test]
    fn policy_defaults_to_deny() {
        let p = Policy::new("p", 1);
        assert_eq!(p.default_effect(), Effect::Deny);
        assert!(p.is_empty());
        let p = p.with_default(Effect::Allow);
        assert_eq!(p.default_effect(), Effect::Allow);
    }

    #[test]
    fn policy_set_upsert_and_remove() {
        let mut set = PolicySet::new();
        assert!(!set.upsert(Policy::new("a", 1)));
        assert!(set.upsert(Policy::new("a", 2)));
        assert_eq!(set.policy("a").unwrap().version(), 2);
        assert!(set.remove("a").is_some());
        assert!(set.remove("a").is_none());
    }

    #[test]
    fn policy_set_default_effect_least_privilege() {
        let mut set = PolicySet::new();
        assert_eq!(set.default_effect(), Effect::Deny, "empty set denies");
        set.add(Policy::new("open", 1).with_default(Effect::Allow));
        assert_eq!(set.default_effect(), Effect::Allow);
        set.add(Policy::new("strict", 1)); // default deny
        assert_eq!(set.default_effect(), Effect::Deny, "any deny wins");
    }

    #[test]
    fn policy_set_rules_iterate_with_owner() {
        let a = Policy::new("a", 1).add_rule(rule("r1", Effect::Allow)).unwrap();
        let b = Policy::new("b", 1).add_rule(rule("r2", Effect::Deny)).unwrap();
        let set: PolicySet = [a, b].into_iter().collect();
        let owners: Vec<&str> = set.rules().map(|(o, _)| o).collect();
        assert_eq!(owners, vec!["a", "b"]);
        assert_eq!(set.rule_count(), 2);
    }

    #[test]
    fn rate_keys_aggregate_across_policies() {
        let r = Rule::new(
            "r",
            Effect::Deny,
            ActionSet::all(),
            EntityMatcher::anything(),
            EntityMatcher::anything(),
        )
        .when(Condition::RateAtMost { key: "flood".into(), max_per_sec: 10 });
        let p = Policy::new("p", 1).add_rule(r).unwrap();
        let set = PolicySet::from_policy(p);
        assert!(set.rate_keys().contains("flood"));
    }

    #[test]
    fn policy_display_lists_rules() {
        let p = Policy::new("demo", 3)
            .add_rule(rule("r1", Effect::Allow))
            .unwrap();
        let text = p.to_string();
        assert!(text.contains("policy \"demo\" version 3"));
        assert!(text.contains("allow read"));
    }
}
