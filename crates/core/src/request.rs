//! Access requests and evaluation contexts.

use crate::action::Action;
use crate::entity::EntityId;
use crate::intern::Symbol;
use std::collections::BTreeMap;
use std::fmt;

/// One access request: *subject* wants to perform *action* on *object*.
///
/// Requests are `Copy` — two interned entity ids plus an action — so the
/// decision path never clones strings to describe who is asking for what.
///
/// # Example
/// ```
/// use polsec_core::{AccessRequest, Action, EntityId};
/// let r = AccessRequest::new(
///     EntityId::new("entry", "telematics"),
///     EntityId::new("asset", "door-locks"),
///     Action::Write,
/// );
/// assert_eq!(r.to_string(), "entry:telematics --write--> asset:door-locks");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessRequest {
    subject: EntityId,
    object: EntityId,
    action: Action,
}

impl AccessRequest {
    /// Creates a request.
    pub fn new(subject: EntityId, object: EntityId, action: Action) -> Self {
        AccessRequest { subject, object, action }
    }

    /// The requesting entity.
    pub fn subject(&self) -> &EntityId {
        &self.subject
    }

    /// The target entity.
    pub fn object(&self) -> &EntityId {
        &self.object
    }

    /// The requested action.
    pub fn action(&self) -> Action {
        self.action
    }
}

impl fmt::Display for AccessRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} --{}--> {}", self.subject, self.action, self.object)
    }
}

/// The situational context a request is evaluated in: operating mode, named
/// state variables and a rate scope.
///
/// Contexts are cheap to clone and carry no interior mutability; stateful
/// tracking (rates over time) is the engine's job: a decide reads its own
/// per-key windows, in the context's rate scope. The operating mode is
/// interned so the engine's decision-cache key can include it without
/// touching strings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalContext {
    mode: Option<Symbol>,
    state: BTreeMap<String, String>,
    rate_scope: Option<u64>,
}

impl EvalContext {
    /// Creates an empty context (no mode, no state).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the operating mode (builder style).
    pub fn with_mode(mut self, mode: impl AsRef<str>) -> Self {
        self.mode = Some(Symbol::intern(mode.as_ref()));
        self
    }

    /// Sets a state variable (builder style).
    pub fn with_state(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.state.insert(key.into(), value.into());
        self
    }

    /// The current operating mode, if set.
    pub fn mode(&self) -> Option<&'static str> {
        self.mode.map(Symbol::as_str)
    }

    /// The interned operating mode, if set (used in cache keys).
    pub fn mode_symbol(&self) -> Option<Symbol> {
        self.mode
    }

    /// Changes the operating mode in place.
    pub fn set_mode(&mut self, mode: impl AsRef<str>) {
        self.mode = Some(Symbol::intern(mode.as_ref()));
    }

    /// Reads a state variable.
    pub fn state(&self, key: &str) -> Option<&str> {
        self.state.get(key).map(|s| s.as_str())
    }

    /// Writes a state variable in place, reusing the existing value's
    /// allocation when the key is already present.
    ///
    /// Hot enforcement paths (the fleet's behavioural monitors flip
    /// `implausible` on every flagged frame) republish the same few keys
    /// constantly; after the first write this is allocation-free as long
    /// as the new value fits the old capacity.
    pub fn set_state(&mut self, key: &str, value: &str) {
        match self.state.get_mut(key) {
            Some(slot) => {
                slot.clear();
                slot.push_str(value);
            }
            None => {
                self.state.insert(key.to_string(), value.to_string());
            }
        }
    }

    /// Selects a rate *scope* for this context (builder style): decisions
    /// evaluated under a scoped context read the engine's per-scope rate
    /// windows (fed by `PolicyEngine::observe_rate_event`) instead
    /// of the global ones. Scopes keep rate trackers independent between
    /// tenants of one shared engine — e.g. one scope per vehicle of a
    /// fleet, so concurrently simulated vehicles cannot couple through a
    /// shared `rate(...)` window.
    pub fn with_rate_scope(mut self, scope: u64) -> Self {
        self.rate_scope = Some(scope);
        self
    }

    /// Sets or clears the rate scope in place.
    pub fn set_rate_scope(&mut self, scope: Option<u64>) {
        self.rate_scope = scope;
    }

    /// The active rate scope, if any.
    pub fn rate_scope(&self) -> Option<u64> {
        self.rate_scope
    }
}

impl fmt::Display for EvalContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mode={}", self.mode().unwrap_or("-"))?;
        for (k, v) in &self.state {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_accessors() {
        let r = AccessRequest::new(
            EntityId::new("a", "s"),
            EntityId::new("b", "o"),
            Action::Read,
        );
        assert_eq!(r.subject().name(), "s");
        assert_eq!(r.object().namespace(), "b");
        assert_eq!(r.action(), Action::Read);
    }

    #[test]
    fn context_builders_and_mutators() {
        let mut ctx = EvalContext::new()
            .with_mode("normal")
            .with_state("doors", "locked");
        assert_eq!(ctx.mode(), Some("normal"));
        assert_eq!(ctx.state("doors"), Some("locked"));
        assert_eq!(ctx.state("missing"), None);
        ctx.set_mode("fail-safe");
        ctx.set_state("doors", "open");
        assert_eq!(ctx.mode(), Some("fail-safe"));
        assert_eq!(ctx.state("doors"), Some("open"));
    }

    #[test]
    fn in_place_state_writes_match_inserting_ones() {
        let mut ctx = EvalContext::new().with_state("implausible", "false");
        ctx.set_state("implausible", "true");
        assert_eq!(ctx, EvalContext::new().with_state("implausible", "true"));
        // A fresh key inserts like the builder does.
        ctx.set_state("new", "v");
        assert_eq!(
            ctx,
            EvalContext::new()
                .with_state("implausible", "true")
                .with_state("new", "v")
        );
        // A shorter value fully replaces the longer one.
        ctx.set_state("implausible", "f");
        assert_eq!(ctx.state("implausible"), Some("f"));
    }

    #[test]
    fn mode_symbol_matches_mode() {
        let ctx = EvalContext::new().with_mode("normal");
        assert_eq!(ctx.mode_symbol().unwrap().as_str(), "normal");
        assert_eq!(EvalContext::new().mode_symbol(), None);
    }

    #[test]
    fn displays() {
        let ctx = EvalContext::new().with_mode("m").with_state("k", "v");
        assert_eq!(ctx.to_string(), "mode=m k=v");
        assert_eq!(EvalContext::new().to_string(), "mode=-");
    }
}
