//! Decision audit trail.
//!
//! Every decision the engine takes is recorded for repudiation defence
//! (the "R" in STRIDE). The engine keeps the newest records in bounded
//! per-thread lanes, each record five words that only the deciding thread
//! writes, and hands them out merged, as [`AuditRecord`]s, through
//! [`PolicyEngine::with_audit`](crate::PolicyEngine::with_audit); its
//! counts of every decision are [`PolicyEngine::stats`](crate::PolicyEngine::stats).
//! No attack-matrix test asserts on audit contents: the experiments read
//! enforcement outcomes and statistics.

use crate::policy::Effect;
use crate::request::AccessRequest;
use std::fmt;

/// Audit records a [`PolicyEngine::new`](crate::PolicyEngine::new) engine
/// retains (per thread's lane, and in the merged trail).
pub const DEFAULT_CAPACITY: usize = 16_384;

/// One audited decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditRecord {
    /// Sequence number, increasing across the engine's threads.
    pub seq: u64,
    /// Caller-supplied timestamp (microseconds; 0 when untimed).
    pub time_us: u64,
    /// The request that was decided.
    pub request: AccessRequest,
    /// The decided effect.
    pub effect: Effect,
    /// The rule that determined the outcome, as the interned
    /// `policy.rule`, or `None` for default decisions.
    pub rule: Option<&'static str>,
}

impl fmt::Display for AuditRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} [{}us] {} => {} ({})",
            self.seq,
            self.time_us,
            self.request,
            self.effect,
            self.rule.unwrap_or("default")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::entity::EntityId;

    fn record(effect: Effect, rule: Option<&'static str>) -> AuditRecord {
        AuditRecord {
            seq: 7,
            time_us: 8,
            request: AccessRequest::new(
                EntityId::new("entry", "x"),
                EntityId::new("asset", "y"),
                Action::Read,
            ),
            effect,
            rule,
        }
    }

    #[test]
    fn display_shows_rule_or_default() {
        assert!(record(Effect::Allow, Some("p.r"))
            .to_string()
            .contains("(p.r)"));
        assert!(record(Effect::Deny, None).to_string().contains("(default)"));
    }
}
