//! Decision audit trail.
//!
//! Every decision the engine takes can be recorded for repudiation defence
//! (the "R" in STRIDE) and for the attack-matrix experiments, which assert on
//! audit contents. The log is a bounded ring buffer.

use crate::policy::Effect;
use crate::request::AccessRequest;
use std::collections::VecDeque;
use std::fmt;

/// One audited decision.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Caller-supplied timestamp (microseconds; 0 when untimed).
    pub time_us: u64,
    /// The request that was decided.
    pub request: AccessRequest,
    /// The decided effect.
    pub effect: Effect,
    /// The rule that determined the outcome, as `policy.rule`, or `None`
    /// for default decisions.
    pub rule: Option<String>,
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
            self.rule.as_deref().unwrap_or("default")
        )
    }
}

/// A bounded ring buffer of [`AuditRecord`]s with aggregate counters.
#[derive(Debug, Clone)]
pub struct AuditLog {
    records: VecDeque<AuditRecord>,
    capacity: usize,
    next_seq: u64,
    allows: u64,
    denies: u64,
    defaults: u64,
}

impl Default for AuditLog {
    fn default() -> Self {
        AuditLog::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl AuditLog {
    /// Default retained-record bound.
    pub const DEFAULT_CAPACITY: usize = 16_384;

    /// Creates a log retaining at most `capacity` records (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        AuditLog {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            next_seq: 0,
            allows: 0,
            denies: 0,
            defaults: 0,
        }
    }

    /// Appends a record, evicting the oldest at capacity.
    pub fn record(
        &mut self,
        time_us: u64,
        request: AccessRequest,
        effect: Effect,
        rule: Option<String>,
    ) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        match effect {
            Effect::Allow => self.allows += 1,
            Effect::Deny => self.denies += 1,
        }
        if rule.is_none() {
            self.defaults += 1;
        }
        self.records.push_back(AuditRecord {
            seq: self.next_seq,
            time_us,
            request,
            effect,
            rule,
        });
        self.next_seq += 1;
    }

    /// Pushes an already-materialised record, preserving its sequence
    /// number (used by the engine when merging its sharded buffers).
    pub(crate) fn push_materialised(&mut self, record: AuditRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(record);
    }

    /// Overwrites the aggregate counters (used by the engine, whose
    /// authoritative counters live in its audit shards).
    pub(crate) fn set_aggregates(&mut self, total: u64, allows: u64, denies: u64, defaults: u64) {
        self.next_seq = total;
        self.allows = allows;
        self.denies = denies;
        self.defaults = defaults;
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &AuditRecord> {
        self.records.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded (and retained).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total allow decisions ever recorded.
    pub fn allows(&self) -> u64 {
        self.allows
    }

    /// Total deny decisions ever recorded.
    pub fn denies(&self) -> u64 {
        self.denies
    }

    /// Total decisions that fell through to the default effect.
    pub fn defaults(&self) -> u64 {
        self.defaults
    }

    /// Total decisions ever recorded (including evicted).
    pub fn total(&self) -> u64 {
        self.next_seq
    }

    /// The most recent record.
    pub fn last(&self) -> Option<&AuditRecord> {
        self.records.back()
    }

    /// Records whose determining rule starts with `prefix` (e.g. a policy
    /// name).
    pub fn by_rule_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a AuditRecord> {
        self.records.iter().filter(move |r| {
            r.rule
                .as_deref()
                .map(|id| id.starts_with(prefix))
                .unwrap_or(false)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::entity::EntityId;

    fn req() -> AccessRequest {
        AccessRequest::new(
            EntityId::new("entry", "x"),
            EntityId::new("asset", "y"),
            Action::Read,
        )
    }

    #[test]
    fn records_and_counts() {
        let mut log = AuditLog::default();
        log.record(1, req(), Effect::Allow, Some("p.r1".into()));
        log.record(2, req(), Effect::Deny, None);
        assert_eq!(log.len(), 2);
        assert_eq!(log.allows(), 1);
        assert_eq!(log.denies(), 1);
        assert_eq!(log.defaults(), 1);
        assert_eq!(log.total(), 2);
        assert_eq!(log.last().unwrap().seq, 1);
    }

    #[test]
    fn eviction_preserves_counters_and_seq() {
        let mut log = AuditLog::with_capacity(2);
        for i in 0..5 {
            log.record(i, req(), Effect::Deny, None);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.total(), 5);
        assert_eq!(log.denies(), 5);
        let seqs: Vec<u64> = log.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn rule_prefix_query() {
        let mut log = AuditLog::default();
        log.record(0, req(), Effect::Deny, Some("ecu-protection.r1".into()));
        log.record(0, req(), Effect::Deny, Some("locks.r9".into()));
        log.record(0, req(), Effect::Allow, None);
        assert_eq!(log.by_rule_prefix("ecu-protection").count(), 1);
        assert_eq!(log.by_rule_prefix("locks").count(), 1);
        assert_eq!(log.by_rule_prefix("nope").count(), 0);
    }

    #[test]
    fn display_shows_rule_or_default() {
        let mut log = AuditLog::default();
        log.record(7, req(), Effect::Allow, Some("p.r".into()));
        let s = log.last().unwrap().to_string();
        assert!(s.contains("(p.r)"));
        log.record(8, req(), Effect::Deny, None);
        assert!(log.last().unwrap().to_string().contains("(default)"));
    }

    #[test]
    fn zero_capacity_clamps() {
        let mut log = AuditLog::with_capacity(0);
        log.record(0, req(), Effect::Allow, None);
        log.record(1, req(), Effect::Allow, None);
        assert_eq!(log.len(), 1);
    }
}
