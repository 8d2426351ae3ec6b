//! The subsumption lattice over matchers and the conservative condition
//! implication relation.
//!
//! Shadowing analysis needs a *sound* "rule B matches everything rule A
//! matches" test: false negatives only make the analyzer quieter, never
//! wrong. Pattern subsumption is exact for every pair the DSL can express
//! except prefix-vs-range mixtures, which conservatively report `false`.

use polsec_core::{ActionSet, Condition, EntityMatcher, Pattern};

/// Whether every entity name matched by `narrow` is also matched by
/// `broad`. Sound, not complete.
pub fn pattern_subsumes(narrow: &Pattern, broad: &Pattern) -> bool {
    match (narrow, broad) {
        (_, Pattern::Any) => true,
        // An exact name is a single point: just ask the broad pattern.
        (Pattern::Exact(n), b) => b.matches(n),
        (Pattern::Prefix(p), Pattern::Prefix(q)) => p.starts_with(q.as_str()),
        (Pattern::IdRange { lo, hi }, Pattern::IdRange { lo: lo2, hi: hi2 }) => {
            lo2 <= lo && hi <= hi2
        }
        _ => false,
    }
}

/// Whether every entity matched by `narrow` is also matched by `broad`:
/// the broad side's namespace must be a wildcard or equal, and its pattern
/// must subsume.
pub fn matcher_subsumes(narrow: &EntityMatcher, broad: &EntityMatcher) -> bool {
    let ns_ok = match broad.namespace() {
        None => true,
        Some(b) => narrow.namespace() == Some(b),
    };
    ns_ok && pattern_subsumes(narrow.pattern(), broad.pattern())
}

/// Whether `a`'s actions are a subset of `b`'s.
pub fn actions_subset(a: ActionSet, b: ActionSet) -> bool {
    a.iter().all(|x| b.contains(x))
}

/// Whether `a` and `b` share at least one action.
pub fn actions_overlap(a: ActionSet, b: ActionSet) -> bool {
    a.iter().any(|x| b.contains(x))
}

/// Conservative condition implication: `true` means every context
/// satisfying `c1` satisfies `c2`. `false` means "could not prove it" —
/// the relation is sound for shadowing (a missed implication only
/// suppresses a finding). The search takes at most [`crate::SEARCH_STEPS`]
/// steps and answers `false` when it runs out.
pub fn condition_implies(c1: &Condition, c2: &Condition) -> bool {
    let mut steps = crate::SEARCH_STEPS;
    implies(c1, c2, &mut steps)
}

/// [`condition_implies`] with a shared step budget. The rules only combine
/// sub-answers with "any" and "all", so a sub-search cut short (`false`)
/// can turn a proof into "could not prove it", never the reverse.
fn implies(c1: &Condition, c2: &Condition, steps: &mut u32) -> bool {
    if *steps == 0 {
        return false;
    }
    *steps -= 1;
    if matches!(c2, Condition::Always) || c1 == c2 {
        return true;
    }
    if let (
        Condition::RateAtMost { key: k1, max_per_sec: m1 },
        Condition::RateAtMost { key: k2, max_per_sec: m2 },
    ) = (c1, c2)
    {
        return k1 == k2 && m1 <= m2;
    }
    // A conjunction implies anything one of its conjuncts implies.
    if let Condition::All(xs) = c1 {
        if xs.iter().any(|x| implies(x, c2, steps)) {
            return true;
        }
    }
    // A disjunction implies c2 iff every arm does.
    if let Condition::AnyOf(xs) = c1 {
        return !xs.is_empty() && xs.iter().all(|x| implies(x, c2, steps));
    }
    match c2 {
        Condition::AnyOf(ys) => ys.iter().any(|y| implies(c1, y, steps)),
        Condition::All(ys) => !ys.is_empty() && ys.iter().all(|y| implies(c1, y, steps)),
        _ => false,
    }
}

/// Whether the two conditions are provably equivalent (mutual implication).
pub fn condition_equivalent(c1: &Condition, c2: &Condition) -> bool {
    condition_implies(c1, c2) && condition_implies(c2, c1)
}

/// A concrete entity name matched by the pattern — the most specific
/// representative, used to synthesise witness requests.
pub fn witness_name(p: &Pattern) -> String {
    match p {
        Pattern::Any => "any".into(),
        Pattern::Exact(n) => n.clone(),
        Pattern::Prefix(pre) => format!("{pre}0"),
        Pattern::IdRange { lo, .. } => lo.to_string(),
    }
}

/// A concrete `namespace:name` string matched by the matcher.
pub fn witness_entity(m: &EntityMatcher) -> String {
    format!("{}:{}", m.namespace().unwrap_or("*"), witness_name(m.pattern()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polsec_core::Action;

    fn exact(ns: &str, n: &str) -> EntityMatcher {
        EntityMatcher::new(ns, Pattern::Exact(n.into()))
    }

    #[test]
    fn pattern_lattice_basics() {
        let any = Pattern::Any;
        let exact = Pattern::Exact("ev-ecu".into());
        let prefix = Pattern::Prefix("ev-".into());
        let range = Pattern::IdRange { lo: 16, hi: 31 };
        assert!(pattern_subsumes(&exact, &any));
        assert!(pattern_subsumes(&exact, &exact));
        assert!(pattern_subsumes(&exact, &prefix), "ev-ecu starts with ev-");
        assert!(!pattern_subsumes(&prefix, &exact));
        assert!(pattern_subsumes(&prefix, &Pattern::Prefix("e".into())));
        assert!(!pattern_subsumes(&Pattern::Prefix("e".into()), &prefix));
        assert!(pattern_subsumes(&range, &Pattern::IdRange { lo: 0, hi: 31 }));
        assert!(!pattern_subsumes(&range, &Pattern::IdRange { lo: 17, hi: 31 }));
        assert!(pattern_subsumes(&Pattern::Exact("20".into()), &range));
        assert!(!pattern_subsumes(&any, &exact));
    }

    #[test]
    fn matcher_namespace_rules() {
        let diag = exact("entry", "diagnostics");
        let any_ns = EntityMatcher::any_namespace(Pattern::Any);
        let entry_any = EntityMatcher::new("entry", Pattern::Any);
        let asset_any = EntityMatcher::new("asset", Pattern::Any);
        assert!(matcher_subsumes(&diag, &any_ns));
        assert!(matcher_subsumes(&diag, &entry_any));
        assert!(!matcher_subsumes(&diag, &asset_any));
        assert!(!matcher_subsumes(&any_ns, &entry_any), "wildcard ns is broader");
    }

    #[test]
    fn action_sets() {
        let rw = ActionSet::of(&[Action::Read, Action::Write]);
        let r = ActionSet::only(Action::Read);
        assert!(actions_subset(r, rw));
        assert!(!actions_subset(rw, r));
        assert!(actions_overlap(rw, r));
        assert!(!actions_overlap(r, ActionSet::only(Action::Write)));
    }

    #[test]
    fn implication_rules() {
        let normal = Condition::InMode("normal".into());
        let crash = Condition::StateEquals { key: "crash".into(), value: "true".into() };
        let both = Condition::All(vec![normal.clone(), crash.clone()]);
        let either = Condition::AnyOf(vec![normal.clone(), crash.clone()]);
        assert!(condition_implies(&normal, &Condition::Always));
        assert!(condition_implies(&both, &normal));
        assert!(condition_implies(&both, &crash));
        assert!(!condition_implies(&normal, &both));
        assert!(condition_implies(&normal, &either));
        assert!(condition_implies(&either, &Condition::Always));
        assert!(!condition_implies(&either, &normal));
        // rate windows: tighter implies looser
        let r5 = Condition::RateAtMost { key: "k".into(), max_per_sec: 5 };
        let r9 = Condition::RateAtMost { key: "k".into(), max_per_sec: 9 };
        assert!(condition_implies(&r5, &r9));
        assert!(!condition_implies(&r9, &r5));
        assert!(condition_equivalent(&both, &both));
        assert!(!condition_equivalent(&both, &normal));
    }

    #[test]
    fn witnesses_are_concrete() {
        assert_eq!(witness_entity(&exact("entry", "diagnostics")), "entry:diagnostics");
        assert_eq!(
            witness_entity(&EntityMatcher::new("entry", Pattern::Prefix("sensor-".into()))),
            "entry:sensor-0"
        );
        assert_eq!(
            witness_entity(&EntityMatcher::any_namespace(Pattern::IdRange { lo: 7, hi: 9 })),
            "*:7"
        );
        assert_eq!(witness_entity(&EntityMatcher::anything()), "*:any");
    }
}
