//! Condition satisfiability via negation normal form and interval
//! analysis.
//!
//! Conditions are small boolean formulas over three atom families: mode
//! equality, state equality, and rate windows. A condition is *dead* if no
//! evaluation context can satisfy it (`rate(k) <= 5 && !(rate(k) <= 10)`),
//! and *mode-unreachable* if every satisfying context requires an operating
//! mode the [`crate::ModeGraph`] can never enter. The solver pushes
//! negations to the atoms, then explores disjunction branches with a
//! backtracking assignment:
//!
//! * at most one positive mode per conjunction (a context has one mode),
//! * state keys map to at most one required value, with a negative set,
//! * rate keys carry an integer interval `[lo, hi]` that `RateAtMost`
//!   shrinks from above and its negation from below.
//!
//! Each branch folds every literal of its conjunction before it splits a
//! disjunction, so contradictory conjuncts end the search at once however
//! many disjunctions sit beside them. The branch search is still
//! exponential in the worst case, so it stops after a fixed number of
//! branches and then answers "satisfiable": the safe answer, which only
//! suppresses a finding. No shipped condition comes near the budget. The
//! normal form and the assignment borrow their atoms, keys and values from
//! the condition, so a branch copies no string.

use polsec_core::Condition;
use std::collections::{BTreeMap, BTreeSet};

/// Negation normal form: negations only on atoms.
enum Nnf<'c> {
    True,
    False,
    /// An atom (`InMode` / `StateEquals` / `RateAtMost`), possibly negated.
    Lit { neg: bool, atom: &'c Condition },
    All(Vec<Nnf<'c>>),
    Any(Vec<Nnf<'c>>),
}

fn nnf(c: &Condition, neg: bool) -> Nnf<'_> {
    match c {
        Condition::Always => {
            if neg {
                Nnf::False
            } else {
                Nnf::True
            }
        }
        Condition::Not(inner) => nnf(inner, !neg),
        Condition::All(cs) => {
            let kids = cs.iter().map(|x| nnf(x, neg)).collect();
            if neg {
                Nnf::Any(kids)
            } else {
                Nnf::All(kids)
            }
        }
        Condition::AnyOf(cs) => {
            let kids = cs.iter().map(|x| nnf(x, neg)).collect();
            if neg {
                Nnf::All(kids)
            } else {
                Nnf::Any(kids)
            }
        }
        atom => Nnf::Lit { neg, atom },
    }
}

/// A partial assignment over the atom families; `add` maintains
/// consistency incrementally.
#[derive(Clone, Default)]
struct Assign<'c> {
    mode: Option<&'c str>,
    not_modes: BTreeSet<&'c str>,
    state: BTreeMap<&'c str, &'c str>,
    state_not: BTreeMap<&'c str, BTreeSet<&'c str>>,
    rate_lo: BTreeMap<&'c str, u64>,
    rate_hi: BTreeMap<&'c str, u64>,
}

impl<'c> Assign<'c> {
    /// Folds one literal in; `false` means contradiction.
    fn add(&mut self, neg: bool, atom: &'c Condition, modes: Option<&BTreeSet<String>>) -> bool {
        match atom {
            Condition::InMode(m) => {
                let m = m.as_str();
                if neg {
                    if self.mode == Some(m) {
                        return false;
                    }
                    self.not_modes.insert(m);
                } else {
                    if let Some(universe) = modes {
                        if !universe.contains(m) {
                            return false;
                        }
                    }
                    if self.not_modes.contains(m) {
                        return false;
                    }
                    match self.mode {
                        Some(prev) if prev != m => return false,
                        _ => self.mode = Some(m),
                    }
                }
                true
            }
            Condition::StateEquals { key, value } => {
                let (key, value) = (key.as_str(), value.as_str());
                if neg {
                    if self.state.get(key) == Some(&value) {
                        return false;
                    }
                    self.state_not.entry(key).or_default().insert(value);
                } else {
                    if self
                        .state_not
                        .get(key)
                        .is_some_and(|not| not.contains(value))
                    {
                        return false;
                    }
                    match self.state.get(key) {
                        Some(&prev) if prev != value => return false,
                        _ => {
                            self.state.insert(key, value);
                        }
                    }
                }
                true
            }
            Condition::RateAtMost { key, max_per_sec } => {
                let key = key.as_str();
                let m = u64::from(*max_per_sec);
                if neg {
                    // rate(key) > m  ⇒  lo := max(lo, m + 1)
                    let lo = self.rate_lo.entry(key).or_insert(0);
                    *lo = (*lo).max(m + 1);
                } else {
                    let hi = self.rate_hi.entry(key).or_insert(u64::MAX);
                    *hi = (*hi).min(m);
                }
                let lo = self.rate_lo.get(key).copied().unwrap_or(0);
                let hi = self.rate_hi.get(key).copied().unwrap_or(u64::MAX);
                lo <= hi
            }
            // Non-atoms never reach `add`.
            _ => true,
        }
    }
}

/// Depth-first exploration: every conjunct is folded into the assignment
/// first, then the last disjunction found branches the search. `steps`
/// counts down one per branch; an exhausted budget reads as satisfiable.
fn sat_rec<'c>(
    mut queue: Vec<&Nnf<'c>>,
    mut assign: Assign<'c>,
    modes: Option<&BTreeSet<String>>,
    steps: &mut u32,
) -> bool {
    let mut disjunctions = Vec::new();
    while let Some(n) = queue.pop() {
        match n {
            Nnf::True => {}
            Nnf::False => return false,
            Nnf::All(kids) => queue.extend(kids.iter()),
            Nnf::Lit { neg, atom } => {
                if !assign.add(*neg, atom, modes) {
                    return false;
                }
            }
            any @ Nnf::Any(_) => disjunctions.push(any),
        }
    }
    let Some(Nnf::Any(kids)) = disjunctions.pop() else {
        return true;
    };
    kids.iter().any(|k| {
        if *steps == 0 {
            return true;
        }
        *steps -= 1;
        let mut branch = disjunctions.clone();
        branch.push(k);
        sat_rec(branch, assign.clone(), modes, steps)
    })
}

/// Whether any evaluation context satisfies the condition. With
/// `reachable_modes = Some(universe)`, positive mode requirements must name
/// a mode in the universe (negated modes are unrestricted: a context may
/// also carry no mode at all). A condition too large to decide within
/// [`crate::SEARCH_STEPS`] branches is reported satisfiable.
pub fn satisfiable(c: &Condition, reachable_modes: Option<&BTreeSet<String>>) -> bool {
    let root = nnf(c, false);
    let mut steps = crate::SEARCH_STEPS;
    sat_rec(vec![&root], Assign::default(), reachable_modes, &mut steps)
}

/// Every mode name the condition mentions (positively or under negation).
pub fn mentioned_modes(c: &Condition) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_modes(c, &mut out);
    out
}

fn collect_modes(c: &Condition, out: &mut BTreeSet<String>) {
    match c {
        Condition::InMode(m) => {
            out.insert(m.clone());
        }
        Condition::All(cs) | Condition::AnyOf(cs) => {
            for x in cs {
                collect_modes(x, out);
            }
        }
        Condition::Not(inner) => collect_modes(inner, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mode(m: &str) -> Condition {
        Condition::InMode(m.into())
    }

    fn rate(key: &str, max: u32) -> Condition {
        Condition::RateAtMost { key: key.into(), max_per_sec: max }
    }

    fn not(c: Condition) -> Condition {
        Condition::Not(Box::new(c))
    }

    #[test]
    fn atoms_are_satisfiable() {
        assert!(satisfiable(&Condition::Always, None));
        assert!(satisfiable(&mode("normal"), None));
        assert!(satisfiable(&rate("k", 0), None));
        assert!(!satisfiable(&not(Condition::Always), None));
    }

    #[test]
    fn two_positive_modes_conflict() {
        let c = Condition::All(vec![mode("normal"), mode("fail-safe")]);
        assert!(!satisfiable(&c, None));
        let d = Condition::AnyOf(vec![mode("normal"), mode("fail-safe")]);
        assert!(satisfiable(&d, None));
    }

    #[test]
    fn mode_and_its_negation_conflict() {
        let c = Condition::All(vec![mode("normal"), not(mode("normal"))]);
        assert!(!satisfiable(&c, None));
        let ok = Condition::All(vec![mode("normal"), not(mode("fail-safe"))]);
        assert!(satisfiable(&ok, None));
    }

    #[test]
    fn empty_rate_window_is_unsat() {
        // rate <= 5 && rate > 10
        let c = Condition::All(vec![rate("k", 5), not(rate("k", 10))]);
        assert!(!satisfiable(&c, None));
        // rate <= 10 && rate > 5 is a real window
        let ok = Condition::All(vec![rate("k", 10), not(rate("k", 5))]);
        assert!(satisfiable(&ok, None));
        // distinct keys never interact
        let keys = Condition::All(vec![rate("a", 5), not(rate("b", 10))]);
        assert!(satisfiable(&keys, None));
    }

    #[test]
    fn state_conflicts() {
        let eq = |k: &str, v: &str| Condition::StateEquals { key: k.into(), value: v.into() };
        assert!(!satisfiable(&Condition::All(vec![eq("crash", "true"), eq("crash", "false")]), None));
        assert!(!satisfiable(&Condition::All(vec![eq("crash", "true"), not(eq("crash", "true"))]), None));
        assert!(satisfiable(&Condition::All(vec![eq("crash", "true"), not(eq("crash", "false"))]), None));
        assert!(satisfiable(&Condition::All(vec![eq("crash", "true"), eq("stolen", "false")]), None));
    }

    #[test]
    fn mode_universe_restricts_positives_only() {
        let universe: BTreeSet<String> =
            ["normal".to_string(), "fail-safe".to_string()].into();
        assert!(satisfiable(&mode("normal"), Some(&universe)));
        assert!(!satisfiable(&mode("factory"), Some(&universe)));
        // negated unknown modes stay satisfiable
        assert!(satisfiable(&not(mode("factory")), Some(&universe)));
        // a disjunction survives if one arm is reachable
        let c = Condition::AnyOf(vec![mode("factory"), mode("normal")]);
        assert!(satisfiable(&c, Some(&universe)));
        let d = Condition::AnyOf(vec![mode("factory"), mode("assembly")]);
        assert!(!satisfiable(&d, Some(&universe)));
    }

    #[test]
    fn disjunction_branches_keep_independent_assignments() {
        // (mode normal || mode fail-safe) && !(mode normal) is satisfiable
        // via the second arm only.
        let c = Condition::All(vec![
            Condition::AnyOf(vec![mode("normal"), mode("fail-safe")]),
            not(mode("normal")),
        ]);
        assert!(satisfiable(&c, None));
    }

    #[test]
    fn an_exhausted_budget_answers_satisfiable() {
        // Twenty free two-way choices, then a disjunction whose every arm
        // contradicts one of them: unsatisfiable, but only after all 2^20
        // assignments. The budget stops the search first, on the safe side.
        let eq = |k: &str, v: &str| Condition::StateEquals { key: k.into(), value: v.into() };
        let keys: Vec<String> = (0..20).map(|i| format!("k{i}")).collect();
        let mut conjuncts: Vec<Condition> = keys
            .iter()
            .map(|k| Condition::AnyOf(vec![eq(k, "a"), eq(k, "b")]))
            .collect();
        conjuncts.push(Condition::AnyOf(
            keys.iter()
                .map(|k| Condition::All(vec![not(eq(k, "a")), not(eq(k, "b"))]))
                .collect(),
        ));
        assert!(satisfiable(&Condition::All(conjuncts), None));
    }

    #[test]
    fn mentioned_modes_collects_all() {
        let c = Condition::All(vec![
            mode("normal"),
            not(mode("factory")),
            Condition::AnyOf(vec![mode("fail-safe"), rate("k", 1)]),
        ]);
        let m = mentioned_modes(&c);
        assert_eq!(
            m.into_iter().collect::<Vec<_>>(),
            vec!["factory".to_string(), "fail-safe".into(), "normal".into()]
        );
    }
}
