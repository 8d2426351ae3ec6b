//! Rule conditions.
//!
//! Beyond plain read/write permissions, the paper anticipates "more complex
//! policies such as behavioural or situational based policies" (§V).
//! [`Condition`] is that extension point: predicates over the evaluation
//! context — current operating mode, named system state, request rates —
//! composable with boolean operators.

use crate::request::EvalContext;
use std::fmt;

/// A provider of live event rates, consulted by
/// [`Condition::RateAtMost`] during evaluation.
///
/// The engine implements it over its per-key windows in the context's
/// rate scope, so rate conditions read fresh values without the context
/// being cloned or mutated per decision.
pub trait RateSource {
    /// The sustained events-per-second for `key` (0.0 when unknown).
    fn rate_per_sec(&self, key: &str) -> f64;
}

/// A predicate over the evaluation context.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Condition {
    /// Always true (the default for unconditional rules).
    #[default]
    Always,
    /// True when the context's operating mode equals the given name.
    InMode(String),
    /// True when a named state variable equals a value
    /// (e.g. `vehicle.moving == true`).
    StateEquals {
        /// State key.
        key: String,
        /// Expected value.
        value: String,
    },
    /// True while the named rate counter is at or below `max_per_sec`
    /// (a situational anti-flooding policy).
    RateAtMost {
        /// Rate counter key (the engine tracks one window per key).
        key: String,
        /// Maximum sustained events per second.
        max_per_sec: u32,
    },
    /// Logical conjunction.
    All(Vec<Condition>),
    /// Logical disjunction.
    AnyOf(Vec<Condition>),
    /// Logical negation.
    Not(Box<Condition>),
}

impl Condition {
    /// Evaluates the condition against a context, with rates read from
    /// `rates` (the engine's live windows).
    pub fn eval(&self, ctx: &EvalContext, rates: &dyn RateSource) -> bool {
        match self {
            Condition::Always => true,
            Condition::InMode(m) => ctx.mode() == Some(m.as_str()),
            Condition::StateEquals { key, value } => ctx.state(key) == Some(value.as_str()),
            Condition::RateAtMost { key, max_per_sec } => {
                rates.rate_per_sec(key) <= *max_per_sec as f64
            }
            Condition::All(cs) => cs.iter().all(|c| c.eval(ctx, rates)),
            Condition::AnyOf(cs) => cs.iter().any(|c| c.eval(ctx, rates)),
            Condition::Not(c) => !c.eval(ctx, rates),
        }
    }

    /// Whether a decision gated by this condition may be cached on a
    /// `(subject, object, action, mode)` key: true when the condition
    /// depends on nothing outside that key. `StateEquals` and `RateAtMost`
    /// read context state and live rate counters the key does not capture,
    /// so a decide whose rule walk reaches a rule gated by them (one whose
    /// actions, subject and object match the request) goes around the
    /// decision cache; `InMode` is cacheable because the mode is part of
    /// the key.
    pub fn is_cache_safe(&self) -> bool {
        match self {
            Condition::Always | Condition::InMode(_) => true,
            Condition::StateEquals { .. } | Condition::RateAtMost { .. } => false,
            Condition::All(cs) | Condition::AnyOf(cs) => cs.iter().all(Condition::is_cache_safe),
            Condition::Not(c) => c.is_cache_safe(),
        }
    }

    /// Conjunction helper that flattens nested `All`s.
    pub fn and(self, other: Condition) -> Condition {
        match (self, other) {
            (Condition::Always, b) => b,
            (a, Condition::Always) => a,
            (Condition::All(mut xs), Condition::All(ys)) => {
                xs.extend(ys);
                Condition::All(xs)
            }
            (Condition::All(mut xs), b) => {
                xs.push(b);
                Condition::All(xs)
            }
            (a, Condition::All(mut ys)) => {
                ys.insert(0, a);
                Condition::All(ys)
            }
            (a, b) => Condition::All(vec![a, b]),
        }
    }

    /// Whether the condition references the given rate key (used by the
    /// engine to know which counters to maintain).
    pub fn rate_keys(&self) -> Vec<&str> {
        match self {
            Condition::RateAtMost { key, .. } => vec![key.as_str()],
            Condition::All(cs) | Condition::AnyOf(cs) => {
                cs.iter().flat_map(|c| c.rate_keys()).collect()
            }
            Condition::Not(c) => c.rate_keys(),
            _ => Vec::new(),
        }
    }
}


impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Always => f.write_str("true"),
            Condition::InMode(m) => write!(f, "mode == {m}"),
            Condition::StateEquals { key, value } => write!(f, "state.{key} == {value}"),
            Condition::RateAtMost { key, max_per_sec } => {
                write!(f, "rate({key}) <= {max_per_sec}")
            }
            Condition::All(cs) => {
                let parts: Vec<String> = cs.iter().map(|c| format!("({c})")).collect();
                f.write_str(&parts.join(" && "))
            }
            Condition::AnyOf(cs) => {
                let parts: Vec<String> = cs.iter().map(|c| format!("({c})")).collect();
                f.write_str(&parts.join(" || "))
            }
            Condition::Not(c) => write!(f, "!({c})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::EvalContext;

    /// Every key at the same rate.
    struct Rates(f64);

    impl RateSource for Rates {
        fn rate_per_sec(&self, _key: &str) -> f64 {
            self.0
        }
    }

    const QUIET: &Rates = &Rates(0.0);

    #[test]
    fn always_and_mode() {
        let ctx = EvalContext::new().with_mode("normal");
        assert!(Condition::Always.eval(&ctx, QUIET));
        assert!(Condition::InMode("normal".into()).eval(&ctx, QUIET));
        assert!(!Condition::InMode("fail-safe".into()).eval(&ctx, QUIET));
        // no mode set ⇒ InMode is false
        assert!(!Condition::InMode("normal".into()).eval(&EvalContext::new(), QUIET));
    }

    #[test]
    fn state_equals() {
        let ctx = EvalContext::new().with_state("vehicle.moving", "true");
        assert!(Condition::StateEquals { key: "vehicle.moving".into(), value: "true".into() }
            .eval(&ctx, QUIET));
        assert!(!Condition::StateEquals { key: "vehicle.moving".into(), value: "false".into() }
            .eval(&ctx, QUIET));
        assert!(!Condition::StateEquals { key: "missing".into(), value: "x".into() }
            .eval(&ctx, QUIET));
    }

    #[test]
    fn rate_at_most() {
        let ctx = EvalContext::new();
        let burst = |max_per_sec| Condition::RateAtMost { key: "burst".into(), max_per_sec };
        assert!(burst(5).eval(&ctx, &Rates(5.0)));
        assert!(burst(6).eval(&ctx, &Rates(5.0)));
        assert!(!burst(4).eval(&ctx, &Rates(5.0)));
        assert!(burst(0).eval(&ctx, QUIET));
    }

    #[test]
    fn boolean_combinators() {
        let ctx = EvalContext::new().with_mode("normal");
        let in_normal = Condition::InMode("normal".into());
        let in_failsafe = Condition::InMode("fail-safe".into());
        assert!(Condition::All(vec![in_normal.clone(), Condition::Always]).eval(&ctx, QUIET));
        assert!(!Condition::All(vec![in_normal.clone(), in_failsafe.clone()]).eval(&ctx, QUIET));
        assert!(Condition::AnyOf(vec![in_failsafe.clone(), in_normal.clone()]).eval(&ctx, QUIET));
        assert!(!Condition::AnyOf(vec![in_failsafe.clone()]).eval(&ctx, QUIET));
        assert!(Condition::Not(Box::new(in_failsafe)).eval(&ctx, QUIET));
        assert!(!Condition::Not(Box::new(in_normal)).eval(&ctx, QUIET));
    }

    #[test]
    fn empty_combinators_follow_logic_identities() {
        let ctx = EvalContext::new();
        assert!(Condition::All(vec![]).eval(&ctx, QUIET), "empty conjunction is true");
        assert!(!Condition::AnyOf(vec![]).eval(&ctx, QUIET), "empty disjunction is false");
    }

    #[test]
    fn and_flattens() {
        let a = Condition::InMode("a".into());
        let b = Condition::InMode("b".into());
        let c = Condition::InMode("c".into());
        let combined = a.clone().and(b.clone()).and(c.clone());
        assert_eq!(combined, Condition::All(vec![a.clone(), b, c]));
        // identity
        assert_eq!(Condition::Always.and(a.clone()), a);
        assert_eq!(a.clone().and(Condition::Always), a);
    }

    #[test]
    fn rate_keys_collects_nested() {
        let c = Condition::All(vec![
            Condition::RateAtMost { key: "x".into(), max_per_sec: 1 },
            Condition::Not(Box::new(Condition::RateAtMost { key: "y".into(), max_per_sec: 2 })),
            Condition::InMode("m".into()),
        ]);
        assert_eq!(c.rate_keys(), vec!["x", "y"]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Condition::Always.to_string(), "true");
        assert_eq!(Condition::InMode("normal".into()).to_string(), "mode == normal");
        assert_eq!(
            Condition::StateEquals { key: "k".into(), value: "v".into() }.to_string(),
            "state.k == v"
        );
        assert_eq!(
            Condition::RateAtMost { key: "r".into(), max_per_sec: 9 }.to_string(),
            "rate(r) <= 9"
        );
        let c = Condition::All(vec![Condition::Always, Condition::Always]);
        assert_eq!(c.to_string(), "(true) && (true)");
    }

    #[test]
    fn default_is_always() {
        assert_eq!(Condition::default(), Condition::Always);
    }

    #[test]
    fn cache_safety_analysis() {
        assert!(Condition::Always.is_cache_safe());
        assert!(Condition::InMode("normal".into()).is_cache_safe());
        assert!(!Condition::StateEquals { key: "k".into(), value: "v".into() }.is_cache_safe());
        assert!(!Condition::RateAtMost { key: "r".into(), max_per_sec: 1 }.is_cache_safe());
        // combinators propagate the weakest member
        assert!(Condition::All(vec![Condition::Always, Condition::InMode("m".into())])
            .is_cache_safe());
        assert!(!Condition::AnyOf(vec![
            Condition::Always,
            Condition::RateAtMost { key: "r".into(), max_per_sec: 1 }
        ])
        .is_cache_safe());
        assert!(!Condition::Not(Box::new(Condition::StateEquals {
            key: "k".into(),
            value: "v".into()
        }))
        .is_cache_safe());
    }
}
