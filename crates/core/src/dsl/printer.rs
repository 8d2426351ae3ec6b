//! Canonical DSL printer.
//!
//! Prints policies in the exact surface syntax [`super::parse_policy`]
//! accepts, so `parse(print(p)) == p`. Rule ids are always emitted (`as id`)
//! to make the round trip lossless.

use crate::condition::Condition;
use crate::policy::{Policy, Rule};

fn needs_quoting(value: &str) -> bool {
    value.is_empty()
        || !value
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | '*'))
}

/// `value` between double quotes, with `"` and `\` escaped.
fn quote(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        if matches!(c, '"' | '\\') {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
    out
}

fn print_value(value: &str) -> String {
    if needs_quoting(value) {
        quote(value)
    } else {
        value.to_string()
    }
}

/// Prints a condition in parseable syntax.
pub fn print_condition(c: &Condition) -> String {
    match c {
        Condition::Always => "true".to_string(),
        Condition::InMode(m) => format!("mode == {}", print_value(m)),
        Condition::StateEquals { key, value } => {
            format!("state.{key} == {}", print_value(value))
        }
        Condition::RateAtMost { key, max_per_sec } => format!("rate({key}) <= {max_per_sec}"),
        Condition::All(cs) => cs
            .iter()
            .map(print_grouped)
            .collect::<Vec<_>>()
            .join(" && "),
        Condition::AnyOf(cs) => cs
            .iter()
            .map(print_grouped)
            .collect::<Vec<_>>()
            .join(" || "),
        Condition::Not(inner) => format!("!({})", print_condition(inner)),
    }
}

/// Wraps composite sub-conditions in parentheses so precedence survives the
/// round trip.
fn print_grouped(c: &Condition) -> String {
    match c {
        Condition::All(_) | Condition::AnyOf(_) => format!("({})", print_condition(c)),
        _ => print_condition(c),
    }
}

/// Prints one rule as a statement (with trailing `;`).
pub fn print_rule(r: &Rule) -> String {
    let actions: Vec<String> = r.actions().iter().map(|a| a.to_string()).collect();
    let mut out = format!(
        "{} {} on {} from {}",
        r.effect(),
        actions.join(", "),
        r.object(),
        r.subject()
    );
    if r.condition() != &Condition::Always {
        out.push_str(&format!(" when {}", print_condition(r.condition())));
    }
    if r.priority() != 0 {
        out.push_str(&format!(" priority {}", r.priority()));
    }
    out.push_str(&format!(" as {};", r.id()));
    out
}

/// Prints a policy block in canonical form.
pub fn print_policy(p: &Policy) -> String {
    let mut out = format!("policy {} version {} {{\n", quote(p.name()), p.version());
    out.push_str(&format!("    default {};\n", p.default_effect()));
    for r in p.rules() {
        out.push_str(&format!("    {}\n", print_rule(r)));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, ActionSet};
    use crate::dsl::parse_policy;
    use crate::entity::{EntityMatcher, Pattern};
    use crate::policy::Effect;

    fn sample_policy() -> Policy {
        Policy::new("sample", 4)
            .with_default(Effect::Deny)
            .add_rule(
                Rule::new(
                    "allow-read",
                    Effect::Allow,
                    ActionSet::of(&[Action::Read, Action::Write]),
                    EntityMatcher::new("entry", Pattern::Prefix("sensor-".into())),
                    EntityMatcher::new("asset", Pattern::Exact("ev-ecu".into())),
                )
                .when(
                    Condition::InMode("normal".into())
                        .and(Condition::RateAtMost { key: "s".into(), max_per_sec: 3 }),
                )
                .with_priority(2),
            )
            .unwrap()
            .add_rule(
                Rule::new(
                    "deny-range",
                    Effect::Deny,
                    ActionSet::only(Action::Write),
                    EntityMatcher::anything(),
                    EntityMatcher::new("can", Pattern::IdRange { lo: 0x100, hi: 0x1FF }),
                ),
            )
            .unwrap()
    }

    #[test]
    fn round_trip_sample() {
        let p = sample_policy();
        let text = print_policy(&p);
        let back = parse_policy(&text).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn quoting_rules() {
        assert_eq!(print_value("normal"), "normal");
        assert_eq!(print_value("remote diagnostic"), "\"remote diagnostic\"");
        assert_eq!(print_value(""), "\"\"");
        assert_eq!(print_value("0x100-0x1FF"), "0x100-0x1FF");
        assert_eq!(print_value(r#"say "hi""#), r#""say \"hi\"""#);
        assert_eq!(print_value(r"C:\dir"), r#""C:\\dir""#);
    }

    #[test]
    fn names_and_values_with_quotes_and_backslashes_round_trip() {
        let p = Policy::new("a\"b\\c", 1)
            .add_rule(
                Rule::new(
                    "r",
                    Effect::Allow,
                    ActionSet::only(Action::Read),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                )
                .when(
                    Condition::InMode("\"quoted\" mode".into()).and(Condition::StateEquals {
                        key: "k".into(),
                        value: "\\\r\n\\".into(),
                    }),
                ),
            )
            .unwrap();
        let text = print_policy(&p);
        assert!(text.starts_with(r#"policy "a\"b\\c" version 1 {"#), "{text}");
        assert_eq!(parse_policy(&text).unwrap(), p);
    }

    #[test]
    fn quoted_mode_round_trips() {
        let p = Policy::new("p", 1)
            .add_rule(
                Rule::new(
                    "r",
                    Effect::Allow,
                    ActionSet::only(Action::Read),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                )
                .when(Condition::InMode("remote diagnostic".into())),
            )
            .unwrap();
        let back = parse_policy(&print_policy(&p)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn nested_conditions_round_trip() {
        let cond = Condition::AnyOf(vec![
            Condition::All(vec![
                Condition::InMode("a".into()),
                Condition::Not(Box::new(Condition::InMode("b".into()))),
            ]),
            Condition::StateEquals { key: "k.x".into(), value: "v".into() },
        ]);
        let p = Policy::new("p", 1)
            .add_rule(
                Rule::new(
                    "r",
                    Effect::Deny,
                    ActionSet::all(),
                    EntityMatcher::anything(),
                    EntityMatcher::anything(),
                )
                .when(cond),
            )
            .unwrap();
        let back = parse_policy(&print_policy(&p)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn print_rule_omits_trivial_parts() {
        let r = Rule::new(
            "basic",
            Effect::Allow,
            ActionSet::only(Action::Read),
            EntityMatcher::anything(),
            EntityMatcher::anything(),
        );
        let text = print_rule(&r);
        assert_eq!(text, "allow read on *:* from *:* as basic;");
        assert!(!text.contains("when"));
        assert!(!text.contains("priority"));
    }

    #[test]
    fn print_condition_forms() {
        assert_eq!(print_condition(&Condition::Always), "true");
        assert_eq!(
            print_condition(&Condition::RateAtMost { key: "k".into(), max_per_sec: 5 }),
            "rate(k) <= 5"
        );
        assert_eq!(
            print_condition(&Condition::Not(Box::new(Condition::Always))),
            "!(true)"
        );
    }
}
