//! Layer 1: static analysis of one compiled policy set.
//!
//! Everything here runs over the abstract syntax only — no frame is ever
//! evaluated. The analyses:
//!
//! * **Shadowing** — a rule that can never determine a decision because
//!   another rule subsumes it under the active combining strategy
//!   (deny-wins, declaration order, or priority).
//! * **Contradiction** — an allow/deny pair over provably identical
//!   request sets with equivalent conditions: the bundle argues with
//!   itself, and deny-overrides silently picks a side.
//! * **Satisfiability** — dead conditions (empty rate windows, two
//!   required modes) and conditions only satisfiable in modes the
//!   [`ModeGraph`] can never reach.
//! * **Cacheability cross-check** — an independent recomputation of each
//!   rule's decision-cache safety, compared against the engine's load-time
//!   analysis ([`load_time_cacheability`], which every engine compiles and
//!   [`PolicyEngine::rule_cacheability`] reports); any disagreement is an
//!   `Error`, because a wrong `cache_safe` bit means stale decisions.

use crate::finding::{Finding, FindingKind, Report, Severity};
use crate::lattice::{
    actions_overlap, actions_subset, condition_equivalent, condition_implies, matcher_subsumes,
    witness_entity,
};
use crate::modes::ModeGraph;
use crate::sat::{mentioned_modes, satisfiable};
use polsec_core::dsl::{print_condition, print_rule};
use polsec_core::{
    load_time_cacheability, CombiningStrategy, Condition, Effect, PolicyEngine, PolicySet, Rule,
    RuleCacheability,
};
use std::collections::BTreeSet;

/// Knobs for [`analyze_set`].
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// The combining strategy the engine will evaluate the set under;
    /// shadowing semantics depend on it.
    pub strategy: CombiningStrategy,
    /// Mode machine for reachability analysis; `None` skips the
    /// unreachable-mode check (plain satisfiability still runs).
    pub mode_graph: Option<ModeGraph>,
    /// Whether to emit `Info`-level redundancy findings.
    pub flag_redundant: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            strategy: CombiningStrategy::DenyOverrides,
            mode_graph: Some(ModeGraph::car()),
            flag_redundant: true,
        }
    }
}

/// One rule with its owning policy, at its position in the flattened set.
struct RuleRef<'a> {
    policy: &'a str,
    rule: &'a Rule,
}

impl RuleRef<'_> {
    /// The rule's `policy.rule` name, formatted only into a finding.
    fn qualified(&self) -> String {
        format!("{}.{}", self.policy, self.rule.id())
    }
}

fn flatten(set: &PolicySet) -> Vec<RuleRef<'_>> {
    set.rules().map(|(policy, rule)| RuleRef { policy, rule }).collect()
}

/// Whether every request rule `a` applies to is also one rule `b` applies
/// to (matchers, actions and condition all subsumed).
fn subsumed(a: &Rule, b: &Rule) -> bool {
    matcher_subsumes(a.subject(), b.subject())
        && matcher_subsumes(a.object(), b.object())
        && actions_subset(a.actions(), b.actions())
        && condition_implies(a.condition(), b.condition())
}

fn witness_request(r: &Rule) -> String {
    let actions: Vec<String> = r.actions().iter().map(|a| a.to_string()).collect();
    format!(
        "{} -> {} [{}]",
        witness_entity(r.subject()),
        witness_entity(r.object()),
        actions.join(", ")
    )
}

/// Runs every Layer-1 analysis over the set.
pub fn analyze_set(set: &PolicySet, opts: &AnalysisOptions) -> Report {
    let rules = flatten(set);
    let mut report = Report::new();
    check_satisfiability(&rules, opts, &mut report);
    check_pairs(&rules, opts, &mut report);
    report.sort();
    report
}

fn check_satisfiability(rules: &[RuleRef<'_>], opts: &AnalysisOptions, report: &mut Report) {
    let reachable = opts.mode_graph.as_ref().map(|graph| (graph, graph.reachable()));
    for r in rules {
        let c = r.rule.condition();
        if c == &Condition::Always {
            continue;
        }
        if !satisfiable(c, None) {
            let rate_note = if c.rate_keys().is_empty() {
                ""
            } else {
                " (the rate window is empty)"
            };
            report.push(Finding {
                kind: FindingKind::UnsatisfiableCondition,
                severity: Severity::Warning,
                rule_ids: vec![r.qualified()],
                witness: witness_request(r.rule),
                explanation: format!(
                    "no evaluation context can satisfy `{}`{rate_note}; the rule is dead",
                    print_condition(c)
                ),
            });
            continue;
        }
        if let Some((graph, reachable)) = &reachable {
            if !satisfiable(c, Some(reachable)) {
                let unreachable: Vec<String> = mentioned_modes(c)
                    .into_iter()
                    .filter(|m| !reachable.contains(m))
                    .collect();
                report.push(Finding {
                    kind: FindingKind::UnreachableMode,
                    severity: Severity::Warning,
                    rule_ids: vec![r.qualified()],
                    witness: witness_request(r.rule),
                    explanation: format!(
                        "condition `{}` requires mode(s) [{}] that no transition sequence \
                         from \"{}\" can enter; the rule can never apply",
                        print_condition(c),
                        unreachable.join(", "),
                        graph.initial()
                    ),
                });
            }
        }
    }
}

fn check_pairs(rules: &[RuleRef<'_>], opts: &AnalysisOptions, report: &mut Report) {
    // Pairs already reported as contradictions are excluded from the
    // shadowing pass: the Error subsumes the Warning.
    let mut contradicted: BTreeSet<(usize, usize)> = BTreeSet::new();

    for i in 0..rules.len() {
        for j in (i + 1)..rules.len() {
            let (a, b) = (&rules[i], &rules[j]);
            let opposite = a.rule.effect() != b.rule.effect();
            let tie_breaks_deny = match opts.strategy {
                CombiningStrategy::DenyOverrides => true,
                CombiningStrategy::PriorityOrder => a.rule.priority() == b.rule.priority(),
                // First-match order resolves the conflict deterministically;
                // the pair surfaces as a shadow instead.
                CombiningStrategy::FirstMatch => false,
            };
            if opposite
                && tie_breaks_deny
                && a.rule.subject() == b.rule.subject()
                && a.rule.object() == b.rule.object()
                && actions_overlap(a.rule.actions(), b.rule.actions())
                && condition_equivalent(a.rule.condition(), b.rule.condition())
            {
                contradicted.insert((i, j));
                let (allow, deny) = if a.rule.effect() == Effect::Allow {
                    (a, b)
                } else {
                    (b, a)
                };
                report.push(Finding {
                    kind: FindingKind::Contradiction,
                    severity: Severity::Error,
                    rule_ids: vec![allow.qualified(), deny.qualified()],
                    witness: witness_request(allow.rule),
                    explanation: format!(
                        "`{}` and `{}` match identical requests under equivalent conditions \
                         with opposite effects; deny wins silently, so one of them does not \
                         mean what it says",
                        print_rule(allow.rule),
                        print_rule(deny.rule)
                    ),
                });
            }
        }
    }

    for (i, dead) in rules.iter().enumerate() {
        for (j, by) in rules.iter().enumerate() {
            if i == j || contradicted.contains(&(i.min(j), i.max(j))) {
                continue;
            }
            if !subsumed(dead.rule, by.rule) {
                continue;
            }
            let same_effect = dead.rule.effect() == by.rule.effect();
            let shadows = match opts.strategy {
                // Deny always wins: a subsumed allow is dead; a subsumed
                // same-effect rule is merely redundant.
                CombiningStrategy::DenyOverrides => {
                    dead.rule.effect() == Effect::Allow && by.rule.effect() == Effect::Deny
                }
                // The earlier rule always fires first.
                CombiningStrategy::FirstMatch => j < i && !same_effect,
                // A higher-priority subsumer always outranks; an equal-
                // priority deny wins the tie against an allow.
                CombiningStrategy::PriorityOrder => {
                    !same_effect
                        && (by.rule.priority() > dead.rule.priority()
                            || (by.rule.priority() == dead.rule.priority()
                                && by.rule.effect() == Effect::Deny))
                }
            };
            if shadows {
                report.push(Finding {
                    kind: FindingKind::ShadowedRule,
                    severity: Severity::Warning,
                    rule_ids: vec![dead.qualified(), by.qualified()],
                    witness: witness_request(dead.rule),
                    explanation: format!(
                        "`{}` can never take effect: `{}` applies to every request it \
                         applies to and wins under {}",
                        print_rule(dead.rule),
                        print_rule(by.rule),
                        opts.strategy
                    ),
                });
                continue;
            }
            // Redundancy: same effect, fully covered. For mutually
            // subsuming (equivalent) rules only the later one is reported.
            let redundant = same_effect
                && match opts.strategy {
                    CombiningStrategy::FirstMatch => j < i,
                    _ => !subsumed(by.rule, dead.rule) || j < i,
                };
            if opts.flag_redundant && redundant {
                report.push(Finding {
                    kind: FindingKind::RedundantRule,
                    severity: Severity::Info,
                    rule_ids: vec![dead.qualified(), by.qualified()],
                    witness: witness_request(dead.rule),
                    explanation: format!(
                        "`{}` adds nothing: `{}` already produces the same effect for \
                         every request it covers",
                        print_rule(dead.rule),
                        print_rule(by.rule)
                    ),
                });
            }
        }
    }
}

/// The analyzer's own cacheability computation, deliberately written
/// against the atom families rather than delegating to
/// [`Condition::is_cache_safe`]: a decision may be cached on a
/// `(subject, object, action, mode)` key iff its condition reads nothing
/// outside that key — state and rate atoms do.
fn independent_cache_safe(c: &Condition) -> bool {
    match c {
        Condition::Always | Condition::InMode(_) => true,
        Condition::StateEquals { .. } | Condition::RateAtMost { .. } => false,
        Condition::All(cs) | Condition::AnyOf(cs) => cs.iter().all(independent_cache_safe),
        Condition::Not(inner) => independent_cache_safe(inner),
    }
}

/// Cross-checks an engine's compiled cacheability verdicts
/// ([`PolicyEngine::rule_cacheability`]) against an independent
/// recomputation over `set` (which must be the set the engine was loaded
/// with). Any disagreement — a verdict flip, a missing rule, an extra rule
/// — is an `Error`: a wrongly cache-safe rule would let the decision cache
/// serve stale answers past a state or rate change.
pub fn cacheability_crosscheck(set: &PolicySet, engine: &PolicyEngine) -> Report {
    compare_cacheability(set, engine.rule_cacheability())
}

/// The one comparison behind [`cacheability_crosscheck`] and
/// [`analyze_with_engine`]: `reported` must hold one verdict per rule of
/// `set`, in set order, naming that rule and agreeing with
/// [`independent_cache_safe`]. A count that differs is one finding alone.
fn compare_cacheability<'a>(
    set: &PolicySet,
    reported: impl IntoIterator<Item = RuleCacheability<'a>>,
) -> Report {
    let mut report = Report::new();
    let mut reported = reported.into_iter();
    let mut count = 0;
    for ((policy, rule), got) in set.rules().zip(reported.by_ref()) {
        count += 1;
        let want = independent_cache_safe(rule.condition());
        if (got.policy, got.rule_id, got.cache_safe) != (policy, rule.id(), want) {
            report.push(Finding {
                kind: FindingKind::CacheabilityDisagreement,
                severity: Severity::Error,
                rule_ids: vec![format!("{policy}.{}", rule.id())],
                witness: format!(
                    "analyzer says cache_safe={want}, engine says {} for {}.{}",
                    got.cache_safe, got.policy, got.rule_id
                ),
                explanation: "the engine's load-time cacheability analysis disagrees with \
                              an independent recomputation; a wrongly cache-safe rule \
                              serves stale decisions across state/rate changes"
                    .into(),
            });
        }
    }
    count += reported.count();
    if count != set.rule_count() {
        // a table that does not cover the set makes its verdicts moot
        report = Report::new();
        report.push(Finding {
            kind: FindingKind::CacheabilityDisagreement,
            severity: Severity::Error,
            rule_ids: Vec::new(),
            witness: format!("{} rules in set, {count} in engine", set.rule_count()),
            explanation: "the engine's rule table does not cover the policy set; the \
                          cacheability report cannot be trusted"
                .into(),
        });
    }
    report.sort();
    report
}

/// Runs [`analyze_set`] plus the cacheability cross-check of the engine's
/// load-time analysis of `set`, [`load_time_cacheability`]: the function
/// every engine compiles its verdicts from, so the check covers what an
/// engine loaded with `set` would run. No engine is built.
pub fn analyze_with_engine(set: &PolicySet, opts: &AnalysisOptions) -> Report {
    let mut report = analyze_set(set, opts);
    report.extend(compare_cacheability(set, load_time_cacheability(set)));
    report.sort();
    report
}

/// Builds a validator for [`polsec_core::LoadMode::Strict`]: the Layer-1
/// analyses and the cacheability cross-check ([`analyze_with_engine`]) run
/// over the incoming set and any `Error` finding (or, with
/// `deny_warnings`, any `Warning`) vetoes the load with the rendered
/// report. It builds no engine and formats a rule's name only into a
/// finding.
pub fn strict_validator(
    opts: AnalysisOptions,
    deny_warnings: bool,
) -> impl Fn(&PolicySet) -> Result<(), String> {
    move |set| {
        let report = analyze_with_engine(set, &opts);
        if report.gates(deny_warnings) {
            Err(report.to_text())
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polsec_core::dsl::parse_policies;

    fn analyze_src(src: &str, opts: &AnalysisOptions) -> Report {
        let set: PolicySet = parse_policies(src).unwrap().into_iter().collect();
        analyze_with_engine(&set, opts)
    }

    #[test]
    fn single_clean_policy_has_no_findings() {
        let report = analyze_src(
            r#"policy "p" version 1 {
                default deny;
                allow read on asset:ev-ecu from entry:* as reads;
                allow write on asset:ev-ecu from entry:diagnostics
                    when mode == "remote diagnostic" as service;
            }"#,
            &AnalysisOptions::default(),
        );
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn deny_overrides_shadowing_detected() {
        let report = analyze_src(
            r#"policy "p" version 1 {
                default deny;
                deny write on asset:ev-ecu from entry:* as no-writes;
                allow write on asset:ev-ecu from entry:diagnostics as service;
            }"#,
            &AnalysisOptions::default(),
        );
        let shadows = report.of_kind(FindingKind::ShadowedRule);
        assert_eq!(shadows.len(), 1);
        assert_eq!(shadows[0].rule_ids, vec!["p.service", "p.no-writes"]);
        assert_eq!(shadows[0].witness, "entry:diagnostics -> asset:ev-ecu [write]");
    }

    #[test]
    fn first_match_shadowing_is_order_sensitive() {
        let src = r#"policy "p" version 1 {
            default deny;
            deny write on asset:ev-ecu from entry:* as broad;
            allow write on asset:ev-ecu from entry:diagnostics as narrow;
        }"#;
        let fm = AnalysisOptions {
            strategy: CombiningStrategy::FirstMatch,
            ..AnalysisOptions::default()
        };
        let report = analyze_src(src, &fm);
        assert_eq!(report.of_kind(FindingKind::ShadowedRule).len(), 1);

        // Swapped order: the narrow allow fires first, so nothing shadows.
        let swapped = r#"policy "p" version 1 {
            default deny;
            allow write on asset:ev-ecu from entry:diagnostics as narrow;
            deny write on asset:ev-ecu from entry:* as broad;
        }"#;
        let report = analyze_src(swapped, &fm);
        assert!(report.of_kind(FindingKind::ShadowedRule).is_empty());
    }

    #[test]
    fn priority_order_shadowing() {
        let src = r#"policy "p" version 1 {
            default deny;
            allow write on asset:ev-ecu from entry:diagnostics as narrow;
            deny write on asset:ev-ecu from entry:* priority 5 as broad;
        }"#;
        let po = AnalysisOptions {
            strategy: CombiningStrategy::PriorityOrder,
            ..AnalysisOptions::default()
        };
        let report = analyze_src(src, &po);
        let shadows = report.of_kind(FindingKind::ShadowedRule);
        assert_eq!(shadows.len(), 1);
        assert_eq!(shadows[0].rule_ids[0], "p.narrow");
    }

    #[test]
    fn contradiction_is_an_error_and_suppresses_the_shadow() {
        let report = analyze_src(
            r#"policy "p" version 1 {
                default deny;
                allow write on asset:door-locks from entry:telematics as remote-open;
                deny write on asset:door-locks from entry:telematics as no-remote-open;
            }"#,
            &AnalysisOptions::default(),
        );
        assert_eq!(report.of_kind(FindingKind::Contradiction).len(), 1);
        assert!(report.of_kind(FindingKind::ShadowedRule).is_empty());
        assert_eq!(report.max_severity(), Some(Severity::Error));
    }

    #[test]
    fn unreachable_mode_and_unsat_are_distinguished() {
        let report = analyze_src(
            r#"policy "p" version 1 {
                default deny;
                allow write on asset:ev-ecu from entry:diagnostics
                    when mode == "factory" as factory-flash;
                allow write on asset:eps from entry:diagnostics
                    when rate(cmd) <= 5 && !(rate(cmd) <= 10) as dead-window;
            }"#,
            &AnalysisOptions::default(),
        );
        let unreachable = report.of_kind(FindingKind::UnreachableMode);
        assert_eq!(unreachable.len(), 1);
        assert_eq!(unreachable[0].rule_ids, vec!["p.factory-flash"]);
        assert!(unreachable[0].explanation.contains("factory"));
        let unsat = report.of_kind(FindingKind::UnsatisfiableCondition);
        assert_eq!(unsat.len(), 1);
        assert_eq!(unsat[0].rule_ids, vec!["p.dead-window"]);
        assert!(unsat[0].explanation.contains("rate window is empty"));
    }

    #[test]
    fn redundancy_is_info_only() {
        let report = analyze_src(
            r#"policy "p" version 1 {
                default deny;
                allow read on asset:ev-ecu from entry:* as broad-read;
                allow read on asset:ev-ecu from entry:sensors as narrow-read;
            }"#,
            &AnalysisOptions::default(),
        );
        let red = report.of_kind(FindingKind::RedundantRule);
        assert_eq!(red.len(), 1);
        assert_eq!(red[0].severity, Severity::Info);
        assert_eq!(red[0].rule_ids[0], "p.narrow-read");
        assert!(!report.gates(true), "info never gates");
    }

    #[test]
    fn cross_policy_shadowing_uses_qualified_ids() {
        let report = analyze_src(
            r#"policy "base" version 1 {
                default deny;
                deny write on asset:ev-ecu from entry:* as lockdown;
            }
            policy "extra" version 1 {
                default deny;
                allow write on asset:ev-ecu from entry:diagnostics as service;
            }"#,
            &AnalysisOptions::default(),
        );
        let shadows = report.of_kind(FindingKind::ShadowedRule);
        assert_eq!(shadows.len(), 1);
        assert_eq!(shadows[0].rule_ids, vec!["extra.service", "base.lockdown"]);
    }

    #[test]
    fn cacheability_crosscheck_agrees_on_the_car_policy() {
        let set = PolicySet::from_policy(polsec_car::car_policy());
        let engine = PolicyEngine::new(set.clone());
        assert!(cacheability_crosscheck(&set, &engine).is_clean());
    }

    #[test]
    fn cacheability_crosscheck_flags_a_mismatched_engine() {
        let set = PolicySet::from_policy(polsec_car::car_policy());
        let other = PolicyEngine::from_policy(
            polsec_core::dsl::parse_policy(
                r#"policy "tiny" version 1 { allow read on asset:x from entry:*; }"#,
            )
            .unwrap(),
        );
        let report = cacheability_crosscheck(&set, &other);
        assert_eq!(report.of_kind(FindingKind::CacheabilityDisagreement).len(), 1);
        assert_eq!(report.max_severity(), Some(Severity::Error));
    }
}
