//! Property-based tests for the policy core: DSL round trip, engine
//! determinism and combining-strategy relationships, the equivalence of
//! cached, uncached and linear engines that makes the decision cache
//! correct, and the cached decisions a reload carries over.

use polsec::policy::dsl::{parse_policies, parse_policy, print_policy};
use polsec::policy::{
    AccessRequest, Action, ActionSet, CombiningStrategy, Condition, Effect, EntityId,
    EntityMatcher, EvalContext, Pattern, Policy, PolicyBundle, PolicyEngine, PolicySet, RateSource,
    Rule,
};
use proptest::prelude::*;

/// No key has seen an event.
struct Quiet;

impl RateSource for Quiet {
    fn rate_per_sec(&self, _key: &str) -> f64 {
        0.0
    }
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,12}"
}

/// Free text for policy names and quoted values: words, spaces, quotes,
/// backslashes and CRLF line breaks, which the printer must quote and
/// escape.
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            arb_name(),
            Just(" ".to_string()),
            Just("\"".to_string()),
            Just("\\".to_string()),
            Just("\r\n".to_string()),
        ],
        0..6,
    )
    .prop_map(|parts| parts.concat())
}

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        Just(Pattern::Any),
        arb_name().prop_map(Pattern::Exact),
        arb_name().prop_map(Pattern::Prefix),
        (0u32..=0x7FF, 0u32..=0x7FF).prop_map(|(a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            Pattern::IdRange { lo, hi }
        }),
    ]
}

fn arb_matcher() -> impl Strategy<Value = EntityMatcher> {
    (prop_oneof![Just(None), arb_name().prop_map(Some)], arb_pattern()).prop_map(|(ns, p)| {
        match ns {
            Some(ns) => EntityMatcher::new(ns, p),
            None => EntityMatcher::any_namespace(p),
        }
    })
}

fn arb_condition() -> impl Strategy<Value = Condition> {
    let leaf = prop_oneof![
        Just(Condition::Always),
        arb_text().prop_map(Condition::InMode),
        (arb_name(), arb_text())
            .prop_map(|(key, value)| Condition::StateEquals { key, value }),
        (arb_name(), 0u32..100)
            .prop_map(|(key, max_per_sec)| Condition::RateAtMost { key, max_per_sec }),
    ];
    // Composite conditions use 2+ children: the parser normalises
    // singleton All/AnyOf away (parse("(x)") == x), so singletons cannot
    // round-trip structurally and are unreachable from the DSL anyway.
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Condition::All),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Condition::AnyOf),
            inner.prop_map(|c| Condition::Not(Box::new(c))),
        ]
    })
}

fn arb_actions() -> impl Strategy<Value = ActionSet> {
    prop::collection::vec(
        prop_oneof![
            Just(Action::Read),
            Just(Action::Write),
            Just(Action::Execute),
            Just(Action::Configure)
        ],
        1..=4,
    )
    .prop_map(|v| ActionSet::of(&v))
}

/// A generated rule: actions, subject, object, condition, priority and
/// whether it allows.
type RuleParts = (ActionSet, EntityMatcher, EntityMatcher, Condition, i32, bool);

/// A policy of the given rules, with ids `rule-0`, `rule-1`, ….
fn policy_of(name: String, version: u64, default_allow: bool, rules: Vec<RuleParts>) -> Policy {
    let mut p = Policy::new(name, version).with_default(if default_allow {
        Effect::Allow
    } else {
        Effect::Deny
    });
    for (i, (actions, subject, object, condition, priority, allow)) in
        rules.into_iter().enumerate()
    {
        let effect = if allow { Effect::Allow } else { Effect::Deny };
        p = p
            .add_rule(
                Rule::new(format!("rule-{i}"), effect, actions, subject, object)
                    .when(condition)
                    .with_priority(priority),
            )
            .expect("generated ids are unique");
    }
    p
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    (
        arb_text(),
        1u64..100,
        any::<bool>(),
        prop::collection::vec(
            (arb_actions(), arb_matcher(), arb_matcher(), arb_condition(), -10i32..10, any::<bool>()),
            0..6,
        ),
    )
        .prop_map(|(name, version, default_allow, rules)| {
            policy_of(name, version, default_allow, rules)
        })
}

fn arb_request() -> impl Strategy<Value = AccessRequest> {
    (
        arb_name(),
        arb_name(),
        prop_oneof![Just(Action::Read), Just(Action::Write), Just(Action::Execute)],
    )
        .prop_map(|(s, o, a)| {
            AccessRequest::new(EntityId::new("entry", s), EntityId::new("asset", o), a)
        })
}

// Rules and requests over small name pools, so that they actually meet:
// the equivalence properties below are only as strong as the number of
// rules a request reaches.
const ENTRIES: [&str; 3] = ["gps", "obd", "radio"];
const ASSETS: [&str; 3] = ["brakes", "locks", "modem"];
const MODES: [&str; 2] = ["normal", "diag"];
const MOVING: [&str; 2] = ["yes", "no"];
const RATE_KEY: &str = "cmd";

/// One side of a pooled rule: exact (indexable), prefix, any name in the
/// namespace, an exact name in any namespace, or anything.
fn arb_pool_side(
    namespace: &'static str,
    names: &'static [&'static str; 3],
) -> impl Strategy<Value = EntityMatcher> {
    let exact = move |i: usize| EntityMatcher::new(namespace, Pattern::Exact(names[i].into()));
    prop_oneof![
        (0..3usize).prop_map(exact),
        (0..3usize).prop_map(exact),
        (0..3usize).prop_map(move |i| EntityMatcher::new(
            namespace,
            Pattern::Prefix(names[i][..1].into())
        )),
        Just(EntityMatcher::new(namespace, Pattern::Any)),
        (0..3usize)
            .prop_map(move |i| EntityMatcher::any_namespace(Pattern::Exact(names[i].into()))),
        Just(EntityMatcher::anything()),
    ]
}

/// Mode, state and rate gates, alone and combined.
fn arb_pool_condition() -> impl Strategy<Value = Condition> {
    let leaf = prop_oneof![
        Just(Condition::Always),
        Just(Condition::Always),
        (0..2usize).prop_map(|i| Condition::InMode(MODES[i].into())),
        (0..2usize)
            .prop_map(|i| Condition::StateEquals { key: "moving".into(), value: MOVING[i].into() }),
        (0..3u32)
            .prop_map(|max_per_sec| Condition::RateAtMost { key: RATE_KEY.into(), max_per_sec }),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..3).prop_map(Condition::All),
            prop::collection::vec(inner.clone(), 2..3).prop_map(Condition::AnyOf),
            inner.prop_map(|c| Condition::Not(Box::new(c))),
        ]
    })
}

fn arb_pool_policy() -> impl Strategy<Value = Policy> {
    (
        any::<bool>(),
        prop::collection::vec(
            (
                arb_actions(),
                arb_pool_side("entry", &ENTRIES),
                arb_pool_side("asset", &ASSETS),
                arb_pool_condition(),
                -2i32..3,
                any::<bool>(),
            ),
            0..10,
        ),
    )
        .prop_map(|(default_allow, rules)| policy_of("pool".into(), 1, default_allow, rules))
}

fn arb_pool_request() -> impl Strategy<Value = AccessRequest> {
    (
        0..3usize,
        0..3usize,
        prop_oneof![Just(Action::Read), Just(Action::Write), Just(Action::Configure)],
    )
        .prop_map(|(s, o, a)| {
            AccessRequest::new(
                EntityId::new("entry", ENTRIES[s]),
                EntityId::new("asset", ASSETS[o]),
                a,
            )
        })
}

/// One step of a decision stream: the request, its context (mode and the
/// `moving` state, each possibly absent) and how many rate events the
/// engines observe first.
fn arb_pool_step() -> impl Strategy<Value = (AccessRequest, EvalContext, u32)> {
    (arb_pool_request(), 0..3usize, 0..3usize, 0..3u32).prop_map(
        |(request, mode, moving, events)| {
            let mut ctx = EvalContext::new();
            if let Some(m) = MODES.get(mode) {
                ctx = ctx.with_mode(*m);
            }
            if let Some(v) = MOVING.get(moving) {
                ctx = ctx.with_state("moving", *v);
            }
            (request, ctx, events)
        },
    )
}

/// Whether a rule whose condition reads state or rates targets `request`.
fn gated_rule_targets(set: &PolicySet, request: &AccessRequest) -> bool {
    set.rules().any(|(_, rule)| {
        rule.covers_action(request.action())
            && rule.subject().matches(request.subject())
            && rule.object().matches(request.object())
            && !rule.condition().is_cache_safe()
    })
}

/// `policy` under another name.
fn renamed(policy: &Policy, name: String) -> Policy {
    policy.rules().iter().cloned().fold(
        Policy::new(name, policy.version()).with_default(policy.default_effect()),
        |p, rule| p.add_rule(rule).expect("the ids stay unique"),
    )
}

/// One edit of a policy list, as an update makes one: append (kind 0),
/// drop (1) or replace (2) a policy, swap two adjacent policies (3), or
/// flip one policy's default (4). `before` holds at least two policies,
/// named apart; `replacement` supplies the appended or replacing rules.
/// Returns the edited list and every policy the edit touched, in its
/// outgoing and its incoming form.
fn edit(
    before: &[Policy],
    kind: usize,
    at: usize,
    replacement: &Policy,
) -> (Vec<Policy>, Vec<Policy>) {
    let mut after = before.to_vec();
    let i = at % before.len();
    let touched = match kind {
        0 => {
            after.push(renamed(replacement, format!("p{}", before.len())));
            vec![after[before.len()].clone()]
        }
        1 => vec![after.remove(i)],
        2 => {
            after[i] = renamed(replacement, before[i].name().to_string());
            vec![before[i].clone(), after[i].clone()]
        }
        3 => {
            let i = i.min(before.len() - 2);
            after.swap(i, i + 1);
            vec![before[i].clone(), before[i + 1].clone()]
        }
        _ => {
            after[i] = before[i].clone().with_default(before[i].default_effect().invert());
            vec![before[i].clone(), after[i].clone()]
        }
    };
    (after, touched)
}

/// Every pool request under every pool mode, the mode possibly absent.
fn pool_pairs() -> Vec<(AccessRequest, EvalContext)> {
    let contexts = [
        EvalContext::new(),
        EvalContext::new().with_mode(MODES[0]),
        EvalContext::new().with_mode(MODES[1]),
    ];
    let mut pairs = Vec::new();
    for entry in ENTRIES {
        for asset in ASSETS {
            for action in [Action::Read, Action::Write, Action::Configure] {
                let subject = EntityId::new("entry", entry);
                let request = AccessRequest::new(subject, EntityId::new("asset", asset), action);
                pairs.extend(contexts.iter().map(|ctx| (request, ctx.clone())));
            }
        }
    }
    pairs
}

const STRATEGIES: [CombiningStrategy; 3] = [
    CombiningStrategy::DenyOverrides,
    CombiningStrategy::FirstMatch,
    CombiningStrategy::PriorityOrder,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dsl_round_trips_every_policy(policy in arb_policy()) {
        let text = print_policy(&policy);
        let parsed = parse_policy(&text)
            .unwrap_or_else(|e| panic!("printed policy failed to parse: {e}\n{text}"));
        prop_assert_eq!(parsed, policy);
    }

    #[test]
    fn dsl_round_trips_whole_documents(policies in prop::collection::vec(arb_policy(), 1..4)) {
        // A bundle-sized document: several policies printed back to back
        // must parse to the same sequence. Policy names may collide across
        // generated entries; keep the first of each name since a document
        // is keyed by policy name.
        let mut seen = std::collections::BTreeSet::new();
        let policies: Vec<Policy> = policies
            .into_iter()
            .filter(|p| seen.insert(p.name().to_string()))
            .collect();
        let text: String = policies.iter().map(|p| print_policy(p) + "\n").collect();
        let parsed = parse_policies(&text)
            .unwrap_or_else(|e| panic!("printed document failed to parse: {e}\n{text}"));
        prop_assert_eq!(parsed, policies);
    }

    #[test]
    fn bundle_payloads_round_trip(
        policies in prop::collection::vec(arb_policy(), 0..4),
        version in 1u64..1000,
        rationale in "[ -~]{0,40}",
    ) {
        let mut seen = std::collections::BTreeSet::new();
        let policies: Vec<Policy> = policies
            .into_iter()
            .filter(|p| seen.insert(p.name().to_string()))
            .collect();
        let bundle = PolicyBundle::new(version, rationale, policies);
        let back = PolicyBundle::from_payload(&bundle.payload())
            .unwrap_or_else(|e| panic!("bundle payload failed to decode: {e}"));
        prop_assert_eq!(&back, &bundle);

        // And through the signed wire form: sign/verify is the identity.
        let key = b"prop-key";
        let verified = bundle.sign(key).verify(key).expect("fresh signature verifies");
        prop_assert_eq!(verified, bundle);
    }

    #[test]
    fn decisions_are_deterministic(policy in arb_policy(), request in arb_request()) {
        let engine = PolicyEngine::new(PolicySet::from_policy(policy));
        let ctx = EvalContext::new().with_mode("normal");
        let a = engine.decide(&request, &ctx);
        let b = engine.decide(&request, &ctx);
        prop_assert_eq!(a.effect(), b.effect());
        prop_assert_eq!(a.rule(), b.rule());
    }

    #[test]
    fn indexing_never_changes_decisions(policy in arb_policy(), request in arb_request()) {
        let set = PolicySet::from_policy(policy);
        let indexed = PolicyEngine::new(set.clone()).with_indexing(true);
        let linear = PolicyEngine::new(set).with_indexing(false);
        let ctx = EvalContext::new().with_mode("normal");
        prop_assert_eq!(
            indexed.decide(&request, &ctx).effect(),
            linear.decide(&request, &ctx).effect()
        );
    }

    #[test]
    fn deny_overrides_is_no_more_permissive_than_any_strategy(
        policy in arb_policy(),
        request in arb_request(),
    ) {
        // If deny-overrides allows, then some applying rule allowed and no
        // applying rule denied — so first-match must also allow.
        let set = PolicySet::from_policy(policy);
        let deny_overrides = PolicyEngine::new(set.clone());
        let first_match = PolicyEngine::new(set).with_strategy(CombiningStrategy::FirstMatch);
        let ctx = EvalContext::new().with_mode("normal");
        let do_decision = deny_overrides.decide(&request, &ctx);
        if do_decision.is_allow() && do_decision.rule().is_some() {
            prop_assert!(
                first_match.decide(&request, &ctx).is_allow(),
                "deny-overrides allowed via a rule but first-match denied"
            );
        }
    }

    #[test]
    fn unmatched_requests_get_the_default_effect(request in arb_request()) {
        let deny = PolicyEngine::from_policy(Policy::new("empty", 1));
        let d = deny.decide(&request, &EvalContext::new());
        prop_assert_eq!(d.effect(), Effect::Deny);
        prop_assert!(d.rule().is_none());

        let allow = PolicyEngine::from_policy(Policy::new("open", 1).with_default(Effect::Allow));
        prop_assert!(allow.decide(&request, &EvalContext::new()).is_allow());
    }

    #[test]
    fn condition_negation_is_involutive(cond in arb_condition()) {
        let ctx = EvalContext::new().with_mode("normal").with_state("k", "v");
        let double_not = Condition::Not(Box::new(Condition::Not(Box::new(cond.clone()))));
        prop_assert_eq!(cond.eval(&ctx, &Quiet), double_not.eval(&ctx, &Quiet));
    }

    #[test]
    fn decision_cache_never_changes_decisions(
        policy in arb_pool_policy(),
        stream in prop::collection::vec(arb_pool_step(), 1..24),
    ) {
        // The cached engine, the uncached engine and the linear (unindexed,
        // cached) engine agree under every combining strategy, across a
        // stream whose mode, state and rates change between decides. The
        // stream runs twice, so repeats are answered from the cache
        // wherever a decision was cached.
        let set = PolicySet::from_policy(policy);
        for strategy in STRATEGIES {
            let cached = PolicyEngine::new(set.clone()).with_strategy(strategy);
            let uncached = PolicyEngine::new(set.clone())
                .with_strategy(strategy)
                .with_caching(false);
            let linear = PolicyEngine::new(set.clone())
                .with_strategy(strategy)
                .with_indexing(false);
            let mut now_us = 0;
            for (step, (request, ctx, events)) in stream.iter().chain(&stream).enumerate() {
                for _ in 0..*events {
                    now_us += 100_000;
                    for engine in [&cached, &uncached, &linear] {
                        engine.observe_rate_event(None, RATE_KEY, now_us);
                    }
                }
                let want = uncached.decide_at(request, ctx, now_us);
                for (name, engine) in [("cached", &cached), ("linear", &linear)] {
                    let got = engine.decide_at(request, ctx, now_us);
                    prop_assert_eq!(
                        (got.effect(), got.rule()),
                        (want.effect(), want.rule()),
                        "{} engine, strategy {}, step {}", name, strategy, step
                    );
                }
            }
            let stats = cached.stats();
            // Cacheable decisions are accounted as hit or miss; decisions
            // that state or rates can change bypass the cache entirely.
            prop_assert!(
                stats.cache_hits + stats.cache_misses <= stats.decisions,
                "hit/miss accounting exceeded decisions"
            );
        }
    }

    #[test]
    fn requests_no_gated_rule_targets_hit_the_cache(
        policy in arb_pool_policy(),
        request in arb_pool_request(),
        step in arb_pool_step(),
    ) {
        let set = PolicySet::from_policy(policy);
        prop_assume!(!gated_rule_targets(&set, &request));
        let (_, ctx, _) = step;
        for strategy in STRATEGIES {
            for indexing in [true, false] {
                let engine = PolicyEngine::new(set.clone())
                    .with_strategy(strategy)
                    .with_indexing(indexing);
                let first = engine.decide(&request, &ctx);
                let hits = engine.stats().cache_hits;
                let second = engine.decide(&request, &ctx);
                prop_assert_eq!(first, second);
                prop_assert_eq!(
                    engine.stats().cache_hits,
                    hits + 1,
                    "strategy {}, indexing {}: the second decide missed the cache",
                    strategy,
                    indexing
                );
            }
        }
    }

    #[test]
    fn reload_invalidates_the_decision_cache(
        before in arb_policy(),
        after in arb_policy(),
        request in arb_request(),
    ) {
        // Warm the cache under `before`, reload to `after`: every decision
        // must match a fresh engine that only ever saw `after` — a stale
        // generation entry answering would diverge here.
        let mut engine = PolicyEngine::new(PolicySet::from_policy(before));
        let ctx = EvalContext::new().with_mode("normal");
        engine.decide(&request, &ctx);
        engine.decide(&request, &ctx);
        let generation = engine.cache_generation();
        engine.reload(PolicySet::from_policy(after.clone()));
        prop_assert_eq!(engine.cache_generation(), generation + 1);
        let fresh = PolicyEngine::new(PolicySet::from_policy(after));
        let got = engine.decide(&request, &ctx);
        let want = fresh.decide(&request, &ctx);
        prop_assert_eq!(got.effect(), want.effect());
        prop_assert_eq!(got.rule(), want.rule());
    }

    #[test]
    fn a_reload_keeps_exactly_the_decisions_its_edit_cannot_change(
        pool in prop::collection::vec(arb_pool_policy(), 2..5),
        kind in 0..5usize,
        at in any::<prop::sample::Index>(),
        replacement in arb_pool_policy(),
    ) {
        // Warm every pool pair under `before`, reload to `after`, one edit
        // away: every decision must match a fresh engine's over `after`,
        // and a cached pair that no rule of a touched policy matches must
        // be answered from the cache on its first decide after the reload,
        // unless the combined default effect changed.
        let before: Vec<Policy> =
            pool.iter().enumerate().map(|(i, p)| renamed(p, format!("p{i}"))).collect();
        let (after, touched) = edit(&before, kind, at.index(before.len()), &replacement);
        let before: PolicySet = before.into_iter().collect();
        let after: PolicySet = after.into_iter().collect();
        let keeps = before.default_effect() == after.default_effect();
        let pairs = pool_pairs();
        let hits = |engine: &PolicyEngine| engine.stats().cache_hits;
        for strategy in STRATEGIES {
            let mut engine = PolicyEngine::new(before.clone()).with_strategy(strategy);
            let fresh = PolicyEngine::new(after.clone()).with_strategy(strategy);
            for (request, ctx) in &pairs {
                engine.decide(request, ctx);
            }
            // A second pass in the same order hits exactly the cached
            // pairs that no other pair evicts, and leaves them cached.
            let cached: Vec<bool> = pairs
                .iter()
                .map(|(request, ctx)| {
                    let was = hits(&engine);
                    engine.decide(request, ctx);
                    hits(&engine) > was
                })
                .collect();
            let generation = engine.cache_generation();
            engine.reload(after.clone());
            prop_assert_eq!(engine.cache_generation(), generation + 1);
            let untouched = |request: &AccessRequest| {
                !touched.iter().flat_map(|p| p.rules()).any(|rule| rule.matches(request))
            };
            let kept = pairs
                .iter()
                .zip(&cached)
                .filter(|((request, _), &cached)| keeps && cached && untouched(request));
            for (step, ((request, ctx), _)) in kept.enumerate() {
                let was = hits(&engine);
                let got = engine.decide(request, ctx);
                prop_assert_eq!(
                    hits(&engine),
                    was + 1,
                    "strategy {}, edit {}: kept pair {} missed after the reload",
                    strategy,
                    kind,
                    step
                );
                let want = fresh.decide(request, ctx);
                prop_assert_eq!((got.effect(), got.rule()), (want.effect(), want.rule()));
            }
            for (step, (request, ctx)) in pairs.iter().enumerate() {
                let got = engine.decide(request, ctx);
                let want = fresh.decide(request, ctx);
                prop_assert_eq!(
                    (got.effect(), got.rule()),
                    (want.effect(), want.rule()),
                    "strategy {}, edit {}, pair {}", strategy, kind, step
                );
            }
        }
    }
}
