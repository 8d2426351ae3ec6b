//! E4: policy-engine evaluation throughput.
//!
//! Sweeps rule count, compares combining strategies, ablates both the
//! exact-side indexes and the generation-tagged decision cache, and times
//! a reload that carries the cache over (DESIGN.md §5.1; the fast-path
//! mechanics — interning, single-writer counters, `GenCache` — are
//! described in DESIGN.md §6).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polsec_car::v2x::v2x_platoon_policy;
use polsec_car::{car_policy, CarMode};
use polsec_core::{
    AccessRequest, Action, ActionSet, CombiningStrategy, EntityId, EntityMatcher, EvalContext,
    Pattern, Policy, PolicyEngine, PolicySet, Rule,
};
use polsec_core::Effect;
use std::collections::BTreeSet;
use std::hint::black_box;

fn policy_with_rules(n: usize) -> Policy {
    let mut p = Policy::new("bench", 1);
    for i in 0..n {
        p = p
            .add_rule(Rule::new(
                format!("r{i}"),
                if i % 4 == 0 { Effect::Deny } else { Effect::Allow },
                ActionSet::of(&[Action::Read, Action::Write]),
                EntityMatcher::new("entry", Pattern::Exact(format!("subject-{i}"))),
                EntityMatcher::new("asset", Pattern::Exact(format!("asset-{}", i % 16))),
            ))
            .expect("unique rule ids");
    }
    p
}

fn request(i: usize) -> AccessRequest {
    AccessRequest::new(
        EntityId::new("entry", format!("subject-{i}")),
        EntityId::new("asset", format!("asset-{}", i % 16)),
        Action::Read,
    )
}

fn bench_rule_count_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_engine/rule_count");
    for &n in &[10usize, 100, 1_000, 10_000] {
        let engine = PolicyEngine::new(PolicySet::from_policy(policy_with_rules(n)));
        let ctx = EvalContext::new().with_mode("normal");
        let req = request(n / 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(engine.decide(black_box(&req), &ctx)));
        });
    }
    group.finish();
}

/// Prefix-matched subjects and objects enter neither exact-side index, so
/// the uncached path walks all `n` rules — the walk a cache hit avoids.
fn wildcard_policy(n: usize) -> Policy {
    let mut p = Policy::new("bench-wild", 1);
    for i in 0..n {
        p = p
            .add_rule(Rule::new(
                format!("w{i}"),
                if i % 4 == 0 { Effect::Deny } else { Effect::Allow },
                ActionSet::of(&[Action::Read, Action::Write]),
                EntityMatcher::new("entry", Pattern::Prefix(format!("grp{i}-"))),
                EntityMatcher::new("asset", Pattern::Prefix(format!("asset-{}", i % 16))),
            ))
            .expect("unique rule ids");
    }
    p
}

fn bench_cache_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_engine/cache_ablation");
    let n = 1_000;
    for (label, caching) in [("cached_hit", true), ("uncached_walk", false)] {
        let engine = PolicyEngine::new(PolicySet::from_policy(wildcard_policy(n)))
            .with_caching(caching);
        let ctx = EvalContext::new().with_mode("normal");
        let req = AccessRequest::new(
            EntityId::new("entry", format!("grp{}-node", n / 2)),
            EntityId::new("asset", format!("asset-{}", (n / 2) % 16)),
            Action::Read,
        );
        engine.decide(&req, &ctx); // warm
        group.bench_function(label, |b| {
            b.iter(|| black_box(engine.decide(black_box(&req), &ctx)));
        });
    }
    group.finish();
}

/// `entry:* → asset:X` rules, the shape of the shipped policies' read
/// rules: only the object index reaches them.
fn any_subject_policy(n: usize) -> Policy {
    let mut p = Policy::new("bench-any", 1);
    for i in 0..n {
        p = p
            .add_rule(Rule::new(
                format!("a{i}"),
                if i % 4 == 0 { Effect::Deny } else { Effect::Allow },
                ActionSet::of(&[Action::Read, Action::Write]),
                EntityMatcher::new("entry", Pattern::Any),
                EntityMatcher::new("asset", Pattern::Exact(format!("asset-{i}"))),
            ))
            .expect("unique rule ids");
    }
    p
}

fn bench_index_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_engine/index_ablation");
    let n = 1_000;
    let any_subject = AccessRequest::new(
        EntityId::new("entry", "sensors"),
        EntityId::new("asset", format!("asset-{}", n - 1)),
        Action::Read,
    );
    for (label, indexing, policy, req) in [
        ("indexed", true, policy_with_rules(n), request(n - 1)),
        ("linear", false, policy_with_rules(n), request(n - 1)),
        ("any_subject_indexed", true, any_subject_policy(n), any_subject),
        ("any_subject_linear", false, any_subject_policy(n), any_subject),
    ] {
        // caching off so this ablation keeps measuring raw rule walks
        let engine = PolicyEngine::new(PolicySet::from_policy(policy))
            .with_indexing(indexing)
            .with_caching(false);
        let ctx = EvalContext::new();
        group.bench_function(label, |b| {
            b.iter(|| black_box(engine.decide(black_box(&req), &ctx)));
        });
    }
    group.finish();
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_engine/strategy");
    for strategy in [
        CombiningStrategy::DenyOverrides,
        CombiningStrategy::FirstMatch,
        CombiningStrategy::PriorityOrder,
    ] {
        let engine = PolicyEngine::new(PolicySet::from_policy(policy_with_rules(500)))
            .with_strategy(strategy);
        let ctx = EvalContext::new();
        let req = request(250);
        group.bench_function(strategy.to_string(), |b| {
            b.iter(|| black_box(engine.decide(black_box(&req), &ctx)));
        });
    }
    group.finish();
}

/// An OTA update's reload in the shape of stackbench's `policy_update`:
/// the car baseline swapped for itself plus the one-rule platoon policy,
/// or back, then every request the two sets name decided again in each
/// car mode. The reload walks the decision cache and carries over every
/// decision the platoon rule cannot change (DESIGN.md §6.3).
fn bench_reload_retention(c: &mut Criterion) {
    let car: PolicySet = [car_policy()].into_iter().collect();
    let platoon: PolicySet = [car_policy(), v2x_platoon_policy()].into_iter().collect();
    let named = |side: fn(&Rule) -> &EntityMatcher| -> BTreeSet<String> {
        platoon.rules().filter_map(|(_, rule)| side(rule).exact_key().map(|(_, n)| n)).collect()
    };
    let assets = named(Rule::object);
    let requests: Vec<AccessRequest> = named(Rule::subject)
        .iter()
        .flat_map(|entry| assets.iter().map(move |asset| (entry, asset)))
        .flat_map(|(entry, asset)| {
            let (subject, object) = (EntityId::new("entry", entry), EntityId::new("asset", asset));
            Action::ALL.map(|action| AccessRequest::new(subject, object, action))
        })
        .collect();
    let contexts = CarMode::ALL.map(|mode| {
        EvalContext::new()
            .with_mode(mode.name())
            .with_state("vehicle.moving", "false")
            .with_state("crash", "false")
            .with_state("stolen", "false")
    });
    let sets = [car, platoon];
    let mut engine = PolicyEngine::new(sets[0].clone());
    let mut next = 1;
    c.bench_function("policy_engine/reload_retention", |b| {
        b.iter(|| {
            engine.reload(sets[next].clone());
            next ^= 1;
            for req in &requests {
                for ctx in &contexts {
                    black_box(engine.decide(req, ctx));
                }
            }
        });
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(30);
    targets = bench_rule_count_sweep, bench_cache_ablation, bench_index_ablation, bench_strategies,
        bench_reload_retention);
criterion_main!(benches);
