//! The policy load path allocates only for what it keeps.
//!
//! A strict `load_bundle` verifies a signed bundle, parses its policies,
//! runs the Layer-1 validator (which cross-checks the engine's load-time
//! cacheability analysis of the set without building an engine) and
//! reloads the engine, whose rule table shares the set's rules instead of
//! copying them. None of these steps may pay for an engine it only reads
//! or a rule it already holds, the lexer may not copy the words it scans,
//! a service engine reserves an audit ring only once a thread decides on
//! it, and an event for a rate key no loaded policy declares is dropped
//! without allocating. A device's store rejects a stale bundle
//! from its header without parsing a policy, and a signature of any size
//! without decoding it onto the heap; a policy set's clone shares its
//! rules, and an embedded policy is parsed once per process. A reload
//! carries the decision cache over in one walk that allocates nothing per
//! cached entry, and a decision it carried over answers without
//! allocating. A counting
//! global allocator checks this, per thread, in calls and in bytes
//! requested: the test harness's own thread allocates while the tests run.

use polsec::analyze::layer1::strict_validator;
use polsec::analyze::AnalysisOptions;
use polsec::car::car_policy;
use polsec::car::v2x::{rollout_bundle, v2x_shared_policy_set, OEM_KEY};
use polsec::policy::audit::DEFAULT_CAPACITY;
use polsec::policy::dsl::{tokenize, Token};
use polsec::policy::{
    AccessRequest, Action, ActionSet, DevicePolicyStore, Effect, EntityId, EntityMatcher,
    EvalContext, LoadMode, Pattern, Policy, PolicyEngine, PolicyError, PolicySet, Rule,
    SignedBundle,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialised and without a destructor: touching them never
    // allocates, so the allocator may use them
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counters are
// const-initialised thread-local cells with no allocation of their own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations and bytes requested on this thread while `f` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Spent {
    allocations: u64,
    bytes: u64,
}

fn counted<R>(f: impl FnOnce() -> R) -> (R, Spent) {
    let (allocations, bytes) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let spent = Spent {
        allocations: ALLOCATIONS.with(Cell::get) - allocations,
        bytes: BYTES.with(Cell::get) - bytes,
    };
    (out, spent)
}

/// Bytes a strict load of the rollout bundle may request: 33 657 bytes in
/// 159 allocations measured on x86-64 Linux (rustc 1.95.0), plus headroom.
/// It requested 50 841 bytes in 166 allocations while the lexer doubled its
/// token vector from empty (32 640 bytes in 8 allocations for the body's
/// 342 tokens, where the reserve from the body's length takes 15 456 in
/// one), 80 917 bytes in 593 allocations while the validator built a
/// compact engine and every engine deep-copied its rules, and 94 040 in
/// 748 while a policy set's clone copied every rule too. A validator that
/// built a service-scale engine would request 320 KiB for its decision
/// cache alone (7.7 MB while the audit rings were reserved at
/// construction).
const STRICT_LOAD_BUDGET_BYTES: u64 = 40 * 1024;

/// Allocations the same load may make: the 159 measured plus a fifth.
/// Putting back the validator's engine requested 67 029 bytes in 201
/// allocations, and putting back the copy of every rule into the engine's
/// rule table 51 462 bytes in 218, both measured before the lexer's
/// reserve; less its saving (17 184 bytes, 7 allocations) that is 49 845
/// bytes in 194 and 34 278 in 211, so each still breaks a bound; a ceiling
/// of 256 would let the copy back unseen.
const STRICT_LOAD_BUDGET_ALLOCATIONS: u64 = 190;

#[test]
fn a_service_engine_reserves_its_audit_ring_on_first_decide() {
    let set = v2x_shared_policy_set();
    let request = AccessRequest::new(
        EntityId::new("entry", "telematics"),
        EntityId::new("asset", "v2x-platoon"),
        Action::Read,
    );
    let other = AccessRequest::new(
        EntityId::new("entry", "sensors"),
        EntityId::new("asset", "ev-ecu"),
        Action::Read,
    );
    let gated = AccessRequest::new(
        EntityId::new("entry", "telematics"),
        EntityId::new("asset", "door-locks"),
        Action::Write,
    );
    let ctx = EvalContext::new()
        .with_mode("normal")
        .with_state("vehicle.moving", "false")
        .with_state("crash", "false");
    let (engine, build) = counted(|| PolicyEngine::new(set));
    let (_, first) = counted(|| engine.decide(&request, &ctx));
    let (_, second) = counted(|| engine.decide(&request, &ctx));
    // A miss walks the indexes; a state-gated write bypasses the cache.
    let (_, miss) = counted(|| engine.decide(&other, &ctx));
    let (_, bypass) = counted(|| engine.decide(&gated, &ctx));
    let (_, hit) = counted(|| engine.decide(&other, &ctx));
    let stats = engine.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (2, 2), "{stats:?}");

    // The first record reserves this thread's whole ring at once...
    let ring_bytes = first.bytes;
    assert_eq!(first.allocations, 1, "first decide: {first:?}");
    assert!(
        ring_bytes >= DEFAULT_CAPACITY as u64 * 32,
        "a {DEFAULT_CAPACITY}-record ring in {ring_bytes} bytes"
    );
    // ...so the build reserved none of the eight, and later records
    // allocate nothing.
    assert!(
        build.bytes < ring_bytes,
        "PolicyEngine::new requested {} bytes, one ring is {ring_bytes}",
        build.bytes
    );
    assert_eq!(second.allocations, 0);
    for (what, spent) in [("miss", miss), ("bypass", bypass), ("hit", hit)] {
        assert_eq!(spent.allocations, 0, "a {what} allocated: {spent:?}");
    }
}

#[test]
fn a_reload_walks_the_cache_without_allocating_per_entry() {
    let base = Policy::new("base", 1)
        .add_rule(Rule::new(
            "read",
            Effect::Allow,
            ActionSet::only(Action::Read),
            EntityMatcher::anything(),
            EntityMatcher::anything(),
        ))
        .expect("one rule");
    let extra = Policy::new("extra", 1)
        .add_rule(Rule::new(
            "none",
            Effect::Deny,
            ActionSet::only(Action::Read),
            EntityMatcher::new("entry", Pattern::Exact("nobody".into())),
            EntityMatcher::anything(),
        ))
        .expect("one rule");
    let outgoing = PolicySet::from_policy(base.clone());
    let incoming: PolicySet = [base, extra].into_iter().collect();
    let ctx = EvalContext::new();
    let reload_after_warming = |warmed: usize| {
        let requests: Vec<AccessRequest> = (0..warmed)
            .map(|i| {
                let subject = EntityId::new("entry", format!("warm-{i}"));
                AccessRequest::new(subject, EntityId::new("asset", "ecu"), Action::Read)
            })
            .collect();
        let mut engine = PolicyEngine::new(outgoing.clone());
        // One round trip first interns every name the two sets bring.
        engine.reload(incoming.clone());
        engine.reload(outgoing.clone());
        for request in &requests {
            engine.decide(request, &ctx);
        }
        let next = incoming.clone();
        let (_, reload) = counted(|| engine.reload(next));
        // The extra policy's one rule matches none of the warmed requests,
        // so the entry of the last one, which no later insert can have
        // evicted, was carried over.
        let hits = engine.stats().cache_hits;
        let last = requests.last().expect("warmed requests");
        let (decision, hit) = counted(|| engine.decide(last, &ctx));
        assert_eq!(decision.rule(), Some("base.read"));
        assert_eq!(engine.stats().cache_hits, hits + 1, "the carried entry missed");
        assert_eq!(hit, Spent { allocations: 0, bytes: 0 }, "a carried hit allocated");
        reload
    };
    let few = reload_after_warming(10);
    let many = reload_after_warming(1_000);
    assert_eq!(few, many, "the reload walk allocated per cached entry");
}

#[test]
fn a_strict_load_stays_within_its_byte_budget() {
    let signed = rollout_bundle().sign(OEM_KEY);
    let validator = strict_validator(AnalysisOptions::default(), false);
    let mut engine = PolicyEngine::new(v2x_shared_policy_set());
    let mut load = || {
        engine
            .load_bundle(&signed, OEM_KEY, LoadMode::Strict(&validator))
            .expect("the rollout bundle passes the strict validator")
    };
    // The first load interns the names the bundle brings; measure the next.
    load();
    let (version, spent) = counted(load);
    assert_eq!(version, 1);
    assert!(
        spent.bytes <= STRICT_LOAD_BUDGET_BYTES
            && spent.allocations <= STRICT_LOAD_BUDGET_ALLOCATIONS,
        "a strict load requested {} bytes in {} allocations; the budget is {} bytes in {}",
        spent.bytes,
        spent.allocations,
        STRICT_LOAD_BUDGET_BYTES,
        STRICT_LOAD_BUDGET_ALLOCATIONS
    );
}

#[test]
fn undeclared_rate_keys_allocate_nothing() {
    let engine = PolicyEngine::new(v2x_shared_policy_set());
    let keys: Vec<String> = (0..2_000).map(|i| format!("burst-key-{i}")).collect();
    for scope in [None, Some(3)] {
        let (_, spent) = counted(|| {
            for (t, key) in (1_000..).zip(&keys) {
                engine.observe_rate_event(scope, key, t);
            }
        });
        assert_eq!(spent.allocations, 0, "scope {scope:?}: {spent:?}");
    }
}

#[test]
fn tokenize_allocates_only_its_token_vector() {
    let payload = String::from_utf8(rollout_bundle().payload()).expect("payloads are utf-8");
    // the policies follow the three header lines
    let body = payload
        .splitn(4, '\n')
        .nth(3)
        .expect("a payload carries policies");
    let (tokens, lexing) = counted(|| tokenize(body).expect("the rollout body lexes"));
    assert!(tokens.len() > 300, "{} tokens", tokens.len());
    // One allocation: the vector reserved from the body's length, which
    // holds every token without growing.
    let vector = Spent {
        allocations: 1,
        bytes: (tokens.capacity() * std::mem::size_of::<Token>()) as u64,
    };
    assert_eq!(lexing, vector, "tokenize allocated beyond its one vector");
}

#[test]
fn a_stale_apply_parses_no_policy() {
    let bundle = rollout_bundle();
    let signed = bundle.sign(OEM_KEY);
    let mut store = DevicePolicyStore::new(PolicySet::from_policy(car_policy()), OEM_KEY.to_vec());
    store.apply(&signed).expect("the rollout applies");
    let (verdict, spent) = counted(|| store.apply(&signed));
    assert_eq!(verdict, Err(PolicyError::StaleVersion { current: 1, offered: 1 }));
    assert_eq!(store.history().last().map(|r| r.rationale.as_str()), Some(&*bundle.rationale));
    // Only the rationale the history records: no token vector, no rule.
    let rationale = bundle.rationale.len() as u64;
    assert!(
        spent.allocations <= 1 && spent.bytes <= rationale,
        "a stale apply spent {spent:?}; the rationale is {rationale} bytes"
    );
}

#[test]
fn a_policy_set_clone_copies_no_rule() {
    let many = (0..1_000).fold(Policy::new("many", 1), |p, i| {
        p.add_rule(Rule::new(
            format!("r{i}"),
            Effect::Allow,
            ActionSet::only(Action::Read),
            EntityMatcher::anything(),
            EntityMatcher::anything(),
        ))
        .expect("distinct ids")
    });
    for set in [v2x_shared_policy_set(), PolicySet::from_policy(many)] {
        let (copy, spent) = counted(|| set.clone());
        assert_eq!(copy, set);
        // the policy vector and one name per policy
        let bound = 1 + set.policies().len() as u64;
        assert!(
            spent.allocations <= bound,
            "cloning {} policies of {} rules spent {spent:?}",
            set.policies().len(),
            set.rule_count()
        );
    }
}

#[test]
fn car_policy_parses_only_on_its_first_call() {
    let first = car_policy();
    let (again, call) = counted(car_policy);
    let (_, clone) = counted(|| first.clone());
    assert_eq!(again, first);
    assert_eq!(call, clone, "a later call costs one clone");
    assert!(clone.allocations <= 1, "a clone copies the name only: {clone:?}");
}

#[test]
fn a_mebibyte_signature_is_rejected_without_decoding_it() {
    let payload = rollout_bundle().payload();
    let huge = SignedBundle::from_parts(payload, "ab".repeat(512 * 1024));
    let (verdict, spent) = counted(|| huge.verify(OEM_KEY));
    assert_eq!(verdict.unwrap_err(), PolicyError::BadSignature);
    assert_eq!(spent, Spent { allocations: 0, bytes: 0 });
    let mut store = DevicePolicyStore::new(PolicySet::new(), OEM_KEY.to_vec());
    let (verdict, spent) = counted(|| store.apply(&huge));
    assert_eq!(verdict, Err(PolicyError::BadSignature));
    // the history's first record reserves its vector
    assert!(spent.allocations <= 1 && spent.bytes < 1024, "{spent:?}");
}
