//! E5: MAC check cost — one `Enforcer::check` against the linked policy at
//! the head unit's size and at 500 rules, and a module load followed by a
//! check.

use criterion::{criterion_group, criterion_main, Criterion};
use polsec_mac::{Enforcer, MacPolicy, PolicyModule, SecurityContext, TeRule};
use std::hint::black_box;

/// The head unit's policy: one allow and two neverallow assertions.
fn head_unit_enforcer() -> Enforcer {
    let mut m = PolicyModule::new("head-unit", 1);
    for t in ["mediaplayer_t", "browser_t", "navigator_t", "canbus_t"] {
        m.declare_type(t);
    }
    m.add_allow(TeRule::allow("navigator_t", "canbus_t", "can_socket", &["read"]));
    m.add_rule(TeRule::neverallow("mediaplayer_t", "canbus_t", "can_socket", &["write"]));
    m.add_rule(TeRule::neverallow("browser_t", "canbus_t", "can_socket", &["write"]));
    let mut p = MacPolicy::new();
    p.load_module(m).expect("head-unit module loads");
    Enforcer::new(p)
}

fn build_enforcer(rules: usize) -> Enforcer {
    let mut m = PolicyModule::new("bench", 1);
    m.declare_type("canbus_t");
    for i in 0..rules {
        let t = format!("app{i}_t");
        m.declare_type(t.clone());
        m.add_allow(TeRule::allow(t, "canbus_t", "can_socket", &["read", "write"]));
    }
    let mut p = MacPolicy::new();
    p.load_module(m).expect("bench module loads");
    Enforcer::new(p)
}

/// Granted, unaudited checks, so no audit line is written: the last rule
/// of each policy grants the vector.
fn bench_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("mac/check");
    let tcon = SecurityContext::object("canbus_t");

    group.bench_function("3_rules", |b| {
        let mut e = head_unit_enforcer();
        let scon = SecurityContext::new("system", "system_r", "navigator_t");
        b.iter(|| black_box(e.check(&scon, &tcon, "can_socket", "read")));
    });

    group.bench_function("500_rules", |b| {
        let mut e = build_enforcer(500);
        let scon = SecurityContext::new("system", "system_r", "app499_t");
        b.iter(|| black_box(e.check(&scon, &tcon, "can_socket", "read")));
    });
    group.finish();
}

fn bench_reload_then_check(c: &mut Criterion) {
    c.bench_function("mac/reload_then_check", |b| {
        let scon = SecurityContext::new("system", "system_r", "app10_t");
        let tcon = SecurityContext::object("canbus_t");
        b.iter_with_setup(
            || {
                let mut e = build_enforcer(100);
                e.check(&scon, &tcon, "can_socket", "read");
                e
            },
            |mut e| {
                let mut extra = PolicyModule::new("hotload", 1);
                extra.declare_type("new_t");
                e.policy_mut().load_module(extra).expect("loads");
                black_box(e.check(&scon, &tcon, "can_socket", "read"));
            },
        );
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(30);
    targets = bench_check, bench_reload_then_check);
criterion_main!(benches);
