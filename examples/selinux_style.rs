//! Software policy enforcement in the SELinux style (paper §V.B.1):
//! modular MAC on the infotainment head unit, with a policy update that
//! hardens the system after a threat is discovered — and a `neverallow`
//! assertion that keeps it hardened.
//!
//! Run with: `cargo run --example selinux_style`

use polsec::mac::{
    EnforcementMode, Enforcer, MacPolicy, PolicyModule, SecurityContext, TeRule, TypeTransition,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Base policy: the navigator may read the CAN socket; the browser may
    // talk to the media player; nothing may write the bus.
    let mut base = PolicyModule::new("head-unit-base", 1);
    for t in ["browser_t", "mediaplayer_t", "navigator_t", "canbus_t", "updater_exec_t", "updater_t"] {
        base.declare_type(t);
    }
    base.add_allow(TeRule::allow("navigator_t", "canbus_t", "can_socket", &["read"]));
    base.add_allow(TeRule::allow("browser_t", "mediaplayer_t", "service", &["call"]));
    base.add_transition(TypeTransition::new("browser_t", "updater_exec_t", "updater_t"));

    let mut policy = MacPolicy::new();
    policy.load_module(base)?;
    let mut enforcer = Enforcer::new(policy);

    let browser = SecurityContext::new("system", "system_r", "browser_t");
    let bus = SecurityContext::object("canbus_t");

    // The row-11 exploit: browser code tries to write the CAN socket.
    let attempt = enforcer.check(&browser, &bus, "can_socket", "write");
    println!("browser -> canbus write: permitted={}", attempt.permitted());
    println!("audit: {}", enforcer.audit().last().expect("denial audited"));

    // Permissive mode stages new policy without breaking the unit.
    enforcer.set_mode(EnforcementMode::Permissive);
    let staged = enforcer.check(&browser, &bus, "can_socket", "write");
    println!(
        "permissive staging: permitted={} (policy said {})",
        staged.permitted(),
        staged.policy_allowed()
    );
    enforcer.set_mode(EnforcementMode::Enforcing);

    // Policy update: the OEM ships a hardening module with a neverallow.
    let mut hardening = PolicyModule::new("advisory-2018-7", 1);
    hardening.add_rule(TeRule::neverallow("browser_t", "canbus_t", "can_socket", &["write"]));
    enforcer.policy_mut().load_module(hardening)?;
    println!("hardening module loaded: {:?}", enforcer.policy().module_names());

    // A later (malicious or sloppy) module trying to grant the vector fails
    // at link time.
    let mut sloppy = PolicyModule::new("vendor-blob", 1);
    sloppy.add_allow(TeRule::allow("browser_t", "canbus_t", "can_socket", &["write"]));
    match enforcer.policy_mut().load_module(sloppy) {
        Err(e) => println!("vendor blob rejected: {e}"),
        Ok(()) => unreachable!("the assertion must hold"),
    }

    // Domain transition: launching the updater moves the browser's process
    // into the confined updater domain.
    let updater = enforcer.exec_transition(&browser, "updater_exec_t");
    println!("exec transition: {browser} -> {updater}");
    Ok(())
}
