//! Car component firmware.
//!
//! One module per Fig. 2 node. Every component follows the same pattern: a
//! public state struct behind an `Arc<Mutex<…>>` handle (so scenarios can
//! inspect outcomes after a run) and a [`Firmware`](polsec_can::Firmware)
//! implementation driving it.
//!
//! Components that act on *commands* consult the shared [`AppPolicy`] —
//! the **software** policy enforcement point of the paper (§V.B.1): an
//! application-level check against the `polsec-core` engine, keyed on the
//! command's claimed [`Origin`], the protected
//! asset, and the situational context (car mode, vehicle state). When no
//! `AppPolicy` is installed (enforcement disabled), every check passes —
//! that is the unprotected baseline configuration.

pub mod door_locks;
pub mod ecu;
pub mod engine;
pub mod eps;
pub mod infotainment;
pub mod safety;
pub mod sensors;
pub mod telematics;

pub use door_locks::{door_locks_firmware, DoorLockState};
pub use ecu::{ecu_firmware, ecu_firmware_monitored, EcuState};
pub use engine::{engine_firmware, EngineState};
pub use eps::{eps_firmware, EpsState};
pub use infotainment::{infotainment_firmware, InfotainmentState};
pub use safety::{safety_firmware, SafetyState};
pub use sensors::{sensors_firmware, SensorState};
pub use telematics::{telematics_firmware, TelematicsState};

use crate::messages::{Asset, Origin};
use polsec_core::{AccessRequest, Action, EvalContext, PolicyEngine};
use polsec_sim::SimTime;
use std::sync::{Arc, Mutex};

/// A shared handle for component state.
pub type Shared<T> = Arc<Mutex<T>>;

/// Creates a shared state handle.
pub fn shared<T>(value: T) -> Shared<T> {
    Arc::new(Mutex::new(value))
}

/// Locks a shared handle, recovering from poisoning (a panicking test
/// thread must not wedge every other test).
pub fn lock<T>(s: &Shared<T>) -> std::sync::MutexGuard<'_, T> {
    s.lock().unwrap_or_else(|e| e.into_inner())
}

/// The application-level policy enforcement point shared by all components.
///
/// Wraps the `polsec-core` engine plus the car's situational context. All
/// clones share the same engine and context.
#[derive(Clone)]
pub struct AppPolicy {
    engine: Arc<PolicyEngine>,
    ctx: Shared<EvalContext>,
}

impl std::fmt::Debug for AppPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppPolicy")
            .field("rules", &self.engine.rule_count())
            .finish()
    }
}

impl AppPolicy {
    /// Creates the enforcement point.
    pub fn new(engine: Arc<PolicyEngine>, ctx: Shared<EvalContext>) -> Self {
        AppPolicy { engine, ctx }
    }

    /// Whether `origin` may perform `action` on `asset` right now.
    pub fn permits(&self, origin: Origin, asset: Asset, action: Action, now: SimTime) -> bool {
        let req = AccessRequest::new(origin.entity(), asset.entity(), action);
        self.engine
            .decide_at(&req, &lock(&self.ctx), now.as_micros())
            .is_allow()
    }

    /// Scopes this policy point's rate tracking (builder style): every
    /// [`AppPolicy::observe_rate`] and every rate condition consulted by
    /// [`AppPolicy::permits`] uses the engine's per-scope windows for
    /// `scope` instead of the global ones. Fleet runs give each vehicle
    /// its own scope so a shared engine's rate trackers cannot couple
    /// concurrently-running vehicles.
    pub fn with_rate_scope(self, scope: u64) -> Self {
        lock(&self.ctx).set_rate_scope(Some(scope));
        self
    }

    /// Notes an event for a rate-limited key (in this policy point's rate
    /// scope, when one is set).
    pub fn observe_rate(&self, key: &str, now: SimTime) {
        let scope = lock(&self.ctx).rate_scope();
        self.engine.observe_rate_event(scope, key, now.as_micros());
    }

    /// Sets a situational state variable (e.g. `crash = true`).
    pub fn set_state(&self, key: &str, value: &str) {
        lock(&self.ctx).set_state(key, value);
    }

    /// Reads a situational state variable.
    pub fn state(&self, key: &str) -> Option<String> {
        lock(&self.ctx).state(key).map(str::to_string)
    }
}

/// Convenience: check a command against an optional policy point — absent
/// policy means every check passes (unprotected baseline).
pub fn policy_permits(
    policy: &Option<AppPolicy>,
    origin: Origin,
    asset: Asset,
    action: Action,
    now: SimTime,
) -> bool {
    match policy {
        Some(p) => p.permits(origin, asset, action, now),
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polsec_core::dsl::parse_policy;

    fn app(dsl: &str, mode: &str) -> AppPolicy {
        let policy = parse_policy(dsl).unwrap();
        let engine = Arc::new(PolicyEngine::from_policy(policy));
        let ctx = shared(EvalContext::new().with_mode(mode));
        AppPolicy::new(engine, ctx)
    }

    #[test]
    fn permits_consults_engine_with_context() {
        let a = app(
            r#"policy "t" version 1 {
                allow write on asset:door-locks from entry:manual;
            }"#,
            "normal",
        );
        assert!(a.permits(Origin::Manual, Asset::DoorLocks, Action::Write, SimTime::ZERO));
        assert!(!a.permits(Origin::Telematics, Asset::DoorLocks, Action::Write, SimTime::ZERO));
    }

    #[test]
    fn state_flows_into_conditions() {
        let a = app(
            r#"policy "t" version 1 {
                allow write on asset:engine from entry:manual when state.armed == false;
            }"#,
            "normal",
        );
        a.set_state("armed", "true");
        assert!(!a.permits(Origin::Manual, Asset::Engine, Action::Write, SimTime::ZERO));
        a.set_state("armed", "false");
        assert!(a.permits(Origin::Manual, Asset::Engine, Action::Write, SimTime::ZERO));
        assert_eq!(a.state("armed").as_deref(), Some("false"));
    }

    #[test]
    fn absent_policy_passes_everything() {
        assert!(policy_permits(
            &None,
            Origin::Telematics,
            Asset::Modem,
            Action::Configure,
            SimTime::ZERO
        ));
    }

    #[test]
    fn rate_scopes_isolate_two_policy_points_on_one_engine() {
        let policy = parse_policy(
            r#"policy "t" version 1 {
                allow write on asset:door-locks from entry:manual when rate(unlock) <= 1;
            }"#,
        )
        .unwrap();
        let engine = Arc::new(PolicyEngine::from_policy(policy));
        let a = AppPolicy::new(
            Arc::clone(&engine),
            shared(EvalContext::new().with_mode("normal")),
        )
        .with_rate_scope(0);
        let b = AppPolicy::new(
            Arc::clone(&engine),
            shared(EvalContext::new().with_mode("normal")),
        )
        .with_rate_scope(1);
        let t = SimTime::from_micros(10);
        a.observe_rate("unlock", t);
        a.observe_rate("unlock", t);
        assert!(!a.permits(Origin::Manual, Asset::DoorLocks, Action::Write, t), "a over its limit");
        assert!(b.permits(Origin::Manual, Asset::DoorLocks, Action::Write, t), "b unaffected");
    }

    #[test]
    fn rate_events_flow_into_rate_conditions() {
        let a = app(
            r#"policy "t" version 1 {
                allow write on asset:door-locks from entry:manual when rate(unlock) <= 1;
            }"#,
            "normal",
        );
        let t = SimTime::from_micros(10);
        assert!(a.permits(Origin::Manual, Asset::DoorLocks, Action::Write, t));
        a.observe_rate("unlock", t);
        a.observe_rate("unlock", t);
        assert!(!a.permits(Origin::Manual, Asset::DoorLocks, Action::Write, t));
    }
}
