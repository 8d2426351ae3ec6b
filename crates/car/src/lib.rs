//! # polsec-car — the connected-car case study
//!
//! The paper's §V use case, fully executable: the car of Fig. 2 as a set of
//! CAN nodes on a shared bus, the three car modes, the sixteen Table I
//! threats as data *and* as runnable attack scenarios, and a scenario
//! runner that measures attack outcomes under different enforcement
//! configurations.
//!
//! * [`messages`] — the CAN identifier map, each node's legitimate
//!   read/write communication matrix, and the policy vocabulary every
//!   policy point shares,
//! * [`anomaly`] — the behavioural plausibility rung: per-signal range /
//!   rate / stuck-value models plus cross-signal consistency, closing
//!   Table I row 2 (value spoof from the legitimate sensor node),
//! * [`CarMode`] — Normal / Remote Diagnostic / Fail-safe with transitions,
//! * [`components`] — firmware state machines for EV-ECU, EPS, engine,
//!   telematics, infotainment, door locks, safety-critical system, sensors,
//! * [`builder`] — assembles a [`Car`] under an [`EnforcementConfig`]
//!   (software filters / application policy checks / HPE) from the one
//!   component assembly the fleet [`Vehicle`] also uses,
//! * [`threats`] — Table I transcribed: all sixteen threats with the
//!   paper's exact STRIDE strings, DREAD vectors and R/W policies,
//! * [`security_model`] — the car use case → threat-model pipeline →
//!   compiled policies,
//! * [`attacks`] + [`scenario`] — one executable attack per Table I row and
//!   the runner behind the E1 attack matrix,
//! * [`fleet`] — the fleet-scale scenario engine (DESIGN.md §7): N
//!   segmented vehicles under mixed attack traffic, sharded over a worker
//!   pool with byte-reproducible merged metrics.
//!
//! # Example
//!
//! ```
//! use polsec_car::{AttackId, CarMode, EnforcementConfig, ScenarioRunner};
//!
//! let runner = ScenarioRunner::new(7);
//! let report = runner.run(AttackId::SpoofEcuDisable, CarMode::Normal,
//!                         EnforcementConfig::hpe_only());
//! assert!(report.outcome.is_blocked(), "HPE must stop the ECU spoof");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod attacks;
pub mod builder;
pub mod components;
pub mod fleet;
pub mod messages;
pub mod modes;
pub mod scenario;
pub mod security_model;
mod tally;
pub mod threats;
pub mod v2x;

pub use anomaly::{
    cross_signal_verdict, AnomalyCounters, AnomalyVerdict, EcuMonitor, KinematicSample,
    PlatoonMonitor, SignalMonitor, SignalSpec,
};
pub use attacks::AttackId;
pub use builder::{Car, CarBuilder, EnforcementConfig};
pub use fleet::{
    asset_for_id, ladder_description, run_fleet, FleetConfig, FleetEnforcement, FleetReport,
    LadderDescription, Vehicle,
};
pub use messages::is_command_id;
pub use modes::{CarMode, LimpTransition, PlatoonHealth};
pub use scenario::{AttackOutcome, AttackReport, ScenarioRunner};
pub use security_model::{car_policy, car_security_model, car_use_case};
pub use threats::{table1_threats, Table1Row, TABLE1};
pub use v2x::{run_v2x, V2xConfig, V2xDefenses, V2xReport};
