//! Layer 2: cross-layer coverage analysis of the fleet enforcement ladder.
//!
//! The fleet simulation (DESIGN.md §7) layers five *enforcing* rungs —
//! gateway whitelist, segment HPEs, per-node HPEs, per-component
//! application policy, and the behavioural anomaly monitor (DESIGN.md
//! §13) — plus one *observational* rung, the shared engine auditing
//! gateway crossings. This module recomputes, statically and
//! without running a single frame, what each rung would do to every
//! interesting frame class: each CAN identifier × traversal direction ×
//! origin class. A class that no enforcing rung blocks or conditions is a
//! **coverage hole** — the Table I row-2 shape, where identifier-based
//! filtering waves through traffic that only content inspection could
//! catch.
//!
//! The analysis works over [`LadderDescription`] — pure data extracted from
//! the same constants and communication matrix the simulator programs into
//! hardware — so a hole found here is a property of the *configuration*,
//! reproducible by any run, not an artefact of one seed.

use crate::finding::{Finding, FindingKind, Report, Severity};
use crate::modes::ModeGraph;
use polsec_car::fleet::ladder_description;
use polsec_car::messages::{
    self, crossing_entry, is_command_id, Asset, Origin, IMPLANT_NODE, INSIDE_IMPLANT,
    OUTSIDE_ATTACKS,
};
use polsec_car::v2x::v2x_shared_policy_set;
use polsec_car::{FleetConfig, FleetEnforcement, LadderDescription};
use polsec_can::CanId;
use polsec_core::{
    Action, CombiningStrategy, Condition, Effect, EntityId, PolicySet, Rule,
};
use std::collections::BTreeSet;
use std::fmt;

/// Which way a frame class traverses the vehicle network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Direction {
    /// Powertrain segment → comfort segment, through the gateway.
    AtoB,
    /// Comfort segment → powertrain segment, through the gateway.
    BtoA,
    /// Stays on the powertrain segment (never reaches the gateway).
    LocalA,
    /// Stays on the comfort segment.
    LocalB,
}

impl Direction {
    fn crosses(self) -> bool {
        matches!(self, Direction::AtoB | Direction::BtoA)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::AtoB => "A->B",
            Direction::BtoA => "B->A",
            Direction::LocalA => "local-A",
            Direction::LocalB => "local-B",
        })
    }
}

/// Who transmits the frame class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OriginClass {
    /// The legitimate sender from the communication matrix.
    Legit,
    /// The external attacker's OBD dongle on the comfort segment — no HPE
    /// interposed on its controller.
    ExternalObd,
    /// A compromised in-vehicle node (the door-lock implant of the fleet
    /// scenario) spoofing an identifier it does not own.
    InsideImplant,
    /// The compromised *legitimate* sender (the sensor node of Table I
    /// row 2): every identifier filter passes its frames by construction —
    /// only payload inspection can constrain this class.
    InsideSensor,
}

impl fmt::Display for OriginClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OriginClass::Legit => "legit",
            OriginClass::ExternalObd => "external-obd",
            OriginClass::InsideImplant => "inside-implant",
            OriginClass::InsideSensor => "inside-sensor",
        })
    }
}

/// What one ladder rung does to a frame class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RungOutcome {
    /// The rung stops the class in every context.
    Blocks,
    /// The rung's verdict depends on runtime context (mode, vehicle state,
    /// rate) — the class is constrained, though not unconditionally dead.
    Conditions,
    /// The rung waves the class through in every context.
    Passes,
    /// The rung is disabled, or the class never reaches it.
    NotApplicable,
}

impl fmt::Display for RungOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RungOutcome::Blocks => "block",
            RungOutcome::Conditions => "cond",
            RungOutcome::Passes => "pass",
            RungOutcome::NotApplicable => "-",
        })
    }
}

impl RungOutcome {
    fn constrains(self) -> bool {
        matches!(self, RungOutcome::Blocks | RungOutcome::Conditions)
    }
}

/// Per-rung outcomes for one frame class, ladder order. `engine_audit` is
/// observational — [`polsec_car::Vehicle`]'s crossing check counts denials
/// but drops nothing — so it never makes a class *covered*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RungOutcomes {
    /// Gateway whitelist (crossing classes only).
    pub gateway: RungOutcome,
    /// Segment HPEs on the gateway endpoints (crossing classes only).
    pub segment: RungOutcome,
    /// Per-node HPEs: transmitter egress list and receiver ingress lists.
    pub node: RungOutcome,
    /// Per-component application policy against the shared engine.
    pub app: RungOutcome,
    /// The behavioural anomaly monitor: payload plausibility models on the
    /// consuming node (content-conditioned, so at most `cond`).
    pub anomaly: RungOutcome,
    /// The shared engine's crossing audit (observational).
    pub engine_audit: RungOutcome,
}

/// One row of the coverage matrix: a frame class and what every rung does
/// to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageRow {
    /// The CAN identifier.
    pub id: u16,
    /// Traversal direction.
    pub direction: Direction,
    /// Who transmits it.
    pub origin: OriginClass,
    /// The entry point the policy layer judges the class as (a command's
    /// claimed origin, or the consuming segment boundary for a status).
    pub claimed_entry: &'static str,
    /// What each rung does.
    pub outcomes: RungOutcomes,
    /// Whether some *enforcing* rung blocks or conditions the class.
    pub covered: bool,
}

impl CoverageRow {
    /// The row's finding-witness form: `0x050 B->A external-obd claims
    /// entry:telematics`.
    pub fn witness(&self) -> String {
        format!(
            "0x{:03X} {} {} claims entry:{}",
            self.id, self.direction, self.origin, self.claimed_entry
        )
    }
}

/// Everything Layer 2 analyzes: the ladder artifacts plus the policy model
/// the software rungs judge against.
#[derive(Debug, Clone)]
pub struct LadderSpec {
    /// The per-layer enforcement artifacts.
    pub ladder: LadderDescription,
    /// The policy set the shared engine (and app-policy rung) evaluates.
    pub policy_set: PolicySet,
    /// The engine's combining strategy.
    pub strategy: CombiningStrategy,
    /// The mode machine whose reachable modes the static evaluation
    /// aggregates over.
    pub mode_graph: ModeGraph,
}

impl LadderSpec {
    /// The configuration the fleet actually ships: baseline enforcement
    /// plus the behavioural anomaly rung, the V2X-extended shared policy
    /// set, deny-overrides, the car's mode machine.
    pub fn shipped() -> Self {
        LadderSpec::with_enforcement(FleetEnforcement::shipped())
    }

    /// Shipped artifacts under a different set of enforcement flags — the
    /// knob the rung-removal experiments turn.
    pub fn with_enforcement(enforcement: FleetEnforcement) -> Self {
        let mut cfg = FleetConfig::new(1, 1);
        cfg.enforcement = enforcement;
        LadderSpec {
            ladder: ladder_description(&cfg),
            policy_set: v2x_shared_policy_set(),
            strategy: CombiningStrategy::DenyOverrides,
            mode_graph: ModeGraph::car(),
        }
    }

    /// Replaces the policy set (e.g. to lint a candidate OTA rollout
    /// against the shipped hardware configuration).
    pub fn with_policy_set(mut self, set: PolicySet) -> Self {
        self.policy_set = set;
        self
    }
}

/// The Layer-2 result: findings plus the full coverage matrix.
#[derive(Debug, Clone)]
pub struct LadderReport {
    /// Coverage holes, dead whitelist entries, redundancy notes.
    pub report: Report,
    /// Every analyzed frame class, in enumeration order.
    pub matrix: Vec<CoverageRow>,
}

impl LadderReport {
    /// Renders the coverage matrix as a fixed-width text table.
    pub fn matrix_text(&self) -> String {
        let mut out = String::from(
            "id     direction origin          entry           gw    seg   node  app   anom  audit cov\n",
        );
        for row in &self.matrix {
            out.push_str(&format!(
                "0x{:03X}  {:<9} {:<15} {:<15} {:<5} {:<5} {:<5} {:<5} {:<5} {:<5} {}\n",
                row.id,
                row.direction.to_string(),
                row.origin.to_string(),
                row.claimed_entry,
                row.outcomes.gateway.to_string(),
                row.outcomes.segment.to_string(),
                row.outcomes.node.to_string(),
                row.outcomes.app.to_string(),
                row.outcomes.anomaly.to_string(),
                row.outcomes.engine_audit.to_string(),
                if row.covered { "yes" } else { "NO" },
            ));
        }
        out
    }
}

/// Three-valued truth for static condition evaluation: mode atoms are
/// decidable per hypothetical mode, state and rate atoms are [`Tri::U`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tri {
    F,
    U,
    T,
}

fn tri_not(t: Tri) -> Tri {
    match t {
        Tri::T => Tri::F,
        Tri::F => Tri::T,
        Tri::U => Tri::U,
    }
}

fn cond_tri(c: &Condition, mode: &str) -> Tri {
    match c {
        Condition::Always => Tri::T,
        Condition::InMode(m) => {
            if m == mode {
                Tri::T
            } else {
                Tri::F
            }
        }
        Condition::StateEquals { .. } | Condition::RateAtMost { .. } => Tri::U,
        Condition::All(cs) => cs.iter().map(|x| cond_tri(x, mode)).min().unwrap_or(Tri::T),
        Condition::AnyOf(cs) => cs.iter().map(|x| cond_tri(x, mode)).max().unwrap_or(Tri::F),
        Condition::Not(inner) => tri_not(cond_tri(inner, mode)),
    }
}

/// What the engine would statically decide for a request in one mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StaticDecision {
    Allow,
    Deny,
    Unknown,
}

fn applicable<'a>(
    set: &'a PolicySet,
    entry: &EntityId,
    asset: &EntityId,
    action: Action,
) -> impl Iterator<Item = &'a Rule> {
    let (entry, asset) = (*entry, *asset);
    set.rules().map(|(_, r)| r).filter(move |r| {
        r.subject().matches(&entry) && r.object().matches(&asset) && r.covers_action(action)
    })
}

/// Kleene evaluation of a deny-overrides pool: `deny`/`allow` are the max
/// truth over the respective rule conditions, `default` breaks the
/// nothing-fires case.
fn combine_deny_overrides(deny: Tri, allow: Tri, default: Effect) -> Option<StaticDecision> {
    match (deny, allow) {
        (Tri::T, _) => Some(StaticDecision::Deny),
        (Tri::F, Tri::T) => Some(StaticDecision::Allow),
        (Tri::F, Tri::F) => None,
        (Tri::F, Tri::U) => match default {
            // allow either fires (Allow) or falls to the default
            Effect::Allow => Some(StaticDecision::Allow),
            Effect::Deny => Some(StaticDecision::Unknown),
        },
        (Tri::U, Tri::F) => match default {
            Effect::Deny => Some(StaticDecision::Deny),
            Effect::Allow => Some(StaticDecision::Unknown),
        },
        (Tri::U, _) => Some(StaticDecision::Unknown),
    }
}

fn static_decide_mode(
    set: &PolicySet,
    strategy: CombiningStrategy,
    entry: &EntityId,
    asset: &EntityId,
    action: Action,
    mode: &str,
) -> StaticDecision {
    let default = set.default_effect();
    let fallback = match default {
        Effect::Allow => StaticDecision::Allow,
        Effect::Deny => StaticDecision::Deny,
    };
    let rules: Vec<&Rule> = applicable(set, entry, asset, action).collect();
    match strategy {
        CombiningStrategy::DenyOverrides => {
            let mut deny = Tri::F;
            let mut allow = Tri::F;
            for r in &rules {
                let t = cond_tri(r.condition(), mode);
                match r.effect() {
                    Effect::Deny => deny = deny.max(t),
                    Effect::Allow => allow = allow.max(t),
                }
            }
            combine_deny_overrides(deny, allow, default).unwrap_or(fallback)
        }
        CombiningStrategy::FirstMatch => {
            for r in &rules {
                match cond_tri(r.condition(), mode) {
                    Tri::T => {
                        return match r.effect() {
                            Effect::Allow => StaticDecision::Allow,
                            Effect::Deny => StaticDecision::Deny,
                        }
                    }
                    Tri::U => return StaticDecision::Unknown,
                    Tri::F => {}
                }
            }
            fallback
        }
        CombiningStrategy::PriorityOrder => {
            let mut priorities: Vec<i32> = rules.iter().map(|r| r.priority()).collect();
            priorities.sort_unstable_by(|a, b| b.cmp(a));
            priorities.dedup();
            for p in priorities {
                let mut deny = Tri::F;
                let mut allow = Tri::F;
                for r in rules.iter().filter(|r| r.priority() == p) {
                    let t = cond_tri(r.condition(), mode);
                    match r.effect() {
                        Effect::Deny => deny = deny.max(t),
                        Effect::Allow => allow = allow.max(t),
                    }
                }
                match (deny, allow) {
                    (Tri::T, _) => return StaticDecision::Deny,
                    (Tri::F, Tri::T) => return StaticDecision::Allow,
                    (Tri::F, Tri::F) => {} // tier silent; fall through
                    _ => return StaticDecision::Unknown,
                }
            }
            fallback
        }
    }
}

/// Aggregates the per-mode static decisions over the reachable modes into
/// a rung outcome.
fn policy_outcome(spec: &LadderSpec, entry: EntityId, asset: Asset, action: Action) -> RungOutcome {
    let asset = asset.entity();
    let mut any_allow = false;
    let mut any_deny = false;
    let mut any_unknown = false;
    for mode in spec.mode_graph.reachable() {
        match static_decide_mode(&spec.policy_set, spec.strategy, &entry, &asset, action, &mode) {
            StaticDecision::Allow => any_allow = true,
            StaticDecision::Deny => any_deny = true,
            StaticDecision::Unknown => any_unknown = true,
        }
    }
    if any_unknown || (any_allow && any_deny) {
        RungOutcome::Conditions
    } else if any_deny {
        RungOutcome::Blocks
    } else {
        RungOutcome::Passes
    }
}

struct RowInput {
    id: u16,
    direction: Direction,
    origin: OriginClass,
    /// The origin the class's frames claim (`None` for legitimate
    /// crossings, which are statuses judged as boundary reads).
    claimed: Option<Origin>,
    /// The transmitting node, if it carries a node HPE (`None` = the
    /// attacker's dongle, which has no interposer).
    transmitter: Option<&'static str>,
}

fn in_list(list: &[u16], id: u16) -> bool {
    list.contains(&id)
}

fn evaluate_row(spec: &LadderSpec, input: &RowInput) -> CoverageRow {
    let ladder = &spec.ladder;
    let enf = ladder.enforcement;
    let crosses = input.direction.crosses();

    let gateway = if !crosses || !enf.gateway_whitelist {
        RungOutcome::NotApplicable
    } else {
        let list = match input.direction {
            Direction::AtoB => &ladder.cross_a_to_b,
            _ => &ladder.cross_b_to_a,
        };
        if in_list(list, input.id) {
            RungOutcome::Passes
        } else {
            RungOutcome::Blocks
        }
    };

    let segment = if !crosses || !enf.segment_hpe {
        RungOutcome::NotApplicable
    } else {
        let can_id = CanId::Standard(input.id);
        // Crossing A→B leaves through endpoint A's read gate and enters
        // through endpoint B's write gate; B→A is the mirror image.
        let through = match input.direction {
            Direction::AtoB => {
                ladder.segment_lists_a.read().approves(can_id)
                    && ladder.segment_lists_b.write().approves(can_id)
            }
            _ => {
                ladder.segment_lists_b.read().approves(can_id)
                    && ladder.segment_lists_a.write().approves(can_id)
            }
        };
        if through {
            RungOutcome::Passes
        } else {
            RungOutcome::Blocks
        }
    };

    let node = if !enf.node_hpe {
        RungOutcome::NotApplicable
    } else {
        let can_id = CanId::Standard(input.id);
        let lists_of = |name: &str| {
            ladder
                .node_lists
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, l)| l)
        };
        // Egress: the transmitter's own write gate (the dongle has none).
        let egress_ok = match input.transmitter {
            Some(name) => lists_of(name).is_some_and(|l| l.write().approves(can_id)),
            None => true,
        };
        // Ingress: the frame reaches an application only if some node in
        // the destination segment read-approves the identifier.
        let dest_nodes: &[&'static str] = match input.direction {
            Direction::BtoA | Direction::LocalA => &ladder.powertrain_nodes,
            Direction::AtoB | Direction::LocalB => &ladder.comfort_nodes,
        };
        let ingress_ok = dest_nodes
            .iter()
            .any(|&n| lists_of(n).is_some_and(|l| l.read().approves(can_id)));
        if egress_ok && ingress_ok {
            RungOutcome::Passes
        } else {
            RungOutcome::Blocks
        }
    };

    // The simulator's crossing request, with the segment the class enters.
    let into_powertrain = matches!(input.direction, Direction::BtoA | Direction::LocalA);
    let (entry, action) = crossing_entry(input.id, input.claimed, into_powertrain);
    let policy = Asset::for_id(input.id).map(|asset| policy_outcome(spec, entry, asset, action));
    let app = match policy {
        Some(outcome) if enf.app_policy => outcome,
        _ => RungOutcome::NotApplicable,
    };
    // The behavioural monitor corroborates crash payloads on the consuming
    // EV-ECU against wheel-speed/proximity evidence. It judges content, so
    // it conditions the class rather than blocking it outright — and it is
    // the only rung that can constrain the compromised-legitimate-sender
    // class at all.
    let anomaly = if enf.anomaly
        && input.id == messages::SENSOR_CRASH
        && matches!(input.direction, Direction::LocalA | Direction::BtoA)
    {
        RungOutcome::Conditions
    } else {
        RungOutcome::NotApplicable
    };
    // The shared engine only ever sees gateway crossings, and its check is
    // observational: `check_crossing` counts `policy.denied` but drops
    // nothing, so the rung never contributes to coverage.
    let engine_audit = match policy {
        Some(outcome) if crosses => outcome,
        _ => RungOutcome::NotApplicable,
    };

    let covered = [gateway, segment, node, app, anomaly]
        .iter()
        .any(|o| o.constrains());

    CoverageRow {
        id: input.id,
        direction: input.direction,
        origin: input.origin,
        claimed_entry: entry.name(),
        outcomes: RungOutcomes {
            gateway,
            segment,
            node,
            app,
            anomaly,
            engine_audit,
        },
        covered,
    }
}

fn enumerate_classes(ladder: &LadderDescription) -> Vec<RowInput> {
    let mut rows = Vec::new();
    // Legitimate crossings, with their matrix transmitter.
    let transmitter_of = |id: u16, nodes: &[&'static str]| {
        nodes
            .iter()
            .copied()
            .find(|n| messages::legitimate_writes(n).contains(&id))
    };
    for (direction, ids, senders) in [
        (Direction::AtoB, &ladder.cross_a_to_b, &ladder.powertrain_nodes),
        (Direction::BtoA, &ladder.cross_b_to_a, &ladder.comfort_nodes),
    ] {
        for &id in ids {
            rows.push(RowInput {
                id,
                direction,
                origin: OriginClass::Legit,
                claimed: None,
                transmitter: transmitter_of(id, senders),
            });
        }
    }
    // Outside attacks: the OBD dongle sits on the comfort segment, so the
    // class crosses only if its victim is a powertrain node.
    for &id in &ladder.attack_ids {
        let Some(attack) = OUTSIDE_ATTACKS.iter().find(|a| a.id == id) else {
            continue;
        };
        let direction = if ladder.powertrain_nodes.contains(&attack.victim) {
            Direction::BtoA
        } else {
            Direction::LocalB
        };
        rows.push(RowInput {
            id,
            direction,
            origin: OriginClass::ExternalObd,
            claimed: Some(attack.claimed),
            transmitter: None,
        });
    }
    // The inside implant, on its own (powertrain) segment.
    if ladder.attack_ids.contains(&INSIDE_IMPLANT.id) {
        rows.push(RowInput {
            id: INSIDE_IMPLANT.id,
            direction: Direction::LocalA,
            origin: OriginClass::InsideImplant,
            claimed: Some(INSIDE_IMPLANT.claimed),
            transmitter: Some(IMPLANT_NODE),
        });
    }
    // The compromised legitimate sender (Table I row 2): the sensor node
    // broadcasting a forged crash payload under its own identifier. Every
    // identifier-based rung passes this class by construction — it exists
    // in the matrix regardless of the attack roster, because it is a
    // property of identifier filtering itself.
    rows.push(RowInput {
        id: messages::SENSOR_CRASH,
        direction: Direction::LocalA,
        origin: OriginClass::InsideSensor,
        claimed: Some(Origin::Sensors),
        transmitter: Some("sensors"),
    });
    rows
}

/// Checks whether the segment-HPE pair admits exactly the same identifier
/// sets as the gateway whitelist — if so, either rung is individually
/// redundant with the other (removing one provably changes nothing).
fn segment_gateway_redundancy(ladder: &LadderDescription) -> Option<Finding> {
    let enf = ladder.enforcement;
    if !enf.gateway_whitelist || !enf.segment_hpe {
        return None;
    }
    let set = |ids: &[u16]| ids.iter().copied().collect::<BTreeSet<u16>>();
    let intersect = |a: Vec<u16>, b: Vec<u16>| -> BTreeSet<u16> {
        let b: BTreeSet<u16> = b.into_iter().collect();
        a.into_iter().filter(|id| b.contains(id)).collect()
    };
    let seg_ab = intersect(
        ladder.segment_lists_a.read().covered_standard_ids(),
        ladder.segment_lists_b.write().covered_standard_ids(),
    );
    let seg_ba = intersect(
        ladder.segment_lists_b.read().covered_standard_ids(),
        ladder.segment_lists_a.write().covered_standard_ids(),
    );
    if seg_ab == set(&ladder.cross_a_to_b) && seg_ba == set(&ladder.cross_b_to_a) {
        Some(Finding {
            kind: FindingKind::RedundantRule,
            severity: Severity::Info,
            rule_ids: vec!["gateway-whitelist".into(), "segment-hpe".into()],
            witness: format!(
                "both admit exactly {{{}}} A->B and {{{}}} B->A",
                hex_list(&ladder.cross_a_to_b),
                hex_list(&ladder.cross_b_to_a)
            ),
            explanation: "the segment HPE pair admits exactly the identifier sets the \
                          gateway whitelist forwards; at the identifier level either rung \
                          alone provides the same crossing coverage (defence in depth, \
                          not extra coverage)"
                .into(),
        })
    } else {
        None
    }
}

fn hex_list(ids: &[u16]) -> String {
    let parts: Vec<String> = ids.iter().map(|id| format!("0x{id:03X}")).collect();
    parts.join(", ")
}

/// Runs the full Layer-2 analysis over a ladder specification.
pub fn analyze_ladder(spec: &LadderSpec) -> LadderReport {
    let mut report = Report::new();
    let mut matrix = Vec::new();
    let enf = spec.ladder.enforcement;
    let enabled_rungs = || {
        let mut rungs = Vec::new();
        if enf.gateway_whitelist {
            rungs.push("gateway-whitelist".to_string());
        }
        if enf.segment_hpe {
            rungs.push("segment-hpe".to_string());
        }
        if enf.node_hpe {
            rungs.push("node-hpe".to_string());
        }
        if enf.app_policy {
            rungs.push("app-policy".to_string());
        }
        if enf.anomaly {
            rungs.push("anomaly".to_string());
        }
        rungs
    };

    for input in enumerate_classes(&spec.ladder) {
        let row = evaluate_row(spec, &input);

        if !row.covered && row.origin != OriginClass::Legit {
            report.push(Finding {
                kind: FindingKind::CoverageHole,
                severity: Severity::Error,
                rule_ids: enabled_rungs(),
                witness: row.witness(),
                explanation: format!(
                    "attack traffic ({}) is delivered end-to-end: no enforcing ladder \
                     rung blocks or conditions identifier 0x{:03X} on this path",
                    row.origin, row.id
                ),
            });
        }
        if !row.covered && row.origin == OriginClass::Legit && is_command_id(row.id) {
            report.push(Finding {
                kind: FindingKind::CoverageHole,
                severity: Severity::Info,
                rule_ids: enabled_rungs(),
                witness: row.witness(),
                explanation: format!(
                    "command identifier 0x{:03X} crosses unconditioned: a compromised \
                     legitimate sender can spoof its values past every identifier \
                     filter (Table I row-2 limitation — content inspection would be \
                     required)",
                    row.id
                ),
            });
        }

        // Dead whitelist entries: the gateway forwards the identifier, but
        // the policy model statically denies the resulting boundary request
        // in every reachable mode — the entry can only ever feed denials.
        if enf.gateway_whitelist
            && row.origin == OriginClass::Legit
            && !is_command_id(row.id)
            && row.outcomes.engine_audit == RungOutcome::Blocks
        {
            let asset = Asset::for_id(row.id).map_or("?", Asset::name);
            report.push(Finding {
                kind: FindingKind::DeadWhitelist,
                severity: Severity::Warning,
                rule_ids: vec!["gateway-whitelist".into()],
                witness: format!("0x{:03X} {}", row.id, row.direction),
                explanation: format!(
                    "the whitelist forwards 0x{:03X}, but the policy model denies \
                     entry:{} reading asset:{} in every reachable mode — the entry is \
                     dead weight, or the policy is missing a rule",
                    row.id, row.claimed_entry, asset
                ),
            });
        }

        matrix.push(row);
    }

    if let Some(f) = segment_gateway_redundancy(&spec.ladder) {
        report.push(f);
    }
    report.sort();
    LadderReport { report, matrix }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polsec_car::car_policy;

    fn decide(set: &PolicySet, entry: &str, asset: &str, action: Action, mode: &str) -> StaticDecision {
        static_decide_mode(
            set,
            CombiningStrategy::DenyOverrides,
            &EntityId::new("entry", entry),
            &EntityId::new("asset", asset),
            action,
            mode,
        )
    }

    #[test]
    fn static_decisions_match_the_car_policy() {
        let set = PolicySet::from_policy(car_policy());
        // ecu-no-remote: unconditional deny beats nothing
        assert_eq!(
            decide(&set, "telematics", "ev-ecu", Action::Write, "normal"),
            StaticDecision::Deny
        );
        // ecu-read: unconditional allow for anyone
        assert_eq!(
            decide(&set, "obd", "ev-ecu", Action::Read, "normal"),
            StaticDecision::Allow
        );
        // eps-service: mode-gated
        assert_eq!(
            decide(&set, "diagnostics", "eps", Action::Write, "remote diagnostic"),
            StaticDecision::Allow
        );
        assert_eq!(
            decide(&set, "diagnostics", "eps", Action::Write, "normal"),
            StaticDecision::Deny
        );
        // tracking-control: state-gated -> statically unknown
        assert_eq!(
            decide(&set, "telematics", "3g-4g-wifi", Action::Write, "normal"),
            StaticDecision::Unknown
        );
        // nothing matches -> default deny
        assert_eq!(
            decide(&set, "infotainment-ui", "safety-critical", Action::Write, "normal"),
            StaticDecision::Deny
        );
    }

    #[test]
    fn policy_outcomes_aggregate_over_modes() {
        let spec = LadderSpec::shipped();
        // always denied in every mode
        assert_eq!(
            policy_outcome(&spec, messages::unknown_entry(), Asset::EvEcu, Action::Write),
            RungOutcome::Blocks
        );
        // allowed everywhere
        assert_eq!(
            policy_outcome(&spec, Origin::Infotainment.entity(), Asset::EvEcu, Action::Read),
            RungOutcome::Passes
        );
        // allowed only in remote diagnostic mode -> conditions
        assert_eq!(
            policy_outcome(&spec, Origin::Diagnostics.entity(), Asset::Eps, Action::Write),
            RungOutcome::Conditions
        );
        // state-gated -> conditions
        assert_eq!(
            policy_outcome(&spec, Origin::Telematics.entity(), Asset::Modem, Action::Write),
            RungOutcome::Conditions
        );
    }

    #[test]
    fn shipped_ladder_has_no_errors_or_warnings() {
        let result = analyze_ladder(&LadderSpec::shipped());
        assert_eq!(result.report.count(Severity::Error), 0, "{}", result.report.to_text());
        assert_eq!(result.report.count(Severity::Warning), 0, "{}", result.report.to_text());
        // every attack class is covered
        for row in result.matrix.iter().filter(|r| r.origin != OriginClass::Legit) {
            assert!(row.covered, "uncovered: {}", row.witness());
        }
        // and the gateway/segment identifier-level redundancy is noted
        assert_eq!(result.report.of_kind(FindingKind::RedundantRule).len(), 1);
    }

    #[test]
    fn matrix_text_renders_every_row() {
        let result = analyze_ladder(&LadderSpec::shipped());
        let text = result.matrix_text();
        assert_eq!(text.lines().count(), result.matrix.len() + 1);
        assert!(text.contains("inside-implant"));
        assert!(text.contains("inside-sensor"));
        assert!(text.contains("0x050"));
    }

    #[test]
    fn only_the_anomaly_rung_constrains_the_inside_sensor_class() {
        let result = analyze_ladder(&LadderSpec::shipped());
        let row = result
            .matrix
            .iter()
            .find(|r| r.origin == OriginClass::InsideSensor)
            .expect("the Table I row-2 class is always enumerated");
        assert!(row.covered);
        assert_eq!(row.outcomes.anomaly, RungOutcome::Conditions);
        for (rung, outcome) in [
            ("gateway", row.outcomes.gateway),
            ("segment", row.outcomes.segment),
            ("node", row.outcomes.node),
            ("app", row.outcomes.app),
        ] {
            assert!(!outcome.constrains(), "{rung} must not constrain the class");
        }
    }
}
