//! Integration: the deterministic V2X message plane end to end.
//!
//! Exercises the epoch-barriered cross-shard runner (`polsec-sim`'s
//! `plane`), the platooning + OTA-rollout scenarios (`polsec-car`'s `v2x`)
//! and the determinism contract they extend across vehicle boundaries:
//! merged metrics **and every vehicle's inbox** must be byte-identical at
//! any thread count.

use polsec::car::fleet::{run_fleet, FleetConfig, FleetEnforcement};
use polsec::car::v2x::{run_v2x, V2xConfig, V2xDefenses};
use polsec::sim::plane::{run_epochs, Address, Envelope, MessagePlane};
use proptest::prelude::*;
use std::sync::Mutex;

fn small(vehicles: usize) -> V2xConfig {
    let mut cfg = V2xConfig::new(vehicles, 8, 150);
    cfg.fleet.threads = 4;
    cfg
}

#[test]
fn platooning_and_ota_replay_byte_identically_at_1_4_and_8_threads() {
    let cfg = small(8);
    let reference = {
        let mut serial = cfg.clone();
        serial.fleet.threads = 1;
        run_v2x(&serial).metrics.to_json()
    };
    for threads in [4, 8] {
        let mut variant = cfg.clone();
        variant.fleet.threads = threads;
        let report = run_v2x(&variant);
        assert_eq!(
            report.metrics.to_json(),
            reference,
            "{threads} threads changed the merged metrics or an inbox digest"
        );
    }
    // and a plain same-config replay
    let again = run_v2x(&cfg);
    assert_eq!(again.metrics.to_json(), reference);
}

#[test]
fn tampered_bundle_rejection_is_observed_on_every_vehicle() {
    let cfg = small(8);
    let report = run_v2x(&cfg);
    let m = &report.metrics;
    let vehicles = cfg.fleet.vehicles as u64;
    // the attacker replayed the tampered and the stale copy to the whole
    // fleet (itself included); every store rejected both
    assert_eq!(m.counter("ota.attack.tampered"), vehicles);
    assert_eq!(m.counter("ota.rejected_signature"), vehicles);
    assert_eq!(m.counter("ota.attack.stale"), vehicles);
    assert_eq!(m.counter("ota.rejected_stale"), vehicles);
    // while the legitimate rollout completed exactly once per vehicle
    assert_eq!(m.counter("ota.applied"), vehicles);
    assert_eq!(m.counter("ota.version_sum"), vehicles, "every store is at v1");
    // and none of the platoon attack variants got through
    assert_eq!(report.v2x_leaked(), 0);
    assert!(m.counter("v2x.attack.spoof") > 0);
    assert!(m.counter("v2x.attack.replay") > 0);
    assert!(m.counter("v2x.attack.tamper") > 0);
}

#[test]
fn v2x_defence_ladder_mirrors_the_fleet_ladder() {
    // no defences → attacker platoon messages are accepted and reach ECUs
    let mut open = small(6);
    open.defenses = V2xDefenses::none();
    let open_report = run_v2x(&open);
    assert!(open_report.v2x_leaked() > 0);
    // replay window alone stops replays but not forged-tag spoofs
    let mut window_only = small(6);
    window_only.defenses = V2xDefenses {
        replay_window: true,
        ..V2xDefenses::none()
    };
    let window_report = run_v2x(&window_only);
    assert!(window_report.metrics.counter("v2x.rejected_replay") > 0);
    assert!(window_report.v2x_leaked() > 0, "spoofed leads still pass");
    assert!(
        window_report.v2x_leaked() < open_report.v2x_leaked(),
        "each rung must cut leaks"
    );
    // the full ladder blocks everything
    let full = run_v2x(&small(6));
    assert_eq!(full.v2x_leaked(), 0);
}

#[test]
fn fleet_ladder_with_app_policy_rung_stays_deterministic() {
    // the per-vehicle rate scopes let the software layer join the fleet
    // ladder without coupling vehicles through the shared engine
    let mut cfg = FleetConfig::new(5, 500);
    cfg.enforcement = FleetEnforcement::full_with_app();
    cfg.threads = 3;
    let a = run_fleet(&cfg);
    let b = run_fleet(&cfg);
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    let mut serial = cfg.clone();
    serial.threads = 1;
    let c = run_fleet(&serial);
    assert_eq!(a.metrics.to_json(), c.metrics.to_json());
    assert_eq!(a.leaked(), 0);
}

/// Serial reference model of the epoch barrier: routes the same message
/// pattern by hand and predicts every shard's inbox for every epoch.
fn predicted_inboxes(
    shards: usize,
    epochs: u64,
    pattern: &[(usize, Address)],
) -> Vec<Vec<(usize, u32)>> {
    let mut inbox: Vec<Vec<(usize, u32)>> = vec![Vec::new(); shards];
    let mut seen: Vec<Vec<(usize, u32)>> = vec![Vec::new(); shards];
    let mut next_seq = vec![0u32; shards];
    for _epoch in 0..epochs {
        for shard in 0..shards {
            seen[shard].extend(inbox[shard].iter().copied());
        }
        let mut staged: Vec<Vec<(usize, u32)>> = vec![Vec::new(); shards];
        for sender in 0..shards {
            for &(from, to) in pattern.iter().filter(|(from, _)| *from == sender) {
                let seq = next_seq[from];
                next_seq[from] += 1;
                match to {
                    Address::Unicast(dst) if dst < shards => staged[dst].push((from, seq)),
                    Address::Unicast(_) => {}
                    Address::Broadcast(_) => {
                        for dst in (0..shards).filter(|&d| d != from) {
                            staged[dst].push((from, seq));
                        }
                    }
                }
            }
        }
        inbox = staged;
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Epoch-barrier delivery order: whatever the shard count, thread
    /// count and message pattern, every shard observes exactly the mail
    /// the serial reference model predicts, in `(sender, seq)` order.
    #[test]
    fn epoch_barrier_delivery_order_matches_the_serial_model(
        shards in 1usize..7,
        threads in 1usize..5,
        epochs in 1u64..5,
        raw_pattern in prop::collection::vec((0usize..7, 0usize..8), 0..12),
    ) {
        // map the raw pairs onto senders/addresses valid for `shards`;
        // destination 7 means "broadcast to the all-shards group"
        let pattern: Vec<(usize, Address)> = raw_pattern
            .iter()
            .map(|&(from, to)| {
                let from = from % shards;
                let addr = if to >= 7 {
                    Address::Broadcast(1)
                } else {
                    Address::Unicast(to % shards.max(1))
                };
                (from, addr)
            })
            .collect();

        let mut plane = MessagePlane::new();
        plane.group(1, 0..shards);
        let observed: Vec<Mutex<Vec<(usize, u32)>>> =
            (0..shards).map(|_| Mutex::new(Vec::new())).collect();
        let pattern_ref = &pattern;
        let observed_ref = &observed;
        run_epochs(
            shards,
            threads,
            epochs,
            &plane,
            |shard| shard,
            |shard, ctx| {
                let keys: Vec<(usize, u32)> = ctx
                    .inbox
                    .iter()
                    .map(|e: &Envelope<u8>| (e.from, e.seq))
                    .collect();
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                assert_eq!(keys, sorted, "inbox must be (sender, seq)-sorted");
                observed_ref[*shard]
                    .lock()
                    .unwrap()
                    .extend(keys.iter().copied());
                for &(from, to) in pattern_ref.iter().filter(|(from, _)| *from == *shard) {
                    let _ = from;
                    ctx.outbox.send(to, 0u8);
                }
            },
            |_, _| {},
        );
        let predicted = predicted_inboxes(shards, epochs, &pattern);
        for shard in 0..shards {
            let got = observed[shard].lock().unwrap().clone();
            prop_assert_eq!(
                &got,
                &predicted[shard],
                "shard {} inbox diverged from the serial model",
                shard
            );
        }
    }
}
