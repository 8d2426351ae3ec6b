//! Property-based tests for the CAN substrate.

use polsec::can::bits::{destuff, stuff};
use polsec::can::crc::crc15;
use polsec::can::node::{InterposeVerdict, Interposer};
use polsec::can::{codec, AcceptanceFilter, CanBus, CanFrame, CanId, CanNode, ErrorModel};
use polsec::sim::SimTime;
use proptest::prelude::*;

fn arb_standard_id() -> impl Strategy<Value = CanId> {
    (0u32..=0x7FF).prop_map(|v| CanId::standard(v).expect("in range"))
}

fn arb_extended_id() -> impl Strategy<Value = CanId> {
    (0u32..=0x1FFF_FFFF).prop_map(|v| CanId::extended(v).expect("in range"))
}

fn arb_id() -> impl Strategy<Value = CanId> {
    prop_oneof![arb_standard_id(), arb_extended_id()]
}

fn arb_frame() -> impl Strategy<Value = CanFrame> {
    (arb_id(), prop::collection::vec(any::<u8>(), 0..=8), any::<bool>(), 0u8..=8).prop_map(
        |(id, payload, remote, dlc)| {
            if remote {
                CanFrame::remote(id, dlc).expect("dlc in range")
            } else {
                CanFrame::data(id, &payload).expect("payload in range")
            }
        },
    )
}

/// Random buses draw their ids from 0x100..0x110: few enough that
/// interposer blocks, acceptance filters and error targets overlap.
const POOL: u32 = 16;

fn pool_id(i: u32) -> CanId {
    CanId::standard(0x100 + i).expect("in range")
}

/// Whether `id` is one of the pool ids whose bit is set in `mask`.
fn in_mask(mask: u16, id: CanId) -> bool {
    let i = id.raw().wrapping_sub(0x100);
    i < POOL && mask & (1 << i) != 0
}

/// An interposer blocking a fixed set of pool ids in each direction.
struct MaskGate {
    ingress: u16,
    egress: u16,
}

fn gate(mask: u16, frame: &CanFrame) -> InterposeVerdict {
    if in_mask(mask, frame.id()) {
        InterposeVerdict::Block
    } else {
        InterposeVerdict::Grant
    }
}

impl Interposer for MaskGate {
    fn on_ingress(&mut self, _now: SimTime, frame: &CanFrame) -> InterposeVerdict {
        gate(self.ingress, frame)
    }
    fn on_egress(&mut self, _now: SimTime, frame: &CanFrame) -> InterposeVerdict {
        gate(self.egress, frame)
    }
}

/// A node: (interposed, ingress block mask, egress block mask, the pool ids
/// its acceptance filters admit — none means accept-all).
type NodeSpec = (bool, u16, u16, Vec<u32>);

fn arb_node() -> impl Strategy<Value = NodeSpec> {
    (
        any::<bool>(),
        any::<u16>(),
        any::<u16>(),
        prop::collection::vec(0..POOL, 0..=2),
    )
}

/// Traffic: (sender, pool id, payload byte, run the bus after queueing).
type Offer = (usize, u32, u8, bool);

fn arb_traffic() -> impl Strategy<Value = Vec<Offer>> {
    prop::collection::vec((0usize..8, 0..POOL, any::<u8>(), any::<bool>()), 0..300)
}

/// The bus's accounting identities: its block counts equal the nodes' own,
/// and every carried frame reaches each other node exactly one way.
fn check_accounting(bus: &CanBus) -> Result<(), String> {
    let s = bus.stats();
    let egress: u64 = bus.nodes().map(|(_, n)| n.egress_blocked()).sum();
    let ingress: u64 = bus.nodes().map(|(_, n)| n.ingress_blocked()).sum();
    prop_assert_eq!(s.frames_blocked_egress, egress);
    prop_assert_eq!(s.frames_blocked_ingress, ingress);
    let receivers = bus.node_count() as u64 - 1;
    prop_assert_eq!(
        s.frames_delivered + s.frames_rejected + s.frames_blocked_ingress,
        s.frames_transmitted * receivers
    );
    Ok(())
}

/// Builds a bus from `nodes`, sends `traffic` and checks the identities
/// after every `run_until_idle`.
fn run_random_bus(
    nodes: &[NodeSpec],
    traffic: &[Offer],
    errors: Option<ErrorModel>,
    seed: u64,
) -> Result<(), String> {
    let mut bus = CanBus::new(500_000);
    for (i, (interposed, ingress, egress, admits)) in nodes.iter().enumerate() {
        let mut node = CanNode::new(format!("n{i}"));
        if *interposed {
            node.install_interposer(Box::new(MaskGate {
                ingress: *ingress,
                egress: *egress,
            }));
        }
        for &id in admits {
            node.controller_mut()
                .filters_mut()
                .add(AcceptanceFilter::exact(pool_id(id)));
        }
        bus.attach(node);
    }
    bus.set_error_model(errors, seed);
    let handles: Vec<_> = bus.nodes().map(|(h, _)| h).collect();
    for &(from, id, byte, run) in traffic {
        let frame = CanFrame::data(pool_id(id), &[byte]).expect("one-byte payload");
        bus.send_from(handles[from % handles.len()], frame)
            .expect("handle from this bus");
        if run {
            bus.run_until_idle();
            check_accounting(&bus)?;
        }
    }
    bus.run_until_idle();
    check_accounting(&bus)
}

proptest! {
    #[test]
    fn bus_accounting_identities_hold(
        nodes in prop::collection::vec(arb_node(), 2..=8),
        traffic in arb_traffic(),
    ) {
        run_random_bus(&nodes, &traffic, None, 0)?;
    }

    #[test]
    fn bus_accounting_identities_hold_under_targeted_errors(
        nodes in prop::collection::vec(arb_node(), 2..=8),
        traffic in arb_traffic(),
        targets in any::<u16>(),
        percent in 1u32..=100,
        seed in any::<u64>(),
    ) {
        let model = ErrorModel {
            probability: f64::from(percent) / 100.0,
            target_ids: Some((0..POOL).filter(|&i| targets & (1 << i) != 0).map(pool_id).collect()),
        };
        run_random_bus(&nodes, &traffic, Some(model), seed)?;
    }

    #[test]
    fn codec_round_trips_every_frame(frame in arb_frame()) {
        let encoded = codec::encode(&frame, true);
        let decoded = codec::decode(encoded.bits()).expect("own encoding decodes");
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn encoded_length_equals_nominal_plus_stuffing(frame in arb_frame()) {
        let encoded = codec::encode(&frame, true);
        // nominal_bits includes the 3-bit interframe space the codec omits
        let nominal_wire = frame.nominal_bits() as usize - 3;
        prop_assert_eq!(encoded.len(), nominal_wire + encoded.stuff_bits());
    }

    #[test]
    fn stuffing_is_reversible(bits in prop::collection::vec(any::<bool>(), 0..256)) {
        let stuffed = stuff(&bits);
        let back = destuff(&stuffed).expect("stuffed stream destuffs");
        prop_assert_eq!(back, bits);
    }

    #[test]
    fn stuffed_streams_never_have_six_equal_bits(bits in prop::collection::vec(any::<bool>(), 0..256)) {
        let stuffed = stuff(&bits);
        let mut run = 0u32;
        let mut last = None;
        for &b in &stuffed {
            if Some(b) == last { run += 1; } else { run = 1; last = Some(b); }
            prop_assert!(run <= 5, "six equal consecutive bits after stuffing");
        }
    }

    #[test]
    fn crc_detects_single_bit_flips(bits in prop::collection::vec(any::<bool>(), 1..128), idx in any::<prop::sample::Index>()) {
        let i = idx.index(bits.len());
        let mut flipped = bits.clone();
        flipped[i] = !flipped[i];
        prop_assert_ne!(crc15(&bits), crc15(&flipped));
    }

    #[test]
    fn corrupting_any_wire_bit_is_detected(frame in arb_frame(), idx in any::<prop::sample::Index>()) {
        let encoded = codec::encode(&frame, true);
        let mut bits = encoded.bits().to_vec();
        let i = idx.index(bits.len());
        // The ACK slot (9th bit from the end) is legal at either level and
        // carries no frame content — flipping it changes nothing observable.
        prop_assume!(i != bits.len() - 9);
        bits[i] = !bits[i];
        // either the decode fails (stuff/crc/form) or — never — yields the
        // same frame presented as intact
        match codec::decode(&bits) {
            Err(_) => {}
            Ok(decoded) => prop_assert_ne!(decoded, frame, "undetected corruption at bit {}", i),
        }
    }

    #[test]
    fn arbitration_order_matches_numeric_order_for_standard_ids(a in 0u32..=0x7FF, b in 0u32..=0x7FF) {
        let ia = CanId::standard(a).expect("in range");
        let ib = CanId::standard(b).expect("in range");
        prop_assert_eq!(ia.cmp(&ib), a.cmp(&b));
    }
}
