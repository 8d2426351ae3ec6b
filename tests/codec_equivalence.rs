//! Equivalence proofs for the bus's wire-length fast path (DESIGN.md §8).
//!
//! [`codec::wire_info`] computes a frame's stuffed wire length in one pass
//! over its SOF..CRC region, a byte per step through the CRC-15 table and a
//! stuffing automaton, without materialising a wire bit. It must agree
//! exactly with the `Vec<bool>` codec. Every input goes through one check,
//! [`matches_reference`]:
//!
//! * **Property tests** — random frames, and frames built from long runs of
//!   equal bits.
//! * **A deterministic sweep** — every standard id, data and remote, at
//!   every DLC; stuffing-heavy payloads on every standard id; a seeded
//!   sample of extended ids.
//! * **Known-answer vectors** — wire images captured from
//!   `codec::encode(frame, true)` (hex, MSB-first), locking both the codec and
//!   the fast path against silent drift: if either changes its output, these
//!   fail.

use polsec::can::crc::crc15;
use polsec::can::{codec, CanFrame, CanId};
use proptest::prelude::*;

/// `wire_info` and `wire_len` equal the lengths of `codec::encode`.
fn matches_reference(frame: &CanFrame) -> Result<(), String> {
    let reference = codec::encode(frame, true);
    let info = codec::wire_info(frame);
    if info.wire_bits != reference.len()
        || info.stuff_bits != reference.stuff_bits()
        || codec::wire_len(frame) != reference.len()
    {
        return Err(format!(
            "{frame}: wire_info {info:?}, wire_len {}, reference {} wire bits with {} stuff bits",
            codec::wire_len(frame),
            reference.len(),
            reference.stuff_bits()
        ));
    }
    Ok(())
}

fn arb_standard_id() -> impl Strategy<Value = CanId> {
    (0u32..=0x7FF).prop_map(|v| CanId::standard(v).expect("in range"))
}

fn arb_extended_id() -> impl Strategy<Value = CanId> {
    (0u32..=0x1FFF_FFFF).prop_map(|v| CanId::extended(v).expect("in range"))
}

fn frame_of(id: CanId, payload: Vec<u8>, remote: bool, dlc: u8) -> CanFrame {
    if remote {
        CanFrame::remote(id, dlc).expect("dlc in range")
    } else {
        CanFrame::data(id, &payload).expect("payload in range")
    }
}

fn arb_frame() -> impl Strategy<Value = CanFrame> {
    (
        prop_oneof![arb_standard_id(), arb_extended_id()],
        prop::collection::vec(any::<u8>(), 0..=8),
        any::<bool>(),
        0u8..=8,
    )
        .prop_map(|(id, payload, remote, dlc)| frame_of(id, payload, remote, dlc))
}

/// Bytes that are mostly one long run, or end or begin one.
const RUN_BYTES: [u8; 10] = [0x00, 0xFF, 0x0F, 0xF0, 0x1F, 0xF8, 0x07, 0xE0, 0x83, 0x7C];

/// Frames whose ids and payloads are long runs of equal bits, so runs cross
/// field and byte boundaries at every offset and the automaton stuffs often.
fn arb_run_heavy_frame() -> impl Strategy<Value = CanFrame> {
    let byte = (0..RUN_BYTES.len()).prop_map(|i| RUN_BYTES[i]);
    let standard = (0u32..=11, any::<bool>()).prop_map(|(n, ones)| {
        let run = (1u32 << n) - 1;
        CanId::standard(if ones { run } else { 0x7FF ^ run }).expect("in range")
    });
    let extended = (0u32..=29, any::<bool>()).prop_map(|(n, ones)| {
        let run = (1u32 << n) - 1;
        CanId::extended(if ones { run } else { 0x1FFF_FFFF ^ run }).expect("in range")
    });
    (
        prop_oneof![standard, extended],
        prop::collection::vec(byte, 0..=8),
        any::<bool>(),
        0u8..=8,
    )
        .prop_map(|(id, payload, remote, dlc)| frame_of(id, payload, remote, dlc))
}

proptest! {
    #[test]
    fn wire_info_matches_reference_without_materialising(frame in arb_frame()) {
        matches_reference(&frame)?;
    }

    #[test]
    fn stuffing_heavy_frames_match_reference(frame in arb_run_heavy_frame()) {
        matches_reference(&frame)?;
    }
}

/// Eight payload bytes that alternate runs of five ones and five zeros.
fn five_runs() -> [u8; 8] {
    let mut bytes = [0u8; 8];
    for i in 0..64 {
        if (i / 5) % 2 == 0 {
            bytes[i / 8] |= 1 << (7 - i % 8);
        }
    }
    bytes
}

#[test]
fn sweep_matches_reference() {
    let payloads: [[u8; 8]; 4] = [
        [0x00; 8],
        [0xFF; 8],
        [0x0F, 0xF0, 0x0F, 0xF0, 0x0F, 0xF0, 0x0F, 0xF0],
        five_runs(),
    ];
    let mut checked = 0;
    let mut check = |frame: CanFrame| {
        if let Err(mismatch) = matches_reference(&frame) {
            panic!("{mismatch}");
        }
        checked += 1;
    };
    for raw in 0..=0x7FF {
        let id = CanId::standard(raw).unwrap();
        for dlc in 0..=8u8 {
            check(CanFrame::remote(id, dlc).unwrap());
            let counting: Vec<u8> = (0..dlc)
                .map(|i| (raw as u8).wrapping_add(i.wrapping_mul(0x5D)))
                .collect();
            check(CanFrame::data(id, &counting).unwrap());
            for payload in &payloads {
                check(CanFrame::data(id, &payload[..usize::from(dlc)]).unwrap());
            }
        }
    }
    let mut state: u64 = 0x5EED_0FCA_11D5;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 32
    };
    for _ in 0..4096 {
        let id = CanId::extended(next() as u32 & 0x1FFF_FFFF).unwrap();
        let dlc = (next() % 9) as u8;
        let random: Vec<u8> = (0..dlc).map(|_| next() as u8).collect();
        check(CanFrame::data(id, &random).unwrap());
        check(CanFrame::remote(id, dlc).unwrap());
        let payload = &payloads[next() as usize % payloads.len()];
        check(CanFrame::data(id, &payload[..usize::from(dlc)]).unwrap());
    }
    assert_eq!(checked, 2048 * 9 * 6 + 4096 * 3);
}

/// Wire images captured from the `Vec<bool>` reference implementation
/// (`codec::encode(frame, true)`), hex-packed MSB-first with a zero-padded
/// tail: `(name, wire_len, stuff_bits, wire_hex)`.
const KNOWN_ANSWERS: &[(&str, usize, usize, &str)] = &[
    ("std-empty", 45, 1, "2a5046b617f8"),
    ("std-8-zeros", 124, 16, "0410608208208208208208208516eff0"),
    ("std-counting", 81, 5, "12308210504c197db77f80"),
    ("ext-mixed", 98, 2, "6afa689184deadbe77a163bfc0"),
    (
        "ext-ones",
        146,
        18,
        "7df7df7df447df7df7df7df7df7df79b69bfc0",
    ),
    ("std-rtr5", 44, 0, "1118a35d6ff0"),
    ("ext-rtr0", 66, 2, "2afa6f784121a3bfc0"),
];

fn known_answer_frame(name: &str) -> CanFrame {
    match name {
        "std-empty" => CanFrame::data(CanId::standard(0x2A5).unwrap(), &[]).unwrap(),
        "std-8-zeros" => CanFrame::data(CanId::standard(0x000).unwrap(), &[0u8; 8]).unwrap(),
        "std-counting" => CanFrame::data(CanId::standard(0x123).unwrap(), &[1, 2, 3, 4]).unwrap(),
        "ext-mixed" => CanFrame::data(
            CanId::extended(0x1ABC_D123).unwrap(),
            &[0xDE, 0xAD, 0xBE, 0xEF],
        )
        .unwrap(),
        "ext-ones" => CanFrame::data(CanId::extended(0x1FFF_FFFF).unwrap(), &[0xFF; 8]).unwrap(),
        "std-rtr5" => CanFrame::remote(CanId::standard(0x111).unwrap(), 5).unwrap(),
        "ext-rtr0" => CanFrame::remote(CanId::extended(0x0ABC_DEF0).unwrap(), 0).unwrap(),
        other => panic!("unknown vector {other}"),
    }
}

fn hex_of(bits: &[bool]) -> String {
    let mut out = String::new();
    for chunk in bits.chunks(8) {
        let mut b = 0u8;
        for (i, &bit) in chunk.iter().enumerate() {
            if bit {
                b |= 1 << (7 - i);
            }
        }
        out.push_str(&format!("{b:02x}"));
    }
    out
}

#[test]
fn known_answer_vectors_pin_both_codecs() {
    for &(name, wire_len, stuff_bits, hex) in KNOWN_ANSWERS {
        let frame = known_answer_frame(name);

        let reference = codec::encode(&frame, true);
        assert_eq!(
            reference.len(),
            wire_len,
            "{name}: reference wire length drifted"
        );
        assert_eq!(
            reference.stuff_bits(),
            stuff_bits,
            "{name}: reference stuff count drifted"
        );
        assert_eq!(
            hex_of(reference.bits()),
            hex,
            "{name}: reference wire image drifted"
        );
        assert_eq!(
            codec::decode(reference.bits()).unwrap(),
            frame,
            "{name}: reference decode"
        );

        // the fast length path agrees with the same pinned vector
        let info = codec::wire_info(&frame);
        assert_eq!(info.wire_bits, wire_len, "{name}: wire_info length drifted");
        assert_eq!(
            info.stuff_bits, stuff_bits,
            "{name}: wire_info stuff count drifted"
        );
        assert_eq!(
            codec::wire_len(&frame),
            wire_len,
            "{name}: wire_len drifted"
        );
    }
}

#[test]
fn known_answer_crc_anchors() {
    // CRC-15 anchors pinning polynomial and bit order of the bit-serial
    // reference; `crc::tests` pins the byte table that `wire_info` steps
    // with to it.
    assert_eq!(crc15(&[]), 0x0000);
    assert_eq!(crc15(&[true]), 0x4599);
}
