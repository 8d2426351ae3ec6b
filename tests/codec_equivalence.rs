//! Equivalence proofs for the bus's wire-length fast path (DESIGN.md §8).
//!
//! [`codec::wire_info`] computes a frame's stuffed wire length from the
//! unstuffed region packed into `u64` words (`stuff_count_words`,
//! `crc15_words`), without materialising a wire bit. It must agree exactly
//! with the `Vec<bool>` codec. Two layers of pinning:
//!
//! * **Property tests** — random frames and random bit streams, cross-checked
//!   against the `Vec<bool>` forms.
//! * **Known-answer vectors** — wire images captured from
//!   `codec::encode(frame, true)` (hex, MSB-first), locking both the codec and
//!   the fast path against silent drift: if either changes its output, these
//!   fail.

use polsec::can::bits::{stuff, stuff_count_words};
use polsec::can::crc::{crc15, crc15_words};
use polsec::can::{codec, CanFrame, CanId};
use proptest::prelude::*;

/// Packs bools MSB-first, 64 per word: the layout the `*_words` functions read.
fn pack(bits: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; bits.len().div_ceil(64)];
    for (i, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
        words[i / 64] |= 1 << (63 - i % 64);
    }
    words
}

fn arb_standard_id() -> impl Strategy<Value = CanId> {
    (0u32..=0x7FF).prop_map(|v| CanId::standard(v).expect("in range"))
}

fn arb_extended_id() -> impl Strategy<Value = CanId> {
    (0u32..=0x1FFF_FFFF).prop_map(|v| CanId::extended(v).expect("in range"))
}

fn arb_frame() -> impl Strategy<Value = CanFrame> {
    (
        prop_oneof![arb_standard_id(), arb_extended_id()],
        prop::collection::vec(any::<u8>(), 0..=8),
        any::<bool>(),
        0u8..=8,
    )
        .prop_map(|(id, payload, remote, dlc)| {
            if remote {
                CanFrame::remote(id, dlc).expect("dlc in range")
            } else {
                CanFrame::data(id, &payload).expect("payload in range")
            }
        })
}

proptest! {
    #[test]
    fn wire_info_matches_reference_without_materialising(frame in arb_frame()) {
        let reference = codec::encode(&frame, true);
        let info = codec::wire_info(&frame);
        prop_assert_eq!(info.wire_bits, reference.len());
        prop_assert_eq!(info.stuff_bits, reference.stuff_bits());
        prop_assert_eq!(codec::wire_len(&frame), reference.len());
    }

    #[test]
    fn packed_stuffing_matches_reference(bits in prop::collection::vec(any::<bool>(), 0..300)) {
        let inserted = stuff(&bits).len() - bits.len();
        prop_assert_eq!(stuff_count_words(&pack(&bits), bits.len()), inserted);
    }

    #[test]
    fn packed_crc_matches_reference(bits in prop::collection::vec(any::<bool>(), 0..300)) {
        prop_assert_eq!(crc15_words(&pack(&bits), bits.len()), crc15(&bits));
    }
}

/// Wire images captured from the `Vec<bool>` reference implementation
/// (`codec::encode(frame, true)`), hex-packed MSB-first with a zero-padded
/// tail: `(name, wire_len, stuff_bits, wire_hex)`.
const KNOWN_ANSWERS: &[(&str, usize, usize, &str)] = &[
    ("std-empty", 45, 1, "2a5046b617f8"),
    ("std-8-zeros", 124, 16, "0410608208208208208208208516eff0"),
    ("std-counting", 81, 5, "12308210504c197db77f80"),
    ("ext-mixed", 98, 2, "6afa689184deadbe77a163bfc0"),
    ("ext-ones", 146, 18, "7df7df7df447df7df7df7df7df7df79b69bfc0"),
    ("std-rtr5", 44, 0, "1118a35d6ff0"),
    ("ext-rtr0", 66, 2, "2afa6f784121a3bfc0"),
];

fn known_answer_frame(name: &str) -> CanFrame {
    match name {
        "std-empty" => CanFrame::data(CanId::standard(0x2A5).unwrap(), &[]).unwrap(),
        "std-8-zeros" => CanFrame::data(CanId::standard(0x000).unwrap(), &[0u8; 8]).unwrap(),
        "std-counting" => CanFrame::data(CanId::standard(0x123).unwrap(), &[1, 2, 3, 4]).unwrap(),
        "ext-mixed" => {
            CanFrame::data(CanId::extended(0x1ABC_D123).unwrap(), &[0xDE, 0xAD, 0xBE, 0xEF]).unwrap()
        }
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
        assert_eq!(reference.len(), wire_len, "{name}: reference wire length drifted");
        assert_eq!(reference.stuff_bits(), stuff_bits, "{name}: reference stuff count drifted");
        assert_eq!(hex_of(reference.bits()), hex, "{name}: reference wire image drifted");
        assert_eq!(codec::decode(reference.bits()).unwrap(), frame, "{name}: reference decode");

        // the fast length path agrees with the same pinned vector
        let info = codec::wire_info(&frame);
        assert_eq!(info.wire_bits, wire_len, "{name}: wire_info length drifted");
        assert_eq!(info.stuff_bits, stuff_bits, "{name}: wire_info stuff count drifted");
        assert_eq!(codec::wire_len(&frame), wire_len, "{name}: wire_len drifted");
    }
}

#[test]
fn known_answer_crc_anchors() {
    // CRC-15 anchors pinning polynomial and bit order for both paths.
    assert_eq!(crc15(&[]), 0x0000);
    assert_eq!(crc15(&[true]), 0x4599);
    assert_eq!(crc15_words(&pack(&[true]), 1), 0x4599);
    assert_eq!(crc15_words(&[], 0), 0x0000);
}
