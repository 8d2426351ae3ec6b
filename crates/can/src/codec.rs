//! Bit-level frame encoding and decoding.
//!
//! Implements the classic CAN (ISO 11898-1) frame layout:
//!
//! ```text
//! standard: SOF | ID[11] | RTR | IDE(0) | r0 | DLC[4] | data | CRC[15] |
//!           CRCdel(1) | ACK | ACKdel(1) | EOF[7×1]
//! extended: SOF | ID[28:18] | SRR(1) | IDE(1) | ID[17:0] | RTR | r1 | r0 |
//!           DLC[4] | data | CRC[15] | ...
//! ```
//!
//! Bit stuffing covers SOF through the CRC sequence; the CRC is computed over
//! the *unstuffed* bits of the same region. Dominant = `false` (0),
//! recessive = `true` (1).
//!
//! There is one codec, [`encode`]/[`decode`] over `Vec<bool>`: the Fig. 3
//! harness drives it and the tests use it as their oracle. The bus needs
//! only each frame's stuffed length, never its wire bits, so it derives frame
//! timing from [`wire_info`] — one pass over the region a byte at a time,
//! feeding each byte to the CRC table and to the stuffing automaton,
//! allocation-free — memoised by [`WireInfoCache`].

use crate::bits::{stuff, BitReader, BitWriter, StuffCounter};
use crate::crc::{crc15, step_byte};
use crate::error::ProtocolViolation;
use crate::frame::CanFrame;
use crate::id::CanId;

/// Wire bits after the stuffed region: CRC delimiter, ACK slot, ACK
/// delimiter and the 7-bit EOF.
const TAIL_BITS: usize = 10;

/// Encodes the stuffed region (SOF..CRC) *before* stuffing.
fn encode_stuffed_region(frame: &CanFrame) -> Vec<bool> {
    let mut w = BitWriter::new();
    w.push(false); // SOF, dominant
    match frame.id() {
        CanId::Standard(id) => {
            w.push_bits(id as u32, 11);
            w.push(frame.is_remote()); // RTR
            w.push(false); // IDE = 0 (standard)
            w.push(false); // r0
        }
        CanId::Extended(id) => {
            w.push_bits(id >> 18, 11); // base id
            w.push(true); // SRR, recessive
            w.push(true); // IDE = 1 (extended)
            w.push_bits(id & 0x3_FFFF, 18); // id extension
            w.push(frame.is_remote()); // RTR
            w.push(false); // r1
            w.push(false); // r0
        }
    }
    w.push_bits(frame.dlc() as u32, 4);
    for &b in frame.payload() {
        w.push_bits(b as u32, 8);
    }
    let crc = crc15(w.bits());
    w.push_bits(crc as u32, 15);
    w.into_bits()
}

/// An encoded frame ready for the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedFrame {
    bits: Vec<bool>,
    stuff_bits: usize,
}

impl EncodedFrame {
    /// The full wire bit sequence (stuffed region + delimiters + EOF).
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Total length on the wire in bits (excluding interframe space).
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the encoding is empty (never true for a valid frame).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// How many stuff bits were inserted.
    pub fn stuff_bits(&self) -> usize {
        self.stuff_bits
    }
}

/// Encodes a frame to wire bits.
///
/// `acked` selects the level of the ACK slot: a frame that at least one
/// receiver acknowledged carries a dominant ACK slot; an unacknowledged frame
/// leaves it recessive (and the transmitter would raise an ACK error).
///
/// # Example
/// ```
/// use polsec_can::{codec, CanFrame, CanId};
/// let f = CanFrame::data(CanId::standard(0x100)?, &[1, 2])?;
/// let enc = codec::encode(&f, true);
/// let back = codec::decode(enc.bits())?;
/// assert_eq!(back, f);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn encode(frame: &CanFrame, acked: bool) -> EncodedFrame {
    let region = encode_stuffed_region(frame);
    let stuffed = stuff(&region);
    let stuff_bits = stuffed.len() - region.len();
    let mut bits = stuffed;
    bits.push(true); // CRC delimiter, recessive
    bits.push(!acked); // ACK slot: dominant (false) when acknowledged
    bits.push(true); // ACK delimiter
    bits.extend(std::iter::repeat_n(true, 7)); // EOF
    EncodedFrame { bits, stuff_bits }
}

/// One pass over a frame's SOF..CRC region, a byte per step: its unstuffed
/// length in bits, the stuff bits [`stuff`] inserts into it, and the CRC-15
/// it ends with.
///
/// The header (SOF through DLC: 19 bits standard, 39 extended) is one
/// big-endian value padded in front to whole bytes, so the data bytes
/// follow it byte-aligned. The CRC table reads the pad as zeros, which
/// leave the zero register zero. The stuffing automaton reads it as
/// alternating bits ending in a recessive one (`10101` before a standard
/// header, `1` before an extended one): they count no stuff bit, and the
/// dominant SOF after them starts a fresh run, as it does at the start of a
/// frame. Only the two bytes of the 15-bit CRC wait for the CRC; the last is
/// padded with the complement of the CRC's last bit, which inserts nothing.
fn scan_region(frame: &CanFrame) -> (usize, usize, u16) {
    let rtr = u64::from(frame.is_remote());
    let dlc = u64::from(frame.dlc());
    let (header, header_bits, lead): (u64, usize, u8) = match frame.id() {
        // pad(5) | SOF | ID[11] | RTR | IDE(0) | r0 | DLC[4]
        CanId::Standard(id) => ((u64::from(id) << 7) | (rtr << 6) | dlc, 19, 0b1010_1000),
        // pad(1) | SOF | ID[28:18] | SRR(1) | IDE(1) | ID[17:0] | RTR | r1 | r0 | DLC[4]
        CanId::Extended(id) => {
            let id = u64::from(id);
            let header =
                ((id >> 18) << 27) | (0b11 << 25) | ((id & 0x3_FFFF) << 7) | (rtr << 6) | dlc;
            (header, 39, 0b1000_0000)
        }
    };
    let header_bytes = header_bits.div_ceil(8);
    let payload = frame.payload();

    let first = (header >> (8 * (header_bytes - 1))) as u8;
    let mut crc = step_byte(0, first);
    let mut stuffing = StuffCounter::default();
    stuffing.feed(first | lead);
    for k in (0..header_bytes - 1).rev() {
        let byte = (header >> (8 * k)) as u8;
        crc = step_byte(crc, byte);
        stuffing.feed(byte);
    }
    for &byte in payload {
        crc = step_byte(crc, byte);
        stuffing.feed(byte);
    }
    stuffing.feed((crc >> 7) as u8);
    stuffing.feed(((crc << 1) as u8) | (!crc as u8 & 1));

    (
        header_bits + 8 * payload.len() + 15,
        stuffing.inserted(),
        crc,
    )
}

/// The exact stuffed wire length and stuff-bit count of a frame, computed
/// without materialising a single wire bit. [`CanBus`](crate::CanBus) timing
/// runs on this: no listener in the simulator consumes payload bits off the
/// wire (frames are delivered as structs), so the bus only ever needs the
/// lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireInfo {
    /// Total length on the wire in bits (excluding interframe space) —
    /// identical to [`EncodedFrame::len`].
    pub wire_bits: usize,
    /// Stuff bits inserted — identical to [`EncodedFrame::stuff_bits`].
    pub stuff_bits: usize,
}

/// Computes [`WireInfo`] for a frame on the stack, allocation-free.
pub fn wire_info(frame: &CanFrame) -> WireInfo {
    let (region_bits, stuff_bits, _crc) = scan_region(frame);
    WireInfo {
        wire_bits: region_bits + stuff_bits + TAIL_BITS,
        stuff_bits,
    }
}

/// The exact stuffed wire length of `frame` in bits (excluding interframe
/// space), without materialising bits.
pub fn wire_len(frame: &CanFrame) -> usize {
    wire_info(frame).wire_bits
}

/// A small direct-mapped memo of [`wire_info`] results keyed by
/// [`CanFrame::content_key`]. Simulated traffic is dominated by periodic
/// broadcasts whose content repeats tick after tick, so the bus answers most
/// timing queries with two word compares instead of a region scan. Its 32
/// slots (768 bytes, inline in the bus) hold most of a vehicle segment's
/// repeating broadcasts; more slots keep a few more of them but ran slower
/// end to end, and frames whose content is new every time, such as relayed
/// platoon messages with their sequence numbers, miss it at any size
/// (DESIGN.md §8 has the hit ratios and timings).
/// `wire_info` is a pure function of the frame, so the cache is invisible to
/// determinism — it changes when, not what, the bus computes.
#[derive(Debug, Clone)]
pub struct WireInfoCache {
    slots: [CachedWireInfo; WireInfoCache::SLOTS],
}

/// One memo slot: the frame's content key, then its wire and stuff bits
/// (a frame has at most 160 wire bits). `key.0 == u64::MAX` marks an empty
/// slot: no frame produces it, as id, flags and DLC occupy fewer than 40
/// bits.
#[derive(Debug, Clone, Copy)]
struct CachedWireInfo {
    key: (u64, u64),
    wire_bits: u16,
    stuff_bits: u16,
}

impl WireInfoCache {
    const SLOTS: usize = 32;
    const EMPTY: CachedWireInfo = CachedWireInfo {
        key: (u64::MAX, 0),
        wire_bits: 0,
        stuff_bits: 0,
    };

    /// Creates an empty cache.
    pub fn new() -> Self {
        WireInfoCache {
            slots: [Self::EMPTY; Self::SLOTS],
        }
    }

    /// [`wire_info`], memoised.
    pub fn lookup(&mut self, frame: &CanFrame) -> WireInfo {
        let key = frame.content_key();
        // splitmix64-style finaliser spreads the key across slots
        let mut h = key.0 ^ key.1.rotate_left(32);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let slot = &mut self.slots[(h >> (64 - Self::SLOTS.trailing_zeros())) as usize];
        if slot.key == key {
            return WireInfo {
                wire_bits: usize::from(slot.wire_bits),
                stuff_bits: usize::from(slot.stuff_bits),
            };
        }
        let info = wire_info(frame);
        *slot = CachedWireInfo {
            key,
            wire_bits: info.wire_bits as u16,
            stuff_bits: info.stuff_bits as u16,
        };
        info
    }
}

impl Default for WireInfoCache {
    fn default() -> Self {
        Self::new()
    }
}

/// A reader over stuffed bits that transparently removes stuff bits and
/// validates stuffing as it goes.
struct DestuffingReader<'a> {
    inner: BitReader<'a>,
    run_bit: Option<bool>,
    run_len: u32,
    unstuffed: Vec<bool>,
}

impl<'a> DestuffingReader<'a> {
    fn new(inner: BitReader<'a>) -> Self {
        DestuffingReader {
            inner,
            run_bit: None,
            run_len: 0,
            unstuffed: Vec::new(),
        }
    }

    fn read(&mut self) -> Result<bool, ProtocolViolation> {
        let b = self.inner.read()?;
        if Some(b) == self.run_bit {
            self.run_len += 1;
        } else {
            self.run_bit = Some(b);
            self.run_len = 1;
        }
        if self.run_len > 5 {
            return Err(ProtocolViolation::Stuff);
        }
        self.unstuffed.push(b);
        if self.run_len == 5 {
            // consume and validate the stuff bit
            let s = self.inner.read()?;
            if s == b {
                return Err(ProtocolViolation::Stuff);
            }
            self.run_bit = Some(s);
            self.run_len = 1;
        }
        Ok(b)
    }

    fn read_bits(&mut self, n: u32) -> Result<u32, ProtocolViolation> {
        let mut v = 0;
        for _ in 0..n {
            v = (v << 1) | u32::from(self.read()?);
        }
        Ok(v)
    }

    /// Destuffed bits consumed so far (the CRC input region).
    fn unstuffed(&self) -> &[bool] {
        &self.unstuffed
    }

    fn into_inner(self) -> BitReader<'a> {
        self.inner
    }
}

/// Decodes wire bits back into a frame, validating stuffing, CRC and the
/// fixed-form delimiter bits.
///
/// # Errors
/// * [`ProtocolViolation::Stuff`] — six equal consecutive bits in the
///   stuffed region,
/// * [`ProtocolViolation::Crc`] — CRC mismatch,
/// * [`ProtocolViolation::Form`] — CRC/ACK delimiter or EOF not recessive,
/// * [`ProtocolViolation::Truncated`] — stream too short.
pub fn decode(bits: &[bool]) -> Result<CanFrame, ProtocolViolation> {
    decode_with_ack(bits).map(|(frame, _)| frame)
}

/// [`decode`], also returning whether the decoded frame's ACK slot is
/// dominant. Bits after the EOF (an intermission, the next frame) are left
/// unread.
fn decode_with_ack(bits: &[bool]) -> Result<(CanFrame, bool), ProtocolViolation> {
    let mut r = DestuffingReader::new(BitReader::new(bits));

    let sof = r.read()?;
    if sof {
        return Err(ProtocolViolation::Form); // SOF must be dominant
    }
    let base_id = r.read_bits(11)?;
    let bit12 = r.read()?; // RTR (standard) or SRR (extended)
    let ide = r.read()?;
    let (id, remote) = if ide {
        // extended: bit12 was SRR (must be recessive)
        if !bit12 {
            return Err(ProtocolViolation::Form);
        }
        let ext = r.read_bits(18)?;
        let rtr = r.read()?;
        let _r1 = r.read()?;
        let _r0 = r.read()?;
        let raw = (base_id << 18) | ext;
        (
            CanId::extended(raw).map_err(|_| ProtocolViolation::Form)?,
            rtr,
        )
    } else {
        let _r0 = r.read()?;
        (
            CanId::standard(base_id).map_err(|_| ProtocolViolation::Form)?,
            bit12,
        )
    };
    let dlc = r.read_bits(4)? as u8;
    if dlc > 8 {
        // ISO allows DLC 9..15 meaning 8 bytes; we reject for strictness in
        // the simulator (all our encoders emit ≤ 8).
        return Err(ProtocolViolation::Form);
    }
    let mut data = [0u8; 8];
    if !remote {
        for slot in data.iter_mut().take(dlc as usize) {
            *slot = r.read_bits(8)? as u8;
        }
    }

    // CRC is computed over everything consumed so far (destuffed).
    let crc_region_len = r.unstuffed().len();
    let received_crc = r.read_bits(15)? as u16;
    let computed = crc15(&r.unstuffed()[..crc_region_len]);
    if received_crc != computed {
        return Err(ProtocolViolation::Crc);
    }

    // Fixed-form tail is read raw (no stuffing).
    let mut raw = r.into_inner();
    let crc_del = raw.read()?;
    if !crc_del {
        return Err(ProtocolViolation::Form);
    }
    let ack_slot = raw.read()?; // either level is legal at the decoder
    let ack_del = raw.read()?;
    if !ack_del {
        return Err(ProtocolViolation::Form);
    }
    for _ in 0..7 {
        if !raw.read()? {
            return Err(ProtocolViolation::Form); // EOF must be recessive
        }
    }

    let frame = if remote {
        CanFrame::remote(id, dlc).map_err(|_| ProtocolViolation::Form)?
    } else {
        CanFrame::data(id, &data[..dlc as usize]).map_err(|_| ProtocolViolation::Form)?
    };
    Ok((frame, !ack_slot))
}

/// Returns whether the encoded frame's ACK slot is dominant (acknowledged).
/// The slot is the decoded frame's own, 9 bits before its EOF ends, however
/// many bits follow the frame.
///
/// # Errors
/// [`ProtocolViolation`] if the bits do not decode as a frame.
pub fn ack_seen(bits: &[bool]) -> Result<bool, ProtocolViolation> {
    decode_with_ack(bits).map(|(_, acked)| acked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ProtocolViolation as PV;

    fn sid(v: u32) -> CanId {
        CanId::standard(v).unwrap()
    }
    fn eid(v: u32) -> CanId {
        CanId::extended(v).unwrap()
    }

    #[test]
    fn round_trip_standard_data() {
        for dlc in 0..=8usize {
            let payload: Vec<u8> = (0..dlc as u8).map(|i| i.wrapping_mul(37)).collect();
            let f = CanFrame::data(sid(0x2F1), &payload).unwrap();
            let enc = encode(&f, true);
            assert_eq!(decode(enc.bits()).unwrap(), f, "dlc={dlc}");
        }
    }

    #[test]
    fn round_trip_extended_data() {
        let f = CanFrame::data(eid(0x1ABC_D123), &[0xFF, 0x00, 0xAA]).unwrap();
        let enc = encode(&f, true);
        assert_eq!(decode(enc.bits()).unwrap(), f);
    }

    #[test]
    fn round_trip_remote_frames() {
        let f = CanFrame::remote(sid(0x111), 5).unwrap();
        assert_eq!(decode(encode(&f, true).bits()).unwrap(), f);
        let fe = CanFrame::remote(eid(0x1555), 0).unwrap();
        assert_eq!(decode(encode(&fe, true).bits()).unwrap(), fe);
    }

    #[test]
    fn round_trip_rtr_every_dlc() {
        // RTR frames advertise the expected response length in the DLC
        // while carrying no data; the DLC must survive the round trip for
        // every legal value, standard and extended.
        for dlc in 0..=8u8 {
            let f = CanFrame::remote(sid(0x2A5), dlc).unwrap();
            let enc = encode(&f, true);
            let back = decode(enc.bits()).unwrap();
            assert_eq!(back, f, "standard rtr dlc={dlc}");
            assert!(back.is_remote());
            assert_eq!(back.dlc(), dlc);
            assert!(back.payload().is_empty(), "rtr carries no data");

            let fe = CanFrame::remote(eid(0x0ABC_DEF0), dlc).unwrap();
            let back = decode(encode(&fe, true).bits()).unwrap();
            assert_eq!(back, fe, "extended rtr dlc={dlc}");
            assert_eq!(back.dlc(), dlc);
        }
    }

    #[test]
    fn rtr_with_nonzero_dlc_encodes_no_data_field() {
        // The wire frame must not grow with the advertised DLC: a remote
        // frame with DLC 8 is 64 data bits shorter than the matching data
        // frame (modulo stuffing differences).
        let remote = encode(&CanFrame::remote(sid(0x123), 8).unwrap(), true);
        let data = encode(&CanFrame::data(sid(0x123), &[0x55; 8]).unwrap(), true);
        let remote_unstuffed = remote.len() - remote.stuff_bits();
        let data_unstuffed = data.len() - data.stuff_bits();
        assert_eq!(data_unstuffed - remote_unstuffed, 64);
        // And distinct DLCs still produce distinct encodings (the DLC field
        // is on the wire even though the data field is empty).
        let a = encode(&CanFrame::remote(sid(0x123), 1).unwrap(), true);
        let b = encode(&CanFrame::remote(sid(0x123), 2).unwrap(), true);
        assert_ne!(a.bits(), b.bits());
    }

    #[test]
    fn encoded_length_is_nominal_plus_stuffing() {
        let f = CanFrame::data(sid(0x100), &[0u8; 8]).unwrap();
        let enc = encode(&f, true);
        // nominal_bits includes 3-bit IFS which encode() omits
        let nominal_wire = f.nominal_bits() as usize - 3;
        assert_eq!(enc.len(), nominal_wire + enc.stuff_bits());
    }

    #[test]
    fn corrupted_crc_detected() {
        let f = CanFrame::data(sid(0x345), &[1, 2, 3, 4]).unwrap();
        let enc = encode(&f, true);
        let mut bits = enc.bits().to_vec();
        // Flip a data-region bit far from stuffing boundaries is hard to
        // guarantee; instead flip and accept either Stuff or Crc — both model
        // a detected corruption. At least one flip must yield Crc.
        let mut saw_crc = false;
        for i in 15..30 {
            let mut b = bits.clone();
            b[i] = !b[i];
            match decode(&b) {
                Err(PV::Crc) => saw_crc = true,
                Err(_) => {}
                Ok(decoded) => panic!("corruption at {i} undetected: {decoded}"),
            }
        }
        assert!(saw_crc, "no flip produced a CRC error");
        // untouched still decodes
        bits[0] = false;
        assert!(decode(&bits).is_ok());
    }

    #[test]
    fn truncated_stream_detected() {
        let f = CanFrame::data(sid(0x77), &[5; 2]).unwrap();
        let enc = encode(&f, true);
        for cut in [1usize, 10, 20, enc.len() - 1] {
            let b = &enc.bits()[..cut];
            assert!(
                matches!(decode(b), Err(PV::Truncated) | Err(PV::Form)),
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn bad_sof_is_form_error() {
        let f = CanFrame::data(sid(0x77), &[]).unwrap();
        let mut bits = encode(&f, true).bits().to_vec();
        bits[0] = true; // recessive SOF is illegal
        assert!(matches!(
            decode(&bits),
            Err(PV::Form) | Err(PV::Stuff) | Err(PV::Crc)
        ));
    }

    #[test]
    fn eof_violation_is_form_error() {
        let f = CanFrame::data(sid(0x77), &[1]).unwrap();
        let enc = encode(&f, true);
        let mut bits = enc.bits().to_vec();
        let n = bits.len();
        bits[n - 1] = false; // dominant bit inside EOF
        assert_eq!(decode(&bits), Err(PV::Form));
    }

    #[test]
    fn ack_slot_reflects_acknowledgement() {
        // decode accepts bits after the EOF, so the 3-bit recessive
        // intermission that follows every frame must not move the slot.
        let f = CanFrame::data(sid(0x30), &[9]).unwrap();
        for acked in [true, false] {
            let mut bits = encode(&f, acked).bits().to_vec();
            assert_eq!(ack_seen(&bits).unwrap(), acked, "acked={acked}");
            bits.extend([true; 3]);
            assert_eq!(decode(&bits).unwrap(), f);
            assert_eq!(
                ack_seen(&bits).unwrap(),
                acked,
                "acked={acked}, intermission"
            );
        }
    }

    #[test]
    fn stuffing_present_for_pathological_payloads() {
        // long runs of zeros force stuff bits
        let f = CanFrame::data(sid(0x000), &[0u8; 8]).unwrap();
        let enc = encode(&f, true);
        assert!(enc.stuff_bits() > 0);
        assert_eq!(decode(enc.bits()).unwrap(), f);
    }

    #[test]
    fn distinct_frames_have_distinct_encodings() {
        let a = encode(&CanFrame::data(sid(0x10), &[1]).unwrap(), true);
        let b = encode(&CanFrame::data(sid(0x10), &[2]).unwrap(), true);
        assert_ne!(a.bits(), b.bits());
    }

    fn sample_frames() -> Vec<CanFrame> {
        let mut out = Vec::new();
        for dlc in 0..=8usize {
            let payload: Vec<u8> = (0..dlc as u8).map(|i| i.wrapping_mul(37)).collect();
            out.push(CanFrame::data(sid(0x2F1), &payload).unwrap());
            out.push(CanFrame::data(eid(0x1ABC_D123), &payload).unwrap());
            out.push(CanFrame::remote(sid(0x111), dlc as u8).unwrap());
            out.push(CanFrame::remote(eid(0x0ABC_DEF0), dlc as u8).unwrap());
        }
        out.push(CanFrame::data(sid(0x000), &[0u8; 8]).unwrap()); // worst-case stuffing
        out.push(CanFrame::data(sid(0x7FF), &[0xFF; 8]).unwrap());
        out.push(CanFrame::data(eid(0x1FFF_FFFF), &[0xAA; 8]).unwrap());
        out
    }

    #[test]
    fn fused_pass_crc_matches_reference() {
        // The one-pass scan's CRC, region length and stuff count equal the
        // bit-serial region's, on the sample frames and on seeded random
        // ones of every shape.
        let mut frames = sample_frames();
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 32
        };
        for _ in 0..2000 {
            let r = next();
            let id = if r & 1 == 0 {
                sid(next() as u32 & 0x7FF)
            } else {
                eid(next() as u32 & 0x1FFF_FFFF)
            };
            let dlc = (next() % 9) as u8;
            let payload: Vec<u8> = (0..dlc).map(|_| next() as u8).collect();
            frames.push(if r & 2 == 0 {
                CanFrame::data(id, &payload).unwrap()
            } else {
                CanFrame::remote(id, dlc).unwrap()
            });
        }
        for frame in frames {
            let region = encode_stuffed_region(&frame);
            let crc_bits = &region[region.len() - 15..];
            let crc = crc_bits.iter().fold(0u16, |c, &b| (c << 1) | u16::from(b));
            let (bits, stuff_bits, scanned_crc) = scan_region(&frame);
            assert_eq!(scanned_crc, crc, "CRC for {frame}");
            assert_eq!(bits, region.len(), "region length for {frame}");
            assert_eq!(
                stuff_bits,
                stuff(&region).len() - region.len(),
                "stuff bits for {frame}"
            );
        }
    }

    #[test]
    fn wire_info_matches_reference_lengths() {
        for frame in sample_frames() {
            let reference = encode(&frame, true);
            let info = wire_info(&frame);
            assert_eq!(info.wire_bits, reference.len(), "wire_bits for {frame}");
            assert_eq!(
                info.stuff_bits,
                reference.stuff_bits(),
                "stuff_bits for {frame}"
            );
            assert_eq!(wire_len(&frame), reference.len());
        }
    }
}
