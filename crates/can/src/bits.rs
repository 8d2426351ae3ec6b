//! Bitstream utilities: writer, reader and CAN bit stuffing.
//!
//! CAN inserts a complementary *stuff bit* after every run of five equal bits
//! in the stuffed region of a frame (SOF through the CRC sequence). Stuffing
//! keeps the bus clocked (NRZ resynchronisation) and is why a frame's wire
//! length depends on its contents — the `polsec-bench` bus-overhead
//! experiment measures exactly this.
//!
//! Two forms live here:
//!
//! * the `Vec<bool>` forms ([`BitWriter`], [`BitReader`], [`stuff`],
//!   [`destuff`]) — one byte per wire bit, used by the codec's
//!   [`encode`](crate::codec::encode)/[`decode`](crate::codec::decode) and
//!   pinned by known-answer tests;
//! * a stuffing automaton that counts the stuff bits [`stuff`] would insert
//!   a whole byte per step, from a table built at compile time. The codec's
//!   `wire_info` fast path, and so the bus timing, runs on it; the tests
//!   here and `tests/codec_equivalence.rs` pin it equal to [`stuff`].

use crate::error::ProtocolViolation;

/// An append-only bit buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitWriter {
    bits: Vec<bool>,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Appends the lowest `n` bits of `value`, most significant first.
    ///
    /// # Panics
    /// Panics if `n > 32` (internal misuse; all call sites use fixed widths).
    pub fn push_bits(&mut self, value: u32, n: u32) {
        assert!(n <= 32, "cannot push more than 32 bits at once");
        for i in (0..n).rev() {
            self.bits.push((value >> i) & 1 == 1);
        }
    }

    /// The accumulated bits.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Number of bits written.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Consumes the writer, yielding the bit vector.
    pub fn into_bits(self) -> Vec<bool> {
        self.bits
    }
}

/// A cursor over a bit slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bits: &'a [bool],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bits`.
    pub fn new(bits: &'a [bool]) -> Self {
        BitReader { bits, pos: 0 }
    }

    /// Reads one bit.
    ///
    /// # Errors
    /// [`ProtocolViolation::Truncated`] at end of stream.
    pub fn read(&mut self) -> Result<bool, ProtocolViolation> {
        let b = self
            .bits
            .get(self.pos)
            .copied()
            .ok_or(ProtocolViolation::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` bits (≤ 32) as an unsigned value, most significant first.
    ///
    /// # Errors
    /// [`ProtocolViolation::Truncated`] if fewer than `n` bits remain.
    pub fn read_bits(&mut self, n: u32) -> Result<u32, ProtocolViolation> {
        debug_assert!(n <= 32);
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | u32::from(self.read()?);
        }
        Ok(v)
    }

    /// Current position in bits.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }
}

/// Applies CAN bit stuffing: after five consecutive equal bits, inserts the
/// complement.
///
/// # Example
/// ```
/// use polsec_can::bits::stuff;
/// let raw = vec![true; 6];
/// let stuffed = stuff(&raw);
/// // 5 ones, then a stuffed zero, then the 6th one
/// assert_eq!(stuffed, vec![true, true, true, true, true, false, true]);
/// ```
pub fn stuff(bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(bits.len() + bits.len() / 5 + 1);
    let mut run_bit = None;
    let mut run_len = 0u32;
    for &b in bits {
        out.push(b);
        if Some(b) == run_bit {
            run_len += 1;
        } else {
            run_bit = Some(b);
            run_len = 1;
        }
        if run_len == 5 {
            // insert complement; the stuffed bit starts a new run
            out.push(!b);
            run_bit = Some(!b);
            run_len = 1;
        }
    }
    out
}

/// Removes CAN bit stuffing, validating that every run of five equal bits is
/// followed by its complement.
///
/// # Errors
/// [`ProtocolViolation::Stuff`] when six equal consecutive bits appear.
pub fn destuff(bits: &[bool]) -> Result<Vec<bool>, ProtocolViolation> {
    let mut out = Vec::with_capacity(bits.len());
    let mut run_bit = None;
    let mut run_len = 0u32;
    let mut i = 0usize;
    while i < bits.len() {
        let b = bits[i];
        out.push(b);
        if Some(b) == run_bit {
            run_len += 1;
        } else {
            run_bit = Some(b);
            run_len = 1;
        }
        if run_len == 5 {
            // next bit must be the stuffed complement
            i += 1;
            match bits.get(i) {
                Some(&s) if s != b => {
                    run_bit = Some(s);
                    run_len = 1;
                }
                Some(_) => return Err(ProtocolViolation::Stuff),
                // Trailing run of exactly five at end-of-slice is allowed:
                // the caller delimits the stuffed region exactly.
                None => break,
            }
        }
        i += 1;
    }
    Ok(out)
}

/// States of the stuffing automaton: the current run's bit and length, as
/// `5 * bit + len` with `len` in `0..=4`. A run that reaches five is stuffed
/// at once and restarts as a run of one of the complement, so a length of
/// five never persists; length 0 is the start, before any bit.
const RUN_STATES: usize = 10;

/// One automaton step over `byte`, MSB first, by the rule of [`stuff`]: the
/// state after it in the low nibble, the stuff bits inserted within it in
/// the high nibble (at most two: a stuff bit starts a run of one, and a
/// byte has room for one more run of five after the first).
const fn stuff_entry(state: usize, byte: u8) -> u8 {
    let mut bit = state >= 5;
    let mut len = state % 5;
    let mut inserted = 0;
    let mut k = 8;
    while k > 0 {
        k -= 1;
        let b = (byte >> k) & 1 == 1;
        if len > 0 && b == bit {
            len += 1;
        } else {
            bit = b;
            len = 1;
        }
        if len == 5 {
            inserted += 1;
            bit = !b;
            len = 1;
        }
    }
    ((inserted << 4) | (5 * bit as usize + len)) as u8
}

const fn build_stuff_table() -> [[u8; 256]; RUN_STATES] {
    let mut t = [[0u8; 256]; RUN_STATES];
    let mut state = 0;
    while state < RUN_STATES {
        let mut byte = 0;
        while byte < 256 {
            t[state][byte] = stuff_entry(state, byte as u8);
            byte += 1;
        }
        state += 1;
    }
    t
}

/// `STUFF_TABLE[state][byte]`, 2.5 KiB.
static STUFF_TABLE: [[u8; 256]; RUN_STATES] = build_stuff_table();

/// Counts the stuff bits [`stuff`] inserts into a bit stream fed a whole
/// byte at a time, MSB first: one table load per byte and no branch on the
/// bits. A stream that does not end on a byte boundary is fed with its last
/// byte padded by bits that alternate, starting with the complement of its
/// last bit: they end the current run and form none of five, so they insert
/// nothing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StuffCounter {
    state: u8,
    inserted: u32,
}

impl StuffCounter {
    /// Feeds one byte.
    #[inline]
    pub(crate) fn feed(&mut self, byte: u8) {
        let e = STUFF_TABLE[usize::from(self.state)][usize::from(byte)];
        self.state = e & 0xF;
        self.inserted += u32::from(e >> 4);
    }

    /// The stuff bits inserted so far.
    pub(crate) fn inserted(self) -> usize {
        self.inserted as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = BitWriter::new();
        w.push_bits(0b1011, 4);
        w.push(true);
        w.push_bits(0xFF, 8);
        assert_eq!(w.len(), 13);
        let bits = w.into_bits();
        let mut r = BitReader::new(&bits);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert!(r.read().unwrap());
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.remaining(), 0);
        assert!(r.read().is_err());
    }

    #[test]
    fn push_bits_msb_first() {
        let mut w = BitWriter::new();
        w.push_bits(0b110, 3);
        assert_eq!(w.bits(), &[true, true, false]);
    }

    #[test]
    fn stuff_inserts_after_five() {
        let raw = vec![false; 5];
        let s = stuff(&raw);
        assert_eq!(s, vec![false, false, false, false, false, true]);
    }

    #[test]
    fn stuff_handles_runs_crossing_stuffed_bit() {
        // 10 ones: 5 ones, stuff 0, then 5 more ones, stuff 0
        let raw = vec![true; 10];
        let s = stuff(&raw);
        assert_eq!(s.len(), 12);
        assert!(!s[5]);
        assert!(!s[11]);
    }

    #[test]
    fn destuff_inverts_stuff() {
        let patterns: Vec<Vec<bool>> = vec![
            vec![],
            vec![true],
            vec![true; 5],
            vec![false; 17],
            vec![true, true, false, false, true, true, true, true, true, true],
            (0..64).map(|i| i % 3 == 0).collect(),
        ];
        for raw in patterns {
            let stuffed = stuff(&raw);
            let back = destuff(&stuffed).unwrap();
            assert_eq!(back, raw, "round trip failed for {raw:?}");
        }
    }

    #[test]
    fn destuff_rejects_six_in_a_row() {
        let bad = vec![true; 6];
        assert_eq!(destuff(&bad), Err(ProtocolViolation::Stuff));
    }

    /// Deterministic pseudo-random bit patterns, long enough to span many
    /// bytes and ending at every byte alignment.
    fn patterns() -> Vec<Vec<bool>> {
        let mut out: Vec<Vec<bool>> = vec![
            vec![],
            vec![true],
            vec![false],
            vec![true; 5],
            vec![false; 64],
            vec![true; 64],
            vec![true; 200],
            (0..64).map(|i| i % 3 == 0).collect(),
            (0..130).map(|i| (i / 5) % 2 == 0).collect(),
        ];
        let mut state: u64 = 0x1234_5678_9ABC_DEF0;
        for len in [1usize, 63, 64, 65, 127, 128, 129, 300] {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                v.push(state >> 63 == 1);
            }
            out.push(v);
        }
        out
    }

    /// Stuff bits counted by [`StuffCounter`] over `bits`, the last byte
    /// padded by alternating bits that start with the complement of the
    /// stream's last bit.
    fn counted(bits: &[bool]) -> usize {
        let mut counter = StuffCounter::default();
        for chunk in bits.chunks(8) {
            let mut byte = 0u8;
            for (k, &b) in chunk.iter().enumerate() {
                byte |= u8::from(b) << (7 - k);
            }
            let last = chunk[chunk.len() - 1];
            for k in chunk.len()..8 {
                byte |= u8::from((k - chunk.len()) % 2 == usize::from(last)) << (7 - k);
            }
            counter.feed(byte);
        }
        counter.inserted()
    }

    #[test]
    fn stuff_counter_matches_stuff() {
        for p in patterns() {
            let inserted = stuff(&p).len() - p.len();
            assert_eq!(counted(&p), inserted, "for {p:?}");
        }
        // Every 16-bit stream, and every prefix of it: each state meets
        // every byte, and every padding length ends a stream.
        for v in 0..=u16::MAX {
            let p: Vec<bool> = (0..16).rev().map(|k| (v >> k) & 1 == 1).collect();
            for end in [1, 7, 9, 12, 16] {
                let inserted = stuff(&p[..end]).len() - end;
                assert_eq!(counted(&p[..end]), inserted, "for {:?}", &p[..end]);
            }
        }
    }

    #[test]
    fn worst_case_stuffing_ratio() {
        // Alternating 5-runs produce the worst-case 1-in-5 stuffing.
        let mut raw = Vec::new();
        for i in 0..20 {
            for _ in 0..5 {
                raw.push(i % 2 == 0);
            }
        }
        let s = stuff(&raw);
        // Stuffed bit extends the next run, so the exact count involves
        // interactions; just bound it: at least 1 per 5, at most 1 per 4.
        let inserted = s.len() - raw.len();
        assert!(inserted >= raw.len() / 5 - 1, "inserted {inserted}");
        assert!(inserted <= raw.len() / 4 + 1, "inserted {inserted}");
    }
}
