//! CRC-15-CAN.
//!
//! ISO 11898-1 protects each frame with a 15-bit CRC over SOF..data using the
//! generator polynomial `x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1`
//! (0x4599). The CRC is computed over the *unstuffed* bit sequence.
//!
//! Two evaluation paths: the bit-serial reference ([`crc15`]) used by the
//! codec's `encode`/`decode`, and a byte-table step used by the `wire_info`
//! fast path — eight bits per table lookup instead of eight shift-register
//! steps. Tests pin them equal.

/// The CAN CRC-15 generator polynomial (without the leading x^15 term).
pub const POLY: u16 = 0x4599;

/// Mask of the 15 valid CRC bits.
pub const MASK: u16 = 0x7FFF;

/// Computes the CRC-15 of a bit sequence (MSB-first bit-serial definition
/// from ISO 11898-1).
///
/// # Example
/// ```
/// use polsec_can::crc::crc15;
/// assert_eq!(crc15(&[]), 0);
/// let bits = [true, false, true];
/// let c = crc15(&bits);
/// assert!(c <= 0x7FFF);
/// ```
pub fn crc15(bits: &[bool]) -> u16 {
    let mut crc: u16 = 0;
    for &bit in bits {
        let crc_next = bit ^ ((crc >> 14) & 1 == 1);
        crc = (crc << 1) & MASK;
        if crc_next {
            crc ^= POLY;
        }
    }
    crc & MASK
}

/// One table entry: the CRC register after feeding byte `b` (MSB first) into
/// the all-zero state with the bit-serial update rule.
const fn table_entry(b: u8) -> u16 {
    let mut crc: u16 = 0;
    let mut k = 8;
    while k > 0 {
        k -= 1;
        let bit = (b >> k) & 1 == 1;
        let next = bit != ((crc >> 14) & 1 == 1);
        crc = (crc << 1) & MASK;
        if next {
            crc ^= POLY;
        }
    }
    crc
}

const fn build_table() -> [u16; 256] {
    let mut t = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = table_entry(i as u8);
        i += 1;
    }
    t
}

/// Byte-at-a-time lookup table for the CAN CRC-15 (MSB-first).
static CRC_TABLE: [u16; 256] = build_table();

/// Advances the 15-bit register by one whole byte (MSB first) via the
/// lookup table. Because CRC is linear over GF(2), feeding 8 bits into state
/// `crc` equals shifting the state by 8 and folding in the table entry of
/// `(top 8 state bits) ^ byte`. A zero bit fed into the zero register leaves
/// it zero, so a stream padded with leading zeros to whole bytes has the
/// CRC of the unpadded stream.
#[inline]
pub(crate) fn step_byte(crc: u16, byte: u8) -> u16 {
    ((crc << 8) & MASK) ^ CRC_TABLE[(((crc >> 7) as u8) ^ byte) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_of(byte: u8) -> Vec<bool> {
        (0..8).rev().map(|i| (byte >> i) & 1 == 1).collect()
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc15(&[]), 0);
    }

    #[test]
    fn all_zero_input_is_zero() {
        assert_eq!(crc15(&[false; 64]), 0);
    }

    #[test]
    fn single_one_gives_polynomial_shifted() {
        // Feeding a single 1 bit: state becomes POLY.
        assert_eq!(crc15(&[true]), POLY);
    }

    #[test]
    fn detects_single_bit_flip() {
        let data: Vec<bool> = (0..100).map(|i| i % 7 == 0).collect();
        let good = crc15(&data);
        for i in 0..data.len() {
            let mut bad = data.clone();
            bad[i] = !bad[i];
            assert_ne!(crc15(&bad), good, "single flip at {i} undetected");
        }
    }

    #[test]
    fn detects_burst_errors_up_to_15() {
        // CRC-15 detects all burst errors shorter than 15 bits.
        let data: Vec<bool> = (0..128).map(|i| (i * 5) % 11 < 5).collect();
        let good = crc15(&data);
        for burst_len in 1..=15usize {
            for start in (0..data.len() - burst_len).step_by(13) {
                let mut bad = data.clone();
                // flip a burst beginning and ending with a flip
                for b in bad.iter_mut().skip(start).take(burst_len) {
                    *b = !*b;
                }
                assert_ne!(crc15(&bad), good, "burst {burst_len}@{start} undetected");
            }
        }
    }

    #[test]
    fn value_always_15_bits() {
        let data: Vec<bool> = (0..1000).map(|i| i % 2 == 0).collect();
        for end in 0..data.len() {
            assert!(crc15(&data[..end]) <= MASK);
        }
    }

    /// The table path over `bits` as the codec feeds it: zero-padded in
    /// front to whole bytes, MSB first.
    fn table_crc(bits: &[bool]) -> u16 {
        let pad = (8 - bits.len() % 8) % 8;
        let padded: Vec<bool> = std::iter::repeat_n(false, pad)
            .chain(bits.iter().copied())
            .collect();
        padded.chunks(8).fold(0, |crc, byte| {
            step_byte(
                crc,
                byte.iter().fold(0u8, |b, &bit| (b << 1) | u8::from(bit)),
            )
        })
    }

    #[test]
    fn table_path_matches_bit_serial_at_every_length() {
        // Pseudo-random bit pattern long enough to exercise every front
        // padding at many lengths.
        let bits: Vec<bool> = (0..200u32)
            .map(|i| (i.wrapping_mul(0x9E37) >> 7) & 1 == 1)
            .collect();
        for end in 0..=bits.len() {
            assert_eq!(
                table_crc(&bits[..end]),
                crc15(&bits[..end]),
                "divergence at length {end}"
            );
        }
    }

    #[test]
    fn table_entry_zero_is_zero() {
        // Feeding a zero byte into a zero register must leave it zero, or
        // step_byte's shift/fold identity and the codec's zero padding would
        // not hold.
        assert_eq!(CRC_TABLE[0], 0);
        assert_eq!(step_byte(0, 0), 0);
        assert_eq!(table_crc(&[false; 128]), 0);
    }

    #[test]
    fn crc_distinguishes_known_patterns() {
        // Regression anchors: fixed expected values computed from this
        // implementation, locking the polynomial and bit order.
        let a: Vec<bool> = bits_of(0x01);
        let b: Vec<bool> = bits_of(0x02);
        assert_ne!(crc15(&a), crc15(&b));
        // one '1' followed by seven zeros: POLY advanced 7 shifts
        assert_eq!(crc15(&bits_of(0x80)), 0x2213);
        assert_eq!(step_byte(0, 0x80), 0x2213);
    }
}
