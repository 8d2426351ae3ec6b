//! SHA-256 and HMAC-SHA-256 for policy-bundle signing.
//!
//! Self-contained implementation (FIPS 180-4 / RFC 2104), checked against
//! the standard test vectors. It exists so the update mechanism's
//! authenticity story is *executable* without pulling a crypto dependency
//! into the workspace.
//!
//! The compression function has two paths behind one private `compress`,
//! which picks one per block from the CPU it runs on:
//!
//! * on x86-64, when run-time detection reports the SHA extensions (with
//!   SSSE3 and SSE4.1), the rounds run on `sha256rnds2`/`sha256msg1`/
//!   `sha256msg2` — about six times faster per block. This is the crate's
//!   one `unsafe` call: entering a `#[target_feature]` function, whose own
//!   body is safe code with no pointer access;
//! * everywhere else — other CPUs and other architectures — the portable
//!   rounds run. They are also the reference: a unit test compresses
//!   10 000 seeded (state, block) pairs and the padded blocks of the test
//!   vectors through both paths and requires equal states, and the FIPS
//!   180-4 and RFC 4231 vectors run through whichever path the CPU selects.
//!
//! **This is simulation-grade code.** It is a straightforward, unaudited,
//! non-constant-time implementation; do not reuse it outside this research
//! repository.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Size of one SHA-256 input block in bytes (also the HMAC block size).
const BLOCK: usize = 64;

/// Computes the SHA-256 digest of `data`.
///
/// Whole blocks are compressed straight from `data`; only the padded tail
/// is copied, into a stack buffer, so hashing allocates nothing.
///
/// # Example
/// ```
/// use polsec_core::sign::{sha256, to_hex};
/// let d = sha256(b"abc");
/// assert_eq!(
///     to_hex(&d),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    finish(H0, 0, data)
}

/// Hashes `data` onward from chaining state `h`, which has already
/// absorbed `prefix_len` bytes (a whole number of blocks), and returns the
/// digest of the whole message.
fn finish(mut h: [u32; 8], prefix_len: u64, data: &[u8]) -> [u8; DIGEST_LEN] {
    let bit_len = prefix_len.wrapping_add(data.len() as u64).wrapping_mul(8);
    let (blocks, tail) = data.as_chunks::<BLOCK>();
    for block in blocks {
        compress(&mut h, block);
    }
    // tail + 0x80 + zero pad + 8-byte big-endian length: one block when the
    // tail leaves room for the nine trailing bytes, two otherwise
    let mut pad = [0u8; 2 * BLOCK];
    pad[..tail.len()].copy_from_slice(tail);
    pad[tail.len()] = 0x80;
    let padded = if tail.len() < BLOCK - 8 {
        BLOCK
    } else {
        2 * BLOCK
    };
    pad[padded - 8..padded].copy_from_slice(&bit_len.to_be_bytes());
    for block in pad[..padded].as_chunks::<BLOCK>().0 {
        compress(&mut h, block);
    }

    let mut out = [0u8; DIGEST_LEN];
    for (i, word) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The SHA-256 compression function over one 64-byte block: the CPU's SHA
/// extensions where run-time detection finds them, the portable rounds
/// otherwise. Both give the same state for every input.
#[allow(unsafe_code)]
fn compress(h: &mut [u32; 8], block: &[u8; BLOCK]) {
    #[cfg(target_arch = "x86_64")]
    if sha_extensions() {
        // SAFETY: `compress_sha_ni` is safe code whose only requirement is
        // that the CPU has the features it enables. `sha_extensions` just
        // found `sha`, `ssse3` and `sse4.1` on this CPU at run time, and
        // `sse2` is part of the x86-64 baseline.
        unsafe { compress_sha_ni(h, block) };
        return;
    }
    compress_portable(h, block);
}

/// Whether this CPU can run [`compress_sha_ni`]: run-time detection of
/// every feature it enables beyond the x86-64 baseline (cached by `std`
/// after the first call).
#[cfg(target_arch = "x86_64")]
fn sha_extensions() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// The portable SHA-256 rounds over one 64-byte block: the only path on
/// CPUs without the SHA extensions, and the reference the hardware rounds
/// are tested against.
fn compress_portable(h: &mut [u32; 8], block: &[u8; BLOCK]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *word = word.wrapping_add(v);
    }
}

/// The SHA-256 rounds over one 64-byte block on the x86 SHA extensions.
///
/// The message schedule is sixteen vectors of four words, `w[g]` holding
/// words `4g..4g + 4` (the first in lane 0); `sha256msg1`/`sha256msg2`
/// extend it four words at a time. The state lives in two vectors laid out
/// as `sha256rnds2` wants them, `abef = (a, b, e, f)` and
/// `cdgh = (c, d, g, h)`, lane 3 first. Each 4-round group adds its
/// schedule words to their round constants and runs two rounds into
/// `cdgh`, which then holds the new a, b, e, f, and two more back into
/// `abef`. Words are built with `u32::from_be_bytes` and read back lane by
/// lane, so the body loads and stores through no pointer.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(h: &mut [u32; 8], block: &[u8; BLOCK]) {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_setzero_si128,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };
    let word = |i: usize| {
        u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]) as i32
    };
    let mut w = [_mm_setzero_si128(); 16];
    for (g, wg) in w.iter_mut().take(4).enumerate() {
        *wg = _mm_set_epi32(
            word(4 * g + 3),
            word(4 * g + 2),
            word(4 * g + 1),
            word(4 * g),
        );
    }
    for g in 4..16 {
        // for words t = 4g..4g + 4: W[t - 16] + σ0(W[t - 15]) from w[g - 4]
        // and w[g - 3], plus W[t - 7] straddling w[g - 2] and w[g - 1];
        // `sha256msg2` adds σ1(W[t - 2]), two of whose words it computes
        let s0 = _mm_sha256msg1_epu32(w[g - 4], w[g - 3]);
        let w7 = _mm_alignr_epi8::<4>(w[g - 1], w[g - 2]);
        w[g] = _mm_sha256msg2_epu32(_mm_add_epi32(s0, w7), w[g - 1]);
    }
    let [a, b, c, d, e, f, g, hh] = h.map(|x| x as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, hh);
    for (group, wg) in w.into_iter().enumerate() {
        let k = |j: usize| K[4 * group + j] as i32;
        let t = _mm_add_epi32(wg, _mm_set_epi32(k(3), k(2), k(1), k(0)));
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, t);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(t));
    }
    let state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ];
    for (word, v) in h.iter_mut().zip(state) {
        *word = word.wrapping_add(v as u32);
    }
}

/// An HMAC-SHA-256 key schedule (RFC 2104 §4): the chaining states after
/// the ipad and opad blocks, computed once per key. Each [`HmacKey::mac`]
/// then compresses only the message and the inner digest — two
/// compressions for a message shorter than 56 bytes, where a from-scratch
/// HMAC needs four.
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Derives the key schedule; keys longer than a block are hashed
    /// first, as RFC 2104 requires.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let (mut inner, mut outer) = (H0, H0);
        compress(&mut inner, &key_block.map(|b| b ^ 0x36));
        compress(&mut outer, &key_block.map(|b| b ^ 0x5c));
        HmacKey { inner, outer }
    }

    /// Computes HMAC-SHA-256 of `data` under this key.
    pub fn mac(&self, data: &[u8]) -> [u8; DIGEST_LEN] {
        let inner_hash = finish(self.inner, BLOCK as u64, data);
        finish(self.outer, BLOCK as u64, &inner_hash)
    }
}

/// Key material stays out of logs: the schedule is as good as the key.
impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacKey").finish_non_exhaustive()
    }
}

/// Computes HMAC-SHA-256 of `data` under `key` (RFC 2104).
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(data)
}

/// Hex-encodes a byte slice (lowercase).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Decodes exactly `2 * N` lowercase/uppercase hex digits into `N` bytes
/// on the stack. Returns `None` for any other length, which is checked
/// before a digit is read, and for any character outside `[0-9a-fA-F]`
/// (signs and non-ASCII included). Signature strings arrive from outside
/// the device, so whatever their size, decoding one allocates nothing.
pub fn from_hex<const N: usize>(s: &str) -> Option<[u8; N]> {
    fn nibble(c: u8) -> Option<u8> {
        (c as char).to_digit(16).map(|d| d as u8)
    }
    let bytes = s.as_bytes();
    if bytes.len() != 2 * N {
        return None;
    }
    let mut out = [0u8; N];
    for (byte, pair) in out.iter_mut().zip(bytes.chunks_exact(2)) {
        *byte = (nibble(pair[0])? << 4) | nibble(pair[1])?;
    }
    Some(out)
}

/// Constant-shape comparison of two digests (length then bytes; the timing
/// properties don't matter in simulation but the API mirrors real designs).
pub fn digests_equal(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 test vectors
    #[test]
    fn sha256_empty() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_448_bit_message() {
        assert_eq!(
            to_hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_block_boundaries() {
        // 0xAB repeated N times around the 55/56/64-byte padding edges,
        // pinned against an independent implementation:
        // `head -c N /dev/zero | tr '\0' '\253' | sha256sum`
        let lens = [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129];
        let digests = [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "087d80f7f182dd44f184aa86ca34488853ebcc04f0c60d5294919a466b463831",
            "48d76eab30e51201f4f03ec7a85dab8510fb3409ccd15b54767f9b4435c9f54d",
            "a8c9906ade2a2eff868fd8f97a570bbc01a13cddc32c3dfdc9a18f0618d69e55",
            "21d063693fbba44f9ffa966466e2f94d9931b9c9519120c3804ef1ceafd989b5",
            "d1036ba30d050c74b1a5ab301fa29ff0c607a27cc55af3412577f7e06dbd190b",
            "ec65c8798ecf95902413c40f7b9e6d4b0068885f5f324aba1f9ba1c8e14aea61",
            "39cd843414d5125dd308568ace26d04e60b7fa6d2b1a901fb5184fa2eae0598b",
            "a773085d98f8978583efd89d0f06e29076a12e2e059103ec533f63e1c6f17dd7",
            "3442eea54f994b0d41c1da867e8347d69fa1a40e2d8a437dcde54dae74504922",
            "f7488c3608a1dd18b17578527c61e872803356b6b8302bc3e0f0e4ce8ad1148d",
            "80125c62d518fac6f8b487e1f784c1f12a6acc5d607d554f2e3cccf5342dd29a",
            "60e283f5bf907ec112c1ddf23a227bc3db763f4dc1fbf6366721c47abdc0b536",
        ];
        for (len, expected) in lens.into_iter().zip(digests) {
            assert_eq!(to_hex(&sha256(&vec![0xAB; len])), expected, "len {len}");
        }
    }

    // RFC 4231 HMAC-SHA-256 test vectors
    #[test]
    fn hmac_rfc4231_case1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_rfc4231_case2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_rfc4231_case3() {
        let mac = hmac_sha256(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            to_hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn hmac_rfc4231_case4() {
        let key: Vec<u8> = (0x01..=0x19).collect();
        let mac = hmac_sha256(&key, &[0xcd; 50]);
        assert_eq!(
            to_hex(&mac),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn hmac_rfc4231_case6_long_key() {
        // 131-byte key forces the key-hashing path
        let key = [0xaau8; 131];
        let mac = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            to_hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn hmac_rfc4231_case7_long_key_and_data() {
        let data = b"This is a test using a larger than block-size key and a larger \
than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let mac = hmac_sha256(&[0xaa; 131], data);
        assert_eq!(
            to_hex(&mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    /// The blocks `sha256` compresses for `msg`: the message, 0x80, zero
    /// padding and the 64-bit big-endian bit length.
    fn padded_blocks(msg: &[u8]) -> Vec<[u8; BLOCK]> {
        let mut bytes = msg.to_vec();
        bytes.push(0x80);
        while bytes.len() % BLOCK != BLOCK - 8 {
            bytes.push(0);
        }
        bytes.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        bytes.as_chunks::<BLOCK>().0.to_vec()
    }

    #[test]
    fn hardware_rounds_equal_portable_rounds() {
        #[cfg(target_arch = "x86_64")]
        let hardware = sha_extensions();
        #[cfg(not(target_arch = "x86_64"))]
        let hardware = false;
        if !hardware {
            eprintln!(
                "no x86 SHA extensions on this CPU: `compress` runs the portable rounds, \
                 so this test compares them with themselves and the test vectors check them"
            );
        }
        // `compress` (the hardware rounds where the CPU has them) against
        // the portable rounds; returns the state both reached
        let both = |h: [u32; 8], block: &[u8; BLOCK]| {
            let (mut dispatched, mut portable) = (h, h);
            compress(&mut dispatched, block);
            compress_portable(&mut portable, block);
            assert_eq!(dispatched, portable, "state {h:08x?}, block {block:02x?}");
            portable
        };

        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut xorshift = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..10_000 {
            let h: [u32; 8] = std::array::from_fn(|_| xorshift() as u32);
            let mut block = [0u8; BLOCK];
            for bytes in block.chunks_exact_mut(8) {
                bytes.copy_from_slice(&xorshift().to_le_bytes());
            }
            both(h, &block);
        }
        for block in [[0x00; BLOCK], [0xFF; BLOCK]] {
            both(H0, &block);
            both([0; 8], &block);
            both([u32::MAX; 8], &block);
        }

        // the padded blocks of the SHA-256 test vectors, chained from H0
        let mut messages = vec![
            b"".to_vec(),
            b"abc".to_vec(),
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
            vec![b'a'; 1_000_000],
        ];
        for len in [1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129] {
            messages.push(vec![0xAB; len]);
        }
        for msg in messages {
            let mut h = H0;
            for block in padded_blocks(&msg) {
                h = both(h, &block);
            }
            let digest: Vec<u8> = h.iter().flat_map(|word| word.to_be_bytes()).collect();
            assert_eq!(digest, sha256(&msg), "length {}", msg.len());
        }
    }

    #[test]
    fn hmac_key_length_boundary() {
        // A key is hashed only when it is longer than one block; RFC 4231
        // has no key at that boundary. Pinned against Python's `hmac`:
        // hmac.new(b"\x0b" * n, b"Hi There", hashlib.sha256).hexdigest()
        let lens = [63, 64, 65];
        let macs = [
            "60becd3ada41eee378b576c2e0b3cc5d7392ae1f2e70e58b44aa88ab4a562149",
            "21cd586aeca0579d99a1c938127c92525a371f807bc5ba6eb78bc825bd4f2be3",
            "727b82fba264393c5d67fd6d6ad783e9019a1fa6a857fccb70f5852f04be5d5d",
        ];
        for (len, expected) in lens.into_iter().zip(macs) {
            let mac = hmac_sha256(&vec![0x0b; len], b"Hi There");
            assert_eq!(to_hex(&mac), expected, "key length {len}");
        }
    }

    #[test]
    fn hmac_key_schedule_is_reusable_and_hides_its_state() {
        let key = HmacKey::new(b"Jefe");
        let expected = "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
        for _ in 0..2 {
            assert_eq!(to_hex(&key.mac(b"what do ya want for nothing?")), expected);
        }
        assert_eq!(format!("{key:?}"), "HmacKey { .. }");
    }

    #[test]
    fn hmac_key_sensitivity() {
        let a = hmac_sha256(b"key-a", b"payload");
        let b = hmac_sha256(b"key-b", b"payload");
        assert_ne!(a, b);
    }

    #[test]
    fn hex_round_trip() {
        let data = [0u8, 1, 0xAB, 0xFF, 0x7f];
        let hex = to_hex(&data);
        assert_eq!(from_hex::<5>(&hex), Some(data));
        assert_eq!(from_hex::<2>("abc"), None, "odd length");
        assert_eq!(from_hex::<1>("zz"), None, "non-hex");
        assert_eq!(from_hex::<0>(""), Some([]));
        assert_eq!(from_hex::<2>("AbCd"), Some([0xAB, 0xCD]), "either case");
        assert_eq!(from_hex::<2>("ab"), None, "too short");
        assert_eq!(from_hex::<2>("abcdef"), None, "too long");
    }

    #[test]
    fn from_hex_rejects_signs_and_non_ascii() {
        assert_eq!(from_hex::<1>("+f"), None, "a sign is not a hex digit");
        assert_eq!(from_hex::<1>("-f"), None);
        // four bytes, even length, but 'é' straddles the pair boundary
        assert_eq!(from_hex::<2>("a\u{e9}a"), None);
    }

    #[test]
    fn digests_equal_semantics() {
        let a = sha256(b"x");
        let mut b = a;
        assert!(digests_equal(&a, &b));
        b[31] ^= 1;
        assert!(!digests_equal(&a, &b));
        assert!(!digests_equal(&a, &a[..31]));
    }
}
