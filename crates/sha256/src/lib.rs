//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! LAC uses SHA-256 both as its hash (the G and H oracles of the FO
//! transform) and, in counter mode, as the pseudo-random generator expanding
//! seeds into the public polynomial `a` and into the ternary secret/error
//! polynomials. The DATE 2020 paper accelerates exactly this function with a
//! dedicated SHA256 unit (Section IV), so the software baseline must be
//! metered: [`Sha256::update_metered`] charges the modelled RISCY cost of the
//! compression function per processed block.
//!
//! Every user — [`Expander`], the FO hashes, `lac_hw::Sha256Unit` and the
//! ISS's `pq.sha256` — folds its blocks through one compression function.
//! On x86-64 hosts whose CPU reports the SHA extensions and SSE4.1 it runs
//! on those instructions; on every other host it runs the portable body,
//! which the tests also use as the oracle. The host body never changes a
//! charge: the meter is charged the portable RISCY compression's cost per
//! block either way, so the modelled cycles are the same on every host.
//!
//! # Example
//!
//! ```
//! use lac_sha256::sha256;
//!
//! let digest = sha256(b"abc");
//! assert_eq!(digest[..4], [0xba, 0x78, 0x16, 0xbf]);
//! ```

#![warn(missing_docs)]

mod expand;

pub use expand::Expander;

use lac_meter::{Meter, NullMeter, Op};

/// Initial hash values H(0): the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants K: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
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

/// Modelled RISCY cycles charged per 64-byte compressed block.
///
/// Derived from the operation structure of `compress`: 16 word loads, a
/// 48-step message schedule (two sigma functions, ~12 ALU ops + schedule
/// loads/stores + loop overhead each) and 64 rounds (~22 ALU ops, a K/W load
/// pair and loop overhead each), plus state load/store. With the cost table
/// in `lac_meter::cost` this totals ≈ 3.3k cycles/block, in line with
/// portable C SHA-256 on RV32.
fn charge_block<M: Meter>(meter: &mut M) {
    // Load 16 message words (byte loads + shifts folded into Load+Alu).
    meter.charge(Op::Load, 16);
    meter.charge(Op::Alu, 16 * 3);
    // Message schedule: 48 iterations.
    meter.charge(Op::LoopIter, 48);
    meter.charge(Op::Load, 48 * 4); // w[t-2], w[t-7], w[t-15], w[t-16]
    meter.charge(Op::Alu, 48 * 12); // 2 sigmas (3 rot/shift + 2 xor each) + 2 adds
    meter.charge(Op::Store, 48);
    // 64 rounds.
    meter.charge(Op::LoopIter, 64);
    meter.charge(Op::Load, 64 * 2); // K[t], W[t]
    meter.charge(Op::Alu, 64 * 22); // Sigma0/Sigma1/Ch/Maj + working-variable updates
                                    // Feed-forward of the 8 state words.
    meter.charge(Op::Load, 8);
    meter.charge(Op::Alu, 8);
    meter.charge(Op::Store, 8);
    meter.charge(Op::Call, 1);
}

#[inline(always)]
fn small_sigma0(x: u32) -> u32 {
    x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
}

#[inline(always)]
fn small_sigma1(x: u32) -> u32 {
    x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
}

#[inline(always)]
fn big_sigma0(x: u32) -> u32 {
    x.rotate_right(2) ^ x.rotate_right(13) ^ x.rotate_right(22)
}

#[inline(always)]
fn big_sigma1(x: u32) -> u32 {
    x.rotate_right(6) ^ x.rotate_right(11) ^ x.rotate_right(25)
}

/// The SHA-256 compression function: fold one 64-byte block into `state`.
///
/// On x86-64 hosts whose CPU reports the SHA extensions and SSE4.1 it runs
/// [`sha_ni::compress`] on those instructions; everywhere else it runs
/// [`compress_portable`]. Both compute the same function, so no digest
/// depends on the host, and [`charge_block`] charges the RISCY software
/// cost of a portable compression whichever body the host ran.
#[inline]
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sha") && std::arch::is_x86_feature_detected!("sse4.1") {
        // SAFETY: `sha_ni::compress` needs the `sha` and `sse4.1` target
        // features, and the CPU has just reported both.
        unsafe { sha_ni::compress(state, block) };
        return;
    }
    compress_portable(state, block);
}

/// The portable compression: FIPS 180-4's message schedule and 64 rounds
/// in plain 32-bit arithmetic. It runs on hosts without the SHA extensions
/// and is the tests' oracle for [`sha_ni::compress`]. No branch or index
/// depends on the state or the block.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (t, chunk) in block.chunks_exact(4).enumerate() {
        w[t] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for t in 16..64 {
        w[t] = small_sigma1(w[t - 2])
            .wrapping_add(w[t - 7])
            .wrapping_add(small_sigma0(w[t - 15]))
            .wrapping_add(w[t - 16]);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let t1 = h
            .wrapping_add(big_sigma1(e))
            .wrapping_add((e & f) ^ (!e & g))
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let t2 = big_sigma0(a).wrapping_add((a & b) ^ (a & c) ^ (b & c));
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The compression on the x86-64 SHA extensions (`sha256rnds2`,
/// `sha256msg1`, `sha256msg2`).
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// The first 16 bytes of `words` as one vector.
    #[inline(always)]
    fn load<T>(words: &[T]) -> __m128i {
        assert!(std::mem::size_of_val(words) >= 16);
        // SAFETY: SSE2 is part of x86-64, and the assert keeps the
        // unaligned 16-byte read inside `words`.
        unsafe { _mm_loadu_si128(words.as_ptr().cast()) }
    }

    /// Write `v` to the first four words of `words`.
    #[inline(always)]
    fn store(words: &mut [u32], v: __m128i) {
        assert!(words.len() >= 4);
        // SAFETY: SSE2 is part of x86-64, and the assert keeps the
        // unaligned 16-byte write inside `words`.
        unsafe { _mm_storeu_si128(words.as_mut_ptr().cast(), v) }
    }

    /// Fold one 64-byte block into `state`, as `compress_portable` does.
    ///
    /// The registers hold the state as ABEF and CDGH, the layout
    /// `sha256rnds2` takes. Each `four_rounds!` runs two `sha256rnds2`,
    /// each fed two words of W + K, while the message schedule derives
    /// four later words of W from the last sixteen. The sixteen groups are
    /// written out, so nothing branches or indexes at run time.
    ///
    /// # Safety
    ///
    /// The CPU must support the `sha` and `sse4.1` target features.
    #[target_feature(enable = "sha,sse4.1")]
    // The schedule branches of the last groups are never taken, so the
    // assignments in them are never read.
    #[allow(unused_assignments)]
    pub(super) unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte order within each 32-bit word: the block is big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let message = |offset: usize| _mm_shuffle_epi8(load(&block[offset..offset + 16]), bswap);
        let k = |group: usize| load(&K[4 * group..4 * group + 4]);

        let cdab = _mm_shuffle_epi32(load(&state[..4]), 0xb1);
        let efgh = _mm_shuffle_epi32(load(&state[4..]), 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        let (abef_in, cdgh_in) = (abef, cdgh);

        // W[4g..4g + 4] is in `$cur` at group g; `$next` and `$prev` hold
        // the words of the groups after and before it.
        let (mut m0, mut m1, mut m2, mut m3) = (message(0), message(16), message(32), message(48));
        macro_rules! four_rounds {
            ($group:literal, $cur:ident, $next:ident, $prev:ident) => {
                let wk = _mm_add_epi32($cur, k($group));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                if (3..15).contains(&$group) {
                    let w_minus_7 = _mm_alignr_epi8($cur, $prev, 4);
                    $next = _mm_sha256msg2_epu32(_mm_add_epi32($next, w_minus_7), $cur);
                }
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                if (1..13).contains(&$group) {
                    $prev = _mm_sha256msg1_epu32($prev, $cur);
                }
            };
        }
        four_rounds!(0, m0, m1, m3);
        four_rounds!(1, m1, m2, m0);
        four_rounds!(2, m2, m3, m1);
        four_rounds!(3, m3, m0, m2);
        four_rounds!(4, m0, m1, m3);
        four_rounds!(5, m1, m2, m0);
        four_rounds!(6, m2, m3, m1);
        four_rounds!(7, m3, m0, m2);
        four_rounds!(8, m0, m1, m3);
        four_rounds!(9, m1, m2, m0);
        four_rounds!(10, m2, m3, m1);
        four_rounds!(11, m3, m0, m2);
        four_rounds!(12, m0, m1, m3);
        four_rounds!(13, m1, m2, m0);
        four_rounds!(14, m2, m3, m1);
        four_rounds!(15, m3, m0, m2);

        let feba = _mm_shuffle_epi32(_mm_add_epi32(abef, abef_in), 0x1b);
        let dchg = _mm_shuffle_epi32(_mm_add_epi32(cdgh, cdgh_in), 0xb1);
        let (dcba, hgfe) = (
            _mm_blend_epi16(feba, dchg, 0xf0),
            _mm_alignr_epi8(dchg, feba, 8),
        );
        store(&mut state[..4], dcba);
        store(&mut state[4..], hgfe);
    }
}

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use lac_sha256::{sha256, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a hasher in the initial state.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bits: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.update_metered(data, &mut NullMeter);
    }

    /// Absorb `data`, charging the modelled software cost of each compressed
    /// block to `meter`.
    pub fn update_metered<M: Meter>(&mut self, data: &[u8], meter: &mut M) {
        self.length_bits = self
            .length_bits
            .wrapping_add((data.len() as u64).wrapping_mul(8));
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                compress(&mut self.state, &block);
                charge_block(meter);
                self.buffered = 0;
            } else {
                return;
            }
        }
        while rest.len() >= 64 {
            let block: &[u8; 64] = rest[..64].try_into().expect("chunk is 64 bytes");
            compress(&mut self.state, block);
            charge_block(meter);
            rest = &rest[64..];
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finalize_metered(&mut NullMeter)
    }

    /// Finish, charging padding-block compression cost to `meter`.
    pub fn finalize_metered<M: Meter>(mut self, meter: &mut M) -> [u8; 32] {
        let length_bits = self.length_bits;
        // Padding: 0x80, zeros up to 56 mod 64, then the 64-bit length.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let pad_len = if self.buffered < 56 {
            56 - self.buffered
        } else {
            120 - self.buffered
        };
        pad[pad_len..pad_len + 8].copy_from_slice(&length_bits.to_be_bytes());
        self.update_metered(&pad[..pad_len + 8], meter);
        debug_assert_eq!(self.buffered, 0);

        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256.
///
/// # Example
///
/// ```
/// let d = lac_sha256::sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 with software cycle metering.
pub fn sha256_metered<M: Meter>(data: &[u8], meter: &mut M) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update_metered(data, meter);
    h.finalize_metered(meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::CycleLedger;

    fn hex(digest: &[u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// SHA-256 with every block folded by `compress_portable`, padded
    /// here as FIPS 180-4 §5.1.1 says, so the portable body meets the
    /// vectors on hosts where `compress` never runs it.
    fn sha256_portable(data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            compress_portable(&mut state, block.try_into().expect("64-byte chunk"));
        }
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Each FIPS 180-4 / NIST CAVP vector through `sha256` (the dispatched
    /// compression) and through `sha256_portable`.
    fn assert_vector(data: &[u8], expect: &str) {
        assert_eq!(hex(&sha256(data)), expect, "dispatched");
        assert_eq!(hex(&sha256_portable(data)), expect, "portable");
    }

    #[test]
    fn nist_vector_empty() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn nist_vector_two_blocks() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_vector_million_a() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 56-byte padding boundary exercise both padding
        // branches; compare one-shot against byte-at-a-time incremental
        // and against the portable compression.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 121] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let one_shot = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), one_shot, "len {len}");
            assert_eq!(sha256_portable(&data), one_shot, "len {len}");
        }
    }

    /// The dispatched `compress` against `compress_portable` on random
    /// states and blocks. On a host without the SHA extensions `compress`
    /// runs `compress_portable`, so there this compares the portable body
    /// with itself, and only the FIPS vectors above check it.
    #[test]
    fn prop_dispatched_compress_matches_portable() {
        use lac_rand::{prop, Rng};
        prop::check("sha256_dispatched_compress_matches_portable", 256, |rng| {
            let state: [u32; 8] = std::array::from_fn(|_| rng.next_u32());
            let block: [u8; 64] = prop::bytes(rng, 64).try_into().expect("64 bytes");
            let (mut dispatched, mut portable) = (state, state);
            compress(&mut dispatched, &block);
            compress_portable(&mut portable, &block);
            prop::ensure_eq(dispatched, portable)
        });
    }

    #[test]
    fn incremental_matches_one_shot_at_all_splits() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let reference = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), reference, "split at {split}");
        }
    }

    #[test]
    fn metered_digest_matches_unmetered() {
        let mut ledger = CycleLedger::new();
        let data = [7u8; 200];
        assert_eq!(sha256_metered(&data, &mut ledger), sha256(&data));
        assert!(ledger.total() > 0);
    }

    #[test]
    fn metered_cost_scales_with_blocks() {
        let mut one = CycleLedger::new();
        sha256_metered(&[0u8; 1], &mut one); // 1 block (with padding)
        let mut many = CycleLedger::new();
        sha256_metered(&[0u8; 64 * 9], &mut many); // 9 data blocks + 1 padding
        let per_block = one.total();
        assert_eq!(many.total(), per_block * 10);
        // Sanity: portable C SHA-256 on RV32 costs a few thousand cycles/block.
        assert!(per_block > 2_000 && per_block < 6_000, "{per_block}");
    }

    #[test]
    fn prop_incremental_matches_one_shot() {
        use lac_rand::{prop, Rng};
        prop::check("sha256_incremental_matches_one_shot", 64, |rng| {
            let len = rng.gen_below_usize(300);
            let data = prop::bytes(rng, len);
            let mut h = Sha256::new();
            let mut offset = 0;
            while offset < data.len() {
                let chunk = rng.gen_range_usize(1..65).min(data.len() - offset);
                h.update(&data[offset..offset + chunk]);
                offset += chunk;
            }
            prop::ensure_eq(h.finalize(), sha256(&data))
        });
    }

    #[test]
    fn prop_distinct_inputs_distinct_digests() {
        use lac_rand::{prop, Rng};
        prop::check("sha256_distinct_inputs_distinct_digests", 64, |rng| {
            let len = rng.gen_range_usize(1..128);
            let mut a = prop::bytes(rng, len);
            let b = a.clone();
            let flip = rng.gen_below_usize(len);
            a[flip] ^= 1 << rng.gen_below_u32(8);
            prop::ensure(sha256(&a) != sha256(&b), "collision on 1-bit flip")
        });
    }
}
