//! Systematic BCH codes over GF(2⁹) with variable-time and constant-time
//! decoders, as used by LAC.
//!
//! LAC hides each message under lattice noise and relies on a strong binary
//! BCH code to remove the residual errors after decryption:
//!
//! * BCH(511, 367, t = 16) for LAC-128 and LAC-256,
//! * BCH(511, 439, t = 8) for LAC-192,
//!
//! both *shortened* to a 256-bit message (only the low 256 data bits are
//! used; the remaining data positions are fixed to zero and never
//! transmitted).
//!
//! Two decoders are provided, mirroring the two implementations measured in
//! Table I of the DATE 2020 paper:
//!
//! * [`BchCode::decode_variable_time`] — the NIST 2nd-round-submission style
//!   decoder: weight-driven syndromes, an early-exit Berlekamp–Massey, and
//!   a Chien search over all n exponents at a fixed charge per point plus
//!   a charge per root. Its modelled cycle count **depends on the error
//!   pattern**, which is the timing side channel of D'Anvers et al.;
//! * [`BchCode::decode_constant_time`] — a Walters–Roy style decoder:
//!   branchless syndromes over the full code length, a fixed-iteration
//!   inversion-free Berlekamp–Massey, and a full-range Chien search. Its
//!   modelled cycle count is **independent of the error pattern**.
//!
//! Both decoders share the same algebra, correct up to `t` errors and
//! return the same [`Decoded`] — as does the accelerated pipeline in
//! `lac-hw`, which is [`ct::decode_with`] run with the *MUL CHIEN* unit's
//! search, so the decoder is a cost-model choice, not a type. All three
//! take their syndromes and Chien values from [`kernel`], computed once
//! and branch-free, and charge their modelled loops in closed form.
//!
//! # Example
//!
//! ```
//! use lac_bch::BchCode;
//! use lac_meter::NullMeter;
//!
//! let code = BchCode::lac_t16();
//! let msg = [0x5au8; 32];
//! let mut cw = code.encode(&msg, &mut NullMeter);
//! cw[10] ^= 1; // inject a parity error
//! cw[200] ^= 1; // and a message error
//! let out = code.decode_constant_time(&cw, &mut NullMeter);
//! assert_eq!(out.message, msg);
//! ```

#![warn(missing_docs)]

mod constant_time;
pub mod kernel;
mod variable_time;

/// The constant-time decode pipeline with a pluggable Chien step, for the
/// hardware-accelerated decoder (software syndromes and Berlekamp–Massey
/// feeding the *MUL CHIEN* unit).
pub mod ct {
    pub use crate::constant_time::decode_with;
}

use lac_gf::poly::{cyclotomic_coset, minimal_polynomial, BinPoly};
use lac_gf::Field;
use lac_meter::{Meter, Op, Phase};

/// Number of message bytes carried by the shortened code (LAC plaintext).
pub const MESSAGE_BYTES: usize = 32;

/// Number of message bits carried by the shortened code.
pub const MESSAGE_BITS: usize = 8 * MESSAGE_BYTES;

/// Outcome of a BCH decode, whichever decoder produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// The corrected 256-bit message.
    pub message: [u8; MESSAGE_BYTES],
    /// Degree of the error-locator polynomial (estimated error count).
    pub locator_degree: usize,
    /// Roots of the locator the Chien search found at transmitted
    /// positions: over the whole codeword for the software decoders, over
    /// the 256-point message window ([`BchCode::chien_window`]) for the
    /// MUL CHIEN unit (`lac_hw::ChienUnit`), which never locates an error
    /// in the parity bits.
    pub errors_located: usize,
}

/// A binary BCH code over GF(2⁹), shortened to a 256-bit message.
///
/// Codeword layout (one bit per `u8`, index = polynomial degree):
/// positions `0..parity_len()` hold the parity bits, positions
/// `parity_len()..parity_len()+256` hold the message bits. Higher positions
/// of the full 511-bit code are shortened away (always zero).
#[derive(Debug, Clone)]
pub struct BchCode {
    gf: Field,
    n: usize,
    k: usize,
    t: usize,
    generator: BinPoly,
    /// g(x) − x^r (r = n − k), coefficient j at bit j % 64 of word j / 64:
    /// the encoder's feedback taps, ⌈r/64⌉ words.
    feedback_taps: Vec<u64>,
}

impl BchCode {
    /// Construct a narrow-sense binary BCH code of length 2^m − 1 correcting
    /// `t` errors, over the given field.
    ///
    /// The generator polynomial is the least common multiple of the minimal
    /// polynomials of α¹ … α^2t, computed from cyclotomic cosets.
    ///
    /// # Panics
    ///
    /// Panics if the resulting dimension k is smaller than 256 bits (the
    /// shortened message would not fit) or if `t` is zero.
    pub fn new(gf: Field, t: usize) -> Self {
        assert!(t > 0, "t must be positive");
        let n = gf.order() as usize;
        // g(x) = lcm of minimal polynomials of α^1..α^{2t}; collect distinct
        // cyclotomic cosets to avoid repeating factors.
        let mut covered = vec![false; n];
        let mut generator = BinPoly::monomial(0); // 1
        for i in 1..=(2 * t as u32) {
            let rep = (i as usize) % n;
            if covered[rep] {
                continue;
            }
            for j in cyclotomic_coset(n as u32, i) {
                covered[j as usize] = true;
            }
            generator = generator.mul(&minimal_polynomial(&gf, i));
        }
        let deg = generator.degree().expect("generator is nonzero");
        let k = n - deg;
        assert!(
            k >= MESSAGE_BITS,
            "code dimension {k} cannot carry a {MESSAGE_BITS}-bit message"
        );
        let mut feedback_taps = vec![0u64; deg.div_ceil(64)];
        for j in 0..deg {
            feedback_taps[j / 64] |= u64::from(generator.get(j)) << (j % 64);
        }
        Self {
            gf,
            n,
            k,
            t,
            generator,
            feedback_taps,
        }
    }

    /// The BCH(511, 367, 16) code used by LAC-128 and LAC-256.
    pub fn lac_t16() -> Self {
        let code = Self::new(Field::gf512(), 16);
        debug_assert_eq!((code.n, code.k), (511, 367));
        code
    }

    /// The BCH(511, 439, 8) code used by LAC-192.
    pub fn lac_t8() -> Self {
        let code = Self::new(Field::gf512(), 8);
        debug_assert_eq!((code.n, code.k), (511, 439));
        code
    }

    /// Full (unshortened) code length n = 2^m − 1.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Code dimension k (information bits of the unshortened code).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Maximum number of correctable errors.
    pub fn t(&self) -> usize {
        self.t
    }

    /// The underlying Galois field.
    pub fn field(&self) -> &Field {
        &self.gf
    }

    /// The generator polynomial g(x).
    pub fn generator(&self) -> &BinPoly {
        &self.generator
    }

    /// Number of parity bits, n − k.
    pub fn parity_len(&self) -> usize {
        self.n - self.k
    }

    /// Length of the shortened codeword actually transmitted:
    /// `parity_len() + 256`.
    pub fn codeword_len(&self) -> usize {
        self.parity_len() + MESSAGE_BITS
    }

    /// Range of Chien-search exponents covering exactly the message bits of
    /// the shortened codeword: 256 exponents, α¹¹²…α³⁶⁷ for t = 16 and
    /// α¹⁸⁴…α⁴³⁹ for t = 8.
    ///
    /// An error at codeword position `p` corresponds to a root `α^(n−p)` of
    /// the error locator, so message positions `parity_len()..parity_len()+255`
    /// map to exponents `n − parity_len() − 255 ..= n − parity_len()`. The
    /// paper quotes α¹¹²…α³⁶⁸ / α¹⁸⁴…α⁴⁴⁰, 257 exponents: one more, α³⁶⁸ /
    /// α⁴⁴⁰, the top parity position.
    pub fn chien_window(&self) -> std::ops::RangeInclusive<u32> {
        let hi = (self.n - self.parity_len()) as u32;
        let lo = hi - (MESSAGE_BITS as u32 - 1);
        lo..=hi
    }

    /// Systematically encode a 256-bit message.
    ///
    /// Returns `codeword_len()` bits (one per `u8`, values 0/1): parity bits
    /// first, then the message bits (LSB-first within each byte).
    ///
    /// The parity is the remainder of m(x)·x^r by g(x), computed by an LFSR
    /// held in ⌈r/64⌉ words: per message bit, one word-wide shift and an
    /// XOR of g's taps under a mask built from the feedback bit, so nothing
    /// branches or indexes on the message. The cost charged to `meter`
    /// (under [`Phase::BchEncode`]) models the reference implementation's
    /// **table-driven byte-wise** encoder: per message byte, one 256-entry
    /// table lookup plus an `r`-bit register shift-xor handled word-wise —
    /// a fixed operation sequence independent of the message bits, charged
    /// once for all bytes.
    pub fn encode<M: Meter>(&self, message: &[u8; MESSAGE_BYTES], meter: &mut M) -> Vec<u8> {
        meter.enter(Phase::BchEncode);
        let r = self.parity_len();
        let taps = &self.feedback_taps;
        let (last, top) = (taps.len() - 1, (r - 1) % 64);
        // The register holds the running remainder of m(x)·x^r mod g(x) in
        // its low r bits. Bits shifted past x^(r−1) are never fed back or
        // read, so they need no clearing.
        let mut lfsr = vec![0u64; taps.len()];
        // Feed message bits highest degree first (position k-1 .. 0); the
        // shortened positions (>= 256) are zero and contribute nothing, so
        // the software encoder skips them — as the LAC reference code does.
        for bit_index in (0..MESSAGE_BITS).rev() {
            let bit = u64::from(message[bit_index / 8] >> (bit_index % 8)) & 1;
            let feedback = 0u64.wrapping_sub(bit ^ (lfsr[last] >> top) & 1);
            let mut carry = 0;
            for (word, &tap) in lfsr.iter_mut().zip(taps) {
                let out = *word >> 63;
                *word = (*word << 1 | carry) ^ (feedback & tap);
                carry = out;
            }
        }
        // Cost model (byte-wise table-driven encoder): per message byte,
        // a table index computation, the parity-table load, and an
        // (r/32 + 1)-word register shift-xor.
        let (bytes, words) = (MESSAGE_BYTES as u64, (r as u64).div_ceil(32) + 1);
        meter.charge(Op::Load, bytes * 2); // message byte + table entry
        meter.charge(Op::Alu, bytes * 3); // index xor/shift
        meter.charge(Op::Load, bytes * words);
        meter.charge(Op::Alu, bytes * 2 * words);
        meter.charge(Op::Store, bytes * words);
        meter.charge(Op::LoopIter, bytes);
        let mut cw = vec![0u8; self.codeword_len()];
        for (j, cell) in cw[..r].iter_mut().enumerate() {
            *cell = (lfsr[j / 64] >> (j % 64)) as u8 & 1;
        }
        for i in 0..MESSAGE_BITS {
            cw[r + i] = (message[i / 8] >> (i % 8)) & 1;
        }
        meter.charge(Op::Store, self.codeword_len() as u64);
        meter.leave();
        cw
    }

    /// Extract the (possibly corrected) message bits from a codeword buffer.
    pub fn message_of(&self, cw: &[u8]) -> [u8; MESSAGE_BYTES] {
        let r = self.parity_len();
        let mut msg = [0u8; MESSAGE_BYTES];
        for i in 0..MESSAGE_BITS {
            msg[i / 8] |= (cw[r + i] & 1) << (i % 8);
        }
        msg
    }

    /// The message of `received` with every position set in `error_mask`
    /// flipped: the branchless correction both software decoders share.
    fn corrected_message(&self, received: &[u8], error_mask: &[u8]) -> [u8; MESSAGE_BYTES] {
        let corrected: Vec<u8> = received
            .iter()
            .zip(error_mask)
            .map(|(r, e)| r ^ e)
            .collect();
        self.message_of(&corrected)
    }

    /// Check that `cw` is a valid codeword (divisible by g(x)). Test helper;
    /// not used on the decode hot path.
    pub fn is_codeword(&self, cw: &[u8]) -> bool {
        assert_eq!(cw.len(), self.codeword_len());
        let p = BinPoly::from_bits(cw);
        p.rem(&self.generator).is_zero()
    }

    /// Decode with the variable-time (submission-style) decoder.
    ///
    /// Cycle costs are charged to `meter` under the `BchSyndrome` /
    /// `BchErrorLocator` / `BchChien` / `BchGlue` phases.
    ///
    /// # Panics
    ///
    /// Panics if `received.len() != codeword_len()`.
    pub fn decode_variable_time<M: Meter>(&self, received: &[u8], meter: &mut M) -> Decoded {
        variable_time::decode(self, received, meter)
    }

    /// Decode with the constant-time (Walters–Roy style) decoder.
    ///
    /// The sequence of modelled operations is independent of the error
    /// pattern.
    ///
    /// # Panics
    ///
    /// Panics if `received.len() != codeword_len()`.
    pub fn decode_constant_time<M: Meter>(&self, received: &[u8], meter: &mut M) -> Decoded {
        constant_time::decode_with(self, received, meter, constant_time::chien)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::NullMeter;

    #[test]
    fn t16_parameters_match_paper() {
        let c = BchCode::lac_t16();
        assert_eq!(c.n(), 511);
        assert_eq!(c.k(), 367);
        assert_eq!(c.t(), 16);
        assert_eq!(c.parity_len(), 144);
        assert_eq!(c.codeword_len(), 400);
        assert_eq!(c.chien_window(), 112..=367);
    }

    #[test]
    fn t8_parameters_match_paper() {
        let c = BchCode::lac_t8();
        assert_eq!(c.n(), 511);
        assert_eq!(c.k(), 439);
        assert_eq!(c.t(), 8);
        assert_eq!(c.parity_len(), 72);
        assert_eq!(c.codeword_len(), 328);
        assert_eq!(c.chien_window(), 184..=439);
    }

    #[test]
    fn generator_divides_x_n_minus_1() {
        for code in [BchCode::lac_t8(), BchCode::lac_t16()] {
            // x^511 + 1 must be divisible by g(x).
            let mut xn1 = BinPoly::monomial(511);
            xn1.set(0, true);
            assert!(xn1.rem(code.generator()).is_zero());
        }
    }

    #[test]
    fn generator_has_designed_roots() {
        // g(α^i) = 0 for i = 1..2t (the defining property of the BCH bound).
        let code = BchCode::lac_t16();
        let gf = code.field();
        let g = code.generator();
        let deg = g.degree().unwrap();
        for i in 1..=32u32 {
            let x = gf.exp(i);
            let mut acc = 0u16;
            for kk in (0..=deg).rev() {
                acc = gf.mul(acc, x) ^ u16::from(g.get(kk));
            }
            assert_eq!(acc, 0, "g(α^{i}) != 0");
        }
    }

    #[test]
    fn encode_produces_valid_codeword() {
        use lac_rand::{prop, Rng};
        // For a given message exactly one word of this length is divisible
        // by g(x) and carries the message: two such words differ by a
        // multiple of g(x) of degree below r, which is zero.
        prop::check("bch_encode_produces_valid_codeword", 32, |rng| {
            for code in [BchCode::lac_t8(), BchCode::lac_t16()] {
                let mut msg = [0u8; 32];
                rng.fill_bytes(&mut msg);
                let cw = code.encode(&msg, &mut NullMeter);
                prop::ensure_eq(cw.len(), code.codeword_len())?;
                prop::ensure(cw.iter().all(|&b| b <= 1), "a cell is not a bit")?;
                prop::ensure(code.is_codeword(&cw), "not divisible by g(x)")?;
                prop::ensure_eq(code.message_of(&cw), msg)?;
            }
            Ok(())
        });
    }

    #[test]
    fn encode_is_systematic() {
        let code = BchCode::lac_t16();
        let mut msg = [0u8; 32];
        msg[0] = 0b1010_0101;
        msg[31] = 0xff;
        let cw = code.encode(&msg, &mut NullMeter);
        let r = code.parity_len();
        assert_eq!(cw[r], 1); // bit 0 of msg[0]
        assert_eq!(cw[r + 1], 0);
        assert_eq!(cw[r + 2], 1);
        for i in 0..8 {
            assert_eq!(cw[r + 248 + i], 1); // msg[31] = 0xff
        }
    }

    #[test]
    fn encode_zero_message_is_all_zero() {
        let code = BchCode::lac_t16();
        let cw = code.encode(&[0u8; 32], &mut NullMeter);
        assert!(cw.iter().all(|&b| b == 0));
    }

    #[test]
    fn encode_is_linear() {
        // encode(a) XOR encode(b) = encode(a XOR b) for systematic linear codes.
        let code = BchCode::lac_t8();
        let a = [0x12u8; 32];
        let b = [0xb7u8; 32];
        let mut ab = [0u8; 32];
        for i in 0..32 {
            ab[i] = a[i] ^ b[i];
        }
        let ca = code.encode(&a, &mut NullMeter);
        let cb = code.encode(&b, &mut NullMeter);
        let cab = code.encode(&ab, &mut NullMeter);
        let xored: Vec<u8> = ca.iter().zip(&cb).map(|(x, y)| x ^ y).collect();
        assert_eq!(xored, cab);
    }

    #[test]
    fn encode_cost_is_metered() {
        let code = BchCode::lac_t16();
        let mut ledger = lac_meter::CycleLedger::new();
        code.encode(&[0xaau8; 32], &mut ledger);
        assert!(ledger.phase_total(Phase::BchEncode) > 0);
        assert_eq!(ledger.total(), ledger.phase_total(Phase::BchEncode));
    }

    #[test]
    #[should_panic(expected = "t must be positive")]
    fn zero_t_rejected() {
        BchCode::new(Field::gf512(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot carry")]
    fn too_large_t_rejected() {
        // t = 60 pushes k below 256.
        BchCode::new(Field::gf512(), 60);
    }

    #[test]
    fn prop_roundtrip_under_random_errors() {
        use lac_rand::{prop, Rng};
        prop::check("bch_roundtrip_under_random_errors", 24, |rng| {
            for code in [BchCode::lac_t8(), BchCode::lac_t16()] {
                let mut msg = [0u8; 32];
                rng.fill_bytes(&mut msg);
                let mut cw = code.encode(&msg, &mut NullMeter);
                for p in prop::distinct_positions(rng, code.codeword_len(), code.t()) {
                    cw[p] ^= 1;
                }
                let vt = code.decode_variable_time(&cw, &mut NullMeter);
                let ct = code.decode_constant_time(&cw, &mut NullMeter);
                prop::ensure_eq(vt.message, msg)?;
                prop::ensure_eq(ct.message, msg)?;
            }
            Ok(())
        });
    }
}
