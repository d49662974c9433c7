//! The CPA public-key encryption core (Fig. 1 of the paper).

use crate::backend::Backend;
use crate::keys::{Ciphertext, PublicKey, SecretKey};
use crate::sample::{gen_a, sample_ternary_with, SamplerKind};
use crate::{Params, MESSAGE_BYTES, SEED_BYTES};
use lac_bch::{BchCode, Decoded};
use lac_meter::{Meter, Op, Phase};
use lac_rand::Rng;
use lac_ring::Q;

/// Center value encoding a 1-bit: ⌊q/2⌋ = 125.
const HALF_Q: u16 = (Q - 1) / 2;

/// The LAC CPA encryption scheme for one parameter set.
///
/// Holds the constructed BCH code (generator polynomial) so repeated
/// operations do not rebuild it.
///
/// # Example
///
/// ```
/// use lac::{Lac, Params, SoftwareBackend};
/// use lac_meter::NullMeter;
/// use lac_rand::Sha256CtrRng;
///
/// let lac = Lac::new(Params::lac128());
/// let mut backend = SoftwareBackend::reference();
/// let mut rng = Sha256CtrRng::seed_from_u64(1);
/// let (pk, sk) = lac.keygen(&mut rng, &mut backend, &mut NullMeter);
/// let msg = [0x42u8; 32];
/// let ct = lac.encrypt(&pk, &msg, &[9u8; 32], &mut backend, &mut NullMeter);
/// let (decrypted, _) = lac.decrypt(&sk, &ct, &mut backend, &mut NullMeter);
/// assert_eq!(decrypted, msg);
/// ```
#[derive(Debug, Clone)]
pub struct Lac {
    params: Params,
    code: BchCode,
    sampler: SamplerKind,
}

impl Lac {
    /// Instantiate the scheme (constructs the BCH generator polynomial).
    /// Uses the reference rejection sampler; see [`Lac::with_sampler`].
    pub fn new(params: Params) -> Self {
        Self::with_sampler(params, SamplerKind::Rejection)
    }

    /// Instantiate with an explicit fixed-weight sampler (the
    /// [`SamplerKind::ConstantTime`] sorting network removes the last
    /// secret-dependent timing in decapsulation, at ~4x the sampling cost).
    pub fn with_sampler(params: Params, sampler: SamplerKind) -> Self {
        Self {
            code: params.bch_code(),
            params,
            sampler,
        }
    }

    /// The configured sampler.
    pub fn sampler(&self) -> SamplerKind {
        self.sampler
    }

    /// The parameter set.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The error-correcting code in use.
    pub fn bch(&self) -> &BchCode {
        &self.code
    }

    /// Deterministic key generation from two seeds: `a = GenA(seed_a)`,
    /// `s, e ← Ψ(seed_sk)`, `b = a·s + e`.
    pub fn keygen_deterministic<B: Backend + ?Sized>(
        &self,
        seed_a: &[u8; SEED_BYTES],
        seed_sk: &[u8; SEED_BYTES],
        backend: &mut B,
        meter: &mut dyn Meter,
    ) -> (PublicKey, SecretKey) {
        let n = self.params.n();
        let w = self.params.weight();
        let a = gen_a(backend, seed_a, n, meter);
        let s = sample_ternary_with(self.sampler, backend, seed_sk, 0x01, n, w, meter);
        let e = sample_ternary_with(self.sampler, backend, seed_sk, 0x02, n, w, meter);
        let b = backend
            .ring_mul(&s, &a, meter)
            .add(&e.to_poly(), &mut &mut *meter);
        (PublicKey { seed_a: *seed_a, b }, SecretKey { s })
    }

    /// Randomized key generation.
    pub fn keygen<B: Backend + ?Sized, R: Rng>(
        &self,
        rng: &mut R,
        backend: &mut B,
        meter: &mut dyn Meter,
    ) -> (PublicKey, SecretKey) {
        let mut seed_a = [0u8; SEED_BYTES];
        let mut seed_sk = [0u8; SEED_BYTES];
        rng.fill_bytes(&mut seed_a);
        rng.fill_bytes(&mut seed_sk);
        self.keygen_deterministic(&seed_a, &seed_sk, backend, meter)
    }

    /// Encrypt a 256-bit message under `pk`, deterministically from
    /// `enc_seed` (the FO transform derives this seed from the message).
    ///
    /// Pipeline: BCH-encode (+ D2 duplication), `u = a·s' + e'`,
    /// `v = (b·s')₀..lv + e'' + encode(cw)·⌊q/2⌋`, then 4-bit compression
    /// of `v`.
    pub fn encrypt<B: Backend + ?Sized>(
        &self,
        pk: &PublicKey,
        message: &[u8; MESSAGE_BYTES],
        enc_seed: &[u8; SEED_BYTES],
        backend: &mut B,
        meter: &mut dyn Meter,
    ) -> Ciphertext {
        let n = self.params.n();
        let w = self.params.weight();
        let lv = self.params.lv();
        let cw_len = self.code.codeword_len();

        let a = gen_a(backend, &pk.seed_a, n, meter);
        let s_prime = sample_ternary_with(self.sampler, backend, enc_seed, 0x01, n, w, meter);
        let e_prime = sample_ternary_with(self.sampler, backend, enc_seed, 0x02, n, w, meter);
        let e_second = sample_ternary_with(self.sampler, backend, enc_seed, 0x03, n, w, meter);

        let cw = self.code.encode(message, &mut &mut *meter);

        let u = backend
            .ring_mul(&s_prime, &a, meter)
            .add(&e_prime.to_poly(), &mut &mut *meter);

        let bs = backend.ring_mul_low(&s_prime, &pk.b, lv, meter);

        meter.enter(Phase::Serialize);
        let mut v = Vec::with_capacity(lv);
        for i in 0..lv {
            let bit = u16::from(cw[i % cw_len]);
            let noise = i32::from(e_second.coeffs()[i]);
            let raw = i32::from(bs.coeffs()[i]) + noise + i32::from(bit * HALF_Q);
            let reduced = raw.rem_euclid(i32::from(Q)) as u8;
            // 4-bit compression: keep the top nibble.
            v.push(reduced >> 4);
            meter.charge(Op::Load, 3);
            meter.charge(Op::Alu, 5);
            meter.charge(Op::Store, 1);
            meter.charge(Op::LoopIter, 1);
        }
        meter.leave();

        Ciphertext { u, v }
    }

    /// Decrypt a ciphertext: `w = v̂ − u·s`, per-coefficient threshold
    /// decoding (combining coefficient pairs under D2), then BCH decoding
    /// through the backend.
    ///
    /// Returns the message together with the decoder's [`Decoded`]; the
    /// KEM's re-encryption check is what authenticates the result.
    pub fn decrypt<B: Backend + ?Sized>(
        &self,
        sk: &SecretKey,
        ct: &Ciphertext,
        backend: &mut B,
        meter: &mut dyn Meter,
    ) -> ([u8; MESSAGE_BYTES], Decoded) {
        let lv = self.params.lv();
        let cw_len = self.code.codeword_len();
        let us = backend.ring_mul(&sk.s, &ct.u, meter);

        meter.enter(Phase::Serialize);
        // Reconstruct w_i = v̂_i − (u·s)_i for the carried coefficients.
        let mut w = Vec::with_capacity(lv);
        for i in 0..lv {
            let v_hat = i32::from(ct.v[i]) * 16 + 8;
            let diff = (v_hat - i32::from(us.coeffs()[i])).rem_euclid(i32::from(Q));
            w.push(diff as u16);
            meter.charge(Op::Load, 2);
            meter.charge(Op::Alu, 4);
            meter.charge(Op::Store, 1);
            meter.charge(Op::LoopIter, 1);
        }

        // Threshold decoding into codeword bits.
        let mut bits = vec![0u8; cw_len];
        if self.params.d2() {
            // D2: each bit is carried by coefficients i and i + cw_len;
            // decide by comparing summed distances to the 0- and 1-encodings.
            for i in 0..cw_len {
                let (w0, w1) = (w[i], w[i + cw_len]);
                let dist_to_zero = |x: u16| -> i32 { i32::from(x.min(Q - x)) };
                let dist_to_one = |x: u16| -> i32 { (i32::from(x) - i32::from(HALF_Q)).abs() };
                let d0 = dist_to_zero(w0) + dist_to_zero(w1);
                let d1 = dist_to_one(w0) + dist_to_one(w1);
                bits[i] = u8::from(d1 < d0);
                meter.charge(Op::Load, 2);
                meter.charge(Op::Alu, 10);
                meter.charge(Op::Store, 1);
                meter.charge(Op::LoopIter, 1);
            }
        } else {
            for i in 0..cw_len {
                // bit = 1 iff w ∈ (q/4, 3q/4), i.e. [63, 188].
                bits[i] = u8::from((63..=188).contains(&w[i]));
                meter.charge(Op::Load, 1);
                meter.charge(Op::Alu, 3);
                meter.charge(Op::Store, 1);
                meter.charge(Op::LoopIter, 1);
            }
        }
        meter.leave();

        let info = backend.bch_decode(&self.code, &bits, meter);
        (info.message, info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AcceleratedBackend, BackendKind, SoftwareBackend};
    use lac_meter::{CycleLedger, NullMeter};
    use lac_rand::Sha256CtrRng;

    fn roundtrip(params: Params, backend: &mut dyn Backend, seed: u64) {
        let lac = Lac::new(params);
        let mut rng = Sha256CtrRng::seed_from_u64(seed);
        let (pk, sk) = lac.keygen(&mut rng, backend, &mut NullMeter);
        let mut msg = [0u8; 32];
        rng.fill_bytes(&mut msg);
        let mut enc_seed = [0u8; 32];
        rng.fill_bytes(&mut enc_seed);
        let ct = lac.encrypt(&pk, &msg, &enc_seed, backend, &mut NullMeter);
        let (out, info) = lac.decrypt(&sk, &ct, backend, &mut NullMeter);
        assert_eq!(out, msg, "{} seed {seed}", params.name());
        assert!(
            info.locator_degree <= params.bch_t(),
            "noise exceeded BCH capability"
        );
    }

    #[test]
    fn roundtrip_all_params_and_backends() {
        for kind in BackendKind::ALL {
            for params in Params::ALL {
                for seed in (0..8).chain(100..104) {
                    roundtrip(params, kind.build().as_mut(), seed);
                }
            }
        }
    }

    #[test]
    fn software_and_accelerated_produce_identical_ciphertexts() {
        // The backends differ only in cost model, never in values.
        let lac = Lac::new(Params::lac256());
        let mut sw = SoftwareBackend::constant_time();
        let mut hw = AcceleratedBackend::new();
        let (pk_sw, sk_sw) =
            lac.keygen_deterministic(&[1u8; 32], &[2u8; 32], &mut sw, &mut NullMeter);
        let (pk_hw, sk_hw) =
            lac.keygen_deterministic(&[1u8; 32], &[2u8; 32], &mut hw, &mut NullMeter);
        assert_eq!(pk_sw, pk_hw);
        assert_eq!(sk_sw, sk_hw);
        let msg = [0xabu8; 32];
        let ct_sw = lac.encrypt(&pk_sw, &msg, &[3u8; 32], &mut sw, &mut NullMeter);
        let ct_hw = lac.encrypt(&pk_hw, &msg, &[3u8; 32], &mut hw, &mut NullMeter);
        assert_eq!(ct_sw, ct_hw);
    }

    #[test]
    fn keygen_is_deterministic() {
        let lac = Lac::new(Params::lac128());
        let mut b = SoftwareBackend::reference();
        let kp1 = lac.keygen_deterministic(&[7u8; 32], &[8u8; 32], &mut b, &mut NullMeter);
        let kp2 = lac.keygen_deterministic(&[7u8; 32], &[8u8; 32], &mut b, &mut NullMeter);
        assert_eq!(kp1, kp2);
    }

    #[test]
    fn different_messages_give_different_ciphertexts() {
        let lac = Lac::new(Params::lac128());
        let mut b = SoftwareBackend::reference();
        let mut rng = Sha256CtrRng::seed_from_u64(11);
        let (pk, _) = lac.keygen(&mut rng, &mut b, &mut NullMeter);
        let ct1 = lac.encrypt(&pk, &[0u8; 32], &[5u8; 32], &mut b, &mut NullMeter);
        let ct2 = lac.encrypt(&pk, &[1u8; 32], &[5u8; 32], &mut b, &mut NullMeter);
        assert_ne!(ct1, ct2);
    }

    #[test]
    fn encryption_is_deterministic_in_seed() {
        let lac = Lac::new(Params::lac128());
        let mut b = SoftwareBackend::reference();
        let mut rng = Sha256CtrRng::seed_from_u64(12);
        let (pk, _) = lac.keygen(&mut rng, &mut b, &mut NullMeter);
        let msg = [0x55u8; 32];
        let ct1 = lac.encrypt(&pk, &msg, &[6u8; 32], &mut b, &mut NullMeter);
        let ct2 = lac.encrypt(&pk, &msg, &[6u8; 32], &mut b, &mut NullMeter);
        assert_eq!(ct1, ct2);
    }

    #[test]
    fn mul_phase_dominates_reference_keygen() {
        // Table II shape: the n² multiplication is ~80% of reference keygen.
        let lac = Lac::new(Params::lac128());
        let mut b = SoftwareBackend::reference();
        let mut l = CycleLedger::new();
        lac.keygen_deterministic(&[1u8; 32], &[2u8; 32], &mut b, &mut l);
        assert!(l.phase_total(Phase::Mul) > l.total() / 2);
    }

    #[test]
    fn wrong_secret_fails_to_decrypt() {
        let lac = Lac::new(Params::lac128());
        let mut b = SoftwareBackend::constant_time();
        let mut rng = Sha256CtrRng::seed_from_u64(13);
        let (pk, _) = lac.keygen(&mut rng, &mut b, &mut NullMeter);
        let (_, sk_other) = lac.keygen(&mut rng, &mut b, &mut NullMeter);
        let msg = [0x99u8; 32];
        let ct = lac.encrypt(&pk, &msg, &[7u8; 32], &mut b, &mut NullMeter);
        let (out, _) = lac.decrypt(&sk_other, &ct, &mut b, &mut NullMeter);
        assert_ne!(out, msg);
    }
}
