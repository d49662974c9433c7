//! The CCA-secure KEM: Fujisaki–Okamoto transform with re-encryption and
//! implicit rejection.
//!
//! The paper evaluates the CCA version of LAC (Table II), whose
//! decapsulation re-encrypts the decrypted message and compares the result
//! against the received ciphertext — this re-encryption is why LAC's
//! decapsulation contains a second full encryption pipeline.

use crate::backend::Backend;
use crate::keys::{Ciphertext, PublicKey, SecretKey};
use crate::pke::Lac;
use crate::{DecodeError, Params, MESSAGE_BYTES, SEED_BYTES};
use lac_meter::{Meter, Op, Phase};
use lac_rand::Rng;

/// Domain-separation prefixes for the FO hashes.
const DOMAIN_PK_HASH: u8 = 0x50;
const DOMAIN_CONFIRM: u8 = 0x47;
const DOMAIN_ENC_SEED: u8 = 0x53;
const DOMAIN_SHARED_KEY: u8 = 0x4b;

/// A KEM public key (wraps the PKE public key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KemPublicKey {
    pub(crate) pk: PublicKey,
}

impl KemPublicKey {
    /// The wrapped PKE public key.
    pub fn pke(&self) -> &PublicKey {
        &self.pk
    }

    /// Serialize (same format as the PKE public key).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.pk.to_bytes()
    }

    /// Deserialize.
    ///
    /// # Errors
    ///
    /// Propagates [`DecodeError`] from the PKE key parser.
    pub fn from_bytes(params: &Params, bytes: &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            pk: PublicKey::from_bytes(params, bytes)?,
        })
    }
}

/// A KEM secret key: the PKE secret, a copy of the public key (needed for
/// re-encryption) and the implicit-rejection secret `z`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KemSecretKey {
    pub(crate) sk: SecretKey,
    pub(crate) pk: PublicKey,
    pub(crate) z: [u8; SEED_BYTES],
}

impl KemSecretKey {
    /// The wrapped PKE secret key.
    pub fn pke(&self) -> &SecretKey {
        &self.sk
    }

    /// Serialize: sk ‖ pk ‖ z.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.sk.to_bytes();
        out.extend_from_slice(&self.pk.to_bytes());
        out.extend_from_slice(&self.z);
        out
    }

    /// Deserialize.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Length`] or propagates coefficient errors.
    pub fn from_bytes(params: &Params, bytes: &[u8]) -> Result<Self, DecodeError> {
        let expected = params.kem_secret_key_bytes();
        if bytes.len() != expected {
            return Err(DecodeError::Length {
                expected,
                got: bytes.len(),
            });
        }
        let sk_len = params.secret_key_bytes();
        let pk_len = params.public_key_bytes();
        let sk = SecretKey::from_bytes(params, &bytes[..sk_len])?;
        let pk = PublicKey::from_bytes(params, &bytes[sk_len..sk_len + pk_len])?;
        let mut z = [0u8; SEED_BYTES];
        z.copy_from_slice(&bytes[sk_len + pk_len..]);
        Ok(Self { sk, pk, z })
    }
}

/// A freshly generated KEM key pair.
pub type KemKeyPair = (KemPublicKey, KemSecretKey);

/// A 256-bit shared secret.
#[derive(Clone, PartialEq, Eq)]
pub struct SharedSecret([u8; MESSAGE_BYTES]);

impl SharedSecret {
    /// View the secret bytes.
    pub fn as_bytes(&self) -> &[u8; MESSAGE_BYTES] {
        &self.0
    }
}

impl std::fmt::Debug for SharedSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the secret value.
        f.write_str("SharedSecret(..)")
    }
}

/// The CCA-secure LAC KEM.
///
/// # Example
///
/// ```
/// use lac::{Kem, Params, SoftwareBackend};
/// use lac_meter::NullMeter;
/// use lac_rand::Sha256CtrRng;
///
/// let kem = Kem::new(Params::lac192());
/// let mut b = SoftwareBackend::constant_time();
/// let mut rng = Sha256CtrRng::seed_from_u64(3);
/// let (pk, sk) = kem.keygen(&mut rng, &mut b, &mut NullMeter);
/// let (ct, k1) = kem.encapsulate(&mut rng, &pk, &mut b, &mut NullMeter);
/// let k2 = kem.decapsulate(&sk, &ct, &mut b, &mut NullMeter);
/// assert_eq!(k1, k2);
/// ```
#[derive(Debug, Clone)]
pub struct Kem {
    lac: Lac,
}

impl Kem {
    /// Instantiate the KEM for a parameter set (reference sampler).
    pub fn new(params: Params) -> Self {
        Self {
            lac: Lac::new(params),
        }
    }

    /// Instantiate with an explicit fixed-weight sampler (see
    /// [`crate::SamplerKind`]).
    pub fn with_sampler(params: Params, sampler: crate::SamplerKind) -> Self {
        Self {
            lac: Lac::with_sampler(params, sampler),
        }
    }

    /// The underlying PKE scheme.
    pub fn pke(&self) -> &Lac {
        &self.lac
    }

    /// The parameter set.
    pub fn params(&self) -> &Params {
        self.lac.params()
    }

    /// Generate a key pair.
    pub fn keygen<B: Backend + ?Sized, R: Rng>(
        &self,
        rng: &mut R,
        backend: &mut B,
        meter: &mut dyn Meter,
    ) -> KemKeyPair {
        let (pk, sk) = self.lac.keygen(rng, backend, meter);
        let mut z = [0u8; SEED_BYTES];
        rng.fill_bytes(&mut z);
        (KemPublicKey { pk: pk.clone() }, KemSecretKey { sk, pk, z })
    }

    fn hash_with_domain<B: Backend + ?Sized>(
        &self,
        backend: &mut B,
        domain: u8,
        parts: &[&[u8]],
        meter: &mut dyn Meter,
    ) -> [u8; 32] {
        meter.enter(Phase::Hash);
        let mut input = Vec::with_capacity(1 + parts.iter().map(|p| p.len()).sum::<usize>());
        input.push(domain);
        for p in parts {
            input.extend_from_slice(p);
        }
        let out = backend.hash(&input, meter);
        meter.leave();
        out
    }

    /// Encapsulate: derive a fresh shared secret and the ciphertext
    /// transporting it.
    pub fn encapsulate<B: Backend + ?Sized, R: Rng>(
        &self,
        rng: &mut R,
        pk: &KemPublicKey,
        backend: &mut B,
        meter: &mut dyn Meter,
    ) -> (Ciphertext, SharedSecret) {
        let mut m = [0u8; MESSAGE_BYTES];
        rng.fill_bytes(&mut m);
        let (ct, secret) = self.encapsulate_message(&m, pk, backend, meter);
        (ct, secret)
    }

    /// Deterministic encapsulation of a caller-chosen message (exposed for
    /// known-answer tests; `encapsulate` is the normal entry point).
    pub fn encapsulate_message<B: Backend + ?Sized>(
        &self,
        m: &[u8; MESSAGE_BYTES],
        pk: &KemPublicKey,
        backend: &mut B,
        meter: &mut dyn Meter,
    ) -> (Ciphertext, SharedSecret) {
        let pk_bytes = pk.to_bytes();
        let pkh = self.hash_with_domain(backend, DOMAIN_PK_HASH, &[&pk_bytes], meter);
        let confirm = self.hash_with_domain(backend, DOMAIN_CONFIRM, &[m, &pkh], meter);
        let enc_seed = self.hash_with_domain(backend, DOMAIN_ENC_SEED, &[m, &pkh], meter);
        let ct = self.lac.encrypt(&pk.pk, m, &enc_seed, backend, meter);
        let ct_bytes = ct.to_bytes();
        let key = self.hash_with_domain(backend, DOMAIN_SHARED_KEY, &[&confirm, &ct_bytes], meter);
        (ct, SharedSecret(key))
    }

    /// Decapsulate: decrypt, re-encrypt, compare, and either derive the real
    /// key or (on mismatch) the implicit-rejection key — branchlessly.
    pub fn decapsulate<B: Backend + ?Sized>(
        &self,
        sk: &KemSecretKey,
        ct: &Ciphertext,
        backend: &mut B,
        meter: &mut dyn Meter,
    ) -> SharedSecret {
        let (m, _info) = self.lac.decrypt(&sk.sk, ct, backend, meter);

        // Re-encrypt with the seed derived from the decrypted message.
        let pk_bytes = sk.pk.to_bytes();
        let pkh = self.hash_with_domain(backend, DOMAIN_PK_HASH, &[&pk_bytes], meter);
        let confirm = self.hash_with_domain(backend, DOMAIN_CONFIRM, &[&m, &pkh], meter);
        let enc_seed = self.hash_with_domain(backend, DOMAIN_ENC_SEED, &[&m, &pkh], meter);
        let ct2 = self.lac.encrypt(&sk.pk, &m, &enc_seed, backend, meter);

        // Constant-time ciphertext comparison.
        meter.enter(Phase::Compare);
        let ct_bytes = ct.to_bytes();
        let ct2_bytes = ct2.to_bytes();
        debug_assert_eq!(ct_bytes.len(), ct2_bytes.len());
        let mut diff = 0u8;
        for (a, b) in ct_bytes.iter().zip(ct2_bytes.iter()) {
            diff |= a ^ b;
        }
        meter.charge(Op::Load, 2 * ct_bytes.len() as u64);
        meter.charge(Op::Alu, 2 * ct_bytes.len() as u64);
        meter.charge(Op::LoopIter, ct_bytes.len() as u64);
        // Branchless select between the confirmation value and z.
        let ok_mask = if diff == 0 { 0xffu8 } else { 0x00 };
        let mut selected = [0u8; 32];
        for i in 0..32 {
            selected[i] = (confirm[i] & ok_mask) | (sk.z[i] & !ok_mask);
        }
        meter.charge(Op::Alu, 4 * 32);
        meter.leave();

        let key = self.hash_with_domain(backend, DOMAIN_SHARED_KEY, &[&selected, &ct_bytes], meter);
        SharedSecret(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AcceleratedBackend, BackendKind, SoftwareBackend};
    use lac_meter::{CycleLedger, NullMeter};
    use lac_rand::Sha256CtrRng;

    fn kem_roundtrip(params: Params, backend: &mut dyn Backend, seed: u64) {
        let kem = Kem::new(params);
        let mut rng = Sha256CtrRng::seed_from_u64(seed);
        let (pk, sk) = kem.keygen(&mut rng, backend, &mut NullMeter);
        let (ct, k1) = kem.encapsulate(&mut rng, &pk, backend, &mut NullMeter);
        let k2 = kem.decapsulate(&sk, &ct, backend, &mut NullMeter);
        assert_eq!(k1, k2, "{} seed {seed}", params.name());
    }

    #[test]
    fn roundtrip_all_params_and_backends() {
        for kind in BackendKind::ALL {
            for params in Params::ALL {
                for seed in (0..4).chain(40..42).chain([44, 77]) {
                    kem_roundtrip(params, kind.build().as_mut(), seed);
                }
            }
        }
    }

    #[test]
    fn backends_derive_identical_secrets() {
        let kem = Kem::new(Params::lac128());
        let mut sw = SoftwareBackend::constant_time();
        let mut hw = AcceleratedBackend::new();
        let mut rng = Sha256CtrRng::seed_from_u64(5);
        let (pk, sk) = kem.keygen(&mut rng, &mut sw, &mut NullMeter);
        let m = [0x13u8; 32];
        let (ct_sw, k_sw) = kem.encapsulate_message(&m, &pk, &mut sw, &mut NullMeter);
        let (ct_hw, k_hw) = kem.encapsulate_message(&m, &pk, &mut hw, &mut NullMeter);
        assert_eq!(ct_sw, ct_hw);
        assert_eq!(k_sw, k_hw);
        assert_eq!(kem.decapsulate(&sk, &ct_sw, &mut hw, &mut NullMeter), k_sw);
    }

    #[test]
    fn tampered_ciphertext_rejects_implicitly() {
        let kem = Kem::new(Params::lac128());
        let mut b = SoftwareBackend::constant_time();
        let mut rng = Sha256CtrRng::seed_from_u64(6);
        let (pk, sk) = kem.keygen(&mut rng, &mut b, &mut NullMeter);
        let (ct, k1) = kem.encapsulate(&mut rng, &pk, &mut b, &mut NullMeter);

        // Flip low bits of many u coefficients: decryption noise swallows a
        // couple, so corrupt enough to change the decrypted message.
        let mut bytes = ct.to_bytes();
        for byte in bytes.iter_mut().take(200) {
            *byte = (*byte).wrapping_add(100) % 251;
        }
        let evil = Ciphertext::from_bytes(kem.params(), &bytes).unwrap();
        let k2 = kem.decapsulate(&sk, &evil, &mut b, &mut NullMeter);
        assert_ne!(k1, k2, "tampering must change the derived key");
    }

    #[test]
    fn implicit_rejection_is_deterministic() {
        let kem = Kem::new(Params::lac128());
        let mut b = SoftwareBackend::constant_time();
        let mut rng = Sha256CtrRng::seed_from_u64(7);
        let (pk, sk) = kem.keygen(&mut rng, &mut b, &mut NullMeter);
        let (ct, _) = kem.encapsulate(&mut rng, &pk, &mut b, &mut NullMeter);
        let mut bytes = ct.to_bytes();
        bytes[0] ^= 0x30;
        let evil = Ciphertext::from_bytes(kem.params(), &bytes).unwrap();
        let k1 = kem.decapsulate(&sk, &evil, &mut b, &mut NullMeter);
        let k2 = kem.decapsulate(&sk, &evil, &mut b, &mut NullMeter);
        assert_eq!(k1, k2, "implicit rejection must be deterministic");
    }

    #[test]
    fn secret_keys_serialize_roundtrip() {
        let kem = Kem::new(Params::lac192());
        let mut b = SoftwareBackend::constant_time();
        let mut rng = Sha256CtrRng::seed_from_u64(8);
        let (pk, sk) = kem.keygen(&mut rng, &mut b, &mut NullMeter);
        let pk2 = KemPublicKey::from_bytes(kem.params(), &pk.to_bytes()).unwrap();
        assert_eq!(pk, pk2);
        let sk2 = KemSecretKey::from_bytes(kem.params(), &sk.to_bytes()).unwrap();
        assert_eq!(sk, sk2);
        assert_eq!(sk.to_bytes().len(), kem.params().kem_secret_key_bytes());
    }

    #[test]
    fn shared_secret_debug_is_redacted() {
        let kem = Kem::new(Params::lac128());
        let mut b = SoftwareBackend::constant_time();
        let mut rng = Sha256CtrRng::seed_from_u64(9);
        let (pk, _) = kem.keygen(&mut rng, &mut b, &mut NullMeter);
        let (_, k) = kem.encapsulate(&mut rng, &pk, &mut b, &mut NullMeter);
        assert_eq!(format!("{k:?}"), "SharedSecret(..)");
    }

    #[test]
    fn decapsulation_includes_reencryption_cost() {
        // CCA decapsulation ≈ decryption + full encryption: its Mul phase
        // must see at least three ring multiplications (1 decrypt + 2
        // re-encrypt).
        let kem = Kem::new(Params::lac128());
        let mut b = SoftwareBackend::constant_time();
        let mut rng = Sha256CtrRng::seed_from_u64(10);
        let (pk, sk) = kem.keygen(&mut rng, &mut b, &mut NullMeter);
        let (ct, _) = kem.encapsulate(&mut rng, &pk, &mut b, &mut NullMeter);

        let mut enc = CycleLedger::new();
        kem.encapsulate(&mut rng, &pk, &mut b, &mut enc);
        let mut dec = CycleLedger::new();
        kem.decapsulate(&sk, &ct, &mut b, &mut dec);
        assert!(dec.phase_total(lac_meter::Phase::Mul) > enc.phase_total(lac_meter::Phase::Mul));
    }
}
