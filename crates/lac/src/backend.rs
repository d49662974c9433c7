//! Execution backends: the pure-software RISCY profile vs the PQ-ALU
//! hardware accelerators.
//!
//! Table II of the paper compares LAC running as plain software on RISC-V
//! (with either the submission's variable-time BCH decoder or the
//! constant-time decoder of Walters et al.) against the same scheme driving
//! the custom `pq.*` instructions. A [`Backend`] bundles exactly the three
//! operations whose substrate differs: ring multiplication, hashing, and
//! BCH decoding. Everything else (sampling glue, packing, comparisons) is
//! identical software and is metered directly by the scheme code.
//!
//! [`BackendKind`] lists the configurations every front end offers. The
//! §VI Keccak variant is [`AcceleratedBackend::keccak`]: the same PQ-ALU
//! with a different hash unit.

use lac_bch::{BchCode, Decoded};
use lac_hw::{mul_ter, ChienUnit, KeccakUnit, MulTer, Sha256Unit};
use lac_meter::Meter;
use lac_ring::mul::{mul_ternary, mul_ternary_truncated};
use lac_ring::{Convolution, Poly, TernaryPoly};

/// Which BCH decoder a software backend uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BchDecoderKind {
    /// The NIST-submission style decoder (variable time — leaks timing).
    VariableTime,
    /// The Walters–Roy style constant-time decoder.
    ConstantTime,
}

/// The substrate LAC runs on: software or the PQ-ALU accelerators.
///
/// `Send` is a supertrait so a `Box<dyn Backend>` can move into a worker
/// thread: the serving layer (`lac-serve`) gives every worker its own
/// backend instance. All in-tree backends are plain owned data: the
/// software backend holds its BCH decoder choice, the accelerated one its
/// MUL TER unit length and its hash-unit choice — no `Rc`, no interior
/// mutability — so the bound costs nothing; see the `thread_safety` test
/// module for the audit.
pub trait Backend: Send {
    /// Negacyclic ring multiplication `t · g` in R_n.
    fn ring_mul(&mut self, t: &TernaryPoly, g: &Poly, meter: &mut dyn Meter) -> Poly;

    /// Negacyclic ring multiplication returning only the low `out_len`
    /// coefficients (the `lv`-truncated product in encryption). Both
    /// backends compute only those coefficients. The software backend is
    /// also charged only for them, as the reference implementation's loop
    /// runs `out_len` rows; the PQ-ALU backend is charged for the whole
    /// product, because the unit always reads one out.
    fn ring_mul_low(
        &mut self,
        t: &TernaryPoly,
        g: &Poly,
        out_len: usize,
        meter: &mut dyn Meter,
    ) -> Poly;

    /// SHA-256 digest. No phase is entered — callers attribute the cost.
    fn hash(&mut self, data: &[u8], meter: &mut dyn Meter) -> [u8; 32];

    /// Decode a received BCH codeword.
    fn bch_decode(&mut self, code: &BchCode, received: &[u8], meter: &mut dyn Meter) -> Decoded;
}

/// Pure-software backend with the RISCY cost model.
///
/// # Example
///
/// ```
/// use lac::{BchDecoderKind, SoftwareBackend};
///
/// let reference = SoftwareBackend::reference();
/// assert_eq!(reference.bch_decoder(), BchDecoderKind::VariableTime);
/// let ct = SoftwareBackend::constant_time();
/// assert_eq!(ct.bch_decoder(), BchDecoderKind::ConstantTime);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftwareBackend {
    bch: BchDecoderKind,
}

impl SoftwareBackend {
    /// The "LAC ref." configuration: submission-style BCH decoder.
    pub fn reference() -> Self {
        Self {
            bch: BchDecoderKind::VariableTime,
        }
    }

    /// The "LAC const. BCH" configuration: constant-time BCH decoder.
    pub fn constant_time() -> Self {
        Self {
            bch: BchDecoderKind::ConstantTime,
        }
    }

    /// Which BCH decoder this backend uses.
    pub fn bch_decoder(&self) -> BchDecoderKind {
        self.bch
    }
}

impl Backend for SoftwareBackend {
    fn ring_mul(&mut self, t: &TernaryPoly, g: &Poly, mut meter: &mut dyn Meter) -> Poly {
        mul_ternary(t, g, Convolution::Negacyclic, &mut meter)
    }

    fn ring_mul_low(
        &mut self,
        t: &TernaryPoly,
        g: &Poly,
        out_len: usize,
        mut meter: &mut dyn Meter,
    ) -> Poly {
        mul_ternary_truncated(t, g, Convolution::Negacyclic, out_len, &mut meter)
    }

    fn hash(&mut self, data: &[u8], mut meter: &mut dyn Meter) -> [u8; 32] {
        lac_sha256::sha256_metered(data, &mut meter)
    }

    fn bch_decode(
        &mut self,
        code: &BchCode,
        received: &[u8],
        mut meter: &mut dyn Meter,
    ) -> Decoded {
        match self.bch {
            BchDecoderKind::VariableTime => code.decode_variable_time(received, &mut meter),
            BchDecoderKind::ConstantTime => code.decode_constant_time(received, &mut meter),
        }
    }
}

/// The PQ-ALU backend: MUL TER (with software splitting for n = 1024),
/// a hash unit, and the constant-time decode pipeline ending in MUL
/// CHIEN.
///
/// [`new`](Self::new) is the paper's configuration with the SHA256 unit;
/// [`keccak`](Self::keccak) is the §VI future-work variant with a Keccak
/// unit (SHA3-256 as the hash) — roughly 10x the hash-unit area for a
/// large `GenA`/`Sample poly` speedup. The hash function is part of the
/// scheme, so the Keccak variant is **not interoperable** with the
/// SHA-256 backends: keys and ciphertexts derive differently. Use it for
/// the ablation study (`cargo run -p lac-bench --bin ablation_keccak`),
/// not to talk to a standard LAC peer.
///
/// # Example
///
/// ```
/// use lac::{AcceleratedBackend, Backend};
/// use lac_meter::NullMeter;
/// use lac_ring::{Poly, TernaryPoly};
///
/// let mut b = AcceleratedBackend::new();
/// let t = TernaryPoly::from_coeffs(vec![1i8; 512].into_iter().map(|_| 0).collect());
/// let g = Poly::zero(512);
/// let c = b.ring_mul(&t, &g, &mut NullMeter);
/// assert_eq!(c.coeffs().len(), 512);
/// ```
#[derive(Debug, Clone)]
pub struct AcceleratedBackend {
    mul_ter: MulTer,
    hash: HashUnit,
}

/// The PQ-ALU's hash accelerator.
#[derive(Debug, Clone)]
enum HashUnit {
    Sha256(Sha256Unit),
    Keccak(KeccakUnit),
}

impl Default for AcceleratedBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl AcceleratedBackend {
    /// A backend with the paper's length-512 MUL TER unit.
    pub fn new() -> Self {
        Self::with_unit_len(mul_ter::PAPER_LEN)
    }

    /// A backend with a custom MUL TER length (the paper discusses larger
    /// units for high-speed and smaller ones for area-limited devices).
    ///
    /// # Panics
    ///
    /// Panics if `unit_len` is zero or odd.
    pub fn with_unit_len(unit_len: usize) -> Self {
        Self {
            mul_ter: MulTer::new(unit_len),
            hash: HashUnit::Sha256(Sha256Unit::new()),
        }
    }

    /// The §VI variant: the paper's length-512 MUL TER unit and MUL
    /// CHIEN with a Keccak hash unit in place of the SHA256 unit.
    pub fn keccak() -> Self {
        Self {
            hash: HashUnit::Keccak(KeccakUnit::new()),
            ..Self::new()
        }
    }

    /// The ternary-multiplier model (for its resources).
    pub fn mul_ter(&self) -> &MulTer {
        &self.mul_ter
    }
}

impl Backend for AcceleratedBackend {
    fn ring_mul(&mut self, t: &TernaryPoly, g: &Poly, meter: &mut dyn Meter) -> Poly {
        self.ring_mul_low(t, g, t.len(), meter)
    }

    fn ring_mul_low(
        &mut self,
        t: &TernaryPoly,
        g: &Poly,
        out_len: usize,
        mut meter: &mut dyn Meter,
    ) -> Poly {
        self.mul_ter
            .ring_product(t, g, Convolution::Negacyclic, out_len, &mut meter)
            .unwrap_or_else(|| {
                panic!(
                    "ring dimension {} is not supported by a length-{} MUL TER unit",
                    t.len(),
                    self.mul_ter.len()
                )
            })
    }

    fn hash(&mut self, data: &[u8], mut meter: &mut dyn Meter) -> [u8; 32] {
        match &self.hash {
            HashUnit::Sha256(unit) => unit.digest(data, &mut meter),
            HashUnit::Keccak(unit) => unit.digest(data, &mut meter),
        }
    }

    fn bch_decode(
        &mut self,
        code: &BchCode,
        received: &[u8],
        mut meter: &mut dyn Meter,
    ) -> Decoded {
        ChienUnit::new().decode(code, received, &mut meter)
    }
}

/// One backend configuration of the paper's evaluation grid.
///
/// The one list every front end shares: [`name`](Self::name) is the CLI
/// and report spelling, [`code`](Self::code) the wire code and
/// [`label`](Self::label) the Table II row suffix. Callers
/// [`build`](Self::build) their own instance of each kind (backends are
/// cheap owned state and `Backend: Send`), so a serving worker never
/// shares one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum BackendKind {
    /// [`SoftwareBackend::reference`] — submission-style variable-time BCH.
    Ref = 1,
    /// [`SoftwareBackend::constant_time`] — Walters-style constant-time BCH.
    Ct = 2,
    /// [`AcceleratedBackend::new`] — MUL TER + SHA256 unit + MUL CHIEN.
    Hw = 3,
    /// [`AcceleratedBackend::keccak`] — the §VI Keccak-hash variant (not
    /// interoperable with the SHA-256 backends).
    HwKeccak = 4,
}

impl BackendKind {
    /// All backends, in wire-code order.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Ref,
        BackendKind::Ct,
        BackendKind::Hw,
        BackendKind::HwKeccak,
    ];

    /// CLI/wire label.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Ref => "ref",
            BackendKind::Ct => "ct",
            BackendKind::Hw => "hw",
            BackendKind::HwKeccak => "hw-keccak",
        }
    }

    /// Table II row suffix ("LAC-128 ref.", "LAC-128 opt.", ...).
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Ref => "ref.",
            BackendKind::Ct => "const. BCH",
            BackendKind::Hw => "opt.",
            BackendKind::HwKeccak => "opt. + Keccak",
        }
    }

    /// Parse a CLI label as printed by [`name`](Self::name).
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|kind| kind.name() == name)
            .ok_or_else(|| format!("unknown backend '{name}' (expected ref|ct|hw|hw-keccak)"))
    }

    /// One-byte wire code (1-based; 0 is reserved/invalid).
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.code() == code)
    }

    /// Build a fresh backend instance of this kind.
    pub fn build(self) -> Box<dyn Backend> {
        match self {
            BackendKind::Ref => Box::new(SoftwareBackend::reference()),
            BackendKind::Ct => Box::new(SoftwareBackend::constant_time()),
            BackendKind::Hw => Box::new(AcceleratedBackend::new()),
            BackendKind::HwKeccak => Box::new(AcceleratedBackend::keccak()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Kem, Params};
    use lac_meter::{CycleLedger, NullMeter};
    use lac_rand::Sha256CtrRng;
    use lac_ring::mul::{mul_full, reduce_full};

    fn sample_operands(n: usize) -> (TernaryPoly, Poly) {
        let t = TernaryPoly::from_coeffs((0..n).map(|i| [1i8, 0, -1, 0][i % 4]).collect());
        let g = Poly::from_coeffs((0..n).map(|i| (i * 17 % 251) as u8).collect());
        (t, g)
    }

    #[test]
    fn prop_backends_agree_except_the_keccak_hash() {
        use lac_rand::{prop, Rng};
        let code = BchCode::lac_t16();
        prop::check("backends_agree_except_the_keccak_hash", 4, |rng| {
            let operands: Vec<(TernaryPoly, Poly)> = [512, 1024]
                .into_iter()
                .map(|n| {
                    let t = TernaryPoly::from_coeffs(prop::vec_i8(rng, n, -1, 1));
                    (t, Poly::from_coeffs(prop::vec_u8(rng, n, 251)))
                })
                .collect();
            let mut msg = [0u8; 32];
            rng.fill_bytes(&mut msg);
            let mut cw = code.encode(&msg, &mut NullMeter);
            for p in prop::distinct_positions(rng, code.codeword_len(), code.t()) {
                cw[p] ^= 1;
            }
            let len = rng.gen_below_usize(200);
            let data = prop::bytes(rng, len);
            // Per backend: both products and the decode, their modelled
            // cost, and the digest.
            let runs = BackendKind::ALL.map(|kind| {
                let (mut backend, mut cost) = (kind.build(), CycleLedger::new());
                let products: Vec<Poly> = operands
                    .iter()
                    .map(|(t, g)| backend.ring_mul(t, g, &mut cost))
                    .collect();
                let decoded = backend.bch_decode(&code, &cw, &mut cost);
                let digest = backend.hash(&data, &mut NullMeter);
                (products, decoded, cost.total(), digest)
            });
            // The products against the reference that shares no code with
            // the product kernel.
            let expected: Vec<Poly> = operands
                .iter()
                .map(|(t, g)| reduce_full(&mul_full(t, g), t.len(), Convolution::Negacyclic))
                .collect();
            let [reference, ct, hw, keccak] = &runs;
            for run in &runs {
                prop::ensure_eq(&run.0, &expected)?;
                prop::ensure_eq(run.1.message, msg)?;
            }
            // The Keccak variant is the PQ-ALU with another hash unit: the
            // same MUL TER and Chien work at the same cost, another digest.
            prop::ensure_eq((&keccak.0, &keccak.1, keccak.2), (&hw.0, &hw.1, hw.2))?;
            prop::ensure_eq([reference.3, ct.3, hw.3], [lac_sha256::sha256(&data); 3])?;
            prop::ensure(keccak.3 != hw.3, "SHA-256 and SHA3-256 digests agree")
        });
    }

    #[test]
    fn accelerated_mul_is_cheaper() {
        let (t, g) = sample_operands(512);
        let mut sw_cost = CycleLedger::new();
        SoftwareBackend::reference().ring_mul(&t, &g, &mut sw_cost);
        let mut hw_cost = CycleLedger::new();
        AcceleratedBackend::new().ring_mul(&t, &g, &mut hw_cost);
        assert!(hw_cost.total() * 100 < sw_cost.total());
    }

    #[test]
    fn backend_kinds_round_trip_and_pin_their_labels() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_code(kind.code()), Some(kind));
            assert_eq!(BackendKind::parse(kind.name()), Ok(kind));
        }
        assert!(BackendKind::from_code(0).is_none());
        assert!(BackendKind::from_code(5).is_none());
        let err = BackendKind::parse("fpga").unwrap_err();
        assert!(err.contains("fpga") && err.contains("hw-keccak"), "{err}");
        let labels: Vec<&str> = BackendKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, ["ref.", "const. BCH", "opt.", "opt. + Keccak"]);
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn unsupported_dimension_panics() {
        let (t, g) = sample_operands(256);
        AcceleratedBackend::new().ring_mul(&t, &g, &mut NullMeter);
    }

    #[test]
    fn keccak_backend_speeds_up_gen_a() {
        use lac_meter::Phase;
        let kem = Kem::new(Params::lac128());
        let mut rng = Sha256CtrRng::seed_from_u64(45);

        let mut sha = AcceleratedBackend::new();
        let mut l_sha = CycleLedger::new();
        kem.keygen(&mut rng, &mut sha, &mut l_sha);

        let mut keccak = AcceleratedBackend::keccak();
        let mut l_keccak = CycleLedger::new();
        kem.keygen(&mut rng, &mut keccak, &mut l_keccak);

        assert!(
            l_keccak.phase_total(Phase::GenA) * 2 < l_sha.phase_total(Phase::GenA),
            "keccak GenA {} vs sha GenA {}",
            l_keccak.phase_total(Phase::GenA),
            l_sha.phase_total(Phase::GenA)
        );
    }

    #[test]
    fn not_interoperable_with_sha_backend() {
        // Deterministic keygen from the same seeds yields different keys:
        // the hash function is part of the scheme.
        let lac = crate::Lac::new(Params::lac128());
        let mut a = AcceleratedBackend::new();
        let mut b = AcceleratedBackend::keccak();
        let (pk_a, _) = lac.keygen_deterministic(&[1u8; 32], &[2u8; 32], &mut a, &mut NullMeter);
        let (pk_b, _) = lac.keygen_deterministic(&[1u8; 32], &[2u8; 32], &mut b, &mut NullMeter);
        assert_ne!(pk_a, pk_b);
    }
}

#[cfg(test)]
mod thread_safety {
    //! Send/Sync audit: every backend and every key/ciphertext type must be
    //! freely movable across threads (workers own their backend; requests
    //! carry parsed keys). These are compile-time checks — if a field ever
    //! gains `Rc`/`RefCell`/raw pointers, this module stops compiling.
    use super::*;
    use crate::{Ciphertext, Kem, KemPublicKey, KemSecretKey, Params, SharedSecret};

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn backends_and_types_are_send_and_sync() {
        assert_send::<SoftwareBackend>();
        assert_sync::<SoftwareBackend>();
        assert_send::<AcceleratedBackend>();
        assert_sync::<AcceleratedBackend>();
        // Trait objects inherit Send from the supertrait bound.
        assert_send::<Box<dyn Backend>>();
        assert_send::<KemPublicKey>();
        assert_sync::<KemPublicKey>();
        assert_send::<KemSecretKey>();
        assert_sync::<KemSecretKey>();
        assert_send::<Ciphertext>();
        assert_sync::<Ciphertext>();
        assert_send::<SharedSecret>();
        assert_send::<Kem>();
        assert_sync::<Kem>();
        assert_send::<Params>();
        assert_sync::<Params>();
    }
}
