//! KEM fixtures, output checks and direct `Kem` calls, shared by the
//! kem-mix and session-chat workloads and by the layer replay.

use crate::script::{KemKind, KemOp, SplitMix};
use lac::{Backend, Ciphertext, Kem, KemPublicKey, KemSecretKey, Params};
use lac_meter::{CycleLedger, Meter, NullMeter, Phase};
use lac_rand::Sha256CtrRng;
use lac_serve::pool::{Reply, ServeConfig};
use lac_serve::BackendKind;

/// Pre-generated key pairs (with one ciphertext each) per fixture group.
pub const FIXTURES: usize = 4;

/// Paper Table II (RISCY cycles) per parameter set (`Params::ALL` order)
/// and configuration (ref., const. BCH, opt.): keygen, encaps, decaps.
pub const PAPER_TOTALS: [[[u64; 3]; 3]; 3] = [
    [
        [2_980_721, 4_969_233, 7_544_632],
        [2_981_055, 4_969_238, 7_897_403],
        [542_814, 640_237, 839_132],
    ],
    [
        [10_162_116, 13_388_940, 22_984_529],
        [10_162_502, 13_388_952, 23_126_138],
        [816_635, 1_086_148, 1_324_014],
    ],
    [
        [10_516_000, 18_165_942, 27_879_782],
        [10_515_588, 18_165_040, 28_220_945],
        [1_086_252, 1_388_366, 1_759_756],
    ],
];

/// Table II configurations in column order, as serving backends.
pub const PAPER_CONFIGS: [BackendKind; 3] = [BackendKind::Ref, BackendKind::Ct, BackendKind::Hw];

/// Paper Table II, LAC-128 Multiplication column: ref. and opt.
pub const PAPER_MUL_128: [u64; 2] = [2_381_843, 6_390];

/// The server configuration every workload uses: `lanes` workers, one
/// reactor, defaults otherwise (the ISS warm probe included).
pub fn serve_config(lanes: usize, seed: [u8; 32]) -> ServeConfig {
    ServeConfig {
        workers: lanes,
        reactors: 1,
        seed,
        ..ServeConfig::default()
    }
}

/// Interoperability family: the SHA-256 backends share key formats and
/// hashes; the Keccak backend only talks to itself.
fn family(backend: BackendKind) -> usize {
    usize::from(backend == BackendKind::HwKeccak)
}

/// The fast backend that checks a family's outputs.
fn checker(family: usize) -> BackendKind {
    [BackendKind::Hw, BackendKind::HwKeccak][family]
}

/// One pre-generated key pair and a ciphertext under it.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// Serialized public key.
    pub pk: Vec<u8>,
    /// Serialized KEM secret key.
    pub sk: Vec<u8>,
    /// Serialized ciphertext.
    pub ct: Vec<u8>,
    /// The ciphertext's shared secret.
    pub shared: [u8; 32],
}

/// Fixture groups per parameter set and family.
#[derive(Debug)]
pub struct Fixtures {
    groups: Vec<Vec<Fixture>>,
}

impl Fixtures {
    /// Generate every group from `seed` with the family's fast backend.
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix::new(seed, "kem-fixtures");
        let mut direct = Direct::new();
        let mut groups = Vec::new();
        for params in 0..Params::ALL.len() {
            for fam in 0..2 {
                let backend = checker(fam);
                let group = (0..FIXTURES)
                    .map(|_| {
                        let mut drbg = Sha256CtrRng::from_seed(rng.seed32());
                        let (kem, b) = direct.get(params, backend);
                        let (pk, sk) = kem.keygen(&mut drbg, b, &mut NullMeter);
                        let (ct, shared) = kem.encapsulate(&mut drbg, &pk, b, &mut NullMeter);
                        Fixture {
                            pk: pk.to_bytes(),
                            sk: sk.to_bytes(),
                            ct: ct.to_bytes(),
                            shared: *shared.as_bytes(),
                        }
                    })
                    .collect();
                groups.push(group);
            }
        }
        Self { groups }
    }

    /// The fixture an op uses.
    pub fn of(&self, op: &KemOp) -> &Fixture {
        &self.groups[op.params * 2 + family(op.backend)][op.fixture]
    }
}

/// Worker-like state for direct `Kem` calls: one `Kem` per parameter set
/// and one backend per kind, built once.
pub struct Direct {
    kems: Vec<Kem>,
    backends: Vec<Box<dyn Backend>>,
}

impl Default for Direct {
    fn default() -> Self {
        Self::new()
    }
}

impl Direct {
    /// Build every `Kem` and backend.
    pub fn new() -> Self {
        Self {
            kems: Params::ALL.iter().map(|&p| Kem::new(p)).collect(),
            backends: BackendKind::ALL.iter().map(|k| k.build()).collect(),
        }
    }

    /// The `Kem` for parameter set `params` and the backend `kind`.
    pub fn get(&mut self, params: usize, kind: BackendKind) -> (&Kem, &mut dyn Backend) {
        let b = BackendKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("known backend");
        (&self.kems[params], self.backends[b].as_mut())
    }

    /// Execute `op` exactly as a serving worker would — bytes in, bytes
    /// out, randomness from `root.fork(op.seq)` — charging `meter`.
    pub fn execute(
        &mut self,
        op: &KemOp,
        fixture: &Fixture,
        root: &Sha256CtrRng,
        meter: &mut dyn Meter,
    ) -> Reply {
        let p = op.params();
        let (kem, backend) = self.get(op.params, op.backend);
        match op.kind {
            KemKind::Keygen => {
                let mut rng = root.fork(op.seq);
                let (pk, sk) = kem.keygen(&mut rng, backend, meter);
                Reply::Keygen {
                    pk: pk.to_bytes(),
                    sk: sk.to_bytes(),
                }
            }
            KemKind::Encaps => {
                let pk = KemPublicKey::from_bytes(&p, &fixture.pk).expect("fixture pk");
                let mut rng = root.fork(op.seq);
                let (ct, key) = kem.encapsulate(&mut rng, &pk, backend, meter);
                Reply::Encaps {
                    ct: ct.to_bytes(),
                    shared: *key.as_bytes(),
                }
            }
            KemKind::Decaps => {
                let sk = KemSecretKey::from_bytes(&p, &fixture.sk).expect("fixture sk");
                let ct = Ciphertext::from_bytes(&p, &fixture.ct).expect("fixture ct");
                Reply::Decaps {
                    shared: *kem.decapsulate(&sk, &ct, backend, meter).as_bytes(),
                }
            }
        }
    }

    /// Whether `reply` is a correct answer to `op`:
    /// * decaps must return the fixture's shared secret;
    /// * an encapsulation must decapsulate, under the fixture's secret key,
    ///   to the shared secret it reports;
    /// * a key pair must hold its public key inside its secret key, and a
    ///   message encrypted to the public key must decrypt under the secret
    ///   key (a PKE round trip: one encryption cheaper than a KEM one).
    pub fn check(&mut self, op: &KemOp, fixture: &Fixture, reply: &Reply) -> bool {
        let p = op.params();
        let (kem, backend) = self.get(op.params, checker(family(op.backend)));
        match (op.kind, reply) {
            (KemKind::Decaps, Reply::Decaps { shared }) => *shared == fixture.shared,
            (KemKind::Encaps, Reply::Encaps { ct, shared }) => {
                let sk = KemSecretKey::from_bytes(&p, &fixture.sk).expect("fixture sk");
                match Ciphertext::from_bytes(&p, ct) {
                    Ok(ct) => {
                        kem.decapsulate(&sk, &ct, backend, &mut NullMeter)
                            .as_bytes()
                            == shared
                    }
                    Err(_) => false,
                }
            }
            (KemKind::Keygen, Reply::Keygen { pk, sk }) => {
                let (Ok(pk), Ok(sk)) = (
                    KemPublicKey::from_bytes(&p, pk),
                    KemSecretKey::from_bytes(&p, sk),
                ) else {
                    return false;
                };
                let embedded = sk.to_bytes();
                let sk_len = p.secret_key_bytes();
                if embedded[sk_len..sk_len + pk.to_bytes().len()] != pk.to_bytes()[..] {
                    return false;
                }
                let mut msg = [0u8; 32];
                msg[..8].copy_from_slice(&op.seq.to_le_bytes());
                let ct = kem
                    .pke()
                    .encrypt(pk.pke(), &msg, &[0x5a; 32], backend, &mut NullMeter);
                kem.pke().decrypt(sk.pke(), &ct, backend, &mut NullMeter).0 == msg
            }
            _ => false,
        }
    }
}

/// Modelled-cycle breakdown of a set of ops, in the paper's Table II
/// columns plus what they leave out.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CycleSplit {
    /// Ops metered.
    pub ops: u64,
    /// Total cycles.
    pub total: u64,
    /// GenA.
    pub gen_a: u64,
    /// Sample poly.
    pub sample: u64,
    /// Multiplication.
    pub mul: u64,
    /// BCH decoding (syndrome, locator, Chien, glue).
    pub bch_dec: u64,
    /// Standalone hashing.
    pub hash: u64,
    /// Everything else (BCH encoding, serialization, comparison, other).
    pub other: u64,
}

impl CycleSplit {
    /// Add one op's ledger.
    pub fn add(&mut self, ledger: &CycleLedger) {
        let ph = |p: Phase| ledger.phase_total(p);
        let bch = ph(Phase::BchSyndrome)
            + ph(Phase::BchErrorLocator)
            + ph(Phase::BchChien)
            + ph(Phase::BchGlue);
        let named =
            ph(Phase::GenA) + ph(Phase::SamplePoly) + ph(Phase::Mul) + bch + ph(Phase::Hash);
        self.ops += 1;
        self.total += ledger.total();
        self.gen_a += ph(Phase::GenA);
        self.sample += ph(Phase::SamplePoly);
        self.mul += ph(Phase::Mul);
        self.bch_dec += bch;
        self.hash += ph(Phase::Hash);
        self.other += ledger.total() - named;
    }

    /// Merge another split.
    pub fn merge(&mut self, o: &CycleSplit) {
        self.ops += o.ops;
        self.total += o.total;
        self.gen_a += o.gen_a;
        self.sample += o.sample;
        self.mul += o.mul;
        self.bch_dec += o.bch_dec;
        self.hash += o.hash;
        self.other += o.other;
    }
}

/// Modelled total cycles of one op.
pub fn modelled_cycles(
    direct: &mut Direct,
    op: &KemOp,
    fixture: &Fixture,
    root: &Sha256CtrRng,
) -> u64 {
    let mut ledger = CycleLedger::new();
    direct.execute(op, fixture, root, &mut ledger);
    ledger.total()
}

/// Mean |modelled / paper − 1| over the Table II cells `(params, config,
/// kind)` of `cells`, each metered on the first op of `script` in that
/// cell (or fixture 0 when the script has none).
pub fn model_err(
    script: &[KemOp],
    fixtures: &Fixtures,
    root: &Sha256CtrRng,
    cells: &[(usize, BackendKind, KemKind)],
) -> f64 {
    let mut direct = Direct::new();
    let mut sum = 0.0;
    for &(params, backend, kind) in cells {
        let op = script
            .iter()
            .find(|o| o.params == params && o.backend == backend && o.kind == kind)
            .copied()
            .unwrap_or(KemOp {
                seq: 0,
                params,
                backend,
                kind,
                fixture: 0,
            });
        let config = PAPER_CONFIGS
            .iter()
            .position(|&c| c == backend)
            .expect("a Table II config");
        let kind_idx = KemKind::ALL.iter().position(|&k| k == kind).expect("kind");
        let paper = PAPER_TOTALS[params][config][kind_idx] as f64;
        let cycles = modelled_cycles(&mut direct, &op, fixtures.of(&op), root) as f64;
        sum += (cycles / paper - 1.0).abs();
    }
    sum / cells.len() as f64
}

/// Every Table II total cell: 3 parameter sets × ref/ct/opt × 3 ops.
pub fn table2_cells() -> Vec<(usize, BackendKind, KemKind)> {
    let mut cells = Vec::new();
    for params in 0..Params::ALL.len() {
        for backend in PAPER_CONFIGS {
            for kind in KemKind::ALL {
                cells.push((params, backend, kind));
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script;

    #[test]
    fn direct_calls_pass_their_own_checks_and_wrong_answers_fail() {
        let fixtures = Fixtures::generate(1);
        let root = Sha256CtrRng::from_seed([3; 32]);
        let mut direct = Direct::new();
        for op in script::kem_mix(1, 40, FIXTURES) {
            if op.params() != Params::lac128() {
                continue;
            }
            let f = fixtures.of(&op);
            let reply = direct.execute(&op, f, &root, &mut NullMeter);
            assert!(direct.check(&op, f, &reply), "{op:?}");
            let wrong = match reply {
                Reply::Decaps { mut shared } => {
                    shared[0] ^= 1;
                    Reply::Decaps { shared }
                }
                Reply::Encaps { ct, mut shared } => {
                    shared[0] ^= 1;
                    Reply::Encaps { ct, shared }
                }
                Reply::Keygen { pk, mut sk } => {
                    sk[0] ^= 1;
                    Reply::Keygen { pk, sk }
                }
                Reply::Error(e) => panic!("{e}"),
            };
            assert!(
                !direct.check(&op, f, &wrong),
                "{op:?} accepted a wrong reply"
            );
        }
    }

    #[test]
    fn model_err_is_deterministic() {
        let fixtures = Fixtures::generate(2);
        let root = Sha256CtrRng::from_seed([4; 32]);
        let script = script::kem_mix(2, 300, FIXTURES);
        let cells: Vec<_> = table2_cells().into_iter().filter(|c| c.0 == 0).collect();
        let a = model_err(&script, &fixtures, &root, &cells);
        let b = model_err(&script, &fixtures, &root, &cells);
        assert_eq!(a, b);
        assert!(a > 0.0 && a < 1.0, "{a}");
    }
}
