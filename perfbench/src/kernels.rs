//! The two on-core LAC-128 decryption kernels of the iss-decrypt workload.
//!
//! Both compute the 400 BCH codeword bits of a decryption: the product
//! u·s in Z_251[x]/(x^512 + 1), then the recover loop
//! `bit_i = ((v̂_i − (u·s)_i) mod 251) ∈ [63, 188]`.
//!
//! * `ref` is plain RV32IM, like the reference C implementation: it
//!   builds the extended operand `ext[k] = 251 − u_k`, `ext[512 + k] = u_k`
//!   and runs the full schoolbook ternary multiply (every j and k), then
//!   recovers with `remu`.
//! * `opt` is the PQ-ALU kernel: it streams s and u into MUL TER, starts
//!   the multiplication, reads the product back and recovers with
//!   `pq.modq`.
//!
//! `rdcycle` brackets each phase; the readings land in registers the
//! host reads from the exit state. Each kernel is assembled once and
//! re-run by rewriting its inputs and resetting the PC.

use lac::{Ciphertext, Lac, Params, SecretKey, SoftwareBackend};
use lac_meter::NullMeter;
use lac_rand::{Rng, Sha256CtrRng};
use lac_ring::{mul::mul_ternary, Convolution};
use lac_rv32::{Engine, ExitState, Machine};

/// Carried coefficients (codeword bits) of LAC-128.
pub const LV: usize = 400;
/// The modulus.
pub const Q: u32 = 251;

const STREAM_ADDR: u32 = 0x4000; // opt: MUL TER operand stream
const S_ADDR: u32 = 0x5000; // ref: s as signed bytes
const U_ADDR: u32 = 0x6000; // ref: u
const V_ADDR: u32 = 0x8000; // both: v̂ = 16·v + 8
#[cfg(test)]
const US_ADDR: u32 = 0xA000; // both: u·s
const BITS_ADDR: u32 = 0xC000; // both: the recovered bits

/// Instruction budget per kernel run (the ref kernel retires ~2.1 M).
const FUEL: u64 = 20_000_000;

/// Plain RV32IM: schoolbook ternary multiply, then recover with `remu`.
/// Brackets: s8 = start, s9 = multiply done, s10 = recover done.
const REF_SRC: &str = r#"
        rdcycle s8
        li   t2, 0x6000            # u
        li   t4, 0x7000            # ext[0..512]  = 251 - u
        li   t5, 0x7200            # ext[512..]   = u
        li   t3, 512
        li   s2, 251
    ext:
        lbu  t0, 0(t2)
        sb   t0, 0(t5)
        sub  t1, s2, t0
        sb   t1, 0(t4)
        addi t2, t2, 1
        addi t4, t4, 1
        addi t5, t5, 1
        addi t3, t3, -1
        bnez t3, ext
        li   s3, 0                 # i
        li   s4, 512
        li   s5, 0xA000            # u*s out
        li   s6, 0x7200            # &ext[512]
        li   s7, 128512            # 512 * 251: keeps the sum non-negative
    outer:
        li   a1, 0x5000            # &s[0]
        add  a2, s6, s3            # &ext[512 + i]
        li   a0, 0
        li   t3, 512
    inner:
        lb   t0, 0(a1)             # s[j] in {-1, 0, 1}
        lbu  t1, 0(a2)             # ext[512 + i - j]
        mul  t0, t0, t1
        add  a0, a0, t0
        addi a1, a1, 1
        addi a2, a2, -1
        addi t3, t3, -1
        bnez t3, inner
        add  a0, a0, s7
        remu a0, a0, s2
        add  t0, s5, s3
        sb   a0, 0(t0)
        addi s3, s3, 1
        bne  s3, s4, outer
        rdcycle s9
        li   t2, 0x8000            # v_hat
        li   t4, 0xA000            # u*s
        li   t5, 0xC000            # bits
        li   t3, 400
    recover:
        lbu  t0, 0(t2)
        lbu  t1, 0(t4)
        add  t0, t0, s2
        sub  t0, t0, t1
        remu t0, t0, s2            # w in [0, q)
        addi t0, t0, -63           # bit = (w - 63) <= 125 unsigned
        sltiu t0, t0, 126
        sb   t0, 0(t5)
        addi t2, t2, 1
        addi t4, t4, 1
        addi t5, t5, 1
        addi t3, t3, -1
        bnez t3, recover
        rdcycle s10
        ecall
"#;

/// The PQ-ALU kernel. Brackets: s8 = start, s9 = stream done, s10 =
/// START done, s11 = readout done, a7 = recover done.
const OPT_SRC: &str = r#"
        rdcycle s8
        li   t1, 0x10000000
        pq.mul_ter zero, zero, t1      # reset
        li   t2, 0x4000                # operand stream
        li   t3, 103
    load:
        lw   t0, 0(t2)
        lw   t1, 4(t2)
        pq.mul_ter zero, t0, t1
        addi t2, t2, 8
        addi t3, t3, -1
        bnez t3, load
        rdcycle s9
        li   t1, 0x30000001            # start, negacyclic
        pq.mul_ter zero, zero, t1
        rdcycle s10
        li   t2, 0xA000
        li   t3, 128
        li   t1, 0x40000000
    readout:
        pq.mul_ter t0, zero, t1
        sw   t0, 0(t2)
        addi t2, t2, 4
        addi t3, t3, -1
        bnez t3, readout
        rdcycle s11
        li   t2, 0x8000
        li   t4, 0xA000
        li   t5, 0xC000
        li   t3, 400
        li   s2, 251
    recover:
        lbu  t0, 0(t2)
        lbu  t1, 0(t4)
        add  t0, t0, s2
        sub  t0, t0, t1
        pq.modq t0, t0, zero
        addi t0, t0, -63
        sltiu t0, t0, 126
        sb   t0, 0(t5)
        addi t2, t2, 1
        addi t4, t4, 1
        addi t5, t5, 1
        addi t3, t3, -1
        bnez t3, recover
        rdcycle a7
        ecall
"#;

/// Which kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Plain RV32IM.
    Ref,
    /// PQ-ALU.
    Opt,
}

impl KernelKind {
    /// Both kernels.
    pub const ALL: [KernelKind; 2] = [KernelKind::Ref, KernelKind::Opt];

    /// Label used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Ref => "ref",
            KernelKind::Opt => "opt",
        }
    }
}

/// One pre-generated LAC-128 decryption: the kernels' inputs plus the
/// native answer.
#[derive(Debug, Clone)]
pub struct DecryptCase {
    /// s as signed bytes.
    pub s: Vec<u8>,
    /// u coefficients.
    pub u: Vec<u8>,
    /// The packed MUL TER operand stream.
    pub stream: Vec<u8>,
    /// v̂ = 16·v + 8 per carried coefficient.
    pub v_hat: Vec<u8>,
    /// The 400 codeword bits native decryption computes.
    pub native_bits: Vec<u8>,
    /// The encrypted message, which the native bits decode to (checked
    /// when the case is generated).
    #[cfg_attr(not(test), allow(dead_code))]
    pub message: [u8; 32],
    /// The secret's ternary polynomial and the ciphertext's u, for
    /// host-side multiplications on the same operands.
    pub sk: SecretKey,
    /// The ciphertext.
    pub ct: Ciphertext,
}

/// Pack the MUL TER operand stream: five coefficient pairs per write.
fn pack_mul_ter_stream(ternary: &[i8], general: &[u8]) -> Vec<u8> {
    let mut words = Vec::new();
    for base in (0..ternary.len()).step_by(5) {
        let gen = |i: usize| u32::from(general.get(base + i).copied().unwrap_or(0));
        let ter = |i: usize| match ternary.get(base + i).copied().unwrap_or(0) {
            1 => 0b01u32,
            -1 => 0b10,
            _ => 0b00,
        };
        let rs1 = gen(0) | (gen(1) << 8) | (gen(2) << 16) | (gen(3) << 24);
        let mut rs2 = (2u32 << 28) | gen(4);
        for i in 0..5 {
            rs2 |= ter(i) << (8 + 2 * i);
        }
        words.push(rs1);
        words.push(rs2);
    }
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// The codeword bits native decryption computes for `(sk, ct)`.
pub fn native_bits(sk: &SecretKey, ct: &Ciphertext) -> Vec<u8> {
    let us = mul_ternary(sk.s(), ct.u(), Convolution::Negacyclic, &mut NullMeter);
    (0..LV)
        .map(|i| {
            let v_hat = i32::from(ct.v()[i]) * 16 + 8;
            let w = (v_hat - i32::from(us.coeffs()[i])).rem_euclid(Q as i32);
            u8::from((63..=188).contains(&w))
        })
        .collect()
}

/// Generate `count` decryption cases from `seed`: one LAC-128 key pair per
/// case and a ciphertext of a random message. Panics if a case's native
/// bits do not BCH-decode back to its message (a broken fixture).
pub fn decrypt_cases(seed: [u8; 32], count: usize) -> Vec<DecryptCase> {
    let lac = Lac::new(Params::lac128());
    let mut backend = SoftwareBackend::constant_time();
    let mut rng = Sha256CtrRng::from_seed(seed);
    (0..count)
        .map(|_| {
            let (pk, sk) = lac.keygen(&mut rng, &mut backend, &mut NullMeter);
            let mut message = [0u8; 32];
            rng.fill_bytes(&mut message);
            let mut enc_seed = [0u8; 32];
            rng.fill_bytes(&mut enc_seed);
            let ct = lac.encrypt(&pk, &message, &enc_seed, &mut backend, &mut NullMeter);
            let native_bits = native_bits(&sk, &ct);
            let decoded = lac.bch().decode_constant_time(&native_bits, &mut NullMeter);
            assert_eq!(decoded.message, message, "fixture does not decrypt");
            DecryptCase {
                s: sk.s().coeffs().iter().map(|&c| c as u8).collect(),
                u: ct.u().coeffs().to_vec(),
                stream: pack_mul_ter_stream(sk.s().coeffs(), ct.u().coeffs()),
                v_hat: ct.v()[..LV].iter().map(|&v| (v << 4) + 8).collect(),
                native_bits,
                message,
                sk,
                ct,
            }
        })
        .collect()
}

/// Cycle readings of one kernel run, from its `rdcycle` brackets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Brackets {
    /// Phase lengths in modelled cycles. `ref`: [mul, recover]; `opt`:
    /// [stream, start, readout, recover].
    pub phases: [u64; 4],
}

impl Brackets {
    fn of(kind: KernelKind, exit: &ExitState) -> Self {
        // rdcycle reads the low 32 bits of the cycle counter.
        let d = |a: usize, b: usize| u64::from(exit.reg(b).wrapping_sub(exit.reg(a)));
        let (s8, s9, s10, s11, a7) = (24, 25, 26, 27, 17);
        let phases = match kind {
            KernelKind::Ref => [d(s8, s9), d(s9, s10), 0, 0],
            KernelKind::Opt => [d(s8, s9), d(s9, s10), d(s10, s11), d(s11, a7)],
        };
        Self { phases }
    }

    /// Cycles of the multiplication (`ref`: extension + schoolbook;
    /// `opt`: stream + start + readout).
    pub fn mul_cycles(&self, kind: KernelKind) -> u64 {
        match kind {
            KernelKind::Ref => self.phases[0],
            KernelKind::Opt => self.phases[..3].iter().sum(),
        }
    }
}

/// The result of one kernel run.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// The recovered bits.
    pub bits: Vec<u8>,
    /// Bracketed phase cycles.
    pub brackets: Brackets,
    /// Instructions retired by this run.
    pub instructions: u64,
}

/// An assembled kernel, ready to be re-run on new inputs.
#[derive(Debug)]
pub struct Kernel {
    kind: KernelKind,
    machine: Machine,
}

impl Kernel {
    /// Assemble `kind` onto a fresh machine running the JIT engine.
    pub fn assemble(kind: KernelKind) -> Self {
        let src = match kind {
            KernelKind::Ref => REF_SRC,
            KernelKind::Opt => OPT_SRC,
        };
        let mut machine = Machine::assemble(src).expect("kernel assembles");
        machine.cpu_mut().set_engine(Engine::Jit);
        Self { kind, machine }
    }

    /// Which kernel this is.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Write `case`'s inputs and reset the PC.
    pub fn load(&mut self, case: &DecryptCase) {
        let cpu = self.machine.cpu_mut();
        match self.kind {
            KernelKind::Ref => {
                cpu.write_bytes(S_ADDR, &case.s);
                cpu.write_bytes(U_ADDR, &case.u);
            }
            KernelKind::Opt => cpu.write_bytes(STREAM_ADDR, &case.stream),
        }
        cpu.write_bytes(V_ADDR, &case.v_hat);
        cpu.set_pc(0);
    }

    /// Run the loaded inputs to `ecall`.
    ///
    /// # Errors
    ///
    /// The trap, as text, if the kernel does not exit cleanly.
    pub fn run(&mut self) -> Result<ExitState, String> {
        self.machine
            .run(FUEL)
            .map_err(|t| format!("{} kernel trapped: {t}", self.kind.label()))
    }

    /// Read the result of the run that ended in `exit`, which started from
    /// the counters `(instructions, cycles)`.
    pub fn result(&self, exit: &ExitState, before: (u64, u64)) -> KernelRun {
        KernelRun {
            bits: self.machine.cpu().read_bytes(BITS_ADDR, LV).to_vec(),
            brackets: Brackets::of(self.kind, exit),
            instructions: exit.instructions - before.0,
        }
    }

    /// Counters `(instructions, cycles)` before a run.
    pub fn counters(&self) -> (u64, u64) {
        let cpu = self.machine.cpu();
        (cpu.instructions(), cpu.cycles())
    }

    /// Load, run and read back `case` in one call.
    ///
    /// # Errors
    ///
    /// A trap, as text.
    pub fn decrypt(&mut self, case: &DecryptCase) -> Result<KernelRun, String> {
        self.load(case);
        let before = self.counters();
        let exit = self.run()?;
        Ok(self.result(&exit, before))
    }

    /// The machine, for engine and device counters.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

/// u·s as the `ref` kernel leaves it in RAM (for tests of the multiply
/// alone).
#[cfg(test)]
fn product_in_ram(kernel: &Kernel) -> Vec<u8> {
    kernel.machine.cpu().read_bytes(US_ADDR, 512).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_kernels_match_native_decryption_over_several_seeds() {
        let lac = Lac::new(Params::lac128());
        let mut reference = Kernel::assemble(KernelKind::Ref);
        let mut opt = Kernel::assemble(KernelKind::Opt);
        for seed in 0..4u8 {
            for case in decrypt_cases([seed; 32], 2) {
                let r = reference.decrypt(&case).unwrap();
                let o = opt.decrypt(&case).unwrap();
                assert_eq!(r.bits, case.native_bits, "ref vs native, seed {seed}");
                assert_eq!(o.bits, r.bits, "opt vs ref, seed {seed}");
                let decoded = lac.bch().decode_constant_time(&r.bits, &mut NullMeter);
                assert_eq!(decoded.message, case.message);
                // The whole product, not only the carried coefficients.
                let native = mul_ternary(
                    case.sk.s(),
                    case.ct.u(),
                    Convolution::Negacyclic,
                    &mut NullMeter,
                );
                assert_eq!(product_in_ram(&reference), native.coeffs());
                assert_eq!(product_in_ram(&opt), native.coeffs());
            }
        }
    }

    #[test]
    fn cycle_brackets_are_data_independent() {
        let cases = decrypt_cases([9; 32], 3);
        for kind in KernelKind::ALL {
            let mut k = Kernel::assemble(kind);
            let runs: Vec<_> = cases.iter().map(|c| k.decrypt(c).unwrap()).collect();
            assert!(runs.windows(2).all(|w| w[0].brackets == w[1].brackets));
            assert!(runs[0].brackets.mul_cycles(kind) > 0);
        }
    }
}
