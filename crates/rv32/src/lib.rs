//! RV32IM(C) instruction-set simulator with the paper's PQ-ALU extension.
//!
//! The DATE 2020 paper integrates its accelerators into the execution stage
//! of the RISCY core (PULPino) and reaches them through four custom R-type
//! instructions under major opcode `0x77`:
//!
//! | funct3 | mnemonic | unit |
//! |--------|----------|------|
//! | 0 | `pq.mul_ter`   | ternary polynomial multiplier |
//! | 1 | `pq.mul_chien` | 4-wide GF(2⁹) Chien evaluator |
//! | 2 | `pq.sha256`    | SHA-256 round engine |
//! | 3 | `pq.modq`      | Barrett modulo-251 reducer |
//!
//! This crate provides the simulator substrate needed to *run* such code:
//!
//! * [`inst`] — the one instruction table: decoding and encoding for
//!   RV32I, the M extension, Zicsr, the C (compressed) extension via
//!   decompression, and the PQ instructions; the assembler, the
//!   disassembler and the decoder all read it;
//! * [`timing`] — the one RISCY timing table every engine and the JIT
//!   charge modelled cycles from;
//! * [`cpu`] — the RISCY-like interpreter with
//!   three engines: a JIT tier lowering superblocks to host machine code,
//!   a trace-cached superblock engine with macro-op fusion (default), and
//!   the decode-every-step oracle the faster tiers are differentially
//!   tested against;
//! * [`jit`] — dynamic binary translation of compiled superblocks to
//!   x86-64 host code in W^X exec buffers, with exact fallback to the
//!   superblock interpreter on unsupported hosts;
//! * [`predecode`] — the direct-mapped decode-once instruction cache the
//!   superblock and JIT tiers interpret cold code from, with store
//!   invalidation for self-modifying code;
//! * [`superblock`] — straight-line block discovery, macro-op fusion and
//!   the PC-indexed trace cache behind the superblock engine;
//! * [`pq`] — the PQ-ALU device: the `pq.*` register protocol in both
//!   directions (decoder and encoders) in front of the `lac-hw` units;
//! * [`kernels`] — the LAC-128 decryption kernels the ISS runs (the MUL
//!   TER driver and the recover loop) and their memory map;
//! * [`asm`] — a small two-pass assembler (labels, ABI register names,
//!   common pseudo-instructions, and the `pq.*` mnemonics) so tests and
//!   examples can write RISC-V programs directly; it rejects operands
//!   their field cannot hold, and [`disasm`] prints its syntax back.
//!
//! # Example
//!
//! ```
//! use lac_rv32::Machine;
//!
//! let mut m = Machine::assemble(
//!     r#"
//!         li   a0, 1000
//!         li   a1, 0
//!         pq.modq a0, a0, a1   # a0 = 1000 mod 251 = 247
//!         ecall
//!     "#,
//! ).unwrap();
//! let exit = m.run(10_000).unwrap();
//! assert_eq!(exit.reg(10), 247);
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod cpu;
pub mod disasm;
pub mod inst;
pub mod jit;
pub mod kernels;
pub mod pq;
pub mod predecode;
pub mod superblock;
pub mod timing;
pub mod warm;

pub use asm::{assemble, AsmError};
pub use cpu::{Cpu, Engine, ExitState, Trap};
pub use disasm::disassemble;
pub use inst::{decode, decompress, encode, EncodeError, Inst};
pub use jit::{JitStats, SharedJitStats};
pub use superblock::{SharedTraceCache, SharedTraceStats};
pub use warm::WarmImage;

/// Convenience wrapper: assemble a program, load it at address 0 and run it.
#[derive(Debug)]
pub struct Machine {
    cpu: Cpu,
}

impl Machine {
    /// Assemble `source` and create a machine with the program loaded at
    /// address 0 and 1 MiB of RAM.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] if the source does not assemble.
    pub fn assemble(source: &str) -> Result<Self, AsmError> {
        let words = assemble(source)?;
        let mut cpu = Cpu::new(1 << 20);
        cpu.load_words(0, &words);
        Ok(Self { cpu })
    }

    /// Access the CPU.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable access to the CPU (e.g. to preload data memory).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Run until `ecall`, a trap, or the instruction budget is exhausted.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] that stopped execution if it was not a clean
    /// `ecall` exit.
    pub fn run(&mut self, max_instructions: u64) -> Result<ExitState, Trap> {
        self.cpu.run(max_instructions)
    }

    /// Snapshot the machine into a [`WarmImage`] (see [`Cpu::snapshot`]).
    pub fn snapshot(&self) -> WarmImage {
        self.cpu.snapshot()
    }

    /// Build a machine from a [`WarmImage`] (see [`Cpu::from_image`]).
    pub fn from_image(image: &WarmImage) -> Self {
        Self {
            cpu: Cpu::from_image(image),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_runs_arithmetic() {
        let mut m = Machine::assemble(
            r#"
                li   t0, 6
                li   t1, 7
                mul  a0, t0, t1
                ecall
            "#,
        )
        .unwrap();
        let exit = m.run(100).unwrap();
        assert_eq!(exit.reg(10), 42);
    }

    #[test]
    fn machine_reports_cycles() {
        let mut m = Machine::assemble("li a0, 5\necall").unwrap();
        let exit = m.run(100).unwrap();
        assert!(exit.cycles > 0);
        assert!(exit.instructions >= 2);
    }
}
