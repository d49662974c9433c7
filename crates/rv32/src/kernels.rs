//! The LAC-128 decryption kernels the ISS runs, written once: the MUL TER
//! driver and the recover loop, with their memory map.
//!
//! [`mul_ter_driver`] multiplies u·s in Z_251\[x\]/(x⁵¹² + 1) on the MUL
//! TER unit; [`recover_loop`] turns each carried coefficient into the
//! codeword bit `((v̂_i − (u·s)_i) mod q) ∈ [63, 188]` with one `pq.modq`.
//! They are assembly text, so callers compose and wrap them (the
//! decryption runs both; the ISS throughput harness repeats the recover
//! loop). Data lives at [`STREAM`] (the operand stream, see
//! [`write_stream`]), [`V_HAT`] (v̂_i = 16·v_i + 8, one byte each), [`US`]
//! (u·s, one byte per coefficient) and [`BITS`] (one byte per bit).

use crate::pq::{self, ctrl};
use crate::Cpu;
use lac_hw::mul_ter::{COEFFS_PER_READ, COEFFS_PER_WRITE, PAPER_LEN};
use lac_ring::{Convolution, Q};

/// The MUL TER operand stream.
pub const STREAM: u32 = 0x4000;
/// v̂, the decompressed v.
pub const V_HAT: u32 = 0x8000;
/// u·s, written by [`mul_ter_driver`].
pub const US: u32 = 0xA000;
/// The recovered bits.
pub const BITS: u32 = 0xC000;

/// Carried coefficients of LAC-128 (l_v): the recover loop's length.
pub const LV: usize = 400;
/// MUL TER LOADs per product: five coefficient pairs each.
const LOADS: usize = PAPER_LEN.div_ceil(COEFFS_PER_WRITE);
/// MUL TER READs per product: four result coefficients each.
const READS: usize = PAPER_LEN / COEFFS_PER_READ;

/// The MUL TER driver: a reset, 103 LOADs from [`STREAM`], a negacyclic
/// START and 128 READs into [`US`].
pub fn mul_ter_driver() -> String {
    format!(
        r#"
            li   t1, {reset}
            pq.mul_ter zero, zero, t1      # reset
            li   t2, {STREAM}
            li   t3, {LOADS}
        load:
            lw   t0, 0(t2)
            lw   t1, 4(t2)
            pq.mul_ter zero, t0, t1
            addi t2, t2, 8
            addi t3, t3, -1
            bnez t3, load
            li   t1, {start}
            pq.mul_ter zero, zero, t1      # start, negacyclic
            li   t2, {US}
            li   t3, {READS}
            li   t1, {read}
        readout:
            pq.mul_ter t0, zero, t1
            sw   t0, 0(t2)
            addi t2, t2, 4
            addi t3, t3, -1
            bnez t3, readout
        "#,
        reset = pq::control(ctrl::RESET, 0),
        start = pq::mul_ter_start(Convolution::Negacyclic),
        read = pq::control(ctrl::READ, 0),
    )
}

/// The recover loop: `w = (v̂ + q − u·s) mod q` through `pq.modq` for
/// each of the [`LV`] coefficients at [`V_HAT`] and [`US`], and the
/// threshold bit `w ∈ [63, 188]` stored at [`BITS`].
pub fn recover_loop() -> String {
    format!(
        r#"
            li   t2, {V_HAT}
            li   t4, {US}
            li   t5, {BITS}
            li   t3, {LV}
            li   s2, {Q}
        recover:
            lbu  t0, 0(t2)
            lbu  t1, 0(t4)
            add  t0, t0, s2                # + q: no underflow
            sub  t0, t0, t1
            pq.modq t0, t0, zero           # w in [0, q)
            addi t0, t0, -63               # bit = (w - 63) <= 125 unsigned
            sltiu t0, t0, 126
            sb   t0, 0(t5)
            addi t2, t2, 1
            addi t4, t4, 1
            addi t5, t5, 1
            addi t3, t3, -1
            bnez t3, recover
        "#
    )
}

/// Write the operand stream of `ternary` × `general` at [`STREAM`]: the
/// `(rs1, rs2)` words of [`pq::mul_ter_loads`], whose panics it shares.
pub fn write_stream(cpu: &mut Cpu, ternary: &[i8], general: &[u8]) {
    let words = pq::mul_ter_loads(ternary, general).into_iter();
    let bytes: Vec<u8> = words
        .flat_map(|(rs1, rs2)| [rs1, rs2])
        .flat_map(u32::to_le_bytes)
        .collect();
    cpu.write_bytes(STREAM, &bytes);
}
