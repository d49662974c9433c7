//! The RISCY timing model: what each instruction costs in modelled
//! cycles, and the only home of those costs.
//!
//! The paper's Tables I–II are cycle counts taken on the 4-stage RISCY
//! core. Every engine charges from this table: the `execute` core, the
//! superblock compiler's prefix sums (a fused op costs the sum of its
//! instructions' [`static_cycles`]), the block engines' trap and bail
//! paths, and the JIT's committed exit totals.
//!
//! * [`BASE`]: 1 cycle per instruction;
//! * [`LOAD_USE`]: +1 on loads (a load that faults pays only its base);
//! * [`JUMP`]: +2 on `jal`/`jalr` (fetch flush);
//! * [`TAKEN_BRANCH`]: +2 on a taken conditional branch (fetch flush);
//! * [`DIVIDER`]: +34 on `div`/`divu`/`rem`/`remu` (iterative divider).
//!
//! PQ instructions also stall for however long the PQ-ALU device reports
//! ([`crate::pq`]); like the taken penalty, that is dynamic and outside
//! [`static_cycles`].

use crate::inst::{AluOp, Inst};

/// Cycles every retired instruction costs.
pub const BASE: u32 = 1;
/// Extra cycles of a load: the load-use stall.
pub const LOAD_USE: u32 = 1;
/// Extra cycles of `jal` and `jalr`: the fetch flush.
pub const JUMP: u32 = 2;
/// Extra cycles of a taken conditional branch: the fetch flush.
pub const TAKEN_BRANCH: u32 = 2;
/// Extra cycles of `div`, `divu`, `rem` and `remu`: the iterative divider.
pub const DIVIDER: u32 = 34;

/// Extra cycles an ALU operation costs beyond [`BASE`].
#[inline(always)]
pub fn alu_extra(op: AluOp) -> u32 {
    match op {
        AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => DIVIDER,
        _ => 0,
    }
}

/// The cycles `inst` costs whatever the run-time values: [`BASE`] plus its
/// static extras. A taken branch's [`TAKEN_BRANCH`] and a PQ instruction's
/// device stall come on top at execution time.
pub fn static_cycles(inst: &Inst) -> u32 {
    BASE + match *inst {
        Inst::Load { .. } => LOAD_USE,
        Inst::Jal { .. } | Inst::Jalr { .. } => JUMP,
        Inst::OpImm { op, .. } | Inst::Op { op, .. } => alu_extra(op),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, Machine};

    /// Modelled cycles one pass of `body` adds to a counted loop on
    /// `engine`. Differencing two trip counts cancels the setup, and
    /// subtracting the empty loop cancels the loop's own counter and
    /// branch; the later trips run compiled and fused on the fast engines.
    fn cost(engine: Engine, body: &str) -> u64 {
        let cycles = |body: &str, trips: u64| {
            let src = format!(
                "li s0, 0x8000\nli t2, 100\nli t3, 7\nla s2, after\n\
                 li s1, {trips}\nloop:\n{body}\nafter:\naddi s1, s1, -1\nbnez s1, loop\necall"
            );
            let mut machine = Machine::assemble(&src).expect("cost probe assembles");
            machine.cpu_mut().set_engine(engine);
            machine.run(1_000_000).expect("cost probe exits").cycles
        };
        let per_trip = |body: &str| (cycles(body, 40) - cycles(body, 20)) / 20;
        per_trip(body) - per_trip("")
    }

    #[test]
    fn per_class_costs_are_pinned_on_every_engine() {
        // Changing the timing model means changing these numbers.
        let cases: [(&str, u64); 16] = [
            ("add t1, t2, t3", 1),
            ("xori t1, t2, 5", 1),
            ("sw t1, 0(s0)", 1),
            ("lw t1, 0(s0)", 2),
            ("jal t1, after", 3),
            ("jalr zero, s2, 0", 3),
            ("beq zero, zero, after", 3),
            ("bne zero, zero, after", 1),
            ("div t1, t2, t3", 35),
            ("remu t1, t2, t3", 35),
            // Fused forms cost the sum of their instructions.
            ("lw t1, 0(s0)\naddi t4, t1, 1", 2 + 1),
            ("lui t1, 0x12\naddi t1, t1, 3", 1 + 1),
            ("auipc t1, 0\nlw t4, 0(t1)", 1 + 2),
            ("addi t1, zero, 1\nbnez t1, after", 1 + 3),
            ("addi t1, zero, 0\nbnez t1, after", 1 + 1),
            ("div t1, t2, t3\nbnez t1, after", 35 + 3),
        ];
        for engine in [Engine::Classic, Engine::Superblock, Engine::Jit] {
            for (body, expected) in cases {
                assert_eq!(cost(engine, body), expected, "{engine:?}: {body}");
            }
        }
    }
}
