//! Differential tests for the superblock interpreter over the predecode
//! cache: the decode-every-step classic engine is the oracle, and every
//! observable — the full `ExitState` (register file, PC, modelled cycles,
//! retired instructions), the trap value, and data memory — must be
//! bit-identical between the two engines on randomized programs.
//!
//! Program families, per the engines' risk profiles: straight-line ALU
//! blocks (dispatch correctness and macro-op fusion), branchy control
//! flow (taken-branch cycle modelling, cross-line fetch, trace-cache
//! heads), self-modifying code (store-driven invalidation, including the
//! 3-byte back-window, stores into an *already-fused hot block*, and a
//! trap raised by the last instruction of a fused pair), and fuel
//! exhaustion mid-block.

use lac_rand::prop::{self, ensure, ensure_eq};
use lac_rand::Rng;
use lac_rv32::{Cpu, Engine, Machine, Trap};

/// The fast engines, each checked against the classic oracle.
const FAST_ENGINES: [Engine; 1] = [Engine::Superblock];

/// Run the same program on the oracle and every fast engine and demand
/// identical outcomes.
///
/// `build` must produce a fresh, deterministic machine each call (the
/// runs may not share mutable state). Returns the oracle's outcome for
/// callers that also want to assert against known-good values.
fn differential(
    build: &dyn Fn() -> Machine,
    fuel: u64,
    data_window: Option<(u32, usize)>,
) -> Result<Result<lac_rv32::ExitState, Trap>, String> {
    let mut oracle = build();
    oracle.cpu_mut().set_engine(Engine::Classic);
    let oracle_outcome = oracle.cpu_mut().run(fuel);

    for engine in FAST_ENGINES {
        let tag = |e: String| format!("[{engine:?}] {e}");
        let mut fast = build();
        fast.cpu_mut().set_engine(engine);
        let fast_outcome = fast.cpu_mut().run(fuel);
        ensure_eq(oracle_outcome.clone(), fast_outcome).map_err(tag)?;
        // On traps `run` returns no snapshot; compare the architectural
        // state through the accessors so trap paths are held to the same
        // standard.
        ensure_eq(oracle.cpu().pc(), fast.cpu().pc()).map_err(tag)?;
        ensure_eq(oracle.cpu().cycles(), fast.cpu().cycles()).map_err(tag)?;
        ensure_eq(oracle.cpu().instructions(), fast.cpu().instructions()).map_err(tag)?;
        for i in 0..32 {
            ensure_eq(oracle.cpu().reg(i), fast.cpu().reg(i)).map_err(tag)?;
        }
        if let Some((addr, len)) = data_window {
            ensure(
                oracle.cpu().read_bytes(addr, len) == fast.cpu().read_bytes(addr, len),
                format!("[{engine:?}] data memory diverged in [{addr:#x}; {len})"),
            )?;
        }
    }
    Ok(oracle_outcome)
}

/// A random register in x5..x15 (avoids x0..x4 so sp/ra conventions and
/// the hardwired zero don't mask bugs, and keeps programs assemblable).
fn reg(rng: &mut impl Rng) -> u32 {
    5 + rng.gen_below_u32(11)
}

/// One random ALU instruction as assembly text.
fn alu_line(rng: &mut impl Rng) -> String {
    let rd = reg(rng);
    let rs1 = reg(rng);
    let rs2 = reg(rng);
    let imm = rng.gen_range_i64(-2048, 2048);
    let shamt = rng.gen_below_u32(32);
    match rng.gen_below_u32(12) {
        0 => format!("add x{rd}, x{rs1}, x{rs2}"),
        1 => format!("sub x{rd}, x{rs1}, x{rs2}"),
        2 => format!("xor x{rd}, x{rs1}, x{rs2}"),
        3 => format!("or x{rd}, x{rs1}, x{rs2}"),
        4 => format!("and x{rd}, x{rs1}, x{rs2}"),
        5 => format!("addi x{rd}, x{rs1}, {imm}"),
        6 => format!("xori x{rd}, x{rs1}, {imm}"),
        7 => format!("sltiu x{rd}, x{rs1}, {imm}"),
        8 => format!("slli x{rd}, x{rs1}, {shamt}"),
        9 => format!("srli x{rd}, x{rs1}, {shamt}"),
        10 => format!("sll x{rd}, x{rs1}, x{rs2}"),
        _ => format!("mul x{rd}, x{rs1}, x{rs2}"),
    }
}

/// Seed x5..x15 with random values so the ALU soup has entropy to mix.
fn seed_regs(rng: &mut impl Rng) -> String {
    (5..16)
        .map(|r| format!("li x{r}, {}\n", rng.next_u32() as i32))
        .collect()
}

#[test]
fn straight_line_programs_agree() {
    prop::check("predecode_straight_line", 40, |rng| {
        let mut src = seed_regs(rng);
        // Long enough to span several 256-byte predecode lines.
        for _ in 0..rng.gen_range_usize(20..200) {
            src.push_str(&alu_line(rng));
            src.push('\n');
        }
        src.push_str("ecall\n");
        let build = move || Machine::assemble(&src).expect("random ALU program assembles");
        let outcome = differential(&build, 10_000, None)?;
        ensure(outcome.is_ok(), "straight-line program must reach ecall")
    });
}

#[test]
fn branchy_programs_agree() {
    prop::check("predecode_branchy", 40, |rng| {
        let blocks = rng.gen_range_usize(3..10);
        let mut src = seed_regs(rng);
        // A bounded backward loop wrapping forward-branching blocks:
        // termination is structural (the counter strictly decreases and
        // every other branch goes strictly forward). Iteration counts
        // above the superblock hot threshold exercise fused re-dispatch
        // of the same heads.
        src.push_str(&format!("li x28, {}\n", rng.gen_range_usize(1..12)));
        src.push_str("loop_head:\n");
        for b in 0..blocks {
            src.push_str(&format!("block{b}:\n"));
            for _ in 0..rng.gen_range_usize(1..6) {
                src.push_str(&alu_line(rng));
                src.push('\n');
            }
            let target = b + 1 + rng.gen_below_usize(blocks - b);
            let rs1 = reg(rng);
            let rs2 = reg(rng);
            let cond = match rng.gen_below_u32(4) {
                0 => format!("beq x{rs1}, x{rs2}"),
                1 => format!("bne x{rs1}, x{rs2}"),
                2 => format!("bltu x{rs1}, x{rs2}"),
                _ => format!("bge x{rs1}, x{rs2}"),
            };
            if target < blocks {
                src.push_str(&format!("{cond}, block{target}\n"));
            } else {
                src.push_str(&format!("{cond}, loop_tail\n"));
            }
        }
        src.push_str("loop_tail:\n");
        src.push_str("addi x28, x28, -1\n");
        src.push_str("bnez x28, loop_head\n");
        src.push_str("ecall\n");
        let build = move || Machine::assemble(&src).expect("random branchy program assembles");
        let outcome = differential(&build, 100_000, None)?;
        ensure(outcome.is_ok(), "branchy program must reach ecall")
    });
}

/// RV32I `ADDI rd, rs1, imm` encoder for the self-modifying tests (the
/// patch bytes bypass the assembler so their address is exact).
fn encode_addi(rd: u32, rs1: u32, imm: i32) -> u32 {
    ((imm as u32 & 0xFFF) << 20) | (rs1 << 15) | (rd << 7) | 0x13
}

/// `SLTIU rd, rs1, imm` encoder.
fn encode_sltiu(rd: u32, rs1: u32, imm: i32) -> u32 {
    ((imm as u32 & 0xFFF) << 20) | (rs1 << 15) | (0b011 << 12) | (rd << 7) | 0x13
}

/// `ADD rd, rs1, rs2` encoder.
fn encode_add(rd: u32, rs1: u32, rs2: u32) -> u32 {
    (rs2 << 20) | (rs1 << 15) | (rd << 7) | 0x33
}

/// `MUL rd, rs1, rs2` encoder.
fn encode_mul(rd: u32, rs1: u32, rs2: u32) -> u32 {
    (1 << 25) | (rs2 << 20) | (rs1 << 15) | (rd << 7) | 0x33
}

/// `SW rs2, imm(rs1)` encoder.
fn encode_sw(rs1: u32, rs2: u32, imm: i32) -> u32 {
    let imm = imm as u32 & 0xFFF;
    ((imm >> 5) << 25) | (rs2 << 20) | (rs1 << 15) | (0b010 << 12) | ((imm & 0x1F) << 7) | 0x23
}

/// `SB rs2, imm(rs1)` encoder.
fn encode_sb(rs1: u32, rs2: u32, imm: i32) -> u32 {
    let imm = imm as u32 & 0xFFF;
    ((imm >> 5) << 25) | (rs2 << 20) | (rs1 << 15) | ((imm & 0x1F) << 7) | 0x23
}

/// `LUI rd, imm20` encoder.
fn encode_lui(rd: u32, imm20: u32) -> u32 {
    (imm20 << 12) | (rd << 7) | 0x37
}

/// `BNE rs1, rs2, offset` encoder (offset relative to this instruction).
fn encode_bne(rs1: u32, rs2: u32, offset: i32) -> u32 {
    let o = offset as u32;
    ((o >> 12 & 1) << 31)
        | ((o >> 5 & 0x3F) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (0b001 << 12)
        | ((o >> 1 & 0xF) << 8)
        | ((o >> 11 & 1) << 7)
        | 0x63
}

const ECALL: u32 = 0x0000_0073;

/// Build `li rd, value` as (lui, addi) with RISC-V's sign-carry split.
fn encode_li(rd: u32, value: u32) -> [u32; 2] {
    let lo = (value << 20) as i32 >> 20; // sign-extended low 12 bits
    let hi = value.wrapping_sub(lo as u32) >> 12;
    [encode_lui(rd, hi), encode_addi(rd, rd, lo)]
}

/// Wrap raw words in a fresh machine starting at PC 0.
fn machine_from_words(words: &[u32]) -> Machine {
    let mut machine = Machine::assemble("ecall").expect("stub");
    machine.cpu_mut().load_words(0, words);
    machine.cpu_mut().set_pc(0);
    machine
}

#[test]
fn self_modifying_store_word_takes_effect_on_all_engines() {
    prop::check("predecode_self_modifying_sw", 40, |rng| {
        // The program patches the instruction at `patch` — initially
        // `addi x10, x10, 1` — with a random fresh ADDI, *after* the
        // whole line has been predecoded (everything lives in the first
        // 256-byte line, so fetching instruction 0 predecodes the stale
        // word at `patch`).
        let imm = rng.gen_range_i64(-2048, 2048) as i32;
        let rd = 10 + rng.gen_below_u32(4);
        let patched = encode_addi(rd, rd, imm);
        let mut words = Vec::new();
        words.extend(encode_li(5, patched)); // x5 = new instruction word
        let patch_index = words.len() + 1 + 1 + rng.gen_below_usize(4);
        words.push(encode_sw(0, 5, (patch_index * 4) as i32));
        while words.len() < patch_index {
            words.push(encode_addi(9, 9, 1)); // filler (x9 never collides with rd)
        }
        words.push(encode_addi(8, 8, 1)); // the stale instruction (bumps x8)
        words.push(ECALL);
        let build = move || machine_from_words(&words);
        let outcome = differential(&build, 1_000, Some((0x100, 64)))?;
        let exit = outcome.map_err(|t| format!("trapped: {t}"))?;
        // The patch must actually have executed: rd carries the new
        // immediate and the stale instruction's x8 bump never happened.
        ensure_eq(exit.reg(rd as usize), imm as u32)?;
        ensure_eq(exit.reg(8), 0)
    });
}

#[test]
fn self_modifying_byte_store_into_instruction_middle_agrees() {
    prop::check("predecode_self_modifying_sb", 40, |rng| {
        // Patch a single random byte *inside* an upcoming 32-bit ADDI —
        // the store address is up to 3 bytes past the instruction start,
        // exercising the invalidation back-window.
        let byte = rng.next_byte();
        let offset = rng.gen_below_u32(4); // which byte of the instruction
        let mut words = Vec::new();
        words.extend(encode_li(5, u32::from(byte)));
        let patch_index = words.len() + 1;
        words.push(encode_sb(0, 5, (patch_index * 4 + offset as usize) as i32));
        words.push(encode_addi(10, 10, 0x7F)); // the victim instruction
        words.push(ECALL);
        let build = move || machine_from_words(&words);
        // The mutated word may no longer decode (or may now trap); all
        // outcomes are acceptable as long as all engines agree bit-for-bit.
        let _ = differential(&build, 1_000, None)?;
        Ok(())
    });
}

/// Build the hot self-modifying loop: a single-line loop that stores into
/// its own body every iteration (same bytes until iteration `patch_at`,
/// then a patched victim). Returns the word image.
///
/// The store sits *before* the victim inside the loop body, so once the
/// superblock engine has fused the loop, every iteration's store
/// invalidates the running block's line and must bail exactly — and from
/// iteration `patch_at` on, the victim the interpreter resumes into is a
/// different instruction.
fn hot_self_modifying_words(patch_at: u32, iterations: u32, old: u32, new: u32) -> Vec<u32> {
    let delta = new.wrapping_sub(old);
    let mut words = Vec::new();
    words.extend(encode_li(20, 0)); // x20 = counter
    words.extend(encode_li(23, old)); // x23 = word to store (accumulates delta)
    words.extend(encode_li(22, delta)); // x22 = delta
    words.extend(encode_li(28, iterations)); // x28 = loop bound
    let loop_index = words.len();
    words.push(encode_addi(20, 20, 1)); // counter += 1
    words.push(encode_addi(21, 20, -(patch_at as i32))); // x21 = counter - patch_at
    words.push(encode_sltiu(21, 21, 1)); // x21 = (counter == patch_at)
    words.push(encode_mul(25, 21, 22)); // x25 = delta or 0
    words.push(encode_add(23, 23, 25)); // x23 += (delta at patch_at)
    let victim_index = words.len() + 1;
    words.push(encode_sw(0, 23, (victim_index * 4) as i32)); // patch the victim
    words.push(old); // the victim instruction
    let bne_index = words.len();
    words.push(encode_bne(
        20,
        28,
        (loop_index as i32 - bne_index as i32) * 4,
    ));
    words.push(ECALL);
    assert!(words.len() < 64, "loop must stay within one predecode line");
    words
}

#[test]
fn store_into_hot_fused_block_bails_exactly() {
    // Victim flips from `addi x26, x26, 1` to `addi x26, x26, 7` on
    // iteration 8 — well after the superblock engine has fused the loop.
    let old = encode_addi(26, 26, 1);
    let new = encode_addi(26, 26, 7);
    let words = hot_self_modifying_words(8, 12, old, new);
    let build = move || machine_from_words(&words);
    let outcome = differential(&build, 10_000, None).expect("engines agree");
    let exit = outcome.expect("loop reaches ecall");
    // Iterations 1..=7 bump by 1, 8..=12 by 7 (the patch store precedes
    // the victim within the same iteration).
    assert_eq!(exit.reg(26), 7 + 5 * 7);

    // The superblock engine must really have taken the fused path and
    // bailed on the in-block store, not quietly interpreted everything.
    let mut machine = build();
    machine.cpu_mut().run(10_000).expect("runs to ecall");
    let stats = machine.cpu().superblock_stats();
    assert!(stats.dispatches > 0, "loop must run from the trace cache");
    assert!(
        stats.store_bails > 0,
        "in-block store must bail mid-block: {stats:?}"
    );
    assert!(
        stats.stale_drops > 0,
        "patched head must recompile: {stats:?}"
    );
}

#[test]
fn hot_self_modifying_loops_agree() {
    prop::check("superblock_hot_self_modifying", 40, |rng| {
        // Randomize the patch iteration (before/at/after the hot
        // threshold), the loop bound, and the patched instruction —
        // including words that no longer decode, which must trap
        // identically on all engines.
        let iterations = 5 + rng.gen_below_u32(12);
        let patch_at = 1 + rng.gen_below_u32(iterations);
        let old = encode_addi(26, 26, 1);
        let new = match rng.gen_below_u32(3) {
            0 => encode_addi(26, 26, rng.gen_range_i64(-2048, 2048) as i32),
            1 => encode_mul(26, 26, 26),
            _ => rng.next_u32(), // possibly an illegal instruction
        };
        let words = hot_self_modifying_words(patch_at, iterations, old, new);
        let build = move || machine_from_words(&words);
        let _ = differential(&build, 10_000, None)?;
        Ok(())
    });
}

#[test]
fn trap_on_last_instruction_of_fused_pair() {
    // Two blocks in different predecode lines. Block A (line 0) patches
    // block B's `auipc x6, 0` to `auipc x6, 0xFFFFF` on iteration 8 — by
    // then B's `auipc`+`lw` pair is hot and fused, so the recompiled
    // block's load (the *second* instruction of the fused pair) faults at
    // a precomputed out-of-range address. The oracle retires the auipc
    // and faults on the lw; the fused engine must report the identical
    // trap, PC, counters and x6.
    let old_auipc = encode_lui(6, 0) & !0x7F | 0x17; // auipc x6, 0
    let new_auipc: u32 = (0xFFFFF << 12) | (6 << 7) | 0x17; // auipc x6, 0xFFFFF
    let patch_at = 8;
    let b_base = 256u32;

    let mut words = Vec::new();
    words.extend(encode_li(20, 0)); // counter
    words.extend(encode_li(23, old_auipc)); // stored word, accumulates delta
    words.extend(encode_li(22, new_auipc.wrapping_sub(old_auipc)));
    words.extend(encode_li(24, b_base)); // &B
    let a_loop = words.len();
    words.push(encode_addi(20, 20, 1));
    words.push(encode_addi(21, 20, -patch_at));
    words.push(encode_sltiu(21, 21, 1));
    words.push(encode_mul(25, 21, 22));
    words.push(encode_add(23, 23, 25));
    words.push(encode_sw(24, 23, 0)); // patch B's auipc (other line: no bail in A)

    // jal x0, B  (J-type; offset from this instruction)
    let jal_index = words.len();
    let jal_offset = (b_base as i32) - (jal_index as i32) * 4;
    let o = jal_offset as u32;
    words.push(
        ((o >> 20 & 1) << 31)
            | ((o >> 1 & 0x3FF) << 21)
            | ((o >> 11 & 1) << 20)
            | ((o >> 12 & 0xFF) << 12)
            | 0x6F,
    );
    while words.len() < (b_base / 4) as usize {
        words.push(0); // never executed
    }
    // Block B: the fused pair, then back to A.
    words.push(old_auipc); // auipc x6, 0        (pc = 256 → x6 = 256)
    words.push((4 << 20) | (6 << 15) | (0b010 << 12) | (7 << 7) | 0x03); // lw x7, 4(x6)
    let bne_index = words.len();
    words.push(encode_bne(0, 20, (a_loop as i32 - bne_index as i32) * 4)); // x20 != 0: always taken
    words.push(ECALL); // unreachable (the run ends in the fault)

    let build = move || machine_from_words(&words);
    let outcome = differential(&build, 100_000, None).expect("engines agree");
    match outcome {
        Err(Trap::MemoryFault { pc, addr }) => {
            assert_eq!(pc, b_base + 4, "the lw (second of the pair) faults");
            assert_eq!(addr, b_base.wrapping_add(0xFFFF_F000).wrapping_add(4));
        }
        other => panic!("expected the patched pair to fault, got {other:?}"),
    }

    // Confirm the superblock engine took the fused path to the fault.
    let mut machine = build();
    machine.cpu_mut().set_engine(Engine::Superblock);
    assert!(machine.cpu_mut().run(100_000).is_err());
    assert_eq!(machine.cpu().reg(6), b_base.wrapping_add(0xFFFF_F000));
    let stats = machine.cpu().superblock_stats();
    assert!(stats.dispatches > 0);
    assert!(
        stats.stale_drops > 0,
        "patching B must drop its fused block: {stats:?}"
    );
}

#[test]
fn compressed_and_misaligned_word_instructions_agree() {
    prop::check("predecode_compressed_mix", 40, |rng| {
        // A halfword stream mixing c.addi / c.nop with full-width ADDIs,
        // so 32-bit instructions land on odd halfword (pc % 4 == 2)
        // boundaries and predecode slots straddle them.
        let mut halves: Vec<u16> = Vec::new();
        for _ in 0..rng.gen_range_usize(4..40) {
            if rng.gen_below_u32(2) == 0 {
                // c.addi x10, imm (imm in -32..32, nonzero keeps it canonical)
                let imm = (rng.gen_range_i64(-32, 32) | 1) as i32;
                let imm = imm as u32;
                let half = 0x0001u16
                    | (((imm >> 5) & 1) as u16) << 12
                    | (10u16 << 7)
                    | ((imm & 0x1F) as u16) << 2;
                halves.push(half);
            } else {
                let word = encode_addi(11, 11, rng.gen_range_i64(-2048, 2048) as i32);
                halves.push(word as u16);
                halves.push((word >> 16) as u16);
            }
        }
        halves.push(ECALL as u16);
        halves.push((ECALL >> 16) as u16);
        let bytes: Vec<u8> = halves.iter().flat_map(|h| h.to_le_bytes()).collect();
        let build = move || {
            let mut machine = Machine::assemble("ecall").expect("stub");
            machine.cpu_mut().write_bytes(0, &bytes);
            machine.cpu_mut().set_pc(0);
            machine
        };
        let outcome = differential(&build, 10_000, None)?;
        ensure(outcome.is_ok(), "compressed mix must reach ecall")
    });
}

#[test]
fn fuel_exhaustion_accounting_is_identical() {
    // A fuel-limited run must report the same modelled cycles and retired
    // instructions on every engine — the fast loops keep their counters
    // in locals and must sync them on the OutOfFuel exit, not just on
    // clean exits. The 4-instruction loop goes hot after a few
    // iterations, so fuels like 17..21 run out *mid-block* on the
    // superblock engine (which must then retire instruction-by-instruction
    // to the exact budget), and 1001 exhausts from fused dispatch.
    let src = r#"
            li   t0, 0
            li   t1, 1000000
        loop:
            addi t0, t0, 1
            lw   t2, 0(zero)
            add  t3, t2, t0
            bne  t0, t1, loop
            ecall
    "#;
    for fuel in [0u64, 1, 2, 3, 5, 17, 18, 19, 20, 21, 37, 100, 1001] {
        let mut machines: Vec<Machine> = [Engine::Classic, Engine::Superblock]
            .into_iter()
            .map(|engine| {
                let mut machine = Machine::assemble(src).expect("assembles");
                machine.cpu_mut().set_engine(engine);
                machine
            })
            .collect();
        for machine in &mut machines {
            let engine = machine.cpu().engine();
            assert_eq!(
                machine.cpu_mut().run(fuel),
                Err(Trap::OutOfFuel),
                "fuel {fuel} ({engine:?})"
            );
        }
        let (oracle, fast) = machines.split_first_mut().expect("two machines");
        assert_eq!(oracle.cpu().instructions(), fuel, "fuel == retired");
        for machine in fast.iter_mut() {
            let engine = machine.cpu().engine();
            assert_eq!(
                oracle.cpu().instructions(),
                machine.cpu().instructions(),
                "retired instructions diverged at fuel {fuel} ({engine:?})"
            );
            assert_eq!(
                oracle.cpu().cycles(),
                machine.cpu().cycles(),
                "modelled cycles diverged at fuel {fuel} ({engine:?})"
            );
            assert_eq!(
                oracle.cpu().pc(),
                machine.cpu().pc(),
                "pc diverged at fuel {fuel} ({engine:?})"
            );
        }
        // Resuming after refueling must also agree and still reach ecall.
        let oracle_exit = oracle.cpu_mut().run(10_000_000);
        for machine in fast.iter_mut() {
            let engine = machine.cpu().engine();
            let exit = machine.cpu_mut().run(10_000_000);
            assert_eq!(
                oracle_exit, exit,
                "post-refuel outcome at fuel {fuel} ({engine:?})"
            );
        }
    }
}

#[test]
fn zeroed_ram_and_out_of_range_fetch_trap_identically() {
    // Walking zeroed RAM hits an illegal compressed instruction (0x0000);
    // a PC at/after the end of RAM hits the cache's out-of-range fill.
    // All engines must produce the same trap with the same accounting.
    for start_pc in [0u32, 4094, 4096, 8192] {
        let mut outcomes = Vec::new();
        for engine in [Engine::Classic, Engine::Superblock] {
            let mut cpu = Cpu::new(4096);
            cpu.set_engine(engine);
            cpu.set_pc(start_pc);
            let outcome = cpu.run(1_000_000);
            assert!(outcome.is_err(), "pc {start_pc} must trap ({engine:?})");
            outcomes.push((outcome, cpu.cycles(), cpu.instructions(), cpu.pc()));
        }
        assert_eq!(outcomes[0], outcomes[1], "divergence from pc {start_pc}");
    }
}

#[test]
fn raw_cpu_odd_pc_entry_delegates_identically() {
    // An odd entry PC is the one case the fast loops delegate wholesale
    // to the oracle; every engine must still agree (here: on the trap).
    for engine in [Engine::Classic, Engine::Superblock] {
        let mut cpu = Cpu::new(4096);
        cpu.set_engine(engine);
        cpu.set_pc(1);
        let outcome = cpu.run(10);
        assert!(outcome.is_err(), "odd pc must trap ({engine:?})");
    }
}
