//! Differential tests for the superblock engine, which runs fused blocks
//! compiled from the predecode cache: the decode-every-step classic
//! engine is the oracle, and every observable must be bit-identical to
//! it. The cases live in `engine_cases`, shared with `riscv_jit.rs`, which
//! runs the same cases on the JIT.

mod common;
mod engine_cases;

use lac_rv32::Engine;

#[test]
fn straight_line_programs_agree() {
    engine_cases::straight_line_programs_agree(Engine::Superblock);
}

#[test]
fn branchy_programs_agree() {
    engine_cases::branchy_programs_agree(Engine::Superblock);
}

#[test]
fn store_into_hot_fused_block_bails_exactly() {
    engine_cases::store_into_hot_block_bails_exactly(Engine::Superblock);
}

#[test]
fn hot_self_modifying_loops_agree() {
    engine_cases::hot_self_modifying_loops_agree(Engine::Superblock);
}

#[test]
fn trap_on_last_instruction_of_fused_pair() {
    engine_cases::trap_on_last_instruction_of_fused_pair(Engine::Superblock);
}

#[test]
fn compressed_and_misaligned_word_instructions_agree() {
    engine_cases::compressed_and_misaligned_word_instructions_agree(Engine::Superblock);
}

#[test]
fn fuel_exhaustion_accounting_is_identical() {
    engine_cases::fuel_exhaustion_accounting_is_identical(Engine::Superblock);
}
