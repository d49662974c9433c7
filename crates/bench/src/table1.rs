//! Table I rendering: BCH(511,367,16) decoder cycle counts.
//!
//! The four measured cells (submission vs constant-time decoder, at 0 and
//! 16 injected errors) are independent deterministic measurements, so they
//! are fanned out over [`crate::shard`] workers — one cell per job — and
//! merged back in row order. The `--json` output is byte-identical for any
//! thread count.

use crate::{json, ratio, shard, thousands, PAPER_TABLE1};
use lac_bch::BchCode;
use lac_meter::{CycleLedger, NullMeter, Phase};

/// One measured Table I cell.
pub struct Measured {
    /// Syndrome computation cycles.
    pub syndrome: u64,
    /// Error-locator (Berlekamp-Massey) cycles.
    pub err_loc: u64,
    /// Chien search cycles.
    pub chien: u64,
    /// Total decode cycles.
    pub decode: u64,
}

/// Measure one decoder configuration at a given injected-error count.
///
/// # Panics
///
/// Panics if the decoder fails to recover the message (a correctness bug).
pub fn measure(code: &BchCode, constant_time: bool, errors: usize) -> Measured {
    let msg = [0x42u8; 32];
    let mut cw = code.encode(&msg, &mut NullMeter);
    // Spread the injected errors across the codeword, as the paper's
    // worst-case measurement does (16 is the maximum for t = 16).
    for i in 0..errors {
        cw[7 + i * (code.codeword_len() - 16) / errors.max(1)] ^= 1;
    }
    let mut ledger = CycleLedger::new();
    let out_msg = if constant_time {
        code.decode_constant_time(&cw, &mut ledger).message
    } else {
        code.decode_variable_time(&cw, &mut ledger).message
    };
    assert_eq!(out_msg, msg, "decoder failed during measurement");
    Measured {
        syndrome: ledger.phase_total(Phase::BchSyndrome),
        err_loc: ledger.phase_total(Phase::BchErrorLocator),
        chien: ledger.phase_total(Phase::BchChien),
        decode: ledger.total(),
    }
}

/// Measure the four table cells, one shard job per cell, in row order
/// (submission 0/16 errors, then constant-time 0/16 errors).
pub fn measure_cells(threads: usize) -> Vec<Measured> {
    shard::run_indexed(PAPER_TABLE1.len(), threads, |i| {
        let (label, fails, _) = PAPER_TABLE1[i];
        // Each job derives its own code tables; construction is cheap
        // relative to a decode and keeps the jobs fully independent.
        let code = BchCode::lac_t16();
        measure(&code, label.starts_with("Walters"), fails)
    })
}

fn emit_json(cells: &[Measured]) {
    let mut rows = Vec::new();
    for ((label, fails, paper), m) in PAPER_TABLE1.iter().zip(cells) {
        let col = |name: &str, measured: u64, paper: u64| {
            format!("\"{name}\": {{\"measured\": {measured}, \"paper\": {paper}}}")
        };
        rows.push(format!(
            "    {{{}, \"fails\": {fails}, {}, {}, {}, {}}}",
            json::str_field("scheme", label),
            col("syndrome", m.syndrome, paper[0]),
            col("error_locator", m.err_loc, paper[1]),
            col("chien", m.chien, paper[2]),
            col("decode", m.decode, paper[3]),
        ));
    }
    let (vt0, vt16, ct0, ct16) = (&cells[0], &cells[1], &cells[2], &cells[3]);
    println!("{{");
    println!("  \"table\": \"I\",");
    println!("  \"rows\": [\n{}\n  ],", rows.join(",\n"));
    println!("  \"checks\": {{");
    println!(
        "    \"submission_decode_0_errors\": {}, \"submission_decode_16_errors\": {},",
        vt0.decode, vt16.decode
    );
    println!(
        "    \"constant_time_input_independent\": {},",
        ct0.decode == ct16.decode
    );
    println!(
        "    \"constant_time_overhead\": {:.4}",
        ct0.decode as f64 / vt0.decode as f64
    );
    println!("  }}");
    println!("}}");
}

/// Render Table I to stdout.
///
/// `threads = None` resolves via [`shard::thread_count`] (available
/// parallelism). Measurement values are independent of the
/// thread count.
pub fn run(emit_json_output: bool, threads: Option<usize>) {
    let cells = measure_cells(shard::thread_count(threads));
    if emit_json_output {
        emit_json(&cells);
        return;
    }
    println!("Table I — cycle count BCH(511, 367, 16) on RISC-V");
    println!("(paper values in parentheses, ratio = measured / paper)\n");
    println!(
        "{:<16} {:>5} {:>22} {:>22} {:>22} {:>22}",
        "Scheme", "Fails", "Syndr.", "Error Loc.", "Chien", "Decode"
    );

    for ((label, fails, paper), m) in PAPER_TABLE1.iter().zip(&cells) {
        let cell = |measured: u64, paper: u64| {
            format!(
                "{} ({}, {})",
                thousands(measured),
                thousands(paper),
                ratio(measured, paper)
            )
        };
        println!(
            "{:<16} {:>5} {:>22} {:>22} {:>22} {:>22}",
            label,
            fails,
            cell(m.syndrome, paper[0]),
            cell(m.err_loc, paper[1]),
            cell(m.chien, paper[2]),
            cell(m.decode, paper[3]),
        );
    }

    // The qualitative claims behind the table.
    let (vt0, vt16, ct0, ct16) = (&cells[0], &cells[1], &cells[2], &cells[3]);
    println!("\nChecks:");
    println!(
        "  submission decoder leaks: decode(0 errors) = {} vs decode(16) = {}  [paper: 171,522 vs 179,798]",
        thousands(vt0.decode),
        thousands(vt16.decode)
    );
    println!(
        "  constant-time decoder input-independent: {} == {} -> {}",
        thousands(ct0.decode),
        thousands(ct16.decode),
        ct0.decode == ct16.decode
    );
    println!(
        "  constant-time overhead: {:.2}x  [paper: {:.2}x]",
        ct0.decode as f64 / vt0.decode as f64,
        514_169.0 / 171_522.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_thread_count_invariant() {
        let single = measure_cells(1);
        let sharded = measure_cells(4);
        for (a, b) in single.iter().zip(&sharded) {
            assert_eq!(a.syndrome, b.syndrome);
            assert_eq!(a.err_loc, b.err_loc);
            assert_eq!(a.chien, b.chien);
            assert_eq!(a.decode, b.decode);
        }
        // Constant-time cells are input-independent.
        assert_eq!(single[2].decode, single[3].decode);
    }
}
