//! Regenerate **Table III**: FPGA resource utilization of the PQ-ALU
//! accelerators, from the structural area model in `lac-hw`.
//!
//! The base RISCY core and the peripheral subsystem are synthesis constants
//! quoted from the paper (we model the accelerators, not Xilinx synthesis of
//! the unmodified PULPino); every accelerator row is produced by our
//! structural estimate and printed next to the paper's synthesis result.
//!
//! Run: `cargo run --release -p lac-bench --bin table3`
//! (`--json` emits the same data as machine-readable JSON)

use lac_bench::{json, Flags};
use lac_hw::area::{
    ResourceEstimate, KECCAK_ACCELERATOR_REF8, NTT_ACCELERATOR_REF8, PERIPHERALS, RISCY_BASE,
};
use lac_hw::{mul_ter, ChienUnit, ModQ, MulTer, Sha256Unit};

/// The paper's synthesis result: LUTs, registers, BRAMs, DSPs.
type Paper = Option<(u32, u32, u32, u32)>;

/// One table row: the text label, the JSON key, our estimate and the
/// paper's figure.
type Row = (&'static str, &'static str, ResourceEstimate, Paper);

/// The table's rows in print order, and the PQ-ALU total. The text table
/// prints a blank line before the last two rows (the reference design).
#[rustfmt::skip]
fn rows() -> ([Row; 8], ResourceEstimate) {
    let mul_ter = MulTer::new(mul_ter::PAPER_LEN).resources();
    let chien = ChienUnit::new().resources();
    let sha = Sha256Unit::new().resources();
    let modq = ModQ::new().resources();
    let total = mul_ter + chien + sha + modq;
    let rows = [
        ("Peripherals/Memory", "peripherals_memory", PERIPHERALS, Some((8_769, 7_369, 32, 0))),
        ("RISC-V core total", "riscv_core_total", total + RISCY_BASE, Some((53_819, 13_928, 0, 10))),
        (" - Ternary Multiplier", "ternary_multiplier", mul_ter, Some((31_465, 9_305, 0, 0))),
        (" - GF-Multipliers", "gf_multipliers", chien, Some((86, 158, 0, 0))),
        (" - SHA256", "sha256", sha, Some((1_031, 1_556, 0, 0))),
        (" - Modulo (Barrett)", "modulo_barrett", modq, Some((35, 0, 0, 2))),
        ("NTT accelerator [8]", "ntt_accelerator_ref8", NTT_ACCELERATOR_REF8, None),
        ("Keccak accelerator [8]", "keccak_accelerator_ref8", KECCAK_ACCELERATOR_REF8, None),
    ];
    (rows, total)
}

fn row(&(label, _, r, paper): &Row) {
    print!(
        "{:<28} {:>8} {:>10} {:>7} {:>6}",
        label, r.luts, r.regs, r.brams, r.dsps
    );
    if let Some((l, rg, b, d)) = paper {
        print!("    (paper: {l:>6} {rg:>6} {b:>3} {d:>3})");
    }
    println!();
}

fn json_row(&(_, key, r, paper): &Row) -> String {
    let mut fields = vec![
        json::str_field("unit", key),
        format!(
            "\"luts\": {}, \"regs\": {}, \"brams\": {}, \"dsps\": {}",
            r.luts, r.regs, r.brams, r.dsps
        ),
    ];
    if let Some((l, rg, b, d)) = paper {
        fields.push(format!(
            "\"paper\": {{\"luts\": {l}, \"regs\": {rg}, \"brams\": {b}, \"dsps\": {d}}}"
        ));
    }
    format!("    {{{}}}", fields.join(", "))
}

fn emit_json() {
    let (rows, accel_total) = rows();
    let rows: Vec<String> = rows.iter().map(json_row).collect();
    println!("{{");
    println!("  \"table\": \"III\",");
    println!("  \"rows\": [\n{}\n  ],", rows.join(",\n"));
    println!(
        "  \"pq_alu_total\": {{\"luts\": {}, \"regs\": {}, \"dsps\": {}}}",
        accel_total.luts, accel_total.regs, accel_total.dsps
    );
    println!("}}");
}

fn main() {
    if Flags::parse(&["json"], &[]).has("json") {
        emit_json();
        return;
    }
    println!("Table III — resource utilization (structural model vs paper synthesis)\n");
    println!(
        "{:<28} {:>8} {:>10} {:>7} {:>6}",
        "", "LUTs", "Registers", "BRAMs", "DSPs"
    );

    let (rows, accel_total) = rows();
    let (pq_alu, reference) = rows.split_at(6);
    pq_alu.iter().for_each(row);
    println!();
    reference.iter().for_each(row);

    println!("\nDerived comparisons (Section VI):");
    println!(
        "  accelerator overhead vs [8]: +{} LUTs, +{} registers, -{} DSPs, -{} BRAM",
        accel_total.luts as i64 - (NTT_ACCELERATOR_REF8.luts + KECCAK_ACCELERATOR_REF8.luts) as i64,
        accel_total.regs as i64 - (NTT_ACCELERATOR_REF8.regs + KECCAK_ACCELERATOR_REF8.regs) as i64,
        (NTT_ACCELERATOR_REF8.dsps + KECCAK_ACCELERATOR_REF8.dsps) as i64 - accel_total.dsps as i64,
        NTT_ACCELERATOR_REF8.brams + KECCAK_ACCELERATOR_REF8.brams
    );
    println!(
        "  total PQ-ALU additions: {} LUTs, {} registers, {} DSPs  [paper: 32,617 LUTs, 11,019 registers, 2 DSPs]",
        accel_total.luts, accel_total.regs, accel_total.dsps
    );
}
