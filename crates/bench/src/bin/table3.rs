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
use lac_hw::{ChienUnit, ModQ, MulTer, Sha256Unit};

fn row(label: &str, r: ResourceEstimate, paper: Option<(u32, u32, u32, u32)>) {
    print!(
        "{:<28} {:>8} {:>10} {:>7} {:>6}",
        label, r.luts, r.regs, r.brams, r.dsps
    );
    if let Some((l, rg, b, d)) = paper {
        print!("    (paper: {l:>6} {rg:>6} {b:>3} {d:>3})");
    }
    println!();
}

fn json_row(label: &str, r: ResourceEstimate, paper: Option<(u32, u32, u32, u32)>) -> String {
    let mut fields = vec![
        json::str_field("unit", label),
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
    let mul_ter = MulTer::new(512);
    let chien = ChienUnit::new();
    let sha = Sha256Unit::new();
    let modq = ModQ::new();
    let accel_total = mul_ter.resources() + chien.resources() + sha.resources() + modq.resources();
    let rows = [
        json_row(
            "peripherals_memory",
            PERIPHERALS,
            Some((8_769, 7_369, 32, 0)),
        ),
        json_row(
            "riscv_core_total",
            accel_total + RISCY_BASE,
            Some((53_819, 13_928, 0, 10)),
        ),
        json_row(
            "ternary_multiplier",
            mul_ter.resources(),
            Some((31_465, 9_305, 0, 0)),
        ),
        json_row("gf_multipliers", chien.resources(), Some((86, 158, 0, 0))),
        json_row("sha256", sha.resources(), Some((1_031, 1_556, 0, 0))),
        json_row("modulo_barrett", modq.resources(), Some((35, 0, 0, 2))),
        json_row("ntt_accelerator_ref8", NTT_ACCELERATOR_REF8, None),
        json_row("keccak_accelerator_ref8", KECCAK_ACCELERATOR_REF8, None),
    ];
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

    let mul_ter = MulTer::new(512);
    let chien = ChienUnit::new();
    let sha = Sha256Unit::new();
    let modq = ModQ::new();

    let accel_total = mul_ter.resources() + chien.resources() + sha.resources() + modq.resources();
    let core_total = accel_total + RISCY_BASE;

    row(
        "Peripherals/Memory",
        PERIPHERALS,
        Some((8_769, 7_369, 32, 0)),
    );
    row(
        "RISC-V core total",
        core_total,
        Some((53_819, 13_928, 0, 10)),
    );
    row(
        " - Ternary Multiplier",
        mul_ter.resources(),
        Some((31_465, 9_305, 0, 0)),
    );
    row(
        " - GF-Multipliers",
        chien.resources(),
        Some((86, 158, 0, 0)),
    );
    row(" - SHA256", sha.resources(), Some((1_031, 1_556, 0, 0)));
    row(" - Modulo (Barrett)", modq.resources(), Some((35, 0, 0, 2)));
    println!();
    row("NTT accelerator [8]", NTT_ACCELERATOR_REF8, None);
    row("Keccak accelerator [8]", KECCAK_ACCELERATOR_REF8, None);

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
