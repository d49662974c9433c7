//! Ablation — the paper's stated future work: replace the SHA256 unit with
//! a Keccak accelerator (Section VI discusses exactly this trade-off
//! against reference \[8\], whose Keccak unit costs 10,435 LUTs vs the
//! SHA256 unit's 1,031).
//!
//! Prints, for every parameter set: KEM cycle counts under the SHA-256
//! PQ-ALU (`BackendKind::Hw`) vs the Keccak PQ-ALU
//! (`BackendKind::HwKeccak`, i.e. `AcceleratedBackend::keccak`), the
//! hash-bound columns (`GenA`, `Sample poly`), and the area price of the
//! swap.
//!
//! Run: `cargo run --release -p lac-bench --bin ablation_keccak`

use lac::{BackendKind, Params};
use lac_bench::{measure_kem, thousands, Flags};
use lac_hw::{KeccakUnit, Sha256Unit};

fn main() {
    Flags::parse(&[], &[]);
    println!("Ablation: SHA256 unit vs Keccak unit in the PQ-ALU (the paper's future work)\n");
    println!(
        "{:<26} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "Configuration", "Key-Gen", "Encaps", "Decaps", "GenA", "Sample"
    );

    for params in Params::ALL {
        let hash_units = [
            (BackendKind::Hw, "SHA256"),
            (BackendKind::HwKeccak, "Keccak"),
        ];
        let [row, krow] = hash_units.map(|(kind, unit)| {
            let label = format!("{} + {unit}", params.name());
            let row = measure_kem(params, kind.build().as_mut(), &label);
            println!(
                "{:<26} {:>12} {:>12} {:>12} {:>10} {:>10}",
                row.label,
                thousands(row.keygen),
                thousands(row.encaps),
                thousands(row.decaps),
                thousands(row.gen_a),
                thousands(row.sample),
            );
            row
        });
        println!(
            "{:<26} {:>12.2} {:>12.2} {:>12.2} {:>10.2} {:>10.2}",
            "  speedup",
            row.keygen as f64 / krow.keygen as f64,
            row.encaps as f64 / krow.encaps as f64,
            row.decaps as f64 / krow.decaps as f64,
            row.gen_a as f64 / krow.gen_a as f64,
            row.sample as f64 / krow.sample as f64,
        );
        println!();
    }

    let sha = Sha256Unit::new().resources();
    let keccak = KeccakUnit::new().resources();
    println!("Area price of the swap (hash unit only):");
    println!("  SHA256 unit : {sha}");
    println!("  Keccak unit : {keccak}");
    println!(
        "  ratio       : {:.1}x LUTs, {:.1}x registers",
        keccak.luts as f64 / sha.luts as f64,
        keccak.regs as f64 / sha.regs as f64
    );
    println!("\n(The Keccak variant changes the hash function, so it is a design-space");
    println!("exploration, not a drop-in interoperable implementation — see the");
    println!("AcceleratedBackend::keccak docs.)");
}
