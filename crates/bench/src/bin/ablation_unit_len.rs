//! Ablation — the MUL TER length trade-off.
//!
//! Section IV-A: "Alternatively, a larger MUL TER unit for high-speed
//! applications or a smaller one for area-limited devices can be used.
//! However, a length-512 MUL TER unit seems to present a good trade-off
//! between performance and area." This harness measures that design space:
//! multiplication cycles (direct vs via Algorithms 1&2) and structural area
//! for unit lengths 256, 512 and 1024, plus the resulting LAC-256
//! decapsulation cost.
//!
//! Run: `cargo run --release -p lac-bench --bin ablation_unit_len`

use lac::{AcceleratedBackend, Kem, Params};
use lac_bench::{thousands, Flags};
use lac_hw::mul_ter::PAPER_LEN;
use lac_hw::MulTer;
use lac_meter::{CycleLedger, NullMeter};
use lac_rand::Sha256CtrRng;
use lac_ring::split::mul_on_unit;
use lac_ring::{Convolution, Poly, TernaryPoly};

/// Cycles for a length-`n` product on a length-`unit` MUL TER, if the
/// unit can run it.
fn mul_cycles(unit: usize, n: usize) -> Option<u64> {
    let (t, g, conv) = (TernaryPoly::zero(n), Poly::zero(n), Convolution::Negacyclic);
    let mut ledger = CycleLedger::new();
    mul_on_unit(&mut MulTer::new(unit), &t, &g, conv, &mut ledger)?;
    Some(ledger.total())
}

fn main() {
    Flags::parse(&[], &[]);
    println!("Ablation: MUL TER unit length vs performance and area (Section IV-A trade-off)\n");
    println!(
        "{:>9} {:>14} {:>15} {:>10} {:>12}",
        "unit len", "mul n=512", "mul n=1024", "LUTs", "registers"
    );
    for unit in [PAPER_LEN / 2, PAPER_LEN, 2 * PAPER_LEN] {
        let area = MulTer::new(unit).resources();
        let m512 = mul_cycles(unit, 512).map_or("-".into(), thousands);
        let m1024 = mul_cycles(unit, 1024).map_or("-".into(), thousands);
        println!(
            "{:>9} {:>14} {:>15} {:>10} {:>12}",
            unit, m512, m1024, area.luts, area.regs
        );
    }

    println!("\nLAC-256 decapsulation with each viable unit:");
    for unit in [PAPER_LEN, 2 * PAPER_LEN] {
        let kem = Kem::new(Params::lac256());
        let mut backend = AcceleratedBackend::with_unit_len(unit);
        let mut rng = Sha256CtrRng::seed_from_u64(1);
        let (pk, sk) = kem.keygen(&mut rng, &mut backend, &mut NullMeter);
        let (ct, _) = kem.encapsulate(&mut rng, &pk, &mut backend, &mut NullMeter);
        let mut ledger = CycleLedger::new();
        kem.decapsulate(&sk, &ct, &mut backend, &mut ledger);
        let area = backend.mul_ter().resources();
        println!(
            "  unit {:>4}: decaps = {:>9} cycles at {:>6} LUTs",
            unit,
            thousands(ledger.total()),
            area.luts
        );
    }

    println!("\nReading: doubling the unit to 1024 removes the 25x splitting overhead for");
    println!("n = 1024 products but doubles the multiplier's area — while the length-512");
    println!("unit already makes multiplication cheaper than polynomial generation, which");
    println!("is the paper's argument for the 512 trade-off.");
}
