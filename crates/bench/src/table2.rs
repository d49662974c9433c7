//! Table II rendering: CCA-KEM cycle counts and bottleneck columns.
//!
//! The nine measured rows (LAC-128/192/256 × {reference, constant-time
//! BCH, optimized}) are independent deterministic measurements, so they
//! are fanned out over [`crate::shard`] workers — one parameter-set/
//! backend cell per job — and merged back in row order. The `--json`
//! output is byte-identical for any thread count.

use crate::{json, measure_kem, ratio, shard, thousands, KemRow, PAPER_TABLE2};
use lac::{BackendKind, Params};

/// The paper's backend configurations, in table order.
const CONFIGS: [BackendKind; 3] = [BackendKind::Ref, BackendKind::Ct, BackendKind::Hw];

/// The table label of one cell, e.g. "LAC-128 const. BCH".
fn row_label(kind: BackendKind, params: Params) -> String {
    format!("{} {}", params.name(), kind.label())
}

/// The headline decapsulation speed-up of `params`: const. BCH over opt.
fn decaps_speedup(rows: &[KemRow], params: Params) -> f64 {
    let decaps = |kind| {
        rows.iter()
            .find(|r| r.label == row_label(kind, params))
            .expect("measured row")
            .decaps
    };
    decaps(BackendKind::Ct) as f64 / decaps(BackendKind::Hw) as f64
}

/// Measure the nine table rows, one shard job per cell, in table order
/// (ref. 128/192/256, const. BCH 128/192/256, opt. 128/192/256).
pub fn measure_rows(threads: usize) -> Vec<KemRow> {
    let jobs = CONFIGS.len() * Params::ALL.len();
    shard::run_indexed(jobs, threads, |i| {
        let kind = CONFIGS[i / Params::ALL.len()];
        let params = Params::ALL[i % Params::ALL.len()];
        measure_kem(params, kind.build().as_mut(), &row_label(kind, params))
    })
}

fn print_row(row: &KemRow, paper: Option<&[u64; 7]>) {
    println!(
        "{:<20} {:>4} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10} {:>9}",
        row.label,
        row.category,
        thousands(row.keygen),
        thousands(row.encaps),
        thousands(row.decaps),
        thousands(row.gen_a),
        thousands(row.sample),
        thousands(row.mul),
        thousands(row.bch_dec),
    );
    if let Some(p) = paper {
        println!(
            "{:<20} {:>4} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10} {:>9}",
            "  (paper / ratio)",
            "",
            format!("{}", ratio(row.keygen, p[0])),
            ratio(row.encaps, p[1]),
            ratio(row.decaps, p[2]),
            ratio(row.gen_a, p[3]),
            ratio(row.sample, p[4]),
            ratio(row.mul, p[5]),
            ratio(row.bch_dec, p[6]),
        );
    }
}

fn emit_json(rows: &[KemRow]) {
    let mut out = Vec::new();
    for row in rows {
        let paper = PAPER_TABLE2
            .iter()
            .find(|(l, _)| *l == row.label)
            .map(|(_, v)| v);
        let mut fields = vec![
            json::str_field("scheme", &row.label),
            json::str_field("category", row.category),
            format!("\"keygen\": {}", row.keygen),
            format!("\"encaps\": {}", row.encaps),
            format!("\"decaps\": {}", row.decaps),
            format!("\"gen_a\": {}", row.gen_a),
            format!("\"sample\": {}", row.sample),
            format!("\"mul\": {}", row.mul),
            format!("\"bch_dec\": {}", row.bch_dec),
        ];
        if let Some(p) = paper {
            fields.push(format!(
                "\"paper\": {{\"keygen\": {}, \"encaps\": {}, \"decaps\": {}, \"gen_a\": {}, \"sample\": {}, \"mul\": {}, \"bch_dec\": {}}}",
                p[0], p[1], p[2], p[3], p[4], p[5], p[6]
            ));
        }
        out.push(format!("    {{{}}}", fields.join(", ")));
    }
    let mut speedups = Vec::new();
    for params in Params::ALL {
        speedups.push(format!(
            "    {{{}, \"decaps_speedup\": {:.4}}}",
            json::str_field("scheme", params.name()),
            decaps_speedup(rows, params)
        ));
    }
    println!("{{");
    println!("  \"table\": \"II\",");
    println!("  \"rows\": [\n{}\n  ],", out.join(",\n"));
    println!("  \"speedups\": [\n{}\n  ]", speedups.join(",\n"));
    println!("}}");
}

/// Render Table II to stdout.
///
/// `threads = None` resolves via [`shard::thread_count`] (available
/// parallelism). Measurement values are independent of the
/// thread count.
pub fn run(emit_json_output: bool, threads: Option<usize>) {
    let rows = measure_rows(shard::thread_count(threads));
    if emit_json_output {
        emit_json(&rows);
        return;
    }
    println!("Table II — cycle count for the key encapsulation and performance bottlenecks");
    println!("(CCA security; all rows measured on the RISCY cost model; ratios vs paper)\n");
    println!(
        "{:<20} {:>4} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10} {:>9}",
        "Scheme", "Cat", "Key-Gen", "Encaps", "Decaps", "GenA", "Sample", "Mult", "BCH Dec"
    );

    // Quoted external rows (ARM Cortex-M4 reference implementation [4]).
    for (name, cat, kg, enc, dec) in [
        (
            "LAC-128 ref. [4]",
            "I",
            2_266_368u64,
            3_979_851u64,
            6_303_717u64,
        ),
        ("LAC-192 ref. [4]", "III", 7_532_180, 9_986_506, 17_452_435),
        ("LAC-256 ref. [4]", "V", 7_665_769, 13_533_851, 21_125_257),
    ] {
        println!(
            "{:<20} {:>4} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10} {:>9}",
            name,
            cat,
            thousands(kg),
            thousands(enc),
            thousands(dec),
            "-",
            "-",
            "-",
            "-"
        );
    }
    println!("  (rows above quoted from pqm4 — ARM Cortex-M4, not modelled)\n");

    for chunk in rows.chunks(Params::ALL.len()) {
        for row in chunk {
            let paper = PAPER_TABLE2
                .iter()
                .find(|(l, _)| *l == row.label)
                .map(|(_, v)| v);
            print_row(row, paper);
        }
        println!();
    }

    // NewHope CPA row: measured from our baseline implementation with the
    // [8]-style co-processor configuration, next to [8]'s published row.
    {
        use lac_rand::Sha256CtrRng;
        use newhope::{AcceleratedBackend as NhAccel, CpaKem, NewHopeParams};
        let kem = CpaKem::new(NewHopeParams::newhope1024());
        let mut backend = NhAccel::new();
        let mut rng = Sha256CtrRng::seed_from_u64(0xBEEF);
        let (pk, sk) = kem.keygen(&mut rng, &mut backend, &mut lac_meter::NullMeter);
        let (ct, _) = kem.encapsulate(&mut rng, &pk, &mut backend, &mut lac_meter::NullMeter);
        let mut kg = lac_meter::CycleLedger::new();
        kem.keygen(&mut rng, &mut backend, &mut kg);
        let mut enc = lac_meter::CycleLedger::new();
        kem.encapsulate(&mut rng, &pk, &mut backend, &mut enc);
        let mut dec = lac_meter::CycleLedger::new();
        kem.decapsulate(&sk, &ct, &mut backend, &mut dec);
        println!(
            "{:<20} {:>4} {:>12} {:>12} {:>12} {:>10} {:>10}  (CPA baseline, measured)",
            "NewHope opt.",
            "V",
            thousands(kg.total()),
            thousands(enc.total()),
            thousands(dec.total()),
            thousands(kg.phase_total(lac_meter::Phase::GenA)),
            thousands(kg.phase_total(lac_meter::Phase::SamplePoly)),
        );
        println!(
            "{:<20} {:>4} {:>12} {:>12} {:>12} {:>10} {:>10}  (as published in [8])",
            "NewHope opt. [8]",
            "V",
            thousands(357_052),
            thousands(589_285),
            thousands(167_647),
            thousands(42_050),
            thousands(75_682),
        );
    }

    // Headline speedups: decapsulation, constant-time baseline vs optimized.
    println!("\nHeadline decapsulation speedups (const. BCH -> opt.):");
    for params in Params::ALL {
        let paper_factor = match params.name() {
            "LAC-128" => 7.66,
            "LAC-192" => 14.42,
            _ => 13.36,
        };
        println!(
            "  {:>8}: {:.2}x   [paper: {:.2}x]",
            params.name(),
            decaps_speedup(&rows, params),
            paper_factor
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_come_back_in_table_order() {
        // Thread-count invariance of the *order* is the load-bearing
        // property; use the cheap opt. backend cells only via a tiny
        // stand-in check on labels from a single-threaded run.
        let labels: Vec<String> = (0..9)
            .map(|i| {
                row_label(
                    CONFIGS[i / Params::ALL.len()],
                    Params::ALL[i % Params::ALL.len()],
                )
            })
            .collect();
        assert_eq!(labels[0], "LAC-128 ref.");
        assert_eq!(labels[3], "LAC-128 const. BCH");
        assert_eq!(labels[8], "LAC-256 opt.");
        for (i, (label, _)) in PAPER_TABLE2.iter().enumerate() {
            assert_eq!(&labels[i], label, "shard order matches paper order");
        }
    }
}
