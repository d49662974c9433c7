//! Shared harness code for the table-reproduction binaries.
//!
//! The paper's evaluation consists of three tables:
//!
//! * **Table I** — BCH(511,367,16) decoder cycle counts on RISC-V for the
//!   submission decoder vs the constant-time decoder, at 0 and 16 errors
//!   (`cargo run -p lac-bench --bin table1`);
//! * **Table II** — CCA-KEM cycle counts (KeyGen/Encaps/Decaps) plus the
//!   four bottleneck columns for LAC-128/192/256 × {reference, constant
//!   BCH, optimized} (`--bin table2`);
//! * **Table III** — FPGA resource utilization of the accelerators
//!   (`--bin table3`).
//!
//! Each binary prints the paper's reported numbers next to our modelled
//! measurements, and the measured-to-paper ratio, so deviations are visible
//! at a glance. `EXPERIMENTS.md` archives one run of each.

#![warn(missing_docs)]

use lac::{Backend, Kem, Params};
use lac_meter::{CycleLedger, NullMeter, Phase};
use lac_rand::Sha256CtrRng;

pub use lac_meter::report::thousands;

pub mod iss;
pub mod table1;
pub mod table2;

/// Minimal hand-rolled JSON emission for the table binaries' `--json` mode
/// (the workspace has no serde; the values are flat numbers and ASCII
/// labels, so a string escaper and a builder discipline suffice).
pub mod json {
    /// Escape a string for inclusion inside a JSON string literal.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// `"key": "value"` fragment with an escaped string value.
    pub fn str_field(key: &str, value: &str) -> String {
        format!("\"{}\": \"{}\"", escape(key), escape(value))
    }
}

/// A `lac-bench` binary's command line, checked against the flags the
/// binary reads. A flag the run would ignore is a mistake, not a no-op:
/// an unknown flag, a missing value or an unparsable value exits with
/// status 2 and an error naming the flag.
#[derive(Debug)]
pub struct Flags {
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parse the process arguments. `switches` take no value (`--json`);
    /// `valued` flags take one (`--iters N` or `--iters=N`).
    pub fn parse(switches: &[&str], valued: &[&str]) -> Self {
        Self::from_args(std::env::args().skip(1), switches, valued)
            .unwrap_or_else(|message| usage_error(&message))
    }

    fn from_args(
        mut args: impl Iterator<Item = String>,
        switches: &[&str],
        valued: &[&str],
    ) -> Result<Self, String> {
        let mut given = Vec::new();
        while let Some(arg) = args.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}'"));
            };
            let (name, inline) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (flag, None),
            };
            let value = if valued.contains(&name) {
                Some(
                    inline
                        .or_else(|| args.next())
                        .ok_or_else(|| format!("--{name} needs a value"))?,
                )
            } else if switches.contains(&name) && inline.is_none() {
                None
            } else if switches.contains(&name) {
                return Err(format!("--{name} takes no value"));
            } else {
                return Err(format!("unknown flag --{name}"));
            };
            given.push((name.to_string(), value));
        }
        Ok(Self { given })
    }

    /// Whether the switch `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(flag, _)| flag == name)
    }

    /// The value of `--name` (the last one given), parsed.
    pub fn value<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let (_, value) = self.given.iter().rev().find(|(flag, _)| flag == name)?;
        let value = value.as_deref().unwrap_or_default();
        Some(
            value
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("bad --{name} '{value}'"))),
        )
    }

    /// Refuse every given flag outside `read`, the flags this run mode
    /// reads.
    pub fn only(&self, read: &[&str]) {
        if let Some((flag, _)) = self.given.iter().find(|(flag, _)| !read.contains(&&**flag)) {
            usage_error(&format!("--{flag} does not apply to this run"));
        }
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Sum of the BCH decode sub-phases (the paper's "BCH Dec." column).
pub fn bch_decode_total(ledger: &CycleLedger) -> u64 {
    [
        Phase::BchSyndrome,
        Phase::BchErrorLocator,
        Phase::BchChien,
        Phase::BchGlue,
    ]
    .iter()
    .map(|&p| ledger.phase_total(p))
    .sum()
}

/// One measured Table II row.
#[derive(Debug, Clone)]
pub struct KemRow {
    /// Scheme label, e.g. "LAC-128 ref.".
    pub label: String,
    /// NIST category label.
    pub category: &'static str,
    /// Modelled cycles for key generation.
    pub keygen: u64,
    /// Modelled cycles for encapsulation.
    pub encaps: u64,
    /// Modelled cycles for decapsulation.
    pub decaps: u64,
    /// `GenA` cycles within one decapsulation.
    pub gen_a: u64,
    /// `Sample poly` cycles within one decapsulation.
    pub sample: u64,
    /// Cycles of one full-length ring multiplication.
    pub mul: u64,
    /// BCH decode cycles within one decapsulation.
    pub bch_dec: u64,
}

/// Measure one Table II row for `params` on `backend`.
///
/// The three KEM operations are run with fresh ledgers; the bottleneck
/// columns are extracted the way the paper reports them: `GenA` and
/// `Sample poly` from the key-generation ledger (one `GenA`, two sampled
/// polynomials), `BCH Dec.` from the decapsulation ledger, and
/// `Multiplication` as the cost of one full-length ring multiplication on
/// this backend.
pub fn measure_kem(params: Params, backend: &mut dyn Backend, label: &str) -> KemRow {
    let kem = Kem::new(params);
    let mut rng = Sha256CtrRng::seed_from_u64(0xBEEF);
    let (pk, sk) = kem.keygen(&mut rng, backend, &mut NullMeter);
    let (ct, _) = kem.encapsulate(&mut rng, &pk, backend, &mut NullMeter);

    let mut keygen = CycleLedger::new();
    let mut rng2 = Sha256CtrRng::seed_from_u64(0xF00D);
    kem.keygen(&mut rng2, backend, &mut keygen);

    let mut encaps = CycleLedger::new();
    kem.encapsulate(&mut rng2, &pk, backend, &mut encaps);

    let mut decaps = CycleLedger::new();
    kem.decapsulate(&sk, &ct, backend, &mut decaps);

    // One full-length multiplication, measured in isolation.
    let mut mul = CycleLedger::new();
    let t = sk.pke().s().clone();
    backend.ring_mul(&t, pk.pke().b(), &mut mul);

    KemRow {
        label: label.to_string(),
        category: params.category().label(),
        keygen: keygen.total(),
        encaps: encaps.total(),
        decaps: decaps.total(),
        gen_a: keygen.phase_total(Phase::GenA),
        sample: keygen.phase_total(Phase::SamplePoly),
        mul: mul.total(),
        bch_dec: bch_decode_total(&decaps),
    }
}

/// Paper-reported Table II values for the RISC-V rows (cycles).
/// Order: keygen, encaps, decaps, gen_a, sample, mul, bch_dec.
pub const PAPER_TABLE2: [(&str, [u64; 7]); 9] = [
    (
        "LAC-128 ref.",
        [
            2_980_721, 4_969_233, 7_544_632, 159_097, 190_173, 2_381_843, 161_514,
        ],
    ),
    (
        "LAC-192 ref.",
        [
            10_162_116, 13_388_940, 22_984_529, 287_609, 165_092, 9_482_261, 78_584,
        ],
    ),
    (
        "LAC-256 ref.",
        [
            10_516_000, 18_165_942, 27_879_782, 287_736, 344_541, 9_482_263, 171_622,
        ],
    ),
    (
        "LAC-128 const. BCH",
        [
            2_981_055, 4_969_238, 7_897_403, 159_192, 190_256, 2_381_843, 514_280,
        ],
    ),
    (
        "LAC-192 const. BCH",
        [
            10_162_502, 13_388_952, 23_126_138, 287_736, 165_185, 9_482_261, 220_181,
        ],
    ),
    (
        "LAC-256 const. BCH",
        [
            10_515_588, 18_165_040, 28_220_945, 287_609, 344_436, 9_482_263, 513_687,
        ],
    ),
    (
        "LAC-128 opt.",
        [542_814, 640_237, 839_132, 154_746, 159_134, 6_390, 160_295],
    ),
    (
        "LAC-192 opt.",
        [
            816_635, 1_086_148, 1_324_014, 282_264, 156_320, 151_354, 52_142,
        ],
    ),
    (
        "LAC-256 opt.",
        [
            1_086_252, 1_388_366, 1_759_756, 282_264, 291_007, 151_355, 160_296,
        ],
    ),
];

/// Paper Table I rows: (scheme, fails, syndrome, error locator, chien, decode).
pub const PAPER_TABLE1: [(&str, usize, [u64; 4]); 4] = [
    ("LAC Subm.", 0, [61_994, 158, 107_431, 171_522]),
    ("LAC Subm.", 16, [59_616, 10_172, 107_690, 179_798]),
    ("Walters et al.", 0, [89_335, 33_810, 380_546, 514_169]),
    ("Walters et al.", 16, [89_335, 33_867, 380_748, 514_428]),
];

/// Format a ratio `measured / paper` for display.
pub fn ratio(measured: u64, paper: u64) -> String {
    if paper == 0 {
        return "-".into();
    }
    format!("{:.2}x", measured as f64 / paper as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac::SoftwareBackend;

    #[test]
    fn measure_kem_produces_consistent_row() {
        let mut backend = SoftwareBackend::reference();
        let row = measure_kem(Params::lac128(), &mut backend, "LAC-128 ref.");
        assert!(row.keygen > 0 && row.encaps > 0 && row.decaps > 0);
        // Decapsulation includes a re-encryption, so it must cost more than
        // encapsulation alone.
        assert!(row.decaps > row.encaps);
        // The bottleneck columns are strictly inside the decapsulation total.
        assert!(row.gen_a + row.sample + row.bch_dec < row.decaps);
        assert_eq!(row.category, "I");
    }

    #[test]
    fn flags_refuse_what_the_binary_does_not_read() {
        let parse = |args: &[&str]| {
            let args = args.iter().map(|a| a.to_string());
            Flags::from_args(args, &["json"], &["threads"])
        };
        let flags = parse(&["--json", "--threads", "3"]).expect("known flags");
        assert!(flags.has("json"));
        assert_eq!(flags.value::<usize>("threads"), Some(3));
        assert_eq!(
            parse(&["--threads=2"]).unwrap().value::<usize>("threads"),
            Some(2)
        );
        for (args, needle) in [
            (&["--jsn"][..], "--jsn"),
            (&["--thread", "1"][..], "--thread"),
            (&["--threads"][..], "--threads needs a value"),
            (&["--json=1"][..], "--json takes no value"),
            (&["extra"][..], "'extra'"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(200, 100), "2.00x");
        assert_eq!(ratio(50, 100), "0.50x");
        assert_eq!(ratio(1, 0), "-");
    }

    #[test]
    fn paper_constants_have_expected_shape() {
        // Decaps > encaps > 0 in every paper row; opt rows are fastest.
        for (label, row) in PAPER_TABLE2 {
            assert!(row[2] > row[1], "{label}");
        }
        assert!(PAPER_TABLE2[6].1[2] < PAPER_TABLE2[0].1[2]);
    }
}
