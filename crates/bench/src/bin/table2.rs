//! Regenerate **Table II**: CCA-KEM cycle counts and bottleneck columns for
//! LAC-128/192/256 in three configurations — the reference software, the
//! reference with constant-time BCH, and the ISA-extension-optimized
//! implementation — on the RISCY cost model.
//!
//! The ARM Cortex-M4 rows are external hardware and are reprinted as
//! quoted constants; the NewHope row is **measured** from our baseline
//! implementation (`crates/newhope`) in the \[8\]-style co-processor
//! configuration and printed next to \[8\]'s published numbers.
//!
//! Run: `cargo run --release -p lac-bench --bin table2`
//! (`--json` emits the same data as machine-readable JSON; `--threads N`
//! caps the shard worker count, default all cores)

use lac_bench::{table2, Flags};

fn main() {
    let flags = Flags::parse(&["json"], &["threads"]);
    table2::run(flags.has("json"), flags.value("threads"));
}
