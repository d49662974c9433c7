//! Regenerate **Table I**: cycle counts of the BCH(511,367,16) decoder on
//! the RISC-V cost model, for the 2nd-round-submission implementation
//! (variable time) and the Walters et al. constant-time implementation, at
//! 0 and 16 injected errors.
//!
//! Run: `cargo run --release -p lac-bench --bin table1`
//! (`--json` emits the same data as machine-readable JSON; `--threads N`
//! caps the shard worker count, default all cores / `LAC_BENCH_THREADS`)

use lac_bench::{json, table1, threads_arg};

fn main() {
    table1::run(json::requested(), threads_arg());
}
