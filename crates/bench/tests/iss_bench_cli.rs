//! The `lac-bench` binaries refuse a flag or size they cannot run, naming
//! it, before they run anything.

/// Run `bin` with `args`: it must exit 2 with nothing on stdout and
/// `needle` on stderr.
fn assert_usage_error(bin: &str, args: &[&str], needle: &str) {
    let out = std::process::Command::new(bin)
        .args(args)
        .output()
        .expect("binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains(needle) && out.stdout.is_empty(),
        "{bin} {args:?}: {stderr}"
    );
}

#[test]
fn zero_sizes_are_usage_errors_naming_the_flag() {
    for (args, flag) in [
        (&["--iters", "0"][..], "--iters"),
        (&["--json", "--iters", "0", "--engine", "jit"], "--iters"),
        (&["--sweep", "--json"], "unknown flag --sweep"),
    ] {
        assert_usage_error(env!("CARGO_BIN_EXE_iss_bench"), args, flag);
    }
}

#[test]
fn tables_take_no_threads_flag() {
    for bin in [env!("CARGO_BIN_EXE_table1"), env!("CARGO_BIN_EXE_table2")] {
        assert_usage_error(bin, &["--threads", "2"], "unknown flag --threads");
    }
}
