//! `iss_bench` refuses a size it cannot run, naming the flag, before it
//! runs anything.

#[test]
fn zero_sizes_are_usage_errors_naming_the_flag() {
    for (args, flag) in [
        (&["--iters", "0"][..], "--iters"),
        (&["--json", "--iters", "0", "--engine", "jit"], "--iters"),
        (&["--sweep", "--cells", "2", "--iters", "0"], "--iters"),
        (&["--sweep", "--cells", "0", "--json"], "--cells"),
    ] {
        let bin = env!("CARGO_BIN_EXE_iss_bench");
        let out = std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("iss_bench starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(flag) && out.stdout.is_empty(),
            "{args:?}: {stderr}"
        );
    }
}
