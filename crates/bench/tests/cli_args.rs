//! Command-line grammar of the `repro` binary: unknown flags are
//! rejected before any experiment runs, `--help` / `-h` print usage
//! and run nothing, and the documented flag forms keep working.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn unknown_flag_is_rejected_with_usage() {
    let out = repro(&["--bogus-flag"]);
    assert_eq!(out.status.code(), Some(2), "unknown flag must exit 2");
    let stderr = text(&out.stderr);
    assert!(stderr.contains("--bogus-flag"), "names the flag: {stderr}");
    assert!(stderr.contains("usage: repro"), "prints usage: {stderr}");
    assert!(
        !text(&out.stdout).contains("==="),
        "no experiment may run before the flag is rejected"
    );
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    for flag in ["--help", "-h"] {
        let out = repro(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag} exits 0");
        let stdout = text(&out.stdout);
        assert!(stdout.contains("usage: repro"), "{flag}: {stdout}");
        assert!(!stdout.contains("==="), "{flag} must not run experiments");
    }
}

#[test]
fn value_flags_and_experiment_names_still_parse() {
    let out = repro(&["--jobs", "1", "--timings", "table2"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.contains("=== Table 2"), "{stdout}");
    assert!(!stdout.contains("=== Table 1 "), "only table2 runs");

    let out = repro(&["table2", "--jobs"]);
    assert_eq!(out.status.code(), Some(2), "trailing value flag exits 2");
    assert!(text(&out.stderr).contains("--jobs expects a value"));
}

#[test]
fn serve_prices_requests_before_allocating_them() {
    // 4294967295 threads would need 17 GB per input buffer; the
    // mix must be priced and refused before any payload is built.
    let out_file = std::env::temp_dir().join("cli_args_serve_unadmitted.json");
    let _ = std::fs::remove_file(&out_file);
    let out = repro(&[
        "serve",
        "--threads",
        "4294967295",
        "--workers",
        "1",
        "--out",
        out_file.to_str().expect("utf-8 temp path"),
    ]);
    let stderr = text(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "nothing admitted exits 2: {stderr}"
    );
    let cheapest = ihw_analyze::stock_kernels()
        .iter()
        .map(|k| ihw_bench::serve::est_ops(k, u32::MAX))
        .min()
        .expect("stock kernels exist");
    assert!(
        stderr.contains(&format!("{cheapest} ops")),
        "names the estimate: {stderr}"
    );
    let budget = ihw_bench::serve::DEFAULT_MAX_OPS;
    assert!(
        stderr.contains(&format!("--max-ops budget of {budget}")),
        "names the budget: {stderr}"
    );
    assert!(!out_file.exists(), "no record is written");
}
