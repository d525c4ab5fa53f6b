//! The table, figure, ablation and kernel bins refuse what they do not
//! read: an unknown option, or a value that does not parse, prints the
//! usage and exits 2 before any measurement runs.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run bin")
}

#[test]
fn a_misspelt_option_or_a_bad_value_exits_2_before_any_work() {
    let shootout = env!("CARGO_BIN_EXE_kernel_shootout");
    let table5 = env!("CARGO_BIN_EXE_table5_frequencies");
    for (bin, args) in [
        (shootout, &["--smoke", "--n", "64", "--flipz", "5"][..]),
        (shootout, &["--n", "abc"][..]),
        (
            table5,
            &["--runs", "1", "--budget-ms", "1", "--runz", "1"][..],
        ),
        (table5, &["--runs", "abc"][..]),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran");
    }
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    let out = run(env!("CARGO_BIN_EXE_kernel_shootout"), &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: kernel_shootout"), "{stdout}");
}
