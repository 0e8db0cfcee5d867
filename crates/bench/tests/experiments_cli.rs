//! The `experiments` command line refuses what it does not know: an unknown
//! experiment, `--scale` or `--format` exits with status 2 before any
//! experiment runs, so a typo in a CI step fails the step.  `loc` under a
//! machine-readable format stays a skip (exit 0, a note on stderr).

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

#[test]
fn unknown_arguments_exit_2_before_anything_runs() {
    for args in [
        &["tabel1"][..],
        &["table1", "tabel1"],
        &["--scale", "huge", "table1"],
        &["incremental", "--format", "xml"],
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed rows before failing"
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown"),
            "{args:?} failed without naming the bad argument"
        );
    }
}

#[test]
fn loc_under_a_machine_readable_format_is_a_skip() {
    let out = experiments(&["loc", "--format", "csv"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("loc is text-only"));
}
