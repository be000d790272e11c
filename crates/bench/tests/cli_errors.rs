//! The experiment binaries reject a bad command-line value with exit code
//! 1 and an error that names the offending flag or study. They do so
//! before any work starts: nothing reaches stdout, so a typo never costs a
//! pre-training or a characterisation run. A stdout that closes early is
//! an error too, not a panic.

use std::process::{Command, Output};

const FIG2: &str = env!("CARGO_BIN_EXE_fig2");
const FIG3: &str = env!("CARGO_BIN_EXE_fig3");
const ABLATION: &str = env!("CARGO_BIN_EXE_ablation");
const JOURNAL_TOOL: &str = env!("CARGO_BIN_EXE_journal-tool");

fn run(bin: &str, args: &[&str]) -> (Output, String) {
    let output = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output, stderr)
}

/// `bin args` must exit 1, print nothing to stdout, and name every
/// `needle` on stderr.
fn rejects(bin: &str, args: &[&str], needles: &[&str]) {
    let (output, stderr) = run(bin, args);
    assert_eq!(
        output.status.code(),
        Some(1),
        "{bin} {args:?} must fail; stderr: {stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "{bin} {args:?} started work before rejecting its arguments: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{bin} {args:?}: stderr does not name {needle}: {stderr}"
        );
    }
}

#[test]
fn fig2_rejects_an_unknown_part() {
    rejects(
        FIG2,
        &["--scale", "smoke", "--part", "x"],
        &["--part", "\"x\""],
    );
}

#[test]
fn fig3_rejects_non_numeric_chip_counts() {
    for count in ["x", "0"] {
        rejects(
            FIG3,
            &["--scale", "smoke", "--chips", count],
            &["--chips", &format!("{count:?}")],
        );
    }
}

#[test]
fn fig3_rejects_a_strategy_with_a_policy() {
    rejects(
        FIG3,
        &["--scale=smoke", "--strategy=all", "--policy=reduce-max"],
        &["--strategy", "--policy"],
    );
}

#[test]
fn ablation_rejects_an_unknown_study_but_prints_usage_on_request() {
    rejects(ABLATION, &["grdi"], &["study", "\"grdi\"", "grid"]);
    for args in [&[][..], &["help"][..]] {
        let (output, stderr) = run(ABLATION, args);
        assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: ablation"), "{args:?}: {stderr}");
    }
}

#[test]
fn ablation_rejects_executor_flags_for_studies_that_ignore_them() {
    let out = std::env::temp_dir().join(format!("ablation-cli-{}", std::process::id()));
    let out_arg = out.to_string_lossy().into_owned();
    for study in ["fault-model", "mitigation", "unprotected", "bn-recal"] {
        rejects(
            ABLATION,
            &[study, "--scale", "smoke", "--threads", "2"],
            &[&format!("{study:?}"), "--threads"],
        );
        rejects(
            ABLATION,
            &[study, "--scale", "smoke", "--out", &out_arg],
            &[&format!("{study:?}"), "--out"],
        );
    }
    assert!(
        !out.exists(),
        "a rejected run must not create its --out directory"
    );
}

/// `bin args` writing into a pipe whose reader is already gone must exit
/// 1 with the `Broken pipe` error on stderr, not panic.
fn fails_on_closed_stdout(bin: &str, args: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let output = Command::new(bin)
        .args(args)
        .stdout(writer)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("Broken pipe"), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

#[test]
fn a_closed_stdout_is_an_error_not_a_panic() {
    let empty = std::env::temp_dir().join(format!("journal-tool-cli-{}", std::process::id()));
    std::fs::create_dir_all(&empty).expect("temp dir");
    let empty_arg = empty.to_string_lossy().into_owned();
    fails_on_closed_stdout(JOURNAL_TOOL, &["stat", &empty_arg]);
    let _ = std::fs::remove_dir_all(&empty);
    fails_on_closed_stdout(ABLATION, &["fault-model", "--scale", "smoke"]);
}
