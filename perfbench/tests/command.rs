//! The benchmark command fails when a correctness check fails.

use std::process::Command;

fn perfbench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().unwrap_or("")
}

#[test]
fn a_wrong_shadow_makes_the_restart_check_fail() {
    let args = ["--workload", "restart", "--seed", "5", "--seconds", "1", "--trace", "0"];
    let (code, stdout) = perfbench(&args);
    assert_eq!(code, Some(0), "the honest run passes: {stdout}");
    assert!(last_line(&stdout).starts_with("{\"correct\": true"), "{stdout}");

    let (code, stdout) = perfbench(&[&args[..], &["--corrupt-shadow"]].concat());
    assert_eq!(code, Some(1), "a wrong shadow must fail the command: {stdout}");
    assert!(last_line(&stdout).starts_with("{\"correct\": false"), "{stdout}");
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let (code, stdout) = perfbench(&["--workload", "nonesuch"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty());
}
