//! Command-line contract of the sweep binaries: `--help` lists the flags
//! and runs nothing, and an argument no flag reads is an error that names
//! it rather than a silently ignored word. Also pins the bytes of the
//! paper-artifact report.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dlp_core::store::Hasher;

/// A fresh, empty working directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlp-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, dir: &Path, args: &[&str]) -> Output {
    Command::new(bin).args(args).current_dir(dir).output().unwrap()
}

fn assert_help_runs_nothing(bin: &str, tag: &str, flag: &str) {
    let dir = scratch_dir(tag);
    let out = run(bin, &dir, &["--help"]);
    assert!(out.status.success(), "--help exited with {}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(flag), "--help does not list {flag}:\n{stdout}");
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "--help wrote {written:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

fn assert_rejects(bin: &str, tag: &str, args: &[&str], named: &str) {
    let dir = scratch_dir(tag);
    let out = run(bin, &dir, args);
    assert!(!out.status.success(), "{args:?} exited 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(named), "stderr does not name {named}:\n{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_help_lists_flags_and_writes_nothing() {
    assert_help_runs_nothing(env!("CARGO_BIN_EXE_sweep"), "sweep-help", "--store");
}

#[test]
fn sweep_rejects_a_misspelt_flag_by_name() {
    let args = ["--quick", "--kernels", "convert", "--stor", "x"];
    assert_rejects(env!("CARGO_BIN_EXE_sweep"), "sweep-stor", &args, "--stor");
}

#[test]
fn sweep_rejects_a_value_flag_without_its_value() {
    assert_rejects(env!("CARGO_BIN_EXE_sweep"), "sweep-out", &["--quick", "--out"], "--out");
}

/// The sweep has no circuit breaker: its old flag is an unknown argument
/// and `--help` does not offer it.
#[test]
fn sweep_has_no_breaker_flag() {
    let bin = env!("CARGO_BIN_EXE_sweep");
    let args = ["--quick", "--kernels", "convert", "--breaker", "2"];
    assert_rejects(bin, "sweep-breaker", &args, "--breaker");
    let dir = scratch_dir("sweep-help-breaker");
    let out = run(bin, &dir, &["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success() && !stdout.contains("--breaker"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Each of `flags` is an unknown argument to `sweep`, `--help` offers
/// none of them, and `DLP_CRASHPOINT=crashpoint` arms nothing.
fn assert_sweep_lacks(tag: &str, flags: &[&str], crashpoint: &str) {
    let bin = env!("CARGO_BIN_EXE_sweep");
    for flag in flags {
        let args = ["--quick", "--kernels", "convert", flag, "x.jsonl"];
        assert_rejects(bin, tag, &args, flag);
    }
    let dir = scratch_dir(&format!("{tag}-help"));
    let out = run(bin, &dir, &["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "--help exited with {}", out.status);
    assert!(flags.iter().all(|flag| !stdout.contains(flag)), "{stdout}");
    let out = Command::new(bin)
        .args(["--quick", "--kernels", "convert"])
        .env("DLP_CRASHPOINT", crashpoint)
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(!out.status.success(), "DLP_CRASHPOINT={crashpoint} exited 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("DLP_CRASHPOINT={crashpoint}")), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The result store is the sweep's one checkpoint: the manifest flags
/// and crashpoints are gone.
#[test]
fn sweep_has_no_manifest_flags() {
    assert_sweep_lacks("sweep-manifest", &["--manifest", "--resume"], "manifest.append");
}

/// A failed cell is recorded once, in the report, and re-diagnosed by a
/// rerun on the store: the dead-letter queue's flags and crashpoints are
/// gone.
#[test]
fn sweep_has_no_dlq_flags() {
    assert_sweep_lacks("sweep-dlq", &["--dlq", "--replay-dlq"], "dlq.append");
}

/// `DLP_CRASHPOINT` is the one way to arm a crashpoint: the old flag is
/// an unknown argument.
#[test]
fn sweep_has_no_crashpoint_flag() {
    let args = ["--quick", "--kernels", "convert", "--crashpoint", "entry.tmp"];
    assert_rejects(env!("CARGO_BIN_EXE_sweep"), "sweep-crashpoint", &args, "--crashpoint");
}

/// A misspelt crashpoint would arm nothing and let a crash test run to
/// completion; the sweep refuses to start instead.
#[test]
fn sweep_rejects_a_crashpoint_that_arms_nothing() {
    let dir = scratch_dir("sweep-crashpoint-env");
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--quick", "--kernels", "convert"])
        .env("DLP_CRASHPOINT", "entry.rename")
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(!out.status.success(), "DLP_CRASHPOINT=entry.rename exited 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("DLP_CRASHPOINT"), "stderr does not name DLP_CRASHPOINT:\n{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn faults_help_lists_flags_and_writes_nothing() {
    assert_help_runs_nothing(env!("CARGO_BIN_EXE_faults"), "faults-help", "--threads");
}

#[test]
fn faults_rejects_a_misspelt_flag_by_name() {
    let args = ["--quick", "--threds", "1"];
    assert_rejects(env!("CARGO_BIN_EXE_faults"), "faults-threds", &args, "--threds");
}

/// `report --quick` writes the Figure 5 and Table 6 JSON these values
/// were taken from; any change to a simulated number, a projection or
/// the JSON encoding moves them.
#[test]
fn quick_report_json_is_pinned() {
    let dir = scratch_dir("report-quick");
    let out = run(env!("CARGO_BIN_EXE_report"), &dir, &["--quick", "--out", "r.json"]);
    assert!(out.status.success(), "report --quick: {}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read(dir.join("r.json")).unwrap();
    assert_eq!(json.len(), 5143);
    let mut h = Hasher::new();
    h.update(&json);
    assert_eq!(h.digest().hex(), "39743551d603d5a994e379b9e0a84986");
    std::fs::remove_dir_all(&dir).unwrap();
}
