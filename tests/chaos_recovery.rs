//! Tier-1 crash-consistency tests: kill a real child process at every
//! named store crashpoint and prove recovery mechanically, then inject
//! host-I/O faults and prove they degrade to misses — never wrong
//! results, never panics.
//!
//! The child is this same test binary re-invoked on the `chaos_child`
//! harness test (guarded on `DLP_CHAOS_DIR`, ignored otherwise), which
//! runs a small fixed grid — two cacheable convert cells plus one
//! watchdog-strangled cell that fails on every run and is never stored
//! — against a store in the given directory, and writes its canonical
//! report last. Arming
//! `DLP_CRASHPOINT=<site>` makes the child abort mid-write; the parent
//! then fscks the wreckage, re-runs the child on the same store (which
//! serves the cells that landed before the kill), and requires the
//! recovered canonical report to be byte-identical to an uninterrupted
//! run's.
//!
//! `cargo xtask chaos` runs the same contract against the release
//! `sweep` binary; this test pins it in-tree at tier 1.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dlp_core::store::{fsck, iofault, IoFaultPlan, StoreLock, CRASHPOINTS};
use dlp_core::{CellSpec, ExperimentParams, MachineConfig, ResultStore, Sweep};

/// Serializes the chaos tests: crashpoint arming and the iofault shim
/// are process-global, and the child processes contend for the CPU.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlp-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const RECORDS: usize = 8;

/// The chaos grid: two cacheable cells plus a 2-tick-watchdog cell
/// that fails on every run, so a rerun on the store executes it again.
fn build_grid() -> Sweep {
    let params = ExperimentParams::default();
    let mut sweep = Sweep::with_threads(1);
    let id = sweep.add_kernel_by_name("convert").expect("suite kernel");
    for config in [MachineConfig::Baseline, MachineConfig::S] {
        sweep.push_config(id, config, RECORDS, &params);
    }
    sweep.push_cell(CellSpec {
        kernel: id,
        config: Some(MachineConfig::SO),
        mech: MachineConfig::SO.mechanisms(),
        records: RECORDS,
        params: ExperimentParams { watchdog: Some(2), ..ExperimentParams::default() },
        label: "strangled".into(),
    });
    sweep
}

/// The uninterrupted run's canonical report — the byte-level contract
/// every recovery must converge to.
fn reference_json() -> String {
    build_grid().run().canonical_json()
}

/// Spawn this test binary as a chaos child working in `dir`.
fn spawn_child(dir: &Path, extra: &[(&str, &str)]) -> std::process::Child {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.args(["chaos_child", "--exact", "--ignored"])
        .env_remove("DLP_CRASHPOINT")
        .env("DLP_CHAOS_DIR", dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (k, v) in extra {
        cmd.env(k, v);
    }
    cmd.spawn().expect("spawn chaos child")
}

fn run_child(dir: &Path, extra: &[(&str, &str)]) -> std::process::ExitStatus {
    spawn_child(dir, extra).wait().expect("wait for chaos child")
}

#[cfg(unix)]
fn aborted(status: &std::process::ExitStatus) -> bool {
    use std::os::unix::process::ExitStatusExt as _;
    status.signal() == Some(6) // SIGABRT — the crashpoint's exit
}

#[cfg(not(unix))]
fn aborted(status: &std::process::ExitStatus) -> bool {
    status.code() == Some(3) // Windows reports abort() as exit code 3
}

/// The child harness: runs the chaos grid against the store in
/// `DLP_CHAOS_DIR` (or `DLP_CHAOS_STORE`) and writes the canonical
/// report *last*, so a crashpoint kill anywhere
/// in the store's write paths precedes it. Ignored unless spawned by a
/// parent test (it is not a test of anything by itself).
#[test]
#[ignore = "crash-test child harness; spawned by the chaos tests"]
fn chaos_child() {
    let Ok(dir) = std::env::var("DLP_CHAOS_DIR") else { return };
    let dir = PathBuf::from(dir);
    let store_dir = std::env::var("DLP_CHAOS_STORE")
        .map_or_else(|_| dir.join("store"), PathBuf::from);

    if std::env::var("DLP_CHAOS_HOLD_LOCK").is_ok() {
        // Lock-holder mode: open the store (taking the lock), signal
        // the parent, and hold until released.
        let _store = ResultStore::open(&store_dir).expect("open store");
        std::fs::write(dir.join("held"), b"").expect("write marker");
        let deadline = Instant::now() + Duration::from_secs(60);
        while !dir.join("release").exists() {
            assert!(Instant::now() < deadline, "parent never released the lock holder");
            std::thread::sleep(Duration::from_millis(10));
        }
        return;
    }

    let mut sweep = build_grid();
    sweep.set_store(Arc::new(ResultStore::open(&store_dir).expect("open store")));
    let report = sweep.run();
    std::fs::write(dir.join("report.json"), report.canonical_json()).expect("write report");
}

#[test]
fn kill_matrix_recovers_byte_identical_reports() {
    let _gate = gate();
    let reference = reference_json();
    for site in CRASHPOINTS {
        let dir = tmpdir(&format!("kill-{site}"));

        let status = run_child(&dir, &[("DLP_CRASHPOINT", site)]);
        assert!(
            aborted(&status),
            "{site}: the armed crashpoint must abort the child (got {status})"
        );
        assert!(
            !dir.join("report.json").exists(),
            "{site}: a killed child must not have reached its report"
        );

        // The wreckage must fsck without error, whatever state the
        // kill left — quarantining and gc'ing as needed.
        let repair = fsck(&dir.join("store"))
            .unwrap_or_else(|e| panic!("{site}: post-kill fsck failed: {e}"));
        assert_eq!(repair.quarantined, 0, "{site}: kills tear files, they never corrupt entries");

        // Recovery: the child reruns on whatever the store kept.
        let status = run_child(&dir, &[]);
        assert!(status.success(), "{site}: recovery run failed ({status})");
        let got = std::fs::read_to_string(dir.join("report.json")).expect("recovered report");
        assert_eq!(
            got, reference,
            "{site}: recovered canonical report must be byte-identical to uninterrupted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn concurrent_sweeps_on_one_store_serialize_and_merge() {
    let _gate = gate();
    let reference = reference_json();
    let shared = tmpdir("shared-store");
    let store_dir = shared.join("store");
    let store_env = store_dir.to_string_lossy().into_owned();

    let dir_a = tmpdir("concurrent-a");
    let dir_b = tmpdir("concurrent-b");
    let a = spawn_child(&dir_a, &[("DLP_CHAOS_STORE", store_env.as_str())]);
    let b = spawn_child(&dir_b, &[("DLP_CHAOS_STORE", store_env.as_str())]);
    for (label, child) in [("a", a), ("b", b)] {
        let status = child.wait_with_output().expect("wait").status;
        assert!(status.success(), "concurrent child {label} failed ({status})");
    }
    for dir in [&dir_a, &dir_b] {
        let got = std::fs::read_to_string(dir.join("report.json")).expect("report");
        assert_eq!(got, reference, "both serialized sweeps produce the canonical report");
    }

    // The merged store is warm: a third run executes only the
    // uncacheable watchdog cell and reproduces the same bytes.
    let mut warm = build_grid();
    warm.set_store(Arc::new(ResultStore::open(&store_dir).expect("open merged store")));
    let report = warm.run();
    assert_eq!(report.store_hits, 2, "both cacheable cells hit the merged store");
    assert_eq!(report.cells_executed, 1, "only the uncacheable watchdog cell re-runs");
    assert_eq!(report.canonical_json(), reference);
    for dir in [shared, dir_a, dir_b] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn store_lock_excludes_other_processes_until_they_exit() {
    let _gate = gate();
    let dir = tmpdir("lock");
    let store_dir = dir.join("store");
    std::fs::create_dir_all(&store_dir).expect("create store dir");

    let mut holder = spawn_child(&dir, &[("DLP_CHAOS_HOLD_LOCK", "1")]);
    let deadline = Instant::now() + Duration::from_secs(60);
    while !dir.join("held").exists() {
        assert!(Instant::now() < deadline, "lock-holder child never signalled");
        std::thread::sleep(Duration::from_millis(10));
    }

    let contended = StoreLock::try_acquire(&store_dir).expect("try_acquire");
    assert!(contended.is_none(), "another process holds the lock");

    std::fs::write(dir.join("release"), b"").expect("release marker");
    let status = holder.wait().expect("wait for holder");
    assert!(status.success(), "lock holder exited cleanly ({status})");

    let freed = StoreLock::try_acquire(&store_dir).expect("try_acquire after exit");
    assert!(freed.is_some(), "the OS lock dies with the holding process");
    drop(freed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Disarm the iofault shim even when an assertion fails mid-test.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        iofault::disarm();
    }
}

#[test]
fn injected_io_faults_degrade_to_misses_never_wrong_results() {
    let _gate = gate();
    let reference = reference_json();
    let none = IoFaultPlan::none();
    // One plan per fault class, each certain (1e6 ppm): every store
    // write errors / is cut short / loses its tail / takes a bit flip.
    let plans = [
        ("error", IoFaultPlan { seed: 11, error_ppm: 1_000_000, ..none }),
        ("short", IoFaultPlan { seed: 12, short_ppm: 1_000_000, ..none }),
        ("torn", IoFaultPlan { seed: 13, torn_ppm: 1_000_000, ..none }),
        ("flip", IoFaultPlan { seed: 14, flip_ppm: 1_000_000, ..none }),
    ];
    for (name, plan) in plans {
        let dir = tmpdir(&format!("iofault-{name}"));
        // Open (stamping) before arming: the faults under test are the
        // sweep's writes, not the store's creation.
        let store = Arc::new(ResultStore::open(dir.join("store")).expect("open store"));

        iofault::arm(plan);
        let _disarm = Disarm;
        let mut sweep = build_grid();
        sweep.set_store(Arc::clone(&store));
        let faulted = sweep.run();
        assert_eq!(
            faulted.canonical_json(),
            reference,
            "{name}: injected faults must not change a single reported byte"
        );
        let injected: u64 = iofault::injected().iter().sum();
        assert!(injected > 0, "{name}: the plan injected nothing");
        drop(_disarm);
        drop(store);

        let repair = fsck(&dir.join("store")).expect("fsck");
        if name == "error" {
            assert_eq!(repair.scanned, 0, "{name}: failed puts leave no entry files");
            assert_eq!(repair.gc_tmp, 0, "{name}: errors fire before the tempfile exists");
        } else {
            assert_eq!(repair.scanned, 2, "{name}: both cacheable cells left an entry");
            assert_eq!(repair.valid, 0, "{name}: every corrupted entry is detected");
            assert_eq!(repair.quarantined, 2, "{name}: corrupted entries are quarantined");
        }

        // Un-faulted repair run: misses recompute, the store heals.
        let store = Arc::new(ResultStore::open(dir.join("store")).expect("reopen"));
        let mut repair_sweep = build_grid();
        repair_sweep.set_store(Arc::clone(&store));
        let healed = repair_sweep.run();
        assert_eq!(healed.store_hits, 0, "{name}: nothing corrupt was served");
        assert_eq!(healed.canonical_json(), reference);
        drop(store);
        let clean = fsck(&dir.join("store")).expect("fsck healed store");
        assert_eq!((clean.scanned, clean.valid, clean.quarantined), (2, 2, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
