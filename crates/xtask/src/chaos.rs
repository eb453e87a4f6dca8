//! `cargo xtask chaos` — the deterministic kill harness that proves the
//! store's crash-anywhere contract mechanically.
//!
//! For every named crashpoint in [`dlp_core::store::CRASHPOINTS`] the
//! driver runs a child `sweep` with `DLP_CRASHPOINT=<site>` so the
//! child aborts mid-write, then:
//!
//! 1. runs `sweep --fsck` over the crashed store (quarantine/gc must
//!    succeed on any post-kill state),
//! 2. reruns the same sweep against the same `--store` (the store is the
//!    checkpoint: cells that landed before the kill are served, the
//!    rest execute), and
//! 3. asserts the canonical `SweepReport` is **byte-identical** to an
//!    uninterrupted run's.
//!
//! Crashpoints are grouped into three legs by the write path that
//! reaches them: the *normal* leg (stamp and entry sites), the
//! *watchdog* leg (`--watchdog 2` dead-letters every cell, reaching the
//! DLQ append sites), and the *replay* leg (`--replay-dlq` reaches the
//! atomic queue rewrite; recovery there means the queue converges to
//! the uninterrupted rewrite's records). A seeded randomized campaign
//! then replays the same check at random `(site, nth-hit)` pairs.
//!
//! The run writes `BENCH_chaos.json` and exits non-zero on any
//! divergence. `sweep --fsck DIR` runs the same fsck the harness uses
//! on any store.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use dlp_common::SplitMix64;
use dlp_common::json::ToJson;
use dlp_core::store::{load_dlq, DlqRecord, CRASHPOINTS};

/// Which child invocation reaches a crashpoint.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// Plain quick sweep with a store.
    Normal,
    /// `--watchdog 2`: every cell dead-letters, reaching the DLQ sites.
    Watchdog,
    /// `--replay-dlq`: reaches the atomic queue-rewrite sites.
    Replay,
}

fn leg_of(site: &str) -> Leg {
    if site.starts_with("dlq-rewrite.") {
        Leg::Replay
    } else if site.starts_with("dlq.") {
        Leg::Watchdog
    } else {
        Leg::Normal
    }
}

#[derive(ToJson)]
struct SiteResult {
    site: String,
    nth: u64,
    leg: &'static str,
    /// Whether the armed crashpoint actually aborted the child.
    killed: bool,
    /// Whether the post-kill store fsck'd clean (no I/O errors).
    fsck_ok: bool,
    /// Entries fsck quarantined on the crashed store.
    quarantined: u64,
    /// Stale temp files fsck removed.
    gc_tmp: u64,
    /// The contract: recovery output byte-identical to uninterrupted.
    identical: bool,
}

#[derive(ToJson)]
struct ChaosReport {
    seed: u64,
    matrix: Vec<SiteResult>,
    campaign: Vec<SiteResult>,
    failures: usize,
}

/// Entry point for `cargo xtask chaos [--quick] [--seed N] [--trials N]`.
pub fn run(args: &[String]) -> ExitCode {
    let flag = |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1));
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = flag("--seed").and_then(|s| s.parse().ok()).unwrap_or(0x00D1_2003);
    let trials: u64 =
        flag("--trials").and_then(|s| s.parse().ok()).unwrap_or(if quick { 3 } else { 8 });

    let Some(harness) = Harness::build() else {
        return ExitCode::FAILURE;
    };

    let mut matrix = Vec::new();
    println!("chaos: kill matrix over {} crashpoints", CRASHPOINTS.len());
    for site in CRASHPOINTS {
        let result = harness.exercise(site, 1, true);
        print_result(&result);
        matrix.push(result);
    }

    // Seeded randomized campaign: same contract at random (site, nth)
    // pairs. Deeper hits may never fire (the child completes) — the
    // recovery check still runs on whatever state the child left.
    let mut rng = SplitMix64::new(seed);
    let sweep_sites: Vec<&&str> =
        CRASHPOINTS.iter().filter(|s| leg_of(s) != Leg::Replay).collect();
    let mut campaign = Vec::new();
    println!("chaos: randomized campaign, seed {seed}, {trials} trials");
    for _ in 0..trials {
        let site = sweep_sites[rng.below(sweep_sites.len() as u64) as usize];
        let nth = 1 + rng.below(3);
        let result = harness.exercise(site, nth, false);
        print_result(&result);
        campaign.push(result);
    }

    let failures = matrix
        .iter()
        .chain(&campaign)
        .filter(|r| !r.identical || !r.fsck_ok || (r.nth == 1 && !r.killed))
        .count();
    let report = ChaosReport { seed, matrix, campaign, failures };
    let out = "BENCH_chaos.json";
    if let Err(e) = std::fs::write(out, dlp_common::json::to_string(&report)) {
        eprintln!("chaos: writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("chaos: wrote {out}");
    if failures == 0 {
        println!("chaos: every kill recovered to a byte-identical report");
        ExitCode::SUCCESS
    } else {
        eprintln!("chaos: {failures} site(s) FAILED the crash-recovery contract");
        ExitCode::FAILURE
    }
}

fn print_result(r: &SiteResult) {
    println!(
        "  {:<22} nth={} leg={:<8} killed={:<5} fsck(q={},tmp={}) identical={}",
        r.site,
        r.nth,
        r.leg,
        r.killed,
        r.quarantined,
        r.gc_tmp,
        r.identical,
    );
}

struct Harness {
    sweep_bin: PathBuf,
    workdir: PathBuf,
    /// Uninterrupted canonical reports, one per sweep leg.
    normal_ref: Vec<u8>,
    watchdog_ref: Vec<u8>,
    /// The pristine DLQ the replay leg starts from, and the records an
    /// uninterrupted replay leaves behind.
    dlq_seed: Vec<u8>,
    replay_ref: Vec<DlqRecord>,
}

impl Harness {
    /// Build the release sweep binary and the per-leg references.
    fn build() -> Option<Harness> {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        eprintln!("chaos: building release sweep binary...");
        let status = Command::new(&cargo)
            .args(["build", "--release", "-p", "dlp-bench", "--bin", "sweep"])
            .status()
            .ok()?;
        if !status.success() {
            eprintln!("chaos: cargo build failed");
            return None;
        }
        let sweep_bin = Path::new("target/release/sweep").to_path_buf();
        let workdir = Path::new("target/chaos").to_path_buf();
        let _ = std::fs::remove_dir_all(&workdir);
        std::fs::create_dir_all(&workdir).ok()?;

        let mut h = Harness {
            sweep_bin,
            workdir,
            normal_ref: Vec::new(),
            watchdog_ref: Vec::new(),
            dlq_seed: Vec::new(),
            replay_ref: Vec::new(),
        };
        eprintln!("chaos: recording uninterrupted reference runs...");
        let dir = h.fresh_dir("ref-normal");
        h.run_sweep(&dir, Leg::Normal, None);
        h.normal_ref = std::fs::read(dir.join("report.json")).ok()?;
        let dir = h.fresh_dir("ref-watchdog");
        h.run_sweep(&dir, Leg::Watchdog, None);
        h.watchdog_ref = std::fs::read(dir.join("report.json")).ok()?;
        h.dlq_seed = std::fs::read(dir.join("dlq.jsonl")).ok()?;
        let dir = h.fresh_dir("ref-replay");
        std::fs::write(dir.join("dlq.jsonl"), &h.dlq_seed).ok()?;
        h.run_replay(&dir, None);
        h.replay_ref = load_dlq(&dir.join("dlq.jsonl"));
        if h.normal_ref.is_empty() || h.dlq_seed.is_empty() || h.replay_ref.is_empty() {
            eprintln!("chaos: reference runs produced empty artifacts");
            return None;
        }
        Some(h)
    }

    fn fresh_dir(&self, tag: &str) -> PathBuf {
        let dir = self.workdir.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create chaos workdir");
        dir
    }

    /// One sweep-leg child. `crash` arms `DLP_CRASHPOINT`. Returns
    /// whether the child was killed by the crashpoint's abort.
    fn run_sweep(&self, dir: &Path, leg: Leg, crash: Option<&str>) -> bool {
        let mut cmd = Command::new(&self.sweep_bin);
        cmd.args(["--quick", "--threads", "1", "--kernels", "convert", "--canonical"]);
        cmd.arg("--store").arg(dir.join("store"));
        cmd.arg("--out").arg(dir.join("report.json"));
        if leg == Leg::Watchdog {
            cmd.args(["--watchdog", "2"]);
            cmd.arg("--dlq").arg(dir.join("dlq.jsonl"));
        }
        run_child(cmd, crash)
    }

    /// One replay-leg child over `dir/dlq.jsonl`.
    fn run_replay(&self, dir: &Path, crash: Option<&str>) -> bool {
        let mut cmd = Command::new(&self.sweep_bin);
        cmd.args(["--threads", "1", "--replay-dlq"]).arg(dir.join("dlq.jsonl"));
        run_child(cmd, crash)
    }

    /// The full kill → fsck → rerun → compare cycle for one site.
    /// `require_kill` marks matrix rows, where the site must fire on
    /// its designated leg.
    fn exercise(&self, site: &str, nth: u64, require_kill: bool) -> SiteResult {
        let leg = leg_of(site);
        let dir = self.fresh_dir(&format!("kill-{site}-{nth}"));
        let spec = format!("{site}:{nth}");

        if leg == Leg::Replay {
            std::fs::write(dir.join("dlq.jsonl"), &self.dlq_seed).expect("seed dlq");
            let killed = self.run_replay(&dir, Some(&spec));
            // Recovery: rerun the replay uninterrupted; the queue must
            // converge to the reference records whichever side of the
            // atomic rewrite the kill landed on.
            self.run_replay(&dir, None);
            let identical = load_dlq(&dir.join("dlq.jsonl")) == self.replay_ref;
            return SiteResult {
                site: site.to_string(),
                nth,
                leg: "replay",
                killed,
                fsck_ok: true,
                quarantined: 0,
                gc_tmp: 0,
                identical,
            };
        }

        let killed = self.run_sweep(&dir, leg, Some(&spec));
        let fsck = dlp_core::store::fsck(&dir.join("store"));
        let (fsck_ok, quarantined, gc_tmp) = match &fsck {
            Ok(r) => (true, r.quarantined as u64, r.gc_tmp as u64),
            Err(e) => {
                eprintln!("  {site}: post-kill fsck failed: {e}");
                (false, 0, 0)
            }
        };
        self.run_sweep(&dir, leg, None);
        let reference =
            if leg == Leg::Watchdog { &self.watchdog_ref } else { &self.normal_ref };
        let identical =
            std::fs::read(dir.join("report.json")).is_ok_and(|got| &got == reference);
        if require_kill && !killed {
            eprintln!("  {site}: crashpoint never fired on its designated leg");
        }
        SiteResult {
            site: site.to_string(),
            nth,
            leg: if leg == Leg::Watchdog { "watchdog" } else { "normal" },
            killed,
            fsck_ok,
            quarantined,
            gc_tmp,
            identical,
        }
    }
}

/// Run a child to completion with a clean chaos environment, arming
/// `DLP_CRASHPOINT` when `crash` is set. Returns whether the child died
/// by the crashpoint abort (`SIGABRT`) rather than exiting.
fn run_child(mut cmd: Command, crash: Option<&str>) -> bool {
    cmd.env_remove("DLP_CRASHPOINT").env_remove("DLP_STORE_IOFAULT");
    if let Some(spec) = crash {
        cmd.env("DLP_CRASHPOINT", spec);
    }
    cmd.stdout(std::process::Stdio::null()).stderr(std::process::Stdio::null());
    match cmd.status() {
        Ok(status) => aborted(&status),
        Err(e) => {
            eprintln!("chaos: spawning child: {e}");
            false
        }
    }
}

#[cfg(unix)]
fn aborted(status: &std::process::ExitStatus) -> bool {
    use std::os::unix::process::ExitStatusExt as _;
    status.signal() == Some(6) // SIGABRT, the crashpoint's exit
}

#[cfg(not(unix))]
fn aborted(status: &std::process::ExitStatus) -> bool {
    // Windows reports `abort()` as exit code 3 (no signals).
    status.code() == Some(3)
}
