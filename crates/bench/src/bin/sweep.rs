//! The full experiment sweep: every performance-suite kernel × every
//! Table 5 machine configuration (baseline, S, S-O, S-O-D, M, M-D), run
//! by the work-stealing [`Sweep`] engine and written to
//! `BENCH_sweep.json`. It is the same paper grid the `report` binary
//! projects Table 4, Figure 5 and Table 6 from.
//!
//! With `--store` the sweep becomes a service endpoint: results are
//! content-addressed on disk, so a repeat run executes only cells whose
//! inputs changed (a fully-warm run executes nothing and finishes in
//! milliseconds) while emitting a canonically bit-identical report.
//! `--manifest`/`--resume` checkpoint and restart interrupted runs, and
//! `--dlq`/`--replay-dlq` capture and re-diagnose cells that exhausted
//! their retries. See `OPERATIONS.md` for the runbooks.
//!
//! Exit status: non-zero when any cell remains failed or mis-verified
//! after retries (the artifact is still written), so CI and operators
//! can gate on it.
//!
//! Flags:
//!
//! * `--quick` — smoke-scale workloads (24 records per kernel).
//! * `--scale N` — multiply every kernel's default record count by N
//!   (ignored under `--quick`); heavier grids for scheduling and
//!   wall-clock experiments. `--scale 0` is the smoke size `--quick`
//!   selects.
//! * `--threads N` — worker-thread count (default: one per CPU, max 8).
//!   `--threads 1` is the serial reference; any N produces bit-identical
//!   statistics.
//! * `--out PATH` — JSON destination (default `BENCH_sweep.json`).
//! * `--canonical` — write the provenance-free canonical form of the
//!   report (see [`SweepReport::canonical`]): byte-identical across
//!   thread counts and store temperatures, for CI diffing.
//! * `--store DIR` — serve/persist cells through a content-addressed
//!   result store rooted at DIR.
//! * `--manifest PATH` — checkpoint each completed cell to PATH (JSONL).
//! * `--resume PATH` — resume an interrupted run from its manifest,
//!   executing only the missing cells (refuses a manifest written for a
//!   different grid).
//! * `--dlq PATH` — append retry-exhausted cells to a dead-letter queue.
//! * `--replay-dlq PATH` — re-run the queue's records with
//!   `faults`-style diagnosis, dropping the ones that now succeed.
//! * `--watchdog TICKS` — per-cell simulated-tick watchdog override.
//! * `--kernels a,b,c` — restrict the suite to the named kernels (the
//!   chaos harness uses this to build small deterministic grids).
//! * `--fsck DIR` — scan the store at DIR, quarantining corrupt or
//!   orphaned entries and removing stale temp files, then exit.
//! * `--crashpoint NAME[:N]` — abort the process at the Nth hit of the
//!   named store crashpoint (crash-consistency testing; equivalent to
//!   setting `DLP_CRASHPOINT`).
//! * `--help` — list the flags and exit. Any other argument is an error.

use std::path::Path;
use std::sync::Arc;

use dlp_bench::Args;
use dlp_core::store::{fsck, load_dlq, rewrite_dlq};
use dlp_core::sweep::KernelId;
use dlp_core::{
    CellOutcome, CellSpec, DeadLetterQueue, DlqRecord, ExperimentParams, MachineConfig,
    ManifestWriter, ResultStore, Sweep, SweepManifest, SweepPolicy, SweepReport,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = Args::from_env();
    let quick = args.switch("--quick");
    let canonical = args.switch("--canonical");
    let threads: Option<usize> = args.parsed("--threads")?;
    let crashpoint = args.value("--crashpoint");
    let fsck_dir = args.value("--fsck");
    let replay_path = args.value("--replay-dlq");
    let out_path = args.value("--out").unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let scale: usize = args.parsed("--scale")?.unwrap_or(1);
    let watchdog: Option<u64> = args.parsed("--watchdog")?;
    let kernels = args.value("--kernels");
    let store_dir = args.value("--store");
    let resume_path = args.value("--resume");
    let manifest_path = args.value("--manifest");
    let dlq_path = args.value("--dlq");
    args.finish()?;

    if let Some(spec) = crashpoint {
        if !dlp_common::crashpoint::arm(&spec) {
            return Err(format!("--crashpoint {spec}: bad spec (want NAME[:N])").into());
        }
    }

    if let Some(dir) = fsck_dir {
        let report = fsck(Path::new(&dir))?;
        println!("{}", dlp_common::json::to_string(&report));
        return Ok(());
    }

    if let Some(path) = replay_path {
        return replay_dlq(Path::new(&path), threads);
    }

    let params = ExperimentParams {
        watchdog: watchdog.or(ExperimentParams::default().watchdog),
        ..ExperimentParams::default()
    };
    let mut sweep = threads.map_or_else(Sweep::new, Sweep::with_threads);
    let kernel_filter: Option<Vec<&str>> =
        kernels.as_deref().map(|s| s.split(',').map(str::trim).collect());
    let ids: Vec<KernelId> = sweep
        .add_perf_suite()
        .into_iter()
        .filter(|&id| {
            let name = sweep.kernel(id).name();
            kernel_filter.as_ref().is_none_or(|names| names.contains(&name))
        })
        .collect();
    sweep.push_paper_grid(&ids, &params, if quick { 0 } else { scale });

    if let Some(dir) = store_dir {
        sweep.set_store(Arc::new(ResultStore::open(dir)?));
    }
    match (resume_path, manifest_path) {
        (Some(path), _) => {
            let path = Path::new(&path);
            let manifest = SweepManifest::load(path)?;
            if manifest.grid_digest != sweep.grid_digest() {
                return Err(format!(
                    "manifest {} was written for a different grid \
                     (digest {} vs this sweep's {}); refusing to resume",
                    path.display(),
                    manifest.grid_digest,
                    sweep.grid_digest(),
                )
                .into());
            }
            eprintln!(
                "resuming: {} of {} cells already recorded in {}",
                manifest.completed(),
                manifest.cells,
                path.display()
            );
            sweep.set_resume(manifest);
            sweep.set_manifest(ManifestWriter::append_to(path)?);
        }
        (None, Some(path)) => {
            let path = Path::new(&path);
            sweep.set_manifest(ManifestWriter::create(path, &sweep.cell_digests())?);
            eprintln!("checkpointing to {}", path.display());
        }
        (None, None) => {}
    }
    let dlq = dlq_path.map(|p| Arc::new(DeadLetterQueue::new(p)));
    if let Some(d) = &dlq {
        sweep.set_dlq(Arc::clone(d));
    }

    let total = sweep.len();
    eprintln!("sweeping {total} cells on {} worker threads...", sweep.threads());
    let report = sweep.run();
    let problems = print_problems(&report);

    if problems == 0 {
        println!("harmonic-mean speedup over baseline (all {total} cells verified):");
        for (config, hm) in report.harmonic_mean_speedups("baseline") {
            println!("  {config:<8} {hm:.2}x");
        }
    }
    println!(
        "schedule cache: {} lowerings prepared, {} cells served from cache",
        report.plans_prepared, report.plan_reuses
    );
    // Every cell is executed, store-served, resumed, or took the run of
    // an identical pending cell.
    let shared = total
        .saturating_sub(report.cells_executed)
        .saturating_sub(report.store_hits as usize)
        .saturating_sub(report.resumed_cells);
    println!(
        "run sharing: {} cells executed, {shared} took an identical cell's run",
        report.cells_executed
    );
    println!(
        "workload cache: {} hits, {} generated",
        report.workload_cache_hits, report.workload_cache_misses
    );
    if report.store_hits + report.store_misses > 0 {
        println!(
            "result store: {} hits, {} misses — {} of {total} cells executed",
            report.store_hits, report.store_misses, report.cells_executed
        );
    }
    if report.resumed_cells > 0 {
        println!("resume: {} cells served from the manifest", report.resumed_cells);
    }
    println!("wall clock: {:.0} ms on {} threads", report.wall_ms, report.threads);

    if canonical {
        std::fs::write(&out_path, report.canonical_json())?;
    } else {
        std::fs::write(&out_path, dlp_common::json::to_string(&report))?;
    }
    eprintln!("wrote {out_path}");

    if problems > 0 {
        let dlq_note = dlq
            .filter(|d| d.appended() > 0)
            .map(|d| format!("; {} dead-lettered to {}", d.appended(), d.path().display()))
            .unwrap_or_default();
        eprintln!("sweep FAILED: {problems} of {total} cells did not verify{dlq_note}");
        std::process::exit(1);
    }
    Ok(())
}

/// Prints every failed, mis-verified, or skipped cell; returns how many
/// there were.
fn print_problems(report: &SweepReport) -> usize {
    let mut problems = 0;
    for cell in &report.cells {
        match &cell.outcome {
            CellOutcome::Ran { mismatch: None, .. } => {}
            CellOutcome::Ran { mismatch: Some(at), .. } => {
                problems += 1;
                eprintln!(
                    "  MISMATCH  {} on {}: wrong output at word {at}",
                    cell.kernel, cell.config
                );
            }
            CellOutcome::Failed { error, kind, attempts, .. } => {
                problems += 1;
                eprintln!(
                    "  FAILED    {} on {} ({kind}, {attempts} attempts): {error}",
                    cell.kernel, cell.config
                );
            }
            CellOutcome::Skipped { reason, .. } => {
                problems += 1;
                eprintln!("  SKIPPED   {} on {}: {reason}", cell.kernel, cell.config);
            }
        }
    }
    problems
}

/// `--replay-dlq`: re-run every record in the dead-letter queue with
/// bounded retries and `faults`-style diagnosis, then rewrite the queue
/// with only the records that still fail (removing it when empty).
fn replay_dlq(path: &Path, threads: Option<usize>) -> Result<(), Box<dyn std::error::Error>> {
    let records = load_dlq(path);
    if records.is_empty() {
        println!("dead-letter queue {} is empty — nothing to replay", path.display());
        return Ok(());
    }
    eprintln!("replaying {} dead-lettered cells from {}...", records.len(), path.display());

    let mut sweep = threads.map_or_else(Sweep::new, Sweep::with_threads);
    // The faults bin's diagnosis policy: two re-salted retries before a
    // failure is accepted as real.
    sweep.set_policy(SweepPolicy::default().with_attempts(3));
    let mut replayable: Vec<usize> = Vec::new();
    let mut remaining: Vec<DlqRecord> = Vec::new();
    for (ri, record) in records.iter().enumerate() {
        match sweep.add_kernel_by_name(&record.kernel) {
            Some(id) => {
                sweep.push_cell(CellSpec {
                    kernel: id,
                    config: MachineConfig::ALL
                        .into_iter()
                        .find(|c| c.to_string() == record.config),
                    mech: record.mech,
                    records: record.records,
                    params: record.params(),
                    label: record.label.clone(),
                });
                replayable.push(ri);
            }
            None => {
                eprintln!(
                    "  {} ({}): kernel not in the suite — kept in the queue",
                    record.kernel, record.config
                );
                remaining.push(record.clone());
            }
        }
    }

    let report = sweep.run();
    let mut recovered = 0usize;
    for (&ri, cell) in replayable.iter().zip(&report.cells) {
        let record = &records[ri];
        match &cell.outcome {
            CellOutcome::Ran { stats, mismatch: None } => {
                recovered += 1;
                println!(
                    "  RECOVERED {} on {} ({} cycles, {} faults injected, {} retried) — \
                     original failure was {}",
                    record.kernel,
                    record.config,
                    stats.cycles(),
                    stats.faults_injected,
                    stats.fault_retries,
                    record.kind,
                );
            }
            CellOutcome::Ran { mismatch: Some(at), .. } => {
                println!(
                    "  MISMATCH  {} on {}: replay computed a wrong output at word {at}",
                    record.kernel, record.config
                );
                let mut updated = record.clone();
                updated.error = format!("replay computed a wrong output at word {at}");
                updated.kind = "verify".to_string();
                remaining.push(updated);
            }
            CellOutcome::Failed { error, kind, attempts, timed_out } => {
                println!(
                    "  STILL DEAD {} on {} ({kind}, {attempts} attempts): {error}",
                    record.kernel, record.config
                );
                let mut updated = record.clone();
                updated.error = error.clone();
                updated.kind = kind.clone();
                updated.attempts = *attempts;
                updated.timed_out = *timed_out;
                remaining.push(updated);
            }
            // Never produced; keep the record untouched.
            CellOutcome::Skipped { .. } => remaining.push(record.clone()),
        }
    }

    rewrite_dlq(path, &remaining)?;
    println!(
        "replay: {recovered} of {} recovered; {} remain in {}",
        records.len(),
        remaining.len(),
        path.display()
    );
    if !remaining.is_empty() {
        std::process::exit(1);
    }
    println!("queue drained — {} removed", path.display());
    Ok(())
}
