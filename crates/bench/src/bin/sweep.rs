//! The full experiment sweep: every performance-suite kernel × every
//! Table 5 machine configuration (baseline, S, S-O, S-O-D, M, M-D), run
//! by the work-stealing [`Sweep`] engine and written to
//! `BENCH_sweep.json`. It is the same paper grid the `report` binary
//! projects Table 4, Figure 5 and Table 6 from.
//!
//! With `--store` the sweep becomes a service endpoint: results are
//! content-addressed on disk, so a repeat run executes only cells whose
//! inputs changed (a fully-warm run executes nothing and finishes in
//! milliseconds) while emitting a canonically bit-identical report. The
//! store is also the checkpoint: each cacheable cell is written as it
//! completes, so an interrupted run finishes by rerunning it with the
//! same `--store`. A cell that exhausted its retries is never stored, so
//! the same rerun executes it again and re-diagnoses it. See
//! `OPERATIONS.md` for the runbooks.
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
//! * `--watchdog TICKS` — per-cell simulated-tick watchdog override.
//! * `--kernels a,b,c` — restrict the suite to the named kernels (the
//!   chaos harness uses this to build small deterministic grids).
//! * `--fsck DIR` — scan the store at DIR, quarantining corrupt or
//!   orphaned entries and removing stale temp files, then exit.
//! * `--help` — list the flags and exit. Any other argument is an error.
//!
//! Environment: `DLP_CRASHPOINT=NAME[:N]` aborts the process at the Nth
//! hit of the named store crashpoint (crash-consistency testing; see
//! [`dlp_core::store::CRASHPOINTS`]). The sweep refuses to start when the
//! variable is set but arms none of them.

use std::path::Path;
use std::sync::Arc;

use dlp_bench::Args;
use dlp_core::store::{fsck, CRASHPOINTS};
use dlp_core::sweep::KernelId;
use dlp_core::{CellOutcome, ExperimentParams, ResultStore, Sweep, SweepReport};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = Args::from_env();
    let quick = args.switch("--quick");
    let canonical = args.switch("--canonical");
    let threads: Option<usize> = args.parsed("--threads")?;
    let fsck_dir = args.value("--fsck");
    let out_path = args.value("--out").unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let scale: usize = args.parsed("--scale")?.unwrap_or(1);
    let watchdog: Option<u64> = args.parsed("--watchdog")?;
    let kernels = args.value("--kernels");
    let store_dir = args.value("--store");
    args.finish()?;

    // A crash test that arms nothing would run to completion unnoticed.
    if let Some(spec) = std::env::var_os("DLP_CRASHPOINT") {
        let spec = spec.to_string_lossy();
        let armed = dlp_common::crashpoint::parse_spec(&spec);
        if !armed.is_some_and(|a| CRASHPOINTS.contains(&a.name.as_str())) {
            return Err(format!(
                "DLP_CRASHPOINT={spec} arms no store crashpoint (want NAME[:N], NAME one of {})",
                CRASHPOINTS.join(", ")
            )
            .into());
        }
    }

    if let Some(dir) = fsck_dir {
        let report = fsck(Path::new(&dir))?;
        println!("{}", dlp_common::json::to_string(&report));
        return Ok(());
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
    // Every cell is executed, store-served, or took the run of an
    // identical pending cell.
    let shared = total
        .saturating_sub(report.cells_executed)
        .saturating_sub(report.store_hits as usize);
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
    println!("wall clock: {:.0} ms on {} threads", report.wall_ms, report.threads);

    if canonical {
        std::fs::write(&out_path, report.canonical_json())?;
    } else {
        std::fs::write(&out_path, dlp_common::json::to_string(&report))?;
    }
    eprintln!("wrote {out_path}");

    if problems > 0 {
        eprintln!("sweep FAILED: {problems} of {total} cells did not verify");
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
