//! The fault-injection sweep: a fault-rate × machine-configuration grid
//! demonstrating the simulator's detect-and-replay fault model, written
//! to `BENCH_faults.json` (schema in `EXPERIMENTS.md`).
//!
//! Three representative kernels run on three configurations spanning
//! both engines and every fault site — baseline (dataflow, L1), S-O
//! (dataflow, SMC streams + DMA staging), M-D (MIMD, L1 + L0) — at a
//! ladder of uniform transient-fault rates. For each cell the report
//! records the injected/retried/stall counters, the cycle overhead over
//! the fault-free run of the same cell, and whether the run recovered
//! (outputs bit-identical to fault-free, enforced here) or degraded to
//! a structured failure. The whole schedule is seeded; re-running the
//! binary reproduces every fault, retry, and failure bit for bit.
//!
//! Flags:
//!
//! * `--quick` — smoke-scale workloads (24 records per kernel).
//! * `--threads N` — worker-thread count (statistics are bit-identical
//!   for any N).
//! * `--out PATH` — JSON destination (default `BENCH_faults.json`).
//! * `--help` — list the flags and exit. Any other argument is an error.

use dlp_common::json::ToJson;
use dlp_common::{FaultPlan, FaultRate};
use dlp_core::{CellOutcome, ExperimentParams, MachineConfig, Sweep, SweepPolicy};

/// Uniform per-event fault rates swept, in events per million (the
/// first entry is the fault-free reference every overhead is measured
/// against).
const RATES_PPM: [u32; 5] = [0, 100, 1_000, 10_000, 50_000];

/// Kernel × configuration pairs covering both engines and all five
/// fault sites.
const GRID: [(&str, MachineConfig); 3] = [
    ("convert", MachineConfig::Baseline),
    ("fft", MachineConfig::SO),
    ("blowfish", MachineConfig::MD),
];

/// One row of `BENCH_faults.json`: a kernel × configuration × rate cell.
#[derive(Clone, Debug, ToJson)]
struct FaultRow {
    kernel: String,
    config: String,
    /// Uniform fault rate, events per million.
    rate_ppm: u32,
    /// `"recovered"` (ran, outputs verified), `"mismatch"` (ran, wrong
    /// outputs — a fault-model bug), or the [`dlp_common::DlpError`]
    /// kind of the failure (e.g. `"fault-unrecoverable"`).
    status: String,
    /// Simulated cycles (`None` when the cell failed).
    cycles: Option<u64>,
    /// Cycle overhead over the fault-free run of the same cell
    /// (`cycles / cycles@rate0 - 1`; `None` when either side failed).
    overhead: Option<f64>,
    faults_injected: u64,
    fault_retries: u64,
    fault_stall_ticks: u64,
    /// Execution attempts the sweep spent on the cell.
    attempts: u32,
}

/// The `BENCH_faults.json` artifact.
#[derive(Clone, Debug, ToJson)]
struct FaultReport {
    /// Retry policy the sweep ran under.
    policy: SweepPolicy,
    /// Worker threads used (informational; results are thread-count
    /// independent).
    threads: usize,
    /// Cells that ran and verified.
    recovered: usize,
    /// Cells that degraded to a structured failure.
    failed: usize,
    /// Retry attempts beyond each cell's first.
    extra_attempts: u64,
    /// Total host wall-clock, milliseconds.
    wall_ms: f64,
    rows: Vec<FaultRow>,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = dlp_bench::Args::from_env();
    let quick = args.switch("--quick");
    let out_path = args.value("--out").unwrap_or_else(|| "BENCH_faults.json".to_string());
    let threads: Option<usize> = args.parsed("--threads")?;
    args.finish()?;

    let mut sweep = threads.map_or_else(Sweep::new, Sweep::with_threads);
    // Bounded retries: a cell that draws an unrecoverable schedule gets
    // two re-salted draws before its failure is accepted. The watchdog
    // keeps a pathological fault storm from stalling the batch.
    sweep.set_policy(SweepPolicy::default().with_attempts(3));

    let mut specs = Vec::new();
    for (name, config) in GRID {
        let id = sweep.add_kernel_by_name(name).ok_or(format!("no suite kernel {name}"))?;
        let records = dlp_core::default_records(name, usize::from(!quick));
        for rate in RATES_PPM {
            let params = ExperimentParams {
                fault: FaultPlan::uniform(FaultRate::per_million(rate)),
                watchdog: Some(50_000_000),
                ..ExperimentParams::default()
            };
            sweep.push_cell(dlp_core::CellSpec {
                kernel: id,
                config: Some(config),
                mech: config.mechanisms(),
                records,
                params,
                label: format!("rate={rate}ppm"),
            });
            specs.push((name, config, rate));
        }
    }

    eprintln!("sweeping {} faulted cells on {} worker threads...", sweep.len(), sweep.threads());
    let report = sweep.run();

    // Fault-free reference cycles per (kernel, config) for the overhead
    // column — the rate-0 row of each group.
    let clean_cycles = |kernel: &str, config: MachineConfig| {
        specs
            .iter()
            .zip(&report.cells)
            .find(|((k, c, r), _)| *k == kernel && *c == config && *r == 0)
            .and_then(|(_, cell)| cell.outcome.stats())
            .map(dlp_common::SimStats::cycles)
    };

    let mut rows = Vec::new();
    let (mut recovered, mut failed) = (0usize, 0usize);
    for ((kernel, config, rate), cell) in specs.iter().zip(&report.cells) {
        let row = match &cell.outcome {
            CellOutcome::Ran { stats, mismatch } => {
                let status = match mismatch {
                    None => {
                        recovered += 1;
                        "recovered".to_string()
                    }
                    Some(at) => format!("mismatch@{at}"),
                };
                // The fault model's core promise: every run that
                // completes computed exactly the fault-free outputs.
                if mismatch.is_some() {
                    return Err(format!(
                        "{kernel} on {config} at {rate}ppm computed wrong outputs — \
                         recovery must be bit-exact"
                    )
                    .into());
                }
                let overhead = clean_cycles(kernel, *config)
                    .filter(|&c| c > 0)
                    .map(|c| stats.cycles() as f64 / c as f64 - 1.0);
                FaultRow {
                    kernel: (*kernel).to_string(),
                    config: config.to_string(),
                    rate_ppm: *rate,
                    status,
                    cycles: Some(stats.cycles()),
                    overhead,
                    faults_injected: stats.faults_injected,
                    fault_retries: stats.fault_retries,
                    fault_stall_ticks: stats.fault_stall_ticks,
                    attempts: 1,
                }
            }
            CellOutcome::Failed { error, kind, attempts, .. } => {
                failed += 1;
                eprintln!("  {kernel} on {config} at {rate}ppm failed ({kind}): {error}");
                FaultRow {
                    kernel: (*kernel).to_string(),
                    config: config.to_string(),
                    rate_ppm: *rate,
                    status: kind.clone(),
                    cycles: None,
                    overhead: None,
                    faults_injected: 0,
                    fault_retries: 0,
                    fault_stall_ticks: 0,
                    attempts: *attempts,
                }
            }
            CellOutcome::Skipped { reason, .. } => {
                failed += 1;
                eprintln!("  {kernel} on {config} at {rate}ppm skipped: {reason}");
                FaultRow {
                    kernel: (*kernel).to_string(),
                    config: config.to_string(),
                    rate_ppm: *rate,
                    status: "skipped".to_string(),
                    cycles: None,
                    overhead: None,
                    faults_injected: 0,
                    fault_retries: 0,
                    fault_stall_ticks: 0,
                    attempts: 0,
                }
            }
        };
        rows.push(row);
    }

    println!("fault sweep: {recovered} cells recovered bit-exactly, {failed} degraded cleanly");
    for row in &rows {
        println!(
            "  {:<10} {:<8} {:>6}ppm  {:<20} injected {:>6}  retries {:>6}  overhead {}",
            row.kernel,
            row.config,
            row.rate_ppm,
            row.status,
            row.faults_injected,
            row.fault_retries,
            row.overhead.map_or_else(|| "-".to_string(), |o| format!("{:+.2}%", o * 100.0)),
        );
    }

    let artifact = FaultReport {
        policy: sweep.policy(),
        threads: report.threads,
        recovered,
        failed,
        extra_attempts: report.extra_attempts,
        wall_ms: report.wall_ms,
        rows,
    };
    std::fs::write(&out_path, dlp_common::json::to_string(&artifact))?;
    eprintln!("wrote {out_path}");
    Ok(())
}
