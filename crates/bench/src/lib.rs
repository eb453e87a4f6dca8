//! # dlp-bench
//!
//! The experiment harness. Each binary regenerates one of the paper's
//! tables or figures (see DESIGN.md's per-experiment index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — benchmark descriptions |
//! | `table2` | Table 2 — kernel attributes from the IR |
//! | `table3` | Table 3 — attribute → mechanism map |
//! | `table4` | Table 4 — baseline TRIPS ops/cycle |
//! | `table5` | Table 5 — machine configurations |
//! | `table6` | Table 6 — comparison to specialized hardware |
//! | `figure5` | Figure 5 — per-config speedups + flexible summary |
//! | `section3` | §3 — classic-architecture survey |
//! | `sweep` | the full kernel × configuration grid in one parallel batch → `BENCH_sweep.json` |
//! | `hotpath` | engine hot-path throughput (simulation only, scheduling excluded) → `BENCH_hotpath.json` |
//! | `ablation` | experiments A1–A3 — mechanism knob sweeps in simulated cycles |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hotpath;

use dlp_core::{ExperimentParams, MachineConfig, RunOutcome, Sweep};

/// Whether `--quick` was passed (smoke-scale workloads).
#[must_use]
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Record count for a kernel honoring `--quick`.
#[must_use]
pub fn records_for(kernel: &str, quick: bool) -> usize {
    if quick {
        24
    } else {
        dlp_core::default_records(kernel, 1)
    }
}

/// Run every performance-suite kernel on `config` through the parallel
/// [`Sweep`] engine, verified, results in suite order.
///
/// # Panics
///
/// Panics if any kernel fails to run or verify — the harness must not
/// print tables from a broken simulation.
#[must_use]
pub fn run_suite_on(config: MachineConfig, quick: bool) -> Vec<RunOutcome> {
    let params = ExperimentParams::default();
    let mut sweep = Sweep::new();
    for id in sweep.add_perf_suite() {
        let records = records_for(sweep.kernel(id).name(), quick);
        sweep.push_config(id, config, records, &params);
    }
    let report = sweep.run();
    report
        .ensure_verified()
        .unwrap_or_else(|e| panic!("suite on {config}: {e}"));
    report
        .cells
        .iter()
        .map(|cell| match &cell.outcome {
            dlp_core::CellOutcome::Ran { stats, mismatch } => RunOutcome {
                kernel: cell.kernel.clone(),
                config,
                records: cell.records,
                stats: *stats,
                mismatch: *mismatch,
            },
            dlp_core::CellOutcome::Failed { .. } | dlp_core::CellOutcome::Skipped { .. } => {
                unreachable!("ensure_verified passed")
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_for_honors_quick() {
        assert_eq!(records_for("convert", true), 24);
        assert!(records_for("convert", false) > 24);
    }

    #[test]
    fn suite_runs_in_parallel_and_stays_ordered() {
        let outs = run_suite_on(MachineConfig::S, true);
        assert_eq!(outs.len(), 13);
        let names: Vec<&str> = outs.iter().map(|o| o.kernel.as_str()).collect();
        let expected: Vec<String> = dlp_kernels::suite()
            .into_iter()
            .filter(|k| k.in_perf_suite())
            .map(|k| k.name().to_string())
            .collect();
        assert_eq!(names, expected.iter().map(String::as_str).collect::<Vec<_>>());
    }
}
