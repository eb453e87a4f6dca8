//! Tier-1 guarantee of the sweep engine: a parallel sweep produces
//! *bit-identical* results to a serial one.
//!
//! The engine promises this because every per-cell input is a pure
//! function of the cell spec (the workload seed is derived from the
//! base seed and the kernel name, never from execution order), and the
//! work-stealing queue only changes *when* cells run, not *what* they
//! compute. This test is the enforcement: it runs the same small
//! kernel × configuration grid single-threaded and with four workers
//! and requires equal statistics and verification results cell by cell.

use dlp_core::{CellOutcome, ExperimentParams, MachineConfig, Sweep, SweepReport};

/// A small but heterogeneous grid: three kernels (dataflow-friendly and
/// table-driven) × three configurations spanning dataflow and MIMD
/// execution models.
fn run_grid(threads: usize) -> SweepReport {
    let params = ExperimentParams::default();
    let mut sweep = Sweep::with_threads(threads);
    for name in ["convert", "blowfish", "fft"] {
        let id = sweep.add_kernel_by_name(name).expect("suite kernel");
        for config in [MachineConfig::Baseline, MachineConfig::SOD, MachineConfig::MD] {
            sweep.push_config(id, config, 24, &params);
        }
    }
    sweep.run()
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let serial = run_grid(1);
    let parallel = run_grid(4);

    assert_eq!(serial.threads, 1);
    assert_eq!(parallel.threads, 4);
    assert_eq!(serial.cells.len(), parallel.cells.len());

    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.kernel, p.kernel);
        assert_eq!(s.config, p.config);
        assert_eq!(s.records, p.records);
        // The outcome — statistics and verification result — must be
        // bit-identical; only host wall-clock may differ.
        assert_eq!(
            s.outcome, p.outcome,
            "{} on {}: serial and parallel sweeps disagree",
            s.kernel, s.config
        );
    }
}

#[test]
fn repeated_runs_are_identical() {
    let a = run_grid(3);
    let b = run_grid(3);
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.outcome, y.outcome, "{} on {}", x.kernel, x.config);
    }
}

#[test]
fn every_cell_verified_against_reference() {
    let report = run_grid(2);
    for cell in &report.cells {
        match &cell.outcome {
            CellOutcome::Ran { mismatch, .. } => {
                assert_eq!(*mismatch, None, "{} on {}", cell.kernel, cell.config);
            }
            CellOutcome::Failed { error, .. } => {
                panic!("{} on {} failed: {error}", cell.kernel, cell.config);
            }
            CellOutcome::Skipped { reason, .. } => {
                panic!("{} on {} skipped: {reason}", cell.kernel, cell.config);
            }
        }
    }
}
