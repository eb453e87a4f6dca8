//! The correctness side of a run: which cells verified against their
//! kernel reference, which did not, and the simulated counts summed
//! over the cells that produced statistics.

use dlp_common::SimStats;
use dlp_core::{CellOutcome, SweepReport};

/// Verification outcome of one sweep report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// Cells attempted.
    pub attempted: usize,
    /// Cells whose every output word matched the reference.
    pub verified: usize,
    /// One line per failed, mismatched or skipped cell, as
    /// `kernel/config: reason`.
    pub failures: Vec<String>,
}

impl Tally {
    /// Tally every cell of `report`. A failed cell is a counted
    /// failure, never an error.
    pub fn of(report: &SweepReport) -> Tally {
        let mut tally = Tally {
            attempted: report.cells.len(),
            ..Tally::default()
        };
        for cell in &report.cells {
            let reason = match &cell.outcome {
                CellOutcome::Ran { mismatch: None, .. } => {
                    tally.verified += 1;
                    continue;
                }
                CellOutcome::Ran {
                    mismatch: Some(word),
                    ..
                } => {
                    format!("mismatch at output word {word}")
                }
                CellOutcome::Failed { kind, error, .. } => format!("failed ({kind}): {error}"),
                CellOutcome::Skipped { reason, .. } => format!("skipped: {reason}"),
            };
            tally
                .failures
                .push(format!("{}/{}: {reason}", cell.kernel, cell.config));
        }
        tally
    }

    /// Cells that did not verify.
    pub fn failed(&self) -> usize {
        self.attempted - self.verified
    }
}

/// The timed reps of one run. They repeat the same cells for timing
/// and must all match rep 0's canonical report, so each cell is one
/// attempted operation per run, tallied from rep 0: a failing cell
/// counts the same on every run of a seed, however many reps fit in
/// the run's time budget.
#[derive(Clone, Debug)]
pub struct Reps {
    /// Rep 0's tally.
    pub tally: Tally,
    /// Whether every rep's canonical report equals rep 0's.
    pub deterministic: bool,
    canonical: Option<String>,
}

impl Default for Reps {
    fn default() -> Reps {
        Reps {
            tally: Tally::default(),
            deterministic: true,
            canonical: None,
        }
    }
}

impl Reps {
    /// Add one rep's report; false when it differs from rep 0's.
    pub fn add(&mut self, report: &SweepReport) -> bool {
        let json = report.canonical_json();
        match &self.canonical {
            None => {
                self.tally = Tally::of(report);
                self.canonical = Some(json);
                true
            }
            Some(first) => {
                let same = *first == json;
                self.deterministic &= same;
                same
            }
        }
    }
}

/// Simulated counts summed over cells. Exact: a change that only makes
/// the simulator faster leaves every field identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimTotals {
    pub cycles: u64,
    pub useful_ops: u64,
    pub overhead_ops: u64,
    pub net_hops: u64,
    pub loads: u64,
    pub smc_accesses: u64,
    pub mem_stall_node_cycles: u64,
    pub revitalizations: u64,
    pub mimd_fetches: u64,
    pub l1_accesses: u64,
    pub l1_misses: u64,
}

impl SimTotals {
    /// Add one cell's statistics.
    pub fn add(&mut self, s: &SimStats) {
        self.cycles += s.cycles();
        self.useful_ops += s.useful_ops;
        self.overhead_ops += s.overhead_ops;
        self.net_hops += s.net_hops;
        self.loads += s.loads;
        self.smc_accesses += s.smc_accesses;
        self.mem_stall_node_cycles += s.mem_stall_node_cycles;
        self.revitalizations += s.revitalizations;
        self.mimd_fetches += s.mimd_fetches;
        self.l1_accesses += s.l1_accesses;
        self.l1_misses += s.l1_misses;
    }

    /// Totals over every cell of `report` that carries statistics.
    pub fn of(report: &SweepReport) -> SimTotals {
        let mut totals = SimTotals::default();
        for stats in report.cells.iter().filter_map(|c| c.outcome.stats()) {
            totals.add(stats);
        }
        totals
    }

    /// Useful operations over all operations executed.
    pub fn useful_op_ratio(&self) -> f64 {
        ratio(self.useful_ops, self.useful_ops + self.overhead_ops)
    }

    /// L1 misses over L1 accesses.
    pub fn l1_miss_ratio(&self) -> f64 {
        ratio(self.l1_misses, self.l1_accesses)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_core::{ExperimentParams, MachineConfig, Sweep};

    #[test]
    fn a_failed_cell_is_counted_and_the_run_completes() {
        let mut sweep = Sweep::with_threads(2);
        let convert = sweep.add_kernel_by_name("convert").unwrap();
        let params = ExperimentParams::default();
        sweep.push_config(convert, MachineConfig::Baseline, 24, &params);
        // A one-tick watchdog makes this cell fail in the simulator.
        let starved = ExperimentParams {
            watchdog: Some(1),
            ..params
        };
        sweep.push_config(convert, MachineConfig::S, 24, &starved);
        let report = sweep.run();

        let tally = Tally::of(&report);
        assert_eq!((tally.attempted, tally.verified, tally.failed()), (2, 1, 1));
        assert_eq!(tally.failures.len(), 1);
        assert!(
            tally.failures[0].starts_with("convert/S: failed"),
            "{:?}",
            tally.failures
        );
        // The verified cell still contributes its statistics.
        assert!(SimTotals::of(&report).cycles > 0);
    }

    #[test]
    fn a_failed_cell_counts_once_per_run_whatever_the_rep_count() {
        let mut sweep = Sweep::with_threads(1);
        let convert = sweep.add_kernel_by_name("convert").unwrap();
        let params = ExperimentParams::default();
        sweep.push_config(convert, MachineConfig::Baseline, 24, &params);
        let starved = ExperimentParams {
            watchdog: Some(1),
            ..params
        };
        sweep.push_config(convert, MachineConfig::S, 24, &starved);
        let report = sweep.run();

        let counts = |n: usize| {
            let mut reps = Reps::default();
            for _ in 0..n {
                assert!(reps.add(&report));
            }
            (reps.tally.attempted, reps.tally.failed(), reps.deterministic)
        };
        assert_eq!(counts(1), (2, 1, true));
        assert_eq!(counts(5), counts(1));

        // A rep whose report differs breaks the gate.
        let mut other = report.clone();
        other.cells.pop();
        let mut reps = Reps::default();
        assert!(reps.add(&report));
        assert!(!reps.add(&other));
        assert!(!reps.deterministic);
    }

    #[test]
    fn ratios_of_nothing_are_zero() {
        assert_eq!(ratio(3, 0), 0.0);
        assert_eq!(SimTotals::default().l1_miss_ratio(), 0.0);
    }
}
