//! Simulation statistics and the derived metrics the paper reports.

use std::fmt;

use crate::json::{FromJson, ToJson};

use crate::{ticks_to_cycles, Tick};

/// Counters accumulated by the timing simulator during one run.
///
/// The paper's primary metric (Table 4) is *useful computation operations
/// sustained per cycle*, explicitly **excluding** overhead instructions such
/// as address computation, loads and stores — so the counters distinguish
/// useful ops from overhead ops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, ToJson, FromJson)]
pub struct SimStats {
    /// Total elapsed simulated time, in ticks (half-cycles).
    pub ticks: Tick,
    /// Useful (algorithmic) operations executed.
    pub useful_ops: u64,
    /// Overhead operations executed (address arithmetic, moves, predicate
    /// plumbing, loop tests).
    pub overhead_ops: u64,
    /// Load instructions completed (any memory path).
    pub loads: u64,
    /// Store instructions completed.
    pub stores: u64,
    /// Words delivered by LMW wide loads.
    pub lmw_words: u64,
    /// L1 cache accesses.
    pub l1_accesses: u64,
    /// L1 cache misses.
    pub l1_misses: u64,
    /// SMC (software-managed cache) accesses.
    pub smc_accesses: u64,
    /// L0 data-store (lookup table) accesses.
    pub l0_accesses: u64,
    /// Register-file reads.
    pub reg_reads: u64,
    /// Register-file writes.
    pub reg_writes: u64,
    /// Operand-network messages injected.
    pub net_msgs: u64,
    /// Total operand-network hop traversals.
    pub net_hops: u64,
    /// Blocks fetched and mapped onto the array.
    pub blocks_fetched: u64,
    /// Instruction-revitalization events (loop iterations reusing mappings).
    pub revitalizations: u64,
    /// Kernel iterations completed.
    pub iterations: u64,
    /// MIMD instructions fetched from local L0 instruction stores.
    pub mimd_fetches: u64,
    /// Cycles any node spent stalled waiting on memory.
    pub mem_stall_node_cycles: u64,
    /// Transient faults injected by the fault plan (zero without one).
    pub faults_injected: u64,
    /// Fault-recovery replays performed (NoC resends, operand re-latches).
    pub fault_retries: u64,
    /// Extra simulated ticks charged to fault recovery (backoff waits,
    /// stall windows, delayed fills).
    pub fault_stall_ticks: u64,
}

impl SimStats {
    /// A zeroed statistics record.
    #[must_use]
    pub fn new() -> Self {
        SimStats::default()
    }

    /// Elapsed cycles (ticks are half-cycles).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        ticks_to_cycles(self.ticks)
    }

    /// Useful operations per cycle — the paper's Table 4 metric.
    #[must_use]
    pub fn ops_per_cycle(&self) -> OpsPerCycle {
        OpsPerCycle(if self.cycles() == 0 {
            0.0
        } else {
            self.useful_ops as f64 / self.cycles() as f64
        })
    }

    /// All executed operations (useful + overhead).
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.useful_ops + self.overhead_ops
    }

    /// L1 miss ratio, or 0 when there were no accesses.
    #[must_use]
    pub fn l1_miss_ratio(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.l1_accesses as f64
        }
    }

    /// Fold a run's fault-injector counters into this record.
    pub fn record_faults(&mut self, f: crate::fault::FaultStats) {
        self.faults_injected += f.injected;
        self.fault_retries += f.retries;
        self.fault_stall_ticks += f.stall_ticks;
    }

    /// Speedup of `self` over `baseline` in execution cycles (the paper's
    /// Figure 5 metric: relative speedup measured in execution cycles).
    ///
    /// # Panics
    ///
    /// Panics if `self` took zero cycles.
    #[must_use]
    pub fn speedup_over(&self, baseline: &SimStats) -> f64 {
        assert!(self.cycles() > 0, "cannot compute speedup of a zero-cycle run");
        baseline.cycles() as f64 / self.cycles() as f64
    }
}

/// Useful operations sustained per cycle (Table 4 metric).
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct OpsPerCycle(pub f64);

impl fmt::Display for OpsPerCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}", self.0)
    }
}

/// Harmonic mean of a set of positive values (the paper's Figure 5 summary
/// statistic for cross-application speedup).
///
/// Returns `None` for an empty slice or when any value is non-positive.
#[must_use]
pub fn harmonic_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let inv_sum: f64 = values.iter().map(|v| 1.0 / v).sum();
    Some(values.len() as f64 / inv_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ops_per_cycle_excludes_overhead() {
        let s = SimStats { ticks: 20, useful_ops: 50, overhead_ops: 100, ..SimStats::default() };
        assert_eq!(s.cycles(), 10);
        assert!((s.ops_per_cycle().0 - 5.0).abs() < 1e-12);
        assert_eq!(s.total_ops(), 150);
    }

    #[test]
    fn zero_cycles_yield_zero_rate() {
        assert_eq!(SimStats::default().ops_per_cycle().0, 0.0);
    }

    #[test]
    fn speedup_is_baseline_over_self() {
        let base = SimStats { ticks: 200, ..SimStats::default() };
        let fast = SimStats { ticks: 50, ..SimStats::default() };
        assert!((fast.speedup_over(&base) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_known_values() {
        let hm = harmonic_mean(&[1.0, 2.0, 4.0]).unwrap();
        assert!((hm - 12.0 / 7.0).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[]), None);
        assert_eq!(harmonic_mean(&[1.0, 0.0]), None);
        assert_eq!(harmonic_mean(&[1.0, -2.0]), None);
    }

    proptest! {
        #[test]
        fn harmonic_mean_bounded_by_min_max(
            xs in proptest::collection::vec(0.01f64..1000.0, 1..20)
        ) {
            let hm = harmonic_mean(&xs).unwrap();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(0.0_f64, f64::max);
            prop_assert!(hm >= lo - 1e-9);
            prop_assert!(hm <= hi + 1e-9);
        }

        #[test]
        fn harmonic_mean_of_constant_is_constant(x in 0.01f64..1000.0, n in 1usize..10) {
            let xs = vec![x; n];
            let hm = harmonic_mean(&xs).unwrap();
            prop_assert!((hm - x).abs() < 1e-9 * x.max(1.0));
        }
    }
}
