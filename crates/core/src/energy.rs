//! A first-order energy model — the paper's §7 names "more detailed
//! metrics, including cycle time, power, and area" as future work; this
//! module supplies the energy side of that evaluation.
//!
//! Per-event energies are rough 100 nm-era figures (register-file and
//! cache accesses cost an order of magnitude more than ALU ops; network
//! hops sit in between). The interesting outputs are *differences between
//! configurations on the same kernel*: operand revitalization removes
//! register-file traffic, the L0 store removes cache traffic, instruction
//! revitalization removes fetch traffic — each mechanism's benefit is
//! directly visible in the breakdown.

use dlp_common::SimStats;

/// Per-event energy weights in picojoules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// One ALU operation (useful or overhead).
    pub alu_pj: f64,
    /// One operand-network hop traversal.
    pub hop_pj: f64,
    /// One register-file read or write.
    pub regfile_pj: f64,
    /// One L1 cache access.
    pub l1_pj: f64,
    /// One SMC bank transaction.
    pub smc_pj: f64,
    /// One L0 data-store access (tiny, local SRAM).
    pub l0_pj: f64,
    /// Fetching and mapping one instruction onto the array.
    pub fetch_pj: f64,
    /// One MIMD L0 instruction-store fetch.
    pub mimd_fetch_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            alu_pj: 1.0,
            hop_pj: 0.4,
            regfile_pj: 6.0,
            l1_pj: 12.0,
            smc_pj: 18.0,
            l0_pj: 0.8,
            fetch_pj: 4.0,
            mimd_fetch_pj: 0.6,
        }
    }
}

/// Energy attributed to each subsystem, in nanojoules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Execution (ALU operations).
    pub alu_nj: f64,
    /// Operand network (hops).
    pub network_nj: f64,
    /// Register file (reads + writes).
    pub regfile_nj: f64,
    /// L1 cache.
    pub l1_nj: f64,
    /// SMC banks.
    pub smc_nj: f64,
    /// L0 data stores.
    pub l0_nj: f64,
    /// Instruction fetch/map (block fetch + MIMD local fetch).
    pub fetch_nj: f64,
}

impl EnergyBreakdown {
    /// Total energy in nanojoules.
    #[must_use]
    pub fn total_nj(&self) -> f64 {
        self.alu_nj
            + self.network_nj
            + self.regfile_nj
            + self.l1_nj
            + self.smc_nj
            + self.l0_nj
            + self.fetch_nj
    }
}

impl EnergyModel {
    /// Estimate the energy of a run from its statistics.
    ///
    /// Block fetch energy charges `blocks_fetched × (run's mapped
    /// instructions)`; since `SimStats` does not retain the block size, the
    /// caller passes `block_insts` (0 for MIMD runs, whose fetches are
    /// counted per instruction in `mimd_fetches`).
    #[must_use]
    pub fn breakdown(&self, stats: &SimStats, block_insts: usize) -> EnergyBreakdown {
        let pj = |n: u64, w: f64| n as f64 * w / 1000.0;
        EnergyBreakdown {
            alu_nj: pj(stats.total_ops(), self.alu_pj),
            network_nj: pj(stats.net_hops, self.hop_pj),
            regfile_nj: pj(stats.reg_reads + stats.reg_writes, self.regfile_pj),
            l1_nj: pj(stats.l1_accesses, self.l1_pj),
            smc_nj: pj(stats.smc_accesses, self.smc_pj),
            l0_nj: pj(stats.l0_accesses, self.l0_pj),
            fetch_nj: pj(stats.blocks_fetched * block_insts as u64, self.fetch_pj)
                + pj(stats.mimd_fetches, self.mimd_fetch_pj),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> SimStats {
        SimStats {
            ticks: 2000,
            useful_ops: 1000,
            overhead_ops: 500,
            reg_reads: 100,
            reg_writes: 10,
            l1_accesses: 50,
            smc_accesses: 40,
            l0_accesses: 200,
            net_hops: 3000,
            blocks_fetched: 10,
            mimd_fetches: 0,
            ..SimStats::default()
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = EnergyModel::default();
        let b = m.breakdown(&stats(), 64);
        let sum = b.alu_nj + b.network_nj + b.regfile_nj + b.l1_nj + b.smc_nj + b.l0_nj + b.fetch_nj;
        assert!((b.total_nj() - sum).abs() < 1e-12);
        assert!(b.total_nj() > 0.0);
    }

    #[test]
    fn l0_accesses_are_cheaper_than_l1() {
        let m = EnergyModel::default();
        let mut via_l1 = SimStats { l1_accesses: 1000, ..SimStats::default() };
        let mut via_l0 = SimStats { l0_accesses: 1000, ..SimStats::default() };
        via_l1.ticks = 10;
        via_l0.ticks = 10;
        assert!(
            m.breakdown(&via_l0, 0).total_nj() < m.breakdown(&via_l1, 0).total_nj() / 10.0,
            "the 2 KB local store must be an order of magnitude cheaper per access"
        );
    }

    #[test]
    fn fetch_energy_scales_with_refetch() {
        let m = EnergyModel::default();
        let base = SimStats { blocks_fetched: 100, ticks: 10, ..SimStats::default() };
        let revit = SimStats { blocks_fetched: 1, ticks: 10, ..SimStats::default() };
        assert!(m.breakdown(&base, 128).fetch_nj > 50.0 * m.breakdown(&revit, 128).fetch_nj);
    }
}
