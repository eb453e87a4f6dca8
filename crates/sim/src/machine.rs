//! Shared machine state: grid, memory system, register file, L0 stores.

use dlp_common::{DlpError, FaultInjector, FaultPlan, GridShape, SimStats, Tick, TimingParams, Value};
use trips_mem::{DmaEngine, L1Cache, MainMemory, SmcBank, StoreBuffer};
use trips_noc::MeshRouter;

use crate::MechanismSet;

/// The simulated machine: the ALU array plus its memory system.
///
/// A `Machine` persists across kernel launches, so an experiment driver can
/// stage data ([`Machine::stage_smc`]), preload lookup tables
/// ([`Machine::load_l0_table`]), seed registers, and then run one or more
/// kernels, accumulating setup costs into the next run's statistics exactly
/// as the paper's setup blocks do.
#[derive(Debug)]
pub struct Machine {
    grid: GridShape,
    params: TimingParams,
    mech: MechanismSet,
    pub(crate) router: MeshRouter,
    pub(crate) mem: MainMemory,
    pub(crate) smc: Vec<SmcBank>,
    pub(crate) l1: Vec<L1Cache>,
    pub(crate) stb: Vec<StoreBuffer>,
    /// L0 data-store contents (identical at every node; capacity-checked).
    pub(crate) l0_data: Vec<Value>,
    /// Architectural register file (bank of `reg % banks`).
    pub(crate) regs: Vec<Value>,
    /// Setup cost (DMA staging, table broadcast) charged to the next run.
    pub(crate) setup_ticks: Tick,
    /// Simulated-time limit per run (deadlock/livelock guard).
    pub(crate) watchdog_ticks: Tick,
    /// Transient-fault state; [`FaultInjector::disabled`] by default, so
    /// the faulty hook paths are exact no-ops.
    pub(crate) fault: FaultInjector,
}

impl Machine {
    /// Number of architectural registers modeled (large enough for the
    /// constant pools of the constant-heavy kernels; bank pressure is what
    /// the model charges for, not register count).
    pub const NUM_REGS: usize = 512;

    /// Build a machine.
    ///
    /// # Panics
    ///
    /// Panics if `mech` is not a coherent combination (see
    /// [`MechanismSet::is_coherent`]) — constructing an impossible machine
    /// is a driver bug.
    #[must_use]
    pub fn new(grid: GridShape, params: TimingParams, mech: MechanismSet) -> Self {
        assert!(mech.is_coherent(), "incoherent mechanism set {mech}");
        let rows = grid.rows() as usize;
        let l1_bank_bytes = (params.mem.l1_bytes / rows).max(params.mem.l1_line_bytes);
        Machine {
            grid,
            params,
            mech,
            router: MeshRouter::new(grid, params.net),
            mem: MainMemory::new(),
            smc: (0..rows).map(|_| SmcBank::new(&params.mem)).collect(),
            l1: (0..rows).map(|_| L1Cache::new(l1_bank_bytes, &params.mem)).collect(),
            stb: (0..rows).map(|_| StoreBuffer::new(&params.mem)).collect(),
            l0_data: Vec::new(),
            regs: vec![Value::ZERO; Self::NUM_REGS],
            setup_ticks: 0,
            watchdog_ticks: crate::WATCHDOG_TICKS,
            fault: FaultInjector::disabled(),
        }
    }

    /// Lower the per-run watchdog (simulated ticks). A run exceeding the
    /// limit fails with [`DlpError::Watchdog`] instead of spinning — useful
    /// when driving untrusted or generated programs.
    pub fn set_watchdog(&mut self, ticks: Tick) {
        self.watchdog_ticks = ticks.max(1);
    }

    /// Install a transient-fault plan, seeded from `run_seed` (normally the
    /// experiment seed). Affects every subsequent stage/run on this machine
    /// until replaced; an all-zero plan restores the exact fault-free
    /// behavior (the injector disables itself and draws no randomness).
    pub fn install_fault_plan(&mut self, plan: FaultPlan, run_seed: u64) {
        self.fault = plan.injector(run_seed);
    }

    /// The array shape.
    #[must_use]
    pub fn grid(&self) -> GridShape {
        self.grid
    }

    /// The timing parameters.
    #[must_use]
    pub fn params(&self) -> &TimingParams {
        &self.params
    }

    /// The enabled mechanisms.
    #[must_use]
    pub fn mechanisms(&self) -> MechanismSet {
        self.mech
    }

    /// Mutable access to main memory (for staging workloads and reading
    /// results).
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.mem
    }

    /// Read-only access to main memory.
    #[must_use]
    pub fn memory(&self) -> &MainMemory {
        &self.mem
    }

    /// Read architectural register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn reg(&self, r: u16) -> Value {
        self.regs[r as usize]
    }

    /// Write architectural register `r` (driver-side kernel setup).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn set_reg(&mut self, r: u16, v: Value) {
        self.regs[r as usize] = v;
    }

    /// Stage a word range into the software-managed cache via the DMA
    /// engines, charging the transfer to the next run's setup time.
    ///
    /// Records are interleaved across the per-row banks by the stream
    /// scheduler, so the effective window is the aggregate capacity of all
    /// banks; a dataset larger than that is only resident in its prefix and
    /// the remainder falls back to DRAM on access (the paper's `lu`
    /// situation).
    ///
    /// # Errors
    ///
    /// Returns [`DlpError::Unsupported`] when the SMC mechanism is disabled.
    pub fn stage_smc(&mut self, range: std::ops::Range<u64>) -> Result<(), DlpError> {
        if !self.mech.smc {
            return Err(DlpError::Unsupported {
                what: "SMC staging on a machine without the SMC mechanism".into(),
            });
        }
        let total_words: u64 = self.smc.iter().map(SmcBank::capacity_words).sum();
        let len = (range.end - range.start).min(total_words);
        let clamped = range.start..range.start + len;
        // All banks see the same aggregate window; per-bank bandwidth is
        // modeled independently, partitioning is the stream scheduler's job.
        for bank in &mut self.smc {
            bank.set_resident_raw(clamped.clone());
        }
        let dma = DmaEngine::new(&self.params.mem);
        // The per-row engines stream their shares concurrently. A DMA
        // stall is absorbed here: the launch throttle (setup_ticks) simply
        // starts the kernel later.
        let share = len.div_ceil(self.smc.len() as u64);
        self.setup_ticks += dma.transfer_done_faulty(share, 0, &mut self.fault);
        Ok(())
    }

    /// Load (replacing) the L0 data-store contents broadcast to every node,
    /// charging the broadcast to setup time.
    ///
    /// Capacity accounting follows the paper's §4.4: the 2 KB store holds
    /// the narrow entries the encryption and skinning kernels index (byte
    /// to word sized), so capacity is checked in *entries* against the byte
    /// budget.
    ///
    /// # Errors
    ///
    /// [`DlpError::Unsupported`] when the L0 data store is disabled;
    /// [`DlpError::CapacityExceeded`] when the table does not fit.
    pub fn load_l0_table(&mut self, entries: &[Value]) -> Result<(), DlpError> {
        if !self.mech.l0_data_store {
            return Err(DlpError::Unsupported {
                what: "L0 data store is not configured on this machine".into(),
            });
        }
        let cap = self.params.mem.l0_data_bytes;
        if entries.len() > cap {
            return Err(DlpError::CapacityExceeded {
                resource: "L0 data-store entries",
                needed: entries.len(),
                available: cap,
            });
        }
        self.l0_data = entries.to_vec();
        // Broadcast down the row channels: entries stream at channel
        // bandwidth, pipelined across rows.
        let words = entries.len() as u64;
        let per_cycle = u64::from(self.params.mem.smc_channel_words_per_cycle.max(1));
        self.setup_ticks += self.params.mem.dram_latency + words.div_ceil(per_cycle) * 2;
        Ok(())
    }

    /// Reset per-run timing state (bank queues, router occupancy, caches)
    /// while keeping memory contents, registers, staged SMC windows and L0
    /// tables.
    pub(crate) fn begin_run(&mut self) -> SimStats {
        self.router.reset();
        for b in &mut self.smc {
            b.reset_timing();
        }
        for c in &mut self.l1 {
            c.reset();
        }
        for s in &mut self.stb {
            s.reset();
        }
        let mut stats = SimStats::new();
        stats.ticks = self.setup_ticks;
        self.setup_ticks = 0;
        stats
    }

    /// Fetch *throughput* cost (ticks of fetch-engine occupancy) for
    /// streaming `insts` instructions onto the array. The one-time map
    /// latency is `TimingParams.fetch.map_overhead`, charged once per
    /// run by the engine.
    pub(crate) fn fetch_ticks(&self, insts: usize) -> Tick {
        let per_cycle = u64::from(self.params.fetch.insts_per_cycle.max(1));
        (insts as u64).div_ceil(per_cycle) * 2
    }

    /// Baseline (ILP-mode) fetch throughput for one kernel instance: the
    /// kernel streams as a *sequence* of hyperblocks bounded by the
    /// baseline per-block budget, with a small dispatch bubble between
    /// hyperblocks. This is how the block-size limit of ILP compilation
    /// (§5.2) shows up in the model without simulating cross-block register
    /// traffic.
    pub(crate) fn fetch_ticks_baseline(&self, insts: usize) -> Tick {
        let per_cycle = u64::from(self.params.fetch.insts_per_cycle.max(1));
        let chunk = (self.params.core.baseline_slots_per_node * self.grid.nodes()).max(1);
        let blocks = (insts.max(1)).div_ceil(chunk) as u64;
        (insts as u64).div_ceil(per_cycle) * 2 + (blocks - 1) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_common::{GridShape, TimingParams};

    fn machine(mech: MechanismSet) -> Machine {
        Machine::new(GridShape::new(8, 8), TimingParams::default(), mech)
    }

    #[test]
    fn staging_requires_smc() {
        let mut m = machine(MechanismSet::baseline());
        assert!(m.stage_smc(0..100).is_err());
        let mut m = machine(MechanismSet::simd());
        assert!(m.stage_smc(0..100).is_ok());
        assert!(m.setup_ticks > 0);
    }

    #[test]
    fn l0_requires_mechanism_and_capacity() {
        let mut m = machine(MechanismSet::simd());
        assert!(m.load_l0_table(&[Value::ZERO; 16]).is_err());

        let mut m = machine(MechanismSet::simd_operand_l0());
        assert!(m.load_l0_table(&[Value::ZERO; 16]).is_ok());
        // Default capacity: 2048 entries.
        assert!(m.load_l0_table(&vec![Value::ZERO; 4096]).is_err());
    }

    #[test]
    fn registers_read_back() {
        let mut m = machine(MechanismSet::baseline());
        m.set_reg(7, Value::from_u64(99));
        assert_eq!(m.reg(7).as_u64(), 99);
    }

    #[test]
    fn begin_run_consumes_setup() {
        let mut m = machine(MechanismSet::simd());
        m.stage_smc(0..1024).unwrap();
        let s = m.begin_run();
        assert!(s.ticks > 0);
        let s2 = m.begin_run();
        assert_eq!(s2.ticks, 0);
    }

    #[test]
    #[should_panic(expected = "incoherent")]
    fn incoherent_mechanisms_panic() {
        let bad = MechanismSet { inst_revitalization: true, local_pc: true, ..Default::default() };
        let _ = machine(bad);
    }

    #[test]
    fn fetch_ticks_scale_with_block_size() {
        let m = machine(MechanismSet::baseline());
        let small = m.fetch_ticks(16);
        let large = m.fetch_ticks(512);
        assert!(large > small);
    }
}
