//! Timing parameters for the simulated machine.
//!
//! Defaults reproduce the paper's §5.2 baseline: an 8×8 mesh with
//! functional-unit and cache latencies configured to match an Alpha 21264,
//! a 10FO4 clock making the inter-ALU hop delay half a cycle, 64 KB SMC
//! banks (one per row), 2 MB of L2, and partitioned 64 KB L1 caches.
//!
//! All latencies are stored in **ticks** (half-cycles) so that the 0.5-cycle
//! hop stays integral; see [`crate::Tick`].

use crate::json::ToJson;

use crate::Tick;

/// Execution latencies per functional-unit class, in ticks (half-cycles).
///
/// Defaults follow the Alpha 21264's well-known latencies: 1-cycle integer
/// ALU, 7-cycle integer multiply, 4-cycle FP add/multiply, 12-cycle FP
/// divide.
#[derive(Clone, Copy, Debug, PartialEq, Eq, ToJson)]
pub struct OpClassLatency {
    /// Integer add/sub/logic/shift/compare/select.
    pub int_alu: Tick,
    /// Integer multiply.
    pub int_mul: Tick,
    /// Integer divide.
    pub int_div: Tick,
    /// Floating-point add/sub/compare.
    pub fp_add: Tick,
    /// Floating-point multiply.
    pub fp_mul: Tick,
    /// Floating-point divide.
    pub fp_div: Tick,
    /// Floating-point square root.
    pub fp_sqrt: Tick,
    /// Register-to-register moves, immediates, sign extension.
    pub mov: Tick,
}

impl Default for OpClassLatency {
    fn default() -> Self {
        OpClassLatency {
            int_alu: 2,  // 1 cycle
            int_mul: 14, // 7 cycles
            int_div: 40, // 20 cycles
            fp_add: 8,   // 4 cycles
            fp_mul: 8,   // 4 cycles
            fp_div: 24,  // 12 cycles
            fp_sqrt: 36, // 18 cycles
            mov: 2,      // 1 cycle
        }
    }
}

/// Memory-system parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, ToJson)]
pub struct MemParams {
    /// L0 data-store (per-ALU lookup table) access latency, in ticks.
    pub l0_latency: Tick,
    /// L0 data-store capacity in bytes (paper §4.4: 2 KB sufficed).
    pub l0_data_bytes: usize,
    /// L1 cache hit latency, in ticks.
    pub l1_hit_latency: Tick,
    /// L1 miss penalty (added on top of the hit latency), in ticks.
    pub l1_miss_penalty: Tick,
    /// L1 cache capacity in bytes (partitioned 64 KB in the baseline).
    pub l1_bytes: usize,
    /// L1 line size in bytes.
    pub l1_line_bytes: usize,
    /// New L1 accesses accepted per bank per cycle.
    pub l1_accesses_per_cycle: u32,
    /// SMC / L2 bank access latency, in ticks.
    pub smc_latency: Tick,
    /// SMC bank capacity in bytes (64 KB per row in the baseline).
    pub smc_bank_bytes: usize,
    /// Words per cycle each row's streaming channel can deliver.
    pub smc_channel_words_per_cycle: u32,
    /// Maximum contiguous words a single LMW (load-multiple-word) fetches.
    pub lmw_max_words: u32,
    /// Store-buffer entries per row (coalescing window).
    pub store_buffer_entries: usize,
    /// Store-buffer drain bandwidth, lines per cycle per row.
    pub store_drains_per_cycle: u32,
    /// Main-memory access latency, in ticks (L2/SMC miss).
    pub dram_latency: Tick,
}

impl Default for MemParams {
    fn default() -> Self {
        MemParams {
            l0_latency: 2, // 1 cycle
            l0_data_bytes: 2 * 1024,
            l1_hit_latency: 6,    // 3 cycles
            l1_miss_penalty: 20,  // +10 cycles to L2
            l1_bytes: 64 * 1024,
            l1_line_bytes: 64,
            l1_accesses_per_cycle: 2,
            smc_latency: 16, // 8 cycles
            smc_bank_bytes: 64 * 1024,
            smc_channel_words_per_cycle: 8,
            lmw_max_words: 8,
            store_buffer_entries: 16,
            store_drains_per_cycle: 1,
            dram_latency: 120, // 60 cycles
        }
    }
}

/// Operand-network parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, ToJson)]
pub struct NetParams {
    /// Per-hop delay in ticks (paper: 0.5 cycles = 1 tick at 10FO4).
    pub hop_ticks: Tick,
    /// Messages a single link accepts per tick (link bandwidth).
    pub link_msgs_per_tick: u32,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams { hop_ticks: 1, link_msgs_per_tick: 1 }
    }
}

/// Complete machine timing description.
///
/// This is deliberately a plain, fully public parameter struct (a passive
/// configuration record); the structured knobs let the A1–A3 ablation
/// study sweep individual mechanisms without touching simulator code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, ToJson, Default)]
pub struct TimingParams {
    /// Functional-unit latencies.
    pub ops: OpClassLatency,
    /// Memory-system parameters.
    pub mem: MemParams,
    /// Operand-network parameters.
    pub net: NetParams,
    /// Fetch/map parameters.
    pub fetch: FetchParams,
    /// Execution-core storage parameters.
    pub core: CoreParams,
}

/// Instruction fetch/map parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, ToJson)]
pub struct FetchParams {
    /// Instructions fetched and mapped onto the array per cycle.
    pub insts_per_cycle: u32,
    /// Fixed per-block map/dispatch overhead, in ticks.
    pub map_overhead: Tick,
    /// Latency of the global revitalize broadcast between loop iterations,
    /// in ticks (paper §4.3: amortized by unrolling).
    pub revitalize_delay: Tick,
    /// Block instances the baseline keeps in flight concurrently (TRIPS
    /// frames). Instruction revitalization replaces this pipelining with a
    /// serial revitalize barrier, which is why it must unroll instead.
    pub baseline_frames: u32,
}

impl Default for FetchParams {
    fn default() -> Self {
        FetchParams {
            insts_per_cycle: 16,
            map_overhead: 16,     // 8 cycles
            revitalize_delay: 10, // 5 cycles: global broadcast across the array
            baseline_frames: 16,
        }
    }
}

/// Execution-core storage parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, ToJson)]
pub struct CoreParams {
    /// Reservation-station slots per node available to DLP mapping
    /// (instruction revitalization fills all of these).
    pub rs_slots_per_node: usize,
    /// Reservation-station slots per node the baseline ILP compiler can fill
    /// per hyperblock (limits baseline block size).
    pub baseline_slots_per_node: usize,
    /// Register-file banks along the top edge.
    pub reg_banks: u32,
    /// Reads each register bank serves per cycle.
    pub reg_reads_per_bank_per_cycle: u32,
    /// Instructions the per-node L0 instruction store holds (MIMD mode).
    pub l0_inst_capacity: usize,
    /// Architectural registers per node in MIMD mode (operand buffers).
    pub mimd_regs: usize,
}

impl Default for CoreParams {
    fn default() -> Self {
        CoreParams {
            rs_slots_per_node: 64,
            baseline_slots_per_node: 2,
            reg_banks: 8,
            reg_reads_per_bank_per_cycle: 1,
            l0_inst_capacity: 256,
            mimd_regs: 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_baseline() {
        let p = TimingParams::default();
        // Alpha-21264-like: 1-cycle int ALU, 7-cycle imul, 4-cycle FP add/mul.
        assert_eq!(p.ops.int_alu, 2);
        assert_eq!(p.ops.int_mul, 14);
        assert_eq!(p.ops.fp_add, 8);
        // 0.5-cycle hop.
        assert_eq!(p.net.hop_ticks, 1);
        // 2 KB L0 data store, 64 KB SMC banks, 64 KB L1.
        assert_eq!(p.mem.l0_data_bytes, 2048);
        assert_eq!(p.mem.smc_bank_bytes, 64 * 1024);
        assert_eq!(p.mem.l1_bytes, 64 * 1024);
    }

    #[test]
    fn params_implement_common_traits() {
        fn assert_traits<T: Clone + Copy + std::fmt::Debug + PartialEq + ToJson>() {}
        assert_traits::<TimingParams>();
        assert_traits::<OpClassLatency>();
        assert_traits::<MemParams>();
        assert_traits::<NetParams>();
        let a = TimingParams::default();
        assert_eq!(a, a);
    }
}
