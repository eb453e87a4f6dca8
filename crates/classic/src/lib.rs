//! # dlp-classic
//!
//! First-order timing models of the three classic data-parallel
//! architecture families the paper's Section 3 surveys (Figure 2):
//!
//! * [`VectorMachine`] — global control, a vector register file staging
//!   values between memory and the ALUs (Cray-1 / VectorIRAM / Tarantula
//!   style). Efficient on regular streams; *gathers* for irregular or
//!   indexed accesses are slow, and data-dependent control executes under
//!   masks (all iterations pay the maximum trip count).
//! * [`SimdArray`] — global control over per-PE private memories (CM-2 /
//!   MasPar style). Point-to-point neighbor communication exists, but
//!   irregular global accesses serialize through a shared port, and
//!   conditionals execute under masks.
//! * [`CoarseMimd`] — independently controlled coarse cores (SPMD), cheap
//!   data-dependent control, but per-element synchronization and
//!   fine-grain communication are expensive.
//!
//! The models consume a kernel's measured [`KernelAttributes`] (Table 2)
//! and produce estimated cycles per record. They are deliberately
//! first-order — the paper gives no quantitative data for these machines —
//! and exist so the workspace can *demonstrate* Section 3's qualitative
//! claims: which kernel class each architecture likes, and why a single
//! fixed model leaves performance behind (motivating the universal
//! mechanisms). See the `classic_architectures` example.
//!
//! # Example
//!
//! ```
//! use dlp_classic::{VectorMachine, CoarseMimd, ClassicModel};
//! use dlp_kernel_ir::{IrBuilder, ControlClass, Domain};
//! use trips_isa::Opcode;
//!
//! // A tiny regular streaming kernel: out = in0 + in1.
//! let mut b = IrBuilder::new("t", Domain::Scientific, 2, 1);
//! let x = b.input(0);
//! let y = b.input(1);
//! let s = b.bin(Opcode::FAdd, x, y);
//! b.output(0, s);
//! let attrs = b.finish(ControlClass::Straight)?.attributes();
//!
//! let vector = VectorMachine::default().cycles_per_record(&attrs);
//! let mimd = CoarseMimd::default().cycles_per_record(&attrs);
//! // A regular streaming kernel is far better on the vector machine.
//! assert!(vector < mimd);
//! # Ok::<(), dlp_common::DlpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dlp_kernel_ir::{ControlClass, KernelAttributes};

/// A first-order classic-architecture timing model.
pub trait ClassicModel {
    /// Estimated execution cycles per kernel record (amortized, steady
    /// state).
    fn cycles_per_record(&self, attrs: &KernelAttributes) -> f64;

    /// Model name for reports.
    fn name(&self) -> &'static str;
}

/// Instructions a kernel executes per record, accounting for masked
/// execution of data-dependent loops on globally synchronized machines:
/// every element pays the full unrolled maximum (§2.1.2).
fn masked_insts(attrs: &KernelAttributes) -> f64 {
    attrs.insts as f64
}

/// Average *useful* fraction under data-dependent control: a MIMD machine
/// only executes live iterations. We assume the live trip count averages
/// half the maximum, as in the paper's skinning/anisotropic discussion.
fn mimd_insts(attrs: &KernelAttributes) -> f64 {
    match attrs.control {
        ControlClass::VariableLoop { .. } => attrs.insts as f64 * 0.5,
        _ => attrs.insts as f64,
    }
}

/// A classic vector machine (Figure 2, left).
#[derive(Clone, Copy, Debug)]
pub struct VectorMachine {
    /// Vector lanes (parallel pipelines).
    pub lanes: u32,
    /// Words per cycle the memory system streams into the VRF.
    pub stream_words_per_cycle: u32,
    /// Cycles per gathered element (irregular or indexed access).
    pub gather_cycles: f64,
    /// Fixed per-vector-instruction startup overhead, amortized over the
    /// (assumed) vector length.
    pub startup_per_inst: f64,
}

impl Default for VectorMachine {
    fn default() -> Self {
        VectorMachine {
            lanes: 16,
            stream_words_per_cycle: 16,
            gather_cycles: 4.0,
            startup_per_inst: 0.25,
        }
    }
}

impl ClassicModel for VectorMachine {
    fn cycles_per_record(&self, attrs: &KernelAttributes) -> f64 {
        let compute = masked_insts(attrs) / f64::from(self.lanes)
            + masked_insts(attrs) * self.startup_per_inst / 64.0;
        let stream = f64::from(attrs.record_read + attrs.record_write)
            / f64::from(self.stream_words_per_cycle);
        // Irregular + indexed-constant traffic gathers element by element.
        let lookups = attrs.irregular as f64
            + if attrs.indexed_constants > 0 { table_reads_estimate(attrs) } else { 0.0 };
        let gathers = lookups * self.gather_cycles;
        compute.max(stream) + gathers
    }

    fn name(&self) -> &'static str {
        "vector"
    }
}

/// A fine-grain SIMD array (Figure 2, middle).
#[derive(Clone, Copy, Debug)]
pub struct SimdArray {
    /// Processing elements.
    pub pes: u32,
    /// Cycles per element of irregular/global traffic (serialized through
    /// the global port).
    pub global_access_cycles: f64,
    /// Per-instruction broadcast overhead.
    pub broadcast_overhead: f64,
}

impl Default for SimdArray {
    fn default() -> Self {
        SimdArray { pes: 64, global_access_cycles: 8.0, broadcast_overhead: 0.1 }
    }
}

impl ClassicModel for SimdArray {
    fn cycles_per_record(&self, attrs: &KernelAttributes) -> f64 {
        // One record per PE: the array retires `pes` records every
        // `insts` instructions, but every instruction costs (1 + overhead)
        // cycles and lookups serialize.
        let per_element = masked_insts(attrs) * (1.0 + self.broadcast_overhead)
            / f64::from(self.pes);
        let lookups = attrs.irregular as f64
            + if attrs.indexed_constants > 0 { table_reads_estimate(attrs) } else { 0.0 };
        // Serialized through the global port: each element's lookups cost
        // full latency and contend across the array.
        per_element + lookups * self.global_access_cycles / f64::from(self.pes).sqrt()
    }

    fn name(&self) -> &'static str {
        "simd"
    }
}

/// A coarse-grain MIMD multiprocessor (Figure 2, right).
#[derive(Clone, Copy, Debug)]
pub struct CoarseMimd {
    /// Cores.
    pub cores: u32,
    /// Sustained IPC per core on scalar kernel code.
    pub ipc: f64,
    /// Per-record scheduling/synchronization overhead in cycles
    /// (coarse-grain machines amortize poorly at record granularity).
    pub sync_cycles: f64,
}

impl Default for CoarseMimd {
    fn default() -> Self {
        CoarseMimd { cores: 8, ipc: 2.0, sync_cycles: 50.0 }
    }
}

impl ClassicModel for CoarseMimd {
    fn cycles_per_record(&self, attrs: &KernelAttributes) -> f64 {
        let per_core = mimd_insts(attrs) / self.ipc + self.sync_cycles;
        per_core / f64::from(self.cores)
    }

    fn name(&self) -> &'static str {
        "coarse-mimd"
    }
}

/// Rough table-read count per record: kernels touch their lookup tables a
/// handful of times per round; we scale with instruction count (every ~6th
/// instruction in the table-using kernels of Table 2 is a lookup).
fn table_reads_estimate(attrs: &KernelAttributes) -> f64 {
    (attrs.insts as f64 / 6.0).min(attrs.indexed_constants as f64)
}

/// Evaluate all three classic models on a kernel.
#[must_use]
pub fn survey(attrs: &KernelAttributes) -> Vec<(&'static str, f64)> {
    vec![
        ("vector", VectorMachine::default().cycles_per_record(attrs)),
        ("simd", SimdArray::default().cycles_per_record(attrs)),
        ("coarse-mimd", CoarseMimd::default().cycles_per_record(attrs)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_kernel_ir::{ControlClass, Domain, IrBuilder};
    use trips_isa::Opcode;

    fn attrs(
        insts: usize,
        irregular: usize,
        indexed: usize,
        control: ControlClass,
    ) -> KernelAttributes {
        KernelAttributes {
            name: "synthetic".into(),
            insts,
            ilp: 4.0,
            record_read: 4,
            record_write: 2,
            irregular,
            constants: 4,
            indexed_constants: indexed,
            control,
        }
    }

    #[test]
    fn vector_wins_regular_streams() {
        let a = attrs(16, 0, 0, ControlClass::Straight);
        let v = VectorMachine::default().cycles_per_record(&a);
        let m = CoarseMimd::default().cycles_per_record(&a);
        assert!(v < m, "vector {v} should beat coarse MIMD {m} on regular streams");
    }

    #[test]
    fn irregular_accesses_hurt_vector_machines() {
        let clean = attrs(64, 0, 0, ControlClass::Straight);
        let dirty = attrs(64, 8, 0, ControlClass::Straight);
        let vm = VectorMachine::default();
        assert!(
            vm.cycles_per_record(&dirty) > 2.0 * vm.cycles_per_record(&clean),
            "gathers should dominate"
        );
    }

    #[test]
    fn data_dependent_control_favors_mimd() {
        // A variable-loop kernel: MIMD executes half the unrolled work.
        let a = attrs(800, 0, 0, ControlClass::VariableLoop { max_iters: 16 });
        let masked = masked_insts(&a);
        let live = mimd_insts(&a);
        assert_eq!(masked, 800.0);
        assert_eq!(live, 400.0);
    }

    #[test]
    fn survey_reports_all_three() {
        let a = attrs(100, 2, 256, ControlClass::FixedLoop { iters: 16 });
        let s = survey(&a);
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|(_, c)| *c > 0.0));
    }

    #[test]
    fn real_kernel_attributes_flow_through() {
        let mut b = IrBuilder::new("t", Domain::Scientific, 2, 1);
        let x = b.input(0);
        let y = b.input(1);
        let s = b.bin(Opcode::FAdd, x, y);
        b.output(0, s);
        let a = b.finish(ControlClass::Straight).unwrap().attributes();
        for (name, c) in survey(&a) {
            assert!(c > 0.0, "{name} produced non-positive estimate");
        }
    }
}
