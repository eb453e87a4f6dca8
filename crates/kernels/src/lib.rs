//! # dlp-kernels
//!
//! The paper's benchmark suite (Table 1): data-parallel kernels from four
//! domains —
//!
//! * **Multimedia**: [`convert`] (RGB→YIQ), [`dct`] (2-D 8×8 DCT),
//!   [`highpassfilter`] (3×3 high-pass);
//! * **Scientific**: [`fft`] (complex butterfly of a 1024-point FFT),
//!   [`lu`] (dense LU elimination update);
//! * **Network / security** (1500-byte packets): [`md5`],
//!   [`blowfish`], [`rijndael`] (AES-128), all implemented from scratch
//!   (including GF(2⁸) S-box construction for AES; Blowfish's π tables are
//!   constants that a BBP digit generator in the tests regenerates and
//!   pins);
//! * **Real-time graphics**: [`vertex_simple`], [`fragment_simple`],
//!   [`vertex_reflection`], [`fragment_reflection`], [`vertex_skinning`],
//!   and [`anisotropic`] (characterized only, excluded from performance
//!   tables exactly as the paper's footnote 1 does).
//!
//! Every kernel provides four artifacts through the [`DlpKernel`] trait:
//!
//! 1. an **independent reference implementation** (pure Rust) used as the
//!    oracle for every simulated configuration,
//! 2. a **dataflow IR** ([`dlp_kernel_ir::KernelIr`]) — the unrolled form
//!    the vector/SIMD-style configurations execute, from which the Table 2
//!    attributes are computed,
//! 3. a **MIMD program builder** — the rolled, branching form the local-PC
//!    configurations execute, parameterized by whether indexed constants
//!    live in the L0 data store (M-D) or behind the L1 (M),
//! 4. a deterministic **workload generator** producing the input stream,
//!    any irregular-memory region (textures), and the expected outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-coupled loops over matrix rows / color channels read more clearly
// with explicit indices here; iterator adaptors obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod refimpl;
mod suite;
mod util;

pub use suite::{
    anisotropic, blowfish, convert, dct, fft, fragment_reflection, fragment_simple,
    highpassfilter, lu, md5, rijndael, vertex_reflection, vertex_simple, vertex_skinning,
};
pub use util::{pack2f32, unpack2f32, MimdStream, MimdTarget};

use dlp_common::Value;
use dlp_kernel_ir::KernelIr;
use trips_isa::MimdProgram;

/// The shared word-address memory map every kernel and driver agrees on.
pub mod memmap {
    /// First word of the input record stream.
    pub const BASE_IN: u64 = 0;
    /// First word of the output record stream.
    pub const BASE_OUT: u64 = 1_000_000;
    /// First word of lookup-table images (when not in the L0 store).
    pub const TABLE_BASE: u64 = 2_000_000;
    /// First word of the irregular-access region (texture memory).
    pub const TEX_BASE: u64 = 2_100_000;
    /// First word of per-record scratch space used by MIMD kernels with
    /// multi-pass structure (e.g. the 2-D DCT's row-pass intermediate).
    pub const SCRATCH_BASE: u64 = 3_000_000;
}

/// A deterministic workload for one kernel: inputs, any irregular-memory
/// region, and the reference-computed expected outputs.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Number of records.
    pub records: usize,
    /// The input stream (`records * record_in_words` words, at
    /// [`memmap::BASE_IN`]).
    pub input_words: Vec<Value>,
    /// Contents of the irregular region at [`memmap::TEX_BASE`]
    /// (empty when the kernel makes no irregular accesses).
    pub tex_words: Vec<Value>,
    /// Expected output stream (`records * record_out_words` words).
    pub expected: Vec<Value>,
}

/// How floating-point outputs should be compared against the reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputKind {
    /// Bit-exact integer outputs.
    ExactBits,
    /// `f32` outputs compared with a relative tolerance (operation
    /// reassociation between forms is allowed).
    F32Approx,
    /// Two `f32`s packed per word, compared with tolerance.
    PackedF32Approx,
}

/// One benchmark of the suite.
///
/// Kernels are stateless descriptions (`Send + Sync`), so experiment
/// harnesses can sweep them from worker threads.
pub trait DlpKernel: Send + Sync {
    /// Kernel name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// One-line description (Table 1).
    fn description(&self) -> &'static str;

    /// The unrolled dataflow IR for one record.
    fn ir(&self) -> KernelIr;

    /// The rolled MIMD node program (stream loop + real branches).
    ///
    /// # Errors
    ///
    /// Returns an error if the program fails to assemble — a kernel bug.
    fn mimd_program(&self, target: MimdTarget) -> Result<MimdProgram, dlp_common::DlpError>;

    /// Generate a deterministic workload of `records` records.
    fn workload(&self, records: usize, seed: u64) -> Workload;

    /// The table image the MIMD form indexes (concatenated, entry 0 at
    /// offset 0). Defaults to the IR's tables; kernels whose rolled form
    /// turns unrolled scalar constants back into indexed ones (dct's
    /// coefficient table, md5's K/S/g tables) override this.
    fn mimd_table_image(&self) -> Vec<Value> {
        self.ir().tables().iter().flat_map(|t| t.entries.iter().copied()).collect()
    }

    /// How to compare simulated output words against the expectation.
    fn output_kind(&self) -> OutputKind;

    /// Whether the kernel participates in the performance experiments
    /// (anisotropic-filter is characterized but excluded, per the paper's
    /// footnote 1).
    fn in_perf_suite(&self) -> bool {
        true
    }
}

/// All kernels of Table 1, in the paper's order.
#[must_use]
pub fn suite() -> Vec<Box<dyn DlpKernel>> {
    vec![
        Box::new(convert::Convert),
        Box::new(dct::Dct),
        Box::new(highpassfilter::HighPassFilter),
        Box::new(fft::Fft),
        Box::new(lu::Lu),
        Box::new(md5::Md5),
        Box::new(blowfish::Blowfish),
        Box::new(rijndael::Rijndael),
        Box::new(vertex_simple::VertexSimple),
        Box::new(fragment_simple::FragmentSimple),
        Box::new(vertex_reflection::VertexReflection),
        Box::new(fragment_reflection::FragmentReflection),
        Box::new(vertex_skinning::VertexSkinning),
        Box::new(anisotropic::Anisotropic),
    ]
}

/// Compare a simulated output stream against a workload's expectation.
///
/// Returns the index of the first mismatching word, or `None` when all
/// match under the kernel's [`OutputKind`] rules.
#[must_use]
pub fn first_mismatch(kind: OutputKind, got: &[Value], expected: &[Value]) -> Option<usize> {
    fn f32_close(a: f32, b: f32) -> bool {
        if a == b {
            return true;
        }
        if a.is_nan() || b.is_nan() {
            return a.is_nan() && b.is_nan();
        }
        let scale = a.abs().max(b.abs()).max(1e-3);
        (a - b).abs() <= 2e-4 * scale
    }
    for (i, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
        let ok = match kind {
            OutputKind::ExactBits => g.bits() == e.bits(),
            OutputKind::F32Approx => f32_close(g.as_f32(), e.as_f32()),
            OutputKind::PackedF32Approx => {
                let (g0, g1) = unpack2f32(*g);
                let (e0, e1) = unpack2f32(*e);
                f32_close(g0, e0) && f32_close(g1, e1)
            }
        };
        if !ok {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_fourteen_kernels() {
        let s = suite();
        assert_eq!(s.len(), 14);
        // 13 participate in performance experiments; anisotropic does not.
        assert_eq!(s.iter().filter(|k| k.in_perf_suite()).count(), 13);
    }

    #[test]
    fn suite_names_are_unique_and_match_paper() {
        let s = suite();
        let names: Vec<&str> = s.iter().map(|k| k.name()).collect();
        for expect in [
            "convert",
            "dct",
            "highpassfilter",
            "fft",
            "lu",
            "md5",
            "blowfish",
            "rijndael",
            "vertex-simple",
            "fragment-simple",
            "vertex-reflection",
            "fragment-reflection",
            "vertex-skinning",
            "anisotropic-filter",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
    }

    #[test]
    fn every_ir_validates_and_every_workload_is_consistent() {
        for k in suite() {
            let ir = k.ir();
            ir.validate().unwrap_or_else(|e| panic!("{}: {e}", k.name()));
            let w = k.workload(8, 42);
            assert_eq!(
                w.input_words.len(),
                8 * ir.record_in_words() as usize,
                "{} input stream size",
                k.name()
            );
            assert_eq!(
                w.expected.len(),
                8 * ir.record_out_words() as usize,
                "{} expected stream size",
                k.name()
            );
        }
    }

    #[test]
    fn ir_evaluator_matches_reference_on_every_kernel() {
        for k in suite() {
            let ir = k.ir();
            let w = k.workload(6, 7);
            let in_w = ir.record_in_words() as usize;
            let out_w = ir.record_out_words() as usize;
            let tex = w.tex_words.clone();
            let lookup = move |addr: u64| -> Value {
                let off = addr.wrapping_sub(memmap::TEX_BASE) as usize;
                tex.get(off).copied().unwrap_or(Value::ZERO)
            };
            for r in 0..w.records {
                let rec = &w.input_words[r * in_w..(r + 1) * in_w];
                let got = ir.eval_record(rec, &lookup);
                let exp = &w.expected[r * out_w..(r + 1) * out_w];
                assert_eq!(
                    first_mismatch(k.output_kind(), &got, exp),
                    None,
                    "{} record {r}: IR evaluation diverges from reference",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn mimd_table_images_cover_ir_tables() {
        // The rolled form may *add* indexed state (dct's coefficients,
        // md5's K/S/g) but must never drop the IR's tables: the IR image is
        // always a prefix of the MIMD image, so a table offset valid for
        // the dataflow form stays valid for the rolled one.
        for k in suite() {
            let ir_image: Vec<Value> =
                k.ir().tables().iter().flat_map(|t| t.entries.iter().copied()).collect();
            let mimd_image = k.mimd_table_image();
            assert!(
                mimd_image.len() >= ir_image.len(),
                "{}: MIMD image smaller than the IR's tables",
                k.name()
            );
            for (i, (a, b)) in ir_image.iter().zip(mimd_image.iter()).enumerate() {
                assert_eq!(a.bits(), b.bits(), "{} entry {i}", k.name());
            }
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        for k in suite() {
            let a = k.workload(4, 99);
            let b = k.workload(4, 99);
            assert_eq!(a.input_words, b.input_words, "{}", k.name());
            assert_eq!(a.expected, b.expected, "{}", k.name());
        }
    }
}
