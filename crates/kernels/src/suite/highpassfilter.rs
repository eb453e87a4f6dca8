//! `highpassfilter` — 2-D 3×3 high-pass filter (Table 1, multimedia).
//!
//! Record: the 3×3 neighborhood (9 words in), one filtered value out.
//! 17 instructions (9 multiplies + 8 adds) and 9 coefficients — matching
//! Table 2's `highpassfilter` row.

use dlp_common::{DlpError, SplitMix64, Value};
use dlp_kernel_ir::{ControlClass, Domain, IrBuilder, KernelIr};
use trips_isa::{MemSpace, MimdProgram, Opcode};

use crate::refimpl::transform::{highpass, HIGHPASS};
use crate::util::{MimdStream, MimdTarget, R_IN_ADDR, R_OUT_ADDR};
use crate::{DlpKernel, OutputKind, Workload};

/// The 3×3 high-pass filter kernel.
pub struct HighPassFilter;

impl DlpKernel for HighPassFilter {
    fn name(&self) -> &'static str {
        "highpassfilter"
    }

    fn description(&self) -> &'static str {
        "a 2D high pass filter"
    }

    fn ir(&self) -> KernelIr {
        let mut b = IrBuilder::new("highpassfilter", Domain::Multimedia, 9, 1);
        let cref: Vec<_> = HIGHPASS
            .iter()
            .enumerate()
            .map(|(i, &v)| b.constant(format!("h{i}"), Value::from_f32(v)))
            .collect();
        // Tree reduction (matches the reference and yields the paper's
        // ILP of 3.4 = 17 insts / height 5).
        let terms: Vec<_> = (0..9)
            .map(|i| {
                let xi = b.input(i as u16);
                b.bin(Opcode::FMul, xi, cref[i as usize])
            })
            .collect();
        let s01 = b.bin(Opcode::FAdd, terms[0], terms[1]);
        let s23 = b.bin(Opcode::FAdd, terms[2], terms[3]);
        let s45 = b.bin(Opcode::FAdd, terms[4], terms[5]);
        let s67 = b.bin(Opcode::FAdd, terms[6], terms[7]);
        let a = b.bin(Opcode::FAdd, s01, s23);
        let bb = b.bin(Opcode::FAdd, s45, s67);
        let ab = b.bin(Opcode::FAdd, a, bb);
        let acc = b.bin(Opcode::FAdd, ab, terms[8]);
        b.output(0, acc);
        b.finish(ControlClass::Straight).expect("highpass IR is well-formed")
    }

    fn mimd_program(&self, _target: MimdTarget) -> Result<MimdProgram, DlpError> {
        MimdStream::build(
            9,
            1,
            |asm| {
                for (i, &v) in HIGHPASS.iter().enumerate() {
                    asm.lif((17 + i) as u8, v);
                }
            },
            |asm| {
                // t0..t8 into r2..r10, then the reference's tree order:
                // the coefficients sum to 1, so a serial accumulation
                // cancels differently and drifts past f32 tolerance.
                for i in 0..9u8 {
                    asm.ld(MemSpace::Smc, 1, R_IN_ADDR, i64::from(i));
                    asm.alu(Opcode::FMul, 2 + i, 1, 17 + i);
                }
                // s01 s23 s45 s67, a = s01+s23, b = s45+s67, a+b, +t8.
                for (a, b) in [(2, 3), (4, 5), (6, 7), (8, 9), (2, 4), (6, 8), (2, 6), (2, 10)] {
                    asm.alu(Opcode::FAdd, a, a, b);
                }
                asm.st(MemSpace::Smc, R_OUT_ADDR, 0, 2);
            },
        )
    }

    fn workload(&self, records: usize, seed: u64) -> Workload {
        let mut rng = SplitMix64::new(seed ^ 0x49F);
        let mut input_words = Vec::with_capacity(records * 9);
        let mut expected = Vec::with_capacity(records);
        for _ in 0..records {
            let mut nbhd = [0.0f32; 9];
            for v in &mut nbhd {
                *v = rng.f32_in(0.0, 255.0);
            }
            input_words.extend(nbhd.iter().map(|&v| Value::from_f32(v)));
            expected.push(Value::from_f32(highpass(&nbhd)));
        }
        Workload { records, input_words, tex_words: Vec::new(), expected }
    }

    fn output_kind(&self) -> OutputKind {
        OutputKind::F32Approx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributes_match_paper_row() {
        let a = HighPassFilter.ir().attributes();
        assert_eq!(a.insts, 17);
        assert_eq!(a.record_read, 9);
        assert_eq!(a.record_write, 1);
        assert_eq!(a.constants, 9);
        assert!(a.ilp > 2.0, "paper reports ILP 3.4, got {}", a.ilp);
    }

    #[test]
    fn ir_is_bit_exact_against_reference() {
        let k = HighPassFilter;
        let ir = k.ir();
        let w = k.workload(16, 3);
        for r in 0..16 {
            let rec = &w.input_words[r * 9..r * 9 + 9];
            let got = ir.eval_record(rec, &|_| Value::ZERO);
            assert_eq!(got[0].bits(), w.expected[r].bits(), "record {r}");
        }
    }
}
