//! Program-attribute analysis: regenerates a paper Table 2 row per kernel.

use std::fmt;

use crate::{ControlClass, IrFacts, IrOp, KernelIr};

/// The attributes the paper characterizes kernels by (Table 2).
///
/// * `insts` — instructions in one kernel instance (internal loops
///   unrolled, as the paper does). Inputs, constants and immediates are
///   operand injections, not instructions; ALU ops, selects, table reads
///   and irregular loads count.
/// * `ilp` — inherent ILP: `insts ÷ dataflow-graph height` (paper §2.2).
/// * `record_read`/`record_write` — record sizes in 64-bit words.
/// * `irregular` — irregular memory accesses per kernel instance.
/// * `constants` — named scalar constants.
/// * `indexed_constants` — total lookup-table entries (0 when no table).
/// * `control` — the Figure 1 control class (Table 2's "Loop bounds").
#[derive(Clone, Debug, PartialEq)]
pub struct KernelAttributes {
    /// Kernel name.
    pub name: String,
    /// Instruction count (unrolled).
    pub insts: usize,
    /// Inherent ILP.
    pub ilp: f64,
    /// Input record words.
    pub record_read: u16,
    /// Output record words.
    pub record_write: u16,
    /// Irregular accesses per instance.
    pub irregular: usize,
    /// Named scalar constants.
    pub constants: usize,
    /// Lookup-table entries.
    pub indexed_constants: usize,
    /// Control class.
    pub control: ControlClass,
}

impl KernelIr {
    /// Compute this kernel's Table 2 attributes.
    #[must_use]
    pub fn attributes(&self) -> KernelAttributes {
        let facts = IrFacts::compute(self);
        let ilp =
            if facts.height == 0 { 0.0 } else { facts.insts as f64 / f64::from(facts.height) };
        let irregular =
            self.nodes.iter().filter(|n| matches!(n.op, IrOp::IrregularLoad { .. })).count();
        KernelAttributes {
            name: self.name.clone(),
            insts: facts.insts,
            ilp,
            record_read: self.record_in_words,
            record_write: self.record_out_words,
            irregular,
            constants: self.constants.len(),
            indexed_constants: self.table_entries(),
            control: self.control,
        }
    }
}

impl fmt::Display for KernelAttributes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dash = |n: usize| if n == 0 { "-".to_string() } else { n.to_string() };
        write!(
            f,
            "{:<22} {:>6} {:>6.1} {:>5}/{:<5} {:>9} {:>9} {:>9} {:>9}",
            self.name,
            self.insts,
            self.ilp,
            self.record_read,
            self.record_write,
            dash(self.irregular),
            dash(self.constants),
            dash(self.indexed_constants),
            self.control.loop_bounds_label(),
        )
    }
}

impl KernelAttributes {
    /// The header row matching [`KernelAttributes`]'s `Display` columns.
    #[must_use]
    pub fn header() -> String {
        format!(
            "{:<22} {:>6} {:>6} {:>11} {:>9} {:>9} {:>9} {:>9}",
            "Benchmark", "#Inst", "ILP", "Rec(r/w)", "#Irreg", "#Const", "#Indexed", "Loop"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, IrBuilder};
    use dlp_common::Value;
    use trips_isa::Opcode;

    #[test]
    fn chain_has_ilp_one() {
        // x -> +1 -> +1 -> +1: 3 insts, height 3, ILP 1.
        let mut b = IrBuilder::new("chain", Domain::Scientific, 1, 1);
        let one = b.imm(Value::from_u64(1));
        let mut x = b.input(0);
        for _ in 0..3 {
            x = b.bin(Opcode::Add, x, one);
        }
        b.output(0, x);
        let a = b.finish(ControlClass::Straight).unwrap().attributes();
        assert_eq!(a.insts, 3);
        assert!((a.ilp - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_ops_raise_ilp() {
        // Four independent adds merged by a tree: 4 + 3 = 7 insts, height 3.
        let mut b = IrBuilder::new("wide", Domain::Scientific, 8, 1);
        let mut sums = Vec::new();
        for i in 0..4 {
            let x = b.input(2 * i);
            let y = b.input(2 * i + 1);
            sums.push(b.bin(Opcode::Add, x, y));
        }
        let s01 = b.bin(Opcode::Add, sums[0], sums[1]);
        let s23 = b.bin(Opcode::Add, sums[2], sums[3]);
        let total = b.bin(Opcode::Add, s01, s23);
        b.output(0, total);
        let a = b.finish(ControlClass::Straight).unwrap().attributes();
        assert_eq!(a.insts, 7);
        assert!((a.ilp - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn memory_and_table_attributes_counted() {
        let mut b = IrBuilder::new("mix", Domain::Graphics, 2, 1);
        let t = b.table("lut", vec![Value::ZERO; 128]);
        let c = b.constant("k", Value::from_u64(3));
        let x = b.input(0);
        let a = b.input(1);
        let tv = b.table_read(t, x);
        let ir = b.irregular_load(a);
        let s = b.bin(Opcode::Add, tv, ir);
        let s2 = b.bin(Opcode::Add, s, c);
        b.output(0, s2);
        let at = b.finish(ControlClass::VariableLoop { max_iters: 4 }).unwrap().attributes();
        assert_eq!(at.irregular, 1);
        assert_eq!(at.constants, 1);
        assert_eq!(at.indexed_constants, 128);
        assert_eq!(at.insts, 4); // table read + irregular load + 2 adds
        assert!(at.control.is_data_dependent());
        assert_eq!(at.control.loop_bounds_label(), "Variable");
    }

    #[test]
    fn display_produces_aligned_row() {
        let mut b = IrBuilder::new("disp", Domain::Multimedia, 3, 3);
        let x = b.input(0);
        let y = b.bin(Opcode::Add, x, x);
        b.output(0, y);
        b.output(1, x);
        b.output(2, x);
        let at = b.finish(ControlClass::FixedLoop { iters: 16 }).unwrap().attributes();
        let row = at.to_string();
        assert!(row.contains("disp"));
        assert!(row.contains("16"));
        assert!(!KernelAttributes::header().is_empty());
    }
}
