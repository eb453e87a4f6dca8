//! The MIMD sub-ISA used by the local-program-counter mechanism (§4.3).
//!
//! When the array is configured as a fine-grain MIMD machine, each node
//! fetches sequentially from its L0 instruction store under a local PC and
//! executes against a private register file (the operand-storage buffers
//! repurposed as read/write registers). Real branches replace predication,
//! and explicit `Send`/`Recv` instructions use the inter-ALU network for
//! fine-grain synchronization.
//!
//! ## Register conventions
//!
//! The setup block preloads three registers before releasing the local PCs
//! (mirroring the paper's setup-block protocol):
//!
//! * `r30` — this node's linear index within the partition,
//! * `r31` — number of nodes in the partition,
//! * `r29` — total number of records (kernel instances) to process.
//!
//! Kernels typically stride records by `r31` starting at `r30`.

use std::collections::HashMap;
use std::fmt;

use dlp_common::json::ToJson;
use dlp_common::{vcode, Coord, DlpError, Value};

use crate::{MemSpace, OpRole, Opcode};

/// Register holding the node's linear index at program start.
pub const REG_NODE_ID: u8 = 30;
/// Register holding the partition's node count at program start.
pub const REG_NODE_COUNT: u8 = 31;
/// Register holding the total record count at program start.
pub const REG_RECORDS: u8 = 29;

/// MIMD operation kinds.
#[derive(Clone, Copy, Debug, PartialEq, ToJson)]
pub enum MimdOp {
    /// ALU operation `rd = op(ra, rb)`; unary ops ignore `rb`.
    Alu(Opcode),
    /// ALU operation with immediate right operand: `rd = op(ra, imm)`.
    AluI(Opcode),
    /// Load immediate: `rd = imm`.
    Li,
    /// Load word: `rd = mem[ra + imm]` (word address) from the given space.
    Ld(MemSpace),
    /// Store word: `mem[ra + imm] = rb` in the given space.
    St(MemSpace),
    /// L0 data-store read: `rd = l0[ra + imm]`.
    Lut,
    /// Unconditional jump to instruction index `imm`.
    Jmp,
    /// Branch to `imm` when `ra == 0`.
    Bez,
    /// Branch to `imm` when `ra != 0`.
    Bnz,
    /// Send `ra` to node `imm` (linear index within the partition).
    Send,
    /// Receive into `rd` the oldest message sent by node `imm`.
    Recv,
    /// Stop this node.
    Halt,
}

/// One MIMD instruction (register encoding).
#[derive(Clone, Copy, Debug, PartialEq, ToJson)]
pub struct MimdInst {
    /// Operation.
    pub op: MimdOp,
    /// Destination register.
    pub rd: u8,
    /// First source register.
    pub ra: u8,
    /// Second source register.
    pub rb: u8,
    /// Immediate / branch target / node index.
    pub imm: i64,
    /// Useful vs overhead classification.
    pub role: OpRole,
}

impl fmt::Display for MimdInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            MimdOp::Alu(op) => write!(f, "{op} r{}, r{}, r{}", self.rd, self.ra, self.rb),
            MimdOp::AluI(op) => write!(f, "{op}i r{}, r{}, #{}", self.rd, self.ra, self.imm),
            MimdOp::Li => write!(f, "li r{}, #{:#x}", self.rd, self.imm),
            MimdOp::Ld(s) => write!(f, "ld.{s} r{}, [r{} + {}]", self.rd, self.ra, self.imm),
            MimdOp::St(s) => write!(f, "st.{s} [r{} + {}], r{}", self.ra, self.imm, self.rb),
            MimdOp::Lut => write!(f, "lut r{}, [r{} + {}]", self.rd, self.ra, self.imm),
            MimdOp::Jmp => write!(f, "jmp {}", self.imm),
            MimdOp::Bez => write!(f, "bez r{}, {}", self.ra, self.imm),
            MimdOp::Bnz => write!(f, "bnz r{}, {}", self.ra, self.imm),
            MimdOp::Send => write!(f, "send r{} -> node {}", self.ra, self.imm),
            MimdOp::Recv => write!(f, "recv r{} <- node {}", self.rd, self.imm),
            MimdOp::Halt => write!(f, "halt"),
        }
    }
}

/// A validated MIMD program for one node (or one replicated node role).
#[derive(Clone, Debug, PartialEq, Default, ToJson)]
pub struct MimdProgram {
    insts: Vec<MimdInst>,
}

impl MimdProgram {
    /// Build a program directly from resolved instructions (used by the
    /// text parser; prefer [`MimdAsm`] when writing programs in code —
    /// it resolves labels and validates registers).
    #[must_use]
    pub fn from_insts(insts: Vec<MimdInst>) -> Self {
        MimdProgram { insts }
    }

    /// The instructions.
    #[must_use]
    pub fn insts(&self) -> &[MimdInst] {
        &self.insts
    }

    /// Program length in instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Render a disassembly listing.
    #[must_use]
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, inst) in self.insts.iter().enumerate() {
            let _ = writeln!(out, "{i:4}: {inst}");
        }
        out
    }
}

/// A tiny assembler for [`MimdProgram`]s with label fix-ups.
///
/// See the crate-level example. Registers are physical (`0..=31`); the
/// conventions in the module docs reserve `r29`–`r31`.
#[derive(Debug, Default)]
pub struct MimdAsm {
    insts: Vec<MimdInst>,
    labels: HashMap<String, usize>,
    fixups: Vec<(usize, String)>,
    default_role: OpRole,
}

impl MimdAsm {
    /// Create an empty assembler.
    #[must_use]
    pub fn new() -> Self {
        MimdAsm::default()
    }

    /// Set the role recorded on subsequently emitted instructions.
    pub fn set_role(&mut self, role: OpRole) -> &mut Self {
        self.default_role = role;
        self
    }

    fn push(&mut self, op: MimdOp, rd: u8, ra: u8, rb: u8, imm: i64) -> &mut Self {
        self.insts.push(MimdInst { op, rd, ra, rb, imm, role: self.default_role });
        self
    }

    /// Define a label at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already defined (an assembler-usage bug).
    pub fn label(&mut self, name: impl Into<String>) -> &mut Self {
        let name = name.into();
        let prev = self.labels.insert(name.clone(), self.insts.len());
        assert!(prev.is_none(), "label {name} defined twice");
        self
    }

    /// `rd = op(ra, rb)`.
    pub fn alu(&mut self, op: Opcode, rd: u8, ra: u8, rb: u8) -> &mut Self {
        self.push(MimdOp::Alu(op), rd, ra, rb, 0)
    }

    /// `rd = op(ra, imm)`.
    pub fn alui(&mut self, op: Opcode, rd: u8, ra: u8, imm: i64) -> &mut Self {
        self.push(MimdOp::AluI(op), rd, ra, 0, imm)
    }

    /// `rd = imm` (bits; use [`MimdAsm::lif`] for f32 immediates).
    pub fn li(&mut self, rd: u8, imm: i64) -> &mut Self {
        self.push(MimdOp::Li, rd, 0, 0, imm)
    }

    /// `rd = bits(imm as f32)`.
    pub fn lif(&mut self, rd: u8, imm: f32) -> &mut Self {
        self.push(MimdOp::Li, rd, 0, 0, i64::from(Value::from_f32(imm).bits() as u32))
    }

    /// `rd = mem[ra + off]` from `space`.
    pub fn ld(&mut self, space: MemSpace, rd: u8, ra: u8, off: i64) -> &mut Self {
        self.push(MimdOp::Ld(space), rd, ra, 0, off)
    }

    /// `mem[ra + off] = rb` in `space`.
    pub fn st(&mut self, space: MemSpace, ra: u8, off: i64, rb: u8) -> &mut Self {
        self.push(MimdOp::St(space), 0, ra, rb, off)
    }

    /// `rd = l0[ra + off]`.
    pub fn lut(&mut self, rd: u8, ra: u8, off: i64) -> &mut Self {
        self.push(MimdOp::Lut, rd, ra, 0, off)
    }

    /// Unconditional jump to `label`.
    pub fn jmp(&mut self, label: impl Into<String>) -> &mut Self {
        self.fixups.push((self.insts.len(), label.into()));
        self.push(MimdOp::Jmp, 0, 0, 0, 0)
    }

    /// Branch to `label` when `ra == 0`.
    pub fn bez(&mut self, ra: u8, label: impl Into<String>) -> &mut Self {
        self.fixups.push((self.insts.len(), label.into()));
        self.push(MimdOp::Bez, 0, ra, 0, 0)
    }

    /// Branch to `label` when `ra != 0`.
    pub fn bnz(&mut self, ra: u8, label: impl Into<String>) -> &mut Self {
        self.fixups.push((self.insts.len(), label.into()));
        self.push(MimdOp::Bnz, 0, ra, 0, 0)
    }

    /// Send `ra` to partition node `node`.
    pub fn send(&mut self, ra: u8, node: usize) -> &mut Self {
        self.push(MimdOp::Send, 0, ra, 0, node as i64)
    }

    /// Receive into `rd` from partition node `node`.
    pub fn recv(&mut self, rd: u8, node: usize) -> &mut Self {
        self.push(MimdOp::Recv, rd, 0, 0, node as i64)
    }

    /// Stop this node.
    pub fn halt(&mut self) -> &mut Self {
        self.push(MimdOp::Halt, 0, 0, 0, 0)
    }

    /// Current instruction count (useful for capacity checks while building).
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether nothing has been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Resolve labels and produce the program.
    ///
    /// # Errors
    ///
    /// Returns [`DlpError::Verify`] (with the matching
    /// [`dlp_common::vcode`] diagnostic) for undefined labels, ALU opcodes
    /// that are not register-to-register computations (memory or engine
    /// ops inside [`MimdOp::Alu`]), or out-of-range registers.
    pub fn assemble(mut self) -> Result<MimdProgram, DlpError> {
        for (at, label) in &self.fixups {
            let tgt = self.labels.get(label).ok_or_else(|| {
                DlpError::verify(
                    vcode::UNDEFINED_LABEL,
                    format!("inst {at}"),
                    format!("undefined label {label}"),
                )
            })?;
            self.insts[*at].imm = *tgt as i64;
        }
        for (i, inst) in self.insts.iter().enumerate() {
            if let MimdOp::Alu(op) | MimdOp::AluI(op) = inst.op {
                if op.is_mem() || matches!(op, Opcode::MovI | Opcode::Iter | Opcode::Nop) {
                    return Err(DlpError::verify(
                        vcode::NON_ALU_OPCODE,
                        format!("inst {i}"),
                        format!("instruction {i}: {op} is not a register ALU op"),
                    ));
                }
            }
            for r in [inst.rd, inst.ra, inst.rb] {
                if r >= 32 {
                    return Err(DlpError::verify(
                        vcode::MIMD_REGISTER_RANGE,
                        format!("inst {i}"),
                        format!("instruction {i}: register r{r} out of range"),
                    ));
                }
            }
            if let MimdOp::Jmp | MimdOp::Bez | MimdOp::Bnz = inst.op {
                if inst.imm < 0 || inst.imm as usize > self.insts.len() {
                    return Err(DlpError::verify(
                        vcode::BRANCH_RANGE,
                        format!("inst {i}"),
                        format!("instruction {i}: branch target {} out of range", inst.imm),
                    ));
                }
            }
        }
        let _ = Coord::new(0, 0); // keep Coord import alive for doc links
        Ok(MimdProgram { insts: self.insts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_loop_with_backward_label() {
        let mut asm = MimdAsm::new();
        asm.li(1, 0);
        asm.li(2, 10);
        asm.label("top");
        asm.alui(Opcode::Add, 1, 1, 1);
        asm.alui(Opcode::Sub, 2, 2, 1);
        asm.bnz(2, "top");
        asm.halt();
        let p = asm.assemble().unwrap();
        assert_eq!(p.len(), 6);
        // bnz target resolved to index 2 (after the two li's).
        assert_eq!(p.insts()[4].imm, 2);
    }

    #[test]
    fn forward_labels_resolve() {
        let mut asm = MimdAsm::new();
        asm.bez(1, "done");
        asm.li(2, 1);
        asm.label("done");
        asm.halt();
        let p = asm.assemble().unwrap();
        assert_eq!(p.insts()[0].imm, 2);
    }

    #[test]
    fn undefined_label_rejected() {
        let mut asm = MimdAsm::new();
        asm.jmp("nowhere");
        assert!(matches!(
            asm.assemble(),
            Err(DlpError::Verify { code: vcode::UNDEFINED_LABEL, .. })
        ));
    }

    #[test]
    fn memory_opcode_in_alu_rejected() {
        let mut asm = MimdAsm::new();
        asm.alu(Opcode::Lmw, 1, 2, 3);
        asm.halt();
        assert!(asm.assemble().is_err());
    }

    #[test]
    fn out_of_range_register_rejected() {
        let mut asm = MimdAsm::new();
        asm.li(32, 0);
        assert!(asm.assemble().is_err());
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_label_panics() {
        let mut asm = MimdAsm::new();
        asm.label("x");
        asm.label("x");
    }

    #[test]
    fn float_immediate_roundtrips() {
        let mut asm = MimdAsm::new();
        asm.lif(3, 1.25);
        asm.halt();
        let p = asm.assemble().unwrap();
        let bits = p.insts()[0].imm as u32;
        assert_eq!(f32::from_bits(bits), 1.25);
    }

    #[test]
    fn disassembly_lists_every_instruction() {
        let mut asm = MimdAsm::new();
        asm.li(1, 5);
        asm.ld(MemSpace::Smc, 2, 1, 0);
        asm.st(MemSpace::L1, 1, 4, 2);
        asm.lut(3, 2, 0);
        asm.send(3, 1);
        asm.recv(4, 0);
        asm.halt();
        let p = asm.assemble().unwrap();
        let d = p.disassemble();
        for needle in ["li", "ld.smc", "st.l1", "lut", "send", "recv", "halt"] {
            assert!(d.contains(needle), "missing {needle} in:\n{d}");
        }
    }
}
