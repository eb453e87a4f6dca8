//! The dataflow (block-atomic) program representation.
//!
//! A [`DataflowBlock`] is the unit the TRIPS-style processor fetches and maps
//! onto its ALU array. Instructions are *statically placed* into
//! reservation-station slots and *dynamically issued* when their operand
//! ports fill (SPDI). Instead of naming source registers, each instruction
//! names the consumers of its result — the [`Target`] list — which is what
//! lets the microarchitecture route operands point-to-point over the mesh.

use std::collections::HashMap;
use std::fmt;

use dlp_common::{vcode, Coord, DlpError, GridShape, Value};

use crate::{OpRole, Opcode};

/// An operand port on a reservation station.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Port {
    /// Left operand.
    Left,
    /// Right operand.
    Right,
    /// Predicate operand (used by [`Opcode::Sel`]).
    Pred,
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Port::Left => write!(f, "L"),
            Port::Right => write!(f, "R"),
            Port::Pred => write!(f, "P"),
        }
    }
}

/// A small set of operand ports, used to mark which operands are
/// *persistent* under operand revitalization (§4.4): persistent operands
/// survive a revitalize and need not be re-delivered each iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct PortSet(u8);

impl PortSet {
    /// The empty set.
    pub const EMPTY: PortSet = PortSet(0);
    /// All three ports.
    pub const ALL: PortSet = PortSet(0b111);

    fn bit(port: Port) -> u8 {
        match port {
            Port::Left => 0b001,
            Port::Right => 0b010,
            Port::Pred => 0b100,
        }
    }

    /// Insert a port into the set.
    #[must_use]
    pub fn with(self, port: Port) -> PortSet {
        PortSet(self.0 | Self::bit(port))
    }

    /// Whether the set contains `port`.
    #[must_use]
    pub fn contains(self, port: Port) -> bool {
        self.0 & Self::bit(port) != 0
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// A reservation-station slot: a node coordinate plus a slot index within
/// that node's local instruction storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot {
    /// The ALU node.
    pub node: Coord,
    /// Index within the node's reservation stations.
    pub index: u16,
}

impl Slot {
    /// Create a slot.
    #[must_use]
    pub const fn new(node: Coord, index: u16) -> Self {
        Slot { node, index }
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.node, self.index)
    }
}

/// Where an instruction's result is delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Target {
    /// An operand port of another instruction in the same block.
    Port {
        /// Destination slot.
        slot: Slot,
        /// Destination port.
        port: Port,
    },
    /// An architectural register (routed to the register-file banks on the
    /// top edge; forms a block output).
    Reg(u16),
}

impl Target {
    /// Convenience constructor for a port target.
    #[must_use]
    pub const fn port(slot: Slot, port: Port) -> Target {
        Target::Port { slot, port }
    }
}

/// One statically placed instruction.
#[derive(Clone, Debug, PartialEq)]
pub struct PlacedInst {
    /// Where the instruction lives on the array.
    pub slot: Slot,
    /// Operation.
    pub op: Opcode,
    /// Optional immediate. When present it feeds the **right** port (or, for
    /// [`Opcode::MovI`], is the produced value; for [`Opcode::Lmw`], the word
    /// count).
    pub imm: Option<Value>,
    /// Consumers of the result, in fan-out order. For [`Opcode::Lmw`],
    /// target *i* receives word *i*.
    pub targets: Vec<Target>,
    /// Useful vs overhead classification for the ops/cycle metric.
    pub role: OpRole,
    /// Operand ports that persist across revitalization (operand
    /// revitalization, §4.4). Ignored when the mechanism is disabled.
    pub persistent: PortSet,
}

impl PlacedInst {
    /// Create an instruction with no targets (builder style).
    #[must_use]
    pub fn new(slot: Slot, op: Opcode) -> Self {
        PlacedInst {
            slot,
            op,
            imm: None,
            targets: Vec::new(),
            role: OpRole::Useful,
            persistent: PortSet::EMPTY,
        }
    }
}

/// A register-file read injected into the block when it is mapped (or on
/// each revitalization, unless marked persistent).
#[derive(Clone, Debug, PartialEq)]
pub struct RegRead {
    /// Architectural register number; its bank is `reg % reg_banks`.
    pub reg: u16,
    /// Consumers of the value.
    pub targets: Vec<Target>,
    /// Whether operand revitalization keeps this value alive across
    /// iterations (true for kernel constants on S-O/S-O-D machines).
    pub persistent: bool,
}

/// A complete block-atomic dataflow program for one kernel.
///
/// # Example
///
/// ```
/// use trips_isa::{DataflowBlock, PlacedInst, Slot, Target, Port, Opcode};
/// use dlp_common::{Coord, GridShape, Value};
///
/// let s0 = Slot::new(Coord::new(0, 0), 0);
/// let s1 = Slot::new(Coord::new(0, 1), 0);
/// let mut a = PlacedInst::new(s0, Opcode::MovI);
/// a.imm = Some(Value::from_u64(21));
/// a.targets = vec![Target::port(s1, Port::Left)];
/// let mut b = PlacedInst::new(s1, Opcode::Add);
/// b.imm = Some(Value::from_u64(21));
/// b.targets = vec![Target::Reg(3)];
///
/// let block = DataflowBlock::new("answer", vec![a, b], vec![]);
/// block.validate(GridShape::new(8, 8), 64)?;
/// # Ok::<(), dlp_common::DlpError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DataflowBlock {
    name: String,
    insts: Vec<PlacedInst>,
    reg_reads: Vec<RegRead>,
}

impl DataflowBlock {
    /// Assemble a block from placed instructions and register reads.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        insts: Vec<PlacedInst>,
        reg_reads: Vec<RegRead>,
    ) -> Self {
        DataflowBlock { name: name.into(), insts, reg_reads }
    }

    /// Block name (for diagnostics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The placed instructions.
    #[must_use]
    pub fn insts(&self) -> &[PlacedInst] {
        &self.insts
    }

    /// The register reads injected at map time.
    #[must_use]
    pub fn reg_reads(&self) -> &[RegRead] {
        &self.reg_reads
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the block is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Check structural well-formedness against a machine shape.
    ///
    /// Verifies that every slot is on the grid and within the slot budget,
    /// that no two instructions share a slot, that every port target refers
    /// to an existing instruction's *required* port, that no port has two
    /// producers, and that every required port of every instruction has
    /// exactly one producer (a target, a register read, or — for the right
    /// port — an immediate). Runs in O(instructions + targets). An
    /// instruction's left, right and predicate ports are checked in that
    /// order, so the defect reported does not depend on wiring order.
    ///
    /// # Errors
    ///
    /// Returns [`DlpError::Verify`] (with the matching
    /// [`dlp_common::vcode`] diagnostic) or [`DlpError::CapacityExceeded`]
    /// describing the first defect found.
    pub fn validate(&self, grid: GridShape, slots_per_node: usize) -> Result<(), DlpError> {
        let mut by_slot: HashMap<Slot, usize> = HashMap::new();
        for (i, inst) in self.insts.iter().enumerate() {
            if !grid.contains(inst.slot.node) {
                return Err(DlpError::verify(
                    vcode::OFF_GRID,
                    format!("inst {i}"),
                    format!("instruction {i} placed off-grid at {}", inst.slot),
                ));
            }
            if inst.slot.index as usize >= slots_per_node {
                return Err(DlpError::CapacityExceeded {
                    resource: "reservation-station slots per node",
                    needed: inst.slot.index as usize + 1,
                    available: slots_per_node,
                });
            }
            if by_slot.insert(inst.slot, i).is_some() {
                return Err(DlpError::verify(
                    vcode::DUPLICATE_SLOT,
                    inst.slot.to_string(),
                    format!("two instructions share slot {}", inst.slot),
                ));
            }
            if !inst.op.produces_result() && !inst.targets.is_empty() {
                return Err(DlpError::verify(
                    vcode::TARGETS_ON_RESULTLESS,
                    inst.slot.to_string(),
                    format!("{} at {} produces no result but has targets", inst.op, inst.slot),
                ));
            }
            if inst.op.produces_result()
                && inst.targets.is_empty()
                && !matches!(inst.op, Opcode::Nop)
            {
                return Err(DlpError::verify(
                    vcode::DROPPED_RESULT,
                    inst.slot.to_string(),
                    format!("{} at {} result is dropped (no targets)", inst.op, inst.slot),
                ));
            }
            if matches!(inst.op, Opcode::Lmw) {
                let n = inst.imm.map_or(0, |v| v.as_u64());
                if n == 0 || n as usize != inst.targets.len() {
                    return Err(DlpError::verify(
                        vcode::LMW_ARITY,
                        inst.slot.to_string(),
                        format!(
                            "lmw at {} has word count {n} but {} targets",
                            inst.slot,
                            inst.targets.len()
                        ),
                    ));
                }
            }
        }

        // Count producers per operand port, indexed by instruction index:
        // `fed[i][port as usize]` is how many wires feed that port of
        // instruction `i`.
        let mut fed: Vec<[u32; 3]> = vec![[0; 3]; self.insts.len()];
        let mut feed = |slot: Slot, port: Port| -> Result<(), DlpError> {
            let idx = by_slot.get(&slot).copied().ok_or_else(|| {
                DlpError::verify(
                    vcode::DANGLING_OPERAND,
                    slot.to_string(),
                    format!("target {slot} does not name an instruction"),
                )
            })?;
            let (l, r, p) = self.insts[idx].op.ports();
            let required = match port {
                Port::Left => l,
                Port::Right => r,
                Port::Pred => p,
            };
            if !required {
                return Err(DlpError::verify(
                    vcode::UNREAD_PORT,
                    slot.to_string(),
                    format!(
                        "port {port} of {} at {slot} is not read by that opcode",
                        self.insts[idx].op
                    ),
                ));
            }
            // For stores the immediate is an address offset, not a right-port
            // value, so a network-fed right port does not conflict with it.
            if port == Port::Right
                && self.insts[idx].imm.is_some()
                && !matches!(self.insts[idx].op, Opcode::Store(_))
            {
                return Err(DlpError::verify(
                    vcode::IMMEDIATE_CONFLICT,
                    slot.to_string(),
                    format!("right port of {slot} is fed by both immediate and network"),
                ));
            }
            fed[idx][port as usize] += 1;
            Ok(())
        };

        for inst in &self.insts {
            for t in &inst.targets {
                if let Target::Port { slot, port } = *t {
                    feed(slot, port)?;
                }
            }
        }
        for rr in &self.reg_reads {
            if rr.targets.is_empty() {
                return Err(DlpError::verify(
                    vcode::REGREAD_NO_TARGETS,
                    format!("r{}", rr.reg),
                    format!("register read r{} has no targets", rr.reg),
                ));
            }
            for t in &rr.targets {
                match *t {
                    Target::Port { slot, port } => feed(slot, port)?,
                    Target::Reg(r) => {
                        return Err(DlpError::verify(
                            vcode::REGREAD_TO_REGISTER,
                            format!("r{}", rr.reg),
                            format!("register read r{} targets register r{r}", rr.reg),
                        ))
                    }
                }
            }
        }

        for (inst, counts) in self.insts.iter().zip(&fed) {
            for port in [Port::Left, Port::Right, Port::Pred] {
                let n = counts[port as usize];
                if n > 1 {
                    return Err(DlpError::verify(
                        vcode::MULTIPLE_PRODUCERS,
                        inst.slot.to_string(),
                        format!("port {port} of {} has {n} producers", inst.slot),
                    ));
                }
            }
            let (l, r, p) = inst.op.ports();
            let has = |port: Port| counts[port as usize] > 0;
            if l && !has(Port::Left) && !matches!(inst.op, Opcode::Lut if inst.imm.is_some()) {
                return Err(DlpError::verify(
                    vcode::MISSING_PRODUCER,
                    inst.slot.to_string(),
                    format!("left port of {} ({}) has no producer", inst.slot, inst.op),
                ));
            }
            if r && !has(Port::Right) && inst.imm.is_none() {
                return Err(DlpError::verify(
                    vcode::MISSING_PRODUCER,
                    inst.slot.to_string(),
                    format!("right port of {} ({}) has no producer", inst.slot, inst.op),
                ));
            }
            if p && !has(Port::Pred) {
                return Err(DlpError::verify(
                    vcode::MISSING_PRODUCER,
                    inst.slot.to_string(),
                    format!("predicate port of {} ({}) has no producer", inst.slot, inst.op),
                ));
            }
        }
        Ok(())
    }

    /// Render a human-readable disassembly listing.
    #[must_use]
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "block {} ({} insts, {} reg reads):", self.name, self.insts.len(), self.reg_reads.len());
        for rr in &self.reg_reads {
            let tgts: Vec<String> = rr.targets.iter().map(target_str).collect();
            let p = if rr.persistent { " [persist]" } else { "" };
            let _ = writeln!(out, "  read r{} -> {}{}", rr.reg, tgts.join(", "), p);
        }
        let mut insts: Vec<&PlacedInst> = self.insts.iter().collect();
        insts.sort_by_key(|i| i.slot);
        for inst in insts {
            let imm = inst.imm.map_or(String::new(), |v| format!(" #{v}"));
            let tgts: Vec<String> = inst.targets.iter().map(target_str).collect();
            let arrow = if tgts.is_empty() { String::new() } else { format!(" -> {}", tgts.join(", ")) };
            let _ = writeln!(out, "  {}: {}{}{}", inst.slot, inst.op, imm, arrow);
        }
        out
    }
}

fn target_str(t: &Target) -> String {
    match t {
        Target::Port { slot, port } => format!("{slot}.{port}"),
        Target::Reg(r) => format!("r{r}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_common::Coord;

    fn slot(r: u8, c: u8, i: u16) -> Slot {
        Slot::new(Coord::new(r, c), i)
    }

    /// The V-code `validate` rejects `blk` with on an 8x8, 64-slot grid.
    fn code(blk: &DataflowBlock) -> &'static str {
        match blk.validate(GridShape::new(8, 8), 64) {
            Err(DlpError::Verify { code, .. }) => code,
            other => panic!("expected a verify error, got {other:?}"),
        }
    }

    fn movi(s: Slot, v: u64, targets: Vec<Target>) -> PlacedInst {
        PlacedInst {
            imm: Some(Value::from_u64(v)),
            targets,
            ..PlacedInst::new(s, Opcode::MovI)
        }
    }

    #[test]
    fn valid_two_inst_block() {
        let s0 = slot(0, 0, 0);
        let s1 = slot(0, 1, 0);
        let a = movi(s0, 1, vec![Target::port(s1, Port::Left)]);
        let mut b = PlacedInst::new(s1, Opcode::Add);
        b.imm = Some(Value::from_u64(2));
        b.targets = vec![Target::Reg(0)];
        let blk = DataflowBlock::new("t", vec![a, b], vec![]);
        assert!(blk.validate(GridShape::new(8, 8), 64).is_ok());
        assert_eq!(blk.len(), 2);
    }

    #[test]
    fn dangling_target_rejected() {
        let s0 = slot(0, 0, 0);
        let a = movi(s0, 1, vec![Target::port(slot(5, 5, 3), Port::Left)]);
        let blk = DataflowBlock::new("t", vec![a], vec![]);
        assert!(matches!(
            blk.validate(GridShape::new(8, 8), 64),
            Err(DlpError::Verify { code: vcode::DANGLING_OPERAND, .. })
        ));
    }

    #[test]
    fn duplicate_slot_rejected() {
        let s0 = slot(0, 0, 0);
        let a = movi(s0, 1, vec![Target::Reg(0)]);
        let b = movi(s0, 2, vec![Target::Reg(1)]);
        let blk = DataflowBlock::new("t", vec![a, b], vec![]);
        assert_eq!(code(&blk), vcode::DUPLICATE_SLOT);
    }

    /// A `sel` at `(0, 3, 0)` whose left, right and predicate ports are
    /// each fed once by a `movi`, plus one extra `movi` per port in
    /// `doubled` wired into that port a second time.
    fn sel_block(doubled: &[Port]) -> DataflowBlock {
        let sel = slot(0, 3, 0);
        let mut insts: Vec<PlacedInst> = [Port::Left, Port::Right, Port::Pred]
            .iter()
            .chain(doubled)
            .zip(0u8..)
            .map(|(&port, c)| movi(slot(1, c, 0), 1, vec![Target::port(sel, port)]))
            .collect();
        let mut s = PlacedInst::new(sel, Opcode::Sel);
        s.targets = vec![Target::Reg(0)];
        insts.push(s);
        DataflowBlock::new("t", insts, vec![])
    }

    #[test]
    fn double_producer_rejected() {
        // Two instructions on each port of a `sel`.
        assert!(sel_block(&[]).validate(GridShape::new(8, 8), 64).is_ok());
        for port in [Port::Left, Port::Right, Port::Pred] {
            match sel_block(&[port]).validate(GridShape::new(8, 8), 64) {
                Err(DlpError::Verify { code, span, detail }) => {
                    assert_eq!(code, vcode::MULTIPLE_PRODUCERS);
                    assert_eq!(span, "(0,3)#0");
                    assert_eq!(detail, format!("port {port} of (0,3)#0 has 2 producers"));
                }
                other => panic!("doubled {port}: expected V0106, got {other:?}"),
            }
        }
        // A register read and an instruction on one port.
        let s0 = slot(0, 0, 0);
        let s1 = slot(0, 1, 0);
        let a = movi(s0, 1, vec![Target::port(s1, Port::Left)]);
        let mut b = PlacedInst::new(s1, Opcode::Not);
        b.targets = vec![Target::Reg(0)];
        let rr = RegRead { reg: 4, targets: vec![Target::port(s1, Port::Left)], persistent: false };
        let blk = DataflowBlock::new("t", vec![a, b], vec![rr]);
        assert_eq!(code(&blk), vcode::MULTIPLE_PRODUCERS);
    }

    #[test]
    fn first_double_fed_port_is_reported_in_port_order() {
        // Pred is doubled before Left in wiring order; Left is reported.
        let blk = sel_block(&[Port::Pred, Port::Left]);
        match blk.validate(GridShape::new(8, 8), 64) {
            Err(DlpError::Verify { code, detail, .. }) => {
                assert_eq!(code, vcode::MULTIPLE_PRODUCERS);
                assert_eq!(detail, "port L of (0,3)#0 has 2 producers");
            }
            other => panic!("expected V0106, got {other:?}"),
        }
    }

    #[test]
    fn missing_operand_rejected() {
        let s0 = slot(0, 0, 0);
        let mut a = PlacedInst::new(s0, Opcode::Add); // nothing feeds it
        a.targets = vec![Target::Reg(0)];
        let blk = DataflowBlock::new("t", vec![a], vec![]);
        assert_eq!(code(&blk), vcode::MISSING_PRODUCER);
    }

    #[test]
    fn slot_budget_enforced() {
        let s0 = slot(0, 0, 99);
        let a = movi(s0, 1, vec![Target::Reg(0)]);
        let blk = DataflowBlock::new("t", vec![a], vec![]);
        assert!(matches!(
            blk.validate(GridShape::new(8, 8), 64),
            Err(DlpError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn lmw_target_arity_checked() {
        let s0 = slot(0, 0, 0);
        let s1 = slot(0, 1, 0);
        let s2 = slot(0, 2, 0);
        let addr = movi(s0, 0, vec![Target::port(s1, Port::Left)]);
        let mut lmw = PlacedInst::new(s1, Opcode::Lmw);
        lmw.imm = Some(Value::from_u64(2)); // two words...
        lmw.targets = vec![Target::port(s2, Port::Left)]; // ...one target
        let mut sink = PlacedInst::new(s2, Opcode::Not);
        sink.targets = vec![Target::Reg(0)];
        let blk = DataflowBlock::new("t", vec![addr, lmw, sink], vec![]);
        assert_eq!(code(&blk), vcode::LMW_ARITY);
    }

    #[test]
    fn reg_read_feeds_port() {
        let s0 = slot(0, 0, 0);
        let mut a = PlacedInst::new(s0, Opcode::Not);
        a.targets = vec![Target::Reg(1)];
        let rr = RegRead { reg: 4, targets: vec![Target::port(s0, Port::Left)], persistent: true };
        let blk = DataflowBlock::new("t", vec![a], vec![rr]);
        assert!(blk.validate(GridShape::new(8, 8), 64).is_ok());
    }

    #[test]
    fn disassembly_mentions_everything() {
        let s0 = slot(0, 0, 0);
        let a = movi(s0, 7, vec![Target::Reg(2)]);
        let blk = DataflowBlock::new("demo", vec![a], vec![]);
        let d = blk.disassemble();
        assert!(d.contains("demo"));
        assert!(d.contains("movi"));
        assert!(d.contains("r2"));
    }

    #[test]
    fn portset_operations() {
        let s = PortSet::EMPTY.with(Port::Left).with(Port::Pred);
        assert!(s.contains(Port::Left));
        assert!(!s.contains(Port::Right));
        assert!(s.contains(Port::Pred));
        assert!(!s.is_empty());
        assert!(PortSet::EMPTY.is_empty());
        assert!(PortSet::ALL.contains(Port::Right));
    }
}
