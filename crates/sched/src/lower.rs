//! Lowering: kernel IR → placed dataflow block, per machine configuration.

use std::collections::HashMap;

use dlp_common::{DlpError, GridShape, TimingParams, Value};
use dlp_kernel_ir::{IrOp, KernelIr};
use trips_isa::{
    DataflowBlock, MemSpace, OpRole, Opcode, PlacedInst, Port, RegRead, Slot, Target,
};

use crate::Placer;

/// Which mechanism-relevant choices the lowering should make.
///
/// This is the scheduler-facing projection of the simulator's mechanism
/// set, kept separate so the scheduler does not depend on the simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TargetConfig {
    /// Regular streams go through the SMC with wide LMW loads; otherwise
    /// per-word L1 loads (the baseline path).
    pub smc: bool,
    /// Indexed constants become `Lut` reads of the L0 data store; otherwise
    /// L1 loads from the table's memory image.
    pub l0_data_store: bool,
    /// Register-read constants are persistent (delivered once per kernel).
    pub operand_revitalization: bool,
    /// Instruction revitalization is available, so unrolling may fill the
    /// whole reservation-station budget; otherwise only the baseline
    /// hyperblock budget.
    pub dlp_unroll: bool,
}

/// Where the kernel's streams and table images live in (word-addressed)
/// memory. The experiment driver owns this plan and stages the data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayoutPlan {
    /// First word of the input stream (record `r` starts at
    /// `base_in + r * record_in_words`).
    pub base_in: u64,
    /// First word of the output stream.
    pub base_out: u64,
    /// First word of the lookup-table memory image (used when the L0 data
    /// store is not configured).
    pub table_base: u64,
}

/// Scheduling knobs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScheduleOptions {
    /// Force a specific unroll factor instead of filling the budget.
    pub unroll: Option<usize>,
    /// Cap the chosen unroll factor (e.g. at the workload's record count,
    /// so short streams are not padded past their length).
    pub max_unroll: Option<usize>,
}

/// The scheduler's output: a placed block plus the setup obligations the
/// driver must satisfy before running it.
///
/// Scheduling is a pure function of the IR, grid, timing model, target
/// configuration and options — it never looks at workload data — so a
/// `ScheduledKernel` is freely cloneable and cacheable: the sweep
/// engine (`dlp_core::sweep`) prepares each distinct lowering once and
/// shares it across every experiment cell that needs it.
#[derive(Clone, Debug)]
pub struct ScheduledKernel {
    /// The placed dataflow block.
    pub block: DataflowBlock,
    /// Kernel instances per block iteration (records consumed per
    /// iteration). Run `ceil(records / unroll)` iterations and pad the
    /// record count to a multiple of `unroll`.
    pub unroll: usize,
    /// `(register, value)` pairs the driver must write before running
    /// (named scalar constants).
    pub const_regs: Vec<(u16, Value)>,
    /// Concatenated lookup-table contents. With the L0 store configured,
    /// load via `Machine::load_l0_table`; otherwise write at
    /// `layout.table_base` in main memory.
    pub table_image: Vec<Value>,
    /// Whether `table_image` goes to the L0 store (`true`) or memory.
    pub tables_in_l0: bool,
}

/// First register used for kernel constants (leaving low registers for
/// driver scratch).
const CONST_REG_BASE: u16 = 8;

/// Producer record for an IR node during lowering.
#[derive(Clone, Copy, Debug)]
enum Prod {
    /// Value produced by block instruction `i`.
    Inst(usize),
    /// Value is a register-read constant.
    Reg(u16),
    /// Value is a foldable immediate (single use on a right port).
    ImmFold(Value),
}

/// Schedule a kernel onto the array for the given configuration.
///
/// The produced block is passed through the full static verifier
/// ([`dlp_verify::verify_dataflow`]) before it is returned, so every
/// artifact that leaves the scheduler is deadlock-free and within the
/// machine's capacity budgets.
///
/// # Errors
///
/// * [`DlpError::CapacityExceeded`] — the kernel does not fit the array
///   even at unroll 1.
/// * [`DlpError::Verify`] — the produced block fails static verification
///   (indicates a scheduler bug; surfaced rather than hidden).
pub fn schedule_dataflow(
    ir: &KernelIr,
    grid: GridShape,
    params: &TimingParams,
    cfg: TargetConfig,
    layout: LayoutPlan,
    opts: ScheduleOptions,
) -> Result<ScheduledKernel, DlpError> {
    let unroll = planned_unroll(ir, grid, params, cfg, layout, opts)?;

    let mut lowering = Lowering::new(ir, grid, params, cfg, layout, unroll);
    for u in 0..unroll {
        lowering.lower_instance(u)?;
    }
    let kernel = lowering.finish()?;
    // Surface scheduler bugs immediately: full static verification of the
    // artifact (shape checks, dependence acyclicity, capacity legality).
    let vparams = dlp_verify::DataflowVerifyParams {
        grid,
        slots_per_node: params.core.rs_slots_per_node,
        num_regs: dlp_verify::DEFAULT_NUM_REGS,
        lmw_max_words: params.mem.lmw_max_words.max(1) as usize,
        l0_data_entries: params.mem.l0_data_bytes,
        unroll: kernel.unroll,
        unroll_cap: 512,
        operand_revitalization: cfg.operand_revitalization,
        tables_in_l0: kernel.tables_in_l0,
        table_len: kernel.table_image.len(),
    };
    dlp_verify::verify_dataflow(&kernel.block, &vparams)?;
    Ok(kernel)
}

/// The unroll factor [`schedule_dataflow`] would pick for these inputs,
/// computed from a one-instance dry run without lowering the full block.
///
/// This is the *only* way [`ScheduleOptions::max_unroll`] (and hence a
/// workload's record count) influences a schedule, so two option sets
/// that map to the same planned unroll produce identical
/// [`ScheduledKernel`]s — the property the result store's lowering
/// fingerprint relies on to key a cell without lowering it.
///
/// # Errors
///
/// [`DlpError::MalformedProgram`] — the IR fails validation.
pub fn planned_unroll(
    ir: &KernelIr,
    grid: GridShape,
    params: &TimingParams,
    cfg: TargetConfig,
    layout: LayoutPlan,
    opts: ScheduleOptions,
) -> Result<usize, DlpError> {
    ir.validate()?;
    // Dry-run one instance to learn its lowered size.
    let probe = Lowering::new(ir, grid, params, cfg, layout, 1);
    let per_instance = probe.count_one_instance();

    let budget_insts = if cfg.dlp_unroll {
        params.core.rs_slots_per_node * grid.nodes()
    } else {
        params.core.baseline_slots_per_node * grid.nodes()
    };
    let natural = (budget_insts / per_instance.max(1)).max(1);
    // Keep one instance per row when possible so LMW channels spread, and
    // bound the block so event counts stay sane.
    let capped = natural.min(opts.max_unroll.unwrap_or(usize::MAX));
    Ok(opts.unroll.unwrap_or(capped).clamp(1, 512))
}

struct Lowering<'a> {
    ir: &'a KernelIr,
    grid: GridShape,
    cfg: TargetConfig,
    layout: LayoutPlan,
    unroll: usize,
    lmw_max: u32,
    placer: Placer,
    insts: Vec<PlacedInst>,
    /// Pending operand wires: (producer inst, consumer inst, port).
    wires: Vec<(usize, usize, Port)>,
    /// Register reads: reg -> targets.
    reg_targets: HashMap<u16, Vec<(usize, Port)>>,
    /// Per-table word offset within the concatenated image.
    table_offsets: Vec<u64>,
}

impl<'a> Lowering<'a> {
    fn new(
        ir: &'a KernelIr,
        grid: GridShape,
        params: &TimingParams,
        cfg: TargetConfig,
        layout: LayoutPlan,
        unroll: usize,
    ) -> Self {
        let mut table_offsets = Vec::with_capacity(ir.tables().len());
        let mut off = 0u64;
        for t in ir.tables() {
            table_offsets.push(off);
            off += t.entries.len() as u64;
        }
        Lowering {
            ir,
            grid,
            cfg,
            layout,
            unroll,
            lmw_max: params.mem.lmw_max_words.max(1),
            placer: Placer::new(grid, params.core.rs_slots_per_node),
            insts: Vec::new(),
            wires: Vec::new(),
            reg_targets: HashMap::new(),
            table_offsets,
        }
    }

    /// How many block instructions one lowered instance occupies.
    fn count_one_instance(mut self) -> usize {
        self.lower_instance(0).map(|()| self.insts.len()).unwrap_or(usize::MAX)
    }

    /// Number of uses of each IR node.
    fn use_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.ir.nodes().len()];
        let mut bump = |r: dlp_kernel_ir::IrRef| counts[r.index()] += 1;
        for n in self.ir.nodes() {
            match n.op {
                IrOp::TableRead { index, .. } => bump(index),
                IrOp::IrregularLoad { addr } => bump(addr),
                IrOp::Un { a, .. } => bump(a),
                IrOp::Bin { a, b, .. } => {
                    bump(a);
                    bump(b);
                }
                IrOp::Sel { p, a, b } => {
                    bump(p);
                    bump(a);
                    bump(b);
                }
                _ => {}
            }
        }
        for &(_, r) in self.ir.outputs() {
            counts[r.index()] += 1;
        }
        counts
    }

    fn emit(&mut self, slot: Slot, op: Opcode, imm: Option<Value>, role: OpRole) -> usize {
        let mut inst = PlacedInst::new(slot, op);
        inst.imm = imm;
        inst.role = role;
        self.insts.push(inst);
        self.insts.len() - 1
    }

    fn coord_of(&self, inst: usize) -> dlp_common::Coord {
        self.insts[inst].slot.node
    }

    /// Lower one kernel instance `u`. Instances spread across *all* rows
    /// (stride mapping when there are fewer instances than rows) so every
    /// memory bank and streaming channel carries traffic.
    #[allow(clippy::too_many_lines)]
    fn lower_instance(&mut self, u: usize) -> Result<(), DlpError> {
        let ir = self.ir;
        let rows = self.grid.rows();
        let home = if self.unroll >= rows as usize {
            (u % rows as usize) as u8
        } else {
            ((u * rows as usize) / self.unroll) as u8
        };
        let in_words = u64::from(ir.record_in_words());
        let out_words = u64::from(ir.record_out_words());
        let uses = self.use_counts();

        // Dead-code elision: a node not (transitively) reaching an output
        // would lower to an instruction whose result is dropped, which the
        // block validator rightly rejects — skip such nodes. Liveness
        // propagates backward from the outputs in reverse topological
        // order (the IR is constructed topologically).
        let mut live = vec![false; ir.nodes().len()];
        for &(_, r) in ir.outputs() {
            live[r.index()] = true;
        }
        for i in (0..ir.nodes().len()).rev() {
            if !live[i] {
                continue;
            }
            let mut mark = |r: dlp_kernel_ir::IrRef| live[r.index()] = true;
            match ir.nodes()[i].op {
                IrOp::TableRead { index, .. } => mark(index),
                IrOp::IrregularLoad { addr } => mark(addr),
                IrOp::Un { a, .. } => mark(a),
                IrOp::Bin { a, b, .. } => {
                    mark(a);
                    mark(b);
                }
                IrOp::Sel { p, a, b } => {
                    mark(p);
                    mark(a);
                    mark(b);
                }
                IrOp::RecordIn(_) | IrOp::Const(_) | IrOp::Imm(_) => {}
            }
        }

        // --- per-instance address chain ---------------------------------
        // rec_in_addr  = base_in  + (iter*U + u)*in_words
        //              = Iter * (U*in_words) + (base_in + u*in_words)
        let needs_in = in_words > 0
            && ir
                .nodes()
                .iter()
                .enumerate()
                .any(|(i, n)| live[i] && matches!(n.op, IrOp::RecordIn(_)));
        let needs_out = out_words > 0 && !ir.outputs().is_empty();
        let mut iter_idx = None;
        let mut get_iter = |this: &mut Self| -> Result<usize, DlpError> {
            if let Some(i) = iter_idx {
                return Ok(i);
            }
            let slot = this.placer.place_mem(home)?;
            let i = this.emit(slot, Opcode::Iter, None, OpRole::Overhead);
            iter_idx = Some(i);
            Ok(i)
        };

        let mut addr_chain = |this: &mut Self,
                              stride: u64,
                              base: u64|
         -> Result<usize, DlpError> {
            let it = get_iter(this)?;
            let near = [this.coord_of(it)];
            let s1 = this.placer.place_near(&near, home)?;
            let mul = this.emit(s1, Opcode::Mul, Some(Value::from_u64(stride)), OpRole::Overhead);
            this.wires.push((it, mul, Port::Left));
            let s2 = this.placer.place_near(&[this.coord_of(mul)], home)?;
            let add = this.emit(s2, Opcode::Add, Some(Value::from_u64(base)), OpRole::Overhead);
            this.wires.push((mul, add, Port::Left));
            Ok(add)
        };

        let in_addr = if needs_in {
            Some(addr_chain(
                self,
                self.unroll as u64 * in_words,
                self.layout.base_in + u as u64 * in_words,
            )?)
        } else {
            None
        };
        let out_addr = if needs_out {
            Some(addr_chain(
                self,
                self.unroll as u64 * out_words,
                self.layout.base_out + u as u64 * out_words,
            )?)
        } else {
            None
        };

        // --- input record delivery --------------------------------------
        // Producer instruction for each input word that is used.
        let mut word_prod: HashMap<u16, usize> = HashMap::new();
        let mut word_uses = vec![0u32; in_words as usize];
        for (i, n) in ir.nodes().iter().enumerate() {
            if let IrOp::RecordIn(w) = n.op {
                if live[i] {
                    word_uses[w as usize] += uses[i];
                }
            }
        }
        if let Some(in_addr) = in_addr {
            if self.cfg.smc {
                // Contiguous used spans, up to lmw_max words per LMW. Each
                // word lands on a Mov that fans out to its consumers.
                let mut w = 0u64;
                while w < in_words {
                    if word_uses[w as usize] == 0 {
                        w += 1;
                        continue;
                    }
                    let mut span = 0u64;
                    while w + span < in_words
                        && span < u64::from(self.lmw_max)
                        && word_uses[(w + span) as usize] > 0
                    {
                        span += 1;
                    }
                    // Address for this chunk.
                    let chunk_addr = if w == 0 {
                        in_addr
                    } else {
                        let s = self
                            .placer
                            .place_near(&[self.coord_of(in_addr)], home)?;
                        let a = self.emit(s, Opcode::Add, Some(Value::from_u64(w)), OpRole::Overhead);
                        self.wires.push((in_addr, a, Port::Left));
                        a
                    };
                    let lmw_slot = self.placer.place_mem(home)?;
                    let lmw = self.emit(
                        lmw_slot,
                        Opcode::Lmw,
                        Some(Value::from_u64(span)),
                        OpRole::Overhead,
                    );
                    self.wires.push((chunk_addr, lmw, Port::Left));
                    for k in 0..span {
                        let s = self.placer.place_near(&[self.coord_of(lmw)], home)?;
                        let mv = self.emit(s, Opcode::Mov, None, OpRole::Overhead);
                        // LMW word k -> Mov left port, in target order.
                        let tgt = Target::port(self.insts[mv].slot, Port::Left);
                        self.insts[lmw].targets.push(tgt);
                        word_prod.insert((w + k) as u16, mv);
                    }
                    w += span;
                }
            } else {
                // Baseline: one L1 load per used word.
                for w in 0..in_words {
                    if word_uses[w as usize] == 0 {
                        continue;
                    }
                    let s = self.placer.place_mem(home)?;
                    let ld = self.emit(
                        s,
                        Opcode::Load(MemSpace::L1),
                        Some(Value::from_u64(w)),
                        OpRole::Overhead,
                    );
                    self.wires.push((in_addr, ld, Port::Left));
                    word_prod.insert(w as u16, ld);
                }
            }
        }

        // --- body (dead nodes skipped per the liveness pass above) -------
        let mut prods: Vec<Option<Prod>> = vec![None; ir.nodes().len()];
        let get = |prods: &Vec<Option<Prod>>, r: dlp_kernel_ir::IrRef| -> Prod {
            prods[r.index()].expect("topological order: producer lowered first")
        };

        for (i, node) in ir.nodes().iter().enumerate() {
            if !live[i] {
                continue;
            }
            let role = node.role;
            let prod = match node.op {
                IrOp::RecordIn(w) => Prod::Inst(*word_prod.get(&w).ok_or_else(|| {
                    DlpError::MalformedProgram {
                        detail: format!("kernel {}: input word {w} unused yet referenced", ir.name()),
                    }
                })?),
                IrOp::Const(c) => Prod::Reg(CONST_REG_BASE + c),
                IrOp::Imm(v) => {
                    if uses[i] == 1 {
                        Prod::ImmFold(v)
                    } else {
                        let s = self.placer.place_near(&[], home)?;
                        Prod::Inst(self.emit(s, Opcode::MovI, Some(v), OpRole::Overhead))
                    }
                }
                IrOp::TableRead { table, index } => {
                    let idx = get(&prods, index);
                    let off = self.table_offsets[table as usize];
                    if self.cfg.l0_data_store {
                        let near = self.prod_coords(&[idx]);
                        let s = self.placer.place_near(&near, home)?;
                        let lut = self.emit(s, Opcode::Lut, Some(Value::from_u64(off)), role);
                        self.wire(idx, lut, Port::Left, home)?;
                        Prod::Inst(lut)
                    } else {
                        let s = self.placer.place_mem(home)?;
                        let ld = self.emit(
                            s,
                            Opcode::Load(MemSpace::L1),
                            Some(Value::from_u64(self.layout.table_base + off)),
                            role,
                        );
                        self.wire(idx, ld, Port::Left, home)?;
                        Prod::Inst(ld)
                    }
                }
                IrOp::IrregularLoad { addr } => {
                    let a = get(&prods, addr);
                    let s = self.placer.place_mem(home)?;
                    let ld = self.emit(s, Opcode::Load(MemSpace::L1), None, role);
                    self.wire(a, ld, Port::Left, home)?;
                    Prod::Inst(ld)
                }
                IrOp::Un { op, a } => {
                    let pa = get(&prods, a);
                    let near = self.prod_coords(&[pa]);
                    let s = self.placer.place_near(&near, home)?;
                    let inst = self.emit(s, op, None, role);
                    self.wire(pa, inst, Port::Left, home)?;
                    Prod::Inst(inst)
                }
                IrOp::Bin { op, a, b } => {
                    let pa = get(&prods, a);
                    let pb = get(&prods, b);
                    let near = self.prod_coords(&[pa, pb]);
                    let s = self.placer.place_near(&near, home)?;
                    let imm = match pb {
                        Prod::ImmFold(v) => Some(v),
                        _ => None,
                    };
                    let inst = self.emit(s, op, imm, role);
                    self.wire(pa, inst, Port::Left, home)?;
                    if imm.is_none() {
                        self.wire(pb, inst, Port::Right, home)?;
                    }
                    Prod::Inst(inst)
                }
                IrOp::Sel { p, a, b } => {
                    let pp = get(&prods, p);
                    let pa = get(&prods, a);
                    let pb = get(&prods, b);
                    let near = self.prod_coords(&[pa, pb, pp]);
                    let s = self.placer.place_near(&near, home)?;
                    let imm = match pb {
                        Prod::ImmFold(v) => Some(v),
                        _ => None,
                    };
                    let inst = self.emit(s, Opcode::Sel, imm, role);
                    self.wire(pp, inst, Port::Pred, home)?;
                    self.wire(pa, inst, Port::Left, home)?;
                    if imm.is_none() {
                        self.wire(pb, inst, Port::Right, home)?;
                    }
                    Prod::Inst(inst)
                }
            };
            prods[i] = Some(prod);
        }

        // --- outputs -----------------------------------------------------
        let space = if self.cfg.smc { MemSpace::Smc } else { MemSpace::L1 };
        if let Some(out_addr) = out_addr {
            for &(w, r) in ir.outputs() {
                let val = get(&prods, r);
                let s = self.placer.place_mem(home)?;
                let st = self.emit(
                    s,
                    Opcode::Store(space),
                    Some(Value::from_u64(u64::from(w))),
                    OpRole::Overhead,
                );
                self.wires.push((out_addr, st, Port::Left));
                self.wire(val, st, Port::Right, home)?;
            }
        }
        Ok(())
    }

    fn prod_coords(&self, prods: &[Prod]) -> Vec<dlp_common::Coord> {
        prods
            .iter()
            .filter_map(|p| match p {
                Prod::Inst(i) => Some(self.coord_of(*i)),
                _ => None,
            })
            .collect()
    }

    /// Connect a producer to a consumer port.
    fn wire(&mut self, prod: Prod, consumer: usize, port: Port, home: u8) -> Result<(), DlpError> {
        match prod {
            Prod::Inst(i) => {
                self.wires.push((i, consumer, port));
                Ok(())
            }
            Prod::Reg(r) => {
                self.reg_targets.entry(r).or_default().push((consumer, port));
                if self.cfg.operand_revitalization {
                    let set = self.insts[consumer].persistent;
                    self.insts[consumer].persistent = set.with(port);
                }
                Ok(())
            }
            Prod::ImmFold(v) => {
                // Fold failed (used on a non-right port): materialize.
                let s = self.placer.place_near(&[self.coord_of(consumer)], home)?;
                let mi = self.emit(s, Opcode::MovI, Some(v), OpRole::Overhead);
                self.wires.push((mi, consumer, port));
                Ok(())
            }
        }
    }

    fn finish(mut self) -> Result<ScheduledKernel, DlpError> {
        // Resolve wires into target lists.
        let wires = std::mem::take(&mut self.wires);
        for (prod, cons, port) in wires {
            let tgt = Target::port(self.insts[cons].slot, port);
            self.insts[prod].targets.push(tgt);
        }
        let mut reg_reads = Vec::new();
        let mut regs: Vec<u16> = self.reg_targets.keys().copied().collect();
        regs.sort_unstable();
        for reg in regs {
            let targets = self.reg_targets[&reg]
                .iter()
                .map(|&(c, p)| Target::port(self.insts[c].slot, p))
                .collect();
            reg_reads.push(RegRead { reg, targets, persistent: self.cfg.operand_revitalization });
        }

        let const_regs = self
            .ir
            .constants()
            .iter()
            .enumerate()
            .map(|(i, (_, v))| (CONST_REG_BASE + i as u16, *v))
            .collect();
        let table_image: Vec<Value> =
            self.ir.tables().iter().flat_map(|t| t.entries.iter().copied()).collect();

        Ok(ScheduledKernel {
            block: DataflowBlock::new(self.ir.name(), self.insts, reg_reads),
            unroll: self.unroll,
            const_regs,
            table_image,
            tables_in_l0: self.cfg.l0_data_store,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_kernel_ir::{ControlClass, Domain, IrBuilder};
    use trips_sim::{Machine, MechanismSet};

    /// out[0] = in[0]*c + in[1]
    fn toy_ir() -> KernelIr {
        let mut b = IrBuilder::new("toy", Domain::Multimedia, 2, 1);
        let c = b.constant("gain", Value::from_u64(3));
        let x = b.input(0);
        let y = b.input(1);
        let m = b.bin(Opcode::Mul, x, c);
        let s = b.bin(Opcode::Add, m, y);
        b.output(0, s);
        b.finish(ControlClass::Straight).unwrap()
    }

    fn layout() -> LayoutPlan {
        LayoutPlan { base_in: 0, base_out: 10_000, table_base: 20_000 }
    }

    fn grid() -> GridShape {
        GridShape::new(8, 8)
    }

    fn cfg_for(mech: MechanismSet) -> TargetConfig {
        TargetConfig {
            smc: mech.smc,
            l0_data_store: mech.l0_data_store,
            operand_revitalization: mech.operand_revitalization,
            dlp_unroll: mech.inst_revitalization,
        }
    }

    /// End-to-end: schedule the toy kernel and run it on the simulator,
    /// then compare against the IR evaluator.
    fn run_toy(mech: MechanismSet, records: u64) -> (Vec<u64>, dlp_common::SimStats) {
        let ir = toy_ir();
        let params = TimingParams::default();
        let sched = schedule_dataflow(&ir, grid(), &params, cfg_for(mech), layout(), ScheduleOptions::default())
            .unwrap();
        let mut m = Machine::new(grid(), params, mech);
        // Stage inputs: record r = (r, 2r).
        for r in 0..records {
            m.memory_mut().write(2 * r, Value::from_u64(r));
            m.memory_mut().write(2 * r + 1, Value::from_u64(2 * r));
        }
        for (reg, v) in &sched.const_regs {
            m.set_reg(*reg, *v);
        }
        if mech.smc {
            m.stage_smc(0..2 * records).unwrap();
        }
        let iters = records.div_ceil(sched.unroll as u64);
        let stats = m.run_dataflow(&sched.block, iters).unwrap();
        let out = (0..records).map(|r| m.memory().read(10_000 + r).as_u64()).collect();
        (out, stats)
    }

    #[test]
    fn toy_kernel_correct_on_all_dataflow_configs() {
        for mech in [
            MechanismSet::baseline(),
            MechanismSet::simd(),
            MechanismSet::simd_operand(),
            MechanismSet::simd_operand_l0(),
        ] {
            let (out, _) = run_toy(mech, 64);
            for r in 0..64u64 {
                assert_eq!(out[r as usize], 3 * r + 2 * r, "record {r} on {mech}");
            }
        }
    }

    #[test]
    fn simd_config_reuses_its_mapping() {
        // The structural claim at this layer: the revitalizing machine maps
        // the block once and unrolls wide, while the baseline re-fetches
        // per instance. (End-to-end speedup comparisons live in the
        // dlp-core integration tests on the real benchmark kernels — a
        // two-op toy kernel is exactly the shape the baseline's frame
        // pipelining handles well.)
        let (_, base) = run_toy(MechanismSet::baseline(), 2048);
        let (_, simd) = run_toy(MechanismSet::simd(), 2048);
        assert!(base.blocks_fetched > 10, "baseline refetches ({})", base.blocks_fetched);
        assert_eq!(simd.blocks_fetched, 1, "revitalization maps once");
        assert!(simd.revitalizations > 0);
        // Both execute the two useful ops for every (possibly padded)
        // record; padding differs with the unroll factor.
        assert!(simd.useful_ops >= 2 * 2048);
        assert!(base.useful_ops >= 2 * 2048);
    }

    #[test]
    fn unroll_respects_budget() {
        let ir = toy_ir();
        let params = TimingParams::default();
        let s_base = schedule_dataflow(
            &ir,
            grid(),
            &params,
            cfg_for(MechanismSet::baseline()),
            layout(),
            ScheduleOptions::default(),
        )
        .unwrap();
        let s_simd = schedule_dataflow(
            &ir,
            grid(),
            &params,
            cfg_for(MechanismSet::simd()),
            layout(),
            ScheduleOptions::default(),
        )
        .unwrap();
        assert!(s_simd.unroll > s_base.unroll, "DLP unroll should exceed baseline");
        assert!(s_base.block.len() <= 8 * 8 * 64);
    }

    #[test]
    fn unroll_override_is_honored() {
        let ir = toy_ir();
        let params = TimingParams::default();
        let s = schedule_dataflow(
            &ir,
            grid(),
            &params,
            cfg_for(MechanismSet::simd()),
            layout(),
            ScheduleOptions { unroll: Some(4), ..ScheduleOptions::default() },
        )
        .unwrap();
        assert_eq!(s.unroll, 4);
    }

    #[test]
    fn table_kernel_lowered_to_lut_or_l1() {
        let mut b = IrBuilder::new("tk", Domain::Network, 1, 1);
        let t = b.table("sq", (0..64).map(|i| Value::from_u64(i * i)).collect());
        let x = b.input(0);
        let v = b.table_read(t, x);
        b.output(0, v);
        let ir = b.finish(ControlClass::Straight).unwrap();
        let params = TimingParams::default();

        let with_l0 = schedule_dataflow(
            &ir,
            grid(),
            &params,
            cfg_for(MechanismSet::simd_operand_l0()),
            layout(),
            ScheduleOptions::default(),
        )
        .unwrap();
        assert!(with_l0.tables_in_l0);
        assert!(with_l0.block.insts().iter().any(|i| matches!(i.op, Opcode::Lut)));

        let without = schedule_dataflow(
            &ir,
            grid(),
            &params,
            cfg_for(MechanismSet::simd_operand()),
            layout(),
            ScheduleOptions::default(),
        )
        .unwrap();
        assert!(!without.tables_in_l0);
        assert!(!without.block.insts().iter().any(|i| matches!(i.op, Opcode::Lut)));
    }

    #[test]
    fn table_kernel_executes_correctly_both_ways() {
        let mut b = IrBuilder::new("tk", Domain::Network, 1, 1);
        let t = b.table("sq", (0..64).map(|i| Value::from_u64(i * i)).collect());
        let x = b.input(0);
        let v = b.table_read(t, x);
        b.output(0, v);
        let ir = b.finish(ControlClass::Straight).unwrap();
        let params = TimingParams::default();

        for mech in [MechanismSet::simd_operand(), MechanismSet::simd_operand_l0()] {
            let sched = schedule_dataflow(
                &ir,
                grid(),
                &params,
                cfg_for(mech),
                layout(),
                ScheduleOptions::default(),
            )
            .unwrap();
            let mut m = Machine::new(grid(), params, mech);
            let records = 32u64;
            for r in 0..records {
                m.memory_mut().write(r, Value::from_u64(r % 64));
            }
            if sched.tables_in_l0 {
                m.load_l0_table(&sched.table_image).unwrap();
            } else {
                m.memory_mut().write_words(layout().table_base, &sched.table_image);
            }
            m.stage_smc(0..records).unwrap();
            let iters = records.div_ceil(sched.unroll as u64);
            m.run_dataflow(&sched.block, iters).unwrap();
            for r in 0..records {
                let idx = r % 64;
                assert_eq!(
                    m.memory().read(10_000 + r).as_u64(),
                    idx * idx,
                    "record {r} on {mech}"
                );
            }
        }
    }
}
