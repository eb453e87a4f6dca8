//! Dataflow-block semantics: the block's routing and readiness tables,
//! instruction execution, operand delivery, per-iteration register
//! reads, and the run's error and completion rules — shared by the
//! scalar engine ([`crate::dataflow`]) and the lane-batched engine
//! (`batch::dataflow`).

use std::collections::HashMap;

use dlp_common::{Coord, DlpError, GridShape, SimStats, Tick, Value};
use trips_isa::{DataflowBlock, MemSpace, OpClass, OpRole, Opcode, Port, Slot, Target};
use trips_mem::Throttle;
use trips_noc::Endpoint;

use super::{finish_run, reserve_cycle};
use crate::Machine;

pub(crate) fn port_idx(p: Port) -> usize {
    match p {
        Port::Left => 0,
        Port::Right => 1,
        Port::Pred => 2,
    }
}

/// A [`Target`] with every per-event lookup resolved at block-map time:
/// port targets carry the destination's dense instruction index (no
/// slot-hash lookup on delivery) and register targets carry their bank
/// column.
#[derive(Clone, Copy)]
pub(crate) enum ResolvedTarget {
    /// An operand port of instruction `inst`, which lives on `node`.
    Port { inst: usize, node: Coord, port: Port },
    /// Architectural register `reg`, written through the bank above
    /// `bank_col`.
    Reg { reg: u16, bank_col: u8 },
}

/// What executing an instruction schedules, handed to the engine's push
/// sink together with the tick it happens at.
pub(crate) enum Ev {
    /// An operand arrives at an instruction port.
    Operand { inst: usize, port: Port, value: Value },
    /// A bookkeeping completion (store drain, register-write arrival) that
    /// extends the iteration's completion tick without enabling anything.
    Quiesce,
}

/// The block-shape tables both dataflow engines execute from: slot
/// index, required-port issue conditions, resolved targets, register-read
/// destinations, and per-instruction node indices. Rebuilt per run (the
/// contents depend on the block and machine); the allocations carry over.
#[derive(Default)]
pub(crate) struct BlockTables {
    /// Which ports of each instruction must be filled before issue.
    pub(crate) required: Vec<[bool; 3]>,
    /// Every instruction's resolved targets, flattened: instruction `i`
    /// owns `resolved[span.0..span.1]` for `span = resolved_span[i]`, in
    /// the same order as `insts()[i].targets` (so LMW word `k` still
    /// maps to target `k`).
    resolved: Vec<ResolvedTarget>,
    resolved_span: Vec<(u32, u32)>,
    /// Port destinations of register reads, flattened like `resolved`.
    reg_read_dsts: Vec<(usize, Port, Coord)>,
    reg_read_span: Vec<(u32, u32)>,
    /// Dense grid index of each instruction's node, for issue throttling.
    pub(crate) inst_node: Vec<usize>,
    /// Slot → dense instruction index (setup-time only: the hot paths go
    /// through the pre-resolved tables above).
    idx_of: HashMap<Slot, usize>,
    /// Fingerprint of the last block these tables validated —
    /// `(block address, block length, grid, slots per node)`. Validation
    /// is linear in the block (≈0.4–0.7 ms for a full ≈4096-instruction
    /// block on a 2-vCPU Xeon host), so a sweep re-running one prepared
    /// (and already-validated) block across many cells pays it once per
    /// worker instead of once per run. Pre-seeded by
    /// [`EngineArena::mark_dataflow_block_validated`](crate::EngineArena::mark_dataflow_block_validated)
    /// for blocks a scheduler already validated.
    pub(crate) validated: Option<(usize, usize, GridShape, usize)>,
}

impl BlockTables {
    /// Validate `block` for `m` (memoized on [`Self::validated`]), reject
    /// it on a machine that cannot run it, and rebuild every table.
    pub(crate) fn build(&mut self, block: &DataflowBlock, m: &Machine) -> Result<(), DlpError> {
        if m.mechanisms().local_pc {
            return Err(DlpError::Unsupported {
                what: "dataflow blocks on a machine configured for MIMD (local PCs)".into(),
            });
        }
        let s = self;
        let fingerprint = (
            std::ptr::from_ref(block) as usize,
            block.len(),
            m.grid(),
            m.params().core.rs_slots_per_node,
        );
        if s.validated != Some(fingerprint) {
            block.validate(m.grid(), m.params().core.rs_slots_per_node)?;
            s.validated = Some(fingerprint);
        }
        let mech = m.mechanisms();
        for inst in block.insts() {
            match inst.op {
                Opcode::Lut if !mech.l0_data_store => {
                    return Err(DlpError::Unsupported {
                        what: "lut instruction without the L0 data store".into(),
                    })
                }
                Opcode::Load(MemSpace::Smc) | Opcode::Store(MemSpace::Smc) | Opcode::Lmw
                    if !mech.smc =>
                {
                    return Err(DlpError::Unsupported {
                        what: "SMC memory access without the SMC mechanism".into(),
                    })
                }
                _ => {}
            }
        }

        s.idx_of.clear();
        for (i, inst) in block.insts().iter().enumerate() {
            s.idx_of.insert(inst.slot, i);
        }

        // `required` doubles as the fed-port table while it is built:
        // first mark which ports are fed, then rewrite each entry into
        // the issue condition in place.
        s.required.clear();
        s.required.resize(block.len(), [false; 3]);
        {
            let idx_of = &s.idx_of;
            let fed = &mut s.required;
            let mut mark = |t: &Target| {
                if let Target::Port { slot, port } = t {
                    fed[idx_of[slot]][port_idx(*port)] = true;
                }
            };
            for inst in block.insts() {
                for t in &inst.targets {
                    mark(t);
                }
            }
            for rr in block.reg_reads() {
                for t in &rr.targets {
                    mark(t);
                }
            }
        }
        for (i, inst) in block.insts().iter().enumerate() {
            let fed = s.required[i];
            let (l, r, p) = inst.op.ports();
            s.required[i] = [
                l && (fed[0] || !matches!(inst.op, Opcode::Lut)),
                // A store's immediate is an address offset, so its right
                // port (the stored value) still comes from the network.
                r && (inst.imm.is_none() || matches!(inst.op, Opcode::Store(_))),
                p,
            ];
        }

        let banks = m.params().core.reg_banks.max(1);
        let reg_cols = m.grid().cols();
        {
            let idx_of = &s.idx_of;
            let resolve = |t: &Target| match *t {
                Target::Port { slot, port } => {
                    ResolvedTarget::Port { inst: idx_of[&slot], node: slot.node, port }
                }
                Target::Reg(reg) => {
                    let bank_col = ((reg % banks as u16) as u8).min(reg_cols - 1);
                    ResolvedTarget::Reg { reg, bank_col }
                }
            };
            s.resolved.clear();
            s.resolved_span.clear();
            for inst in block.insts() {
                let start = s.resolved.len() as u32;
                s.resolved.extend(inst.targets.iter().map(resolve));
                s.resolved_span.push((start, s.resolved.len() as u32));
            }
            s.reg_read_dsts.clear();
            s.reg_read_span.clear();
            for rr in block.reg_reads() {
                let start = s.reg_read_dsts.len() as u32;
                s.reg_read_dsts.extend(rr.targets.iter().filter_map(|t| match *t {
                    Target::Port { slot, port } => Some((idx_of[&slot], port, slot.node)),
                    Target::Reg(_) => None,
                }));
                s.reg_read_span.push((start, s.reg_read_dsts.len() as u32));
            }
        }
        let grid = m.grid();
        s.inst_node.clear();
        s.inst_node.extend(block.insts().iter().map(|inst| grid.index(inst.slot.node)));
        Ok(())
    }
}

/// The block-fetch engine's timing for one run of a block: how many
/// block instances stay in flight, when each is mapped, and when a
/// completed frame starts its next iteration.
#[derive(Clone, Copy)]
pub(crate) struct Fetch {
    inst_revit: bool,
    frames: usize,
    map_overhead: Tick,
    /// Fetch-engine occupancy per block fetch: the revitalized block
    /// streams once as one block, a baseline instance as a sequence of
    /// hyperblocks.
    per_fetch: Tick,
    revitalize_delay: Tick,
}

impl Fetch {
    pub(crate) fn new(m: &Machine, block: &DataflowBlock) -> Self {
        let inst_revit = m.mechanisms().inst_revitalization;
        let f = &m.params().fetch;
        Fetch {
            inst_revit,
            frames: f.baseline_frames.max(1) as usize,
            map_overhead: f.map_overhead,
            per_fetch: if inst_revit {
                m.fetch_ticks(block.len())
            } else {
                m.fetch_ticks_baseline(block.len())
            },
            revitalize_delay: f.revitalize_delay,
        }
    }

    /// Block instances a run of `iterations` keeps in flight: one under
    /// instruction revitalization (the revitalize broadcast is a
    /// barrier), else the baseline's frame window, never more than the
    /// iterations.
    pub(crate) fn window(&self, iterations: u64) -> usize {
        if self.inst_revit {
            1
        } else {
            self.frames.min(iterations.max(1) as usize)
        }
    }

    /// When the fetch engine is ready to stream, for a run whose setup
    /// ends at `setup_done`: the block's one-time map latency.
    pub(crate) fn mapped(&self, setup_done: Tick) -> Tick {
        setup_done + self.map_overhead
    }

    /// Stream one more block instance; returns the tick it is mapped.
    pub(crate) fn fetch(&self, stats: &mut SimStats, fetch_done: &mut Tick) -> Tick {
        *fetch_done += self.per_fetch;
        stats.blocks_fetched += 1;
        *fetch_done
    }

    /// Whether a frame's operand-revitalized values survive into its
    /// next iteration (they do when the block is revitalized, not
    /// refetched).
    pub(crate) fn keeps_operands(&self) -> bool {
        self.inst_revit
    }

    /// A frame completed its iteration at `t`: when the next one starts.
    /// Instruction revitalization broadcasts the revitalize signal; the
    /// baseline waits for a freshly fetched instance.
    pub(crate) fn restart(&self, stats: &mut SimStats, fetch_done: &mut Tick, t: Tick) -> Tick {
        if self.inst_revit {
            stats.revitalizations += 1;
            t + self.revitalize_delay
        } else {
            t.max(self.fetch(stats, fetch_done))
        }
    }
}

/// Reset the array's throttled issue resources for `nc` lane classes:
/// an issue port per node (one instruction per cycle) and a read port
/// per register bank (`reg_reads_per_bank_per_cycle`), all idle. Returns
/// the bank count; class `c`'s bank ports are
/// `bank_ports[c * banks..(c + 1) * banks]`.
pub(crate) fn reset_ports(
    m: &Machine,
    nc: usize,
    node_issue: &mut Vec<Throttle>,
    bank_ports: &mut Vec<Throttle>,
) -> usize {
    let banks = m.params().core.reg_banks.max(1) as usize;
    let reads_per = m.params().core.reg_reads_per_bank_per_cycle.max(1);
    node_issue.clear();
    node_issue.resize(m.grid().nodes() * nc, Throttle::new(1));
    bank_ports.clear();
    bank_ports.resize(banks * nc, Throttle::new(reads_per));
    banks
}

/// Read the block's registers for one iteration starting at `start`
/// through the per-bank read ports `bank_ports` (one throttle per bank),
/// routing each value to its consumers. `skip_persistent` skips the
/// reads whose values survived operand revitalization.
#[allow(clippy::too_many_arguments)]
pub(crate) fn seed_reg_reads(
    m: &mut Machine,
    stats: &mut SimStats,
    block: &DataflowBlock,
    tables: &BlockTables,
    bank_ports: &mut [Throttle],
    start: Tick,
    skip_persistent: bool,
    push: &mut impl FnMut(Tick, Ev),
) {
    let banks = bank_ports.len() as u16;
    let reg_cols = m.grid().cols();
    for (ri, rr) in block.reg_reads().iter().enumerate() {
        if skip_persistent && rr.persistent {
            continue; // value survived revitalization
        }
        let bank = (rr.reg % banks) as usize;
        let inject = reserve_cycle(&mut bank_ports[bank], start);
        stats.reg_reads += 1;
        let bank_col = (bank as u8).min(reg_cols - 1);
        let value = m.regs[rr.reg as usize];
        let (span_start, span_end) = tables.reg_read_span[ri];
        for k in span_start..span_end {
            let (inst, port, node) = tables.reg_read_dsts[k as usize];
            let arrive = m.router.send_faulty(
                Endpoint::RegBank(bank_col),
                Endpoint::Node(node),
                inject,
                &mut m.fault,
            );
            let arrive = m.fault.operand_write(arrive);
            push(arrive, Ev::Operand { inst, port, value });
        }
    }
}

/// Issue and execute instruction `i`, whose operands (`ops`, Left/Right/
/// Pred, `None` where no operand arrived) became complete at `t`, on the
/// node issue port `issue_port`; `iter` is the kernel iteration its
/// frame runs. Schedules every downstream event through `push`.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub(crate) fn execute(
    m: &mut Machine,
    stats: &mut SimStats,
    block: &DataflowBlock,
    tables: &BlockTables,
    i: usize,
    issue_port: &mut Throttle,
    t: Tick,
    ops: [Option<Value>; 3],
    iter: u64,
    push: &mut impl FnMut(Tick, Ev),
) {
    let inst = &block.insts()[i];
    let node = inst.slot.node;
    let issue = reserve_cycle(issue_port, t);
    let lat = inst.op.latency(&m.params().ops);
    let l = ops[0].unwrap_or(Value::ZERO);
    let r = ops[1].or(inst.imm).unwrap_or(Value::ZERO);
    let p = ops[2].unwrap_or(Value::ZERO);

    // Metric accounting.
    match inst.op {
        Opcode::Load(_) | Opcode::Lmw => stats.loads += 1,
        Opcode::Store(_) => stats.stores += 1,
        Opcode::Lut => stats.l0_accesses += 1,
        _ => {}
    }
    let countable = !inst.op.is_mem() && inst.op.class() != OpClass::Mov;
    if countable && inst.role == OpRole::Useful {
        stats.useful_ops += 1;
    } else {
        stats.overhead_ops += 1;
    }

    let row = node.row;
    match inst.op {
        Opcode::MovI => {
            let v = inst.imm.unwrap_or(Value::ZERO);
            fan_out(m, stats, block, tables, i, issue + lat, v, push);
        }
        Opcode::Iter => {
            fan_out(m, stats, block, tables, i, issue + lat, Value::from_u64(iter), push);
        }
        Opcode::Nop => {}
        Opcode::Lut => {
            let index = l.as_u64().wrapping_add(inst.imm.map_or(0, |v| v.as_u64()));
            let v = m.l0_data.get(index as usize).copied().unwrap_or(Value::ZERO);
            let done = issue + m.params().mem.l0_latency;
            fan_out(m, stats, block, tables, i, done, v, push);
        }
        Opcode::Load(space) => {
            let addr = l.as_u64().wrapping_add(inst.imm.map_or(0, |v| v.as_u64()));
            let handoff = issue + lat;
            let req = m.router.send_faulty(
                Endpoint::Node(node),
                Endpoint::MemPort(row),
                handoff,
                &mut m.fault,
            );
            let served = match space {
                MemSpace::Smc => {
                    stats.smc_accesses += 1;
                    m.smc[row as usize].access_faulty(addr, req, &mut m.fault)
                }
                MemSpace::L1 => {
                    stats.l1_accesses += 1;
                    let (t2, hit) = m.l1[row as usize].access_faulty(addr, req, &mut m.fault);
                    if !hit {
                        stats.l1_misses += 1;
                    }
                    t2
                }
            };
            let back = m.router.send_faulty(
                Endpoint::MemPort(row),
                Endpoint::Node(node),
                served,
                &mut m.fault,
            );
            let v = m.mem.read(addr);
            fan_out(m, stats, block, tables, i, back, v, push);
        }
        Opcode::Lmw => {
            let addr = l.as_u64();
            let n = inst.imm.map_or(0, |v| v.as_u64()) as u32;
            let handoff = issue + lat;
            let req = m.router.send_faulty(
                Endpoint::Node(node),
                Endpoint::MemPort(row),
                handoff,
                &mut m.fault,
            );
            stats.smc_accesses += 1;
            stats.lmw_words += u64::from(n);
            let served = m.smc[row as usize].access_wide_faulty(addr, n, req, &mut m.fault);
            // The streaming channel delivers word k straight to target k.
            let (span_start, span_end) = tables.resolved_span[i];
            for (k, ti) in (span_start..span_end).enumerate() {
                let tgt = tables.resolved[ti as usize];
                let v = m.mem.read(addr + k as u64);
                deliver(m, stats, tgt, Endpoint::MemPort(row), served, v, push);
            }
        }
        Opcode::Store(space) => {
            let addr = l.as_u64().wrapping_add(inst.imm.map_or(0, |v| v.as_u64()));
            m.mem.write(addr, r);
            let handoff = issue + lat;
            let req = m.router.send_faulty(
                Endpoint::Node(node),
                Endpoint::MemPort(row),
                handoff,
                &mut m.fault,
            );
            let drained = match space {
                MemSpace::Smc => {
                    let t2 = m.stb[row as usize].push_faulty(addr, req, &mut m.fault);
                    m.smc[row as usize].store_faulty(addr, t2, &mut m.fault)
                }
                MemSpace::L1 => {
                    stats.l1_accesses += 1;
                    let (t2, hit) = m.l1[row as usize].access_faulty(addr, req, &mut m.fault);
                    if !hit {
                        stats.l1_misses += 1;
                    }
                    t2
                }
            };
            push(drained, Ev::Quiesce);
        }
        _ => {
            let v = trips_isa::exec::eval(inst.op, l, r, p);
            fan_out(m, stats, block, tables, i, issue + lat, v, push);
        }
    }
}

/// True for opcodes [`execute`] evaluates through
/// [`trips_isa::exec::eval`] — the arms whose whole effect is a result
/// value routed by [`fan_out`] at `issue + latency`.
pub(crate) fn is_eval_op(op: Opcode) -> bool {
    !matches!(
        op,
        Opcode::MovI
            | Opcode::Iter
            | Opcode::Nop
            | Opcode::Lut
            | Opcode::Load(_)
            | Opcode::Lmw
            | Opcode::Store(_)
    )
}

/// Route instruction `i`'s result `v` to all its targets at `t`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fan_out(
    m: &mut Machine,
    stats: &mut SimStats,
    block: &DataflowBlock,
    tables: &BlockTables,
    i: usize,
    t: Tick,
    v: Value,
    push: &mut impl FnMut(Tick, Ev),
) {
    let node = block.insts()[i].slot.node;
    let (span_start, span_end) = tables.resolved_span[i];
    for ti in span_start..span_end {
        let tgt = tables.resolved[ti as usize];
        deliver(m, stats, tgt, Endpoint::Node(node), t, v, push);
    }
    if span_start == span_end {
        push(t, Ev::Quiesce);
    }
}

/// Send `v` from `from` at `t` to one resolved target.
pub(crate) fn deliver(
    m: &mut Machine,
    stats: &mut SimStats,
    tgt: ResolvedTarget,
    from: Endpoint,
    t: Tick,
    v: Value,
    push: &mut impl FnMut(Tick, Ev),
) {
    match tgt {
        ResolvedTarget::Port { inst, node, port } => {
            let arrive = m.router.send_faulty(from, Endpoint::Node(node), t, &mut m.fault);
            // The destination reservation station is an operand store:
            // a flipped entry is detected by parity and re-latched.
            let arrive = m.fault.operand_write(arrive);
            push(arrive, Ev::Operand { inst, port, value: v });
        }
        ResolvedTarget::Reg { reg, bank_col } => {
            let arrive = m.router.send_faulty(from, Endpoint::RegBank(bank_col), t, &mut m.fault);
            m.regs[reg as usize] = v;
            stats.reg_writes += 1;
            push(arrive, Ev::Quiesce);
        }
    }
}

/// The per-event guard: the watchdog, then any fault latched fatal.
pub(crate) fn guard(
    m: &Machine,
    block: &DataflowBlock,
    tick: Tick,
    done_iters: u64,
    iterations: u64,
) -> Result<(), DlpError> {
    if tick > m.watchdog_ticks {
        return Err(DlpError::Watchdog {
            ticks: tick,
            context: format!(
                "dataflow block '{}' ({done_iters}/{iterations} iterations done)",
                block.name()
            ),
        });
    }
    match m.fault.fatal() {
        Some(fatal) => Err(fatal.to_error()),
        None => Ok(()),
    }
}

/// A frame drained its events with only `executed` instructions run:
/// some port was never fed.
pub(crate) fn stalled(block: &DataflowBlock, iter: u64, executed: usize) -> DlpError {
    DlpError::MalformedProgram {
        detail: format!(
            "block {}: iteration {iter} stalled with {executed}/{} instructions executed",
            block.name(),
            block.len()
        ),
    }
}

/// Close a drained run: a fault escalated by the very last event (no
/// successor pop observed it), then the iteration count, then the
/// epilogue with completion tick `ticks`.
pub(crate) fn finish(
    m: &mut Machine,
    stats: SimStats,
    block: &DataflowBlock,
    done_iters: u64,
    ticks: Tick,
) -> Result<SimStats, DlpError> {
    if let Some(fatal) = m.fault.fatal() {
        return Err(fatal.to_error());
    }
    if done_iters != stats.iterations {
        return Err(DlpError::MalformedProgram {
            detail: format!(
                "block {}: completed {done_iters}/{} iterations",
                block.name(),
                stats.iterations
            ),
        });
    }
    Ok(finish_run(m, stats, ticks))
}
