//! MIMD semantics: the static program checks, the node-state file and
//! rank map, instruction stepping, and the run's error and completion
//! rules — shared by the scalar engine ([`crate::mimd`]) and the
//! lane-batched engine (`batch::mimd`).

use std::collections::VecDeque;

use dlp_common::{Coord, DlpError, GridShape, SimStats, Tick, Value};
use trips_isa::{
    MemSpace, MimdInst, MimdOp, MimdProgram, OpClass, OpRole, Opcode, REG_NODE_COUNT, REG_NODE_ID,
    REG_RECORDS,
};
use trips_noc::Endpoint;

use super::finish_run;
use crate::Machine;

/// Architectural registers per MIMD node.
const NUM_MIMD_REGS: usize = 32;
/// [`NodeFile::blocked`] sentinel: not blocked on any receive.
const NOT_BLOCKED: u32 = u32::MAX;
/// [`NodeFile::blocked`] sentinel: blocked on a nonexistent peer — no
/// `Send` can ever match it, so the class deadlocks.
const BLOCKED_NO_PEER: u32 = u32::MAX - 1;

/// Outcome of executing one instruction.
pub(crate) enum Step {
    /// Node continues; next instruction may start at this tick.
    Continue(Tick),
    /// Node executed `halt`, or blocked on a `Recv` (a send or the
    /// message's arrival re-queues it).
    Parked,
}

/// In-flight messages `src rank -> dst rank`: FIFO of (arrival tick, value).
///
/// A flat table indexed `src * n_ranks + dst`, so every `Send`/`Recv` is a
/// dense array access instead of a hash lookup.
#[derive(Default)]
pub(crate) struct Channels {
    queues: Vec<VecDeque<(Tick, Value)>>,
    n_ranks: usize,
}

impl Channels {
    /// Size the table for `n_ranks` and empty every channel, retaining
    /// each queue's allocation from prior runs.
    pub(crate) fn reset(&mut self, n_ranks: usize) {
        for q in &mut self.queues {
            q.clear();
        }
        self.queues.resize_with(n_ranks * n_ranks, VecDeque::new);
        self.n_ranks = n_ranks;
    }

    fn get_mut(&mut self, src: usize, dst: usize) -> &mut VecDeque<(Tick, Value)> {
        &mut self.queues[src * self.n_ranks + dst]
    }
}

/// Node state for `nc` lane classes, class index innermost: registers
/// `[rank][reg][class]` (one contiguous row per architectural register),
/// program counters `[rank][class]`, one halted mask per rank, and
/// blocked-receive markers `[rank][class]`. The scalar engine is the
/// one-class case.
#[derive(Default)]
pub(crate) struct NodeFile {
    nc: usize,
    pub(crate) regs: Vec<Value>,
    pub(crate) pc: Vec<u32>,
    pub(crate) halted: Vec<u64>,
    /// Source rank a `Recv` waits on, [`NOT_BLOCKED`], or
    /// [`BLOCKED_NO_PEER`].
    blocked: Vec<u32>,
}

impl NodeFile {
    /// Reset for `n_ranks` ranks and `stats.len()` classes, preloading
    /// every class with the register conventions (`r30` node rank, `r31`
    /// `n_ranks`, `r29` `records`) and raising each class's `iterations`
    /// to `records`.
    pub(crate) fn reset(&mut self, n_ranks: usize, stats: &mut [SimStats], records: u64) {
        let nc = stats.len();
        self.nc = nc;
        self.regs.clear();
        self.regs.resize(n_ranks * NUM_MIMD_REGS * nc, Value::ZERO);
        self.pc.clear();
        self.pc.resize(n_ranks * nc, 0);
        self.halted.clear();
        self.halted.resize(n_ranks, 0);
        self.blocked.clear();
        self.blocked.resize(n_ranks * nc, NOT_BLOCKED);
        for rank in 0..n_ranks {
            for (r, v) in [
                (REG_NODE_ID, rank as u64),
                (REG_NODE_COUNT, n_ranks as u64),
                (REG_RECORDS, records),
            ] {
                let i = self.row(rank, r);
                self.regs[i..i + nc].fill(Value::from_u64(v));
            }
        }
        for st in stats {
            st.iterations = st.iterations.max(records);
        }
    }

    /// Start of register `r`'s class row on `rank`.
    pub(crate) fn row(&self, rank: usize, r: u8) -> usize {
        (rank * NUM_MIMD_REGS + r as usize) * self.nc
    }

    pub(crate) fn pc(&self, rank: usize, c: usize) -> u32 {
        self.pc[rank * self.nc + c]
    }
}

/// Participating node indices in rank order, with each rank's grid
/// coordinate (where `Send dst` routes to).
#[derive(Default)]
pub(crate) struct RankMap {
    pub(crate) ranks: Vec<usize>,
    coords: Vec<Coord>,
}

impl RankMap {
    /// Rebuild for `programs` on `grid`: node `i` (row-major) runs
    /// `programs[i]`; nodes beyond the slice or with empty programs idle.
    /// [`check_programs`] has already rejected a slice longer than the
    /// grid.
    pub(crate) fn build(&mut self, grid: GridShape, programs: &[MimdProgram]) {
        self.ranks.clear();
        self.ranks.extend((0..programs.len()).filter(|&i| !programs[i].is_empty()));
        self.coords.clear();
        self.coords.extend(self.ranks.iter().map(|&i| grid.coord(i)));
    }

    pub(crate) fn len(&self) -> usize {
        self.ranks.len()
    }
}

/// The static checks a MIMD run makes before touching machine state:
/// local PCs, no more programs than array nodes, L0 instruction-store
/// capacity, and the mechanisms each instruction needs.
pub(crate) fn check_programs(m: &Machine, programs: &[MimdProgram]) -> Result<(), DlpError> {
    let mech = m.mechanisms();
    if !mech.local_pc {
        return Err(DlpError::Unsupported {
            what: "MIMD execution without local program counters".into(),
        });
    }
    let nodes = m.grid().nodes();
    if programs.len() > nodes {
        return Err(DlpError::CapacityExceeded {
            resource: "array nodes",
            needed: programs.len(),
            available: nodes,
        });
    }
    let cap = m.params().core.l0_inst_capacity;
    for p in programs {
        if p.len() > cap {
            return Err(DlpError::CapacityExceeded {
                resource: "L0 instruction-store entries",
                needed: p.len(),
                available: cap,
            });
        }
        for inst in p.insts() {
            match inst.op {
                MimdOp::Lut if !mech.l0_data_store => {
                    return Err(DlpError::Unsupported {
                        what: "lut instruction without the L0 data store".into(),
                    })
                }
                MimdOp::Ld(MemSpace::Smc) | MimdOp::St(MemSpace::Smc) if !mech.smc => {
                    return Err(DlpError::Unsupported {
                        what: "SMC memory access without the SMC mechanism".into(),
                    })
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// The setup block: broadcast `programs` into the L0 instruction stores.
/// Returns the tick the nodes start at.
pub(crate) fn broadcast(m: &Machine, stats: &mut SimStats, programs: &[MimdProgram]) -> Tick {
    let longest = programs.iter().map(MimdProgram::len).max().unwrap_or(0);
    stats.blocks_fetched = 1;
    stats.ticks + m.fetch_ticks(longest)
}

/// The step budget follows from the watchdog: with every instruction
/// advancing its node's tick by at least one cycle, a rank can be popped
/// at most once per distinct tick in `0..=watchdog_ticks`. Exceeding it
/// means a zero-latency livelock the tick check alone would never catch.
pub(crate) fn step_budget(m: &Machine, n_ranks: usize) -> u64 {
    (n_ranks as u64).saturating_mul(m.watchdog_ticks.saturating_add(1))
}

/// The per-pop guard: the watchdog and step budget, then any fault
/// latched fatal.
pub(crate) fn guard(
    m: &Machine,
    t: Tick,
    rank: usize,
    pc: u32,
    steps: u64,
    budget: u64,
    n_ranks: usize,
) -> Result<(), DlpError> {
    if t > m.watchdog_ticks || steps > budget {
        return Err(DlpError::Watchdog {
            ticks: t,
            context: format!(
                "mimd rank {rank} at pc {pc} ({steps} steps, budget {budget} = {n_ranks} ranks \
                 x (watchdog {} + 1))",
                m.watchdog_ticks
            ),
        });
    }
    match m.fault.fatal() {
        Some(fatal) => Err(fatal.to_error()),
        None => Ok(()),
    }
}

/// Fetch class `c`'s next instruction on `rank`, or the error for a node
/// whose program counter left its program.
pub(crate) fn fetch(
    prog: &MimdProgram,
    nodes: &NodeFile,
    rank: usize,
    c: usize,
) -> Result<MimdInst, DlpError> {
    prog.insts().get(nodes.pc(rank, c) as usize).copied().ok_or_else(|| {
        DlpError::MalformedProgram {
            detail: format!("mimd node rank {rank} ran off the end of its program"),
        }
    })
}

/// Execute one instruction for class `c` on node `rank` at tick `t`,
/// updating its registers and program counter and returning when the
/// node may proceed.
///
/// `Send` wakes its destination directly (through `wake`) when that node
/// is blocked on the matching channel; a blocked node's channel is always
/// empty, so the arriving message is necessarily the queue front.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub(crate) fn step_inst(
    m: &mut Machine,
    stats: &mut SimStats,
    nodes: &mut NodeFile,
    channels: &mut Channels,
    map: &RankMap,
    c: usize,
    rank: usize,
    t: Tick,
    inst: MimdInst,
    max_drain: &mut Tick,
    wake: &mut impl FnMut(Tick, usize),
) -> Step {
    let nc = nodes.nc;
    let coord = map.coords[rank];
    let pc = rank * nc + c;
    let rd = nodes.row(rank, inst.rd) + c;
    let alu = m.params().ops.int_alu;
    let ra = nodes.regs[nodes.row(rank, inst.ra) + c];
    let rb = nodes.regs[nodes.row(rank, inst.rb) + c];
    let imm = inst.imm;
    let useful = inst.role == OpRole::Useful;

    macro_rules! count {
        ($useful:expr) => {
            if $useful {
                stats.useful_ops += 1;
            } else {
                stats.overhead_ops += 1;
            }
        };
    }

    match inst.op {
        MimdOp::Alu(op) | MimdOp::AluI(op) => {
            let rhs = if matches!(inst.op, MimdOp::AluI(_)) { Value::from_i64(imm) } else { rb };
            // `Sel rd, ra, rb`: rd = ra(predicate) ? rb : rd_old.
            let v = if matches!(op, Opcode::Sel) {
                trips_isa::exec::eval(Opcode::Sel, rhs, nodes.regs[rd], ra)
            } else {
                let (_, needs_r, _) = op.ports();
                trips_isa::exec::eval(op, ra, if needs_r { rhs } else { Value::ZERO }, Value::ZERO)
            };
            nodes.regs[rd] = v;
            nodes.pc[pc] += 1;
            count!(useful && op.class() != OpClass::Mov);
            Step::Continue(t + op.latency(&m.params().ops))
        }
        MimdOp::Li => {
            nodes.regs[rd] = Value::from_u64(imm as u64);
            nodes.pc[pc] += 1;
            count!(false);
            Step::Continue(t + m.params().ops.mov)
        }
        MimdOp::Ld(space) => {
            let addr = ra.as_u64().wrapping_add(imm as u64);
            stats.loads += 1;
            let row = coord.row;
            let req = m.router.send_faulty(
                Endpoint::Node(coord),
                Endpoint::MemPort(row),
                t + alu,
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
                Endpoint::Node(coord),
                served,
                &mut m.fault,
            );
            // The loaded value lands in the node's operand storage; a
            // parity flip there is re-latched from the network buffer.
            let back = m.fault.operand_write(back);
            stats.mem_stall_node_cycles += (back - t) / 2;
            nodes.regs[rd] = m.mem.read(addr);
            nodes.pc[pc] += 1;
            Step::Continue(back)
        }
        MimdOp::St(space) => {
            let addr = ra.as_u64().wrapping_add(imm as u64);
            stats.stores += 1;
            m.mem.write(addr, rb);
            let row = coord.row;
            let req = m.router.send_faulty(
                Endpoint::Node(coord),
                Endpoint::MemPort(row),
                t + alu,
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
            *max_drain = (*max_drain).max(drained);
            nodes.pc[pc] += 1;
            // Stores retire into the buffer; the node moves on.
            Step::Continue(t + alu)
        }
        MimdOp::Lut => {
            let idx = ra.as_u64().wrapping_add(imm as u64);
            stats.l0_accesses += 1;
            nodes.regs[rd] = m.l0_data.get(idx as usize).copied().unwrap_or(Value::ZERO);
            nodes.pc[pc] += 1;
            Step::Continue(t + m.params().mem.l0_latency)
        }
        MimdOp::Jmp => {
            nodes.pc[pc] = jump_target(imm);
            count!(false);
            Step::Continue(t + alu)
        }
        MimdOp::Bez | MimdOp::Bnz => {
            let taken = if matches!(inst.op, MimdOp::Bez) { !ra.is_true() } else { ra.is_true() };
            nodes.pc[pc] = if taken { jump_target(imm) } else { nodes.pc[pc] + 1 };
            count!(false);
            Step::Continue(t + alu)
        }
        MimdOp::Send => {
            let dst = (imm as usize).min(map.len().saturating_sub(1));
            let arrive = m.router.send_faulty(
                Endpoint::Node(coord),
                Endpoint::Node(map.coords[dst]),
                t + alu,
                &mut m.fault,
            );
            // The message parks in the receiver's operand buffer; a
            // flipped entry is re-latched before it becomes visible.
            let arrive = m.fault.operand_write(arrive);
            channels.get_mut(rank, dst).push_back((arrive, ra));
            if nodes.blocked[dst * nc + c] == rank as u32 {
                // The receiver blocked on an empty channel; this message
                // is the front, so it proceeds at the arrival tick.
                nodes.blocked[dst * nc + c] = NOT_BLOCKED;
                wake(arrive, dst);
            }
            nodes.pc[pc] += 1;
            count!(false);
            Step::Continue(t + alu)
        }
        MimdOp::Recv => {
            let src = imm as usize;
            if src >= map.len() {
                // No such peer: block forever (reported as a deadlock).
                nodes.blocked[pc] = BLOCKED_NO_PEER;
                return Step::Parked;
            }
            let q = channels.get_mut(src, rank);
            match q.front().copied() {
                Some((arrive, v)) if arrive <= t => {
                    q.pop_front();
                    nodes.regs[rd] = v;
                    nodes.pc[pc] += 1;
                    count!(false);
                    Step::Continue(t + alu)
                }
                Some((arrive, _)) => {
                    // In flight but not yet arrived: retry at arrival.
                    wake(arrive, rank);
                    Step::Parked
                }
                None => {
                    nodes.blocked[pc] = src as u32;
                    Step::Parked
                }
            }
        }
        MimdOp::Halt => {
            nodes.halted[rank] |= 1u64 << c;
            Step::Parked
        }
    }
}

/// A branch target as a program counter; one no program can hold when
/// `imm` is out of range, so the node runs off the end of its program.
fn jump_target(imm: i64) -> u32 {
    u32::try_from(imm).unwrap_or(u32::MAX)
}

/// Close a drained run for class `c`: a fault escalated by the last step
/// (no successor pop observed it), then any node that never halted, then
/// the epilogue with completion tick `ticks`.
pub(crate) fn finish(
    m: &mut Machine,
    stats: SimStats,
    nodes: &NodeFile,
    c: usize,
    ticks: Tick,
) -> Result<SimStats, DlpError> {
    if let Some(fatal) = m.fault.fatal() {
        return Err(fatal.to_error());
    }
    if let Some(rank) = nodes.halted.iter().position(|h| h & (1u64 << c) == 0) {
        return Err(DlpError::MalformedProgram {
            detail: format!("mimd deadlock: node rank {rank} never halted"),
        });
    }
    Ok(finish_run(m, stats, ticks))
}
