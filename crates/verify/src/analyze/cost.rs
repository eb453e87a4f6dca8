//! Sound static cost models: lower bounds on `sim_cycles`.
//!
//! Each model mirrors a *subset* of the simulator's timing rules —
//! exactly the monotone ones — and drops everything that can only add
//! time (network contention and queueing, memory-bank conflicts, cache
//! misses, store-buffer drain, fault retries, setup blocks). What
//! remains is a certified lower bound: for every lowering the engine
//! can run, `bound_cycles <= stats.sim_cycles()`. The bound is proven
//! in-tree against all cells of the experiment grid by
//! `tests/cost_soundness`.
//!
//! Three resource arguments compose by `max`:
//!
//! * **Fetch/dependence** — the fetch engine streams the block before
//!   the first iteration seeds, and a sink completes no earlier than
//!   its seed start plus the placed critical path (node latencies plus
//!   `hop_ticks x` Manhattan distance per forwarded operand).
//! * **Issue** — every node issues at most one instruction per cycle
//!   ([`Throttle`] capacity 1), so the busiest node's `iterations x K`
//!   issues occupy that many distinct cycles, none earlier than the
//!   first seed.
//! * **Register-bank ports** — each bank injects at most
//!   `reg_reads_per_bank_per_cycle` operands per cycle, so a bank
//!   serving `R` reads occupies `ceil(R / ports)` distinct cycles.
//!
//! The MIMD model is simpler: a rank cannot halt before the broadcast
//! fetch completes plus the *cheapest* path from `pc 0` to a `Halt`,
//! every instruction advancing the rank clock by at least its weight.
//!
//! [`Throttle`]: ../../../trips_mem/struct.Throttle.html

use std::collections::{BinaryHeap, HashMap};

use dlp_common::{ticks_to_cycles, wcode, GridShape, Tick, TimingParams};
use trips_isa::{MimdOp, MimdProgram, Opcode, PlacedInst, Target};

use super::Warning;

/// Fetch-engine occupancy for streaming `insts` instructions.
///
/// Duplicates `Machine::fetch_ticks` (crates/sim/src/machine.rs), which
/// is crate-private there; `tests/cost_soundness` keeps the two honest.
#[must_use]
pub fn fetch_ticks(insts: usize, timing: &TimingParams) -> Tick {
    let per_cycle = u64::from(timing.fetch.insts_per_cycle.max(1));
    (insts as u64).div_ceil(per_cycle) * 2
}

/// Baseline (ILP-mode) fetch occupancy for one kernel instance: the
/// instance streams as a sequence of budget-bounded hyperblocks with a
/// dispatch bubble between them. Mirrors `Machine::fetch_ticks_baseline`.
#[must_use]
pub fn fetch_ticks_baseline(insts: usize, grid: GridShape, timing: &TimingParams) -> Tick {
    let per_cycle = u64::from(timing.fetch.insts_per_cycle.max(1));
    let chunk = (timing.core.baseline_slots_per_node * grid.nodes()).max(1);
    let blocks = insts.max(1).div_ceil(chunk) as u64;
    (insts as u64).div_ceil(per_cycle) * 2 + (blocks - 1) * 4
}

/// The weight of one placed instruction on the critical path: the time
/// from issue to the earliest tick its result can leave the node.
/// `Nop` never produces an event; `Lut` hits the node-local L0 store.
fn node_weight(op: Opcode, timing: &TimingParams) -> Tick {
    match op {
        Opcode::Nop => 0,
        Opcode::Lut => timing.mem.l0_latency,
        _ => op.latency(&timing.ops),
    }
}

/// Static cost model of one dataflow lowering.
///
/// Built once per prepared plan; [`DataflowCost::bound_ticks`] then
/// evaluates the bound for any iteration count, so a single analysis
/// serves every record count the sweep asks for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataflowCost {
    /// One-time mapping latency charged before the first fetch.
    pub map_overhead: Tick,
    /// Fetch occupancy per streamed kernel instance.
    pub per_fetch: Tick,
    /// Whether instruction revitalization keeps the block resident
    /// (fetch once) instead of re-streaming it per iteration.
    pub inst_revit: bool,
    /// Revitalization broadcast delay between resident iterations.
    pub revitalize_delay: Tick,
    /// Placed critical path in ticks: node latencies plus per-hop
    /// forwarding along the longest root-to-sink chain.
    pub critical_path: Tick,
    /// Non-`Nop` instructions on the busiest node (issue pressure `K`).
    pub max_node_insts: u64,
    /// Register reads per bank on the first iteration.
    pub bank_first: Vec<u64>,
    /// Register reads per bank on every later iteration (persistent
    /// reads drop out under operand revitalization).
    pub bank_rest: Vec<u64>,
    /// Injection ports per bank per cycle.
    pub reads_per_bank: u64,
}

impl DataflowCost {
    /// Analyze `block` as lowered for `grid` under `timing` and the
    /// given mechanism flags. Also reports cost-model advisories
    /// (currently [`wcode::ISSUE_HOTSPOT`]).
    #[must_use]
    pub fn of(
        block: &trips_isa::DataflowBlock,
        grid: GridShape,
        timing: &TimingParams,
        inst_revit: bool,
        op_revit: bool,
    ) -> (Self, Vec<Warning>) {
        let insts = block.insts();
        let critical_path = critical_path_ticks(insts, timing);

        // Issue pressure: non-Nop instructions per node.
        let mut per_node: HashMap<(u8, u8), u64> = HashMap::new();
        for inst in insts {
            if !matches!(inst.op, Opcode::Nop) {
                *per_node.entry((inst.slot.node.row, inst.slot.node.col)).or_insert(0) += 1;
            }
        }
        let (&hot_node, &max_node_insts) =
            per_node.iter().max_by_key(|&(c, n)| (*n, std::cmp::Reverse(*c))).unwrap_or((&(0, 0), &0));

        // Register-bank pressure: reads per bank, first vs later
        // iterations (operand revitalization skips persistent reads
        // after the first seed; without instruction revitalization
        // every iteration seeds fresh).
        let banks = timing.core.reg_banks.max(1) as usize;
        let mut bank_first = vec![0u64; banks];
        let mut bank_rest = vec![0u64; banks];
        for rr in block.reg_reads() {
            let bank = rr.reg as usize % banks;
            bank_first[bank] += 1;
            if !(inst_revit && op_revit && rr.persistent) {
                bank_rest[bank] += 1;
            }
        }

        let per_fetch = if inst_revit {
            fetch_ticks(block.len(), timing)
        } else {
            fetch_ticks_baseline(block.len(), grid, timing)
        };
        let cost = DataflowCost {
            map_overhead: timing.fetch.map_overhead,
            per_fetch,
            inst_revit,
            revitalize_delay: timing.fetch.revitalize_delay,
            critical_path,
            max_node_insts,
            bank_first,
            bank_rest,
            reads_per_bank: u64::from(timing.core.reg_reads_per_bank_per_cycle.max(1)),
        };

        let mut warnings = Vec::new();
        if max_node_insts > 1 && 2 * max_node_insts > critical_path {
            warnings.push(Warning::new(
                wcode::ISSUE_HOTSPOT,
                format!("node ({},{})", hot_node.0, hot_node.1),
                format!(
                    "{max_node_insts} instructions serialize on one node's issue port \
                     ({} ticks) beyond the {critical_path}-tick critical path",
                    2 * max_node_insts
                ),
            ));
        }
        (cost, warnings)
    }

    /// The sound lower bound in ticks for a run of `iterations` block
    /// iterations: `max` of the fetch/dependence, issue, and bank
    /// arguments. Zero iterations run nothing.
    #[must_use]
    pub fn bound_ticks(&self, iterations: u64) -> Tick {
        if iterations == 0 {
            return 0;
        }
        // First seed cannot start before mapping plus the first fetch.
        let s1 = self.map_overhead + self.per_fetch;
        let mut bound = if self.inst_revit {
            // Resident block: iterations chain through revitalization,
            // each traversing the critical path.
            s1 + iterations * self.critical_path + (iterations - 1) * self.revitalize_delay
        } else {
            // Re-streamed block: the fetch engine serializes instances;
            // the last instance still traverses the critical path.
            self.map_overhead + iterations * self.per_fetch + self.critical_path
        };
        if self.max_node_insts > 0 {
            // `iterations * K` issues on a 1-per-cycle port, none
            // earlier than cycle `s1 / 2`.
            bound = bound.max(2 * (s1 / 2 + iterations * self.max_node_insts - 1));
        }
        for (first, rest) in self.bank_first.iter().zip(&self.bank_rest) {
            let reads = first + (iterations - 1) * rest;
            if reads > 0 {
                bound = bound.max(2 * (s1 / 2 + reads.div_ceil(self.reads_per_bank) - 1));
            }
        }
        bound
    }

    /// [`DataflowCost::bound_ticks`] in cycles — directly comparable to
    /// `SimStats::sim_cycles()` (the conversion is monotone).
    #[must_use]
    pub fn bound_cycles(&self, iterations: u64) -> u64 {
        ticks_to_cycles(self.bound_ticks(iterations))
    }
}

/// Longest root-to-sink path over the placed block: node weights from
/// [`node_weight`], edge weights `hop_ticks x` Manhattan distance for
/// forwarded operands. Edges out of `Lmw` weigh zero (words stream from
/// the memory port, not the issuing node); `Reg` targets leave the
/// block. A malformed (cyclic) block yields 0 — still a lower bound.
fn critical_path_ticks(insts: &[PlacedInst], timing: &TimingParams) -> Tick {
    let by_slot: HashMap<_, _> =
        insts.iter().enumerate().map(|(i, inst)| (inst.slot, i)).collect();
    let mut succs: Vec<Vec<(usize, Tick)>> = vec![Vec::new(); insts.len()];
    let mut indeg = vec![0usize; insts.len()];
    for (i, inst) in insts.iter().enumerate() {
        if matches!(inst.op, Opcode::Nop) {
            continue; // a Nop never fires an event: no outgoing edges
        }
        for tgt in &inst.targets {
            let Target::Port { slot, .. } = tgt else { continue };
            let Some(&j) = by_slot.get(slot) else { continue };
            let hops = if matches!(inst.op, Opcode::Lmw) {
                0
            } else {
                u64::from(inst.slot.node.manhattan(slot.node)) * timing.net.hop_ticks
            };
            succs[i].push((j, hops));
            indeg[j] += 1;
        }
    }
    let mut finish = vec![0u64; insts.len()];
    let mut queue: Vec<usize> =
        (0..insts.len()).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0usize;
    let mut cp = 0u64;
    while let Some(i) = queue.pop() {
        seen += 1;
        finish[i] += node_weight(insts[i].op, timing);
        cp = cp.max(finish[i]);
        for &(j, edge) in &succs[i] {
            finish[j] = finish[j].max(finish[i] + edge);
            indeg[j] -= 1;
            if indeg[j] == 0 {
                queue.push(j);
            }
        }
    }
    if seen == insts.len() {
        cp
    } else {
        0 // cycle: the legality verifier rejects it; stay sound
    }
}

/// Static cost model of one MIMD partition.
///
/// The bound is record-count independent: the per-record loop lives
/// *inside* each rank's program, and the model only claims the cheapest
/// complete traversal. [`MimdCost::estimate_ticks`] adds an (unsound)
/// per-record extrapolation for scheduling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MimdCost {
    /// Broadcast fetch of the longest program before any rank steps.
    pub start: Tick,
    /// Max over non-empty ranks of the cheapest `pc 0 -> Halt` path.
    pub max_rank_path: Tick,
    /// Total instruction weight across ranks divided by rank count —
    /// the per-record term of the scheduling estimate.
    pub per_record_estimate: Tick,
}

impl MimdCost {
    /// Analyze a partition (the slice handed to the engine, replicas
    /// included) under `timing`.
    #[must_use]
    pub fn of(progs: &[MimdProgram], timing: &TimingParams) -> Self {
        let active: Vec<&MimdProgram> = progs.iter().filter(|p| !p.is_empty()).collect();
        if active.is_empty() {
            return MimdCost { start: 0, max_rank_path: 0, per_record_estimate: 0 };
        }
        let longest = progs.iter().map(MimdProgram::len).max().unwrap_or(0);
        let start = fetch_ticks(longest, timing);
        let max_rank_path =
            active.iter().map(|p| min_halt_path(p, timing)).max().unwrap_or(0);
        let total_weight: u64 = active
            .iter()
            .flat_map(|p| p.insts().iter())
            .map(|inst| mimd_weight(inst.op, timing))
            .sum();
        MimdCost {
            start,
            max_rank_path,
            per_record_estimate: total_weight / active.len() as u64,
        }
    }

    /// The sound lower bound in ticks: no rank halts before the fetch
    /// completes plus its cheapest path to `Halt`. Requires at least
    /// one record (the grid always runs some); an empty partition
    /// bounds nothing.
    #[must_use]
    pub fn bound_ticks(&self) -> Tick {
        self.start + self.max_rank_path
    }

    /// [`MimdCost::bound_ticks`] in cycles.
    #[must_use]
    pub fn bound_cycles(&self) -> u64 {
        ticks_to_cycles(self.bound_ticks())
    }

    /// Scheduling estimate: the bound plus a per-record extrapolation.
    /// **Not** sound — ordering key only.
    #[must_use]
    pub fn estimate_ticks(&self, records: u64) -> Tick {
        self.bound_ticks() + records * self.per_record_estimate
    }
}

/// Minimum time one instruction advances its rank's clock. Loads and
/// sends also traverse the network, which only adds; a `Recv` consumes
/// its message with an ALU-latency step once data is present (waiting
/// only delays). `Halt` retires the rank instantly.
fn mimd_weight(op: MimdOp, timing: &TimingParams) -> Tick {
    match op {
        MimdOp::Alu(o) | MimdOp::AluI(o) => o.latency(&timing.ops),
        MimdOp::Li => timing.ops.mov,
        MimdOp::Lut => timing.mem.l0_latency,
        MimdOp::Halt => 0,
        MimdOp::Ld(_)
        | MimdOp::St(_)
        | MimdOp::Jmp
        | MimdOp::Bez
        | MimdOp::Bnz
        | MimdOp::Send
        | MimdOp::Recv => timing.ops.int_alu,
    }
}

/// Cheapest-cost path from `pc 0` to any `Halt`, taking the cheaper arm
/// of every conditional (Dijkstra; weights are non-negative). A program
/// with no reachable `Halt` deadlocks or trips the watchdog — such runs
/// return errors, not stats, so 0 keeps the model trivially sound.
fn min_halt_path(prog: &MimdProgram, timing: &TimingParams) -> Tick {
    let insts = prog.insts();
    let mut dist = vec![u64::MAX; insts.len()];
    let mut heap = BinaryHeap::new();
    dist[0] = 0;
    heap.push(std::cmp::Reverse((0u64, 0usize)));
    while let Some(std::cmp::Reverse((d, pc))) = heap.pop() {
        if d > dist[pc] {
            continue;
        }
        let inst = insts[pc];
        if matches!(inst.op, MimdOp::Halt) {
            return d;
        }
        let w = mimd_weight(inst.op, timing);
        let target = usize::try_from(inst.imm.max(0)).unwrap_or(usize::MAX);
        let succs: &[usize] = match inst.op {
            MimdOp::Jmp => &[target],
            MimdOp::Bez | MimdOp::Bnz => &[pc + 1, target],
            _ => &[pc + 1],
        };
        for &s in succs {
            if s < insts.len() && dist[s] > d + w {
                dist[s] = d + w;
                heap.push(std::cmp::Reverse((dist[s], s)));
            }
        }
    }
    0
}

/// Advisory for a configured watchdog: warn when the *lower* bound
/// already consumes more than half the budget — any contention the
/// model ignores may push the run over ([`wcode::WATCHDOG_MARGIN`]).
#[must_use]
pub fn watchdog_margin(span: &str, bound_ticks: Tick, watchdog_ticks: Tick) -> Option<Warning> {
    if watchdog_ticks > 0 && bound_ticks * 2 > watchdog_ticks {
        Some(Warning::new(
            wcode::WATCHDOG_MARGIN,
            span,
            format!(
                "static lower bound {bound_ticks} ticks exceeds half the \
                 {watchdog_ticks}-tick watchdog budget"
            ),
        ))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_common::{Coord, Value};
    use trips_isa::{DataflowBlock, MemSpace, MimdAsm, Port, Slot};

    fn slot(r: u8, c: u8, i: u16) -> Slot {
        Slot::new(Coord::new(r, c), i)
    }

    /// movi -> add -> store placed on a diagonal: CP = mov + 1 hop +
    /// int_alu + 2 hops + int_alu (store address handoff).
    fn chain_block() -> DataflowBlock {
        let s0 = slot(0, 0, 0);
        let s1 = slot(0, 1, 0);
        let s2 = slot(1, 2, 0);
        let mut a = PlacedInst::new(s0, Opcode::MovI);
        a.imm = Some(Value::from_u64(7));
        a.targets = vec![Target::port(s1, Port::Left)];
        let mut b = PlacedInst::new(s1, Opcode::Add);
        b.imm = Some(Value::from_u64(1));
        b.targets = vec![Target::port(s2, Port::Left)];
        let mut st = PlacedInst::new(s2, Opcode::Store(MemSpace::L1));
        st.imm = Some(Value::from_u64(0));
        DataflowBlock::new("chain", vec![a, b, st], vec![])
    }

    #[test]
    fn critical_path_includes_hops_and_latencies() {
        let timing = TimingParams::default();
        let (cost, warnings) =
            DataflowCost::of(&chain_block(), GridShape::new(4, 4), &timing, true, false);
        // mov 2 + hop 1 + int_alu 2 + 2 hops + int_alu 2 = 9 ticks.
        assert_eq!(cost.critical_path, 9);
        assert_eq!(cost.max_node_insts, 1); // one inst per node
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn revitalized_iterations_chain_through_the_critical_path() {
        let timing = TimingParams::default();
        let (cost, _) =
            DataflowCost::of(&chain_block(), GridShape::new(4, 4), &timing, true, false);
        assert_eq!(cost.bound_ticks(0), 0);
        let s1 = timing.fetch.map_overhead + cost.per_fetch;
        assert_eq!(cost.bound_ticks(1), s1 + 9);
        assert_eq!(
            cost.bound_ticks(10),
            s1 + 10 * 9 + 9 * timing.fetch.revitalize_delay
        );
        // Monotone in iterations, and cycles round up.
        assert!(cost.bound_cycles(10) >= cost.bound_cycles(1));
        assert_eq!(cost.bound_cycles(1), ticks_to_cycles(cost.bound_ticks(1)));
    }

    #[test]
    fn baseline_restreams_every_iteration() {
        let timing = TimingParams::default();
        let grid = GridShape::new(4, 4);
        let (cost, _) = DataflowCost::of(&chain_block(), grid, &timing, false, false);
        assert_eq!(cost.per_fetch, fetch_ticks_baseline(3, grid, &timing));
        let i = 20;
        assert_eq!(
            cost.bound_ticks(i),
            timing.fetch.map_overhead + i * cost.per_fetch + cost.critical_path
        );
    }

    #[test]
    fn issue_pressure_dominates_a_serialized_node() {
        let timing = TimingParams::default();
        // 12 independent MovIs crammed onto one node: issue-bound.
        let node = slot(0, 0, 0).node;
        let insts: Vec<PlacedInst> = (0..12)
            .map(|i| {
                let mut p = PlacedInst::new(Slot::new(node, i), Opcode::MovI);
                p.imm = Some(Value::from_u64(u64::from(i)));
                p
            })
            .collect();
        let blk = DataflowBlock::new("hot", insts, vec![]);
        let (cost, warnings) =
            DataflowCost::of(&blk, GridShape::new(4, 4), &timing, true, true);
        assert_eq!(cost.max_node_insts, 12);
        assert_eq!(cost.critical_path, timing.ops.mov); // all independent
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].code, wcode::ISSUE_HOTSPOT);
        let s1 = timing.fetch.map_overhead + cost.per_fetch;
        let iters = 8;
        assert_eq!(cost.bound_ticks(iters), 2 * (s1 / 2 + iters * 12 - 1));
    }

    #[test]
    fn bank_pressure_and_operand_revitalization() {
        let timing = TimingParams::default();
        let banks = timing.core.reg_banks as u16;
        // 6 reads of registers all mapping to bank 1; half persistent.
        let reads: Vec<trips_isa::RegRead> = (0..6)
            .map(|i| trips_isa::RegRead {
                reg: 1 + i * banks,
                targets: vec![Target::port(slot(0, 0, 0), Port::Left)],
                persistent: i % 2 == 0,
            })
            .collect();
        let mut sink = PlacedInst::new(slot(0, 0, 0), Opcode::Add);
        sink.imm = Some(Value::ZERO);
        let blk = DataflowBlock::new("banky", vec![sink], reads);
        let (norevit, _) =
            DataflowCost::of(&blk, GridShape::new(4, 4), &timing, true, false);
        assert_eq!(norevit.bank_first[1], 6);
        assert_eq!(norevit.bank_rest[1], 6);
        let (revit, _) = DataflowCost::of(&blk, GridShape::new(4, 4), &timing, true, true);
        assert_eq!(revit.bank_rest[1], 3); // persistent reads drop out
        assert!(revit.bound_ticks(50) <= norevit.bound_ticks(50));
    }

    #[test]
    fn mimd_bound_takes_the_cheapest_branch_arm() {
        let timing = TimingParams::default();
        let mut asm = MimdAsm::new();
        asm.li(1, 5); // mov
        asm.bez(1, "out"); // int_alu; cheap arm jumps straight out
        asm.alui(Opcode::FSqrt, 2, 2, 0); // expensive arm, not on min path
        asm.label("out");
        asm.halt();
        let p = asm.assemble().unwrap();
        let cost = MimdCost::of(std::slice::from_ref(&p), &timing);
        assert_eq!(cost.start, fetch_ticks(4, &timing));
        assert_eq!(cost.max_rank_path, timing.ops.mov + timing.ops.int_alu);
        assert_eq!(cost.bound_ticks(), cost.start + cost.max_rank_path);
        // The estimate extrapolates per record and stays above the bound.
        assert!(cost.estimate_ticks(64) >= cost.bound_ticks());
        // Empty partitions bound nothing.
        assert_eq!(MimdCost::of(&[], &timing).bound_ticks(), 0);
        assert_eq!(MimdCost::of(&[MimdProgram::default()], &timing).bound_ticks(), 0);
    }

    #[test]
    fn watchdog_margin_fires_past_half_budget() {
        assert!(watchdog_margin("cell", 0, 100).is_none());
        assert!(watchdog_margin("cell", 50, 100).is_none());
        let w = watchdog_margin("cell", 51, 100).unwrap();
        assert_eq!(w.code, wcode::WATCHDOG_MARGIN);
        assert_eq!(w.span, "cell");
        assert!(watchdog_margin("cell", 51, 0).is_none(), "no watchdog, no margin");
    }
}
