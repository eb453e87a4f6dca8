//! The block-atomic dataflow engine (baseline, S, S-O, S-O-D machines).
//!
//! A [`DataflowBlock`] is mapped onto the array and executed for `N`
//! iterations. Three regimes are modeled, selected by the machine's
//! [`MechanismSet`]:
//!
//! * **Baseline** — every iteration is a fresh block instance, re-fetched
//!   and re-mapped through the pipelined block-fetch engine, with up to
//!   `baseline_frames` instances in flight concurrently (TRIPS frames) and
//!   constants re-read from the register file each instance. Functional
//!   units, the operand mesh, register banks and memory ports are shared
//!   across in-flight instances, so contention is modeled faithfully.
//! * **Instruction revitalization** — the block is fetched once; between
//!   iterations the block control broadcasts a revitalize signal (fixed
//!   delay) that resets reservation-station status bits. Iterations are
//!   serial (the broadcast is a barrier), which is why the scheduler
//!   unrolls aggressively to amortize it (§4.3).
//! * **Operand revitalization** — additionally, operands marked persistent
//!   (and persistent register reads) survive revitalization, so constants
//!   are delivered once per kernel.
//!
//! Events are dispatched through a [`CalendarQueue`] in `(tick, seq)`
//! order — the determinism contract in DESIGN.md — with all per-run
//! tables held in a recyclable [`DataflowScratch`] so repeated runs
//! through one [`EngineArena`](crate::EngineArena) allocate nothing in
//! steady state.

use dlp_common::{DlpError, SimStats, Tick, Value};
use trips_isa::{DataflowBlock, Port};
use trips_mem::Throttle;

use crate::equeue::CalendarQueue;
use crate::semantics::dataflow::{self as sem, port_idx, BlockTables, Ev};
use crate::{EngineArena, Machine};

/// Reservation-station runtime state for one instruction in one frame.
#[derive(Clone, Default)]
struct RsState {
    /// Operand values present at [Left, Right, Pred].
    ops: [Option<Value>; 3],
    executed: bool,
}

/// Per-frame bookkeeping.
struct Frame {
    rs: Vec<RsState>,
    executed: usize,
    /// Outstanding events belonging to this frame.
    pending: usize,
    /// Latest event tick seen for this frame (the iteration's completion).
    last_tick: Tick,
    /// The kernel iteration this frame is running.
    iter: u64,
}

impl Frame {
    fn new(len: usize) -> Self {
        Frame { rs: vec![RsState::default(); len], executed: 0, pending: 0, last_tick: 0, iter: 0 }
    }

    /// Restore the pristine `Frame::new` state, retaining the `rs`
    /// allocation.
    fn reset(&mut self, len: usize) {
        self.rs.clear();
        self.rs.resize(len, RsState::default());
        self.executed = 0;
        self.pending = 0;
        self.last_tick = 0;
        self.iter = 0;
    }
}

/// Recyclable storage for one dataflow run, owned by an
/// [`EngineArena`](crate::EngineArena). Every table is rebuilt per run
/// (the contents depend on the block and machine) but the allocations —
/// including the calendar queue's bucket ring — carry over, so a sweep
/// worker's steady state is allocation-free.
#[derive(Default)]
pub(crate) struct DataflowScratch {
    pub(crate) tables: BlockTables,
    /// The scheduler: `(frame, event)` pairs in `(tick, seq)` order.
    events: CalendarQueue<(), (usize, Ev)>,
    frames: Vec<Frame>,
    /// Per-node issue throttles, indexed by dense grid index.
    node_issue: Vec<Throttle>,
    reg_bank_ports: Vec<Throttle>,
}

/// The push sink the shared semantics write `frame`'s events into.
fn sink<'s>(
    frames: &'s mut [Frame],
    events: &'s mut CalendarQueue<(), (usize, Ev)>,
    frame: usize,
) -> impl FnMut(Tick, Ev) + 's {
    move |t, ev| {
        frames[frame].pending += 1;
        events.push(t, (), (frame, ev));
    }
}

struct Engine<'a> {
    m: &'a mut Machine,
    block: &'a DataflowBlock,
    s: &'a mut DataflowScratch,
    stats: SimStats,
}

impl<'a> Engine<'a> {
    fn new(
        m: &'a mut Machine,
        block: &'a DataflowBlock,
        n_frames: usize,
        s: &'a mut DataflowScratch,
        stats: SimStats,
    ) -> Self {
        // A failed previous run may have left events queued; every other
        // table below is rebuilt unconditionally.
        s.events.clear();

        sem::reset_ports(m, 1, &mut s.node_issue, &mut s.reg_bank_ports);

        s.frames.truncate(n_frames);
        for f in &mut s.frames {
            f.reset(block.len());
        }
        while s.frames.len() < n_frames {
            s.frames.push(Frame::new(block.len()));
        }

        Engine { block, s, stats, m }
    }

    /// Seed one iteration's initial activity at `start` on `frame`.
    fn seed_iteration(&mut self, frame: usize, start: Tick, iter: u64, first: bool) {
        let f = &mut self.s.frames[frame];
        f.iter = iter;
        f.last_tick = f.last_tick.max(start);
        let skip_persistent = !first && self.m.mechanisms().operand_revitalization;
        let s = &mut *self.s;
        sem::seed_reg_reads(
            self.m,
            &mut self.stats,
            self.block,
            &s.tables,
            &mut s.reg_bank_ports,
            start,
            skip_persistent,
            &mut sink(&mut s.frames, &mut s.events, frame),
        );
        // Source instructions with no required operands (MovI, Iter,
        // constant-indexed Lut) fire at iteration start.
        for i in 0..self.block.len() {
            if self.ready(frame, i) {
                self.execute(frame, i, start);
            }
        }
    }

    fn ready(&self, frame: usize, i: usize) -> bool {
        let rs = &self.s.frames[frame].rs[i];
        !rs.executed && (0..3).all(|p| !self.s.tables.required[i][p] || rs.ops[p].is_some())
    }

    /// Issue and execute instruction `i` of `frame`, whose operands became
    /// complete at `t`; schedules all downstream events.
    fn execute(&mut self, frame: usize, i: usize, t: Tick) {
        let f = &mut self.s.frames[frame];
        f.rs[i].executed = true;
        f.executed += 1;
        let (ops, iter) = (f.rs[i].ops, f.iter);
        let s = &mut *self.s;
        sem::execute(
            self.m,
            &mut self.stats,
            self.block,
            &s.tables,
            i,
            &mut s.node_issue[s.tables.inst_node[i]],
            t,
            ops,
            iter,
            &mut sink(&mut s.frames, &mut s.events, frame),
        );
    }

    /// Reset a frame's reservation stations for its next iteration.
    /// `keep_persistent` preserves operand-revitalized values.
    fn reset_frame(&mut self, frame: usize, keep_persistent: bool) {
        let op_revit = keep_persistent && self.m.mechanisms().operand_revitalization;
        for (i, state) in self.s.frames[frame].rs.iter_mut().enumerate() {
            state.executed = false;
            let persist = self.block.insts()[i].persistent;
            for (pi, port) in [Port::Left, Port::Right, Port::Pred].into_iter().enumerate() {
                if !(op_revit && persist.contains(port)) {
                    state.ops[pi] = None;
                }
            }
        }
        self.s.frames[frame].executed = 0;
    }
}

impl Machine {
    /// Execute `block` for `iterations` kernel iterations and return the
    /// run's statistics (including any pending setup cost).
    ///
    /// The regime (pipelined baseline refetch vs serial instruction
    /// revitalization) follows the machine's [`crate::MechanismSet`]; see the
    /// module docs.
    ///
    /// # Errors
    ///
    /// * [`DlpError::MalformedProgram`] — the block fails validation or
    ///   deadlocks (an unfed port).
    /// * [`DlpError::Unsupported`] — the block uses a mechanism (SMC, L0)
    ///   the machine does not have.
    /// * [`DlpError::Watchdog`] — the run exceeded the machine's watchdog
    ///   (see [`Machine::set_watchdog`]).
    pub fn run_dataflow(
        &mut self,
        block: &DataflowBlock,
        iterations: u64,
    ) -> Result<SimStats, DlpError> {
        let mut arena = EngineArena::new();
        self.run_dataflow_in(block, iterations, &mut arena)
    }

    /// As [`Machine::run_dataflow`], reusing `arena`'s scratch storage —
    /// bit-identical statistics, but a caller running many blocks (a
    /// sweep worker) allocates nothing once the arena has warmed up.
    ///
    /// # Errors
    ///
    /// As [`Machine::run_dataflow`].
    pub fn run_dataflow_in(
        &mut self,
        block: &DataflowBlock,
        iterations: u64,
        arena: &mut EngineArena,
    ) -> Result<SimStats, DlpError> {
        let s = &mut arena.dataflow;
        s.tables.build(block, self)?;
        let mut base = self.begin_run();
        base.iterations = iterations;
        let fetch = sem::Fetch::new(self, block);
        let n_frames = fetch.window(iterations);
        let mut fetch_done = fetch.mapped(base.ticks);

        let mut engine = Engine::new(self, block, n_frames, s, base);
        if iterations == 0 {
            return Ok(engine.stats);
        }

        // Seed the initial frames through the (pipelined) fetch engine:
        // map latency once, then throughput-limited block streaming.
        let mut next_iter: u64 = 0;
        for frame in 0..n_frames {
            let start = fetch.fetch(&mut engine.stats, &mut fetch_done);
            engine.seed_iteration(frame, start, next_iter, true);
            next_iter += 1;
            if next_iter >= iterations {
                break;
            }
        }

        // Event loop across all in-flight frames.
        let mut done_iters: u64 = 0;
        let mut final_tick: Tick = fetch_done;
        while let Some((tick, (), (frame, ev))) = engine.s.events.pop() {
            sem::guard(engine.m, block, tick, done_iters, iterations)?;
            let f = &mut engine.s.frames[frame];
            f.pending -= 1;
            f.last_tick = f.last_tick.max(tick);
            if let Ev::Operand { inst, port, value } = ev {
                f.rs[inst].ops[port_idx(port)] = Some(value);
                if engine.ready(frame, inst) {
                    engine.execute(frame, inst, tick);
                }
            }
            let f = &engine.s.frames[frame];
            if f.pending == 0 {
                // Iteration complete (or deadlocked).
                if f.executed != block.len() {
                    return Err(sem::stalled(block, f.iter, f.executed));
                }
                done_iters += 1;
                let t = f.last_tick;
                final_tick = final_tick.max(t);
                if next_iter < iterations {
                    engine.reset_frame(frame, fetch.keeps_operands());
                    let start = fetch.restart(&mut engine.stats, &mut fetch_done, t);
                    engine.seed_iteration(frame, start, next_iter, false);
                    next_iter += 1;
                }
            }
        }

        let stats = engine.stats;
        sem::finish(self, stats, block, done_iters, final_tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_common::{Coord, GridShape, TimingParams};
    use trips_isa::{MemSpace, Opcode, PlacedInst, PortSet, RegRead, Slot, Target};

    use crate::MechanismSet;

    fn machine(mech: MechanismSet) -> Machine {
        Machine::new(GridShape::new(8, 8), TimingParams::default(), mech)
    }

    fn slot(r: u8, c: u8, i: u16) -> Slot {
        Slot::new(Coord::new(r, c), i)
    }

    /// in -> add(imm 5) -> reg0, one source movi.
    fn tiny_block() -> DataflowBlock {
        let s0 = slot(0, 0, 0);
        let s1 = slot(0, 1, 0);
        let mut a = PlacedInst::new(s0, Opcode::MovI);
        a.imm = Some(Value::from_u64(10));
        a.targets = vec![Target::port(s1, Port::Left)];
        let mut b = PlacedInst::new(s1, Opcode::Add);
        b.imm = Some(Value::from_u64(5));
        b.targets = vec![Target::Reg(0)];
        DataflowBlock::new("tiny", vec![a, b], vec![])
    }

    #[test]
    fn computes_correct_value() {
        let mut m = machine(MechanismSet::baseline());
        let stats = m.run_dataflow(&tiny_block(), 1).unwrap();
        assert_eq!(m.reg(0).as_u64(), 15);
        assert_eq!(stats.iterations, 1);
        assert!(stats.ticks > 0);
        assert_eq!(stats.useful_ops, 1); // the add
    }

    #[test]
    fn arena_reuse_is_bit_identical() {
        // The same arena threaded through heterogeneous runs (different
        // blocks, frame counts, mechanism sets) must not perturb any
        // statistic relative to fresh-arena runs.
        let mut arena = EngineArena::new();
        let mut m = machine(MechanismSet::baseline());
        let fresh_base = m.run_dataflow(&tiny_block(), 10).unwrap();
        let mut m = machine(MechanismSet::baseline());
        let arena_base = m.run_dataflow_in(&tiny_block(), 10, &mut arena).unwrap();
        assert_eq!(fresh_base, arena_base, "baseline: arena == fresh");

        let mut m = machine(MechanismSet::simd());
        let fresh_revit = m.run_dataflow(&const_block(false), 20).unwrap();
        let mut m = machine(MechanismSet::simd());
        let arena_revit = m.run_dataflow_in(&const_block(false), 20, &mut arena).unwrap();
        assert_eq!(fresh_revit, arena_revit, "revitalized: arena == fresh");

        // And back to the first block: stale tables must not leak.
        let mut m = machine(MechanismSet::baseline());
        let again = m.run_dataflow_in(&tiny_block(), 10, &mut arena).unwrap();
        assert_eq!(fresh_base, again, "arena reused across blocks");
    }

    #[test]
    fn iter_opcode_produces_indices() {
        // iter -> store to addr iter (order-independent check).
        let s0 = slot(0, 0, 0);
        let s1 = slot(0, 1, 0);
        let s2 = slot(0, 2, 0);
        let mut a = PlacedInst::new(s0, Opcode::Iter);
        a.targets = vec![Target::port(s1, Port::Left), Target::port(s2, Port::Right)];
        let mut addr = PlacedInst::new(s1, Opcode::Add);
        addr.imm = Some(Value::from_u64(100));
        addr.targets = vec![Target::port(s2, Port::Left)];
        let st = PlacedInst::new(s2, Opcode::Store(MemSpace::L1));
        let blk = DataflowBlock::new("it", vec![a, addr, st], vec![]);
        let mut m = machine(MechanismSet::simd_operand());
        // SIMD machine without SMC ops: store via L1 is fine.
        let stats = m.run_dataflow(&blk, 5).unwrap();
        for i in 0..5u64 {
            assert_eq!(m.memory().read(100 + i).as_u64(), i, "iteration {i}");
        }
        assert_eq!(stats.revitalizations, 4);
        assert_eq!(stats.blocks_fetched, 1);
    }

    #[test]
    fn baseline_refetches_every_iteration() {
        let mut m = machine(MechanismSet::baseline());
        let stats = m.run_dataflow(&tiny_block(), 10).unwrap();
        assert_eq!(stats.blocks_fetched, 10);
        assert_eq!(stats.revitalizations, 0);
    }

    #[test]
    fn baseline_pipelines_blocks_across_frames() {
        // With 8 frames in flight, 64 iterations should take far less than
        // 64 × (single-iteration latency).
        let mut m = machine(MechanismSet::baseline());
        let one = m.run_dataflow(&tiny_block(), 1).unwrap();
        let mut m2 = machine(MechanismSet::baseline());
        let many = m2.run_dataflow(&tiny_block(), 64).unwrap();
        assert!(
            many.ticks < one.ticks * 40,
            "64 iterations ({}) should pipeline, not serialize ({} each)",
            many.ticks,
            one.ticks
        );
    }

    #[test]
    fn frames_are_bounded_by_iteration_count() {
        // A 2-iteration run must not seed 8 frames' worth of fetches.
        let mut m = machine(MechanismSet::baseline());
        let stats = m.run_dataflow(&tiny_block(), 2).unwrap();
        assert_eq!(stats.blocks_fetched, 2);
    }

    #[test]
    fn revitalization_avoids_refetch_and_is_faster_per_fetch() {
        let mut m = machine(MechanismSet::simd());
        let revit = m.run_dataflow(&tiny_block(), 50).unwrap();
        assert_eq!(revit.blocks_fetched, 1);
        assert_eq!(revit.revitalizations, 49);
    }

    /// A block with a register-read constant: iter + r5 -> store at iter.
    fn const_block(persistent: bool) -> DataflowBlock {
        let s0 = slot(0, 0, 0);
        let s1 = slot(0, 1, 0);
        let s2 = slot(0, 2, 0);
        let s3 = slot(0, 3, 0);
        let mut it = PlacedInst::new(s0, Opcode::Iter);
        it.targets = vec![Target::port(s1, Port::Left), Target::port(s3, Port::Left)];
        let mut add = PlacedInst::new(s1, Opcode::Add);
        add.targets = vec![Target::port(s2, Port::Right)];
        if persistent {
            add.persistent = PortSet::EMPTY.with(Port::Right);
        }
        let mut addr = PlacedInst::new(s3, Opcode::Add);
        addr.imm = Some(Value::from_u64(200));
        addr.targets = vec![Target::port(s2, Port::Left)];
        let st = PlacedInst::new(s2, Opcode::Store(MemSpace::L1));
        let rr = RegRead { reg: 5, targets: vec![Target::port(s1, Port::Right)], persistent };
        DataflowBlock::new("const", vec![it, add, addr, st], vec![rr])
    }

    #[test]
    fn operand_revitalization_reads_register_once() {
        let mut m = machine(MechanismSet::simd());
        m.set_reg(5, Value::from_u64(100));
        let s = m.run_dataflow(&const_block(false), 20).unwrap();
        assert_eq!(s.reg_reads, 20);
        assert_eq!(m.memory().read(200 + 19).as_u64(), 119);

        let mut m = machine(MechanismSet::simd_operand());
        m.set_reg(5, Value::from_u64(100));
        let s = m.run_dataflow(&const_block(true), 20).unwrap();
        assert_eq!(s.reg_reads, 1, "persistent constant read once");
        assert_eq!(m.memory().read(200 + 19).as_u64(), 119);
    }

    /// iter -> load(smc or l1) from addr iter -> store to 300+iter.
    fn load_store_block(space: MemSpace) -> DataflowBlock {
        let s0 = slot(2, 0, 0);
        let s1 = slot(2, 1, 0);
        let s2 = slot(2, 2, 0);
        let s3 = slot(2, 3, 0);
        let mut it = PlacedInst::new(s0, Opcode::Iter);
        it.targets = vec![Target::port(s1, Port::Left), Target::port(s3, Port::Left)];
        let mut ld = PlacedInst::new(s1, Opcode::Load(space));
        ld.targets = vec![Target::port(s2, Port::Right)];
        let mut addr = PlacedInst::new(s3, Opcode::Add);
        addr.imm = Some(Value::from_u64(300));
        addr.targets = vec![Target::port(s2, Port::Left)];
        let st = PlacedInst::new(s2, Opcode::Store(space));
        DataflowBlock::new("ldst", vec![it, ld, addr, st], vec![])
    }

    #[test]
    fn loads_read_staged_memory() {
        let mut m = machine(MechanismSet::simd());
        for i in 0..8u64 {
            m.memory_mut().write(i, Value::from_u64(i * 11));
        }
        m.stage_smc(0..8).unwrap();
        let s = m.run_dataflow(&load_store_block(MemSpace::Smc), 8).unwrap();
        for i in 0..8u64 {
            assert_eq!(m.memory().read(300 + i).as_u64(), i * 11);
        }
        assert_eq!(s.loads, 8);
        assert!(s.smc_accesses >= 8);
    }

    #[test]
    fn l1_loads_work_on_baseline_with_frames() {
        let mut m = machine(MechanismSet::baseline());
        for i in 0..16u64 {
            m.memory_mut().write(i, Value::from_u64(1000 + i));
        }
        let s = m.run_dataflow(&load_store_block(MemSpace::L1), 16).unwrap();
        for i in 0..16u64 {
            assert_eq!(m.memory().read(300 + i).as_u64(), 1000 + i, "iteration {i}");
        }
        assert!(s.l1_accesses >= 16);
    }

    #[test]
    fn smc_ops_rejected_without_mechanism() {
        let mut m = machine(MechanismSet::baseline());
        assert!(matches!(
            m.run_dataflow(&load_store_block(MemSpace::Smc), 1),
            Err(DlpError::Unsupported { .. })
        ));
    }

    #[test]
    fn lmw_fans_words_across_row() {
        // movi(addr 0) -> lmw 4 words -> 4 adders, summed pairwise to reg0.
        let sa = slot(3, 0, 0);
        let sl = slot(3, 0, 1);
        let t0 = slot(3, 1, 0);
        let t1 = slot(3, 2, 0);
        let t2 = slot(3, 1, 1);
        let t3 = slot(3, 2, 1);
        let mut addr = PlacedInst::new(sa, Opcode::MovI);
        addr.imm = Some(Value::from_u64(0));
        addr.targets = vec![Target::port(sl, Port::Left)];
        let mut lmw = PlacedInst::new(sl, Opcode::Lmw);
        lmw.imm = Some(Value::from_u64(4));
        lmw.targets = vec![
            Target::port(t0, Port::Left),
            Target::port(t0, Port::Right),
            Target::port(t1, Port::Left),
            Target::port(t1, Port::Right),
        ];
        let mut a0 = PlacedInst::new(t0, Opcode::Add);
        a0.targets = vec![Target::port(t2, Port::Left)];
        let mut a1 = PlacedInst::new(t1, Opcode::Add);
        a1.targets = vec![Target::port(t2, Port::Right)];
        let mut a2 = PlacedInst::new(t2, Opcode::Add);
        a2.targets = vec![Target::port(t3, Port::Left)];
        let mut fin = PlacedInst::new(t3, Opcode::Mov);
        fin.targets = vec![Target::Reg(0)];
        let blk = DataflowBlock::new("lmw", vec![addr, lmw, a0, a1, a2, fin], vec![]);

        let mut m = machine(MechanismSet::simd());
        for i in 0..4u64 {
            m.memory_mut().write(i, Value::from_u64(i + 1)); // 1+2+3+4 = 10
        }
        m.stage_smc(0..8).unwrap();
        let s = m.run_dataflow(&blk, 1).unwrap();
        assert_eq!(m.reg(0).as_u64(), 10);
        assert_eq!(s.lmw_words, 4);
        assert_eq!(s.loads, 1, "one LMW counts as one load instruction");
    }

    #[test]
    fn lut_reads_l0_table() {
        let s0 = slot(0, 0, 0);
        let s1 = slot(0, 1, 0);
        let mut it = PlacedInst::new(s0, Opcode::Iter);
        it.targets = vec![Target::port(s1, Port::Left)];
        let mut lut = PlacedInst::new(s1, Opcode::Lut);
        lut.targets = vec![Target::Reg(0)];
        let blk = DataflowBlock::new("lut", vec![it, lut], vec![]);

        let mut m = machine(MechanismSet::simd_operand_l0());
        let table: Vec<Value> = (0..16).map(|i| Value::from_u64(i * i)).collect();
        m.load_l0_table(&table).unwrap();
        let s = m.run_dataflow(&blk, 4).unwrap();
        assert_eq!(m.reg(0).as_u64(), 9); // 3*3
        assert_eq!(s.l0_accesses, 4);
    }

    #[test]
    fn lut_rejected_without_l0() {
        let s0 = slot(0, 0, 0);
        let s1 = slot(0, 1, 0);
        let mut it = PlacedInst::new(s0, Opcode::Iter);
        it.targets = vec![Target::port(s1, Port::Left)];
        let mut lut = PlacedInst::new(s1, Opcode::Lut);
        lut.targets = vec![Target::Reg(0)];
        let blk = DataflowBlock::new("lut", vec![it, lut], vec![]);
        let mut m = machine(MechanismSet::simd());
        assert!(matches!(m.run_dataflow(&blk, 1), Err(DlpError::Unsupported { .. })));
    }

    #[test]
    fn mimd_machine_rejects_dataflow() {
        let mut m = machine(MechanismSet::mimd());
        assert!(matches!(
            m.run_dataflow(&tiny_block(), 1),
            Err(DlpError::Unsupported { .. })
        ));
    }

    #[test]
    fn sel_merges_in_dataflow() {
        // p = iter < 2 ; sel(p, 111, 222) -> store at 400+iter.
        let si = slot(0, 0, 0);
        let sc = slot(0, 1, 0);
        let sa = slot(1, 0, 0);
        let sb = slot(1, 1, 0);
        let ss = slot(1, 2, 0);
        let sd = slot(1, 3, 0);
        let st = slot(1, 4, 0);
        let mut it = PlacedInst::new(si, Opcode::Iter);
        it.targets = vec![Target::port(sc, Port::Left), Target::port(sd, Port::Left)];
        let mut cmp = PlacedInst::new(sc, Opcode::Tltu);
        cmp.imm = Some(Value::from_u64(2));
        cmp.targets = vec![Target::port(ss, Port::Pred)];
        let mut va = PlacedInst::new(sa, Opcode::MovI);
        va.imm = Some(Value::from_u64(111));
        va.targets = vec![Target::port(ss, Port::Left)];
        let mut vb = PlacedInst::new(sb, Opcode::MovI);
        vb.imm = Some(Value::from_u64(222));
        vb.targets = vec![Target::port(ss, Port::Right)];
        let mut sel = PlacedInst::new(ss, Opcode::Sel);
        sel.targets = vec![Target::port(st, Port::Right)];
        let mut addr = PlacedInst::new(sd, Opcode::Add);
        addr.imm = Some(Value::from_u64(400));
        addr.targets = vec![Target::port(st, Port::Left)];
        let stv = PlacedInst::new(st, Opcode::Store(MemSpace::L1));
        let blk = DataflowBlock::new("sel", vec![it, cmp, va, vb, sel, addr, stv], vec![]);

        let mut m = machine(MechanismSet::simd());
        m.run_dataflow(&blk, 4).unwrap();
        assert_eq!(m.memory().read(400).as_u64(), 111);
        assert_eq!(m.memory().read(401).as_u64(), 111);
        assert_eq!(m.memory().read(402).as_u64(), 222);
        assert_eq!(m.memory().read(403).as_u64(), 222);
    }
}
