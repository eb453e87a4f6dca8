//! The MIMD engine: local program counters + L0 instruction stores (§4.3).
//!
//! Each node executes its own [`MimdProgram`] out of a private L0
//! instruction store under a local PC, with an in-order
//! fetch/register-read/execute pipeline over the operand-storage buffers.
//! Loads and stores are routed from the node across the mesh to the memory
//! interface — the per-element routing cost that makes the **M**
//! configuration lose to **S-O-D** on streaming kernels (§5.3) — and
//! `Send`/`Recv` give fine-grain ALU-ALU synchronization.

use dlp_common::{DlpError, SimStats};
use trips_isa::MimdProgram;

use crate::equeue::CalendarQueue;
use crate::semantics::mimd::{self as sem, Channels, NodeFile, RankMap, Step};
use crate::{EngineArena, Machine};

/// Recyclable storage for one MIMD run, owned by an
/// [`EngineArena`](crate::EngineArena). Rebuilt per run; the allocations
/// (node file, channel table, ready-queue buckets, rank map) carry over.
#[derive(Default)]
pub(crate) struct MimdScratch {
    /// The ready queue: nodes keyed by (tick they may proceed, rank).
    /// The calendar queue's internal sequence number only refines ties
    /// *after* `(tick, rank)` — and entries carrying the same
    /// `(tick, rank)` are value-identical — so the pop order is exactly
    /// `(tick, rank)`, independent of push order.
    queue: CalendarQueue<usize, ()>,
    channels: Channels,
    nodes: NodeFile,
    map: RankMap,
}

impl Machine {
    /// Run the array in MIMD mode: node `i` (row-major) executes
    /// `programs[i]`; nodes beyond a short slice or with empty programs
    /// idle. The slice may not be longer than the grid.
    ///
    /// Register conventions are preloaded per participating node before
    /// start: `r30` = node rank, `r31` = participating node count, `r29` =
    /// `records`. `Send`/`Recv` address peers by **rank** (position among
    /// participating nodes).
    ///
    /// # Example
    ///
    /// ```
    /// use trips_sim::{Machine, MechanismSet};
    /// use trips_isa::{MimdAsm, MemSpace, Opcode, REG_NODE_ID};
    /// use dlp_common::{GridShape, TimingParams, Value};
    ///
    /// // Every node stores (100 + rank) at word rank.
    /// let mut asm = MimdAsm::new();
    /// asm.alui(Opcode::Add, 1, REG_NODE_ID, 100);
    /// asm.st(MemSpace::Smc, REG_NODE_ID, 0, 1);
    /// asm.halt();
    /// let prog = asm.assemble()?;
    ///
    /// let mut m = Machine::new(GridShape::new(4, 4), TimingParams::default(),
    ///                          MechanismSet::mimd());
    /// m.stage_smc(0..64)?;
    /// let stats = m.run_mimd(&vec![prog; 16], 16)?;
    /// assert_eq!(m.memory().read(7).as_u64(), 107);
    /// assert!(stats.cycles() > 0);
    /// # Ok::<(), dlp_common::DlpError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// * [`DlpError::Unsupported`] — machine lacks local PCs, or a program
    ///   uses the L0 data store / SMC without those mechanisms.
    /// * [`DlpError::CapacityExceeded`] — more programs than array nodes,
    ///   or a program exceeds the L0 instruction store.
    /// * [`DlpError::Watchdog`] — runaway execution (livelock).
    /// * [`DlpError::MalformedProgram`] — deadlock (a `Recv` that can never
    ///   be satisfied) or a node that never halts.
    pub fn run_mimd(
        &mut self,
        programs: &[MimdProgram],
        records: u64,
    ) -> Result<SimStats, DlpError> {
        let mut arena = EngineArena::new();
        self.run_mimd_in(programs, records, &mut arena)
    }

    /// As [`Machine::run_mimd`], reusing `arena`'s scratch storage —
    /// bit-identical statistics, but a caller running many programs (a
    /// sweep worker) allocates nothing once the arena has warmed up. This
    /// is the one body of the scalar MIMD engine.
    ///
    /// # Errors
    ///
    /// As [`Machine::run_mimd`].
    pub fn run_mimd_in(
        &mut self,
        programs: &[MimdProgram],
        records: u64,
        arena: &mut EngineArena,
    ) -> Result<SimStats, DlpError> {
        sem::check_programs(self, programs)?;

        let mut stats = self.begin_run();
        let s = &mut arena.mimd;
        s.map.build(self.grid(), programs);
        if s.map.len() == 0 {
            return Ok(stats);
        }
        let n_ranks = s.map.len();
        let start = sem::broadcast(self, &mut stats, programs);
        s.nodes.reset(n_ranks, std::slice::from_mut(&mut stats), records);
        s.channels.reset(n_ranks);
        // A failed previous run may have left entries queued.
        s.queue.clear();
        for rank in 0..n_ranks {
            s.queue.push(start, rank, ());
        }
        let mut last_tick = start;
        let mut max_drain = start;
        let mut steps: u64 = 0;
        let step_budget = sem::step_budget(self, n_ranks);

        while let Some((t, rank, ())) = s.queue.pop() {
            sem::guard(self, t, rank, s.nodes.pc(rank, 0), steps, step_budget, n_ranks)?;
            steps += 1;
            if s.nodes.halted[rank] != 0 {
                continue;
            }
            let inst = sem::fetch(&programs[s.map.ranks[rank]], &s.nodes, rank, 0)?;
            stats.mimd_fetches += 1;
            last_tick = last_tick.max(t);

            let queue = &mut s.queue;
            let step = sem::step_inst(
                self,
                &mut stats,
                &mut s.nodes,
                &mut s.channels,
                &s.map,
                0,
                rank,
                t,
                inst,
                &mut max_drain,
                &mut |tick, r| queue.push(tick, r, ()),
            );
            if let Step::Continue(next_t) = step {
                last_tick = last_tick.max(next_t);
                s.queue.push(next_t, rank, ());
            }
        }

        sem::finish(self, stats, &s.nodes, 0, last_tick.max(max_drain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_common::{GridShape, TimingParams, Value};
    use trips_isa::{MemSpace, MimdAsm, Opcode, REG_NODE_ID};

    use crate::MechanismSet;

    fn machine(mech: MechanismSet) -> Machine {
        Machine::new(GridShape::new(8, 8), TimingParams::default(), mech)
    }

    fn single(asm: MimdAsm) -> Vec<MimdProgram> {
        vec![asm.assemble().unwrap()]
    }

    #[test]
    fn requires_local_pc() {
        let mut m = machine(MechanismSet::simd());
        let mut asm = MimdAsm::new();
        asm.halt();
        assert!(matches!(
            m.run_mimd(&single(asm), 1),
            Err(DlpError::Unsupported { .. })
        ));
    }

    #[test]
    fn computes_a_loop() {
        // Sum 1..=10 into r1, store at word 100.
        let mut asm = MimdAsm::new();
        asm.li(1, 0);
        asm.li(2, 10);
        asm.label("top");
        asm.alu(Opcode::Add, 1, 1, 2);
        asm.alui(Opcode::Sub, 2, 2, 1);
        asm.bnz(2, "top");
        asm.li(3, 100);
        asm.st(MemSpace::Smc, 3, 0, 1);
        asm.halt();
        let mut m = machine(MechanismSet::mimd());
        m.stage_smc(0..1024).unwrap();
        let stats = m.run_mimd(&single(asm), 1).unwrap();
        assert_eq!(m.memory().read(100).as_u64(), 55);
        assert_eq!(stats.stores, 1);
        assert!(stats.mimd_fetches > 20, "loop iterations fetch repeatedly");
    }

    #[test]
    fn node_conventions_are_preloaded() {
        // Each node stores its rank at word (200 + rank).
        let mut asm = MimdAsm::new();
        asm.li(1, 200);
        asm.alu(Opcode::Add, 1, 1, REG_NODE_ID);
        asm.st(MemSpace::Smc, 1, 0, REG_NODE_ID);
        asm.halt();
        let prog = asm.assemble().unwrap();
        let progs = vec![prog; 4];
        let mut m = machine(MechanismSet::mimd());
        m.stage_smc(0..1024).unwrap();
        m.run_mimd(&progs, 4).unwrap();
        for r in 0..4u64 {
            assert_eq!(m.memory().read(200 + r).as_u64(), r, "rank {r}");
        }
    }

    #[test]
    fn send_recv_synchronizes() {
        // Node 0 sends 42 to node 1; node 1 stores what it receives.
        let mut a0 = MimdAsm::new();
        a0.li(1, 42);
        a0.send(1, 1);
        a0.halt();
        let mut a1 = MimdAsm::new();
        a1.recv(2, 0);
        a1.li(3, 300);
        a1.st(MemSpace::Smc, 3, 0, 2);
        a1.halt();
        let progs = vec![a0.assemble().unwrap(), a1.assemble().unwrap()];
        let mut m = machine(MechanismSet::mimd());
        m.stage_smc(0..1024).unwrap();
        m.run_mimd(&progs, 1).unwrap();
        assert_eq!(m.memory().read(300).as_u64(), 42);
    }

    #[test]
    fn arena_reuse_is_bit_identical() {
        // Heterogeneous runs threaded through one arena must match
        // fresh-arena runs exactly.
        let sum_prog = || {
            let mut asm = MimdAsm::new();
            asm.li(1, 0);
            asm.li(2, 10);
            asm.label("top");
            asm.alu(Opcode::Add, 1, 1, 2);
            asm.alui(Opcode::Sub, 2, 2, 1);
            asm.bnz(2, "top");
            asm.li(3, 100);
            asm.st(MemSpace::Smc, 3, 0, 1);
            asm.halt();
            asm.assemble().unwrap()
        };
        let rank_prog = || {
            let mut asm = MimdAsm::new();
            asm.li(1, 200);
            asm.alu(Opcode::Add, 1, 1, REG_NODE_ID);
            asm.st(MemSpace::Smc, 1, 0, REG_NODE_ID);
            asm.halt();
            asm.assemble().unwrap()
        };
        let mut arena = EngineArena::new();

        let mut m = machine(MechanismSet::mimd());
        m.stage_smc(0..1024).unwrap();
        let fresh = m.run_mimd(&[sum_prog()], 1).unwrap();
        let mut m = machine(MechanismSet::mimd());
        m.stage_smc(0..1024).unwrap();
        let reused = m.run_mimd_in(&[sum_prog()], 1, &mut arena).unwrap();
        assert_eq!(fresh, reused, "single-rank: arena == fresh");

        let mut m = machine(MechanismSet::mimd());
        m.stage_smc(0..1024).unwrap();
        let fresh4 = m.run_mimd(&vec![rank_prog(); 4], 4).unwrap();
        let mut m = machine(MechanismSet::mimd());
        m.stage_smc(0..1024).unwrap();
        let reused4 = m.run_mimd_in(&vec![rank_prog(); 4], 4, &mut arena).unwrap();
        assert_eq!(fresh4, reused4, "4-rank after 1-rank: arena == fresh");

        // Shrinking back down must not see rank 1..3's stale state.
        let mut m = machine(MechanismSet::mimd());
        m.stage_smc(0..1024).unwrap();
        let again = m.run_mimd_in(&[sum_prog()], 1, &mut arena).unwrap();
        assert_eq!(fresh, again, "arena reused across rank counts");
    }

    #[test]
    fn unmatched_recv_deadlocks_cleanly() {
        let mut asm = MimdAsm::new();
        asm.recv(1, 0); // nobody ever sends
        asm.halt();
        let mut m = machine(MechanismSet::mimd());
        assert!(matches!(
            m.run_mimd(&single(asm), 1),
            Err(DlpError::MalformedProgram { .. })
        ));
    }

    #[test]
    fn lut_requires_l0_mechanism() {
        let mut asm = MimdAsm::new();
        asm.lut(1, 0, 0);
        asm.halt();
        let mut m = machine(MechanismSet::mimd());
        assert!(m.run_mimd(&single(asm), 1).is_err());

        let mut asm = MimdAsm::new();
        asm.li(1, 3);
        asm.lut(2, 1, 0);
        asm.li(3, 400);
        asm.st(MemSpace::Smc, 3, 0, 2);
        asm.halt();
        let mut m = machine(MechanismSet::mimd_l0());
        m.load_l0_table(&(0..8).map(|i| Value::from_u64(i * 7)).collect::<Vec<_>>()).unwrap();
        m.stage_smc(0..1024).unwrap();
        let stats = m.run_mimd(&single(asm), 1).unwrap();
        assert_eq!(m.memory().read(400).as_u64(), 21);
        assert_eq!(stats.l0_accesses, 1);
    }

    #[test]
    fn watchdog_catches_livelock() {
        // `jmp 0` spins forever; a lowered watchdog turns that into a
        // clean error instead of an unbounded simulation. The error
        // context reports the watchdog-derived step budget.
        let mut asm = MimdAsm::new();
        asm.label("spin");
        asm.jmp("spin");
        asm.halt();
        let mut m = machine(MechanismSet::mimd());
        m.set_watchdog(10_000);
        match m.run_mimd(&single(asm), 1) {
            Err(DlpError::Watchdog { context, .. }) => {
                assert!(
                    context.contains("budget 10001"),
                    "context should carry the derived step budget (1 rank x (10000 + 1)): {context}"
                );
            }
            other => panic!("expected watchdog, got {other:?}"),
        }
    }

    #[test]
    fn oversized_program_rejected() {
        let mut asm = MimdAsm::new();
        for _ in 0..1000 {
            asm.li(1, 0);
        }
        asm.halt();
        let mut m = machine(MechanismSet::mimd());
        assert!(matches!(
            m.run_mimd(&single(asm), 1),
            Err(DlpError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn variable_work_finishes_at_slowest_node() {
        // Node 0 loops 1 time; node 1 loops 100 times.
        let make = |n: i64| {
            let mut asm = MimdAsm::new();
            asm.li(1, n);
            asm.label("top");
            asm.alui(Opcode::Sub, 1, 1, 1);
            asm.bnz(1, "top");
            asm.halt();
            asm.assemble().unwrap()
        };
        let mut m = machine(MechanismSet::mimd());
        let fast = m.run_mimd(&[make(1)], 1).unwrap();
        let mut m2 = machine(MechanismSet::mimd());
        let slow = m2.run_mimd(&[make(1), make(100)], 1).unwrap();
        assert!(slow.ticks > fast.ticks);
    }
}
