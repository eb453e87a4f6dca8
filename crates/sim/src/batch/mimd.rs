//! Batched MIMD execution: the MIMD half of the lane-batched lockstep
//! engine (see the [`batch`](super) module docs for the determinism
//! argument and SoA layout).
//!
//! Node state is the shared `NodeFile` with one class per machine:
//! registers are `[rank][reg][class]` strides (one contiguous row per
//! architectural register), program counters `[rank][class]`, halted
//! flags one `u64` mask per rank. Instructions step through
//! `semantics::mimd::step_inst`, once per class; when every acting class
//! sits at the same program counter and the instruction is a pure
//! ALU/immediate op, one word-at-a-time pass executes it for all of them.

use dlp_common::{DlpError, SimStats, Tick, Value};
use trips_isa::{MimdInst, MimdOp, MimdProgram, OpClass, OpRole, Opcode};

use super::{assert_lanes, divergence_guards, mask, take_results, MergeBuf};
use crate::equeue::CalendarQueue;
use crate::semantics::mimd::{self as sem, Channels, NodeFile, RankMap, Step};
use crate::{EngineArena, Machine};

/// Recyclable storage for one batched MIMD run, owned by an
/// [`EngineArena`](crate::EngineArena).
#[derive(Default)]
pub(crate) struct BatchMimdScratch {
    /// Ready queue keyed by rank; the payload is the class mask.
    queue: CalendarQueue<usize, u64>,
    buf: MergeBuf,
    /// Per-class channel tables.
    channels: Vec<Channels>,
    nodes: NodeFile,
    map: RankMap,
    // Per-class run state.
    steps: Vec<u64>,
    /// Step budgets per class (watchdog-derived livelock bound).
    budget: Vec<u64>,
    last_tick: Vec<Tick>,
    max_drain: Vec<Tick>,
    live: Vec<u64>,
    stats: Vec<SimStats>,
    /// Fetch counts accumulated by the lane-vectorized step pass,
    /// folded into `stats` at finalize (sums are order-independent).
    col_fetches: Vec<u64>,
    col_useful: Vec<u64>,
    col_overhead: Vec<u64>,
    // Operand/result lane buffers for the vectorized ALU pass.
    lane_a: Vec<Value>,
    lane_b: Vec<Value>,
    lane_d: Vec<Value>,
    lane_v: Vec<Value>,
    lane_z: Vec<Value>,
    results: Vec<Option<Result<SimStats, DlpError>>>,
    dead: u64,
}

/// Buffer class `c`'s wakeup of `rank` at `tick` into the merge window.
fn wake(buf: &mut MergeBuf, live: &mut [u64], c: usize, tick: Tick, rank: usize) {
    let _ = buf.push(c, tick, rank as u32, 0, 0);
    live[c] += 1;
}

fn mimd_flush(s: &mut BatchMimdScratch) {
    for p in &s.buf.pend {
        s.queue.push(p.tick, p.slot as usize, p.mask);
    }
    s.buf.pend.clear();
    for cur in &mut s.buf.cursors {
        *cur = 0;
    }
}

fn mimd_kill(s: &mut BatchMimdScratch, c: usize, err: DlpError) {
    s.results[c] = Some(Err(err));
    s.dead |= 1u64 << c;
}

/// Execute one pure ALU/immediate instruction for every acting class in
/// one word-at-a-time pass. Preconditions (checked by the caller): all
/// acting classes share the program counter, the timing model is
/// uniform across classes, and the op is `Alu`/`AluI`/`Li` — no memory,
/// network, control flow, or channel state is touched, so per-class
/// effects reduce to a register write, a `pc += 1`, one stat count, and
/// a wake at a uniform `t + latency`. Operand rows are copied into lane
/// buffers before the destination row is written because `rd` may alias
/// `ra`/`rb`. Wakes are buffered per class in ascending index, exactly
/// the order the scalar per-class loop produces, so the merge buffer
/// sees identical pushes.
fn mimd_step_lanes(
    s: &mut BatchMimdScratch,
    m: &Machine,
    nc: usize,
    rank: usize,
    t: Tick,
    inst: MimdInst,
    act: u64,
) -> Tick {
    let nodes = &mut s.nodes;
    let useful = inst.role == OpRole::Useful;
    let (next_t, countable_useful) = match inst.op {
        MimdOp::Li => {
            let v = Value::from_u64(inst.imm as u64);
            for lane in s.lane_v.iter_mut() {
                *lane = v;
            }
            (t + m.params().ops.mov, false)
        }
        MimdOp::Alu(op) | MimdOp::AluI(op) => {
            // Copy operand rows first: the rd row is written below and
            // may alias any of them.
            let ra_base = nodes.row(rank, inst.ra);
            s.lane_a.copy_from_slice(&nodes.regs[ra_base..ra_base + nc]);
            if matches!(inst.op, MimdOp::AluI(_)) {
                let v = Value::from_i64(inst.imm);
                for lane in s.lane_b.iter_mut() {
                    *lane = v;
                }
            } else {
                let rb_base = nodes.row(rank, inst.rb);
                s.lane_b.copy_from_slice(&nodes.regs[rb_base..rb_base + nc]);
            }
            if matches!(op, Opcode::Sel) {
                let rd_base = nodes.row(rank, inst.rd);
                s.lane_d.copy_from_slice(&nodes.regs[rd_base..rd_base + nc]);
                mask::simd_eval_lanes(Opcode::Sel, &s.lane_b, &s.lane_d, &s.lane_a, &mut s.lane_v);
            } else {
                let (_, needs_r, _) = op.ports();
                let rhs: &[Value] = if needs_r { &s.lane_b } else { &s.lane_z };
                mask::simd_eval_lanes(op, &s.lane_a, rhs, &s.lane_z, &mut s.lane_v);
            }
            (t + op.latency(&m.params().ops), useful && op.class() != OpClass::Mov)
        }
        _ => unreachable!("mimd_step_lanes only handles Alu/AluI/Li"),
    };
    let rd_base = nodes.row(rank, inst.rd);
    mask::simd_latch_lanes(&mut nodes.regs[rd_base..rd_base + nc], &s.lane_v, act);
    mask::simd_add_one_u32(&mut nodes.pc[rank * nc..rank * nc + nc], act);
    if countable_useful {
        mask::simd_add_one_u64(&mut s.col_useful, act);
    } else {
        mask::simd_add_one_u64(&mut s.col_overhead, act);
    }
    next_t
}

/// Class `c` has drained every wakeup: latch its final result (or the
/// scalar deadlock/fault error).
fn mimd_finalize(s: &mut BatchMimdScratch, m: &mut Machine, c: usize) {
    let mut stats = s.stats[c];
    stats.mimd_fetches += s.col_fetches[c];
    stats.useful_ops += s.col_useful[c];
    stats.overhead_ops += s.col_overhead[c];
    let ticks = s.last_tick[c].max(s.max_drain[c]);
    s.results[c] = Some(sem::finish(m, stats, &s.nodes, c, ticks));
    s.dead |= 1u64 << c;
}

/// Run the array in MIMD mode on every machine in `machines`
/// simultaneously, one lane class per machine, with the same fixed
/// register conventions (`r30` = rank, `r31` = participating count,
/// `r29` = `records`) — bit-identical per class to
/// [`Machine::run_mimd_in`](crate::Machine::run_mimd_in), including its
/// errors: every class fails as the scalar run does on a slice longer
/// than the grid.
///
/// All machines must share one grid, timing model, and mechanism set.
///
/// # Panics
///
/// If `machines` is empty, longer than [`MAX_CLASSES`](super::MAX_CLASSES),
/// or the machines disagree on grid shape.
#[allow(clippy::too_many_lines)]
pub fn run_mimd_batch_in(
    machines: &mut [Machine],
    programs: &[MimdProgram],
    records: u64,
    arena: &mut EngineArena,
) -> Vec<Result<SimStats, DlpError>> {
    assert_lanes(machines);
    let nc = machines.len();
    if let Err(e) = sem::check_programs(&machines[0], programs) {
        return (0..nc).map(|_| Err(e.clone())).collect();
    }

    let s = &mut arena.batch_mimd;
    s.stats.clear();
    s.stats.extend(machines.iter_mut().map(Machine::begin_run));
    s.map.build(machines[0].grid(), programs);
    if s.map.len() == 0 {
        return s.stats.iter().map(|&st| Ok(st)).collect();
    }
    let n_ranks = s.map.len();

    // The setup broadcast; every class's nodes start at its own tick.
    s.last_tick.clear();
    s.last_tick.extend(
        machines.iter().zip(&mut s.stats).map(|(m, st)| sem::broadcast(m, st, programs)),
    );
    s.max_drain.clear();
    s.max_drain.extend_from_slice(&s.last_tick);
    s.nodes.reset(n_ranks, &mut s.stats, records);

    s.channels.clear();
    s.channels.resize_with(nc, Channels::default);
    for ch in &mut s.channels {
        ch.reset(n_ranks);
    }
    s.queue.clear();
    s.buf.reset(nc);
    s.steps.clear();
    s.steps.resize(nc, 0);
    s.live.clear();
    s.live.resize(nc, 0);
    s.col_fetches.clear();
    s.col_fetches.resize(nc, 0);
    s.col_useful.clear();
    s.col_useful.resize(nc, 0);
    s.col_overhead.clear();
    s.col_overhead.resize(nc, 0);
    s.lane_a.clear();
    s.lane_a.resize(nc, Value::ZERO);
    s.lane_b.clear();
    s.lane_b.resize(nc, Value::ZERO);
    s.lane_d.clear();
    s.lane_d.resize(nc, Value::ZERO);
    s.lane_v.clear();
    s.lane_v.resize(nc, Value::ZERO);
    s.lane_z.clear();
    s.lane_z.resize(nc, Value::ZERO);
    s.results.clear();
    s.results.resize(nc, None);
    s.dead = 0;
    for rank in 0..n_ranks {
        for c in 0..nc {
            wake(&mut s.buf, &mut s.live, c, s.last_tick[c], rank);
        }
    }
    mimd_flush(s);

    s.budget.clear();
    s.budget.extend(machines.iter().map(|m| sem::step_budget(m, n_ranks)));

    // Beside the shared watchdog bound and armed-fault mask, one
    // vectorized budget screen keeps the per-class walk off the fast
    // path.
    let (wd_min, fault_armed) = divergence_guards(machines);
    let params = *machines[0].params();
    let uniform_timing = machines.iter().all(|m| *m.params() == params);

    while let Some((t, rank, mask_w)) = s.queue.pop() {
        let alive = mask_w & !s.dead;
        if alive == 0 {
            continue;
        }

        // Divergence fixup, hoisted: walk classes only when a bound is
        // actually crossed (scalar error order: watchdog/budget, then
        // latched fault, ascending class index).
        let over = mask::simd_over_mask(&s.steps, &s.budget, nc);
        let proc = if t <= wd_min && alive & (fault_armed | over) == 0 {
            alive
        } else {
            let mut proc: u64 = 0;
            let mut bits = alive;
            while bits != 0 {
                let c = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let pc = s.nodes.pc(rank, c);
                match sem::guard(&machines[c], t, rank, pc, s.steps[c], s.budget[c], n_ranks) {
                    Ok(()) => proc |= 1u64 << c,
                    Err(e) => mimd_kill(s, c, e),
                }
            }
            proc
        };

        // The scalar loop counts a step for halted classes too.
        mask::simd_add_one_u64(&mut s.steps, proc);
        let act = proc & !s.nodes.halted[rank];
        if act != 0 {
            let prog = &programs[s.map.ranks[rank]];
            let plen = prog.len() as u32;
            // One pass over the acting classes: program-counter
            // uniformity and bounds.
            let first_c = act.trailing_zeros() as usize;
            let pc0 = s.nodes.pc(rank, first_c);
            let mut uniform_pc = true;
            let mut in_bounds = true;
            let mut bits = act;
            while bits != 0 {
                let c = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let pc = s.nodes.pc(rank, c);
                uniform_pc &= pc == pc0;
                in_bounds &= pc < plen;
            }
            let fast = uniform_pc
                && in_bounds
                && uniform_timing
                && act.count_ones() >= 2
                && matches!(
                    prog.insts()[pc0 as usize].op,
                    MimdOp::Alu(_) | MimdOp::AluI(_) | MimdOp::Li
                );
            if fast {
                let inst = prog.insts()[pc0 as usize];
                mask::simd_add_one_u64(&mut s.col_fetches, act);
                mask::simd_max_tick(&mut s.last_tick, t, act);
                let next_t = mimd_step_lanes(s, &machines[first_c], nc, rank, t, inst, act);
                mask::simd_max_tick(&mut s.last_tick, next_t, act);
                let mut bits = act;
                while bits != 0 {
                    let c = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    wake(&mut s.buf, &mut s.live, c, next_t, rank);
                }
            } else {
                // Divergent program counters, singleton masks, or
                // engine-special ops: the shared step, once per class.
                let mut bits = act;
                while bits != 0 {
                    let c = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let inst = match sem::fetch(prog, &s.nodes, rank, c) {
                        Ok(inst) => inst,
                        Err(e) => {
                            mimd_kill(s, c, e);
                            continue;
                        }
                    };
                    s.stats[c].mimd_fetches += 1;
                    s.last_tick[c] = s.last_tick[c].max(t);
                    let (buf, live) = (&mut s.buf, &mut s.live);
                    let step = sem::step_inst(
                        &mut machines[c],
                        &mut s.stats[c],
                        &mut s.nodes,
                        &mut s.channels[c],
                        &s.map,
                        c,
                        rank,
                        t,
                        inst,
                        &mut s.max_drain[c],
                        &mut |tick, r| wake(buf, live, c, tick, r),
                    );
                    if let Step::Continue(next_t) = step {
                        s.last_tick[c] = s.last_tick[c].max(next_t);
                        wake(&mut s.buf, &mut s.live, c, next_t, rank);
                    }
                }
            }
        }
        mimd_flush(s);

        // Consume the wakeup; classes that drained finalize.
        let mut bits = alive & !s.dead;
        while bits != 0 {
            let c = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            s.live[c] -= 1;
            if s.live[c] == 0 {
                mimd_finalize(s, &mut machines[c], c);
            }
        }
    }

    take_results(&mut s.results, "mimd")
}
