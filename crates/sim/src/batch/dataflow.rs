//! Batched dataflow execution: the dataflow half of the lane-batched
//! lockstep engine (see the [`batch`](super) module docs for the
//! determinism argument and SoA layout). Instruction semantics come from
//! `semantics::dataflow`, called once per lane class; this file holds
//! only the SoA state, the merge window, and the lane-vectorized pass.

use dlp_common::{DlpError, SimStats, Tick, Value};
use trips_isa::{DataflowBlock, OpClass, OpRole};
use trips_mem::Throttle;

use super::{
    assert_lanes, divergence_guards, mask, take_results, BatchEv, MergeBuf, NO_INST, NO_ROW,
};
use crate::equeue::CalendarQueue;
use crate::semantics::dataflow::{self as sem, port_idx, BlockTables, Ev};
use crate::semantics::reserve_cycle;
use crate::{EngineArena, Machine};

/// Recyclable storage for one batched dataflow run, owned by an
/// [`EngineArena`](crate::EngineArena). Block-shape tables are the same
/// [`BlockTables`] the scalar engine builds, so routing and readiness are
/// bit-identical by construction.
#[derive(Default)]
pub(crate) struct BatchDataflowScratch {
    pub(crate) tables: BlockTables,
    events: CalendarQueue<(), BatchEv>,
    out: Outbox,
    /// Operand values, `[frame][inst][port][class]` (class innermost).
    ops_val: Vec<Value>,
    /// Operand-present bitmasks, one per `[frame][inst][port]`.
    ops_set: Vec<u64>,
    /// Executed bitmasks, one per `[frame][inst]`.
    executed: Vec<u64>,
    /// Executed-instruction counts, `[frame][class]`.
    exec_count: Vec<u32>,
    /// Latest event tick per `[frame][class]`.
    frame_last_tick: Vec<Tick>,
    /// Kernel iteration per `[frame][class]`.
    frame_iter: Vec<u64>,
    /// Issue throttles, `[node][class]`.
    node_issue: Vec<Throttle>,
    /// Register-bank read-port throttles, `[class][bank]`.
    reg_bank_ports: Vec<Throttle>,
    // Per-class run state.
    fetch_done: Vec<Tick>,
    next_iter: Vec<u64>,
    done_iters: Vec<u64>,
    final_tick: Vec<Tick>,
    stats: Vec<SimStats>,
    /// Useful-op counts accumulated by the lane-vectorized execute pass,
    /// folded into `stats` at finalize (sums are order-independent).
    col_useful: Vec<u64>,
    /// Overhead-op counts from the lane-vectorized execute pass.
    col_overhead: Vec<u64>,
    // Operand/result lane buffers for the vectorized ALU pass.
    lane_l: Vec<Value>,
    lane_r: Vec<Value>,
    lane_p: Vec<Value>,
    lane_v: Vec<Value>,
    results: Vec<Option<Result<SimStats, DlpError>>>,
    /// Classes that latched a result and no longer process events.
    dead: u64,
}

/// The merge window plus the per-class counters every push bumps: the
/// push sink the shared semantics write into.
#[derive(Default)]
struct Outbox {
    buf: MergeBuf,
    /// Per-class value rows: row `r` is `rows[r*nc..(r+1)*nc]`.
    rows: Vec<Value>,
    free_rows: Vec<u32>,
    /// Outstanding events per `[frame][class]`.
    pending: Vec<u32>,
    /// Outstanding queued events per class (frames summed).
    live: Vec<u64>,
}

impl Outbox {
    /// Buffer class `c`'s push of `ev` at `tick` on `frame`.
    fn push(&mut self, nc: usize, c: usize, frame: usize, tick: Tick, ev: Ev) {
        let (inst, port, value) = match ev {
            Ev::Operand { inst, port, value } => (inst, port_idx(port) as u8, Some(value)),
            Ev::Quiesce => (NO_INST, 0, None),
        };
        let (idx, appended) = self.buf.push(c, tick, frame as u32, inst, port);
        if let Some(value) = value {
            if appended {
                self.buf.pend[idx].row = match self.free_rows.pop() {
                    Some(r) => r,
                    None => {
                        let r = (self.rows.len() / nc) as u32;
                        self.rows.resize(self.rows.len() + nc, Value::ZERO);
                        r
                    }
                };
            }
            let row = self.buf.pend[idx].row as usize;
            self.rows[row * nc + c] = value;
        }
        self.pending[frame * nc + c] += 1;
        self.live[c] += 1;
    }
}

/// Loop-invariant context for one batched dataflow run.
#[derive(Clone, Copy)]
struct DfCtx {
    nc: usize,
    len: usize,
    /// Iterations every class runs.
    iterations: u64,
    banks: usize,
    op_revit: bool,
    fetch: sem::Fetch,
    /// All machines share one timing model: ALU latencies are uniform,
    /// so whole-instruction lane passes are legal.
    uniform_timing: bool,
}

fn df_flush(s: &mut BatchDataflowScratch) {
    let buf = &mut s.out.buf;
    for p in &buf.pend {
        s.events.push(
            p.tick,
            (),
            BatchEv { mask: p.mask, frame: p.slot, inst: p.inst, port: p.port, row: p.row },
        );
    }
    buf.pend.clear();
    for cur in &mut buf.cursors {
        *cur = 0;
    }
}

fn df_kill(s: &mut BatchDataflowScratch, c: usize, err: DlpError) {
    s.results[c] = Some(Err(err));
    s.dead |= 1u64 << c;
}

/// Seed one iteration's initial activity for class `c` at `start` on
/// `frame`: the shared register reads, then every source instruction.
#[allow(clippy::too_many_arguments)]
fn df_seed_iteration(
    ctx: DfCtx,
    block: &DataflowBlock,
    s: &mut BatchDataflowScratch,
    m: &mut Machine,
    c: usize,
    frame: usize,
    start: Tick,
    iter: u64,
    first: bool,
) {
    let nc = ctx.nc;
    s.frame_iter[frame * nc + c] = iter;
    let lt = &mut s.frame_last_tick[frame * nc + c];
    *lt = (*lt).max(start);
    let out = &mut s.out;
    sem::seed_reg_reads(
        m,
        &mut s.stats[c],
        block,
        &s.tables,
        &mut s.reg_bank_ports[c * ctx.banks..(c + 1) * ctx.banks],
        start,
        !first && ctx.op_revit,
        &mut |t, ev| out.push(nc, c, frame, t, ev),
    );
    // Source instructions with no required operands fire at start.
    let bit = 1u64 << c;
    for i in 0..ctx.len {
        if s.executed[frame * ctx.len + i] & bit != 0 {
            continue;
        }
        let b3 = (frame * ctx.len + i) * 3;
        let req = s.tables.req[i];
        let ready = (0..3).all(|p| req >> p & 1 == 0 || s.ops_set[b3 + p] & bit != 0);
        if ready {
            df_execute(ctx, block, s, m, c, frame, i, start);
        }
    }
}

/// Issue and execute instruction `i` for class `c`: mark it executed in
/// the SoA state, gather the class's operands, and run the shared
/// `execute` against the class's machine.
#[allow(clippy::too_many_arguments)]
fn df_execute(
    ctx: DfCtx,
    block: &DataflowBlock,
    s: &mut BatchDataflowScratch,
    m: &mut Machine,
    c: usize,
    frame: usize,
    i: usize,
    t: Tick,
) {
    let nc = ctx.nc;
    let bit = 1u64 << c;
    s.executed[frame * ctx.len + i] |= bit;
    s.exec_count[frame * nc + c] += 1;
    let b3 = (frame * ctx.len + i) * 3;
    let ops: [Option<Value>; 3] =
        std::array::from_fn(|p| (s.ops_set[b3 + p] & bit != 0).then(|| s.ops_val[(b3 + p) * nc + c]));
    let out = &mut s.out;
    sem::execute(
        m,
        &mut s.stats[c],
        block,
        &s.tables,
        i,
        &mut s.node_issue[s.tables.inst_node[i] * nc + c],
        t,
        ops,
        s.frame_iter[frame * nc + c],
        &mut |t, ev| out.push(nc, c, frame, t, ev),
    );
}

/// Execute an eval-arm instruction for every ready class in one
/// word-at-a-time pass: whole-mask executed/exec-count/stat updates,
/// masked operand gather, one [`mask::simd_eval_lanes`] ALU pass, then
/// per-class issue reservation and fan-out in ascending class index —
/// the same per-class order the scalar loop produces, so the merge
/// buffer sees identical pushes and every per-class result stays
/// bit-identical.
#[allow(clippy::too_many_arguments)]
fn df_execute_lanes(
    ctx: DfCtx,
    block: &DataflowBlock,
    s: &mut BatchDataflowScratch,
    machines: &mut [Machine],
    frame: usize,
    i: usize,
    t: Tick,
    ready: u64,
) {
    let nc = ctx.nc;
    let inst = &block.insts()[i];
    s.executed[frame * ctx.len + i] |= ready;
    let fbase = frame * nc;
    mask::simd_add_one_u32(&mut s.exec_count[fbase..fbase + nc], ready);

    // Eval arms are never memory ops: countable iff not a move.
    let countable = inst.op.class() != OpClass::Mov;
    if countable && inst.role == OpRole::Useful {
        mask::simd_add_one_u64(&mut s.col_useful, ready);
    } else {
        mask::simd_add_one_u64(&mut s.col_overhead, ready);
    }

    // Operand gather: present lanes read their latched value, absent
    // lanes take the uniform default (the immediate for the right
    // operand, zero otherwise) — exactly the scalar `op_val` chain.
    let b3 = (frame * ctx.len + i) * 3;
    let imm = inst.imm.unwrap_or(Value::ZERO);
    mask::simd_select_lanes(
        &mut s.lane_l,
        &s.ops_val[b3 * nc..(b3 + 1) * nc],
        s.ops_set[b3],
        Value::ZERO,
    );
    mask::simd_select_lanes(
        &mut s.lane_r,
        &s.ops_val[(b3 + 1) * nc..(b3 + 2) * nc],
        s.ops_set[b3 + 1],
        imm,
    );
    mask::simd_select_lanes(
        &mut s.lane_p,
        &s.ops_val[(b3 + 2) * nc..(b3 + 3) * nc],
        s.ops_set[b3 + 2],
        Value::ZERO,
    );
    mask::simd_eval_lanes(inst.op, &s.lane_l, &s.lane_r, &s.lane_p, &mut s.lane_v);

    // Per-class issue + fan-out, ascending class index (scalar order;
    // the timing model is uniform — gated by `ctx.uniform_timing`).
    let node_idx = s.tables.inst_node[i];
    let lat = inst.op.latency(&machines[0].params().ops);
    let mut bits = ready;
    while bits != 0 {
        let c = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let issue = reserve_cycle(&mut s.node_issue[node_idx * nc + c], t);
        let out = &mut s.out;
        sem::fan_out(
            &mut machines[c],
            &mut s.stats[c],
            block,
            &s.tables,
            i,
            issue + lat,
            s.lane_v[c],
            &mut |t, ev| out.push(nc, c, frame, t, ev),
        );
    }
}

/// Reset class `c`'s view of a frame for its next iteration, keeping
/// only the operands the tables mark as surviving it.
fn df_reset_frame(ctx: DfCtx, s: &mut BatchDataflowScratch, c: usize, frame: usize) {
    let bit = 1u64 << c;
    for i in 0..ctx.len {
        s.executed[frame * ctx.len + i] &= !bit;
        let keep = s.tables.keep[i];
        let b3 = (frame * ctx.len + i) * 3;
        for pi in 0..3 {
            if keep >> pi & 1 == 0 {
                s.ops_set[b3 + pi] &= !bit;
            }
        }
    }
    s.exec_count[frame * ctx.nc + c] = 0;
}

/// Class `c`'s frame `frame` has no outstanding events: complete the
/// iteration (or latch the scalar stall error) and seed the next one.
fn df_complete_iteration(
    ctx: DfCtx,
    block: &DataflowBlock,
    s: &mut BatchDataflowScratch,
    m: &mut Machine,
    c: usize,
    frame: usize,
) {
    let nc = ctx.nc;
    let executed = s.exec_count[frame * nc + c] as usize;
    if executed != ctx.len {
        df_kill(s, c, sem::stalled(block, s.frame_iter[frame * nc + c], executed));
        return;
    }
    s.done_iters[c] += 1;
    let t = s.frame_last_tick[frame * nc + c];
    s.final_tick[c] = s.final_tick[c].max(t);
    if s.next_iter[c] < ctx.iterations {
        df_reset_frame(ctx, s, c, frame);
        let start = ctx.fetch.restart(&mut s.stats[c], &mut s.fetch_done[c], t);
        df_seed_iteration(ctx, block, s, m, c, frame, start, s.next_iter[c], false);
        s.next_iter[c] += 1;
    }
}

/// Class `c` has drained every event: latch its final result (or the
/// scalar completion/fault error).
fn df_finalize(s: &mut BatchDataflowScratch, m: &mut Machine, c: usize, block: &DataflowBlock) {
    let mut stats = s.stats[c];
    stats.useful_ops += s.col_useful[c];
    stats.overhead_ops += s.col_overhead[c];
    s.results[c] = Some(sem::finish(m, stats, block, s.done_iters[c], s.final_tick[c]));
    s.dead |= 1u64 << c;
}

/// Execute `block` for `iterations` kernel iterations on every machine
/// in `machines` simultaneously, one lane class per machine, and return
/// each class's result — bit-identical to running
/// [`Machine::run_dataflow_in`](crate::Machine::run_dataflow_in) on each
/// machine alone.
///
/// All machines must share one grid, timing model, and mechanism set
/// (they are variants of one prepared lowering: different workload
/// seeds, fault plans, or attempt salts). The caller guarantees the
/// sharing; grids are asserted.
///
/// # Panics
///
/// If `machines` is empty, longer than [`MAX_CLASSES`](super::MAX_CLASSES),
/// or the machines disagree on grid shape.
#[allow(clippy::too_many_lines)]
pub fn run_dataflow_batch_in(
    machines: &mut [Machine],
    block: &DataflowBlock,
    iterations: u64,
    arena: &mut EngineArena,
) -> Vec<Result<SimStats, DlpError>> {
    assert_lanes(machines);
    let nc = machines.len();
    let s = &mut arena.batch_dataflow;
    if let Err(e) = s.tables.build(block, &machines[0]) {
        return (0..nc).map(|_| Err(e.clone())).collect();
    }
    if iterations == 0 {
        // The scalar early return: setup ticks only.
        return machines.iter_mut().map(|m| Ok(m.begin_run())).collect();
    }

    let mech = machines[0].mechanisms();
    let params = *machines[0].params();
    let uniform_timing = machines.iter().all(|m| *m.params() == params);
    let fetch = sem::Fetch::new(&machines[0], block);
    // The frame window the scalar run keeps in flight.
    let n_frames = fetch.window(iterations);
    let len = block.len();
    let ctx = DfCtx {
        nc,
        len,
        iterations,
        banks: sem::reset_ports(&machines[0], nc, &mut s.node_issue, &mut s.reg_bank_ports),
        op_revit: mech.operand_revitalization,
        fetch,
        uniform_timing,
    };

    // Reset all recyclable state for `nc` classes and `n_frames` frames.
    s.events.clear();
    s.out.buf.reset(nc);
    s.out.rows.clear();
    s.out.free_rows.clear();
    s.ops_val.clear();
    s.ops_val.resize(n_frames * len * 3 * nc, Value::ZERO);
    s.ops_set.clear();
    s.ops_set.resize(n_frames * len * 3, 0);
    s.executed.clear();
    s.executed.resize(n_frames * len, 0);
    s.exec_count.clear();
    s.exec_count.resize(n_frames * nc, 0);
    s.out.pending.clear();
    s.out.pending.resize(n_frames * nc, 0);
    s.frame_last_tick.clear();
    s.frame_last_tick.resize(n_frames * nc, 0);
    s.frame_iter.clear();
    s.frame_iter.resize(n_frames * nc, 0);
    s.fetch_done.clear();
    s.fetch_done.resize(nc, 0);
    s.next_iter.clear();
    s.next_iter.resize(nc, 0);
    s.done_iters.clear();
    s.done_iters.resize(nc, 0);
    s.final_tick.clear();
    s.final_tick.resize(nc, 0);
    s.out.live.clear();
    s.out.live.resize(nc, 0);
    s.col_useful.clear();
    s.col_useful.resize(nc, 0);
    s.col_overhead.clear();
    s.col_overhead.resize(nc, 0);
    s.lane_l.clear();
    s.lane_l.resize(nc, Value::ZERO);
    s.lane_r.clear();
    s.lane_r.resize(nc, Value::ZERO);
    s.lane_p.clear();
    s.lane_p.resize(nc, Value::ZERO);
    s.lane_v.clear();
    s.lane_v.resize(nc, Value::ZERO);
    s.stats.clear();
    s.results.clear();
    s.results.resize(nc, None);
    s.dead = 0;

    for m in machines.iter_mut() {
        let mut base = m.begin_run();
        base.iterations = iterations;
        s.stats.push(base);
    }

    let (wd_min, fault_armed) = divergence_guards(machines);

    // Seed the initial frames through the (pipelined) fetch engine.
    // Seed ticks may differ per class (staging under faults), which the
    // merge buffer handles like any divergence.
    for c in 0..nc {
        s.fetch_done[c] = fetch.mapped(s.stats[c].ticks);
    }
    for frame in 0..n_frames {
        for c in 0..nc {
            let start = fetch.fetch(&mut s.stats[c], &mut s.fetch_done[c]);
            df_seed_iteration(
                ctx,
                block,
                s,
                &mut machines[c],
                c,
                frame,
                start,
                frame as u64,
                true,
            );
            s.next_iter[c] = frame as u64 + 1;
        }
    }
    for c in 0..nc {
        s.final_tick[c] = s.fetch_done[c];
    }
    df_flush(s);
    // A class whose seeding produced no events (e.g. an all-Nop block)
    // finalizes immediately, exactly like the scalar empty event loop.
    for c in 0..nc {
        if s.out.live[c] == 0 && s.dead & (1u64 << c) == 0 {
            df_finalize(s, &mut machines[c], c, block);
        }
    }

    // Event loop across all in-flight frames and classes.
    while let Some((tick, (), ev)) = s.events.pop() {
        let alive = ev.mask & !s.dead;
        if alive == 0 {
            continue;
        }
        let frame = ev.frame as usize;

        // Divergence fixup, hoisted: one uniform check covers every
        // class until a bound is actually crossed; only then does the
        // slow path walk classes in ascending index (scalar error
        // order: watchdog, then latched fault).
        let proc = if tick <= wd_min && alive & fault_armed == 0 {
            alive
        } else {
            let mut proc: u64 = 0;
            let mut bits = alive;
            while bits != 0 {
                let c = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                match sem::guard(&machines[c], block, tick, s.done_iters[c], iterations) {
                    Ok(()) => proc |= 1u64 << c,
                    Err(e) => df_kill(s, c, e),
                }
            }
            proc
        };

        // Bookkeeping — branch-free word-at-a-time passes.
        let fbase = frame * nc;
        mask::simd_sub_one_u32(&mut s.out.pending[fbase..fbase + nc], proc);
        mask::simd_max_tick(&mut s.frame_last_tick[fbase..fbase + nc], tick, proc);

        if ev.inst != NO_INST {
            let i = ev.inst as usize;
            let b3 = (frame * len + i) * 3;
            let slot = b3 + ev.port as usize;
            // Latch the operand for every processing class (masked copy
            // over contiguous per-class strides).
            let rbase = ev.row as usize * nc;
            let vbase = slot * nc;
            mask::simd_latch_lanes(&mut s.ops_val[vbase..vbase + nc], &s.out.rows[rbase..rbase + nc], proc);
            s.ops_set[slot] |= proc;
            // Readiness for all classes at once: one AND tree.
            let req = s.tables.req[i];
            let m0 = if req & 1 != 0 { s.ops_set[b3] } else { !0u64 };
            let m1 = if req & 2 != 0 { s.ops_set[b3 + 1] } else { !0u64 };
            let m2 = if req & 4 != 0 { s.ops_set[b3 + 2] } else { !0u64 };
            let mut ready = proc & !s.executed[frame * len + i] & m0 & m1 & m2;
            if ready.count_ones() >= 2
                && ctx.uniform_timing
                && sem::is_eval_op(block.insts()[i].op)
            {
                df_execute_lanes(ctx, block, s, machines, frame, i, tick, ready);
                ready = 0;
            }
            while ready != 0 {
                let c = ready.trailing_zeros() as usize;
                ready &= ready - 1;
                df_execute(ctx, block, s, &mut machines[c], c, frame, i, tick);
            }
        }

        // Iteration-completion checks, ascending class index.
        let mut bits = proc;
        while bits != 0 {
            let c = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if s.out.pending[fbase + c] == 0 {
                df_complete_iteration(ctx, block, s, &mut machines[c], c, frame);
            }
        }

        if ev.row != NO_ROW {
            s.out.free_rows.push(ev.row);
        }
        df_flush(s);

        // Consume the event; classes that drained finalize.
        let mut bits = alive & !s.dead;
        while bits != 0 {
            let c = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            s.out.live[c] -= 1;
            if s.out.live[c] == 0 {
                df_finalize(s, &mut machines[c], c, block);
            }
        }
    }

    take_results(&mut s.results, "dataflow")
}
