//! The machine's per-instruction semantics, stated once.
//!
//! Every timing rule and architectural effect of an instruction — the
//! issue reservation, the router sends, the memory-system accesses, the
//! fault hooks, the statistics it bumps, the operands it routes — lives
//! in this module. The scalar engines ([`Machine::run_dataflow_in`],
//! [`Machine::run_mimd_in`]) and the lane-batched engines
//! ([`crate::batch`]) call the same functions, once per run or once per
//! lane class, so both families cannot drift apart: a change to a
//! mechanism's timing is made here and reaches every engine.
//!
//! What an engine keeps for itself is only what is really its own:
//! where its operand and node state lives (scalar frames, SoA rows and
//! masks), how it queues the events these functions emit (a per-run
//! calendar queue, a cross-class merge window), and its word-at-a-time
//! SIMD passes. The functions here take the class's `&mut Machine` and
//! `&mut SimStats` and hand every event they schedule to a push sink.
//!
//! Because the lane-batched engines call this code per class, it is
//! held to the batch determinism lint (`cargo xtask detlint`): no
//! reversed iteration, unstable sorts, `swap_remove`, or map iteration.

pub(crate) mod dataflow;
pub(crate) mod mimd;

use dlp_common::{SimStats, Tick};
use trips_mem::Throttle;

use crate::Machine;

/// Reserve an issue slot at cycle granularity on a per-tick [`Throttle`].
pub(crate) fn reserve_cycle(t: &mut Throttle, now: Tick) -> Tick {
    (t.reserve(now / 2) * 2).max(now)
}

/// The run epilogue every engine ends a successful run with: the
/// completion tick, the network totals, and the fault counters.
pub(crate) fn finish_run(m: &mut Machine, mut stats: SimStats, ticks: Tick) -> SimStats {
    stats.ticks = ticks;
    let net = m.router.stats();
    stats.net_msgs = net.msgs;
    stats.net_hops = net.hops;
    stats.record_faults(m.fault.take_stats());
    stats
}
