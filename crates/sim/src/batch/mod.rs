//! Lane-batched execution: N variants of one prepared lowering run in
//! lockstep through a single shared calendar queue (DESIGN.md §10, §12).
//!
//! A *lane class* is one complete scalar run — same block or programs,
//! its own `Machine` (memory image, registers, router, caches, fault
//! injector) — and up to [`MAX_CLASSES`] classes execute simultaneously.
//! Queue events carry a class **bitmask**: classes whose schedules agree
//! share one event (one queue entry, one bucket walk, one readiness
//! check covers all of them), and classes that diverge (faults, early
//! errors) simply mask off rather than fork the run. Every class runs
//! the same iteration (dataflow) or record (MIMD) count.
//!
//! Per-class state is structure-of-arrays with the class index
//! innermost: operand values are `[frame][inst][port][class]` strides,
//! operand presence and executed flags are one `u64` bitmask per
//! `[frame][inst][port]` / `[frame][inst]`, and issue/register-port
//! throttles are `[resource][class]`. The hot passes — operand latch,
//! per-event bookkeeping, ALU evaluation, and stat accumulation — are
//! branch-free word-at-a-time loops over the class stride
//! (the `mask` module), written so the autovectorizer emits SIMD for them
//! (`cargo xtask asmcheck` greps the release asm for vector ops on the
//! tagged functions). Divergence handling (watchdog trips, latched
//! fatal faults) is hoisted out of the inner loops into mask fixup:
//! the fast path computes one processing mask per event and only walks
//! individual classes on the rare tick where a uniform bound is
//! crossed.
//!
//! **Determinism.** Per-class results are bit-identical to scalar runs
//! (`run_dataflow_in` / `run_mimd_in`) because, for every class `c`, the
//! restriction of the shared queue's pop order to events containing `c`
//! equals the scalar queue's `(tick, key, seq)` order. Pushes produced
//! while processing one popped event are buffered and merged across
//! classes under the *cursor rule*: class `c` may join a buffered entry
//! only at or past its own cursor (the position after its previous
//! push) and only if the entry does not already carry bit `c`. This
//! keeps each class's flush positions strictly increasing in its push
//! order — so per-class sequence numbers are monotone in scalar push
//! order — and preserves per-class multiplicity (two same-payload pushes
//! by one class stay two entries, exactly like the scalar MIMD
//! send-to-self wakeup). Classes within one event are processed in
//! ascending class index, and no per-class computation reads another
//! class's state, so lane order cannot leak into results. The
//! word-at-a-time passes preserve that argument: they update only
//! per-class columns (`state[.. * nc + c]`) under the event's
//! processing mask, commute across the class dimension, and never
//! consult a neighbouring lane's word.

// Lane classes are addressed by a dense index `c` into parallel SoA
// arrays (machines, stats, masks, cursors); index loops are the
// natural form here, not an iterator smell.
#![allow(clippy::needless_range_loop)]

use dlp_common::{DlpError, SimStats, Tick};

use crate::Machine;

pub(crate) mod mask;

mod dataflow;
mod mimd;

pub use dataflow::run_dataflow_batch_in;
pub use mimd::run_mimd_batch_in;

pub(crate) use dataflow::BatchDataflowScratch;
pub(crate) use mimd::BatchMimdScratch;

/// Maximum lane classes per batched dispatch (the event bitmask width).
pub const MAX_CLASSES: usize = 64;

/// Sentinel instruction index marking a quiesce (bookkeeping) event.
const NO_INST: u32 = u32::MAX;
/// Sentinel row index for events that carry no operand values.
const NO_ROW: u32 = u32::MAX;

/// One buffered (not yet flushed) push from the current merge window.
#[derive(Clone, Copy)]
struct Pending {
    tick: Tick,
    /// Dataflow: frame index. MIMD: rank.
    slot: u32,
    /// Dataflow: destination instruction or [`NO_INST`]. MIMD: unused (0).
    inst: u32,
    /// Dataflow: destination port index 0..3. MIMD: unused (0).
    port: u8,
    mask: u64,
    /// Dataflow operand events: index of the per-class value row.
    row: u32,
}

/// A queued event: the payload identity plus the class mask.
#[derive(Clone, Copy)]
struct BatchEv {
    mask: u64,
    frame: u32,
    inst: u32,
    port: u8,
    row: u32,
}

/// The shared merge buffer: pending pushes for the current window plus
/// each class's cursor (the pend index after its latest push).
#[derive(Default)]
struct MergeBuf {
    pend: Vec<Pending>,
    cursors: Vec<usize>,
}

impl MergeBuf {
    fn reset(&mut self, nc: usize) {
        self.pend.clear();
        self.cursors.clear();
        self.cursors.resize(nc, 0);
    }

    /// Buffer one push for class `c` under the cursor rule: join the
    /// first entry at or past `cursors[c]` with identical
    /// `(tick, slot, inst, port)` that does not yet carry bit `c`, else
    /// append. Returns the pend index the push landed in, and whether it
    /// was an append (the caller allocates value rows on appends).
    fn push(&mut self, c: usize, tick: Tick, slot: u32, inst: u32, port: u8) -> (usize, bool) {
        let bit = 1u64 << c;
        let start = self.cursors[c];
        for idx in start..self.pend.len() {
            let p = &mut self.pend[idx];
            if p.tick == tick
                && p.slot == slot
                && p.inst == inst
                && p.port == port
                && p.mask & bit == 0
            {
                p.mask |= bit;
                self.cursors[c] = idx + 1;
                return (idx, false);
            }
        }
        self.pend.push(Pending { tick, slot, inst, port, mask: bit, row: NO_ROW });
        self.cursors[c] = self.pend.len();
        (self.pend.len() - 1, true)
    }
}

/// The preconditions both batched entry points assert: 1..=[`MAX_CLASSES`]
/// machines sharing one grid shape.
fn assert_lanes(machines: &[Machine]) {
    let nc = machines.len();
    assert!(
        (1..=MAX_CLASSES).contains(&nc),
        "batched dispatch takes 1..={MAX_CLASSES} lane classes, got {nc}"
    );
    assert!(
        machines.iter().all(|m| m.grid() == machines[0].grid()),
        "batched lane classes must share one grid shape"
    );
}

/// The hoisted divergence guards of one dispatch: the smallest watchdog
/// bound across classes, and the mask of classes whose injector holds a
/// real fault plan (`fatal()` can only ever be `Some` for those). The
/// event loops' fast path checks this one bound and one mask instead of
/// walking classes.
fn divergence_guards(machines: &[Machine]) -> (Tick, u64) {
    let wd_min = machines.iter().map(|m| m.watchdog_ticks).min().unwrap_or(0);
    let mut armed = 0u64;
    for (c, m) in machines.iter().enumerate() {
        if !m.fault.plan().is_none() {
            armed |= 1u64 << c;
        }
    }
    (wd_min, armed)
}

/// Every class's latched result, in class order.
fn take_results(
    results: &mut [Option<Result<SimStats, DlpError>>],
    engine: &str,
) -> Vec<Result<SimStats, DlpError>> {
    results
        .iter_mut()
        .map(|r| {
            r.take().unwrap_or_else(|| {
                Err(DlpError::Internal {
                    detail: format!("batched {engine} engine left a lane class unresolved"),
                })
            })
        })
        .collect()
}
