//! Property tests pinning the calendar queue to its binary-heap model.
//!
//! The determinism contract (DESIGN.md): for any interleaving of pushes
//! and pops — including pushes behind the queue's current cursor and
//! duplicate ticks — [`CalendarQueue`] emits exactly the order a
//! `BinaryHeap<Reverse<(tick, key, seq)>>` would. Small tick domains
//! force heavy duplicate-tick collisions, and a small window forces the
//! overflow and rebase paths. A hold-model churn checks the default
//! window, the one the engines run with, against the same heap model.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dlp_common::{SplitMix64, Tick};
use proptest::collection::vec;
use proptest::prelude::*;
use trips_sim::equeue::CalendarQueue;

/// Seed for the hold-model churn's deterministic schedule.
const CHURN_SEED: u64 = 0x0051_EEED;

/// Drives a default-window [`CalendarQueue`] through a hold-model churn
/// — `live` resident events, `ops` pop-then-push rounds with
/// pseudo-random tick deltas in 1..=64 — and folds every popped
/// `(tick, payload)` into a checksum. The identical schedule runs
/// through [`heap_churn`]; equal checksums mean the two schedulers emit
/// the same total order.
fn queue_churn(live: usize, ops: u64) -> u64 {
    let mut q: CalendarQueue<(), u64> = CalendarQueue::new();
    let mut rng = SplitMix64::new(CHURN_SEED ^ live as u64);
    for i in 0..live as u64 {
        q.push((rng.next_u64() & 63) + 1, (), i);
    }
    let mut checksum = 0u64;
    for _ in 0..ops {
        let (t, (), v) = q.pop().expect("churn queue stays populated");
        checksum = checksum
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(t ^ v);
        q.push(t + (rng.next_u64() & 63) + 1, (), v);
    }
    checksum
}

/// The `BinaryHeap` reference for [`queue_churn`]: same schedule, same
/// checksum, through a `Reverse<(tick, seq)>` heap.
fn heap_churn(live: usize, ops: u64) -> u64 {
    let mut q: BinaryHeap<Reverse<(Tick, u64, u64)>> = BinaryHeap::new();
    let mut rng = SplitMix64::new(CHURN_SEED ^ live as u64);
    let mut seq = 0u64;
    for i in 0..live as u64 {
        q.push(Reverse(((rng.next_u64() & 63) + 1, seq, i)));
        seq += 1;
    }
    let mut checksum = 0u64;
    for _ in 0..ops {
        let Reverse((t, _, v)) = q.pop().expect("churn heap stays populated");
        checksum = checksum
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(t ^ v);
        q.push(Reverse((t + (rng.next_u64() & 63) + 1, seq, v)));
        seq += 1;
    }
    checksum
}

#[test]
fn default_window_churn_matches_heap_order() {
    for live in [1usize, 7, 64, 700, 1024] {
        let a = queue_churn(live, 2_000);
        assert_eq!(
            a,
            heap_churn(live, 2_000),
            "order parity at {live} live events"
        );
        assert_eq!(a, queue_churn(live, 2_000), "deterministic at {live}");
    }
}

/// One scripted operation: `op == 0` pops, anything else pushes at
/// `tick` (and, for the keyed tests, with `key`).
type Op = (u8, u64, usize);

fn ops_strategy(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    // Tick domain 0..48 with a window of 16 exercises ring, overflow,
    // and (after drains rebase the window upward) behind-cursor pushes.
    vec((0u8..4, 0u64..48, 0usize..6), 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// FIFO (unkeyed) queue vs a `(tick, seq)` heap model — the dataflow
    /// engine's configuration.
    #[test]
    fn fifo_queue_matches_heap_model(ops in ops_strategy(200)) {
        let mut q: CalendarQueue<(), u64> = CalendarQueue::with_window(16);
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (op, tick, _) in ops {
            if op == 0 {
                prop_assert_eq!(
                    q.pop().map(|(t, (), s)| (t, s)),
                    model.pop().map(|Reverse(e)| e)
                );
            } else {
                // The payload is the model's sequence number, so a pop
                // mismatch in either tick or intra-tick order is visible.
                q.push(tick, (), seq);
                model.push(Reverse((tick, seq)));
                seq += 1;
            }
            prop_assert_eq!(q.len(), model.len());
        }
        while let Some(Reverse(e)) = model.pop() {
            prop_assert_eq!(q.pop().map(|(t, (), s)| (t, s)), Some(e));
        }
        prop_assert!(q.is_empty());
    }

    /// Keyed queue vs a `(tick, key, seq)` heap model — keys order before
    /// the sequence number, as MIMD ranks do.
    #[test]
    fn keyed_queue_matches_heap_model(ops in ops_strategy(200)) {
        let mut q: CalendarQueue<usize, u64> = CalendarQueue::with_window(16);
        let mut model: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (op, tick, key) in ops {
            if op == 0 {
                prop_assert_eq!(q.pop(), model.pop().map(|Reverse(e)| e));
            } else {
                q.push(tick, key, seq);
                model.push(Reverse((tick, key, seq)));
                seq += 1;
            }
        }
        while let Some(Reverse(e)) = model.pop() {
            prop_assert_eq!(q.pop(), Some(e));
        }
        prop_assert!(q.is_empty());
    }

    /// The MIMD ready-queue replacement specifically: the old scheduler
    /// was a seq-less `BinaryHeap<Reverse<(tick, rank)>>`, so the
    /// calendar queue must emit the identical `(tick, rank)` sequence —
    /// duplicates included — for any interleaving.
    #[test]
    fn mimd_ready_queue_is_observationally_identical(ops in ops_strategy(200)) {
        let mut q: CalendarQueue<usize, ()> = CalendarQueue::with_window(16);
        let mut model: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for (op, tick, rank) in ops {
            if op == 0 {
                prop_assert_eq!(
                    q.pop().map(|(t, r, ())| (t, r)),
                    model.pop().map(|Reverse(e)| e)
                );
            } else {
                q.push(tick, rank, ());
                model.push(Reverse((tick, rank)));
            }
        }
        while let Some(Reverse(e)) = model.pop() {
            prop_assert_eq!(q.pop().map(|(t, r, ())| (t, r)), Some(e));
        }
        prop_assert!(q.is_empty());
    }

    /// `clear` fully resets ordering state: a cleared queue behaves like
    /// a fresh one for a subsequent scripted run.
    #[test]
    fn clear_behaves_like_fresh(ops in ops_strategy(60)) {
        let mut dirty: CalendarQueue<usize, u64> = CalendarQueue::with_window(16);
        // Leave entries across all three internal regions, then clear.
        for t in [0u64, 5, 40, 2, 39] {
            dirty.push(t, 0, 0);
        }
        let _ = dirty.pop();
        dirty.clear();
        prop_assert!(dirty.is_empty());

        let mut fresh: CalendarQueue<usize, u64> = CalendarQueue::with_window(16);
        let mut seq = 0u64;
        for (op, tick, key) in ops {
            if op == 0 {
                prop_assert_eq!(dirty.pop(), fresh.pop());
            } else {
                dirty.push(tick, key, seq);
                fresh.push(tick, key, seq);
                seq += 1;
            }
        }
        while let Some(e) = fresh.pop() {
            prop_assert_eq!(dirty.pop(), Some(e));
        }
        prop_assert!(dirty.is_empty());
    }
}
