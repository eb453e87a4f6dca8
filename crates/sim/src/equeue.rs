//! Deterministic calendar (bucket) event queue shared by both engines.
//!
//! Both cycle-level engines previously scheduled events through a
//! `BinaryHeap`, paying O(log n) on every push and pop on the single
//! hottest edge of the simulator. [`CalendarQueue`] replaces that with a
//! classic calendar queue: a ring of one-tick buckets covering a sliding
//! window of ticks starting at `base`. Events whose tick falls inside
//! the window go straight to their bucket (amortised O(1)); events
//! beyond the window land in a small `overflow`
//! heap, and events behind the cursor (possible in principle, never
//! produced by the engines, which only schedule at or after the current
//! tick) land in a `past` heap. `pop` takes the lexicographic minimum
//! across the three sources.
//!
//! # Determinism contract
//!
//! The queue emits events in **exactly** the total order
//! `(tick, key, seq)`, where `seq` is a global monotone counter stamped
//! at push time. This is provably identical to the order a
//! `BinaryHeap<Reverse<(tick, seq)>>` produces for `K = ()` (the dataflow
//! engine), and to a `BinaryHeap<Reverse<(tick, rank)>>` for `K = rank`
//! (the MIMD engine, where duplicate `(tick, rank)` entries are
//! value-identical so the `seq` tiebreak is unobservable). Golden stats
//! and fault schedules — which are rolled in pop order — therefore stay
//! bit-for-bit across the scheduler swap. The property test in
//! `crates/sim/tests/equeue_model.rs` checks this order against the heap
//! model for arbitrary interleavings, including behind-cursor inserts
//! and duplicate ticks.
//!
//! # Allocation behaviour
//!
//! All storage (ring buckets, heaps) retains capacity across
//! [`CalendarQueue::clear`], so a queue embedded in an
//! [`EngineArena`](crate::EngineArena) reaches a zero-allocation steady
//! state after the first cell of a sweep.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use dlp_common::Tick;

/// Default number of per-tick buckets in the ring.
///
/// Engine events are overwhelmingly scheduled within a few tens of ticks
/// of the cursor (ALU latencies, router hops, a handful of memory
/// round-trips), so 512 buckets keeps the overflow heap cold without
/// making `clear`/rebase scans expensive.
pub const DEFAULT_WINDOW: usize = 512;

/// An event parked in one of the two heaps (overflow or past).
#[derive(Debug)]
struct HeapEntry<K, T> {
    tick: Tick,
    key: K,
    seq: u64,
    value: T,
}

impl<K: Ord, T> PartialEq for HeapEntry<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.tick == other.tick && self.key == other.key && self.seq == other.seq
    }
}
impl<K: Ord, T> Eq for HeapEntry<K, T> {}
impl<K: Ord, T> PartialOrd for HeapEntry<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, T> Ord for HeapEntry<K, T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.tick, &self.key, self.seq).cmp(&(other.tick, &other.key, other.seq))
    }
}

/// An event sitting in a ring bucket (its tick is the bucket's).
#[derive(Debug)]
struct Entry<K, T> {
    key: K,
    seq: u64,
    value: T,
}

/// Which of the three storage areas holds the current minimum.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Source {
    Ring,
    Past,
    Overflow,
}

/// A deterministic calendar queue ordered by `(tick, key, seq)`.
///
/// `K` is a per-event priority key compared *after* the tick and *before*
/// the insertion sequence number: the dataflow engine uses `K = ()`
/// (pure FIFO within a tick), the MIMD engine uses `K = usize` (rank).
/// `seq` is stamped internally at [`push`](Self::push) time and is
/// monotone over the queue's lifetime (reset only by
/// [`clear`](Self::clear)).
#[derive(Debug)]
pub struct CalendarQueue<K, T> {
    /// Ring of buckets; the bucket for tick `t` (with
    /// `base <= t < base + window`) lives at slot
    /// `(base_slot + (t - base)) & mask`. Each bucket is kept sorted by
    /// `(key, seq)`; `pop_front` is therefore the bucket minimum.
    ring: Vec<VecDeque<Entry<K, T>>>,
    /// `ring.len() - 1`; the window is always a power of two so circular
    /// slot arithmetic is a mask, not a hardware divide, on the hot path.
    mask: usize,
    /// Occupancy bitmap over ring slots (bit = slot holds ≥1 event), so
    /// the pop cursor skips runs of empty buckets a word at a time
    /// instead of probing them individually — sparse schedules (e.g.
    /// MIMD ranks all blocked on memory round-trips) would otherwise pay
    /// an O(window) bucket scan per pop.
    occ: Vec<u64>,
    /// Tick of the bucket at `base_slot`.
    base: Tick,
    /// Ring slot holding tick `base`.
    base_slot: usize,
    /// Number of events currently stored in ring buckets.
    ring_len: usize,
    /// Events with tick >= base + window.
    overflow: BinaryHeap<Reverse<HeapEntry<K, T>>>,
    /// Events with tick < base (behind the cursor).
    past: BinaryHeap<Reverse<HeapEntry<K, T>>>,
    /// Next sequence number to stamp.
    seq: u64,
    /// Total live events across all three areas.
    len: usize,
}

impl<K: Ord + Copy, T> CalendarQueue<K, T> {
    /// An empty queue with the default window ([`DEFAULT_WINDOW`] ticks).
    #[must_use]
    pub fn new() -> Self {
        Self::with_window(DEFAULT_WINDOW)
    }

    /// An empty queue whose ring holds at least `window` single-tick
    /// buckets (rounded up to the next power of two, so slot arithmetic
    /// stays a mask).
    ///
    /// # Panics
    /// Panics if `window` is zero.
    #[must_use]
    pub fn with_window(window: usize) -> Self {
        assert!(window > 0, "calendar queue window must be non-zero");
        let window = window.next_power_of_two();
        let mut ring = Vec::with_capacity(window);
        ring.resize_with(window, VecDeque::new);
        CalendarQueue {
            ring,
            mask: window - 1,
            occ: vec![0u64; window.div_ceil(64)],
            base: 0,
            base_slot: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            past: BinaryHeap::new(),
            seq: 0,
            len: 0,
        }
    }

    /// Number of events currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove all events, retaining every allocation (ring buckets and
    /// heap storage keep their capacity) and resetting the sequence
    /// counter — ready for the next cell of a sweep.
    pub fn clear(&mut self) {
        if self.ring_len > 0 {
            for bucket in &mut self.ring {
                bucket.clear();
            }
        }
        self.occ.fill(0);
        self.ring_len = 0;
        self.overflow.clear();
        self.past.clear();
        self.base = 0;
        self.base_slot = 0;
        self.seq = 0;
        self.len = 0;
    }

    /// Schedule `value` at `tick` with priority `key`.
    ///
    /// Events pushed while the queue is empty rebase the window to start
    /// at `tick`, so the ring is always centred on live work.
    pub fn push(&mut self, tick: Tick, key: K, value: T) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        if self.len == 1 {
            // All areas empty: move the window to the new event.
            self.base = tick;
            self.base_slot = 0;
        }
        if tick < self.base {
            self.past.push(Reverse(HeapEntry { tick, key, seq, value }));
        } else if tick - self.base < self.ring.len() as Tick {
            let slot = (self.base_slot + (tick - self.base) as usize) & self.mask;
            let bucket = &mut self.ring[slot];
            // Keep the bucket sorted by (key, seq). The new event carries
            // the largest seq so far, so among equal keys it belongs
            // last; scan from the back (O(1) with K = () and for the
            // common in-order case, e.g. MIMD ranks stepping in rank
            // order and each re-scheduling itself).
            let mut pos = bucket.len();
            while pos > 0 && bucket[pos - 1].key > key {
                pos -= 1;
            }
            if pos == bucket.len() {
                bucket.push_back(Entry { key, seq, value });
            } else {
                bucket.insert(pos, Entry { key, seq, value });
            }
            self.occ[slot / 64] |= 1 << (slot % 64);
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse(HeapEntry { tick, key, seq, value }));
        }
    }

    /// Remove and return the minimum event under the `(tick, key, seq)`
    /// total order, as `(tick, key, value)`.
    pub fn pop(&mut self) -> Option<(Tick, K, T)> {
        if self.len == 0 {
            return None;
        }
        if self.ring_len == self.len {
            // Fast path: every live event is in the ring — the engines'
            // steady state (the heaps only engage for behind-cursor or
            // beyond-window pushes), so the ring minimum is the global
            // minimum and the three-source comparison can be skipped.
            let slot = self.next_occupied_slot();
            let dist = slot.wrapping_sub(self.base_slot) & self.mask;
            self.base += dist as Tick;
            self.base_slot = slot;
            let e = self.ring[slot].pop_front()?;
            if self.ring[slot].is_empty() {
                self.occ[slot / 64] &= !(1 << (slot % 64));
            }
            self.ring_len -= 1;
            self.len -= 1;
            return Some((self.base, e.key, e.value));
        }
        // Candidate from the ring: advance the cursor to the first
        // occupied bucket via the bitmap. Skipped buckets are empty, so
        // moving `base` forward cannot strand events.
        let ring_min = if self.ring_len > 0 {
            let slot = self.next_occupied_slot();
            let dist = slot.wrapping_sub(self.base_slot) & self.mask;
            self.base += dist as Tick;
            self.base_slot = slot;
            self.ring[slot].front().map(|front| (self.base, front.key, front.seq))
        } else {
            None
        };
        let mut best = ring_min.map(|m| (m, Source::Ring));
        for (heap, src) in [(&self.past, Source::Past), (&self.overflow, Source::Overflow)] {
            if let Some(Reverse(e)) = heap.peek() {
                let cand = (e.tick, e.key, e.seq);
                if best.is_none_or(|(b, _)| cand < b) {
                    best = Some((cand, src));
                }
            }
        }
        let (_, src) = best?;
        self.len -= 1;
        match src {
            Source::Ring => {
                let e = self.ring[self.base_slot].pop_front()?;
                if self.ring[self.base_slot].is_empty() {
                    self.occ[self.base_slot / 64] &= !(1 << (self.base_slot % 64));
                }
                self.ring_len -= 1;
                Some((self.base, e.key, e.value))
            }
            Source::Past => {
                let Reverse(e) = self.past.pop()?;
                Some((e.tick, e.key, e.value))
            }
            Source::Overflow => {
                let Reverse(e) = self.overflow.pop()?;
                if self.ring_len == 0 {
                    // Ring is empty, so the window is free to jump to the
                    // event we are handing out; subsequent near-future
                    // pushes land in buckets instead of the heap.
                    self.base = e.tick;
                    self.base_slot = 0;
                }
                Some((e.tick, e.key, e.value))
            }
        }
    }

    /// First occupied ring slot at or (circularly) after `base_slot`.
    ///
    /// Caller guarantees `ring_len > 0`, so some bit is set and the
    /// circular word scan terminates within one lap.
    fn next_occupied_slot(&self) -> usize {
        let mut w = self.base_slot / 64;
        let masked = self.occ[w] & (!0u64 << (self.base_slot % 64));
        if masked != 0 {
            return w * 64 + masked.trailing_zeros() as usize;
        }
        loop {
            w += 1;
            if w == self.occ.len() {
                w = 0;
            }
            if self.occ[w] != 0 {
                return w * 64 + self.occ[w].trailing_zeros() as usize;
            }
        }
    }
}

impl<K: Ord + Copy, T> Default for CalendarQueue<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_tick() {
        let mut q = CalendarQueue::<(), u32>::new();
        q.push(5, (), 1);
        q.push(5, (), 2);
        q.push(3, (), 0);
        q.push(5, (), 3);
        let order: Vec<(Tick, u32)> =
            std::iter::from_fn(|| q.pop().map(|(t, (), v)| (t, v))).collect();
        assert_eq!(order, vec![(3, 0), (5, 1), (5, 2), (5, 3)]);
    }

    #[test]
    fn key_orders_before_seq() {
        let mut q = CalendarQueue::<usize, u32>::new();
        q.push(7, 2, 20);
        q.push(7, 0, 0);
        q.push(7, 1, 10);
        q.push(7, 0, 1);
        let order: Vec<(usize, u32)> =
            std::iter::from_fn(|| q.pop().map(|(_, k, v)| (k, v))).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 10), (2, 20)]);
    }

    #[test]
    fn overflow_beyond_window_is_ordered() {
        let mut q = CalendarQueue::<(), u32>::with_window(4);
        q.push(0, (), 0);
        q.push(1_000_000, (), 3);
        q.push(2, (), 1);
        q.push(500, (), 2);
        let ticks: Vec<Tick> = std::iter::from_fn(|| q.pop().map(|(t, _, _)| t)).collect();
        assert_eq!(ticks, vec![0, 2, 500, 1_000_000]);
    }

    #[test]
    fn rebase_after_drain_keeps_ring_useful() {
        let mut q = CalendarQueue::<(), u32>::with_window(8);
        q.push(10, (), 0);
        assert_eq!(q.pop(), Some((10, (), 0)));
        // Queue empty: the next push rebases far ahead of the old window.
        q.push(10_000, (), 1);
        q.push(10_003, (), 2);
        assert_eq!(q.pop(), Some((10_000, (), 1)));
        assert_eq!(q.pop(), Some((10_003, (), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn behind_cursor_insert_pops_first() {
        let mut q = CalendarQueue::<(), u32>::with_window(8);
        q.push(100, (), 0);
        q.push(105, (), 1);
        assert_eq!(q.pop(), Some((100, (), 0)));
        // Tick 40 is behind the window base (100): must still win.
        q.push(40, (), 2);
        assert_eq!(q.pop(), Some((40, (), 2)));
        assert_eq!(q.pop(), Some((105, (), 1)));
    }

    #[test]
    fn clear_resets_and_retains_order_semantics() {
        let mut q = CalendarQueue::<(), u32>::with_window(4);
        for t in 0..32 {
            q.push(t, (), t as u32);
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(3, (), 7);
        q.push(3, (), 8);
        assert_eq!(q.pop(), Some((3, (), 7)));
        assert_eq!(q.pop(), Some((3, (), 8)));
    }

    #[test]
    fn interleaved_push_pop_matches_heap_model() {
        // A deterministic smoke version of the proptest model check.
        let mut q = CalendarQueue::<(), u64>::with_window(16);
        let mut model: BinaryHeap<Reverse<(Tick, u64)>> = BinaryHeap::new();
        let mut rng = dlp_common::SplitMix64::new(0xE0_E0);
        let mut seq = 0u64;
        let mut now = 0;
        for step in 0..10_000u64 {
            if step % 3 == 0 && !model.is_empty() {
                let Some(Reverse((mt, ms))) = model.pop() else {
                    unreachable!()
                };
                let got = q.pop();
                assert_eq!(got, Some((mt, (), ms)));
                now = mt;
            } else {
                let t = now + (rng.next_u64() % 40);
                model.push(Reverse((t, seq)));
                q.push(t, (), seq);
                seq += 1;
            }
        }
        while let Some(Reverse((mt, ms))) = model.pop() {
            assert_eq!(q.pop(), Some((mt, (), ms)));
        }
        assert!(q.is_empty());
    }
}
