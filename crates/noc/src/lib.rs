//! # trips-noc
//!
//! The lightweight routed operand network connecting the ALU array, the
//! register-file banks on the top edge, and the memory interface (L1 banks
//! and SMC streaming channels) on the left edge.
//!
//! The paper's baseline assumes a mesh interconnect with a hop delay of half
//! a cycle between adjacent ALUs (§5.2). This crate models that mesh with
//! **dimension-order (Y-then-X) routing** and **per-link serialization**:
//! each unidirectional link accepts a bounded number of messages per tick,
//! and later messages queue behind earlier ones. That captures the two
//! effects the paper's results depend on — distance (placement quality,
//! MIMD load routing) and contention (operand fan-out, memory-port
//! hotspots) — without simulating individual flits.
//!
//! The router is a pure *timing* component: the simulator keeps message
//! payloads, the router answers "when does it arrive?".
//!
//! # Example
//!
//! ```
//! use trips_noc::{MeshRouter, Endpoint};
//! use dlp_common::{Coord, GridShape, NetParams};
//!
//! let mut net = MeshRouter::new(GridShape::new(8, 8), NetParams::default());
//! let a = Endpoint::Node(Coord::new(0, 0));
//! let b = Endpoint::Node(Coord::new(2, 3));
//! let arrival = net.send(a, b, 0);
//! assert_eq!(arrival, 5); // 5 hops × 1 tick (half-cycle) each
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panicking escape hatches are banned outside tests: a bad cell or an
// injected fault must surface as a structured `DlpError`, never tear
// down a whole sweep (CI promotes these to errors).
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use dlp_common::{Coord, FaultInjector, FaultSite, GridShape, NetParams, Tick};

/// A source or destination attached to the mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// An ALU node on the array.
    Node(Coord),
    /// A register-file bank above column `col` of the top row.
    RegBank(u8),
    /// A memory port (L1 bank / SMC channel head) left of column 0 in `row`.
    MemPort(u8),
}

impl Endpoint {
    /// The grid coordinate where this endpoint's traffic enters/exits the
    /// mesh, plus the extra edge hops to reach it.
    fn attach(self) -> (Coord, u32) {
        match self {
            Endpoint::Node(c) => (c, 0),
            Endpoint::RegBank(col) => (Coord::new(0, col), 1),
            Endpoint::MemPort(row) => (Coord::new(row, 0), 1),
        }
    }
}

/// Direction of a unidirectional mesh link leaving a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Dir {
    North = 0,
    South = 1,
    East = 2,
    West = 3,
}

/// Links leaving each node (one per [`Dir`]).
const LINKS_PER_NODE: usize = 4;

/// Reservation state for one link: the latest tick with traffic and how many
/// messages already departed on that tick.
///
/// The all-zero state is the "never used" state: `tick: 0, count: 0` never
/// blocks or delays a message (a zero count can't fill a slot), so a
/// pre-filled flat table behaves exactly like an absent hash entry.
#[derive(Clone, Copy, Debug, Default)]
struct LinkUse {
    tick: Tick,
    count: u32,
}

/// Cumulative router statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages routed.
    pub msgs: u64,
    /// Total hops traversed (including edge attach hops).
    pub hops: u64,
    /// Total ticks messages spent queued behind busy links.
    pub queue_ticks: u64,
}

/// The mesh operand router.
///
/// Messages are routed Y-first (within the source column to the destination
/// row) then X (along the row). Each link serializes: with the default
/// [`NetParams`], one message per tick per link; later messages wait.
#[derive(Clone, Debug)]
pub struct MeshRouter {
    grid: GridShape,
    params: NetParams,
    /// Per-link reservation state in a flat table indexed by
    /// `node_index * LINKS_PER_NODE + direction` — the per-hop path is a
    /// dense array access, never a hash lookup.
    usage: Vec<LinkUse>,
    stats: NetStats,
}

impl MeshRouter {
    /// Create a router for `grid` with the given parameters.
    #[must_use]
    pub fn new(grid: GridShape, params: NetParams) -> Self {
        MeshRouter {
            grid,
            params,
            usage: vec![LinkUse::default(); grid.nodes() * LINKS_PER_NODE],
            stats: NetStats::default(),
        }
    }

    /// The grid this router serves.
    #[must_use]
    pub fn grid(&self) -> GridShape {
        self.grid
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Forget link occupancy and statistics (used between kernel runs).
    ///
    /// Clears the link table in place; the storage is reused across runs.
    pub fn reset(&mut self) {
        self.usage.fill(LinkUse::default());
        self.stats = NetStats::default();
    }

    /// Number of hops between two endpoints (no contention).
    #[must_use]
    pub fn distance(&self, from: Endpoint, to: Endpoint) -> u32 {
        let (a, ea) = from.attach();
        let (b, eb) = to.attach();
        debug_assert!(self.grid.contains(a) && self.grid.contains(b));
        a.manhattan(b) + ea + eb
    }

    /// Route a message injected at `now`, returning its arrival tick.
    ///
    /// Reserves capacity on every link along the dimension-order path, so
    /// concurrent messages sharing links are serialized.
    pub fn send(&mut self, from: Endpoint, to: Endpoint, now: Tick) -> Tick {
        let (src, src_edge) = from.attach();
        let (dst, dst_edge) = to.attach();
        debug_assert!(self.grid.contains(src), "source {src} off-grid");
        debug_assert!(self.grid.contains(dst), "destination {dst} off-grid");

        let mut t = now + Tick::from(src_edge) * self.params.hop_ticks;
        let mut at = src;
        let mut hops = src_edge + dst_edge;

        // Y first: move within the column to the destination row.
        while at.row != dst.row {
            let dir = if dst.row > at.row { Dir::South } else { Dir::North };
            t = self.traverse(at, dir, t);
            at = match dir {
                Dir::South => Coord::new(at.row + 1, at.col),
                Dir::North => Coord::new(at.row - 1, at.col),
                _ => unreachable!(),
            };
            hops += 1;
        }
        // Then X along the row.
        while at.col != dst.col {
            let dir = if dst.col > at.col { Dir::East } else { Dir::West };
            t = self.traverse(at, dir, t);
            at = match dir {
                Dir::East => Coord::new(at.row, at.col + 1),
                Dir::West => Coord::new(at.row, at.col - 1),
                _ => unreachable!(),
            };
            hops += 1;
        }
        t += Tick::from(dst_edge) * self.params.hop_ticks;

        self.stats.msgs += 1;
        self.stats.hops += u64::from(hops);
        t
    }

    /// Route a message with fault injection: each routing attempt may be
    /// dropped or corrupted per the injector's plan; link-level CRC detects
    /// either, NACKs, and the message is replayed after a bounded
    /// exponential backoff. Every replay re-reserves links through
    /// [`MeshRouter::send`], so retry traffic contends honestly.
    ///
    /// With the injector disabled this is exactly [`MeshRouter::send`] —
    /// no RNG draws, bit-identical timing. If the retry budget exhausts,
    /// the injector latches a fatal fault (the engines surface it as
    /// `DlpError::FaultUnrecoverable`) and the last attempt's arrival is
    /// returned so the caller can keep unwinding deterministically.
    pub fn send_faulty(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        now: Tick,
        inj: &mut FaultInjector,
    ) -> Tick {
        if !inj.enabled() {
            return self.send(from, to, now);
        }
        let plan = inj.plan();
        let mut inject = now;
        let mut attempt = 0u32;
        let mut first_arrive = None;
        loop {
            let arrive = self.send(from, to, inject);
            let base = *first_arrive.get_or_insert(arrive);
            // One roll per configured hazard per attempt, in fixed order.
            let dropped = inj.roll(plan.noc_drop);
            let corrupt = inj.roll(plan.noc_corrupt);
            if !dropped && !corrupt {
                if attempt > 0 {
                    inj.recovered(u64::from(attempt), u64::from(attempt), arrive - base);
                }
                return arrive;
            }
            attempt += 1;
            if attempt > plan.max_retries {
                inj.recovered(u64::from(attempt), u64::from(attempt - 1), arrive - base);
                inj.escalate(FaultSite::NocLink, arrive, attempt - 1);
                return arrive;
            }
            // NACK observed at the (would-be) arrival tick; replay after a
            // bounded exponential backoff.
            inject = arrive + inj.backoff(attempt);
        }
    }

    /// Traverse one link: wait for a departure slot, reserve it, advance
    /// time. A link carries at most `link_msgs_per_tick` messages per tick.
    fn traverse(&mut self, at: Coord, dir: Dir, ready: Tick) -> Tick {
        let cap = self.params.link_msgs_per_tick.max(1);
        let entry = &mut self.usage[self.grid.index(at) * LINKS_PER_NODE + dir as usize];
        let mut depart = ready;
        if entry.tick >= ready && entry.count >= cap {
            depart = entry.tick + 1; // slot on `entry.tick` is full
        } else if entry.tick > ready {
            depart = entry.tick; // join the latest partially filled slot
        }
        if depart == entry.tick {
            entry.count += 1;
        } else {
            *entry = LinkUse { tick: depart, count: 1 };
        }
        self.stats.queue_ticks += depart - ready;
        depart + self.params.hop_ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn router() -> MeshRouter {
        MeshRouter::new(GridShape::new(8, 8), NetParams::default())
    }

    #[test]
    fn same_node_is_free() {
        let mut net = router();
        let n = Endpoint::Node(Coord::new(3, 3));
        assert_eq!(net.send(n, n, 10), 10);
        assert_eq!(net.distance(n, n), 0);
    }

    #[test]
    fn uncontended_latency_is_manhattan() {
        let mut net = router();
        let a = Endpoint::Node(Coord::new(0, 0));
        let b = Endpoint::Node(Coord::new(7, 7));
        assert_eq!(net.send(a, b, 0), 14);
        assert_eq!(net.stats().hops, 14);
        assert_eq!(net.stats().queue_ticks, 0);
    }

    #[test]
    fn edge_endpoints_add_a_hop() {
        let mut net = router();
        let rb = Endpoint::RegBank(2);
        let n = Endpoint::Node(Coord::new(0, 2));
        assert_eq!(net.distance(rb, n), 1);
        assert_eq!(net.send(rb, n, 0), 1);

        let mp = Endpoint::MemPort(4);
        let n2 = Endpoint::Node(Coord::new(4, 0));
        assert_eq!(net.distance(mp, n2), 1);
        assert_eq!(net.send(mp, n2, 0), 1);
    }

    #[test]
    fn contention_serializes_shared_link() {
        let mut net = router();
        let a = Endpoint::Node(Coord::new(0, 0));
        let b = Endpoint::Node(Coord::new(0, 1));
        // Two messages over the same single link, same tick.
        let t1 = net.send(a, b, 0);
        let t2 = net.send(a, b, 0);
        assert_eq!(t1, 1);
        assert_eq!(t2, 2, "second message must queue behind the first");
        assert_eq!(net.stats().queue_ticks, 1);
    }

    #[test]
    fn disjoint_paths_do_not_interact() {
        let mut net = router();
        let t1 = net.send(Endpoint::Node(Coord::new(0, 0)), Endpoint::Node(Coord::new(0, 1)), 0);
        let t2 = net.send(Endpoint::Node(Coord::new(5, 5)), Endpoint::Node(Coord::new(5, 6)), 0);
        assert_eq!(t1, 1);
        assert_eq!(t2, 1);
    }

    #[test]
    fn reset_clears_occupancy() {
        let mut net = router();
        let a = Endpoint::Node(Coord::new(0, 0));
        let b = Endpoint::Node(Coord::new(0, 1));
        net.send(a, b, 0);
        net.reset();
        assert_eq!(net.send(a, b, 0), 1);
        assert_eq!(net.stats().msgs, 1);
    }

    #[test]
    fn y_then_x_path_reserves_column_first() {
        let mut net = router();
        // (0,0) -> (1,1): goes south through ((0,0),South) then east.
        net.send(Endpoint::Node(Coord::new(0, 0)), Endpoint::Node(Coord::new(1, 1)), 0);
        // A second message using the same southward link queues...
        let t = net.send(Endpoint::Node(Coord::new(0, 0)), Endpoint::Node(Coord::new(1, 0)), 0);
        assert_eq!(t, 2);
    }

    #[test]
    fn faulty_send_with_zero_plan_matches_clean_send() {
        use dlp_common::FaultPlan;
        let mut clean = router();
        let mut faulty = router();
        let mut inj = FaultPlan::none().injector(1234);
        let a = Endpoint::Node(Coord::new(0, 0));
        let b = Endpoint::Node(Coord::new(3, 5));
        for now in 0..50 {
            assert_eq!(clean.send(a, b, now), faulty.send_faulty(a, b, now, &mut inj));
        }
        assert_eq!(clean.stats(), faulty.stats());
        assert_eq!(inj.stats(), dlp_common::FaultStats::default());
    }

    #[test]
    fn dropped_messages_are_replayed_with_backoff() {
        use dlp_common::{FaultPlan, FaultRate};
        let mut plan = FaultPlan::none();
        plan.noc_drop = FaultRate::per_million(400_000);
        let mut net = router();
        let mut inj = plan.injector(7);
        let a = Endpoint::Node(Coord::new(0, 0));
        let b = Endpoint::Node(Coord::new(7, 7));
        let mut recovered_any = false;
        for _ in 0..200 {
            net.reset();
            let t = net.send_faulty(a, b, 0, &mut inj);
            assert!(t >= 14, "arrival {t} can never beat the clean path");
            if t > 14 {
                recovered_any = true;
            }
            if inj.fatal().is_some() {
                break;
            }
        }
        assert!(recovered_any, "40% drop rate must force at least one replay");
        assert!(inj.stats().injected > 0);
        assert_eq!(inj.stats().injected, inj.stats().retries + inj.fatal().iter().count() as u64);
    }

    #[test]
    fn certain_drop_exhausts_budget_and_escalates() {
        use dlp_common::{FaultPlan, FaultRate};
        let mut plan = FaultPlan::none();
        plan.noc_drop = FaultRate::per_million(1_000_000);
        plan.max_retries = 3;
        let mut net = router();
        let mut inj = plan.injector(0);
        let a = Endpoint::Node(Coord::new(0, 0));
        let b = Endpoint::Node(Coord::new(1, 1));
        let t = net.send_faulty(a, b, 0, &mut inj);
        let fatal = inj.fatal().expect("certain drop must escalate");
        assert_eq!(fatal.site, FaultSite::NocLink);
        assert_eq!(fatal.retries, 3);
        assert!(t > 0);
        // Escalated: injection stops, subsequent sends are clean.
        let t2 = net.send_faulty(a, b, 100, &mut inj);
        assert_eq!(t2, net.distance(a, b) as u64 + 100);
    }

    proptest! {
        #[test]
        fn arrival_never_precedes_distance(
            r1 in 0u8..8, c1 in 0u8..8, r2 in 0u8..8, c2 in 0u8..8, now in 0u64..1000
        ) {
            let mut net = router();
            let a = Endpoint::Node(Coord::new(r1, c1));
            let b = Endpoint::Node(Coord::new(r2, c2));
            let arr = net.send(a, b, now);
            prop_assert!(arr >= now + u64::from(net.distance(a, b)));
        }

        #[test]
        fn repeated_sends_monotonically_arrive(
            r in 0u8..8, c in 0u8..8, n in 1usize..20
        ) {
            let mut net = router();
            let a = Endpoint::Node(Coord::new(0, 0));
            let b = Endpoint::Node(Coord::new(r, c));
            let mut last = 0;
            for _ in 0..n {
                let t = net.send(a, b, 0);
                prop_assert!(t >= last);
                last = t;
            }
        }
    }
}
