//! # dlp-common
//!
//! Shared substrate types for the `dlp-mech` workspace, a reproduction of
//! *"Universal Mechanisms for Data-Parallel Architectures"* (MICRO 2003).
//!
//! This crate holds the vocabulary every other crate speaks:
//!
//! * [`Value`] — a 64-bit bag of bits with typed views (`u32`, `i32`, `f32`,
//!   `u64`, `f64`), the datum that flows through the simulated operand network.
//! * [`Coord`] and [`GridShape`] — positions on the ALU array.
//! * [`TimingParams`] — functional-unit, cache and network latencies
//!   (defaults match the paper's §5.2 baseline: Alpha-21264-like latencies,
//!   0.5-cycle inter-ALU hops on a 10FO4 clock).
//! * [`SimStats`] — counters accumulated by the timing simulator, and the
//!   derived metrics the paper reports (ops/cycle, speedup, harmonic mean).
//! * [`SplitMix64`] — a tiny deterministic RNG for reproducible workloads.
//! * [`fault`] — deterministic transient-fault injection ([`FaultPlan`],
//!   [`FaultInjector`]): seeded chaos at the NoC/DMA/SMC/L1/operand-store
//!   hook points, with honest recovery accounting.
//! * [`crashpoint`] — the host-side twin of [`fault`]: named kill sites
//!   threaded through the persistence layer's write paths, armed via
//!   `DLP_CRASHPOINT` to abort the process deterministically for
//!   crash-consistency testing.
//! * [`json`] — compact JSON writing through one [`json::ToJson`] trait
//!   and its derive (the experiment harness writes its artifacts with
//!   [`json::to_string`]), plus the parser and the derived
//!   [`json::FromJson`] decoders the store reads them back with.
//!
//! # Example
//!
//! ```
//! use dlp_common::{Value, GridShape, Coord};
//!
//! let v = Value::from_f32(1.5);
//! assert_eq!(v.as_f32(), 1.5);
//!
//! let grid = GridShape::new(8, 8);
//! let hops = grid.manhattan(Coord::new(0, 0), Coord::new(3, 4));
//! assert_eq!(hops, 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// `#[derive(ToJson)]` and `#[derive(FromJson)]` name their traits by
// absolute path; this lets the derives inside this crate resolve them too.
extern crate self as dlp_common;

pub mod crashpoint;
mod error;
pub mod fault;
mod geom;
pub mod json;
mod params;
mod rng;
mod stats;
mod value;
pub mod vcode;
pub mod wcode;

pub use error::DlpError;
pub use fault::{FatalFault, FaultInjector, FaultPlan, FaultRate, FaultSite, FaultStats};
pub use geom::{Coord, GridShape};
pub use params::{CoreParams, FetchParams, MemParams, NetParams, OpClassLatency, TimingParams};
pub use rng::SplitMix64;
pub use stats::{harmonic_mean, OpsPerCycle, SimStats};
pub use value::Value;

/// Simulation time in *ticks* (half-cycles).
///
/// The paper's baseline assumes a 0.5-cycle hop delay between adjacent ALUs,
/// so the simulator advances in half-cycle ticks to keep all latencies
/// integral. Use [`ticks_to_cycles`] when reporting.
pub type Tick = u64;

/// Convert ticks (half-cycles) to cycles, rounding up.
#[must_use]
pub fn ticks_to_cycles(ticks: Tick) -> u64 {
    ticks.div_ceil(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_cycle_roundtrip() {
        assert_eq!(ticks_to_cycles(0), 0);
        assert_eq!(ticks_to_cycles(1), 1);
        assert_eq!(ticks_to_cycles(2), 1);
        assert_eq!(ticks_to_cycles(3), 2);
    }
}
