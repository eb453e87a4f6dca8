//! # trips-sim
//!
//! The event-driven timing simulator for the TRIPS-style grid processor of
//! *"Universal Mechanisms for Data-Parallel Architectures"* (MICRO 2003),
//! with all six of the paper's universal mechanisms implemented as
//! composable [`MechanismSet`] flags:
//!
//! | Mechanism | Flag | Paper section |
//! |---|---|---|
//! | Software-managed streamed memory (SMC, DMA, row channels, LMW) | `smc` | §4.2 |
//! | Hardware-managed cached L1 | always present | §4.2 |
//! | Instruction revitalization (CTR + revitalize broadcast) | `inst_revitalization` | §4.3 |
//! | Local program counters (MIMD execution) | `local_pc` | §4.3 |
//! | Operand revitalization (persistent reservation-station operands) | `operand_revitalization` | §4.4 |
//! | L0 software-managed data store at each ALU | `l0_data_store` | §4.4 |
//!
//! The simulator is **functional as well as timed**: every ALU computes real
//! values (via [`trips_isa::exec`]) and loads/stores hit a real
//! [`trips_mem::MainMemory`], so a simulated kernel's outputs can be
//! asserted equal to an independent reference implementation — the backbone
//! of this workspace's correctness story.
//!
//! Two engines share the machine state:
//!
//! * [`Machine::run_dataflow`] — block-atomic SPDI execution for the
//!   baseline and the S / S-O / S-O-D configurations;
//! * [`Machine::run_mimd`] — per-node local-PC execution for the M / M-D
//!   configurations: one program per array node (at most
//!   `grid.nodes()`), with fixed rank, rank-count and record-count
//!   registers.
//!
//! The lane-batched engines in [`batch`] run many variants of one program
//! in lockstep. All four engines execute instructions through one shared
//! statement of their timing and effects, so they cannot drift apart.
//!
//! # Example
//!
//! ```
//! use trips_sim::{Machine, MechanismSet};
//! use trips_isa::{PlacedInst, DataflowBlock, Slot, Target, Port, Opcode};
//! use dlp_common::{Coord, GridShape, TimingParams, Value};
//!
//! // One MovI feeding an Add that writes register 0: the answer machine.
//! let s0 = Slot::new(Coord::new(0, 0), 0);
//! let s1 = Slot::new(Coord::new(0, 1), 0);
//! let mut a = PlacedInst::new(s0, Opcode::MovI);
//! a.imm = Some(Value::from_u64(21));
//! a.targets = vec![Target::port(s1, Port::Left)];
//! let mut b = PlacedInst::new(s1, Opcode::Add);
//! b.imm = Some(Value::from_u64(21));
//! b.targets = vec![Target::Reg(0)];
//! let block = DataflowBlock::new("answer", vec![a, b], vec![]);
//!
//! let mut m = Machine::new(GridShape::new(8, 8), TimingParams::default(),
//!                          MechanismSet::baseline());
//! let stats = m.run_dataflow(&block, 1)?;
//! assert_eq!(m.reg(0).as_u64(), 42);
//! assert!(stats.cycles() > 0);
//! # Ok::<(), dlp_common::DlpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panicking escape hatches are banned outside tests: a bad cell or an
// injected fault must surface as a structured `DlpError`, never tear
// down a whole sweep (CI promotes these to errors).
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod arena;
pub mod batch;
mod dataflow;
pub mod equeue;
mod machine;
mod mechanisms;
mod mimd;
mod semantics;

pub use arena::EngineArena;
pub use machine::Machine;
pub use mechanisms::MechanismSet;

/// Default watchdog limit: a run exceeding this many simulated ticks fails
/// with [`dlp_common::DlpError::Watchdog`]. Lower it per machine with
/// [`Machine::set_watchdog`] when driving untrusted or generated programs.
pub const WATCHDOG_TICKS: dlp_common::Tick = 2_000_000_000;
