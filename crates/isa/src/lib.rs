//! # trips-isa
//!
//! The instruction set of the simulated TRIPS-style grid processor from
//! *"Universal Mechanisms for Data-Parallel Architectures"* (MICRO 2003).
//!
//! Two execution models share one opcode vocabulary ([`Opcode`]):
//!
//! * **Dataflow (block) mode** — the native TRIPS model. A
//!   [`DataflowBlock`] statically places instructions into
//!   reservation-station slots on the ALU array; each instruction encodes
//!   *where its result goes* (its [`Target`] list) rather than register
//!   names. Instructions issue dynamically when their operand ports fill
//!   (statically placed, dynamically issued — SPDI). This mode underlies the
//!   baseline and the S / S-O / S-O-D configurations.
//! * **MIMD mode** — the local-program-counter mechanism (§4.3). Each node
//!   runs a small sequential [`MimdProgram`] out of its L0 instruction
//!   store, with real branches, a private register file, and explicit
//!   `Send`/`Recv` over the operand mesh. Programs are written with
//!   [`MimdAsm`], a tiny assembler with label fix-ups.
//!
//! Functional semantics live in [`exec`] and are shared by both simulator
//!   engines, so a kernel computes identical values in either mode.
//!
//! ## Predication model
//!
//! The real TRIPS ISA predicates arbitrary instructions; nullified
//! instructions never fire. To keep the dataflow engine's completion
//! condition simple ("every instruction executes exactly once"), this
//! reproduction expresses conditionals with the three-ported [`Opcode::Sel`]
//! (predicate / true-value / false-value): both sides are computed and the
//! select merges them. That is precisely the masking overhead the paper
//! ascribes to vector/SIMD machines on data-dependent control — and MIMD
//! mode removes it with real branches, reproducing the paper's trade-off.
//!
//! ## Example
//!
//! ```
//! use trips_isa::{MimdAsm, MimdProgram, Opcode};
//!
//! // A MIMD loop: r2 = 10; do { r1 += r2; r2 -= 1 } while r2 != 0
//! let mut asm = MimdAsm::new();
//! asm.li(2, 10);
//! asm.label("loop");
//! asm.alu(Opcode::Add, 1, 1, 2);
//! asm.alui(Opcode::Sub, 2, 2, 1);
//! asm.bnz(2, "loop");
//! asm.halt();
//! let prog: MimdProgram = asm.assemble()?;
//! assert_eq!(prog.len(), 5);
//! # Ok::<(), dlp_common::DlpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataflow;
pub mod exec;
mod mimd;
mod opcode;

pub use dataflow::{DataflowBlock, PlacedInst, Port, PortSet, RegRead, Slot, Target};
pub use mimd::{MimdAsm, MimdInst, MimdOp, MimdProgram, REG_NODE_COUNT, REG_NODE_ID, REG_RECORDS};
pub use opcode::{MemSpace, OpClass, OpRole, Opcode};
