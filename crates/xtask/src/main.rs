//! Workspace automation, invoked as `cargo xtask <command>`.
//!
//! * `detlint` — the determinism lint: a dependency-free source scanner
//!   that forbids non-deterministic constructs in the engine crates
//!   (hash-order iteration in hot paths, ambient clocks and RNGs,
//!   unordered parallel reductions). Sites with a justified reason to
//!   exist are listed in `detlint.allow`; everything else is a hard CI
//!   failure. Simulation results must be a pure function of the inputs —
//!   this lint keeps the property enforceable instead of aspirational.
//! * `analyze-grid` — lowers every suite kernel for every published
//!   machine configuration, requires the program verifier to accept all
//!   of them, and runs the semantic analyzer over each (DESIGN.md §13):
//!   prints every `W*` warning, the sound static cycle bound per cell,
//!   and per-kernel analysis time; `--deny-warnings` / `--budget N` gate
//!   CI, `--json <path>` writes the machine-readable artifact.
//! * `chaos` — the crash-consistency harness: kills a child sweep at
//!   every named store crashpoint, fscks the wreckage, reruns on the
//!   same store, and requires the canonical report to be byte-identical
//!   to an uninterrupted run's; plus a seeded randomized kill campaign. To
//!   fsck a store by hand, run `sweep --fsck DIR`.
//! * `asmcheck` — the autovectorization gate: emits release assembly
//!   for `trips-sim` and requires every tagged SIMD pass in the batch
//!   engine (`crates/sim/src/batch/mask.rs`, DESIGN.md §12) to contain
//!   vector instructions.

use std::process::ExitCode;

mod asmcheck;
mod chaos;
mod detlint;
mod grid;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("detlint") => detlint::main(&args[1..]),
        Some("analyze-grid") => grid::analyze_grid(&args[1..]),
        Some("chaos") => chaos::run(&args[1..]),
        Some("asmcheck") => asmcheck::run(),
        _ => {
            eprintln!(
                "usage: cargo xtask <detlint [allowlist] [--format human|json|github] | \
                 analyze-grid [--deny-warnings] [--budget N] [--json path] | \
                 chaos [--quick] [--seed N] [--trials N] | asmcheck>"
            );
            ExitCode::FAILURE
        }
    }
}
