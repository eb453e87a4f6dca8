//! # dlp-core
//!
//! The top layer of the `dlp-mech` workspace: everything from
//! *"Universal Mechanisms for Data-Parallel Architectures"* (MICRO 2003)
//! assembled behind one API.
//!
//! * [`MachineConfig`] — the paper's Table 5 run-time machine
//!   configurations (baseline, **S**, **S-O**, **S-O-D**, **M**, **M-D**),
//!   each a combination of the universal mechanisms.
//! * [`recommend`] — the Table 3 logic: map a kernel's measured attributes
//!   to the mechanisms (and configuration) that serve it best.
//! * [`run_kernel`] — the experiment driver: schedule a benchmark kernel
//!   onto a configuration, stage its workload, simulate, and *verify the
//!   outputs against the kernel's reference implementation*.
//! * [`sweep`] — the parallel experiment engine: the kernel ×
//!   configuration grid run by work-stealing workers with schedule
//!   caching and deterministic seeding, emitting a [`sweep::SweepReport`].
//!   [`Sweep::push_paper_grid`] builds the paper's grid: every kernel on
//!   the baseline and the five DLP configurations.
//! * [`Figure5::from_report`] — the Figure 5 projection of that grid's
//!   report: per-kernel speedups of every configuration over the
//!   baseline, the baseline ops/cycle (Table 4), and the harmonic-mean
//!   comparison of the flexible architecture against each fixed one
//!   (the paper's 5%–55% headline).
//! * [`specialized`] — the Table 6 projection: the grid's recommended
//!   cells against published specialized-hardware numbers (MPC7447,
//!   Imagine, Tarantula, CryptoManiac, QuadroFX).
//! * [`store`] — the persistence layer that turns the sweep into a
//!   service: a content-addressed result store (warm re-runs execute
//!   nothing, and an interrupted sweep resumes from it). See
//!   `OPERATIONS.md` for the operator guide.
//!
//! # Quick start
//!
//! ```no_run
//! use dlp_core::{run_kernel, MachineConfig, ExperimentParams};
//! use dlp_kernels::suite;
//!
//! let params = ExperimentParams::default();
//! for kernel in suite() {
//!     if !kernel.in_perf_suite() {
//!         continue;
//!     }
//!     let out = run_kernel(kernel.as_ref(), MachineConfig::SO, 64, &params)?;
//!     assert!(out.verified(), "{} must compute correct results", kernel.name());
//!     println!("{}: {} ops/cycle", kernel.name(), out.stats.ops_per_cycle());
//! }
//! # Ok::<(), dlp_common::DlpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panicking escape hatches are banned outside tests: a bad cell or an
// injected fault must surface as a structured `DlpError`, never tear
// down a whole sweep (CI promotes these to errors).
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod config;
mod energy;
mod flexible;
mod recommend;
mod runner;
pub mod specialized;
pub mod store;
pub mod sweep;

pub use config::MachineConfig;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use flexible::{Figure5, Figure5Row, FlexibleSummary};
pub use recommend::{recommend, Recommendation};
pub use runner::{
    batchable, default_records, natural_unroll, prepare_kernel, run_kernel, run_kernel_mech,
    run_prepared, run_prepared_batch_in, run_prepared_in, visible_mechanisms, BatchLane,
    ExperimentParams,
    LaneResult, PreparedProgram, RunOutcome, RunScratch, WorkloadCache,
};
pub use store::{Digest, ResultStore, StoreKey};
pub use sweep::{
    default_worker_count, CellOutcome, CellSpec, Sweep, SweepCell, SweepPolicy, SweepReport,
};
