//! `dlp-analyze`: semantic static analysis over kernels and lowerings.
//!
//! The legality verifier in the crate root answers *"may this artifact
//! run?"*; this module answers *"what will it do, and how long must it
//! take?"* Three analyses share the [`Warning`] vocabulary of
//! [`dlp_common::wcode`]:
//!
//! * [`analyze_kernel`] — an interval abstract interpreter over the
//!   kernel IR ([`interval`]): proves **dynamic** table-read and
//!   irregular-load index bounds (upgrading the static-index-only
//!   `V0123` check), folds constants, and flags dead operands.
//! * [`analyze_mimd_channels`] — a symbolic channel-flow pass over MIMD
//!   partitions ([`channel`]): per-loop send/recv balance and dead-rank
//!   detection, finer than the whole-program `V0213` totals.
//! * [`cost`] — a **sound static cost model**: a critical-path +
//!   resource-pressure lower bound on `sim_cycles`, proven in-tree
//!   against every cell of the experiment grid (`tests/cost_soundness`).
//!
//! Warnings never reject an artifact; the strict mode lives in
//! `cargo xtask analyze-grid --deny-warnings`.

use std::fmt;

pub mod channel;
pub mod cost;
pub mod interval;

pub use channel::analyze_mimd_channels;
pub use cost::{DataflowCost, MimdCost};
pub use interval::{analyze_kernel, AbstractValue};

/// A single analyzer finding: a stable taxonomy code, the location of
/// the finding, and a human-readable explanation.
///
/// The advisory mirror of [`crate::VerifyError`]: same shape, but a
/// warning never fails a lowering on its own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Warning {
    /// Stable `W*` code from [`dlp_common::wcode`].
    pub code: &'static str,
    /// Where the finding sits (IR node, rank/loop, or cost component;
    /// empty when program-wide).
    pub span: String,
    /// Description of the finding.
    pub detail: String,
}

impl Warning {
    /// Create a warning.
    #[must_use]
    pub fn new(code: &'static str, span: impl Into<String>, detail: impl Into<String>) -> Self {
        Warning { code, span: span.into(), detail: detail.into() }
    }
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span.is_empty() {
            write!(f, "[{}] {}", self.code, self.detail)
        } else {
            write!(f, "[{}] at {}: {}", self.code, self.span, self.detail)
        }
    }
}

/// Everything the analyzer learned about one prepared lowering: the
/// warnings from every pass plus the cost model for the lowered form.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// Findings from all passes, in pass order.
    pub warnings: Vec<Warning>,
    /// Cost model of a dataflow lowering (`None` for MIMD plans).
    pub dataflow_cost: Option<DataflowCost>,
    /// Cost model of a MIMD lowering (`None` for dataflow plans).
    pub mimd_cost: Option<MimdCost>,
}

impl AnalysisReport {
    /// The sound lower bound on `sim_cycles` for a run over
    /// `iterations` block iterations (dataflow) or any number of
    /// records (MIMD, whose bound is record-count-independent).
    #[must_use]
    pub fn bound_cycles(&self, iterations: u64) -> u64 {
        if let Some(c) = &self.dataflow_cost {
            return c.bound_cycles(iterations);
        }
        if let Some(c) = &self.mimd_cost {
            return c.bound_cycles();
        }
        0
    }

    /// Scheduling estimate in ticks for a run over `records` records —
    /// the LPT ordering key. **Not** sound (the MIMD term extrapolates
    /// per-record work); use [`AnalysisReport::bound_cycles`] for
    /// guarantees.
    #[must_use]
    pub fn estimate_ticks(&self, records: u64, iterations: u64) -> u64 {
        if let Some(c) = &self.dataflow_cost {
            return c.bound_ticks(iterations);
        }
        if let Some(c) = &self.mimd_cost {
            return c.estimate_ticks(records);
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warnings_render_with_and_without_span() {
        let w = Warning::new(dlp_common::wcode::DEAD_NODE, "node 3", "unused");
        assert_eq!(w.to_string(), "[W0101-dead-node] at node 3: unused");
        let w = Warning::new(dlp_common::wcode::DEAD_RANK, "", "whole-program");
        assert_eq!(w.to_string(), "[W0202-dead-rank] whole-program");
    }

    #[test]
    fn empty_report_bounds_nothing() {
        let r = AnalysisReport::default();
        assert_eq!(r.bound_cycles(64), 0);
        assert_eq!(r.estimate_ticks(64, 64), 0);
    }
}
