//! The Figure 5 experiment: per-configuration speedups and the flexible
//! architecture's harmonic-mean advantage.

use std::collections::BTreeMap;

use dlp_common::json::ToJson;
use dlp_common::{harmonic_mean, DlpError};
use dlp_kernels::suite;

use crate::sweep::SweepReport;
use crate::{recommend, MachineConfig};

/// One benchmark's Figure 5 data: speedup of each configuration over the
/// baseline (measured in execution cycles, like the paper).
#[derive(Clone, Debug, ToJson)]
pub struct Figure5Row {
    /// Kernel name.
    pub kernel: String,
    /// Speedup per configuration.
    pub speedup: BTreeMap<MachineConfig, f64>,
    /// The best configuration measured.
    pub best: MachineConfig,
    /// The configuration the Table 3 recommender picks (the flexible
    /// architecture's choice).
    pub recommended: MachineConfig,
    /// Baseline useful-ops-per-cycle (the Table 4 metric).
    pub baseline_ops_per_cycle: f64,
}

/// The flexible architecture's summary (Figure 5's last bar).
#[derive(Clone, Debug, ToJson)]
pub struct FlexibleSummary {
    /// Harmonic-mean speedup of the flexible architecture over baseline.
    pub flexible_hm: f64,
    /// Harmonic-mean speedup of each fixed configuration over baseline.
    pub fixed_hm: BTreeMap<MachineConfig, f64>,
    /// Flexible's advantage over each fixed configuration
    /// (`flexible_hm / fixed_hm − 1`; the paper reports 55% vs S, 20% vs
    /// S-O, 5% vs M-D).
    pub advantage_over: BTreeMap<MachineConfig, f64>,
}

/// The whole Figure 5 dataset.
#[derive(Clone, Debug, ToJson)]
pub struct Figure5 {
    /// Per-kernel rows.
    pub rows: Vec<Figure5Row>,
    /// The flexible-architecture summary.
    pub summary: FlexibleSummary,
}

impl Figure5 {
    /// Figure 5 as a projection of the paper grid's report
    /// ([`Sweep::push_paper_grid`](crate::Sweep::push_paper_grid) over
    /// the performance suite): one row per performance-suite kernel, in
    /// suite order, with its cells looked up by name, and the flexible
    /// architecture's harmonic means.
    ///
    /// A report that fails verification is an error, because a simulator
    /// that computes wrong answers has no business reporting speedups.
    ///
    /// # Errors
    ///
    /// The first failed or mis-verified cell, and [`DlpError::Internal`]
    /// naming the kernel and configuration of a cell the report lacks
    /// or, when the report holds more than the paper grid, the cell count.
    pub fn from_report(report: &SweepReport) -> Result<Figure5, DlpError> {
        report.ensure_verified()?;
        let mut rows = Vec::new();
        for kernel in suite().into_iter().filter(|k| k.in_perf_suite()) {
            let name = kernel.name();
            let (base, _) = report.ran_cell(name, MachineConfig::Baseline)?;
            let mut speedup = BTreeMap::new();
            for config in MachineConfig::DLP {
                let (out, _) = report.ran_cell(name, config)?;
                speedup.insert(config, out.speedup_over(base));
            }
            // Prefer the simplest configuration on (near-)ties: S-O and
            // S-O-D perform identically on kernels without lookup tables,
            // and the cheaper machine should win the tie.
            let max = speedup.values().fold(0.0f64, |a, &b| a.max(b));
            let best = *speedup
                .iter()
                .find(|(_, &s)| s >= max * 0.999)
                .ok_or_else(|| DlpError::Internal {
                    detail: format!("{name}: no best configuration among {speedup:?}"),
                })?
                .0;
            rows.push(Figure5Row {
                kernel: name.to_string(),
                speedup,
                best,
                recommended: recommend(&kernel.ir().attributes()).config,
                baseline_ops_per_cycle: base.ops_per_cycle().0,
            });
        }
        // The fixed-configuration means run over every cell of the
        // report, so anything beyond the paper grid would skew them.
        let grid_cells = rows.len() * (MachineConfig::DLP.len() + 1);
        if report.cells.len() != grid_cells {
            return Err(DlpError::Internal {
                detail: format!(
                    "the report holds {} cells; the paper grid has {grid_cells}",
                    report.cells.len()
                ),
            });
        }

        // Flexible = each kernel on its recommended configuration.
        let flex: Vec<f64> = rows.iter().map(|r| r.speedup[&r.recommended]).collect();
        let flexible_hm = harmonic_mean(&flex).unwrap_or(0.0);
        let hms = report.harmonic_mean_speedups(&MachineConfig::Baseline.to_string());
        let mut fixed_hm = BTreeMap::new();
        let mut advantage_over = BTreeMap::new();
        for config in MachineConfig::DLP {
            let hm = hms.get(&config.to_string()).copied().unwrap_or(0.0);
            fixed_hm.insert(config, hm);
            if hm > 0.0 {
                advantage_over.insert(config, flexible_hm / hm - 1.0);
            }
        }

        Ok(Figure5 { rows, summary: FlexibleSummary { flexible_hm, fixed_hm, advantage_over } })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{specialized, ExperimentParams, Sweep};

    #[test]
    fn projections_of_an_incomplete_report_are_errors() {
        let mut sweep = Sweep::new();
        let id = sweep.add_kernel_by_name("convert").expect("suite kernel");
        let params = ExperimentParams::default();
        for config in [MachineConfig::Baseline, MachineConfig::S] {
            sweep.push_config(id, config, 24, &params);
        }
        let report = sweep.run();
        report.ensure_verified().expect("both cells verify");

        let err = Figure5::from_report(&report).expect_err("S-O is missing");
        assert!(err.to_string().contains("convert cell on S-O"), "{err}");
        let err = specialized::table6(&report).expect_err("S-O is missing");
        assert!(err.to_string().contains("convert cell on S-O"), "{err}");
    }
}
