//! The Figure 5 experiment: per-configuration speedups and the flexible
//! architecture's harmonic-mean advantage.

use std::collections::BTreeMap;

use dlp_common::json::ToJson;
use dlp_common::{harmonic_mean, DlpError};
use dlp_kernels::suite;

use crate::sweep::Sweep;
use crate::{default_records, recommend, ExperimentParams, MachineConfig};

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

/// Run every performance-suite kernel on every configuration and compute
/// Figure 5. `record_scale` scales the workload sizes (1 = the standard
/// experiment; smaller values make smoke tests fast).
///
/// The whole kernel × configuration grid is dispatched through the
/// [`sweep`](crate::sweep) engine, so each kernel is scheduled once per
/// mechanism set and the cells run on all available workers — and the
/// numbers are identical to a serial run by construction.
///
/// Every run is verified against the reference implementation; a
/// mismatch is reported as an error, because a simulator that computes
/// wrong answers has no business reporting speedups.
///
/// # Errors
///
/// Propagates scheduling/simulation failures and verification mismatches.
pub fn flexible(params: &ExperimentParams, record_scale: usize) -> Result<Figure5, DlpError> {
    let mut sweep = Sweep::new();
    // (kernel name, its Table 3 recommendation) in suite order.
    let mut entries: Vec<(String, MachineConfig)> = Vec::new();
    for kernel in suite() {
        if !kernel.in_perf_suite() {
            continue;
        }
        // record_scale 0 means "smoke test": clamp to the minimum workload.
        let records = if record_scale == 0 {
            24
        } else {
            default_records(kernel.name(), record_scale)
        };
        let recommended = recommend(&kernel.ir().attributes()).config;
        let name = kernel.name().to_string();
        let id = sweep.add_kernel(kernel);
        sweep.push_config(id, MachineConfig::Baseline, records, params);
        for config in MachineConfig::DLP {
            sweep.push_config(id, config, records, params);
        }
        entries.push((name, recommended));
    }
    let report = sweep.run();
    report.ensure_verified()?;

    let mut rows = Vec::new();
    for (name, recommended) in entries {
        let missing = |what: &str| DlpError::Internal {
            detail: format!("{name}: {what} missing after ensure_verified"),
        };
        let base = report.stats(&name, "baseline").ok_or_else(|| missing("baseline cell"))?;
        let mut speedup = BTreeMap::new();
        for config in MachineConfig::DLP {
            let out = report
                .stats(&name, &config.to_string())
                .ok_or_else(|| missing("configuration cell"))?;
            speedup.insert(config, out.speedup_over(base));
        }
        // Prefer the simplest configuration on (near-)ties: S-O and S-O-D
        // perform identically on kernels without lookup tables, and the
        // cheaper machine should win the tie.
        let max = speedup.values().fold(0.0f64, |a, &b| a.max(b));
        let best = *speedup
            .iter()
            .find(|(_, &s)| s >= max * 0.999)
            .ok_or_else(|| missing("best configuration"))?
            .0;
        rows.push(Figure5Row {
            kernel: name,
            speedup,
            best,
            recommended,
            baseline_ops_per_cycle: base.ops_per_cycle().0,
        });
    }

    // Flexible = each kernel on its recommended configuration.
    let flex: Vec<f64> = rows
        .iter()
        .map(|r| {
            // The recommender may pick S-O-D where S-O-D wasn't measured?
            // All five are measured, so just look it up.
            r.speedup[&r.recommended]
        })
        .collect();
    let flexible_hm = harmonic_mean(&flex).unwrap_or(0.0);
    let mut fixed_hm = BTreeMap::new();
    let mut advantage_over = BTreeMap::new();
    for config in MachineConfig::DLP {
        let xs: Vec<f64> = rows.iter().map(|r| r.speedup[&config]).collect();
        let hm = harmonic_mean(&xs).unwrap_or(0.0);
        fixed_hm.insert(config, hm);
        if hm > 0.0 {
            advantage_over.insert(config, flexible_hm / hm - 1.0);
        }
    }

    Ok(Figure5 { rows, summary: FlexibleSummary { flexible_hm, fixed_hm, advantage_over } })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature Figure 5 (tiny workloads) — the full experiment runs in
    /// the bench harness; this proves the machinery end to end.
    #[test]
    fn miniature_figure5_runs_and_verifies() {
        let params = ExperimentParams::default();
        // record_scale 0 clamps to minimum workloads.
        let fig = flexible(&params, 0).expect("all kernels verify on all configs");
        assert_eq!(fig.rows.len(), 13);
        for row in &fig.rows {
            assert_eq!(row.speedup.len(), 5, "{}", row.kernel);
            for (c, s) in &row.speedup {
                assert!(*s > 0.0, "{} on {c}: speedup {s}", row.kernel);
            }
        }
        assert!(fig.summary.flexible_hm > 0.0);
    }
}
