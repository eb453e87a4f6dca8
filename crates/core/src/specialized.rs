//! The Table 6 comparison against specialized hardware.
//!
//! The specialized columns are **published numbers transcribed from the
//! paper** (we obviously cannot run an MPC7447, Imagine, Tarantula,
//! CryptoManiac or QuadroFX); our column is computed from simulation with
//! the same clock normalization the paper applies. The target is *shape* —
//! who wins and by roughly what factor — not absolute equality; see
//! EXPERIMENTS.md for the unit interpretations.

use dlp_common::DlpError;
use dlp_common::json::ToJson;
use dlp_kernels::suite;

use crate::recommend;
use crate::sweep::SweepReport;

/// Performance units used in Table 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq, ToJson)]
pub enum Units {
    /// Thousands of kernel iterations per second (DSP rows; clock
    /// normalized to the MPC7447's 1.3 GHz).
    KiloItersPerSec,
    /// Useful operations per cycle (dct vs Imagine, fft/lu vs Tarantula).
    OpsPerCycle,
    /// Cycles per block — *smaller is better* (crypto rows vs
    /// CryptoManiac).
    CyclesPerBlock,
    /// Million fragments per second at the QuadroFX's 450 MHz.
    MFragmentsPerSec,
    /// Million triangles (vertices) per second at the P4's 2.4 GHz.
    MTrianglesPerSec,
}

impl Units {
    /// Whether smaller numbers mean better performance.
    #[must_use]
    pub fn smaller_is_better(self) -> bool {
        matches!(self, Units::CyclesPerBlock)
    }

    /// Human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Units::KiloItersPerSec => "k-iterations/sec",
            Units::OpsPerCycle => "ops/cycle",
            Units::CyclesPerBlock => "cycles/block",
            Units::MFragmentsPerSec => "M fragments/sec",
            Units::MTrianglesPerSec => "M triangles/sec",
        }
    }
}

/// One Table 6 row.
#[derive(Clone, Debug, ToJson)]
pub struct Table6Row {
    /// Benchmark name.
    pub kernel: String,
    /// Our simulated TRIPS value (clock-normalized, best configuration).
    pub trips: f64,
    /// The paper's reported TRIPS value (for reference).
    pub paper_trips: Option<f64>,
    /// The specialized hardware's published value.
    pub specialized: Option<f64>,
    /// The reference hardware.
    pub hardware: &'static str,
    /// Units.
    pub units: Units,
}

/// One published Table 6 reference row: (kernel, paper TRIPS value,
/// specialized value, hardware, units).
pub type ReferenceRow = (&'static str, Option<f64>, Option<f64>, &'static str, Units);

/// Published Table 6 reference data.
#[must_use]
pub fn paper_reference() -> Vec<ReferenceRow> {
    vec![
        ("convert", Some(19016.0), Some(960.0), "MPC 7447, 1.3GHz (DSP)", Units::KiloItersPerSec),
        ("highpassfilter", Some(2820.0), Some(907.0), "MPC 7447, 1.3GHz (DSP)", Units::KiloItersPerSec),
        ("dct", Some(33.9), Some(8.2), "Imagine (multimedia)", Units::OpsPerCycle),
        ("fft", Some(14.4), Some(28.0), "Tarantula (vector core)", Units::OpsPerCycle),
        ("lu", Some(10.6), Some(15.0), "Tarantula (vector core)", Units::OpsPerCycle),
        ("md5", Some(14.6), None, "CryptoManiac", Units::CyclesPerBlock),
        ("blowfish", Some(6.0), Some(80.0), "CryptoManiac", Units::CyclesPerBlock),
        ("rijndael", Some(12.0), Some(100.0), "CryptoManiac", Units::CyclesPerBlock),
        ("fragment-reflection", Some(86.0), None, "Nvidia QuadroFX 450MHz", Units::MFragmentsPerSec),
        ("fragment-simple", Some(193.0), Some(1500.0), "Nvidia QuadroFX 450MHz", Units::MFragmentsPerSec),
        ("vertex-reflection", Some(434.0), None, "2.4GHz Pentium4", Units::MTrianglesPerSec),
        ("vertex-simple", Some(418.0), Some(64.0), "2.4GHz Pentium4", Units::MTrianglesPerSec),
        ("vertex-skinning", Some(207.0), None, "2.4GHz Pentium4", Units::MTrianglesPerSec),
    ]
}

/// Table 6 as a projection of the paper grid's report
/// ([`Sweep::push_paper_grid`](crate::Sweep::push_paper_grid)): each
/// [`paper_reference`] row's kernel on its recommended configuration,
/// looked up by name and converted to the row's units. Rows come back
/// in `paper_reference()` order.
///
/// # Errors
///
/// The first failed or mis-verified cell, and [`DlpError::Internal`]
/// naming the kernel and configuration of a cell the report lacks.
pub fn table6(report: &SweepReport) -> Result<Vec<Table6Row>, DlpError> {
    report.ensure_verified()?;
    let kernels = suite();
    let mut rows = Vec::new();
    for (name, paper_trips, specialized, hardware, units) in paper_reference() {
        let kernel =
            kernels.iter().find(|k| k.name() == name).ok_or_else(|| DlpError::Internal {
                detail: format!("Table 6 reference row '{name}' is not a suite kernel"),
            })?;
        let config = recommend(&kernel.ir().attributes()).config;
        let (stats, records) = report.ran_cell(name, config)?;
        let cyc_per_rec = stats.cycles() as f64 / records.max(1) as f64;
        let trips = match units {
            Units::OpsPerCycle => stats.ops_per_cycle().0,
            Units::CyclesPerBlock => cyc_per_rec,
            // DSP rows: one "iteration" = a 64-record tile (a DSP inner
            // loop over an image row segment); clock 1.3 GHz, reported in
            // thousands/sec. See EXPERIMENTS.md for the interpretation.
            Units::KiloItersPerSec => 1.3e9 / (cyc_per_rec * 64.0) / 1e3,
            Units::MFragmentsPerSec => 450.0e6 / cyc_per_rec / 1e6,
            Units::MTrianglesPerSec => 2.4e9 / cyc_per_rec / 1e6,
        };
        rows.push(Table6Row {
            kernel: name.to_string(),
            trips,
            paper_trips,
            specialized,
            hardware,
            units,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_rows_cover_the_perf_suite() {
        let names: Vec<&str> = paper_reference().iter().map(|r| r.0).collect();
        assert_eq!(names.len(), 13);
        assert!(names.contains(&"convert"));
        assert!(names.contains(&"vertex-skinning"));
        assert!(!names.contains(&"anisotropic-filter"));
    }

    #[test]
    fn crypto_rows_are_smaller_is_better() {
        for (name, _, _, _, units) in paper_reference() {
            if matches!(name, "md5" | "blowfish" | "rijndael") {
                assert!(units.smaller_is_better());
            } else {
                assert!(!units.smaller_is_better());
            }
        }
    }

    #[test]
    fn units_have_labels() {
        for u in [
            Units::KiloItersPerSec,
            Units::OpsPerCycle,
            Units::CyclesPerBlock,
            Units::MFragmentsPerSec,
            Units::MTrianglesPerSec,
        ] {
            assert!(!u.label().is_empty());
        }
    }
}
