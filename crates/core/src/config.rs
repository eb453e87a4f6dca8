//! The Table 5 machine configurations.

use std::fmt;

use dlp_common::json::ToJson;
use trips_sched::TargetConfig;
use trips_sim::MechanismSet;

/// A run-time machine configuration (paper Table 5).
///
/// The mechanisms compose into as many as 20 meaningful combinations; the
/// paper evaluates these five plus the unmodified baseline, which cover the
/// application set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, ToJson)]
pub enum MachineConfig {
    /// The unmodified ILP-oriented TRIPS core.
    Baseline,
    /// SMC + instruction revitalization: the vector/SIMD-like machine.
    S,
    /// **S** + operand revitalization (persistent scalar constants).
    SO,
    /// **S-O** + the L0 data store (lookup tables at the ALUs).
    SOD,
    /// SMC + local program counters: the fine-grain MIMD machine.
    M,
    /// **M** + the L0 data store.
    MD,
}

impl MachineConfig {
    /// All six configurations in Table 5 order (baseline first).
    pub const ALL: [MachineConfig; 6] = [
        MachineConfig::Baseline,
        MachineConfig::S,
        MachineConfig::SO,
        MachineConfig::SOD,
        MachineConfig::M,
        MachineConfig::MD,
    ];

    /// The five DLP configurations (everything but the baseline).
    pub const DLP: [MachineConfig; 5] = [
        MachineConfig::S,
        MachineConfig::SO,
        MachineConfig::SOD,
        MachineConfig::M,
        MachineConfig::MD,
    ];

    /// The simulator mechanism flags for this configuration.
    #[must_use]
    pub fn mechanisms(self) -> MechanismSet {
        match self {
            MachineConfig::Baseline => MechanismSet::baseline(),
            MachineConfig::S => MechanismSet::simd(),
            MachineConfig::SO => MechanismSet::simd_operand(),
            MachineConfig::SOD => MechanismSet::simd_operand_l0(),
            MachineConfig::M => MechanismSet::mimd(),
            MachineConfig::MD => MechanismSet::mimd_l0(),
        }
    }

    /// The scheduler-facing lowering choices for this configuration.
    #[must_use]
    pub fn target(self) -> TargetConfig {
        crate::runner::dataflow_target(self.mechanisms())
    }

    /// The paper's architecture-model description (Table 5, last column).
    #[must_use]
    pub fn architecture_model(self) -> &'static str {
        match self {
            MachineConfig::Baseline => "ILP-oriented TRIPS (hyperblocks)",
            MachineConfig::S => "SIMD",
            MachineConfig::SO => "SIMD + scalar constant access",
            MachineConfig::SOD => "SIMD + scalar constant access + lookup table",
            MachineConfig::M => "MIMD",
            MachineConfig::MD => "MIMD + lookup table",
        }
    }

    /// Render the Table 5 row: (L0 inst store, L0 data store,
    /// inst revitalization, operand revitalization).
    #[must_use]
    pub fn table5_row(self) -> String {
        let m = self.mechanisms();
        let yn = |b: bool| if b { "Y" } else { "N" };
        format!(
            "{:<9} {:^6} {:^6} {:^6} {:^6}  {}",
            self.to_string(),
            yn(m.local_pc),
            yn(m.l0_data_store),
            yn(m.inst_revitalization),
            yn(m.operand_revitalization),
            self.architecture_model()
        )
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineConfig::Baseline => write!(f, "baseline"),
            MachineConfig::S => write!(f, "S"),
            MachineConfig::SO => write!(f, "S-O"),
            MachineConfig::SOD => write!(f, "S-O-D"),
            MachineConfig::M => write!(f, "M"),
            MachineConfig::MD => write!(f, "M-D"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_configurations_are_coherent() {
        for c in MachineConfig::ALL {
            assert!(c.mechanisms().is_coherent(), "{c}");
        }
    }

    #[test]
    fn table5_matches_paper() {
        // Table 5: S = inst revit only; S-O adds op revit; S-O-D adds data
        // L0; M = inst L0 (local PC); M-D adds data L0.
        let s = MachineConfig::S.mechanisms();
        assert!(s.inst_revitalization && !s.operand_revitalization && !s.l0_data_store && !s.local_pc);
        let so = MachineConfig::SO.mechanisms();
        assert!(so.operand_revitalization && !so.l0_data_store);
        let sod = MachineConfig::SOD.mechanisms();
        assert!(sod.operand_revitalization && sod.l0_data_store);
        let m = MachineConfig::M.mechanisms();
        assert!(m.local_pc && !m.l0_data_store && !m.inst_revitalization);
        let md = MachineConfig::MD.mechanisms();
        assert!(md.local_pc && md.l0_data_store);
        // All five DLP configs use the SMC (§5.3: "In all five
        // configurations, one memory bank per row is configured as SMC").
        for c in MachineConfig::DLP {
            assert!(c.mechanisms().smc, "{c} must enable the SMC");
        }
        assert!(!MachineConfig::Baseline.mechanisms().smc);
    }

    #[test]
    fn display_names_match_paper() {
        let names: Vec<String> = MachineConfig::ALL.iter().map(ToString::to_string).collect();
        assert_eq!(names, ["baseline", "S", "S-O", "S-O-D", "M", "M-D"]);
    }

    #[test]
    fn table5_rows_render() {
        for c in MachineConfig::ALL {
            let row = c.table5_row();
            assert!(row.contains('Y') || c == MachineConfig::Baseline);
        }
    }
}
