//! The composable mechanism flags (§4's universal mechanisms).

use std::fmt;

use dlp_common::json::ToJson;

/// Which of the paper's universal mechanisms are enabled on the machine.
///
/// The paper's Table 5 configurations are specific combinations of these
/// flags (constructed by `dlp-core`); up to 20 combinations are meaningful,
/// and the flags here can express all of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, ToJson)]
pub struct MechanismSet {
    /// Software-managed streamed memory: SMC banks, DMA staging, row
    /// streaming channels and wide LMW loads (§4.2). When off, all memory
    /// traffic goes through the hardware-managed L1.
    pub smc: bool,
    /// Instruction revitalization: loop iterations reuse the mapped block
    /// instead of refetching (§4.3). Mutually exclusive with `local_pc`.
    pub inst_revitalization: bool,
    /// Operand revitalization: reservation-station operands marked
    /// persistent survive revitalization, so constants are delivered once
    /// per kernel rather than once per iteration (§4.4).
    pub operand_revitalization: bool,
    /// Software-managed L0 data store at each ALU for indexed constants
    /// (§4.4).
    pub l0_data_store: bool,
    /// Local program counters + L0 instruction stores: fine-grain MIMD
    /// execution (§4.3). Mutually exclusive with `inst_revitalization`.
    pub local_pc: bool,
}

impl MechanismSet {
    /// The unmodified ILP-oriented TRIPS baseline: no DLP mechanisms.
    #[must_use]
    pub fn baseline() -> Self {
        MechanismSet::default()
    }

    /// SMC + instruction revitalization (the paper's **S** machine).
    #[must_use]
    pub fn simd() -> Self {
        MechanismSet { smc: true, inst_revitalization: true, ..MechanismSet::default() }
    }

    /// **S-O**: S plus operand revitalization.
    #[must_use]
    pub fn simd_operand() -> Self {
        MechanismSet { operand_revitalization: true, ..MechanismSet::simd() }
    }

    /// **S-O-D**: S-O plus the L0 data store.
    #[must_use]
    pub fn simd_operand_l0() -> Self {
        MechanismSet { l0_data_store: true, ..MechanismSet::simd_operand() }
    }

    /// **M**: SMC + local program counters (MIMD).
    #[must_use]
    pub fn mimd() -> Self {
        MechanismSet { smc: true, local_pc: true, ..MechanismSet::default() }
    }

    /// **M-D**: M plus the L0 data store.
    #[must_use]
    pub fn mimd_l0() -> Self {
        MechanismSet { l0_data_store: true, ..MechanismSet::mimd() }
    }

    /// Every coherent mechanism combination — the paper's §5.3 notes the
    /// mechanisms "can be combined in different ways … to produce as many
    /// as 20 different run-time machine configurations"; with the
    /// constraints encoded in [`MechanismSet::is_coherent`] this
    /// enumeration yields the full space (14 machines: 2 L0-data ×
    /// {plain, inst-revit, inst+operand-revit} × 2 SMC, plus 2 L0-data ×
    /// local-PC, which needs the SMC).
    #[must_use]
    pub fn all_coherent() -> Vec<MechanismSet> {
        let mut out = Vec::new();
        for smc in [false, true] {
            for l0 in [false, true] {
                for (ir, or, pc) in
                    [(false, false, false), (true, false, false), (true, true, false), (false, false, true)]
                {
                    let m = MechanismSet {
                        smc,
                        inst_revitalization: ir,
                        operand_revitalization: or,
                        l0_data_store: l0,
                        local_pc: pc,
                    };
                    if m.is_coherent() {
                        out.push(m);
                    }
                }
            }
        }
        out
    }

    /// Whether the combination is physically meaningful.
    ///
    /// Instruction revitalization sequences the whole array from the block
    /// control unit, while local PCs sequence each node independently; a
    /// machine cannot do both at once. Likewise operand revitalization only
    /// means something under instruction revitalization. Local PCs need the
    /// SMC: every MIMD program the suite lowers issues SMC accesses.
    #[must_use]
    pub fn is_coherent(self) -> bool {
        if self.inst_revitalization && self.local_pc {
            return false;
        }
        if self.operand_revitalization && !self.inst_revitalization {
            return false;
        }
        if self.local_pc && !self.smc {
            return false;
        }
        true
    }
}

impl fmt::Display for MechanismSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.smc {
            parts.push("smc");
        }
        if self.inst_revitalization {
            parts.push("inst-revit");
        }
        if self.operand_revitalization {
            parts.push("op-revit");
        }
        if self.l0_data_store {
            parts.push("l0-data");
        }
        if self.local_pc {
            parts.push("local-pc");
        }
        if parts.is_empty() {
            write!(f, "baseline")
        } else {
            write!(f, "{}", parts.join("+"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_configurations_are_coherent() {
        for m in [
            MechanismSet::baseline(),
            MechanismSet::simd(),
            MechanismSet::simd_operand(),
            MechanismSet::simd_operand_l0(),
            MechanismSet::mimd(),
            MechanismSet::mimd_l0(),
        ] {
            assert!(m.is_coherent(), "{m} should be coherent");
        }
    }

    #[test]
    fn contradictory_combinations_rejected() {
        let both = MechanismSet { inst_revitalization: true, local_pc: true, ..Default::default() };
        assert!(!both.is_coherent());
        let orphan_op =
            MechanismSet { operand_revitalization: true, ..Default::default() };
        assert!(!orphan_op.is_coherent());
        let pc_without_smc = MechanismSet { local_pc: true, ..Default::default() };
        assert!(!pc_without_smc.is_coherent());
    }

    #[test]
    fn configuration_space_is_complete_and_coherent() {
        let all = MechanismSet::all_coherent();
        assert_eq!(all.len(), 14);
        let unique: std::collections::HashSet<_> = all.iter().copied().collect();
        assert_eq!(unique.len(), 14, "no duplicates");
        assert!(all.iter().all(|m| m.is_coherent()));
        // The named configurations are all members of the space.
        for named in [
            MechanismSet::baseline(),
            MechanismSet::simd(),
            MechanismSet::simd_operand(),
            MechanismSet::simd_operand_l0(),
            MechanismSet::mimd(),
            MechanismSet::mimd_l0(),
        ] {
            assert!(unique.contains(&named), "{named} missing from the space");
        }
    }

    #[test]
    fn display_names_mechanisms() {
        assert_eq!(MechanismSet::baseline().to_string(), "baseline");
        let s = MechanismSet::simd_operand_l0().to_string();
        assert!(s.contains("smc") && s.contains("op-revit") && s.contains("l0-data"));
    }
}
