//! The Table 3 logic: program attributes → mechanisms → configuration.

use dlp_kernel_ir::KernelAttributes;

use crate::MachineConfig;

/// The outcome of analyzing a kernel's attributes against Table 3.
#[derive(Clone, Debug, PartialEq)]
pub struct Recommendation {
    /// Software-managed streamed memory — regular record streams
    /// (benefits *all* kernels per Table 3).
    pub smc: bool,
    /// Hardware-managed cached L1 — irregular accesses present.
    pub cached_l1: bool,
    /// Operand revitalization — scalar named constants present.
    pub operand_revitalization: bool,
    /// L0 data store — indexed named constants present.
    pub l0_data_store: bool,
    /// Instruction revitalization — tight loops (all kernels benefit).
    pub inst_revitalization: bool,
    /// Local program counters — data-dependent branching, or a kernel
    /// whose rolled form unlocks far more parallelism (§5.3's M-D cases).
    pub local_pc: bool,
    /// The Table 5 configuration these mechanisms compose into.
    pub config: MachineConfig,
}

/// Analyze a kernel's Table 2 attributes and recommend mechanisms and a
/// configuration, following Table 3 and the §5.3 discussion.
///
/// The classification reproduces the paper's Figure 5 grouping:
///
/// * data-dependent branching → **M-D** (local PCs; the lookup store also
///   holds the rolled form's indexed state);
/// * indexed constants inside a static internal loop → **M-D**
///   (blowfish/rijndael: local loop control keeps the footprint small and
///   lets the array hold many more kernel instances);
/// * long serial kernels (low ILP, large body) → **M-D** (md5: the rolled
///   form's storage economy is the win);
/// * indexed constants otherwise → **S-O-D**;
/// * scalar constants → **S-O**;
/// * pure streaming → **S**.
#[must_use]
pub fn recommend(attrs: &KernelAttributes) -> Recommendation {
    let data_dependent = attrs.control.is_data_dependent();
    let has_table = attrs.indexed_constants > 0;
    let rolled_loop = matches!(attrs.control, dlp_kernel_ir::ControlClass::FixedLoop { .. });
    let serial_and_large = attrs.ilp < 2.5 && attrs.insts > 300;

    let mimd = data_dependent || (has_table && rolled_loop) || serial_and_large;
    let config = if mimd {
        // The MIMD machine keeps its working set in the L0 stores; all the
        // paper's MIMD-preferring kernels run best on M-D.
        MachineConfig::MD
    } else if has_table {
        MachineConfig::SOD
    } else if attrs.constants > 0 {
        MachineConfig::SO
    } else {
        MachineConfig::S
    };

    Recommendation {
        smc: true,
        cached_l1: attrs.irregular > 0,
        operand_revitalization: !mimd && attrs.constants > 0,
        l0_data_store: config == MachineConfig::SOD || config == MachineConfig::MD,
        inst_revitalization: !mimd,
        local_pc: mimd,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_kernels::suite;

    /// The paper's Flexible assignment (§5.3): fft and lu on S, the seven
    /// constant-bearing stream kernels on S-O, and md5 / blowfish /
    /// rijndael / vertex-skinning on M-D. Our recommender's S-O-D choice
    /// for pure-table kernels folds into the same grouping because every
    /// such kernel also has a rolled loop.
    #[test]
    fn reproduces_paper_grouping() {
        let expect = |name: &str| -> MachineConfig {
            match name {
                "fft" | "lu" => MachineConfig::S,
                "md5" | "blowfish" | "rijndael" | "vertex-skinning" | "anisotropic-filter" => {
                    MachineConfig::MD
                }
                _ => MachineConfig::SO,
            }
        };
        for k in suite() {
            let rec = recommend(&k.ir().attributes());
            assert_eq!(rec.config, expect(k.name()), "{}", k.name());
        }
    }

    #[test]
    fn mechanisms_follow_table3() {
        for k in suite() {
            let attrs = k.ir().attributes();
            let rec = recommend(&attrs);
            // Regular memory: everyone gets the SMC (Table 3 row 1).
            assert!(rec.smc);
            // Irregular memory ⇒ cached L1 (row 2).
            assert_eq!(rec.cached_l1, attrs.irregular > 0, "{}", k.name());
            // Data-dependent branching ⇒ local PCs (row 6).
            if attrs.control.is_data_dependent() {
                assert!(rec.local_pc, "{}", k.name());
            }
            // Exactly one of the two sequencing mechanisms.
            assert_ne!(rec.inst_revitalization, rec.local_pc, "{}", k.name());
        }
    }

    #[test]
    fn table_with_straight_control_prefers_sod() {
        use dlp_kernel_ir::ControlClass;
        let attrs = KernelAttributes {
            name: "synthetic".into(),
            insts: 50,
            ilp: 5.0,
            record_read: 2,
            record_write: 1,
            irregular: 0,
            constants: 3,
            indexed_constants: 256,
            control: ControlClass::Straight,
        };
        assert_eq!(recommend(&attrs).config, MachineConfig::SOD);
    }
}
