//! Integration tests for the beyond-the-paper extensions: the full
//! configuration space, the energy model, and partitioned MIMD
//! execution through the public APIs.

use dlp_core::{
    run_kernel, run_kernel_mech, EnergyModel, ExperimentParams, MachineConfig,
};
use dlp_kernels::suite;
use trips_sim::MechanismSet;

/// Every coherent mechanism combination runs `convert` correctly (a MIMD
/// machine always has the SMC its programs need).
#[test]
fn configuration_space_is_sound_on_convert() {
    let params = ExperimentParams::default();
    let kernels = suite();
    let kernel = kernels.iter().find(|k| k.name() == "convert").expect("kernel");
    let space = MechanismSet::all_coherent();
    assert_eq!(space.len(), 14);
    for mech in space {
        let (stats, mismatch) = run_kernel_mech(kernel.as_ref(), mech, 16, &params)
            .unwrap_or_else(|e| panic!("{mech} failed: {e}"));
        assert_eq!(mismatch, None, "{mech} computed wrong results");
        assert!(stats.cycles() > 0);
    }
}

/// The energy model shows each mechanism's signature saving (§7 future
/// work): operand revitalization cuts register-file energy; the L0 store
/// cuts L1 energy on table-indexed kernels.
#[test]
fn energy_breakdown_reflects_mechanism_savings() {
    let params = ExperimentParams::default();
    let model = EnergyModel::default();
    let kernels = suite();

    let run = |name: &str, config: MachineConfig, records: usize| {
        let k = kernels.iter().find(|k| k.name() == name).expect("kernel");
        let out = run_kernel(k.as_ref(), config, records, &params).expect("runs");
        assert!(out.verified());
        // Each iteration executes the block once: ops/iteration ~= block size.
        let block = (out.stats.total_ops() / out.stats.iterations.max(1)) as usize;
        model.breakdown(&out.stats, block)
    };

    // Operand revitalization: S-O's register-file energy is a fraction of
    // S's. Needs several revitalized iterations for the once-per-kernel
    // delivery to show, hence the larger record count.
    let s = run("vertex-simple", MachineConfig::S, 512);
    let so = run("vertex-simple", MachineConfig::SO, 512);
    assert!(
        so.regfile_nj * 4.0 < s.regfile_nj,
        "operand revitalization should slash register-file energy ({} vs {})",
        so.regfile_nj,
        s.regfile_nj
    );

    // The L0 store: blowfish's lookup energy moves from l1 to (cheaper) l0.
    let so = run("blowfish", MachineConfig::SO, 64);
    let sod = run("blowfish", MachineConfig::SOD, 64);
    assert!(sod.l1_nj < so.l1_nj / 4.0, "L0 should absorb L1 lookup energy");
    assert!(sod.l0_nj > 0.0);
    assert!(
        sod.total_nj() < so.total_nj(),
        "the cheap local store should lower total energy ({} vs {})",
        sod.total_nj(),
        so.total_nj()
    );
}

/// The recommender's configuration is never beaten by more than a small
/// factor by any other Table 5 configuration at experiment scale — the
/// property that makes the flexible architecture work. (Checked on one
/// kernel per preference group to keep runtime sane.)
#[test]
fn recommended_configuration_is_competitive() {
    let params = ExperimentParams::default();
    let kernels = suite();
    for name in ["fft", "vertex-simple", "blowfish"] {
        let kernel = kernels.iter().find(|k| k.name() == name).expect("kernel");
        let rec = dlp_core::recommend(&kernel.ir().attributes()).config;
        let records = dlp_core::default_records(name, 1).min(512);
        let chosen = run_kernel(kernel.as_ref(), rec, records, &params).expect("runs");
        assert!(chosen.verified());
        for config in MachineConfig::DLP {
            let other = run_kernel(kernel.as_ref(), config, records, &params).expect("runs");
            assert!(other.verified());
            assert!(
                chosen.stats.cycles() as f64 <= other.stats.cycles() as f64 * 1.15,
                "{name}: recommended {rec} ({}) loses badly to {config} ({})",
                chosen.stats.cycles(),
                other.stats.cycles()
            );
        }
    }
}
