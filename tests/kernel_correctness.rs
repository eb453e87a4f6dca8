//! Integration: every benchmark kernel computes reference-identical
//! results on every machine configuration it supports.
//!
//! This is the workspace's backbone correctness claim: the simulator is
//! functional as well as timed, so a kernel scheduled onto the baseline,
//! the S / S-O / S-O-D dataflow machines, or the M / M-D MIMD machines
//! must produce the same answers as the pure-Rust reference
//! implementation (bit-exact for the crypto kernels, tolerance-checked
//! for floating point).

use dlp_core::sweep::derive_seed;
use dlp_core::{run_kernel, ExperimentParams, MachineConfig};
use dlp_kernels::suite;

/// Small record counts keep the full 13-kernel × 6-config sweep fast in
/// debug builds while still exercising multiple revitalizations/unrolls.
const RECORDS: usize = 24;

fn sweep(configs: &[MachineConfig]) {
    let params = ExperimentParams::default();
    for kernel in suite() {
        if !kernel.in_perf_suite() {
            continue;
        }
        for &config in configs {
            let out = run_kernel(kernel.as_ref(), config, RECORDS, &params)
                .unwrap_or_else(|e| panic!("{} on {config}: {e}", kernel.name()));
            assert!(
                out.verified(),
                "{} on {config}: first mismatch at output word {:?}",
                kernel.name(),
                out.mismatch
            );
            assert!(out.stats.cycles() > 0, "{} on {config}: no time elapsed", kernel.name());
            assert_eq!(out.records, RECORDS);
        }
    }
}

#[test]
fn all_kernels_verify_on_baseline() {
    sweep(&[MachineConfig::Baseline]);
}

#[test]
fn all_kernels_verify_on_simd_configs() {
    sweep(&[MachineConfig::S, MachineConfig::SO, MachineConfig::SOD]);
}

#[test]
fn all_kernels_verify_on_mimd_configs() {
    sweep(&[MachineConfig::M, MachineConfig::MD]);
}

#[test]
fn anisotropic_is_characterized_but_excluded() {
    // The paper's footnote 1: anisotropic-filter appears in Table 2 but
    // not in the performance tables. Its IR must still validate and agree
    // with its reference (the library-level tests cover that); here we
    // assert the exclusion flag that the experiment drivers honor.
    let k = suite()
        .into_iter()
        .find(|k| k.name() == "anisotropic-filter")
        .expect("kernel exists");
    assert!(!k.in_perf_suite());
    assert!(k.ir().validate().is_ok());
}

#[test]
fn highpassfilter_mimd_matches_reference_tree_order() {
    // The MIMD body must add the nine products in the reference's tree
    // order: the coefficients sum to 1, so a serial accumulation cancels
    // differently and word 2554 of the workload a sweep draws at the
    // default seed lands outside the f32 tolerance.
    let base = ExperimentParams::default();
    let params = ExperimentParams { seed: derive_seed(base.seed, "highpassfilter"), ..base };
    let k = suite().into_iter().find(|k| k.name() == "highpassfilter").expect("kernel exists");
    for config in [MachineConfig::M, MachineConfig::MD] {
        let out = run_kernel(k.as_ref(), config, 2555, &params)
            .unwrap_or_else(|e| panic!("highpassfilter on {config}: {e}"));
        assert!(
            out.verified(),
            "highpassfilter on {config}: first mismatch at output word {:?}",
            out.mismatch
        );
    }
}
