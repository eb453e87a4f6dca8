//! Tier-1 contract of the lane-batched engine (DESIGN.md §10): for
//! every lane, [`run_prepared_batch_in`] returns **bit-identical**
//! results — statistics, fault counters, mismatch index, and structured
//! errors — to running [`run_prepared_in`] on that lane alone.
//!
//! 1. Every cell of the full kernel × configuration grid, batched with
//!    genuinely divergent lanes (distinct workload seeds).
//! 2. Identical lanes run through the lockstep engine as separate
//!    lanes, on both engine families and up to the full
//!    [`MAX_CLASSES`]-lane width, and each reproduces the scalar result.
//! 3. Mixed record counts in one call: not batchable, so every lane
//!    takes the per-lane scalar path.
//! 4. Property: arbitrary fault plans with distinct per-lane salts —
//!    including plans that kill some lanes and not others — batch
//!    identically on both engine families. A killed lane masks off the
//!    shared events, so bit-identity to the scalar runs is exactly the
//!    statement that a masked lane never contributes to any sibling's
//!    stat counter.

use std::sync::OnceLock;

use dlp_common::{FaultPlan, FaultRate};
use dlp_core::{
    batchable, prepare_kernel, run_prepared_batch_in, run_prepared_in, BatchLane,
    ExperimentParams, MachineConfig, PreparedProgram, RunScratch,
};
use dlp_kernels::{suite, DlpKernel};
use proptest::prelude::*;
use trips_sim::batch::MAX_CLASSES;

/// Three lanes varying only the workload seed, so the lockstep engine
/// runs three divergent lanes.
fn seed_lanes(base: &ExperimentParams, records: usize) -> Vec<BatchLane> {
    (0..3u64)
        .map(|i| BatchLane {
            records,
            params: ExperimentParams { seed: base.seed.wrapping_add(i), ..*base },
        })
        .collect()
}

#[test]
fn every_grid_cell_batches_bit_identically() {
    let base = ExperimentParams::default();
    for k in suite() {
        for config in MachineConfig::ALL {
            let records = 8;
            let prepared = prepare_kernel(k.as_ref(), config.mechanisms(), records, &base)
                .unwrap_or_else(|e| panic!("{} on {config} fails to lower: {e}", k.name()));
            let lanes = seed_lanes(&base, records);
            assert!(batchable(&lanes));

            let mut scratch = RunScratch::new();
            let scalar: Vec<_> = lanes
                .iter()
                .map(|l| run_prepared_in(k.as_ref(), &prepared, l.records, &l.params, &mut scratch))
                .collect();
            let batched = run_prepared_batch_in(k.as_ref(), &prepared, &lanes, &mut scratch);
            assert_eq!(
                batched,
                scalar,
                "{} on {config}: batched lanes must be bit-identical to scalar",
                k.name()
            );
        }
    }
}

#[test]
fn identical_lanes_each_reproduce_the_scalar_result() {
    // Identical lanes share seed, fault plan and record count, yet each
    // runs as its own lockstep lane: 8 lanes and the full mask-word
    // width, on a dataflow (fft/S-O) and an MIMD (blowfish/M) cell.
    let params = ExperimentParams::default();
    for (name, config) in [("fft", MachineConfig::SO), ("blowfish", MachineConfig::M)] {
        let k = kernel(name);
        let prepared =
            prepare_kernel(k.as_ref(), config.mechanisms(), 16, &params).expect("lowers");
        let mut scratch = RunScratch::new();
        let scalar = run_prepared_in(k.as_ref(), &prepared, 16, &params, &mut scratch);
        for width in [8, MAX_CLASSES] {
            let lanes = vec![BatchLane { records: 16, params }; width];
            assert!(batchable(&lanes));
            let batched = run_prepared_batch_in(k.as_ref(), &prepared, &lanes, &mut scratch);
            assert_eq!(batched.len(), width);
            for lane in &batched {
                assert_eq!(*lane, scalar, "{name} on {config}: identical lane of {width}");
            }
        }
    }
}

#[test]
fn mixed_record_counts_batch_in_lockstep() {
    // A lockstep batch holds one record count: lanes at 8 / 24 / 64
    // records are not batchable, and the batched call falls back to one
    // scalar run per lane, each bit-identical to that lane run alone.
    let base = ExperimentParams::default();
    let k = suite().into_iter().find(|k| k.name() == "convert").expect("suite kernel");
    for config in [MachineConfig::S, MachineConfig::M] {
        let prepared =
            prepare_kernel(k.as_ref(), config.mechanisms(), 64, &base).expect("lowers");
        let lanes: Vec<BatchLane> = [8usize, 24, 64]
            .iter()
            .enumerate()
            .map(|(i, &records)| BatchLane {
                records,
                params: ExperimentParams { seed: base.seed.wrapping_add(i as u64), ..base },
            })
            .collect();
        assert!(!batchable(&lanes), "mixed record counts must not batch on {config}");
        let mut scratch = RunScratch::new();
        let scalar: Vec<_> = lanes
            .iter()
            .map(|l| run_prepared_in(k.as_ref(), &prepared, l.records, &l.params, &mut scratch))
            .collect();
        let batched = run_prepared_batch_in(k.as_ref(), &prepared, &lanes, &mut scratch);
        assert_eq!(
            batched, scalar,
            "mixed-record call on {config}: every lane bit-identical to its scalar run"
        );
    }
}

/// Prepared programs for the property tests, lowered once.
fn fuzz_programs() -> &'static (PreparedProgram, PreparedProgram, ExperimentParams) {
    static CELL: OnceLock<(PreparedProgram, PreparedProgram, ExperimentParams)> = OnceLock::new();
    CELL.get_or_init(|| {
        let params = ExperimentParams::default();
        let k = suite().into_iter().find(|k| k.name() == "convert").expect("suite kernel");
        let dataflow =
            prepare_kernel(k.as_ref(), MachineConfig::Baseline.mechanisms(), 8, &params)
                .expect("convert lowers on baseline");
        let mimd = prepare_kernel(k.as_ref(), MachineConfig::M.mechanisms(), 8, &params)
            .expect("convert lowers on M");
        (dataflow, mimd, params)
    })
}

fn kernel(name: &str) -> Box<dyn DlpKernel> {
    suite().into_iter().find(|k| k.name() == name).expect("suite kernel")
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::collection::vec(0u32..300_001, 6..7),
        any::<u64>(),
        0u32..4,
        1u64..9,
        (1u64..65, 1u64..65),
    )
        .prop_map(|(rates, salt, max_retries, backoff, (stall, fill))| {
            let mut plan = FaultPlan::none().with_salt(salt);
            plan.noc_drop = FaultRate::per_million(rates[0]);
            plan.noc_corrupt = FaultRate::per_million(rates[1]);
            plan.dma_stall = FaultRate::per_million(rates[2]);
            plan.smc_stall = FaultRate::per_million(rates[3]);
            plan.l1_fill_delay = FaultRate::per_million(rates[4]);
            plan.operand_flip = FaultRate::per_million(rates[5]);
            plan.max_retries = max_retries;
            plan.backoff_ticks = backoff;
            plan.backoff_cap = backoff * 8;
            plan.stall_ticks = stall;
            plan.fill_delay_ticks = fill;
            plan
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary fault plans, distinct per-lane salts, both engine
    /// families, lane counts 1 / 2 / 8: per-lane results — successes,
    /// fault counters, watchdogs, unrecoverable-fault errors — are
    /// bit-identical between the batched and scalar paths. Divergence
    /// (one lane dying while siblings run on) is exactly what the
    /// event-mask machinery must keep invisible.
    #[test]
    fn arbitrary_fault_plans_batch_identically(
        plan in arb_plan(),
        n_lanes in (0usize..3).prop_map(|i| [1usize, 2, 8][i]),
    ) {
        let (dataflow, mimd, base) = fuzz_programs();
        let k = kernel("convert");
        for prepared in [dataflow, mimd] {
            let lanes: Vec<BatchLane> = (0..n_lanes as u64)
                .map(|i| BatchLane {
                    records: 8,
                    params: ExperimentParams {
                        fault: plan.with_salt(plan.salt.wrapping_add(i)),
                        watchdog: Some(5_000_000),
                        ..*base
                    },
                })
                .collect();
            let mut scratch = RunScratch::new();
            let scalar: Vec<_> = lanes
                .iter()
                .map(|l| run_prepared_in(k.as_ref(), prepared, l.records, &l.params, &mut scratch))
                .collect();
            let batched = run_prepared_batch_in(k.as_ref(), prepared, &lanes, &mut scratch);
            prop_assert_eq!(batched, scalar);
        }
    }
}
