//! Tier-1 guarantees of the fault-injection subsystem:
//!
//! 1. **Graceful degradation** — a cell that trips the watchdog (or an
//!    unrecoverable fault budget) through the full [`Sweep`] pipeline
//!    becomes a structured [`CellOutcome::Failed`] with the error-kind
//!    taxonomy and the retry policy's attempt count; sibling cells are
//!    untouched.
//! 2. **Determinism** — a faulted sweep is bit-identical across worker
//!    counts and repeated runs, fault counters included.
//! 3. **Bit-exact recovery** — every faulted run that completes
//!    computed exactly the fault-free outputs (detect-and-replay never
//!    delivers a corrupted value), and a zero-fault plan is a strict
//!    no-op on the statistics.
//! 4. **No panics** — arbitrary seeded fault plans drive both engines
//!    to either a verified result or a structured `DlpError`, never a
//!    panic (property-based).

use std::sync::OnceLock;

use dlp_common::{FaultPlan, FaultRate};
use dlp_core::sweep::{Sweep, SweepPolicy};
use dlp_core::{
    prepare_kernel, run_kernel_mech, run_prepared, CellOutcome, CellSpec, ExperimentParams,
    MachineConfig, PreparedProgram,
};
use dlp_kernels::{suite, DlpKernel};
use proptest::prelude::*;

fn kernel(name: &str) -> Box<dyn DlpKernel> {
    suite().into_iter().find(|k| k.name() == name).expect("suite kernel")
}

#[test]
fn watchdog_cell_fails_cleanly_without_poisoning_siblings() {
    let params = ExperimentParams::default();
    // An impossibly tight watchdog: the cell must fail, not hang.
    let strangled = ExperimentParams { watchdog: Some(2), ..params };

    let mut sweep = Sweep::with_threads(2);
    sweep.set_policy(SweepPolicy::default().with_attempts(2));
    let id = sweep.add_kernel_by_name("convert").expect("suite kernel");
    sweep.push_cell(CellSpec {
        kernel: id,
        config: Some(MachineConfig::S),
        mech: MachineConfig::S.mechanisms(),
        records: 24,
        params: strangled,
        label: "strangled".into(),
    });
    sweep.push_config(id, MachineConfig::S, 24, &params);

    let report = sweep.run();
    match &report.cells[0].outcome {
        CellOutcome::Failed { error, kind, attempts, timed_out } => {
            assert_eq!(kind, "watchdog", "taxonomy tag: {error}");
            assert!(error.contains("watchdog"), "rendered error names the cause: {error}");
            assert!(error.contains("convert"), "watchdog context names the block: {error}");
            assert_eq!(*attempts, 2, "the policy's retry budget was spent");
            assert!(!timed_out, "no soft timeout was configured");
        }
        CellOutcome::Ran { .. } => panic!("a 2-tick watchdog cannot be satisfied"),
        CellOutcome::Skipped { reason, .. } => panic!("the sweep skips no cell: {reason}"),
    }
    assert!(report.cells[1].outcome.verified(), "sibling cell is unaffected");
    assert_eq!(report.failures().len(), 1);
    assert_eq!(report.cells[0].outcome.failure_kind(), Some("watchdog"));
    assert_eq!(report.extra_attempts, 1, "one retry beyond the first attempt");
}

#[test]
fn lowering_failures_report_zero_attempts() {
    // dct's 1920-instruction body cannot place on a 1×1 grid: the cell
    // fails in phase 1 (scheduling) and never executes, so the retry
    // policy — which only re-rolls fault schedules — must not touch it.
    let params = ExperimentParams {
        grid: dlp_common::GridShape::new(1, 1),
        ..ExperimentParams::default()
    };
    let mut sweep = Sweep::with_threads(2);
    sweep.set_policy(SweepPolicy::default().with_attempts(3));
    let id = sweep.add_kernel_by_name("dct").expect("suite kernel");
    sweep.push_config(id, MachineConfig::S, 24, &params);
    let report = sweep.run();
    match &report.cells[0].outcome {
        CellOutcome::Failed { kind, attempts, .. } => {
            assert_eq!(kind, "capacity-exceeded");
            assert_eq!(*attempts, 0, "lowering failures are never retried");
        }
        CellOutcome::Ran { .. } => panic!("dct cannot place on a 1x1 grid"),
        CellOutcome::Skipped { reason, .. } => panic!("the sweep skips no cell: {reason}"),
    }
    assert_eq!(report.extra_attempts, 0);
}

/// `convert` with its rolled MIMD form replaced by a program whose
/// `recv` no rank ever answers — statically ill-formed, so the program
/// verifier must reject it before a single cycle is simulated.
struct UnbalancedChannels(Box<dyn DlpKernel>);

impl DlpKernel for UnbalancedChannels {
    fn name(&self) -> &'static str {
        "unbalanced-channels"
    }
    fn description(&self) -> &'static str {
        "convert with a receive nobody answers"
    }
    fn ir(&self) -> dlp_kernel_ir::KernelIr {
        self.0.ir()
    }
    fn mimd_program(
        &self,
        _target: dlp_kernels::MimdTarget,
    ) -> Result<trips_isa::MimdProgram, dlp_common::DlpError> {
        use trips_isa::{MimdInst, MimdOp, OpRole};
        let inst = |op| MimdInst { op, rd: 1, ra: 0, rb: 0, imm: 0, role: OpRole::Useful };
        Ok(trips_isa::MimdProgram::from_insts(vec![inst(MimdOp::Recv), inst(MimdOp::Halt)]))
    }
    fn workload(&self, records: usize, seed: u64) -> dlp_kernels::Workload {
        self.0.workload(records, seed)
    }
    fn output_kind(&self) -> dlp_kernels::OutputKind {
        self.0.output_kind()
    }
}

#[test]
fn verifier_rejections_report_zero_attempts() {
    // Like lowering failures, verifier rejections happen in phase 1
    // (planning): deterministic, so the retry policy — which only
    // re-rolls fault schedules — must never spend attempts on them.
    let params = ExperimentParams::default();
    let mut sweep = Sweep::with_threads(2);
    sweep.set_policy(SweepPolicy::default().with_attempts(3));
    let id = sweep.add_kernel(Box::new(UnbalancedChannels(kernel("convert"))));
    sweep.push_config(id, MachineConfig::M, 24, &params);
    let report = sweep.run();
    match &report.cells[0].outcome {
        CellOutcome::Failed { error, kind, attempts, .. } => {
            assert_eq!(kind, "verify", "taxonomy tag: {error}");
            assert!(error.contains("V0213"), "rendered error carries the V* code: {error}");
            assert_eq!(*attempts, 0, "verifier rejections are never retried");
        }
        CellOutcome::Ran { .. } => panic!("an unanswered recv cannot pass the verifier"),
        CellOutcome::Skipped { reason, .. } => panic!("the sweep skips no cell: {reason}"),
    }
    assert_eq!(report.extra_attempts, 0);
}

/// A moderately hostile uniform plan: visible fault activity at smoke
/// scale, but comfortably inside the retry budget.
fn hostile() -> FaultPlan {
    FaultPlan::uniform(FaultRate::per_million(20_000))
}

fn faulted_grid(threads: usize) -> Vec<CellOutcome> {
    let params = ExperimentParams { fault: hostile(), ..ExperimentParams::default() };
    let mut sweep = Sweep::with_threads(threads);
    for name in ["convert", "fft", "blowfish"] {
        let id = sweep.add_kernel_by_name(name).expect("suite kernel");
        for config in [MachineConfig::Baseline, MachineConfig::SO, MachineConfig::MD] {
            sweep.push_config(id, config, 24, &params);
        }
    }
    sweep.run().cells.into_iter().map(|c| c.outcome).collect()
}

#[test]
fn faulted_sweep_is_bit_identical_across_worker_counts() {
    let serial = faulted_grid(1);
    let parallel = faulted_grid(4);
    assert_eq!(serial, parallel, "fault schedules must not depend on the worker count");
    let injected: u64 = serial
        .iter()
        .filter_map(CellOutcome::stats)
        .map(|s| s.faults_injected)
        .sum();
    assert!(injected > 0, "the hostile plan must actually fire at this scale");
}

#[test]
fn recovered_runs_compute_fault_free_outputs() {
    for (name, config) in [("convert", MachineConfig::Baseline), ("blowfish", MachineConfig::M)] {
        let k = kernel(name);
        let clean_params = ExperimentParams::default();
        let (clean, mismatch) =
            run_kernel_mech(k.as_ref(), config.mechanisms(), 24, &clean_params)
                .expect("fault-free run succeeds");
        assert_eq!(mismatch, None);
        assert_eq!(clean.faults_injected, 0, "no injector installed");

        let params = ExperimentParams { fault: hostile(), ..clean_params };
        let (faulted, mismatch) = run_kernel_mech(k.as_ref(), config.mechanisms(), 24, &params)
            .expect("hostile-but-recoverable run succeeds");
        // The core promise: detect-and-replay, so the delivered values —
        // and therefore every output word — are those of the fault-free
        // run, just later.
        assert_eq!(mismatch, None, "{name} on {config}: recovery must be bit-exact");
        assert!(faulted.faults_injected > 0, "{name} on {config}: plan must fire");
        assert!(
            faulted.cycles() >= clean.cycles(),
            "{name} on {config}: recovery is never free"
        );
    }
}

#[test]
fn zero_fault_plan_is_a_strict_noop() {
    let k = kernel("fft");
    let base = ExperimentParams::default();
    // A salted all-zero plan still counts as "no faults" and must not
    // perturb a single counter.
    let zeroed =
        ExperimentParams { fault: FaultPlan::none().with_salt(0xDEAD_BEEF), ..base };
    let a = run_kernel_mech(k.as_ref(), MachineConfig::SO.mechanisms(), 24, &base)
        .expect("runs");
    let b = run_kernel_mech(k.as_ref(), MachineConfig::SO.mechanisms(), 24, &zeroed)
        .expect("runs");
    assert_eq!(a, b, "a zero-rate plan must be invisible");
}

/// Prepared programs for the fuzz target, lowered once: scheduling is
/// the expensive part and is independent of the fault plan.
fn fuzz_programs() -> &'static (PreparedProgram, PreparedProgram, ExperimentParams) {
    static PREPARED: OnceLock<(PreparedProgram, PreparedProgram, ExperimentParams)> =
        OnceLock::new();
    PREPARED.get_or_init(|| {
        let params = ExperimentParams::default();
        let k = kernel("convert");
        let dataflow =
            prepare_kernel(k.as_ref(), MachineConfig::Baseline.mechanisms(), 8, &params)
                .expect("convert lowers on baseline");
        let mimd = prepare_kernel(k.as_ref(), MachineConfig::M.mechanisms(), 8, &params)
            .expect("convert lowers on M");
        (dataflow, mimd, params)
    })
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seeded plan — including zero retry budgets, which make the
    /// first fault unrecoverable — drives both engines to a verified
    /// result or a structured error, never a panic and never a wrong
    /// output.
    #[test]
    fn arbitrary_fault_plans_never_panic_either_engine(plan in arb_plan()) {
        let (dataflow, mimd, base) = fuzz_programs();
        let k = kernel("convert");
        let params = ExperimentParams {
            fault: plan,
            // Bounded even under a fault storm: a spinning engine is a
            // bug this test must surface as Watchdog, not a timeout.
            watchdog: Some(5_000_000),
            ..*base
        };
        for prepared in [dataflow, mimd] {
            match run_prepared(k.as_ref(), prepared, 8, &params) {
                Ok((_, mismatch)) => prop_assert_eq!(mismatch, None),
                Err(e) => {
                    let kind = e.kind();
                    prop_assert!(
                        kind == "fault-unrecoverable" || kind == "watchdog",
                        "unexpected failure kind {}: {}", kind, e
                    );
                }
            }
        }
    }
}
