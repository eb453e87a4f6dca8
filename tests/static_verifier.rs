//! Tier-1 guarantees of the static program verifier (`dlp-verify`):
//!
//! 1. **Exhaustive acceptance** — every perf-suite kernel lowers and
//!    verifies on every published machine configuration (the full
//!    13×6 grid), so the verifier never rejects a sound artifact.
//! 2. **Mutation rejection** — breaking a sound artifact in a targeted
//!    way (drop a producer, unbalance a channel, overflow an L0 index)
//!    yields exactly the advertised `V*` diagnostic code.
//! 3. **Budget soundness** — verifier-accepted random MIMD programs
//!    never trip the engine's watchdog-derived step-budget bail-out
//!    (property-based).
//! 4. **Pinned constants** — the verifier's machine-model constants
//!    match the simulator's (they live in different crates because the
//!    scheduler must not depend on the simulator).

use dlp_common::{vcode, DlpError, GridShape, Value};
use dlp_core::{prepare_kernel, ExperimentParams, MachineConfig};
use dlp_kernels::{suite, DlpKernel, MimdTarget};
use proptest::prelude::*;
use trips_isa::{MimdInst, MimdOp, MimdProgram, Opcode, OpRole, Target};
use trips_sched::verify::{
    verify_dataflow, verify_mimd, DataflowVerifyParams, MimdVerifyParams, DEFAULT_NUM_REGS,
};
use trips_sched::{schedule_dataflow, LayoutPlan, ScheduleOptions, TargetConfig};

fn kernel(name: &str) -> Box<dyn DlpKernel> {
    suite().into_iter().find(|k| k.name() == name).expect("suite kernel")
}

#[test]
fn all_perf_suite_lowerings_verify_on_every_config() {
    let params = ExperimentParams::default();
    let mut checked = 0usize;
    for k in suite().into_iter().filter(|k| k.in_perf_suite()) {
        for config in MachineConfig::ALL {
            prepare_kernel(k.as_ref(), config.mechanisms(), 64, &params).unwrap_or_else(|e| {
                panic!("{} on {config} must verify: {e}", k.name());
            });
            checked += 1;
        }
    }
    assert_eq!(checked, 78, "the full 13-kernel x 6-config grid was covered");
}

/// Schedule a kernel's dataflow block and return it with the verifier
/// parameters that accept it unmodified.
fn scheduled(name: &str, cfg: TargetConfig) -> (trips_isa::DataflowBlock, DataflowVerifyParams) {
    let k = kernel(name);
    let grid = GridShape::trips_baseline();
    let timing = dlp_common::TimingParams::default();
    let sched = schedule_dataflow(
        &k.ir(),
        grid,
        &timing,
        cfg,
        LayoutPlan::default(),
        ScheduleOptions { max_unroll: Some(64), ..ScheduleOptions::default() },
    )
    .expect("suite kernel lowers");
    let params = DataflowVerifyParams {
        lmw_max_words: timing.mem.lmw_max_words as usize,
        l0_data_entries: timing.mem.l0_data_bytes,
        unroll: sched.unroll,
        operand_revitalization: cfg.operand_revitalization,
        tables_in_l0: sched.tables_in_l0,
        table_len: sched.table_image.len(),
        ..DataflowVerifyParams::new(grid, timing.core.rs_slots_per_node)
    };
    verify_dataflow(&sched.block, &params).expect("unmutated block verifies");
    (sched.block, params)
}

#[test]
fn mutation_dropped_producer_is_v0107() {
    let (block, params) =
        scheduled("convert", TargetConfig { smc: true, dlp_unroll: true, ..TargetConfig::default() });
    let mut insts = block.insts().to_vec();
    // Redirect the first port-to-port operand wire into a register sink,
    // starving the consumer's port. (Skip Lut consumers: an immediate-fed
    // `lut` legitimately needs no left producer.)
    let by_slot: std::collections::BTreeMap<_, _> =
        insts.iter().map(|i| (i.slot, i.op)).collect();
    let mut mutated = false;
    'outer: for inst in &mut insts {
        for t in &mut inst.targets {
            if let Target::Port { slot, .. } = *t {
                if !matches!(by_slot[&slot], Opcode::Lut) {
                    *t = Target::Reg(0);
                    mutated = true;
                    break 'outer;
                }
            }
        }
    }
    assert!(mutated, "convert's block has at least one operand wire");
    let broken = trips_isa::DataflowBlock::new("mutated", insts, block.reg_reads().to_vec());
    match verify_dataflow(&broken, &params) {
        Err(DlpError::Verify { code, .. }) => assert_eq!(code, vcode::MISSING_PRODUCER),
        other => panic!("expected V0107, got {other:?}"),
    }
}

#[test]
fn mutation_duplicated_operand_is_v0106() {
    let (block, params) =
        scheduled("convert", TargetConfig { smc: true, dlp_unroll: true, ..TargetConfig::default() });
    let mut insts = block.insts().to_vec();
    assert!(insts.len() > 512, "the DLP-unrolled block is full-size");
    // Give the last producer a second wire into the block's first fed
    // port, so that port has two producers. (Skip `lmw` producers: their
    // target count is pinned to the word count.)
    let fed = insts
        .iter()
        .flat_map(|i| &i.targets)
        .copied()
        .find(|t| matches!(t, Target::Port { .. }))
        .expect("convert's block has at least one operand wire");
    let producer = insts
        .iter_mut()
        .rev()
        .find(|i| !i.targets.is_empty() && !matches!(i.op, Opcode::Lmw))
        .expect("convert's block has a non-lmw producer");
    producer.targets.push(fed);
    let broken = trips_isa::DataflowBlock::new("mutated", insts, block.reg_reads().to_vec());
    match verify_dataflow(&broken, &params) {
        Err(DlpError::Verify { code, .. }) => assert_eq!(code, vcode::MULTIPLE_PRODUCERS),
        other => panic!("expected V0106, got {other:?}"),
    }
}

#[test]
fn mutation_l0_index_overflow_is_v0123() {
    // A lookup-heavy kernel on the L0-data-store configuration places
    // real `lut` instructions; pushing one's static index past the store
    // must be caught before a cycle is simulated.
    let cfg = TargetConfig {
        smc: true,
        l0_data_store: true,
        operand_revitalization: true,
        dlp_unroll: true,
    };
    for name in ["blowfish", "md5", "rijndael"] {
        let (block, params) = scheduled(name, cfg);
        let mut insts = block.insts().to_vec();
        let Some(lut) = insts.iter_mut().find(|i| matches!(i.op, Opcode::Lut)) else {
            continue;
        };
        lut.imm = Some(Value::from_u64(params.l0_data_entries as u64 + 7));
        let broken = trips_isa::DataflowBlock::new("mutated", insts, block.reg_reads().to_vec());
        match verify_dataflow(&broken, &params) {
            Err(DlpError::Verify { code, .. }) => assert_eq!(code, vcode::L0_INDEX_BOUNDS),
            other => panic!("{name}: expected V0123, got {other:?}"),
        }
        return;
    }
    panic!("no lookup kernel placed a lut instruction on the L0 configuration");
}

fn raw(op: MimdOp, rd: u8, ra: u8, rb: u8, imm: i64) -> MimdInst {
    MimdInst { op, rd, ra, rb, imm, role: OpRole::Useful }
}

#[test]
fn mutation_unbalanced_channel_is_v0213() {
    // Start from a real kernel's rolled program (which uses no channels),
    // then give rank 1 a receive that rank 0 never answers.
    let prog = kernel("convert")
        .mimd_program(MimdTarget { tables_in_l0: false })
        .expect("convert assembles");
    let orphan = MimdProgram::from_insts(vec![
        raw(MimdOp::Recv, 1, 0, 0, 0),
        raw(MimdOp::Halt, 0, 0, 0, 0),
    ]);
    let params = MimdVerifyParams::new(2, 1_000_000);
    verify_mimd(&[prog.clone(), prog.clone()], &params).expect("channel-free pair verifies");
    match verify_mimd(&[prog, orphan], &params) {
        Err(DlpError::Verify { code, .. }) => assert_eq!(code, vcode::CHANNEL_IMBALANCE),
        other => panic!("expected V0213, got {other:?}"),
    }
}

#[test]
fn verifier_constants_match_the_simulator() {
    assert_eq!(
        DEFAULT_NUM_REGS,
        trips_sim::Machine::NUM_REGS,
        "dlp-verify cannot depend on trips-sim, so the register-file size is pinned by test"
    );
    assert_eq!(
        MimdVerifyParams::new(1, 0).l0_inst_capacity,
        dlp_common::TimingParams::default().core.l0_inst_capacity,
        "default L0 instruction capacity tracks the timing defaults"
    );
}

/// A random *verifiable* MIMD program: forward-only branches over
/// ALU/immediate work, terminated by `halt`. Forward branches make every
/// execution path strictly advance, so termination is structural — the
/// property the verifier's budget check relies on.
fn build_program(len: usize, seed: u64) -> MimdProgram {
    // Tiny xorshift so the program is a pure function of the sampled
    // seed (the vendored proptest stub has no flat-map composition).
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut insts: Vec<MimdInst> = (0..len - 1)
        .map(|pc| {
            let rd = (next() % 28) as u8;
            let ra = (next() % 28) as u8;
            match next() % 4 {
                0 => raw(MimdOp::Li, rd, 0, 0, next() as i32 as i64),
                1 => raw(MimdOp::AluI(Opcode::Add), rd, ra, 0, (next() % 128) as i64 - 64),
                2 => raw(MimdOp::Alu(Opcode::Xor), rd, ra, (next() % 28) as u8, 0),
                _ => {
                    let tgt = pc as i64 + 1 + (next() % (len - 1 - pc) as u64) as i64;
                    let op = if next() & 1 == 0 { MimdOp::Bez } else { MimdOp::Bnz };
                    raw(op, 0, ra, 0, tgt)
                }
            }
        })
        .collect();
    insts.push(raw(MimdOp::Halt, 0, 0, 0, 0));
    MimdProgram::from_insts(insts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A verifier-accepted program never trips the engine's
    /// watchdog-derived step-budget bail-out when run under the same
    /// watchdog the verifier was told about.
    #[test]
    fn accepted_programs_never_trip_the_watchdog(len in 2usize..40, seed in any::<u64>()) {
        let prog = build_program(len, seed);
        let grid = GridShape::new(2, 2);
        let watchdog = 100_000u64;
        let progs = vec![prog; grid.nodes()];
        let params = MimdVerifyParams::new(grid.nodes(), watchdog);
        prop_assert!(verify_mimd(&progs, &params).is_ok());

        let mut machine = trips_sim::Machine::new(
            grid,
            dlp_common::TimingParams::default(),
            MachineConfig::M.mechanisms(),
        );
        machine.set_watchdog(watchdog);
        let mut arena = trips_sim::EngineArena::new();
        match machine.run_mimd_in(&progs, 4, &mut arena) {
            Ok(_) => {}
            Err(e) => prop_assert!(
                e.kind() != "watchdog",
                "verifier-accepted program hit the watchdog: {}", e
            ),
        }
    }
}
