//! The lane-batched engines reject what the scalar engines reject: for
//! every static rejection, `run_dataflow_batch_in` / `run_mimd_batch_in`
//! return, for every lane class, exactly the `Err` the scalar run on
//! that class's machine returns. Both engines also route a `Send` to the
//! node that holds its destination rank.

use dlp_common::{Coord, DlpError, GridShape, SimStats, TimingParams};
use trips_isa::{
    DataflowBlock, MemSpace, MimdAsm, MimdProgram, Opcode, PlacedInst, Port, Slot, Target,
};
use trips_sim::batch::{run_dataflow_batch_in, run_mimd_batch_in};
use trips_sim::{EngineArena, Machine, MechanismSet};

/// Lane classes per batched dispatch.
const CLASSES: usize = 3;

/// The record (MIMD) or iteration (dataflow) count every class runs.
const COUNT: u64 = 4;

/// The grid every parity check runs on unless it names its own.
fn grid() -> GridShape {
    GridShape::new(4, 4)
}

fn machine(grid: GridShape, mech: MechanismSet) -> Machine {
    Machine::new(grid, TimingParams::default(), mech)
}

fn mimd_programs(n: usize, body: impl FnOnce(&mut MimdAsm)) -> Vec<MimdProgram> {
    let mut asm = MimdAsm::new();
    body(&mut asm);
    asm.halt();
    vec![asm.assemble().expect("assembles"); n]
}

fn mimd_program(body: impl FnOnce(&mut MimdAsm)) -> Vec<MimdProgram> {
    mimd_programs(4, body)
}

/// Every class of a batched MIMD dispatch fails exactly as the scalar run.
fn assert_mimd_parity(mech: MechanismSet, programs: &[MimdProgram]) -> DlpError {
    assert_mimd_parity_on(grid(), mech, programs)
}

/// [`assert_mimd_parity`] on `grid`.
fn assert_mimd_parity_on(
    grid: GridShape,
    mech: MechanismSet,
    programs: &[MimdProgram],
) -> DlpError {
    let scalar: Vec<Result<SimStats, DlpError>> = (0..CLASSES)
        .map(|_| machine(grid, mech).run_mimd_in(programs, COUNT, &mut EngineArena::new()))
        .collect();
    let mut machines: Vec<Machine> = (0..CLASSES).map(|_| machine(grid, mech)).collect();
    let batch = run_mimd_batch_in(&mut machines, programs, COUNT, &mut EngineArena::new());
    assert_eq!(batch, scalar, "batched MIMD classes must fail exactly as scalar runs");
    scalar[0].clone().expect_err("the scalar engine rejects this program")
}

/// Every class of a batched dataflow dispatch fails exactly as the
/// scalar run.
fn assert_dataflow_parity(mech: MechanismSet, block: &DataflowBlock) -> DlpError {
    let scalar: Vec<Result<SimStats, DlpError>> = (0..CLASSES)
        .map(|_| machine(grid(), mech).run_dataflow_in(block, COUNT, &mut EngineArena::new()))
        .collect();
    let mut machines: Vec<Machine> = (0..CLASSES).map(|_| machine(grid(), mech)).collect();
    let batch = run_dataflow_batch_in(&mut machines, block, COUNT, &mut EngineArena::new());
    assert_eq!(batch, scalar, "batched dataflow classes must fail exactly as scalar runs");
    scalar[0].clone().expect_err("the scalar engine rejects this block")
}

/// `iter -> op(iter) -> reg0`, with `op` on node (0, 1).
fn dataflow_block(op: Opcode) -> DataflowBlock {
    let s0 = Slot::new(Coord::new(0, 0), 0);
    let s1 = Slot::new(Coord::new(0, 1), 0);
    let mut it = PlacedInst::new(s0, Opcode::Iter);
    it.targets = vec![Target::port(s1, Port::Left)];
    let mut inst = PlacedInst::new(s1, op);
    inst.targets = vec![Target::Reg(0)];
    DataflowBlock::new("parity", vec![it, inst], vec![])
}

#[test]
fn mimd_without_local_pcs() {
    let progs = mimd_program(|_| {});
    let err = assert_mimd_parity(MechanismSet::simd(), &progs);
    assert!(matches!(err, DlpError::Unsupported { .. }), "{err:?}");
}

#[test]
fn mimd_program_longer_than_the_l0_instruction_store() {
    let cap = TimingParams::default().core.l0_inst_capacity;
    let progs = mimd_program(|asm| {
        for _ in 0..cap {
            asm.li(1, 0);
        }
    });
    let err = assert_mimd_parity(MechanismSet::mimd(), &progs);
    assert!(matches!(err, DlpError::CapacityExceeded { .. }), "{err:?}");
}

#[test]
fn mimd_more_programs_than_array_nodes() {
    // Five programs on four nodes: the fifth has no node to run on, so
    // no run may count it as a rank (`r31`).
    let progs = mimd_programs(5, |asm| {
        asm.li(1, 0);
    });
    let err = assert_mimd_parity_on(GridShape::new(2, 2), MechanismSet::mimd(), &progs);
    assert_eq!(
        err,
        DlpError::CapacityExceeded { resource: "array nodes", needed: 5, available: 4 }
    );
}

#[test]
fn mimd_lut_without_the_l0_data_store() {
    let progs = mimd_program(|asm| {
        asm.lut(1, 0, 0);
    });
    let err = assert_mimd_parity(MechanismSet::mimd(), &progs);
    assert!(matches!(err, DlpError::Unsupported { .. }), "{err:?}");
}

#[test]
fn dataflow_lut_without_the_l0_data_store() {
    let err = assert_dataflow_parity(MechanismSet::simd(), &dataflow_block(Opcode::Lut));
    assert!(matches!(err, DlpError::Unsupported { .. }), "{err:?}");
}

#[test]
fn dataflow_smc_access_without_smc() {
    let block = dataflow_block(Opcode::Load(MemSpace::Smc));
    let err = assert_dataflow_parity(MechanismSet::baseline(), &block);
    assert!(matches!(err, DlpError::Unsupported { .. }), "{err:?}");
}

#[test]
fn dataflow_block_on_a_local_pc_machine() {
    let block = dataflow_block(Opcode::Mov);
    let err = assert_dataflow_parity(MechanismSet::mimd(), &block);
    assert!(matches!(err, DlpError::Unsupported { .. }), "{err:?}");
}

#[test]
fn mimd_send_routes_to_the_node_holding_the_destination_rank() {
    // Nodes 0..8 idle, so rank 0 is node 8 at (2, 0) and rank 1 is its
    // neighbour node 9 at (2, 1): one hop. Routing to linear node 1 at
    // (0, 1) instead would take three.
    let assemble = |body: fn(&mut MimdAsm)| {
        let mut asm = MimdAsm::new();
        body(&mut asm);
        asm.halt();
        asm.assemble().expect("assembles")
    };
    let mut programs = vec![MimdProgram::default(); 8];
    programs.push(assemble(|asm| {
        asm.li(1, 7).send(1, 1);
    }));
    programs.push(assemble(|asm| {
        asm.recv(1, 0);
    }));
    let mech = MechanismSet::mimd();
    let scalar = machine(grid(), mech)
        .run_mimd_in(&programs, COUNT, &mut EngineArena::new())
        .expect("scalar run");
    assert_eq!(scalar.net_hops, 1, "scalar engine");
    let mut machines: Vec<Machine> = (0..CLASSES).map(|_| machine(grid(), mech)).collect();
    for stats in run_mimd_batch_in(&mut machines, &programs, COUNT, &mut EngineArena::new()) {
        assert_eq!(stats.expect("batched run").net_hops, 1, "batched engine");
    }
}
