//! The experiment driver: kernel × configuration → verified simulation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use dlp_common::{DlpError, FaultPlan, GridShape, SimStats, Tick, TimingParams, Value};
use dlp_kernel_ir::IrOp;
use dlp_kernels::{first_mismatch, memmap, DlpKernel, MimdTarget, Workload};
use trips_isa::MimdProgram;
use trips_sched::verify::analyze::{self, AnalysisReport};
use trips_sched::{
    replicate_mimd, schedule_dataflow, LayoutPlan, ScheduleOptions, ScheduledKernel,
};
use trips_sim::{EngineArena, Machine, MechanismSet};

use crate::MachineConfig;

/// Parameters shared by all experiments.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentParams {
    /// Array shape (the paper's baseline: 8×8).
    pub grid: GridShape,
    /// Machine timing.
    pub timing: TimingParams,
    /// Workload seed (fixed for reproducibility).
    pub seed: u64,
    /// Transient-fault injection plan. The default ([`FaultPlan::none`])
    /// is a strict no-op: the injector stays disabled and every hook
    /// takes the exact fault-free path with zero RNG draws, so
    /// fault-free statistics are bit-identical to builds without the
    /// fault machinery. The fault schedule is seeded from `seed` (plus
    /// the plan's salt), never from wall-clock, so a faulted run is
    /// reproducible across hosts and worker counts.
    pub fault: FaultPlan,
    /// Per-run watchdog override in simulated ticks (`None` keeps the
    /// simulator's generous default). Sweeps over fault rates lower
    /// this so a pathological cell fails fast with
    /// [`DlpError::Watchdog`] instead of stalling the batch.
    pub watchdog: Option<Tick>,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            grid: GridShape::trips_baseline(),
            timing: TimingParams::default(),
            seed: 0xD1_2003,
            fault: FaultPlan::none(),
            watchdog: None,
        }
    }
}

/// The result of one verified kernel run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Kernel name.
    pub kernel: String,
    /// Configuration that ran.
    pub config: MachineConfig,
    /// Records processed (excluding unroll padding).
    pub records: usize,
    /// Simulation statistics.
    pub stats: SimStats,
    /// Index of the first output word that differs from the reference,
    /// or `None` when the simulated machine computed everything correctly.
    pub mismatch: Option<usize>,
}

impl RunOutcome {
    /// Whether every output word matched the reference implementation.
    #[must_use]
    pub fn verified(&self) -> bool {
        self.mismatch.is_none()
    }

    /// Cycles per record (the Table 6 `cycles/block` metric).
    #[must_use]
    pub fn cycles_per_record(&self) -> f64 {
        self.stats.cycles() as f64 / self.records.max(1) as f64
    }
}

/// A sensible record count per kernel for the performance experiments,
/// scaled so that heavyweight kernels (dct's 1920-instruction body) finish
/// in reasonable simulation time while lightweight ones amortize their
/// setup. `scale` multiplies the defaults (use 1 for the paper tables);
/// scale 0 is the 24-record smoke size every `--quick` run uses.
#[must_use]
pub fn default_records(kernel_name: &str, scale: usize) -> usize {
    if scale == 0 {
        return 24;
    }
    let base = match kernel_name {
        "convert" | "highpassfilter" | "fft" | "lu" => 2048,
        "dct" => 64,
        "md5" | "rijndael" => 256,
        "blowfish" => 512,
        "vertex-skinning" => 256,
        _ => 512, // remaining shaders
    };
    base * scale
}

/// Schedule, stage, simulate and verify one kernel on one configuration.
///
/// The driver plays the role of the paper's setup blocks and stream
/// scheduler: it writes the workload into memory, stages the SMC window,
/// loads lookup tables into the L0 store (or their memory image), seeds
/// constant registers, launches the right engine, and finally checks every
/// output word against the kernel's reference implementation.
///
/// # Errors
///
/// Propagates scheduling and simulation failures ([`DlpError`]).
pub fn run_kernel(
    kernel: &dyn DlpKernel,
    config: MachineConfig,
    records: usize,
    params: &ExperimentParams,
) -> Result<RunOutcome, DlpError> {
    let (stats, mismatch) = run_kernel_mech(kernel, config.mechanisms(), records, params)?;
    Ok(RunOutcome { kernel: kernel.name().to_string(), config, records, stats, mismatch })
}

/// Outcome of one run (or one lane of a batched run): simulation
/// statistics plus the index of the first mismatching output word
/// under verification, if any.
pub type LaneResult = Result<(SimStats, Option<usize>), DlpError>;

/// As [`run_kernel`], but for an arbitrary coherent
/// [`trips_sim::MechanismSet`] — the entry point the full
/// configuration-space sweep uses. Returns the statistics and the index of
/// the first mismatching output word (if any).
///
/// Internally this is [`prepare_kernel`] followed by [`run_prepared`];
/// callers that execute the same kernel/configuration repeatedly (the
/// [`crate::sweep`] engine) keep the [`PreparedProgram`] and skip the
/// scheduling step on later runs.
///
/// # Errors
///
/// Propagates scheduling and simulation failures ([`DlpError`]).
pub fn run_kernel_mech(
    kernel: &dyn DlpKernel,
    mech: trips_sim::MechanismSet,
    records: usize,
    params: &ExperimentParams,
) -> LaneResult {
    let prepared = prepare_kernel(kernel, mech, records, params)?;
    run_prepared(kernel, &prepared, records, params)
}

/// A kernel lowered for one mechanism set, grid, and timing model —
/// everything [`run_prepared`] needs except the workload itself.
///
/// For dataflow configurations this holds the scheduled block (the
/// expensive part: placement, routing, unrolling); for MIMD
/// configurations the per-node program replicas and the lookup-table
/// image. The record count given to [`prepare_kernel`] only caps the
/// dataflow unroll factor; the sweep engine prepares one plan per record
/// count and runs every cell of that count against it.
#[derive(Clone)]
pub struct PreparedProgram {
    mech: MechanismSet,
    variant: PreparedVariant,
    analysis: AnalysisReport,
}

#[derive(Clone)]
enum PreparedVariant {
    Dataflow(ScheduledKernel),
    Mimd {
        progs: Vec<MimdProgram>,
        table: Vec<Value>,
    },
}

impl PreparedProgram {
    /// The mechanism set this program was lowered for.
    #[must_use]
    pub fn mechanisms(&self) -> MechanismSet {
        self.mech
    }

    /// Dataflow unroll factor (1 for MIMD configurations).
    #[must_use]
    pub fn unroll(&self) -> usize {
        match &self.variant {
            PreparedVariant::Dataflow(sched) => sched.unroll,
            PreparedVariant::Mimd { .. } => 1,
        }
    }

    /// What the static analyzer learned about this lowering: warnings
    /// from every pass plus the cost model ([`prepare_kernel`] runs the
    /// analyses once per plan, alongside the legality verifier).
    #[must_use]
    pub fn analysis(&self) -> &AnalysisReport {
        &self.analysis
    }

    /// Sound lower bound on `SimStats::sim_cycles()` for a run over
    /// `records` records: the dataflow bound covers
    /// `ceil(records / unroll)` block iterations; the MIMD bound is
    /// record-count independent (each rank's per-record loop lives
    /// inside its program). Proven against the whole experiment grid by
    /// `tests/cost_soundness`.
    #[must_use]
    pub fn bound_cycles(&self, records: usize) -> u64 {
        self.analysis.bound_cycles(self.iterations(records))
    }

    /// Scheduling estimate in ticks for a run over `records` records —
    /// the longest-predicted-first ordering key of the sweep engine.
    /// Unlike [`PreparedProgram::bound_cycles`] this is *not* sound
    /// (the MIMD term extrapolates per-record work).
    #[must_use]
    pub fn estimate_ticks(&self, records: usize) -> u64 {
        self.analysis.estimate_ticks(records as u64, self.iterations(records))
    }

    /// Block iterations a run over `records` records executes.
    fn iterations(&self, records: usize) -> u64 {
        match &self.variant {
            PreparedVariant::Dataflow(sched) => records.div_ceil(sched.unroll) as u64,
            PreparedVariant::Mimd { .. } => records as u64,
        }
    }
}

/// The memory layout every dataflow schedule in this driver uses.
fn dataflow_layout() -> LayoutPlan {
    LayoutPlan {
        base_in: memmap::BASE_IN,
        base_out: memmap::BASE_OUT,
        table_base: memmap::TABLE_BASE,
    }
}

/// Map a mechanism set onto the scheduler's target description.
pub(crate) fn dataflow_target(mech: MechanismSet) -> trips_sched::TargetConfig {
    trips_sched::TargetConfig {
        smc: mech.smc,
        l0_data_store: mech.l0_data_store,
        operand_revitalization: mech.operand_revitalization,
        dlp_unroll: mech.inst_revitalization,
    }
}

/// Lower `kernel` for `mech`: schedule the dataflow block (or assemble
/// and replicate the MIMD program) for the machine shape in `params`.
///
/// `records` only *caps* the dataflow unroll factor (a plan is never
/// unrolled past the records it will process); MIMD preparation ignores
/// it entirely. The result depends on `kernel`, `mech`, `records`,
/// `params.grid` and `params.timing` — notably *not* on `params.seed`,
/// which only affects the workload generated at run time. That
/// independence is what makes the sweep engine's schedule cache sound.
///
/// Every artifact is passed through the static verifier
/// ([`trips_sched::verify`]) exactly once per prepared plan: dataflow
/// blocks inside [`schedule_dataflow`], MIMD programs here via
/// [`trips_sched::verify::verify_mimd`]. Because the sweep engine caches
/// plans, the verifier's cost is paid once per distinct lowering rather
/// than once per cell.
///
/// # Errors
///
/// Propagates scheduling and verification failures ([`DlpError`]).
pub fn prepare_kernel(
    kernel: &dyn DlpKernel,
    mech: MechanismSet,
    records: usize,
    params: &ExperimentParams,
) -> Result<PreparedProgram, DlpError> {
    let watchdog = params.watchdog.unwrap_or(trips_sim::WATCHDOG_TICKS);
    let mut analysis = AnalysisReport::default();
    let (_, mut warnings) = analyze::analyze_kernel(&kernel.ir());
    analysis.warnings.append(&mut warnings);
    let prepared = if mech.local_pc {
        let prog = kernel.mimd_program(MimdTarget { tables_in_l0: mech.l0_data_store })?;
        let progs = replicate_mimd(&prog, params.grid.nodes());
        let vparams = trips_sched::verify::MimdVerifyParams {
            n_ranks: params.grid.nodes(),
            num_regs: trips_sched::verify::MIMD_NUM_REGS,
            l0_inst_capacity: params.timing.core.l0_inst_capacity,
            watchdog,
        };
        trips_sched::verify::verify_mimd(&progs, &vparams)?;
        analysis.warnings.extend(analyze::analyze_mimd_channels(&progs));
        analysis.mimd_cost = Some(analyze::MimdCost::of(&progs, &params.timing));
        let table = kernel.mimd_table_image();
        PreparedProgram { mech, variant: PreparedVariant::Mimd { progs, table }, analysis }
    } else {
        let sched = schedule_dataflow(
            &kernel.ir(),
            params.grid,
            &params.timing,
            dataflow_target(mech),
            dataflow_layout(),
            ScheduleOptions { max_unroll: Some(records), ..ScheduleOptions::default() },
        )?;
        let (cost, mut cost_warnings) = analyze::DataflowCost::of(
            &sched.block,
            params.grid,
            &params.timing,
            mech.inst_revitalization,
            mech.operand_revitalization,
        );
        analysis.warnings.append(&mut cost_warnings);
        analysis.dataflow_cost = Some(cost);
        PreparedProgram { mech, variant: PreparedVariant::Dataflow(sched), analysis }
    };
    // With zero records the estimate degenerates to the sound tick
    // bound for the full prepared record count — the right side to hold
    // against the watchdog budget.
    let mut prepared = prepared;
    let bound = prepared.analysis.estimate_ticks(0, prepared.iterations(records));
    if let Some(w) = analyze::cost::watchdog_margin(kernel.name(), bound, watchdog) {
        prepared.analysis.warnings.push(w);
    }
    Ok(prepared)
}

/// The unroll factor [`prepare_kernel`] would pick for `kernel` on `mech`
/// with an *unbounded* record count — computed without running the
/// expensive placement and routing passes. Returns 0 for MIMD
/// configurations (`local_pc`), which never unroll.
///
/// For a dataflow configuration the unroll `prepare_kernel` actually
/// chooses for `records` is `natural_unroll(..).min(records)` (both
/// sides are ≥ 1 and ≤ 512). The sweep engine folds that effective
/// unroll into each cell's store key without lowering the cell.
///
/// # Errors
///
/// Propagates IR validation / lowering probe failures ([`DlpError`]).
pub fn natural_unroll(
    kernel: &dyn DlpKernel,
    mech: MechanismSet,
    params: &ExperimentParams,
) -> Result<usize, DlpError> {
    if mech.local_pc {
        return Ok(0);
    }
    trips_sched::planned_unroll(
        &kernel.ir(),
        params.grid,
        &params.timing,
        dataflow_target(mech),
        dataflow_layout(),
        ScheduleOptions::default(),
    )
}

/// The part of a coherent mechanism set `kernel` can observe (Table 3):
/// `mech` without the L0 data store when the kernel has no lookup table,
/// and without operand revitalization when it has no scalar constant.
///
/// Those two flags reach a lowering and a run only through the kernel's
/// indexed and scalar named constants. The scheduler reads the L0 flag
/// at `IrOp::TableRead` and in the table placement it outputs, and the
/// operand flag where it wires `IrOp::Const` register reads (marking
/// them persistent). The engines read them only to reject `Lut`s and L0
/// table loads, and to skip persistent operands and register reads. A
/// dataflow kernel whose IR has no table or no `Const` node therefore
/// lowers to the same block and runs to the same statistics under `mech`
/// and under its visible set. A MIMD program is hand-written, so there
/// the L0 store is dropped only when the table image is empty *and*
/// [`DlpKernel::mimd_program`] assembles the same program with and
/// without `tables_in_l0`.
///
/// An incoherent set is returned unchanged, so it fails as it would.
/// The sweep engine keys its schedule cache on this set, which lets a
/// configuration whose extra mechanisms a kernel cannot observe share
/// the lowering and the run of the configuration it reduces to.
#[must_use]
pub fn visible_mechanisms(kernel: &dyn DlpKernel, mech: MechanismSet) -> MechanismSet {
    if !mech.is_coherent() {
        return mech;
    }
    let mut visible = mech;
    if mech.local_pc {
        if mech.l0_data_store && kernel.mimd_table_image().is_empty() {
            let with = kernel.mimd_program(MimdTarget { tables_in_l0: true });
            let without = kernel.mimd_program(MimdTarget { tables_in_l0: false });
            if matches!((with, without), (Ok(a), Ok(b)) if a == b) {
                visible.l0_data_store = false;
            }
        }
    } else {
        let ir = kernel.ir();
        if ir.tables().is_empty() {
            visible.l0_data_store = false;
        }
        if !ir.nodes().iter().any(|n| matches!(n.op, IrOp::Const(_))) {
            visible.operand_revitalization = false;
        }
    }
    visible
}

/// Cross-run cache of generated workloads, keyed on
/// `(kernel name, padded record count, seed)` — exactly the inputs of
/// [`DlpKernel::workload`] — so a sweep generates each kernel's input
/// stream and reference output once and shares it (via [`Arc`]) across
/// all the configurations of a cell group instead of regenerating it per
/// cell.
///
/// Strictly observational: the cached [`Workload`] is bit-identical to a
/// fresh generation (kernel workloads are pure functions of the key), so
/// statistics with and without the cache match exactly. The hit/miss
/// counters are deterministic too — the lock is held across generation,
/// so the counts depend only on the multiset of keys requested, never on
/// thread interleaving.
#[derive(Default)]
pub struct WorkloadCache {
    /// Linear scan, not a hash map: sweep grids touch a handful of
    /// distinct keys, and a scan avoids allocating a `String` key per
    /// lookup on the (dominant) hit path.
    entries: Mutex<Vec<(WorkloadKey, Arc<Workload>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// `(kernel name, padded record count, seed)` — the inputs of
/// [`DlpKernel::workload`].
type WorkloadKey = (String, usize, u64);

impl WorkloadCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lookups served from the cache so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to generate the workload.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The workload for `(kernel, padded_records, seed)`, generated on
    /// first request and shared thereafter.
    fn get(&self, kernel: &dyn DlpKernel, padded_records: usize, seed: u64) -> Arc<Workload> {
        let name = kernel.name();
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, w)) = entries
            .iter()
            .find(|((k, r, s), _)| k == name && *r == padded_records && *s == seed)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(w);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let w = Arc::new(kernel.workload(padded_records, seed));
        entries.push(((name.to_string(), padded_records, seed), Arc::clone(&w)));
        w
    }
}

/// Reusable per-worker state for [`run_prepared_in`]: the engines'
/// [`EngineArena`] plus an optional shared [`WorkloadCache`]. One scratch
/// per worker thread turns a sweep's steady state allocation-free.
#[derive(Default)]
pub struct RunScratch {
    arena: EngineArena,
    workloads: Option<Arc<WorkloadCache>>,
}

impl RunScratch {
    /// A fresh scratch with no workload cache (workloads are generated
    /// per run, as [`run_prepared`] always did).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh scratch whose runs share `cache` for workload generation.
    #[must_use]
    pub fn with_workload_cache(cache: Arc<WorkloadCache>) -> Self {
        RunScratch { arena: EngineArena::new(), workloads: Some(cache) }
    }
}

/// Execute a [`PreparedProgram`] over `records` records: generate the
/// workload from `params.seed`, stage memory, simulate, and verify every
/// output word against the kernel's reference implementation.
///
/// `kernel` must be the kernel `prepared` was built from (it supplies
/// the workload and reference outputs); the grid and timing in `params`
/// must match the ones used at preparation time, and `records` must not
/// exceed the cap given to [`prepare_kernel`] (the dataflow unroll never
/// exceeds that cap, so any such count pads cleanly).
///
/// # Errors
///
/// Propagates simulation failures ([`DlpError`]).
pub fn run_prepared(
    kernel: &dyn DlpKernel,
    prepared: &PreparedProgram,
    records: usize,
    params: &ExperimentParams,
) -> LaneResult {
    run_prepared_in(kernel, prepared, records, params, &mut RunScratch::new())
}

/// As [`run_prepared`], threading a reusable [`RunScratch`] through the
/// run: the engines recycle `scratch`'s arena (frames, throttle tables,
/// MIMD channels, event-queue buckets) and the workload comes from the
/// scratch's [`WorkloadCache`] when one is installed. Statistics and
/// verification are bit-identical to [`run_prepared`].
///
/// # Errors
///
/// Propagates simulation failures ([`DlpError`]).
pub fn run_prepared_in(
    kernel: &dyn DlpKernel,
    prepared: &PreparedProgram,
    records: usize,
    params: &ExperimentParams,
    scratch: &mut RunScratch,
) -> LaneResult {
    let ir = kernel.ir();
    let in_words = ir.record_in_words() as usize;
    let out_words = ir.record_out_words() as usize;
    let workloads = scratch.workloads.as_deref();
    let (mut machine, workload) =
        stage_lane(kernel, prepared, records, params, in_words, workloads)?;
    let stats = match &prepared.variant {
        PreparedVariant::Mimd { progs, .. } => {
            machine.run_mimd_in(progs, records as u64, &mut scratch.arena)?
        }
        PreparedVariant::Dataflow(sched) => {
            let iterations = (sim_records(prepared, records) / sched.unroll) as u64;
            // The lowering statically verified this block as its final
            // step (verification subsumes the engine's shape checks), so
            // the engine need not re-hash it per cell.
            scratch.arena.mark_dataflow_block_validated(
                &sched.block,
                params.grid,
                params.timing.core.rs_slots_per_node,
            );
            machine.run_dataflow_in(&sched.block, iterations, &mut scratch.arena)?
        }
    };
    Ok((stats, verify_lane(kernel, &machine, &workload, records, out_words)))
}

/// The record count the *simulation* actually sees for `records`:
/// dataflow runs pad to a whole number of unrolled iterations, MIMD
/// programs loop over the raw count (`r29`).
fn sim_records(prepared: &PreparedProgram, records: usize) -> usize {
    match &prepared.variant {
        PreparedVariant::Mimd { .. } => records,
        PreparedVariant::Dataflow(sched) => records.div_ceil(sched.unroll) * sched.unroll,
    }
}

/// Check one lane's unpadded output prefix against its reference.
fn verify_lane(
    kernel: &dyn DlpKernel,
    machine: &Machine,
    workload: &Workload,
    records: usize,
    out_words: usize,
) -> Option<usize> {
    let got = machine.memory().read_words(memmap::BASE_OUT, records * out_words);
    let expected = &workload.expected[..records * out_words];
    first_mismatch(kernel.output_kind(), &got, expected)
}

/// Build one lane's machine and stage everything a run of `prepared`
/// needs before the engine starts: the lane's watchdog and fault plan,
/// the workload (from `workloads` when a cache is installed) written to
/// memory with its SMC window staged, the lookup-table image, and the
/// constant registers. Returns the machine and the workload, whose
/// `expected` holds the reference outputs.
fn stage_lane(
    kernel: &dyn DlpKernel,
    prepared: &PreparedProgram,
    records: usize,
    params: &ExperimentParams,
    in_words: usize,
    workloads: Option<&WorkloadCache>,
) -> Result<(Machine, Arc<Workload>), DlpError> {
    // Pad the record count to a whole number of unrolled iterations.
    let padded_records = sim_records(prepared, records);
    let mut machine = Machine::new(params.grid, params.timing, prepared.mech);
    if let Some(ticks) = params.watchdog {
        machine.set_watchdog(ticks);
    }
    // Install the injector before staging so DMA faults during SMC
    // staging are part of the deterministic schedule too.
    if !params.fault.is_none() {
        machine.install_fault_plan(params.fault, params.seed);
    }
    let workload = match workloads {
        Some(cache) => cache.get(kernel, padded_records, params.seed),
        None => Arc::new(kernel.workload(padded_records, params.seed)),
    };

    machine.memory_mut().write_words(memmap::BASE_IN, &workload.input_words);
    if !workload.tex_words.is_empty() {
        machine.memory_mut().write_words(memmap::TEX_BASE, &workload.tex_words);
    }
    if machine.mechanisms().smc {
        let len = (workload.records * in_words) as u64;
        machine.stage_smc(memmap::BASE_IN..memmap::BASE_IN + len)?;
    }
    // Touch the output region so the memory footprint is allocated up
    // front rather than during timing-sensitive simulation.
    let _ = machine.memory().read(memmap::BASE_OUT);

    let (table, tables_in_l0) = match &prepared.variant {
        PreparedVariant::Mimd { table, .. } => (table, prepared.mech.l0_data_store),
        PreparedVariant::Dataflow(sched) => (&sched.table_image, sched.tables_in_l0),
    };
    if !table.is_empty() {
        if tables_in_l0 {
            machine.load_l0_table(table)?;
        } else {
            machine.memory_mut().write_words(memmap::TABLE_BASE, table);
        }
    }
    if let PreparedVariant::Dataflow(sched) = &prepared.variant {
        for (reg, v) in &sched.const_regs {
            machine.set_reg(*reg, *v);
        }
    }
    Ok((machine, workload))
}

/// One lane of a batched dispatch: the record count and experiment
/// parameters of one scalar run of a shared [`PreparedProgram`]. In the
/// sweep engine a lane is one cell attempt (same lowering and record
/// count, possibly a different seed or fault salt); in the hot-path
/// harness it is one distinct-seed run of a case.
#[derive(Clone, Copy, Debug)]
pub struct BatchLane {
    /// Records to process (excluding unroll padding).
    pub records: usize,
    /// Per-lane experiment parameters. Grid, timing, and watchdog must
    /// be uniform across a batch ([`batchable`]); seed and fault plan
    /// may vary per lane.
    pub params: ExperimentParams,
}

/// Whether `lanes` may be dispatched through
/// [`run_prepared_batch_in`]'s lockstep path: non-empty, at most
/// [`trips_sim::batch::MAX_CLASSES`] lanes, with one record count and
/// uniform grid shape, timing model, and watchdog. Seeds and fault
/// plans may differ freely — each lane is its own class inside the
/// batch.
#[must_use]
pub fn batchable(lanes: &[BatchLane]) -> bool {
    let Some(first) = lanes.first() else { return false };
    lanes.len() <= trips_sim::batch::MAX_CLASSES
        && lanes.iter().all(|l| {
            l.records == first.records
                && l.params.grid == first.params.grid
                && l.params.timing == first.params.timing
                && l.params.watchdog == first.params.watchdog
        })
}

/// As [`run_prepared_in`], for a whole batch of lanes at once: a
/// [`batchable`] batch of two or more lanes runs every lane as its own
/// class in lockstep through one shared event queue
/// ([`trips_sim::batch::run_dataflow_batch_in`] /
/// [`trips_sim::batch::run_mimd_batch_in`]), and each lane verifies its
/// outputs against its own workload. Per-lane results are bit-identical
/// to calling [`run_prepared_in`] on each lane alone — the whole point;
/// see DESIGN.md §10 — so the returned vector (same order as `lanes`)
/// can be consumed exactly as N scalar results.
///
/// A single lane, or a batch that is not [`batchable`] (lanes of mixed
/// record counts among them), runs each lane through
/// [`run_prepared_in`]. Any error while staging a lane's machine
/// also falls back to that all-scalar path, which is trivially
/// identical.
pub fn run_prepared_batch_in(
    kernel: &dyn DlpKernel,
    prepared: &PreparedProgram,
    lanes: &[BatchLane],
    scratch: &mut RunScratch,
) -> Vec<LaneResult> {
    if lanes.len() >= 2 && batchable(lanes) {
        if let Some(per_lane) = run_lockstep(kernel, prepared, lanes, scratch) {
            return per_lane;
        }
        // A lane failed setup (staging DMA, L0 capacity): take the
        // scalar path for every lane so error attribution matches the
        // scalar contract exactly.
    }
    lanes.iter().map(|l| run_prepared_in(kernel, prepared, l.records, &l.params, scratch)).collect()
}

/// The lockstep core of [`run_prepared_batch_in`]: one machine per
/// lane, each staged by the same [`stage_lane`] as [`run_prepared_in`],
/// then one batched engine dispatch over the lanes' shared record
/// count, then per-lane verification. Returns `None` if any lane's
/// setup errors (the caller falls back to scalar).
fn run_lockstep(
    kernel: &dyn DlpKernel,
    prepared: &PreparedProgram,
    lanes: &[BatchLane],
    scratch: &mut RunScratch,
) -> Option<Vec<LaneResult>> {
    let ir = kernel.ir();
    let in_words = ir.record_in_words() as usize;
    let out_words = ir.record_out_words() as usize;
    let records = lanes[0].records;

    let workloads = scratch.workloads.as_deref();
    let (mut machines, workloads): (Vec<Machine>, Vec<Arc<Workload>>) = lanes
        .iter()
        .map(|l| stage_lane(kernel, prepared, records, &l.params, in_words, workloads))
        .collect::<Result<Vec<_>, _>>()
        .ok()?
        .into_iter()
        .unzip();

    let results = match &prepared.variant {
        PreparedVariant::Mimd { progs, .. } => trips_sim::batch::run_mimd_batch_in(
            &mut machines,
            progs,
            records as u64,
            &mut scratch.arena,
        ),
        PreparedVariant::Dataflow(sched) => {
            let iterations = (sim_records(prepared, records) / sched.unroll) as u64;
            let params = &lanes[0].params;
            scratch.arena.mark_dataflow_block_validated(
                &sched.block,
                params.grid,
                params.timing.core.rs_slots_per_node,
            );
            trips_sim::batch::run_dataflow_batch_in(
                &mut machines,
                &sched.block,
                iterations,
                &mut scratch.arena,
            )
        }
    };

    Some(
        results
            .into_iter()
            .zip(machines.iter().zip(&workloads))
            .map(|(result, (machine, workload))| {
                result.map(|stats| {
                    (stats, verify_lane(kernel, machine, workload, records, out_words))
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_kernels::suite;

    fn quick(kernel_name: &str, config: MachineConfig) -> RunOutcome {
        let params = ExperimentParams::default();
        let k = suite().into_iter().find(|k| k.name() == kernel_name).expect("kernel exists");
        run_kernel(k.as_ref(), config, 24, &params).expect("run succeeds")
    }

    #[test]
    fn convert_runs_verified_on_baseline_and_s() {
        for config in [MachineConfig::Baseline, MachineConfig::S] {
            let out = quick("convert", config);
            assert!(out.verified(), "convert on {config}: mismatch at {:?}", out.mismatch);
            assert!(out.stats.cycles() > 0);
        }
    }

    #[test]
    fn fft_faster_on_s_than_baseline() {
        // Enough records to amortize the SMC staging DMA — at a handful of
        // records the setup cost rightly dominates (streams are a
        // steady-state mechanism).
        let params = ExperimentParams::default();
        let k = suite().into_iter().find(|k| k.name() == "fft").expect("kernel exists");
        let base = run_kernel(k.as_ref(), MachineConfig::Baseline, 512, &params).unwrap();
        let s = run_kernel(k.as_ref(), MachineConfig::S, 512, &params).unwrap();
        assert!(base.verified() && s.verified());
        assert!(
            s.stats.cycles() < base.stats.cycles(),
            "S {} should beat baseline {}",
            s.stats.cycles(),
            base.stats.cycles()
        );
    }

    #[test]
    fn blowfish_verified_on_mimd_with_l0() {
        let out = quick("blowfish", MachineConfig::MD);
        assert!(out.verified(), "mismatch at {:?}", out.mismatch);
        assert!(out.stats.l0_accesses > 0, "lookups must hit the L0 store");
    }

    #[test]
    fn cycles_per_record_is_positive() {
        let out = quick("lu", MachineConfig::S);
        assert!(out.cycles_per_record() > 0.0);
    }

    #[test]
    fn workload_cache_and_scratch_are_observationally_pure() {
        let params = ExperimentParams::default();
        let k = suite().into_iter().find(|k| k.name() == "convert").expect("kernel exists");
        let prepared =
            prepare_kernel(k.as_ref(), MachineConfig::S.mechanisms(), 24, &params).unwrap();
        let fresh = run_prepared(k.as_ref(), &prepared, 24, &params).unwrap();

        let cache = Arc::new(WorkloadCache::new());
        let mut scratch = RunScratch::with_workload_cache(Arc::clone(&cache));
        let first = run_prepared_in(k.as_ref(), &prepared, 24, &params, &mut scratch).unwrap();
        let second = run_prepared_in(k.as_ref(), &prepared, 24, &params, &mut scratch).unwrap();
        assert_eq!(fresh, first, "cached+arena run == plain run");
        assert_eq!(fresh, second, "warm scratch stays bit-identical");
        assert_eq!(cache.misses(), 1, "workload generated once");
        assert_eq!(cache.hits(), 1, "second run served from the cache");
    }

    /// Asserts `kernel` lowers to the same artifact (or fails the same
    /// way) under `mech` and under its visible set and, where the two
    /// differ, runs 24 records to the same result: statistics and
    /// verification, or error. Returns whether they differ.
    fn assert_visible_set_is_unobservable(kernel: &dyn DlpKernel, mech: MechanismSet) -> bool {
        let visible = visible_mechanisms(kernel, mech);
        if visible == mech {
            return false;
        }
        let params = ExperimentParams::default();
        let what = format!("{} on {mech} (visible: {visible})", kernel.name());
        let (named, reduced) = match (
            prepare_kernel(kernel, mech, 24, &params),
            prepare_kernel(kernel, visible, 24, &params),
        ) {
            (Ok(named), Ok(reduced)) => (named, reduced),
            (named, reduced) => {
                assert_eq!(named.err(), reduced.err(), "{what}: both lowerings fail alike");
                return true;
            }
        };
        match (&named.variant, &reduced.variant) {
            (PreparedVariant::Dataflow(a), PreparedVariant::Dataflow(b)) => {
                assert_eq!(a.block, b.block, "{what}: block");
                assert_eq!(a.unroll, b.unroll, "{what}: unroll");
                assert_eq!(a.const_regs, b.const_regs, "{what}: constant registers");
                assert_eq!(a.table_image, b.table_image, "{what}: table image");
                // Where an empty image goes is never read.
                assert!(a.tables_in_l0 == b.tables_in_l0 || a.table_image.is_empty(), "{what}");
            }
            (
                PreparedVariant::Mimd { progs: a, table: ta },
                PreparedVariant::Mimd { progs: b, table: tb },
            ) => {
                assert_eq!(a, b, "{what}: MIMD replicas");
                assert_eq!(ta, tb, "{what}: MIMD table image");
            }
            _ => panic!("{what}: the engine changed"),
        }
        assert_eq!(format!("{:?}", named.analysis), format!("{:?}", reduced.analysis), "{what}");
        // run_kernel_mech is exactly prepare_kernel + run_prepared.
        let ran = run_prepared(kernel, &named, 24, &params);
        assert_eq!(ran, run_prepared(kernel, &reduced, 24, &params), "{what}");
        true
    }

    #[test]
    fn visible_sets_lower_and_run_like_the_named_paper_grid_sets() {
        let mut differ = Vec::new();
        for k in suite().into_iter().filter(|k| k.in_perf_suite()) {
            for config in MachineConfig::ALL {
                if assert_visible_set_is_unobservable(k.as_ref(), config.mechanisms()) {
                    differ.push(format!("{}/{config}", k.name()));
                }
            }
        }
        // The paper-grid cells a kernel cannot tell from a sibling
        // configuration (Table 3): S-O-D on the table-free kernels, S-O
        // on the constant-free ones, M-D where the MIMD program reads
        // no table. A model change that lets one of them observe its
        // extra mechanism shows up here.
        assert_eq!(
            differ,
            [
                "convert/S-O-D", "convert/M-D", "dct/S-O-D", "highpassfilter/S-O-D",
                "highpassfilter/M-D", "fft/S-O", "fft/S-O-D", "fft/M-D", "lu/S-O",
                "lu/S-O-D", "lu/M-D", "md5/S-O-D", "vertex-simple/S-O-D", "vertex-simple/M-D",
                "fragment-simple/S-O-D", "fragment-simple/M-D", "vertex-reflection/S-O-D",
                "vertex-reflection/M-D", "fragment-reflection/S-O-D", "fragment-reflection/M-D",
            ]
        );
    }

    #[test]
    fn visible_sets_lower_and_run_like_the_whole_configuration_space() {
        let space = MechanismSet::all_coherent();
        let mut differ = 0;
        for name in ["fft", "convert", "blowfish", "vertex-skinning"] {
            let k = suite().into_iter().find(|k| k.name() == name).expect("kernel exists");
            for &mech in &space {
                differ += usize::from(assert_visible_set_is_unobservable(k.as_ref(), mech));
            }
        }
        // Of the 56 kernel × set pairs the X1 configuration-space study
        // sweeps, 16 reduce to another pair's set: 40 distinct lowerings.
        assert_eq!(differ, 16);
    }

    #[test]
    fn incoherent_sets_are_their_own_visible_set() {
        let k = suite().into_iter().find(|k| k.name() == "convert").expect("kernel exists");
        let orphan = MechanismSet { operand_revitalization: true, ..MechanismSet::default() };
        assert_eq!(visible_mechanisms(k.as_ref(), orphan), orphan, "it must still fail");
    }

    #[test]
    fn default_records_scale() {
        assert!(default_records("dct", 1) < default_records("convert", 1));
        assert_eq!(default_records("unknown-kernel", 1), 512);
        assert!(default_records("fft", 2) > default_records("fft", 1));
        assert_eq!(default_records("convert", 0), 24, "scale 0 is the smoke size");
    }
}
