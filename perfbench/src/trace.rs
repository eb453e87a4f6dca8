//! The traced pass: a serial replay of one workload's sweep through the
//! layers' public functions, with a span around every call.
//!
//! Nothing inside the program is instrumented. The pass walks the same
//! phases `Sweep::run` walks — key derivation, store lookups, one
//! lowering per distinct plan, then execution of every pending cell —
//! and calls the function each layer exports for each step. Where a
//! public call does another layer's work internally (`schedule_dataflow`
//! runs the legality verifier, `run_prepared_in` builds the IR,
//! generates the workload and checks the outputs), the pass re-executes
//! that inner work on its own as a *replay* span. A replay's duration
//! counts for its own layer and is subtracted from the call it replays,
//! and it is left out of the pass's wall, since it is work done twice.
//! Likewise `prepare_kernel` runs as a *vehicle* span: it is the only
//! way to obtain a runnable `PreparedProgram`, its work is measured by
//! the decomposed lowering calls beside it, and it counts nowhere.
//!
//! A layer's self time is its span's duration minus its children's
//! durations and minus the replays attributed to it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dlp_common::{DlpError, GridShape, SimStats, TimingParams};
use dlp_core::store::ResultStore;
use dlp_core::sweep::derive_seed;
use dlp_core::{
    natural_unroll, prepare_kernel, run_prepared_batch_in, run_prepared_in, BatchLane, CellOutcome,
    ExperimentParams, PreparedProgram, RunScratch, WorkloadCache,
};
use dlp_kernels::{first_mismatch, memmap, suite, DlpKernel, MimdTarget, Workload};
use trips_sched::verify::analyze::{analyze_kernel, analyze_mimd_channels, DataflowCost, MimdCost};
use trips_sched::verify::{self, DataflowVerifyParams, MimdVerifyParams};
use trips_sched::{replicate_mimd, schedule_dataflow, LayoutPlan, ScheduleOptions, TargetConfig};
use trips_sim::MechanismSet;

use crate::workload::{build_sweep, Cell};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// What a span's time stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The whole pass.
    Root,
    /// A call the sweep makes.
    Call,
    /// Work a call did internally, executed again on its own to measure
    /// it; attributed to that call.
    Replay,
    /// A call made only to obtain an object the public API offers no
    /// other way; counted nowhere.
    Vehicle,
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `sched.schedule`.
    pub name: &'static str,
    /// What the span's time stands for.
    pub kind: Kind,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<SpanId>,
    /// For a replay: the call whose internal work it re-executes.
    pub attributes_to: Option<SpanId>,
    /// The sweep cell (push index) the span worked for, if one.
    pub cell: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Open a span under the innermost open one.
    pub fn begin(
        &mut self,
        name: &'static str,
        kind: Kind,
        cell: Option<usize>,
        attributes_to: Option<SpanId>,
    ) -> SpanId {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            kind,
            start_ns,
            end_ns: start_ns,
            parent,
            attributes_to,
            cell,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span of `kind`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        kind: Kind,
        cell: Option<usize>,
        attributes_to: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let id = self.begin(name, kind, cell, attributes_to);
        let out = black_box(f());
        self.end(id);
        (id, out)
    }

    /// Run `f` as a call the sweep makes.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        self.span(name, Kind::Call, cell, None, f)
    }

    /// Run `f` as a replay of work that span `of` did internally.
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        of: SpanId,
        cell: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        self.span(name, Kind::Replay, cell, Some(of), f)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds (a replay that ran
    /// slower than the work it replays can leave its call negative).
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            for target in [s.parent, s.attributes_to].into_iter().flatten() {
                own[target] -= s.dur_ns() as i64;
            }
        }
        own
    }

    /// Self time per span name, in milliseconds, over calls and
    /// replays.
    pub fn layer_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut layers = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            if matches!(s.kind, Kind::Call | Kind::Replay) {
                *layers.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
            }
        }
        layers
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Root spans' duration without the replays and vehicles inside
    /// them: the time the pass would take doing each piece of work once.
    pub fn traced_wall_ms(&self) -> f64 {
        let mut ns: i64 = 0;
        for s in &self.spans {
            match s.kind {
                Kind::Root => ns += s.dur_ns() as i64,
                Kind::Replay | Kind::Vehicle => ns -= s.dur_ns() as i64,
                Kind::Call => {}
            }
        }
        ns as f64 / 1e6
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"kind\":\"{:?}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"attributes_to\":{},\"cell\":{}}}",
                s.name,
                s.kind,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.attributes_to),
                opt(s.cell),
            )?;
        }
        out.flush()
    }
}

/// What the traced pass produced besides its spans.
pub struct Traced {
    /// The spans.
    pub tracer: Tracer,
    /// Per cell: the statistics and first mismatching word, or `None`
    /// when the cell failed.
    pub results: Vec<Option<(SimStats, Option<usize>)>>,
    /// Simulated cycles of the cells the pass executed (not served from
    /// the store).
    pub executed_cycles: u64,
    /// Bytes of store entries the pass wrote.
    pub store_bytes_written: u64,
}

/// The memory layout every dataflow schedule of the `dlp_core` runner
/// uses (mirrors `dlp_core`'s private one).
fn dataflow_layout() -> LayoutPlan {
    LayoutPlan {
        base_in: memmap::BASE_IN,
        base_out: memmap::BASE_OUT,
        table_base: memmap::TABLE_BASE,
    }
}

/// The scheduler target of a mechanism set (mirrors `dlp_core`).
fn dataflow_target(mech: MechanismSet) -> TargetConfig {
    TargetConfig {
        smc: mech.smc,
        l0_data_store: mech.l0_data_store,
        operand_revitalization: mech.operand_revitalization,
        dlp_unroll: mech.inst_revitalization,
    }
}

/// Run `f`, turning a panic into an error the way the sweep does.
fn guarded<T>(f: impl FnOnce() -> Result<T, DlpError>) -> Result<T, DlpError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err(panic_error()))
}

fn panic_error() -> DlpError {
    DlpError::Internal {
        detail: "panicked".into(),
    }
}

/// One distinct lowering: kernel index, mechanism set, unroll cap.
type PlanKey = (usize, MechanismSet, usize);

/// Workloads generated so far, keyed like the sweep's workload cache:
/// kernel name, padded record count, seed.
type Workloads = Vec<((&'static str, usize, u64), Arc<Workload>)>;

/// Replay `cells` serially through the layers' public functions,
/// against `store` when one is given (it is read and written exactly as
/// the sweep would).
pub fn traced_pass(cells: &[Cell], store: Option<Arc<ResultStore>>) -> Traced {
    let kernels: Vec<Box<dyn DlpKernel>> = suite();
    let kernel_of: Vec<usize> = cells
        .iter()
        .map(|c| {
            kernels
                .iter()
                .position(|k| k.name() == c.kernel)
                .expect("cells name suite kernels")
        })
        .collect();
    let keyed_sweep = build_sweep(cells, 1, store.clone());
    let params = ExperimentParams::default();
    let (grid, timing) = (params.grid, params.timing);

    let mut t = Tracer::default();
    let root = t.begin("sweep.run", Kind::Root, None, None);

    // ---- Key derivation (only with a store, as in `Sweep::run`).
    let (keys_id, keys) = t.call("sweep.keys", None, || {
        store.as_ref().map(|_| keyed_sweep.cell_keys())
    });
    if keys.is_some() {
        replay_cell_keys(&mut t, keys_id, cells, &kernel_of, &kernels);
    }

    // ---- Store lookups.
    let mut resolved: Vec<Option<CellOutcome>> = vec![None; cells.len()];
    let get_phase = t.begin("store.get", Kind::Call, None, None);
    if let (Some(store), Some(keys)) = (&store, &keys) {
        for (i, key) in keys.iter().enumerate() {
            resolved[i] = t.call("store.get", Some(i), || store.get(key)).1;
        }
    }
    t.end(get_phase);

    // ---- One lowering per distinct plan of the pending cells.
    let plan_of: Vec<PlanKey> = cells
        .iter()
        .zip(&kernel_of)
        .map(|(c, &k)| {
            let mech = c.config.mechanisms();
            (k, mech, if mech.local_pc { 0 } else { c.records })
        })
        .collect();
    let mut plans: Vec<(PlanKey, Result<PreparedProgram, DlpError>)> = Vec::new();
    for (i, key) in plan_of.iter().enumerate() {
        if resolved[i].is_some() || plans.iter().any(|(k, _)| k == key) {
            continue;
        }
        let (k, mech, cap) = *key;
        let kernel = kernels[k].as_ref();
        let (_, prepared) = t.span("sched.prepare_kernel", Kind::Vehicle, Some(i), None, || {
            guarded(|| prepare_kernel(kernel, mech, cap, &params))
        });
        lower_decomposed(&mut t, i, kernel, mech, cap, grid, &timing);
        plans.push((*key, prepared));
    }

    // ---- Execution: lane-batched groups, then single cells.
    let mut scratch = RunScratch::with_workload_cache(Arc::new(WorkloadCache::new()));
    let mut workloads: Workloads = Vec::new();
    let mut executed_cycles = 0u64;
    let mut store_bytes_written = 0u64;
    let mut batches: Vec<Vec<usize>> = Vec::new();
    let mut singles: Vec<usize> = Vec::new();
    for (key, _) in &plans {
        let pending: Vec<usize> = (0..cells.len())
            .filter(|&i| resolved[i].is_none() && plan_of[i] == *key)
            .collect();
        for chunk in pending.chunks(trips_sim::batch::MAX_CLASSES) {
            if chunk.len() >= 2 {
                batches.push(chunk.to_vec());
            } else {
                singles.extend_from_slice(chunk);
            }
        }
    }
    let plan = |i: usize| {
        &plans
            .iter()
            .find(|(k, _)| *k == plan_of[i])
            .expect("every pending cell's plan is prepared")
            .1
    };
    let mut record = |t: &mut Tracer, i: usize, outcome: CellOutcome| {
        if let CellOutcome::Ran { stats, .. } = &outcome {
            executed_cycles += stats.cycles();
        }
        let (_, written) = t.call("store.put", Some(i), || match (&store, &keys) {
            (Some(store), Some(keys)) => match store.put(&keys[i], &outcome) {
                Ok(true) => std::fs::metadata(store.path_of(&keys[i])).map_or(0, |m| m.len()),
                _ => 0,
            },
            _ => 0,
        });
        store_bytes_written += written;
        resolved[i] = Some(outcome);
    };

    let lockstep_phase = t.begin("sim.lockstep", Kind::Call, None, None);
    for members in &batches {
        let first = members[0];
        let kernel = kernels[kernel_of[first]].as_ref();
        let outcomes: Vec<CellOutcome> = match plan(first) {
            Ok(prepared) => {
                let lanes: Vec<BatchLane> = members
                    .iter()
                    .map(|&i| BatchLane {
                        records: cells[i].records,
                        params: cell_params(&cells[i]),
                    })
                    .collect();
                let (id, ran) = t.call("sim.lockstep", Some(first), || {
                    guarded(|| {
                        Ok(run_prepared_batch_in(
                            kernel,
                            prepared,
                            &lanes,
                            &mut scratch,
                        ))
                    })
                });
                replay_run_inputs(&mut t, id, first, kernel, prepared, &lanes, &mut workloads);
                match ran {
                    Ok(per_lane) => per_lane.into_iter().map(outcome_of).collect(),
                    Err(e) => members.iter().map(|_| failed(&e)).collect(),
                }
            }
            Err(e) => members.iter().map(|_| failed(e)).collect(),
        };
        for (&i, outcome) in members.iter().zip(outcomes) {
            record(&mut t, i, outcome);
        }
    }
    t.end(lockstep_phase);
    for &i in &singles {
        let kernel = kernels[kernel_of[i]].as_ref();
        let outcome = match plan(i) {
            Ok(prepared) => {
                let lane = BatchLane {
                    records: cells[i].records,
                    params: cell_params(&cells[i]),
                };
                let (id, ran) = t.call("sim.scalar", Some(i), || {
                    guarded(|| {
                        run_prepared_in(kernel, prepared, lane.records, &lane.params, &mut scratch)
                    })
                });
                replay_run_inputs(&mut t, id, i, kernel, prepared, &[lane], &mut workloads);
                outcome_of(ran)
            }
            Err(e) => failed(e),
        };
        record(&mut t, i, outcome);
    }
    t.end(root);

    let results = resolved
        .iter()
        .map(|outcome| match outcome {
            Some(CellOutcome::Ran { stats, mismatch }) => Some((*stats, *mismatch)),
            _ => None,
        })
        .collect();
    Traced {
        tracer: t,
        results,
        executed_cycles,
        store_bytes_written,
    }
}

/// A cell's run parameters: the workload seed is derived from the
/// cell's base seed and kernel name, exactly as the sweep derives it.
fn cell_params(cell: &Cell) -> ExperimentParams {
    let params = cell.params();
    ExperimentParams {
        seed: derive_seed(params.seed, cell.kernel),
        ..params
    }
}

fn outcome_of(ran: Result<(SimStats, Option<usize>), DlpError>) -> CellOutcome {
    match ran {
        Ok((stats, mismatch)) => CellOutcome::Ran { stats, mismatch },
        Err(e) => failed(&e),
    }
}

fn failed(e: &DlpError) -> CellOutcome {
    CellOutcome::Failed {
        error: e.to_string(),
        kind: e.kind().to_string(),
        attempts: 1,
        timed_out: false,
    }
}

/// Replays of what `Sweep::cell_keys` does internally: one unroll probe
/// per dataflow kernel/configuration group, and per cell the lowering
/// fingerprint's inputs (the IR, or the MIMD program and table image).
fn replay_cell_keys(
    t: &mut Tracer,
    keys_id: SpanId,
    cells: &[Cell],
    kernel_of: &[usize],
    kernels: &[Box<dyn DlpKernel>],
) {
    let params = ExperimentParams::default();
    let mut probed: Vec<(usize, MechanismSet)> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let kernel = kernels[kernel_of[i]].as_ref();
        let mech = cell.config.mechanisms();
        if mech.local_pc {
            let target = MimdTarget {
                tables_in_l0: mech.l0_data_store,
            };
            let _ = t.replay("sched.mimd", keys_id, Some(i), || {
                kernel.mimd_program(target)
            });
            t.replay("kernels.ir", keys_id, Some(i), || kernel.mimd_table_image());
            continue;
        }
        if !probed.contains(&(kernel_of[i], mech)) {
            probed.push((kernel_of[i], mech));
            let (probe, _) = t.replay("sched.unroll_probe", keys_id, Some(i), || {
                guarded(|| natural_unroll(kernel, mech, &params))
            });
            t.replay("kernels.ir", probe, Some(i), || kernel.ir());
        }
        t.replay("kernels.ir", keys_id, Some(i), || kernel.ir());
    }
}

/// `prepare_kernel`'s steps, each through its layer's public function.
fn lower_decomposed(
    t: &mut Tracer,
    i: usize,
    kernel: &dyn DlpKernel,
    mech: MechanismSet,
    cap: usize,
    grid: GridShape,
    timing: &TimingParams,
) {
    let cell = Some(i);
    let (_, ir) = t.call("kernels.ir", cell, || kernel.ir());
    t.call("verify.analyze", cell, || analyze_kernel(&ir));
    if mech.local_pc {
        let (_, progs) = t.call("sched.mimd", cell, || {
            kernel
                .mimd_program(MimdTarget {
                    tables_in_l0: mech.l0_data_store,
                })
                .map(|prog| replicate_mimd(&prog, grid.nodes()))
        });
        let Ok(progs) = progs else { return };
        let vparams = MimdVerifyParams {
            n_ranks: grid.nodes(),
            num_regs: verify::MIMD_NUM_REGS,
            l0_inst_capacity: timing.core.l0_inst_capacity,
            watchdog: trips_sim::WATCHDOG_TICKS,
        };
        let _ = t.call("verify.legality", cell, || {
            verify::verify_mimd(&progs, &vparams)
        });
        t.call("verify.analyze", cell, || {
            (analyze_mimd_channels(&progs), MimdCost::of(&progs, timing))
        });
        t.call("kernels.ir", cell, || kernel.mimd_table_image());
    } else {
        let (_, ir) = t.call("kernels.ir", cell, || kernel.ir());
        let target = dataflow_target(mech);
        let opts = ScheduleOptions {
            max_unroll: Some(cap),
            ..ScheduleOptions::default()
        };
        let (id, sched) = t.call("sched.schedule", cell, || {
            guarded(|| schedule_dataflow(&ir, grid, timing, target, dataflow_layout(), opts))
        });
        // schedule_dataflow opens with the unroll probe and closes with
        // the legality verifier.
        let _ = t.replay("sched.unroll_probe", id, cell, || {
            trips_sched::planned_unroll(&ir, grid, timing, target, dataflow_layout(), opts)
        });
        let Ok(sched) = sched else { return };
        let vparams = DataflowVerifyParams {
            grid,
            slots_per_node: timing.core.rs_slots_per_node,
            num_regs: verify::DEFAULT_NUM_REGS,
            lmw_max_words: timing.mem.lmw_max_words.max(1) as usize,
            l0_data_entries: timing.mem.l0_data_bytes,
            unroll: sched.unroll,
            unroll_cap: 512,
            operand_revitalization: mech.operand_revitalization,
            tables_in_l0: sched.tables_in_l0,
            table_len: sched.table_image.len(),
        };
        let _ = t.replay("verify.legality", id, cell, || {
            verify::verify_dataflow(&sched.block, &vparams)
        });
        t.call("verify.analyze", cell, || {
            DataflowCost::of(
                &sched.block,
                grid,
                timing,
                mech.inst_revitalization,
                mech.operand_revitalization,
            )
        });
    }
}

/// Replays of what one run call did internally besides simulating: the
/// IR it builds, each workload its cache had not generated yet, and
/// each lane's output check (the reference compared with itself, which
/// scans every word exactly as a passing check does).
fn replay_run_inputs(
    t: &mut Tracer,
    call: SpanId,
    cell: usize,
    kernel: &dyn DlpKernel,
    prepared: &PreparedProgram,
    lanes: &[BatchLane],
    workloads: &mut Workloads,
) {
    let cell = Some(cell);
    let (_, ir) = t.replay("kernels.ir", call, cell, || kernel.ir());
    let out_words = usize::from(ir.record_out_words());
    let unroll = prepared.unroll().max(1);
    for lane in lanes {
        let padded = lane.records.div_ceil(unroll) * unroll;
        let key = (kernel.name(), padded, lane.params.seed);
        let workload = match workloads.iter().find(|(k, _)| *k == key) {
            Some((_, w)) => Arc::clone(w),
            None => {
                let (_, w) = t.replay("kernels.workload", call, cell, || {
                    Arc::new(kernel.workload(padded, lane.params.seed))
                });
                workloads.push((key, Arc::clone(&w)));
                w
            }
        };
        let expected = &workload.expected[..lane.records * out_words];
        t.replay("runner.verify", call, cell, || {
            // The check reads the outputs out of memory into a fresh
            // vector first.
            let got = expected.to_vec();
            first_mismatch(kernel.output_kind(), &got, expected)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use dlp_core::MachineConfig;

    fn cell(kernel: &'static str, config: MachineConfig, seed: u64) -> Cell {
        Cell {
            kernel,
            config,
            records: 24,
            seed,
        }
    }

    #[test]
    fn the_traced_pass_emits_every_layer() {
        // A store, a lane-batched pair, a scalar dataflow cell and a
        // MIMD cell: every layer the per-layer metrics name.
        let cells = vec![
            cell("convert", MachineConfig::Baseline, 1),
            cell("convert", MachineConfig::S, 1),
            cell("convert", MachineConfig::S, 2),
            cell("convert", MachineConfig::M, 1),
        ];
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-traced-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let traced = traced_pass(&cells, Some(store));
        std::fs::remove_dir_all(&dir).unwrap();

        let names: Vec<&str> = traced.tracer.spans().iter().map(|s| s.name).collect();
        for metric in PER_LAYER {
            let Some(layer) = metric.name.strip_suffix("_ms") else {
                continue;
            };
            // Set-up is timed apart from the pass; `other` is derived.
            if matches!(layer, "kernels.init" | "sweep.other") {
                continue;
            }
            assert!(names.contains(&layer), "no {layer} span");
        }
        assert!(traced.results.iter().all(|r| matches!(r, Some((_, None)))));
        assert!(traced.store_bytes_written > 0);
        assert!(traced.executed_cycles > 0);
    }

    #[test]
    fn self_times_add_up_to_the_work_done_once() {
        let mut t = Tracer::default();
        let root = t.begin("sweep.run", Kind::Root, None, None);
        let (call, ()) = t.call("sim.scalar", Some(0), || std::thread::sleep(ms(4)));
        let (probe, ()) = t.replay("kernels.workload", call, Some(0), || {
            std::thread::sleep(ms(2))
        });
        t.replay("kernels.ir", probe, Some(0), || std::thread::sleep(ms(1)));
        t.end(root);
        let own = t.self_ns();
        let spans = t.spans();
        let layers: i64 = own
            .iter()
            .zip(spans)
            .filter(|(_, s)| s.kind != Kind::Root)
            .map(|(o, _)| o)
            .sum();
        // The call's duration, with the replays carved out of it.
        assert_eq!(layers, spans[call].dur_ns() as i64);
        assert!(own[call] < spans[call].dur_ns() as i64);
        let replays = (spans[probe].dur_ns() + spans[probe + 1].dur_ns()) as f64 / 1e6;
        let wall = t.traced_wall_ms();
        assert!((wall - (spans[root].dur_ns() as f64 / 1e6 - replays)).abs() < 1e-9);
    }

    fn ms(n: u64) -> std::time::Duration {
        std::time::Duration::from_millis(n)
    }
}
