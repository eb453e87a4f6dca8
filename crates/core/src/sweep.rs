//! The parallel experiment sweep engine.
//!
//! Every table and figure in the paper is some slice of the same grid:
//! *kernel × machine configuration (× parameter knob)*. This module runs
//! that grid as one batch instead of one nested loop per binary:
//!
//! * **Work stealing** — scoped worker threads claim cells in dispatch
//!   order from one shared atomic cursor, so a slow cell (dct on the
//!   baseline) never serializes the rest of the sweep behind it.
//! * **Schedule caching** — lowering a kernel (placement, routing,
//!   unrolling, or MIMD replication) depends only on the kernel, the
//!   mechanisms it can observe ([`crate::visible_mechanisms`]: a kernel
//!   without lookup tables cannot observe the L0 data store, one without
//!   scalar constants cannot observe operand revitalization), the
//!   grid/timing model, and the record count (which caps the dataflow
//!   unroll). The engine reduces each cell's mechanism set to its
//!   visible set, deduplicates, and prepares each distinct
//!   [`PreparedProgram`] exactly once, sharing it across all cells
//!   that need it ([`SweepReport::plans_prepared`] vs
//!   [`SweepReport::plan_reuses`] reports the savings). The paper grid
//!   prepares 58 lowerings for its 78 cells: 20 cells (S-O-D on the ten
//!   table-free kernels, S-O on fft and lu, M-D on eight kernels) add
//!   only mechanisms their kernel cannot observe.
//! * **Run sharing** — pending cells with the same plan (which fixes
//!   the record count), derived seed, fault plan and watchdog would
//!   simulate the same run.
//!   The first in push order runs; each other one takes its outcome and
//!   attempt count (with no wall time) as soon as it lands, and is
//!   persisted under its own key. Such a cell counts in neither
//!   [`SweepReport::cells_executed`] nor [`SweepReport::store_hits`].
//! * **Graceful degradation** — a failing cell (panic, watchdog,
//!   unrecoverable injected fault) is captured as a structured
//!   [`CellOutcome::Failed`] with the [`DlpError::kind`] taxonomy and
//!   attempt count; it never aborts the batch or poisons sibling cells.
//!   A [`SweepPolicy`] can grant failed cells bounded retries, each
//!   with an independently re-salted fault schedule.
//! * **Deterministic seeding** — each cell's workload seed is derived
//!   from [`ExperimentParams::seed`] and the kernel's name alone, so
//!   every configuration of a kernel sees the same records (speedups
//!   stay comparable) and the results are bit-identical no matter how
//!   many workers run the sweep or how the queue interleaves
//!   (`parallel == serial`, enforced by the `sweep_determinism` test).
//! * **Persistence (opt-in)** — a [`crate::store::ResultStore`] serves
//!   previously-computed cells by content address so a warm re-run
//!   executes nothing, a [`crate::store::ManifestWriter`] checkpoints
//!   each completed cell so an interrupted sweep can resume executing
//!   only the missing ones, and a [`crate::store::DeadLetterQueue`]
//!   captures retry-exhausted cells as replayable records. All of it is
//!   observationally pure: the canonical report
//!   ([`SweepReport::canonical`]) of a warm-store run is bit-identical
//!   to a cold one, at any worker count (the `store_sweep` test).
//!
//! The output is a serializable [`SweepReport`] — the artifact behind
//! `BENCH_sweep.json` — with per-cell statistics, verification results,
//! wall-clock, and the harmonic-mean aggregation Figure 5 and the
//! sweep summary share. [`Sweep::push_paper_grid`] builds the paper's
//! kernel × configuration grid; Figure 5, Table 4 and Table 6 are
//! projections of its range of the report ([`SweepReport::view`],
//! [`crate::Figure5::from_report`], [`crate::specialized::table6`]).
//! Further studies push their cells into the same sweep. Kernels are
//! registered once per name, so a study cell equal to a grid cell
//! shares its plan and run.
//!
//! # Example
//!
//! ```
//! use dlp_core::sweep::Sweep;
//! use dlp_core::{ExperimentParams, MachineConfig};
//!
//! let params = ExperimentParams::default();
//! let mut sweep = Sweep::new();
//! let convert = sweep
//!     .add_kernel_by_name("convert")
//!     .expect("convert is in the suite");
//! for config in [MachineConfig::Baseline, MachineConfig::S] {
//!     sweep.push_config(convert, config, 24, &params);
//! }
//! let report = sweep.run();
//! report.ensure_verified().expect("both cells verify");
//! // Smoke-scale workloads don't preserve performance orderings (setup
//! // DMA dominates at 24 records), so assert plumbing, not shape.
//! let speedup = report.speedup("convert", "S", "baseline").unwrap();
//! assert!(speedup.is_finite() && speedup > 0.0);
//! ```

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dlp_common::json::{FromJson, ToJson};
use dlp_common::{harmonic_mean, DlpError, SimStats};
use dlp_kernels::{suite, DlpKernel};
use trips_sim::MechanismSet;

use crate::runner::{
    default_records, natural_unroll, prepare_kernel, run_prepared_batch_in, run_prepared_in,
    visible_mechanisms, BatchLane, LaneResult, PreparedProgram, RunScratch, WorkloadCache,
};
use crate::store::{
    self, cacheable, lowering_fingerprint, DeadLetterQueue, Digest, DlqRecord, ManifestEntry,
    ManifestWriter, ResultStore, StoreKey, SweepManifest, DLQ_VERSION,
};
use crate::{ExperimentParams, MachineConfig};

/// Handle to a kernel registered with a [`Sweep`].
pub type KernelId = usize;

/// One cell of the experiment grid: a kernel, a mechanism set, a record
/// count, and the full experiment parameters it runs under.
///
/// Carrying complete [`ExperimentParams`] per cell is what lets one
/// sweep mix heterogeneous experiments — the ablation knobs vary
/// `params.timing`, the scaling study varies `params.grid` — while the
/// schedule cache still keys on exactly the inputs that matter.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Which registered kernel to run.
    pub kernel: KernelId,
    /// The named machine configuration, when the cell corresponds to
    /// one (`None` for raw mechanism-set cells, e.g. the §5.3
    /// configuration-space sweep).
    pub config: Option<MachineConfig>,
    /// The mechanism set to simulate.
    pub mech: MechanismSet,
    /// Records to process (the verified output length).
    pub records: usize,
    /// Grid, timing, and base seed for this cell.
    pub params: ExperimentParams,
    /// Free-form experiment tag carried into the report (e.g.
    /// `"figure5"` or `"A1 delay=20"`).
    pub label: String,
}

impl CellSpec {
    /// The configuration display name this cell reports (and keys)
    /// under: the [`MachineConfig`] name, or the mechanism-set
    /// rendering for raw cells.
    #[must_use]
    pub fn config_name(&self) -> String {
        self.config.map_or_else(|| self.mech.to_string(), |c| c.to_string())
    }
}

/// A batch of experiment cells, run in parallel with schedule caching.
///
/// Build one with [`Sweep::new`], register kernels, push cells, then
/// call [`Sweep::run`].
pub struct Sweep {
    kernels: Vec<Box<dyn DlpKernel>>,
    cells: Vec<CellSpec>,
    threads: usize,
    policy: SweepPolicy,
    result_store: Option<Arc<ResultStore>>,
    manifest: Option<Arc<ManifestWriter>>,
    resume: Option<SweepManifest>,
    dlq: Option<Arc<DeadLetterQueue>>,
}

/// Degradation policy for failing cells: how hard a sweep tries before
/// accepting a [`CellOutcome::Failed`].
///
/// The default (`max_attempts: 1`) runs each cell once. Wall-clock
/// never enters the decision, so every policy keeps sweeps
/// bit-deterministic.
#[derive(Clone, Copy, Debug, PartialEq, ToJson)]
pub struct SweepPolicy {
    /// Execution attempts granted per cell (clamped to ≥ 1). Each retry
    /// re-salts the cell's [`dlp_common::FaultPlan`], so a cell that
    /// drew an unrecoverable fault schedule gets an independent — still
    /// fully deterministic — draw, while deterministic failures
    /// (malformed programs, genuine deadlocks) fail every attempt and
    /// report the final error with the attempt count.
    pub max_attempts: u32,
}

impl Default for SweepPolicy {
    fn default() -> Self {
        SweepPolicy { max_attempts: 1 }
    }
}

impl SweepPolicy {
    /// Grants each cell up to `n` execution attempts.
    #[must_use]
    pub fn with_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }
}

impl Default for Sweep {
    fn default() -> Self {
        Self::new()
    }
}

/// The worker count [`Sweep::new`] picks for a host with `cores` CPUs:
/// `cores` clamped to 1..=8 — one worker per core (a second thread on a
/// single-core host only adds contention, and a reported 0 still gets
/// one), at most eight because the cells are simulation-bound and
/// oversubscription only adds scheduling noise.
#[must_use]
pub fn default_worker_count(cores: usize) -> usize {
    cores.clamp(1, 8)
}

impl Sweep {
    /// An empty sweep sized for the host by [`default_worker_count`]
    /// applied to `available_parallelism`.
    #[must_use]
    pub fn new() -> Self {
        let cores =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::with_threads(default_worker_count(cores))
    }

    /// An empty sweep with an explicit worker count (clamped to ≥ 1).
    /// One worker degenerates to a serial sweep — by design
    /// bit-identical to any parallel run.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Sweep {
            kernels: Vec::new(),
            cells: Vec::new(),
            threads: threads.max(1),
            policy: SweepPolicy::default(),
            result_store: None,
            manifest: None,
            resume: None,
            dlq: None,
        }
    }

    /// The worker count [`Sweep::run`] will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Installs a degradation policy for [`Sweep::run`].
    pub fn set_policy(&mut self, policy: SweepPolicy) {
        self.policy = policy;
    }

    /// The degradation policy [`Sweep::run`] will apply.
    #[must_use]
    pub fn policy(&self) -> SweepPolicy {
        self.policy
    }

    /// Attaches a content-addressed result store: [`Sweep::run`] serves
    /// cells whose [`StoreKey`] is already present without executing
    /// them, and persists newly-computed cacheable outcomes.
    /// Observationally pure — [`SweepReport::canonical`] is
    /// bit-identical with a cold store, a warm store, or none.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use std::sync::Arc;
    /// use dlp_core::store::ResultStore;
    /// use dlp_core::sweep::Sweep;
    ///
    /// let mut sweep = Sweep::new();
    /// sweep.set_store(Arc::new(ResultStore::open("dlp-store")?));
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn set_store(&mut self, store: Arc<ResultStore>) {
        self.result_store = Some(store);
    }

    /// The attached result store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<ResultStore>> {
        self.result_store.as_ref()
    }

    /// Attaches a checkpoint writer: every completed cell (executed,
    /// store-served, or sharing an identical cell's run) is appended as
    /// one flushed JSONL line, so a killed sweep loses only its
    /// in-flight cells.
    pub fn set_manifest(&mut self, writer: ManifestWriter) {
        self.manifest = Some(Arc::new(writer));
    }

    /// Resumes from a loaded checkpoint: cells the manifest records are
    /// served from it without executing. The caller is responsible for
    /// validating [`SweepManifest::grid_digest`] against
    /// [`Sweep::grid_digest`] first (the `sweep` bin refuses a
    /// mismatch); as a last defense a manifest whose cell count differs
    /// from this grid is ignored wholesale.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use std::path::Path;
    /// use dlp_core::store::{ManifestWriter, SweepManifest};
    /// use dlp_core::sweep::Sweep;
    ///
    /// # fn grid() -> Sweep { Sweep::new() }
    /// let mut sweep = grid(); // same grid the interrupted run pushed
    /// let path = Path::new("BENCH_sweep.manifest.jsonl");
    /// let manifest = SweepManifest::load(path)?;
    /// assert_eq!(manifest.grid_digest, sweep.grid_digest(), "same grid");
    /// sweep.set_resume(manifest);
    /// sweep.set_manifest(ManifestWriter::append_to(path)?);
    /// let report = sweep.run(); // executes only the missing cells
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn set_resume(&mut self, manifest: SweepManifest) {
        self.resume = Some(manifest);
    }

    /// Attaches a dead-letter queue: cells that exhaust their retries
    /// with a non-[`cacheable`] failure (watchdog, unrecoverable fault,
    /// internal error) are appended as replayable
    /// [`DlqRecord`]s.
    pub fn set_dlq(&mut self, dlq: Arc<DeadLetterQueue>) {
        self.dlq = Some(dlq);
    }

    /// Every cell's content address, in push order. This is the store's
    /// key schema made visible: bins use it to create manifests
    /// ([`ManifestWriter::create`]) and validate resumes
    /// ([`Sweep::grid_digest`]).
    #[must_use]
    pub fn cell_keys(&self) -> Vec<StoreKey> {
        self.keys_for(&self.visible_mechs())
    }

    /// [`Sweep::cell_keys`], given each cell's visible mechanism set.
    fn keys_for(&self, visible: &[MechanismSet]) -> Vec<StoreKey> {
        // The visible set lowers with the same unroll as the named one,
        // and the key keeps the named set, so sharing never moves a key.
        self.cells
            .iter()
            .zip(self.effective_unrolls(visible))
            .map(|(cell, unroll)| {
                let kernel = self.kernels[cell.kernel].as_ref();
                let lowering = lowering_fingerprint(
                    kernel,
                    cell.mech,
                    cell.params.grid,
                    &cell.params.timing,
                    unroll,
                );
                StoreKey::new(
                    kernel.name(),
                    &cell.config_name(),
                    cell.records,
                    derive_seed(cell.params.seed, kernel.name()),
                    &cell.params.fault,
                    cell.params.watchdog,
                    self.policy.max_attempts.max(1),
                    lowering,
                )
            })
            .collect()
    }

    /// The digests of [`Sweep::cell_keys`], in push order — what
    /// [`ManifestWriter::create`] pins a checkpoint to.
    #[must_use]
    pub fn cell_digests(&self) -> Vec<Digest> {
        self.cell_keys().into_iter().map(|k| k.digest).collect()
    }

    /// The grid-identity digest a manifest of this sweep carries.
    #[must_use]
    pub fn grid_digest(&self) -> Digest {
        store::grid_digest(&self.cell_digests())
    }

    /// Registers a kernel and returns its handle.
    pub fn add_kernel(&mut self, kernel: Box<dyn DlpKernel>) -> KernelId {
        self.kernels.push(kernel);
        self.kernels.len() - 1
    }

    /// Registers the named kernel from the benchmark suite. A name
    /// already registered returns its existing handle, so cells pushed
    /// by separate studies of one sweep share plans and runs.
    pub fn add_kernel_by_name(&mut self, name: &str) -> Option<KernelId> {
        self.kernel_id(name)
            .or_else(|| suite().into_iter().find(|k| k.name() == name).map(|k| self.add_kernel(k)))
    }

    /// Registers every performance-suite kernel, returning handles in
    /// suite order; as with [`Sweep::add_kernel_by_name`], a kernel
    /// already registered keeps its handle.
    pub fn add_perf_suite(&mut self) -> Vec<KernelId> {
        suite()
            .into_iter()
            .filter(|k| k.in_perf_suite())
            .map(|k| self.kernel_id(k.name()).unwrap_or_else(|| self.add_kernel(k)))
            .collect()
    }

    /// The handle of the registered kernel called `name`.
    fn kernel_id(&self, name: &str) -> Option<KernelId> {
        self.kernels.iter().position(|k| k.name() == name)
    }

    /// The registered kernel behind a handle.
    #[must_use]
    pub fn kernel(&self, id: KernelId) -> &dyn DlpKernel {
        self.kernels[id].as_ref()
    }

    /// Adds one cell to the grid.
    pub fn push_cell(&mut self, cell: CellSpec) {
        self.cells.push(cell);
    }

    /// Adds a cell for a named machine configuration; the label defaults
    /// to the configuration's display name.
    pub fn push_config(
        &mut self,
        kernel: KernelId,
        config: MachineConfig,
        records: usize,
        params: &ExperimentParams,
    ) {
        self.push_cell(CellSpec {
            kernel,
            config: Some(config),
            mech: config.mechanisms(),
            records,
            params: *params,
            label: config.to_string(),
        });
    }

    /// Adds the paper grid for `ids`: each kernel's baseline cell, then
    /// one cell per [`MachineConfig::DLP`] configuration, in `ids` order,
    /// at [`default_records`]`(name, scale)` records (scale 0 is the
    /// 24-record smoke size), and returns the range of cells pushed.
    /// Figure 5, Table 4 and Table 6 are projections of that range of
    /// the report ([`SweepReport::view`]).
    pub fn push_paper_grid(
        &mut self,
        ids: &[KernelId],
        params: &ExperimentParams,
        scale: usize,
    ) -> Range<usize> {
        let start = self.len();
        for &id in ids {
            let records = default_records(self.kernel(id).name(), scale);
            self.push_config(id, MachineConfig::Baseline, records, params);
            for config in MachineConfig::DLP {
                self.push_config(id, config, records, params);
            }
        }
        start..self.len()
    }

    /// Number of cells queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Runs every cell and collects a [`SweepReport`].
    ///
    /// Three phases. **Phase 0** reduces each cell's mechanism set to
    /// the one its kernel can observe ([`crate::visible_mechanisms`]),
    /// computes each cell's [`StoreKey`] (only when a store is
    /// attached; keys keep the named set) and resolves cells whose
    /// outcome is already known — from the resume manifest first, then
    /// the result store. **Phase 1** deduplicates the remaining cells'
    /// lowerings (kernel × visible mechanisms × grid × timing × records)
    /// and prepares each distinct one once; a fully-resolved sweep
    /// prepares nothing, which is what makes a warm re-run O(lookup).
    /// **Phase 2** gathers pending cells with one run key (plan,
    /// derived seed, fault plan, watchdog) behind the first of them,
    /// executes the leaders against the shared plans, and streams
    /// each completion — the leader's, then each follower's with the
    /// leader's outcome — into the store / manifest / dead-letter queue
    /// as it lands.
    ///
    /// Cell failures (e.g. incoherent mechanism sets in the
    /// configuration-space sweep) are captured per cell as
    /// [`CellOutcome::Failed`], never aborting the batch; use
    /// [`SweepReport::ensure_verified`] when failures should be errors.
    ///
    /// Results are ordered exactly as the cells were pushed, and the
    /// statistics are independent of the worker count.
    #[must_use]
    pub fn run(&self) -> SweepReport {
        let started = Instant::now();
        // Counter baseline, so the report's hit/miss columns cover this
        // run even when one store handle serves several sweeps.
        let (store_hits_before, store_misses_before) =
            self.result_store.as_ref().map_or((0, 0), |s| (s.hits(), s.misses()));

        // ---- Phase 0: plan identity and previously-known outcomes. --
        // Plans key on the mechanisms each kernel can observe, so a
        // configuration that adds only unobservable ones shares the
        // lowering of the one it reduces to. Linear-scan dedup:
        // TimingParams is Eq but not Hash, and sweep grids are
        // tens-to-hundreds of cells, far below the n² that would
        // justify hashing around it.
        let visible = self.visible_mechs();
        let mut plan_keys: Vec<PlanKey> = Vec::new();
        let mut cell_plan: Vec<usize> = Vec::with_capacity(self.cells.len());
        for (cell, &mech) in self.cells.iter().zip(&visible) {
            let key = PlanKey::of(cell, mech);
            let idx = match plan_keys.iter().position(|k| *k == key) {
                Some(i) => i,
                None => {
                    plan_keys.push(key);
                    plan_keys.len() - 1
                }
            };
            cell_plan.push(idx);
        }

        let keys: Option<Vec<StoreKey>> =
            self.result_store.as_ref().map(|_| self.keys_for(&visible));

        let mut resolved: Vec<Option<Resolved>> = vec![None; self.cells.len()];
        let mut resumed_cells = 0usize;
        if let Some(manifest) = &self.resume {
            if manifest.cells == self.cells.len() {
                for (slot, entry) in resolved.iter_mut().zip(&manifest.entries) {
                    if let Some(e) = entry {
                        *slot = Some(Resolved {
                            outcome: e.outcome.clone(),
                            wall_ms: e.wall_ms,
                            attempts: e.attempts,
                            origin: Origin::Resumed,
                        });
                        resumed_cells += 1;
                    }
                }
            }
        }
        if let (Some(store), Some(keys)) = (&self.result_store, &keys) {
            for (i, slot) in resolved.iter_mut().enumerate() {
                if slot.is_some() {
                    continue;
                }
                if let Some(outcome) = store.get(&keys[i]) {
                    let attempts = match &outcome {
                        CellOutcome::Failed { attempts, .. } => *attempts,
                        _ => 1,
                    };
                    // Checkpoint store hits too, so a resume never
                    // depends on the store still being warm.
                    if let Some(writer) = &self.manifest {
                        writer.append(
                            i,
                            &ManifestEntry { outcome: outcome.clone(), wall_ms: 0.0, attempts },
                        );
                    }
                    *slot = Some(Resolved { outcome, wall_ms: 0.0, attempts, origin: Origin::Store });
                }
            }
        }

        // ---- Phase 1: prepare only the lowerings pending cells need. -
        let needed: Vec<usize> = (0..plan_keys.len())
            .filter(|&p| {
                cell_plan
                    .iter()
                    .zip(&resolved)
                    .any(|(&cp, r)| cp == p && r.is_none())
            })
            .collect();
        let prepared: Vec<Result<PreparedProgram, DlpError>> =
            self.parallel_map(needed.len(), |j| {
                let key = &plan_keys[needed[j]];
                catch_cell(|| {
                    prepare_kernel(
                        self.kernels[key.kernel].as_ref(),
                        key.mech,
                        key.records,
                        &key.params(),
                    )
                })
            });
        let mut plans: Vec<Option<Result<PreparedProgram, DlpError>>> =
            (0..plan_keys.len()).map(|_| None).collect();
        for (&p, plan) in needed.iter().zip(prepared) {
            plans[p] = Some(plan);
        }

        // ---- Phase 2: execute pending cells against the shared plans.
        // Each worker carries one RunScratch for its whole drain: the
        // engine arena makes repeat cells allocation-free, and one
        // workload cache is shared across all workers.
        //
        // Pending cells with one run key — plan (records included),
        // derived seed, fault plan and watchdog, every input of a run —
        // would simulate the same run: the first in push order leads
        // and runs, and each other one follows, taking the leader's
        // outcome when it lands. Leaders sharing one lowering (hence
        // one record count) and watchdog form one batch key.
        let mut followers: Vec<Vec<usize>> = vec![Vec::new(); self.cells.len()];
        let mut leaders: Vec<(RunKey, usize)> = Vec::new();
        let mut pending: Vec<(BatchKey, Vec<usize>)> = Vec::new();
        for i in (0..self.cells.len()).filter(|&i| resolved[i].is_none()) {
            let cell = &self.cells[i];
            let seed = self.attempt_params(i, 1).seed;
            let key = (cell_plan[i], seed, cell.params.fault, cell.params.watchdog);
            if let Some(&(_, leader)) = leaders.iter().find(|(k, _)| *k == key) {
                followers[leader].push(i);
                continue;
            }
            leaders.push((key, i));
            let key = (cell_plan[i], cell.params.watchdog);
            match pending.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(i),
                None => pending.push((key, vec![i])),
            }
        }
        // The work-stealing unit is a chunk of one key's leaders (push
        // order), filled to the lane-word limit before the next opens —
        // the maximal-occupancy packing, since lanes can never cross
        // lowerings. A chunk of two or more runs in lockstep through
        // the batched engine (DESIGN.md §10) with bit-identical
        // per-cell results; a single cell runs on the scalar path.
        let mut groups: Vec<&[usize]> = pending
            .iter()
            .flat_map(|(_, members)| members.chunks(trips_sim::batch::MAX_CLASSES))
            .collect();
        // Static dispatch accounting: a pure function of the grid and
        // the resolve phase — never of worker interleaving.
        let batches = || groups.iter().filter(|g| g.len() >= 2);
        let cells_batched = batches().map(|g| g.len()).sum();
        let batch_dispatches = batches().count();
        let batch_occupancy = if batch_dispatches == 0 {
            0.0
        } else {
            cells_batched as f64
                / (batch_dispatches * trips_sim::batch::MAX_CLASSES) as f64
        };
        // ---- Longest-predicted-first (LPT) dispatch order. Weight
        // each group by its static cycle estimate (the analyzer's sound
        // bound extrapolated per record — DESIGN.md §13; a group shares
        // one plan and record count) and hand the heaviest groups to
        // the work-stealing drain first, so a giant cell can't start
        // last and strand one worker past the others' finish line.
        // Failed lowerings weigh nothing. The sort is stable (ties
        // keep push order) and per-cell results are keyed by index, so
        // the report and every determinism contract over it are
        // order-invariant; only wall-clock moves.
        groups.sort_by_cached_key(|g| {
            std::cmp::Reverse(match &plans[cell_plan[g[0]]] {
                Some(Ok(p)) => p.estimate_ticks(self.cells[g[0]].records),
                _ => 0,
            })
        });
        let workload_cache = Arc::new(WorkloadCache::new());
        let group_results: Vec<Vec<(usize, Resolved)>> = self.parallel_map_with(
            groups.len(),
            || RunScratch::with_workload_cache(Arc::clone(&workload_cache)),
            |scratch, g| {
                let members = groups[g];
                let runs = if members.len() >= 2 {
                    self.execute_batch(scratch, members, &plans, &cell_plan)
                } else {
                    vec![self.execute_cell(scratch, members[0], &plans, &cell_plan)]
                };
                let mut out = Vec::with_capacity(members.len());
                for (&i, (outcome, wall_ms, attempts)) in members.iter().zip(runs) {
                    let result =
                        self.land(i, outcome, wall_ms, attempts, &followers[i], &keys, &mut out);
                    out.push((i, result));
                }
                out
            },
        );
        // Cells resolved in phase 0 are already in place.
        let mut cell_results = resolved;
        for group in group_results {
            for (i, result) in group {
                cell_results[i] = Some(result);
            }
        }
        let cell_results: Vec<Resolved> = cell_results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| Resolved {
                    // Unreachable by construction (every cell resolves
                    // in phase 0 or lands from exactly one group, as a
                    // leader or a follower); degrade, don't panic.
                    outcome: internal("cell missing from dispatch groups"),
                    wall_ms: 0.0,
                    attempts: 0,
                    origin: Origin::Executed,
                })
            })
            .collect();

        let (store_hits, store_misses) = self.result_store.as_ref().map_or((0, 0), |s| {
            (s.hits() - store_hits_before, s.misses() - store_misses_before)
        });

        let extra_attempts = cell_results
            .iter()
            .filter(|r| r.origin == Origin::Executed)
            .map(|r| u64::from(r.attempts.saturating_sub(1)))
            .sum();
        let cells_executed =
            cell_results.iter().filter(|r| r.origin == Origin::Executed).count();
        let dlq_appended = self.dlq.as_ref().map_or(0, |d| {
            // Best-effort like the appends: the streamed lines stay valid
            // (in completion order) if the rewrite fails.
            let _ = d.order_by_cell();
            d.appended()
        });
        // Provenance, like the cache counters: a warm run prepares no
        // plans and so carries no warnings or predictions.
        let analysis_warnings: u64 = plans
            .iter()
            .flatten()
            .filter_map(|p| p.as_ref().ok())
            .map(|p| p.analysis().warnings.len() as u64)
            .sum();

        let cells = self
            .cells
            .iter()
            .enumerate()
            .zip(cell_results)
            .map(|((i, spec), result)| SweepCell {
                kernel: self.kernels[spec.kernel].name().to_string(),
                config: spec.config_name(),
                label: spec.label.clone(),
                records: spec.records,
                outcome: result.outcome,
                wall_ms: result.wall_ms,
                predicted_cycles: match &plans[cell_plan[i]] {
                    Some(Ok(p)) => Some(p.bound_cycles(spec.records)),
                    _ => None,
                },
            })
            .collect();

        SweepReport {
            threads: self.threads,
            plans_prepared: needed.len(),
            plan_reuses: self.cells.len().saturating_sub(plan_keys.len()),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            extra_attempts,
            workload_cache_hits: workload_cache.hits(),
            workload_cache_misses: workload_cache.misses(),
            store_hits,
            store_misses,
            cells_executed,
            cells_skipped: 0,
            resumed_cells,
            dlq_appended,
            cells_batched,
            batch_dispatches,
            batch_occupancy,
            analysis_warnings,
            cells,
        }
    }

    /// Runs one lane-batched group: attempt 1 of every cell in lockstep
    /// through [`run_prepared_batch_in`], then each lane's attempt loop
    /// ([`Sweep::run_attempts`]) from that result, so a lane whose first
    /// attempt failed retries on the scalar path. Per-cell outcomes are
    /// bit-identical to [`Sweep::execute_cell`]: batched attempt 1 is
    /// bit-identical to scalar attempt 1 (the `batched_identity` tier-1
    /// contract), and the retries are the same loop.
    fn execute_batch(
        &self,
        scratch: &mut RunScratch,
        members: &[usize],
        plans: &[Option<Result<PreparedProgram, DlpError>>],
        cell_plan: &[usize],
    ) -> Vec<(CellOutcome, f64, u32)> {
        let started = Instant::now();
        let scalar = |scratch: &mut RunScratch| -> Vec<(CellOutcome, f64, u32)> {
            members.iter().map(|&i| self.execute_cell(scratch, i, plans, cell_plan)).collect()
        };
        // Lowering failed (or, unreachably, was never prepared): the
        // scalar path renders the exact per-cell diagnostics.
        let Some(Ok(prepared)) = &plans[cell_plan[members[0]]] else {
            return scalar(scratch);
        };
        // All members share one plan key, hence one kernel.
        let kernel = self.kernels[self.cells[members[0]].kernel].as_ref();
        let lanes: Vec<BatchLane> = members
            .iter()
            .map(|&i| BatchLane {
                records: self.cells[i].records,
                params: self.attempt_params(i, 1),
            })
            .collect();
        let Ok(first_attempts) =
            catch_cell(|| Ok(run_prepared_batch_in(kernel, prepared, &lanes, scratch)))
        else {
            // A panic in the batched engine degrades exactly like a
            // scalar panic: each cell retries through the scalar path.
            return scalar(scratch);
        };
        let batch_ms = started.elapsed().as_secs_f64() * 1e3;
        members
            .iter()
            .zip(first_attempts)
            .map(|(&i, first)| {
                let retries_started = Instant::now();
                let (outcome, attempts) = self.run_attempts(scratch, i, prepared, first);
                (outcome, batch_ms + retries_started.elapsed().as_secs_f64() * 1e3, attempts)
            })
            .collect()
    }

    /// Lands cell `i`'s run and hands it to the cells that share it:
    /// streams the leader and then each follower into the store,
    /// manifest and dead-letter queue under its own key, pushes the
    /// followers' results (the leader's outcome and attempts, no wall
    /// time) onto `out`, and returns the leader's own result.
    #[allow(clippy::too_many_arguments)]
    fn land(
        &self,
        i: usize,
        outcome: CellOutcome,
        wall_ms: f64,
        attempts: u32,
        followers: &[usize],
        keys: &Option<Vec<StoreKey>>,
        out: &mut Vec<(usize, Resolved)>,
    ) -> Resolved {
        self.record_completion(i, &outcome, wall_ms, attempts, keys);
        for &f in followers {
            self.record_completion(f, &outcome, 0.0, attempts, keys);
            let outcome = outcome.clone();
            out.push((f, Resolved { outcome, wall_ms: 0.0, attempts, origin: Origin::Shared }));
        }
        Resolved { outcome, wall_ms, attempts, origin: Origin::Executed }
    }

    /// Streams one completed cell into the attached store, manifest,
    /// and dead-letter queue (shared by the scalar and batched paths).
    fn record_completion(
        &self,
        i: usize,
        outcome: &CellOutcome,
        wall_ms: f64,
        attempts: u32,
        keys: &Option<Vec<StoreKey>>,
    ) {
        if let (Some(store), Some(keys)) = (&self.result_store, keys) {
            // Benign when racing a duplicate cell: identical content;
            // failure is a cache problem, never a sweep problem.
            let _ = store.put(&keys[i], outcome);
        }
        if let Some(writer) = &self.manifest {
            writer.append(i, &ManifestEntry { outcome: outcome.clone(), wall_ms, attempts });
        }
        if let Some(dlq) = &self.dlq {
            if matches!(outcome, CellOutcome::Failed { .. }) && !cacheable(outcome) {
                dlq.append(i, &self.dlq_record(i, outcome));
            }
        }
    }

    /// Runs one pending cell's attempt loop against its shared plan.
    fn execute_cell(
        &self,
        scratch: &mut RunScratch,
        i: usize,
        plans: &[Option<Result<PreparedProgram, DlpError>>],
        cell_plan: &[usize],
    ) -> (CellOutcome, f64, u32) {
        let started = Instant::now();
        let (outcome, attempts) = match &plans[cell_plan[i]] {
            Some(Ok(prepared)) => {
                let first = self.attempt(scratch, i, prepared, 1);
                self.run_attempts(scratch, i, prepared, first)
            }
            // Lowering failed: the cell never executed, so it gets no
            // attempts and no retry — re-lowering the same inputs would
            // fail identically.
            Some(Err(e)) => (failed(e, 0), 0),
            // Unreachable: phase 1 prepares every plan a pending cell
            // maps to. Degrade, don't panic.
            None => (internal("plan not prepared for pending cell"), 0),
        };
        (outcome, started.elapsed().as_secs_f64() * 1e3, attempts)
    }

    /// Cell `i`'s attempt loop, given attempt 1's result: runs attempts
    /// `2..=max_attempts` on the scalar path until one completes, and
    /// returns the cell's outcome with the attempts it spent. The one
    /// retry loop of both dispatch shapes — attempt 1 comes from the
    /// scalar path ([`Sweep::execute_cell`]) or the lockstep engine
    /// ([`Sweep::execute_batch`]).
    fn run_attempts(
        &self,
        scratch: &mut RunScratch,
        i: usize,
        prepared: &PreparedProgram,
        first: LaneResult,
    ) -> (CellOutcome, u32) {
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempt = 1;
        let mut ran = first;
        loop {
            match ran {
                Ok((stats, mismatch)) => return (CellOutcome::Ran { stats, mismatch }, attempt),
                Err(e) if attempt >= max_attempts => return (failed(&e, attempt), attempt),
                Err(_) => {
                    attempt += 1;
                    ran = self.attempt(scratch, i, prepared, attempt);
                }
            }
        }
    }

    /// Runs attempt number `attempt` of cell `i` on the scalar path.
    fn attempt(
        &self,
        scratch: &mut RunScratch,
        i: usize,
        prepared: &PreparedProgram,
        attempt: u32,
    ) -> LaneResult {
        let cell = &self.cells[i];
        let params = self.attempt_params(i, attempt);
        catch_cell(|| {
            run_prepared_in(
                self.kernels[cell.kernel].as_ref(),
                prepared,
                cell.records,
                &params,
                scratch,
            )
        })
    }

    /// The parameters attempt number `attempt` (from 1) of cell `i`
    /// runs under: the kernel's derived workload seed, and the cell's
    /// fault plan re-salted per retry — same workload, independent
    /// deterministic fault draw. Attempt 1 keeps the cell's own salt,
    /// so single-attempt sweeps are bit-identical to the policy-free
    /// engine.
    fn attempt_params(&self, i: usize, attempt: u32) -> ExperimentParams {
        let cell = &self.cells[i];
        let fault = cell.params.fault;
        ExperimentParams {
            seed: derive_seed(cell.params.seed, self.kernels[cell.kernel].name()),
            fault: fault.with_salt(fault.salt.wrapping_add(u64::from(attempt - 1))),
            ..cell.params
        }
    }

    /// Each cell's [`visible_mechanisms`], computed once per distinct
    /// (kernel, set) because [`DlpKernel::ir`] rebuilds the IR on every
    /// call. A kernel that panics while being inspected keeps its named
    /// set, so its lowering fails in phase 1 exactly as before.
    fn visible_mechs(&self) -> Vec<MechanismSet> {
        let mut known: Vec<((KernelId, MechanismSet), MechanismSet)> = Vec::new();
        self.cells
            .iter()
            .map(|cell| {
                let key = (cell.kernel, cell.mech);
                if let Some(&(_, visible)) = known.iter().find(|(k, _)| *k == key) {
                    return visible;
                }
                let kernel = self.kernels[cell.kernel].as_ref();
                let visible = catch_cell(|| Ok(visible_mechanisms(kernel, cell.mech)))
                    .unwrap_or(cell.mech);
                known.push((key, visible));
                visible
            })
            .collect()
    }

    /// Builds the replayable dead-letter record for a failed cell.
    fn dlq_record(&self, i: usize, outcome: &CellOutcome) -> DlqRecord {
        let cell = &self.cells[i];
        let (error, kind, attempts, timed_out) = match outcome {
            CellOutcome::Failed { error, kind, attempts, timed_out } => {
                (error.clone(), kind.clone(), *attempts, *timed_out)
            }
            _ => (String::new(), String::new(), 0, false),
        };
        DlqRecord {
            dlq_version: DLQ_VERSION,
            kernel: self.kernels[cell.kernel].name().to_string(),
            config: cell.config_name(),
            label: cell.label.clone(),
            mech: cell.mech,
            grid: cell.params.grid,
            timing: cell.params.timing,
            fault: cell.params.fault,
            base_seed: cell.params.seed,
            watchdog: cell.params.watchdog,
            records: cell.records,
            error,
            kind,
            attempts,
            timed_out,
        }
    }

    /// Each cell's effective unroll — the one [`prepare_kernel`] will
    /// choose, `natural_unroll(..).min(records)` — for the store key's
    /// lowering fingerprint, without lowering the cell. One cheap probe
    /// (IR validation + instruction count, no placement) runs per
    /// kernel × visible set × grid × timing; MIMD probes answer 0. A
    /// failing probe keeps the raw record count and lets phase 1
    /// surface the error.
    fn effective_unrolls(&self, visible: &[MechanismSet]) -> Vec<usize> {
        // Linear scan, same rationale as the phase-0 dedup.
        let mut probes: Vec<(PlanKey, Option<usize>)> = Vec::new();
        self.cells
            .iter()
            .zip(visible)
            .map(|(cell, &mech)| {
                let key = PlanKey { records: 0, ..PlanKey::of(cell, mech) };
                let natural = match probes.iter().find(|(k, _)| *k == key) {
                    Some(&(_, n)) => n,
                    None => {
                        let kernel = self.kernels[key.kernel].as_ref();
                        let n = catch_cell(|| natural_unroll(kernel, mech, &key.params())).ok();
                        probes.push((key, n));
                        n
                    }
                };
                natural.map_or(cell.records, |n| n.min(cell.records))
            })
            .collect()
    }

    /// Maps `f` over `0..n` with the worker pool, preserving index order
    /// in the result.
    fn parallel_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.parallel_map_with(n, || (), |(), i| f(i))
    }

    /// As [`Sweep::parallel_map`], but each worker thread first builds a
    /// private context with `init` and threads it (`&mut`) through every
    /// index it claims — how phase 2 gives each worker a reusable
    /// [`RunScratch`] without any cross-thread sharing of mutable state.
    //
    // The two `expect`s below guard pool invariants, not cell work: cell
    // panics are already converted to `DlpError` by `catch_cell` inside
    // `f`, so a violation here means the harness itself is broken and
    // there is no per-cell result to degrade to.
    #[allow(clippy::expect_used)]
    fn parallel_map_with<C, T, I, F>(&self, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> C + Sync,
        F: Fn(&mut C, usize) -> T + Sync,
    {
        // The cursor hands out each index once, in ascending order; it
        // publishes no other data (results go through the slot mutexes
        // and the joins), so `Relaxed` suffices.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let workers = self.threads.min(n.max(1));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut ctx = init();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let out = f(&mut ctx, i);
                            *slots[i]
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(out);
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("sweep workers join");
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("every queued index was processed")
            })
            .collect()
    }
}

/// Batch-eligibility key: plan index (which already pins kernel,
/// mechanisms, grid, timing, and record count) and watchdog — exactly
/// the uniformity [`crate::runner::batchable`] requires. Seeds and fault
/// plans vary freely inside a batch, each lane its own class.
type BatchKey = (usize, Option<dlp_common::Tick>);

/// How one cell's outcome was obtained by [`Sweep::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Origin {
    /// Simulated in this run.
    Executed,
    /// Served from the attached [`ResultStore`].
    Store,
    /// Served from the resume manifest.
    Resumed,
    /// Took the outcome of an identical pending cell's run.
    Shared,
}

/// One cell's outcome plus run provenance, as phase 2 produces it.
#[derive(Clone)]
struct Resolved {
    outcome: CellOutcome,
    wall_ms: f64,
    attempts: u32,
    origin: Origin,
}

/// Runs one cell's work, converting a panic into a [`DlpError`] so a
/// single bad cell (e.g. an internally inconsistent mechanism set that
/// trips a simulator assertion) fails that cell instead of tearing down
/// the whole sweep.
fn catch_cell<T>(f: impl FnOnce() -> Result<T, DlpError>) -> Result<T, DlpError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "simulation panicked".to_string());
            Err(DlpError::Internal { detail: format!("panicked: {msg}") })
        }
    }
}

/// The outcome of a cell that failed with `e` after `attempts` attempts.
fn failed(e: &DlpError, attempts: u32) -> CellOutcome {
    CellOutcome::Failed {
        error: e.to_string(),
        kind: e.kind().to_string(),
        attempts,
        timed_out: false,
    }
}

/// The outcome of a cell the sweep itself lost track of (a harness
/// defect, never the cell's fault).
fn internal(detail: &str) -> CellOutcome {
    CellOutcome::Failed {
        error: format!("internal: {detail}"),
        kind: "internal".into(),
        attempts: 0,
        timed_out: false,
    }
}

/// Cache key for one lowering: the inputs of [`prepare_kernel`], with
/// the mechanism set reduced to the cell's [`visible_mechanisms`] (the
/// workload seed deliberately excluded).
#[derive(Clone, Copy, PartialEq)]
struct PlanKey {
    kernel: KernelId,
    mech: MechanismSet,
    grid: dlp_common::GridShape,
    timing: dlp_common::TimingParams,
    records: usize,
}

/// Run-sharing key: plan index (kernel, visible mechanisms, grid,
/// timing, records), derived workload seed, fault plan and watchdog —
/// every input of a cell's run. Cells with equal keys would simulate
/// bit-identical runs.
type RunKey = (usize, u64, dlp_common::FaultPlan, Option<dlp_common::Tick>);

impl PlanKey {
    fn of(cell: &CellSpec, mech: MechanismSet) -> Self {
        PlanKey {
            kernel: cell.kernel,
            mech,
            grid: cell.params.grid,
            timing: cell.params.timing,
            records: cell.records,
        }
    }

    /// The parameters a lowering reads: this key's grid and timing.
    fn params(&self) -> ExperimentParams {
        ExperimentParams { grid: self.grid, timing: self.timing, ..ExperimentParams::default() }
    }
}

/// Derives a kernel's workload seed from the experiment base seed.
///
/// Keyed by kernel *name* only (not configuration), so every
/// configuration of one kernel processes identical records — a
/// precondition for comparing their cycle counts — while distinct
/// kernels get decorrelated workloads. Pure function of its arguments,
/// which is what makes parallel sweeps bit-identical to serial ones.
#[must_use]
pub fn derive_seed(base: u64, kernel_name: &str) -> u64 {
    // FNV-1a over the name, then one SplitMix64 scramble.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in kernel_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    dlp_common::SplitMix64::new(base ^ h).next_u64()
}

/// Result of one cell's simulation.
#[derive(Clone, Debug, PartialEq, ToJson, FromJson)]
pub enum CellOutcome {
    /// The cell simulated to completion (it may still have computed
    /// wrong answers — check `mismatch`).
    Ran {
        /// Simulation statistics.
        stats: SimStats,
        /// First wrong output word, `None` when fully verified.
        mismatch: Option<usize>,
    },
    /// Scheduling or simulation failed (e.g. an incoherent mechanism
    /// set, a watchdog trip, or an unrecoverable injected fault); the
    /// cell has no statistics but carries structured diagnostics.
    Failed {
        /// The rendered [`DlpError`].
        error: String,
        /// The stable [`DlpError::kind`] tag (e.g. `"watchdog"`,
        /// `"fault-unrecoverable"`, `"internal"`), so report consumers
        /// can triage failures without parsing prose.
        kind: String,
        /// Execution attempts spent before giving up (0 when the
        /// lowering itself failed and the cell never executed).
        attempts: u32,
        /// Always `false` from the sweep; kept only so stored outcomes
        /// and dead-letter records keep their format.
        timed_out: bool,
    },
    /// Never produced: the sweep skips no cell since its circuit
    /// breaker was removed. Kept so the benchmark harness, which
    /// matches every variant, builds unchanged; never cached or
    /// dead-lettered.
    Skipped {
        /// Human-readable reason.
        reason: String,
        /// Failures counted before the skip.
        failures: u32,
    },
}

impl CellOutcome {
    /// The statistics, when the cell ran.
    #[must_use]
    pub fn stats(&self) -> Option<&SimStats> {
        match self {
            CellOutcome::Ran { stats, .. } => Some(stats),
            CellOutcome::Failed { .. } | CellOutcome::Skipped { .. } => None,
        }
    }

    /// The failure taxonomy tag, when the cell failed.
    #[must_use]
    pub fn failure_kind(&self) -> Option<&str> {
        match self {
            CellOutcome::Ran { .. } | CellOutcome::Skipped { .. } => None,
            CellOutcome::Failed { kind, .. } => Some(kind),
        }
    }

    /// Whether the cell ran *and* every output word verified.
    #[must_use]
    pub fn verified(&self) -> bool {
        matches!(self, CellOutcome::Ran { mismatch: None, .. })
    }
}

/// One row of the sweep report.
#[derive(Clone, Debug, ToJson)]
pub struct SweepCell {
    /// Kernel name.
    pub kernel: String,
    /// Configuration display name (a [`MachineConfig`] name like
    /// `"S-O"`, or the mechanism-set rendering for raw cells).
    pub config: String,
    /// The experiment tag from [`CellSpec::label`].
    pub label: String,
    /// Records processed.
    pub records: usize,
    /// What happened.
    pub outcome: CellOutcome,
    /// Host wall-clock for this cell, milliseconds (informational; not
    /// part of the deterministic output). 0 for store hits and cells
    /// that took an identical cell's run; a resumed cell keeps the wall
    /// time its manifest line recorded.
    pub wall_ms: f64,
    /// The analyzer's sound static lower bound on this cell's simulated
    /// cycles (DESIGN.md §13), when its lowering was prepared during
    /// this run. `None` for cells served without preparing a plan
    /// (store or resume hits) and for cells whose lowering failed —
    /// provenance, like `wall_ms`, zeroed by
    /// [`SweepReport::canonical`].
    pub predicted_cycles: Option<u64>,
}

/// The full result of a [`Sweep::run`] — the serializable artifact
/// written to `BENCH_sweep.json`.
///
/// # Examples
///
/// ```
/// use dlp_core::sweep::Sweep;
/// use dlp_core::{ExperimentParams, MachineConfig};
///
/// let params = ExperimentParams::default();
/// let mut sweep = Sweep::with_threads(2);
/// let fft = sweep.add_kernel_by_name("fft").unwrap();
/// sweep.push_config(fft, MachineConfig::Baseline, 24, &params);
/// sweep.push_config(fft, MachineConfig::S, 24, &params);
/// let report = sweep.run();
///
/// assert_eq!(report.cells.len(), 2);
/// assert!(report.stats("fft", "S").is_some());
/// let json = dlp_common::json::to_string(&report);
/// assert!(json.contains("\"kernel\":\"fft\""));
/// ```
#[derive(Clone, Debug, Default, ToJson)]
pub struct SweepReport {
    /// Worker threads used.
    pub threads: usize,
    /// Distinct lowerings scheduled (schedule-cache misses).
    pub plans_prepared: usize,
    /// Cells whose lowering key (kernel, visible mechanisms, grid,
    /// timing, records) another cell of the grid already holds:
    /// cells minus distinct keys, whether or not the cells ran. 20 on
    /// the paper grid.
    pub plan_reuses: usize,
    /// Total host wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Retry attempts spent beyond each cell's first (0 under the
    /// default single-attempt policy).
    pub extra_attempts: u64,
    /// Workload-cache lookups served from the cache. Deterministic —
    /// the counts depend only on the set of distinct
    /// `(kernel, padded records, seed)` keys the grid requests, never on
    /// worker count or interleaving.
    pub workload_cache_hits: u64,
    /// Workload-cache lookups that generated a workload (the number of
    /// distinct keys).
    pub workload_cache_misses: u64,
    /// Result-store lookups served without executing during this run (0
    /// when no store is attached). Provenance, not science: a warm and
    /// a cold run differ here while their [`SweepReport::canonical`]
    /// forms are identical.
    pub store_hits: u64,
    /// Result-store lookups that found no valid entry (includes
    /// corrupt or version-mismatched entries, by design).
    pub store_misses: u64,
    /// Cells actually simulated in this run (the warm-run headline: 0
    /// against a fully-warm store; 58 on the cold paper grid). A cell
    /// that took an identical pending cell's run is not counted here
    /// nor in `store_hits`.
    pub cells_executed: usize,
    /// Always 0: no cell is ever skipped ([`CellOutcome::Skipped`] is
    /// never produced). Kept so the canonical report keeps its bytes.
    pub cells_skipped: usize,
    /// Cells served from the resume manifest.
    pub resumed_cells: usize,
    /// Records appended to the dead-letter queue by this run.
    pub dlq_appended: u64,
    /// Pending cells dispatched through the lane-batched engine
    /// (DESIGN.md §10) rather than one-at-a-time. A pure function of
    /// the grid and the resolve phase — never of worker count — and
    /// observationally inert: batched cells report bit-identical
    /// outcomes. 0 on fully-resolved warm runs.
    pub cells_batched: usize,
    /// Lockstep dispatches those batched cells were grouped into.
    pub batch_dispatches: usize,
    /// Mean lane occupancy of those dispatches: `cells_batched /
    /// (batch_dispatches * MAX_CLASSES)`, in `(0, 1]` — how full the
    /// 64-lane words the greedy packer built were. 0.0 when nothing
    /// batched. Like the dispatch counters it is a pure function of
    /// the grid and the resolve phase.
    pub batch_occupancy: f64,
    /// Total analyzer warnings (`W*` codes, DESIGN.md §13) across the
    /// lowerings prepared during this run. Provenance, like the cache
    /// counters: a fully-warm run prepares no plans and reports 0.
    pub analysis_warnings: u64,
    /// Per-cell results, in push order.
    pub cells: Vec<SweepCell>,
}

impl SweepReport {
    /// The first cell matching `kernel` and `config`.
    #[must_use]
    pub fn cell(&self, kernel: &str, config: &str) -> Option<&SweepCell> {
        self.cells.iter().find(|c| c.kernel == kernel && c.config == config)
    }

    /// Statistics for the first matching, successfully-run cell.
    #[must_use]
    pub fn stats(&self, kernel: &str, config: &str) -> Option<&SimStats> {
        self.cell(kernel, config).and_then(|c| c.outcome.stats())
    }

    /// The report restricted to the cells in `range` of push order: the
    /// view one study of a shared sweep projects. The run-wide counters
    /// are kept as they are.
    #[must_use]
    pub fn view(&self, range: Range<usize>) -> SweepReport {
        SweepReport { cells: self.cells[range].to_vec(), ..self.clone() }
    }

    /// Statistics and record count of `kernel`'s cell on `config`: the
    /// lookup the paper-artifact projections make.
    ///
    /// # Errors
    ///
    /// [`DlpError::Internal`] naming the kernel and configuration when
    /// the report holds no such cell that ran.
    pub fn ran_cell(
        &self,
        kernel: &str,
        config: MachineConfig,
    ) -> Result<(&SimStats, usize), DlpError> {
        self.cell(kernel, &config.to_string())
            .and_then(|c| Some((c.outcome.stats()?, c.records)))
            .ok_or_else(|| DlpError::Internal {
                detail: format!("the report has no {kernel} cell on {config} that ran"),
            })
    }

    /// Every failed cell, in push order — the structured view a
    /// degraded sweep's consumer triages (pair with
    /// [`CellOutcome::failure_kind`]).
    #[must_use]
    pub fn failures(&self) -> Vec<&SweepCell> {
        self.cells.iter().filter(|c| matches!(c.outcome, CellOutcome::Failed { .. })).collect()
    }

    /// The report reduced to its *science payload*: per-cell kernel,
    /// configuration, label, record count, and outcome — with every
    /// provenance field zeroed (worker count, wall-clocks, cache and
    /// store counters, attempt accounting).
    ///
    /// This is the form the determinism guarantees quantify over: the
    /// canonical report is bit-identical across worker counts and
    /// across cold / warm / absent result stores. Provenance legitimately differs (a warm run has store
    /// hits and zero executions; a cold run the reverse), which is why
    /// raw reports are *not* comparable byte-for-byte.
    #[must_use]
    pub fn canonical(&self) -> SweepReport {
        SweepReport {
            cells: self
                .cells
                .iter()
                .map(|c| SweepCell { wall_ms: 0.0, predicted_cycles: None, ..c.clone() })
                .collect(),
            ..SweepReport::default()
        }
    }

    /// [`SweepReport::canonical`], serialized — the byte string the
    /// warm-vs-cold CI comparison and the `store_sweep` test diff.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        dlp_common::json::to_string(&self.canonical())
    }

    /// Speedup of `config` over `baseline` on `kernel`, in execution
    /// cycles (the paper's Figure 5 metric).
    #[must_use]
    pub fn speedup(&self, kernel: &str, config: &str, baseline: &str) -> Option<f64> {
        let cfg = self.stats(kernel, config)?;
        let base = self.stats(kernel, baseline)?;
        Some(cfg.speedup_over(base))
    }

    /// Per-configuration harmonic-mean speedup over `baseline`, across
    /// every kernel that has both cells — the aggregation Figure 5's
    /// fixed-configuration bars and the sweep summary share.
    #[must_use]
    pub fn harmonic_mean_speedups(&self, baseline: &str) -> BTreeMap<String, f64> {
        let mut per_config: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for cell in &self.cells {
            if cell.config == baseline {
                continue;
            }
            if let Some(s) = self.speedup(&cell.kernel, &cell.config, baseline) {
                per_config.entry(cell.config.clone()).or_default().push(s);
            }
        }
        per_config
            .into_iter()
            .filter_map(|(config, xs)| harmonic_mean(&xs).map(|hm| (config, hm)))
            .collect()
    }

    /// Turns the first failed or mis-verified cell into a [`DlpError`].
    ///
    /// # Errors
    ///
    /// [`DlpError::MalformedProgram`] describing the offending cell.
    pub fn ensure_verified(&self) -> Result<(), DlpError> {
        for cell in &self.cells {
            match &cell.outcome {
                CellOutcome::Ran { mismatch: None, .. } => {}
                CellOutcome::Ran { mismatch: Some(at), .. } => {
                    return Err(DlpError::MalformedProgram {
                        detail: format!(
                            "{} on {} computed a wrong output at word {at}",
                            cell.kernel, cell.config
                        ),
                    });
                }
                CellOutcome::Failed { error, .. } => {
                    return Err(DlpError::MalformedProgram {
                        detail: format!("{} on {} failed: {error}", cell.kernel, cell.config),
                    });
                }
                CellOutcome::Skipped { reason, .. } => {
                    return Err(DlpError::MalformedProgram {
                        detail: format!(
                            "{} on {} was skipped: {reason}",
                            cell.kernel, cell.config
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use dlp_common::{FaultPlan, FaultRate};
    use trips_sim::WATCHDOG_TICKS;

    use super::*;
    use crate::store::tests_support::tmpdir;

    fn small_sweep(threads: usize) -> SweepReport {
        let params = ExperimentParams::default();
        let mut sweep = Sweep::with_threads(threads);
        let ids = sweep.add_perf_suite();
        for &id in ids.iter().take(3) {
            for config in [MachineConfig::Baseline, MachineConfig::S, MachineConfig::SO] {
                sweep.push_config(id, config, 24, &params);
            }
        }
        sweep.run()
    }

    #[test]
    fn grid_runs_verified_and_ordered() {
        let report = small_sweep(4);
        assert_eq!(report.cells.len(), 9);
        report.ensure_verified().expect("all cells verify");
        // Push order is preserved.
        assert_eq!(report.cells[0].config, "baseline");
        assert_eq!(report.cells[1].config, "S");
        assert_eq!(report.cells[2].config, "S-O");
    }

    #[test]
    fn worker_pool_maps_every_index_once_in_order() {
        for threads in [1, 2, 4, 8] {
            for n in [0, 1, 3, 257] {
                let sweep = Sweep::with_threads(threads);
                let inits = AtomicUsize::new(0);
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = sweep.parallel_map_with(
                    n,
                    || inits.fetch_add(1, Ordering::SeqCst),
                    |_worker, i| {
                        runs[i].fetch_add(1, Ordering::SeqCst);
                        i * i + 7
                    },
                );
                let expected: Vec<usize> = (0..n).map(|i| i * i + 7).collect();
                assert_eq!(out, expected, "threads {threads}, n {n}");
                for (i, count) in runs.iter().enumerate() {
                    assert_eq!(count.load(Ordering::SeqCst), 1, "index {i} runs once");
                }
                assert!(
                    inits.load(Ordering::SeqCst) <= threads.min(n.max(1)),
                    "init runs at most once per worker (threads {threads}, n {n})"
                );
            }
        }
    }

    #[test]
    fn a_kernel_name_registers_once() {
        let mut sweep = Sweep::new();
        let convert = sweep.add_kernel_by_name("convert").expect("suite kernel");
        assert_eq!(sweep.add_kernel_by_name("convert"), Some(convert));
        let ids = sweep.add_perf_suite();
        assert!(ids.contains(&convert));
        assert_eq!(sweep.add_kernel_by_name("blowfish").map(|id| ids.contains(&id)), Some(true));
        assert_eq!(sweep.add_perf_suite(), ids);
        assert_eq!(sweep.kernels.len(), ids.len());
        assert_eq!(sweep.add_kernel_by_name("no-such-kernel"), None);
        assert_eq!(sweep.kernels.len(), ids.len());
    }

    #[test]
    fn schedule_cache_deduplicates_repeated_cells() {
        let params = ExperimentParams::default();
        let mut sweep = Sweep::with_threads(2);
        let id = sweep.add_kernel_by_name("convert").expect("suite kernel");
        for _ in 0..4 {
            sweep.push_config(id, MachineConfig::S, 24, &params);
        }
        let report = sweep.run();
        assert_eq!(report.plans_prepared, 1, "one distinct lowering");
        assert_eq!(report.plan_reuses, 3);
        report.ensure_verified().expect("verifies");
    }

    /// Runs one cell outside the sweep (fresh lowering, no cache) with
    /// the seed the sweep would derive, for bit-identity comparisons.
    fn uncached(kernel_name: &str, config: MachineConfig, records: usize) -> SimStats {
        let base = ExperimentParams::default();
        let params =
            ExperimentParams { seed: derive_seed(base.seed, kernel_name), ..base };
        let k = suite().into_iter().find(|k| k.name() == kernel_name).expect("suite kernel");
        let (stats, mismatch) =
            crate::run_kernel_mech(k.as_ref(), config.mechanisms(), records, &params)
                .expect("uncached run succeeds");
        assert_eq!(mismatch, None, "{kernel_name} on {config} verifies");
        stats
    }

    /// Pushes convert on S-O at 512, 768 and 1024 records, each count
    /// once per entry of `params`, in record-major order.
    fn record_varying_sweep(params: &[ExperimentParams]) -> SweepReport {
        let mut sweep = Sweep::with_threads(2);
        let id = sweep.add_kernel_by_name("convert").expect("suite kernel");
        for records in [512, 768, 1024] {
            for p in params {
                sweep.push_config(id, MachineConfig::SO, records, p);
            }
        }
        sweep.run()
    }

    #[test]
    fn dataflow_record_counts_sharing_an_unroll_share_one_plan() {
        // The unroll clamp tops out at 512, so 512, 768 and 1024 records
        // reach the same effective unroll; plans still key on the record
        // count, so each count lowers once and its cells share that one
        // plan, with statistics bit-identical to fresh uncached runs.
        let params = ExperimentParams::default();
        let k = suite().into_iter().find(|k| k.name() == "convert").expect("suite kernel");
        let n = natural_unroll(k.as_ref(), MachineConfig::SO.mechanisms(), &params)
            .expect("probe succeeds");
        assert!(n <= 512, "every count reaches the natural unroll (got {n})");

        // The twin's fault salt is inert without fault rates, but it is
        // a run input, so the twin reuses the plan and runs on its own.
        let salted = ExperimentParams { fault: params.fault.with_salt(1), ..params };
        let report = record_varying_sweep(&[params, salted]);
        assert_eq!(report.plans_prepared, 3, "one lowering per record count");
        assert_eq!(report.plan_reuses, 3, "each count's twin shares its plan");
        report.ensure_verified().expect("verifies");
        for (cell, records) in report.cells.iter().zip([512, 512, 768, 768, 1024, 1024]) {
            let fresh = uncached("convert", MachineConfig::SO, records);
            assert_eq!(cell.outcome.stats(), Some(&fresh), "cached == uncached at {records}");
        }
    }

    #[test]
    fn record_varying_cells_pack_into_one_lockstep_dispatch() {
        // A lockstep dispatch holds one record count: cells differing
        // only in record count run apart on the scalar path, while the
        // cells at one count pack into one dispatch per count.
        let params = ExperimentParams::default();
        let apart = record_varying_sweep(&[params]);
        assert_eq!(apart.cells_batched, 0, "no lockstep batch mixes record counts");
        assert_eq!(apart.batch_dispatches, 0);
        apart.ensure_verified().expect("verifies");

        let salted = ExperimentParams { fault: params.fault.with_salt(1), ..params };
        let twins = record_varying_sweep(&[params, salted]);
        assert_eq!(twins.cells_batched, 6, "each count's two cells batch together");
        assert_eq!(twins.batch_dispatches, 3, "one dispatch per record count");
        let expected = 2.0 / trips_sim::batch::MAX_CLASSES as f64;
        assert!(
            (twins.batch_occupancy - expected).abs() < 1e-12,
            "occupancy {} != {expected}",
            twins.batch_occupancy
        );
        for (alone, pair) in apart.cells.iter().zip(twins.cells.iter().step_by(2)) {
            assert_eq!(alone.outcome, pair.outcome, "batched lane == scalar cell");
        }
    }

    #[test]
    fn speedups_and_harmonic_means_are_available() {
        let report = small_sweep(2);
        let hms = report.harmonic_mean_speedups("baseline");
        assert_eq!(hms.len(), 2, "S and S-O");
        for (config, hm) in &hms {
            assert!(*hm > 0.0, "{config}: {hm}");
        }
    }

    #[test]
    fn default_worker_count_respects_single_core() {
        assert_eq!(default_worker_count(1), 1, "no phantom second worker on 1 core");
        assert_eq!(default_worker_count(2), 2);
        assert_eq!(default_worker_count(3), 3);
        assert_eq!(default_worker_count(8), 8);
        assert_eq!(default_worker_count(64), 8, "cap at 8");
        assert_eq!(default_worker_count(0), 1, "defensive floor");
    }

    #[test]
    fn workload_cache_is_observationally_pure() {
        // A repeated configuration shares its workload through the
        // cache and batches with its twin. The twin carries another
        // fault salt (inert without fault rates), a run input the
        // workload key does not hold, so the two do not share a run.
        let params = ExperimentParams::default();
        let salted = ExperimentParams { fault: params.fault.with_salt(1), ..params };
        let mut sweep = Sweep::with_threads(2);
        let id = sweep.add_kernel_by_name("convert").expect("suite kernel");
        for (config, params) in [
            (MachineConfig::Baseline, params),
            (MachineConfig::S, params),
            (MachineConfig::S, salted),
        ] {
            sweep.push_config(id, config, 24, &params);
        }
        let cached = sweep.run();
        assert_eq!(
            (cached.workload_cache_hits, cached.workload_cache_misses),
            (2, 1),
            "one lookup per cell: the baseline cell generates the shared \
             workload and both S cells hit it"
        );
        assert_eq!(cached.cells_batched, 2, "the repeated S cells batch together");
        assert_eq!(cached.batch_dispatches, 1);
        cached.ensure_verified().expect("verifies");

        // Every cell of the quick paper grid, run against the shared
        // cache, equals a fresh run that uses no cache.
        let mut grid = Sweep::with_threads(2);
        let ids = grid.add_perf_suite();
        grid.push_paper_grid(&ids, &params, 0);
        let report = grid.run();
        assert_eq!(report.cells.len(), 78);
        assert!(report.workload_cache_hits > 0, "configurations of a kernel share workloads");
        for (cell, spec) in report.cells.iter().zip(&grid.cells) {
            let config = spec.config.expect("named configuration");
            let fresh = uncached(&cell.kernel, config, cell.records);
            assert_eq!(
                cell.outcome,
                CellOutcome::Ran { stats: fresh, mismatch: None },
                "{} on {}: cached == uncached",
                cell.kernel,
                cell.config
            );
        }
    }

    /// Runs convert on S at 24 records once per `cells` entry, under a
    /// two-attempt policy.
    fn two_attempt_sweep(cells: &[ExperimentParams]) -> SweepReport {
        let mut sweep = Sweep::with_threads(2);
        sweep.set_policy(SweepPolicy::default().with_attempts(2));
        let id = sweep.add_kernel_by_name("convert").expect("suite kernel");
        for params in cells {
            sweep.push_config(id, MachineConfig::S, 24, params);
        }
        sweep.run()
    }

    /// Asserts each cell of `batched` ended as the same cell run alone:
    /// a single-cell group, on the scalar path from its first attempt.
    fn assert_matches_scalar(batched: &SweepReport, cells: &[ExperimentParams]) {
        for (cell, params) in batched.cells.iter().zip(cells) {
            let alone = two_attempt_sweep(std::slice::from_ref(params));
            assert_eq!(alone.cells_batched, 0, "a lone cell runs on the scalar path");
            assert_eq!(cell.outcome, alone.cells[0].outcome, "batched lane == scalar cell");
        }
    }

    #[test]
    fn a_failed_batched_lane_retries_on_the_scalar_path() {
        // Two cells sharing one lowering and one unsatisfiable 2-tick
        // watchdog batch together (their seeds differ, so they are two
        // lanes); each fails its lockstep first attempt and spends its
        // second on the scalar path.
        let cells = [1, 2].map(|seed| ExperimentParams {
            seed,
            watchdog: Some(2),
            ..ExperimentParams::default()
        });
        let report = two_attempt_sweep(&cells);
        assert_eq!(report.cells_batched, 2);
        for cell in &report.cells {
            match &cell.outcome {
                CellOutcome::Failed { kind, attempts, timed_out, .. } => {
                    assert_eq!((kind.as_str(), *attempts, *timed_out), ("watchdog", 2, false));
                }
                other => panic!("a 2-tick watchdog cannot be satisfied: {other:?}"),
            }
        }
        assert_eq!(report.extra_attempts, 2);
        assert_matches_scalar(&report, &cells);
    }

    #[test]
    fn a_batched_lane_recovers_on_its_scalar_second_attempt() {
        // With one retry per fault event, convert on S draws an
        // unrecoverable schedule at fault salt 3 and a clean one at salt
        // 4: the salt-3 lane fails its lockstep first attempt and
        // recovers on its re-salted scalar second one, while the salt-4
        // lane completes in the batch.
        let mut plan = FaultPlan::uniform(FaultRate::per_million(20_000));
        plan.max_retries = 1;
        let cells = [3, 4].map(|salt| ExperimentParams {
            fault: plan.with_salt(salt),
            ..ExperimentParams::default()
        });
        let report = two_attempt_sweep(&cells);
        assert_eq!(report.cells_batched, 2);
        report.ensure_verified().expect("both lanes complete and verify");
        assert_eq!(report.extra_attempts, 1, "only the salt-3 lane retried");
        assert_matches_scalar(&report, &cells);
    }

    #[test]
    fn canonical_reports_are_thread_count_invariant() {
        let one = small_sweep(1);
        let four = small_sweep(4);
        assert_ne!(one.threads, four.threads, "raw provenance differs");
        assert_eq!(one.canonical_json(), four.canonical_json(), "science payload identical");
        let c = one.canonical();
        assert_eq!(c.threads, 0);
        assert_eq!(c.wall_ms, 0.0);
        assert!(c.cells.iter().all(|cell| cell.wall_ms == 0.0));
        assert_eq!(c.cells.len(), one.cells.len());
    }

    #[test]
    fn derived_seeds_differ_by_kernel_but_not_config() {
        let a = derive_seed(7, "convert");
        let b = derive_seed(7, "fft");
        assert_ne!(a, b, "kernels get decorrelated workloads");
        assert_eq!(a, derive_seed(7, "convert"), "pure function");
        assert_ne!(a, derive_seed(8, "convert"), "base seed matters");
    }

    #[test]
    fn failures_are_captured_per_cell() {
        // An incoherent mechanism set: operand revitalization without
        // instruction revitalization has nothing to revitalize into.
        let params = ExperimentParams::default();
        let mut sweep = Sweep::with_threads(2);
        let id = sweep.add_kernel_by_name("convert").expect("suite kernel");
        let mech = MechanismSet {
            smc: false,
            inst_revitalization: false,
            operand_revitalization: true,
            l0_data_store: false,
            local_pc: false,
        };
        sweep.push_cell(CellSpec {
            kernel: id,
            config: None,
            mech,
            records: 24,
            params,
            label: "incoherent".into(),
        });
        sweep.push_config(id, MachineConfig::S, 24, &params);
        let report = sweep.run();
        assert!(matches!(report.cells[0].outcome, CellOutcome::Failed { .. }));
        // The second must have run — a bad cell never poisons the batch.
        assert!(report.cells[1].outcome.verified());
        assert_eq!(report.cells_skipped, 0);
    }

    /// convert on S-O and on S-O-D at 24 records: convert has no lookup
    /// table, so the two cells are one run under two names.
    fn twin_sweep(params: &ExperimentParams) -> Sweep {
        let mut sweep = Sweep::with_threads(2);
        let id = sweep.add_kernel_by_name("convert").expect("suite kernel");
        for config in [MachineConfig::SO, MachineConfig::SOD] {
            sweep.push_config(id, config, 24, params);
        }
        sweep
    }

    #[test]
    fn twins_differing_in_any_run_input_each_run() {
        let base = ExperimentParams::default();
        let twins = [
            ("fault salt", 24, ExperimentParams { fault: base.fault.with_salt(1), ..base }),
            ("watchdog", 24, ExperimentParams { watchdog: Some(WATCHDOG_TICKS), ..base }),
            ("records", 16, base),
            ("base seed", 24, ExperimentParams { seed: base.seed + 1, ..base }),
        ];
        for (what, records, params) in twins {
            let mut sweep = Sweep::with_threads(2);
            let id = sweep.add_kernel_by_name("convert").expect("suite kernel");
            sweep.push_config(id, MachineConfig::S, 24, &base);
            sweep.push_config(id, MachineConfig::S, records, &params);
            let report = sweep.run();
            assert_eq!(report.cells_executed, 2, "twins differing in {what} both run");
            report.ensure_verified().expect("verifies");
        }
    }

    #[test]
    fn identical_twins_run_once_and_persist_under_their_own_keys() {
        let dir = tmpdir("twins");
        let store = Arc::new(ResultStore::open(&dir).expect("open store"));
        let mut sweep = twin_sweep(&ExperimentParams::default());
        sweep.set_store(Arc::clone(&store));
        let report = sweep.run();
        assert_eq!((report.plans_prepared, report.plan_reuses), (1, 1), "one lowering");
        assert_eq!(report.cells_executed, 1, "one run serves both cells");
        assert_eq!(report.cells_batched, 0, "the follower does not ride as a lane");
        report.ensure_verified().expect("verifies");
        assert_eq!(report.cells[0].outcome, report.cells[1].outcome);
        assert_eq!(report.cells[1].wall_ms, 0.0, "the follower spent no wall time");
        let fresh = uncached("convert", MachineConfig::SOD, 24);
        assert_eq!(report.cells[1].outcome.stats(), Some(&fresh), "shared == run alone");

        let keys = sweep.cell_keys();
        assert_ne!(keys[0], keys[1], "each cell keeps its named configuration's key");
        for (key, cell) in keys.iter().zip(&report.cells) {
            assert_eq!(store.get(key).as_ref(), Some(&cell.outcome), "one entry per cell");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_twins_share_the_failure_and_both_dead_letter() {
        let dir = tmpdir("twin-dlq");
        let path = dir.join("twins.dlq.jsonl");
        let params = ExperimentParams { watchdog: Some(2), ..ExperimentParams::default() };
        let mut sweep = twin_sweep(&params);
        sweep.set_policy(SweepPolicy::default().with_attempts(2));
        sweep.set_dlq(Arc::new(DeadLetterQueue::new(&path)));
        let report = sweep.run();
        assert_eq!(report.cells_executed, 1);
        for cell in &report.cells {
            match &cell.outcome {
                CellOutcome::Failed { kind, attempts, .. } => {
                    assert_eq!((kind.as_str(), *attempts), ("watchdog", 2), "{}", cell.config);
                }
                other => panic!("a 2-tick watchdog cannot be satisfied: {other:?}"),
            }
        }
        assert_eq!(report.extra_attempts, 1, "only the leader spent attempts");
        assert_eq!(report.dlq_appended, 2);
        let configs: Vec<String> = store::load_dlq(&path).into_iter().map(|r| r.config).collect();
        assert_eq!(configs, ["S-O", "S-O-D"], "each cell is dead-lettered under its own name");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_follower_missing_from_the_manifest_resumes_alone() {
        let dir = tmpdir("twin-resume");
        let path = dir.join("twins.manifest.jsonl");
        let mut sweep = twin_sweep(&ExperimentParams::default());
        sweep.set_manifest(ManifestWriter::create(&path, &sweep.cell_digests()).expect("create"));
        let reference = sweep.run();

        // Keep the header and the leader's line: the leader lands first.
        let text = std::fs::read_to_string(&path).expect("read manifest");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header + one line per cell");
        std::fs::write(&path, format!("{}\n{}\n", lines[0], lines[1])).expect("truncate");
        let manifest = SweepManifest::load(&path).expect("load manifest");
        assert!(manifest.entries[0].is_some() && manifest.entries[1].is_none());

        let mut resumed = twin_sweep(&ExperimentParams::default());
        resumed.set_resume(manifest);
        let report = resumed.run();
        assert_eq!((report.resumed_cells, report.cells_executed), (1, 1), "the follower runs");
        assert_eq!(report.canonical_json(), reference.canonical_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
