//! The hot-path perf-regression harness.
//!
//! The cycle-level engines spend their time in three inner loops: the
//! dataflow event loop (operand delivery, issue arbitration, NoC link
//! reservation), the MIMD per-node fetch loop, and the mesh router.
//! This module pins one *dataflow-heavy* and one *MIMD-heavy* kernel to
//! the configurations that stress those loops and measures simulation
//! throughput with the scheduling cost excluded — each case is prepared
//! once ([`dlp_core::prepare_kernel`]) and only the simulation is
//! timed, so the numbers move when the engines' hot paths do and not
//! when the scheduler does. Each case is timed through the two paths a
//! sweep takes: the scalar entry point ([`dlp_core::run_prepared_in`])
//! and the lockstep engines ([`dlp_core::run_prepared_batch_in`],
//! DESIGN.md §10) with eight distinct-seed lanes per dispatch.
//!
//! The one consumer is `cargo run --release -p dlp-bench --bin hotpath`,
//! which writes `BENCH_hotpath.json` (schema documented in
//! `EXPERIMENTS.md`) for CI to archive and ratio-gate against
//! `BENCH_baseline.json`; regressions show up as a drop in
//! `cells_per_sec` between two commits' artifacts.

use std::sync::Arc;
use std::time::Instant;

use dlp_common::json::ToJson;
use dlp_core::sweep::derive_seed;
use dlp_core::{
    prepare_kernel, run_prepared_batch_in, run_prepared_in, BatchLane, ExperimentParams,
    MachineConfig, RunScratch, WorkloadCache,
};
use dlp_kernels::{suite, DlpKernel};

/// One measured hot-path case: a kernel pinned to the engine family it
/// stresses.
#[derive(Clone, Copy, Debug)]
pub struct HotpathCase {
    /// Suite kernel name.
    pub kernel: &'static str,
    /// Machine configuration to simulate.
    pub config: MachineConfig,
    /// Which engine's inner loop dominates (`"dataflow"` or `"mimd"`).
    pub engine: &'static str,
}

/// The measured grid: `fft` (long NoC-bound dataflow blocks, wide
/// fan-out) across the dataflow configurations, `blowfish` (16 Feistel
/// rounds of table lookups per record) across the MIMD ones.
pub const HOTPATH_CASES: &[HotpathCase] = &[
    HotpathCase { kernel: "fft", config: MachineConfig::Baseline, engine: "dataflow" },
    HotpathCase { kernel: "fft", config: MachineConfig::SO, engine: "dataflow" },
    HotpathCase { kernel: "fft", config: MachineConfig::SOD, engine: "dataflow" },
    HotpathCase { kernel: "blowfish", config: MachineConfig::M, engine: "mimd" },
    HotpathCase { kernel: "blowfish", config: MachineConfig::MD, engine: "mimd" },
];

/// A case lowered and ready to time: everything
/// [`PreparedCase::run_once`] needs, including the reusable
/// [`RunScratch`] (engine arena + workload cache) a sweep worker would
/// carry — so the timed region exercises the steady-state
/// (allocation-free, cached-workload) path.
struct PreparedCase {
    kernel: Box<dyn DlpKernel>,
    prepared: dlp_core::PreparedProgram,
    records: usize,
    params: ExperimentParams,
    cache: Arc<WorkloadCache>,
    scratch: RunScratch,
    lowering_fp: String,
}

/// Lowers `case` for `records` records, with the same derived seed the
/// sweep engine would use.
///
/// # Panics
///
/// Panics when the kernel is missing from the suite or fails to lower —
/// the harness must not silently measure nothing.
#[must_use]
fn prepare_case(case: &HotpathCase, records: usize) -> PreparedCase {
    let kernel = suite()
        .into_iter()
        .find(|k| k.name() == case.kernel)
        .unwrap_or_else(|| panic!("{} is a suite kernel", case.kernel));
    let base = ExperimentParams::default();
    let params = ExperimentParams { seed: derive_seed(base.seed, case.kernel), ..base };
    let mech = case.config.mechanisms();
    let prepared =
        prepare_kernel(kernel.as_ref(), mech, records, &params).expect("hot-path case lowers");
    // The same lowering identity the result store keys on (see
    // `OPERATIONS.md`): a cross-commit tripwire separating "the numbers
    // moved because the lowering changed" from a genuine engine
    // regression.
    let unroll = if mech.local_pc { 0 } else { prepared.unroll() };
    let lowering_fp =
        dlp_core::store::lowering_fingerprint(kernel.as_ref(), mech, params.grid, &params.timing, unroll)
            .hex();
    let cache = Arc::new(WorkloadCache::new());
    let scratch = RunScratch::with_workload_cache(Arc::clone(&cache));
    PreparedCase { kernel, prepared, records, params, cache, scratch, lowering_fp }
}

impl PreparedCase {
    /// Runs the prepared case once (the timed unit), returning the
    /// simulated cycle count.
    ///
    /// # Panics
    ///
    /// Panics on simulation failure or an output mismatch: a hot-path
    /// optimization that breaks verification must fail the bench, not
    /// post a fast number.
    #[must_use]
    fn run_once(&mut self) -> u64 {
        let (stats, mismatch) = run_prepared_in(
            self.kernel.as_ref(),
            &self.prepared,
            self.records,
            &self.params,
            &mut self.scratch,
        )
        .expect("hot-path case simulates");
        assert_eq!(mismatch, None, "{} must verify", self.kernel.name());
        stats.cycles()
    }

    /// Runs the prepared case once through the lane-batched entry point
    /// with `LANES` *distinct-seed* lanes — the shape a sweep's
    /// seed-varied cells take through the lockstep SoA engines — and
    /// returns an order-sensitive fold of the per-lane cycle counts
    /// (distinct seeds may legitimately produce distinct cycle counts on
    /// cache-timing-sensitive cases, so the fold, not a single count, is
    /// the determinism probe).
    ///
    /// # Panics
    ///
    /// Panics on simulation failure or any lane failing verification.
    #[must_use]
    fn run_lockstep_once(&mut self) -> u64 {
        let specs: Vec<BatchLane> = (0..LANES)
            .map(|i| BatchLane {
                records: self.records,
                params: ExperimentParams {
                    seed: self.params.seed.wrapping_add(1 + i as u64),
                    ..self.params
                },
            })
            .collect();
        let results =
            run_prepared_batch_in(self.kernel.as_ref(), &self.prepared, &specs, &mut self.scratch);
        assert_eq!(results.len(), LANES);
        let mut fold = 0u64;
        for r in results {
            let (stats, mismatch) = r.expect("hot-path lockstep case simulates");
            assert_eq!(mismatch, None, "{} must verify in lockstep", self.kernel.name());
            fold = fold.rotate_left(7) ^ stats.cycles();
        }
        fold
    }

    /// Workload-cache hits accumulated across this case's runs (every
    /// run after the first warm-up is a hit).
    #[must_use]
    fn workload_cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// The case's lowering fingerprint (hex) — the same digest the
    /// result store folds into its keys.
    #[must_use]
    fn lowering_fp(&self) -> &str {
        &self.lowering_fp
    }
}

/// One row of `BENCH_hotpath.json`.
#[derive(Clone, Debug, ToJson)]
pub struct HotpathMeasurement {
    /// Kernel name.
    pub kernel: String,
    /// Configuration display name.
    pub config: String,
    /// Engine family the case stresses (`"dataflow"` / `"mimd"`).
    pub engine: String,
    /// Records simulated per cell.
    pub records: usize,
    /// Untimed warm-up runs before timing (the first generates the
    /// workload; each checks the cycle count).
    pub warmup: usize,
    /// Timed repeats. Each repeat alternates short slices of the scalar
    /// and lockstep entry points, so its two timings, and the ratio
    /// formed from them, share the same host conditions.
    pub repeats: usize,
    /// Minimum timed wall-clock of one repeat, milliseconds: a repeat
    /// runs rounds of one slice per entry point (an untimed warm-up
    /// dispatch, then timed dispatches for a tenth of this) until the
    /// timed slices together have taken at least this long.
    pub min_wall_ms: f64,
    /// Simulated machine cycles per cell (a determinism cross-check:
    /// this must not move unless machine behavior changes).
    pub sim_cycles: u64,
    /// Median over the repeats of the scalar wall-clock per run,
    /// milliseconds.
    pub wall_ms: f64,
    /// Verified kernel runs per second of host time (the reciprocal of
    /// `wall_ms`) — the headline throughput a hot-path regression shows
    /// up in.
    pub cells_per_sec: f64,
    /// Simulated records per second of host time.
    pub records_per_sec: f64,
    /// Workload-cache hits over the warm-up runs (deterministic:
    /// `warmup - 1`, since the first run generates and every later one
    /// hits).
    pub workload_cache_hits: u64,
    /// Order-sensitive fold of per-lane simulated cycles from the
    /// *distinct-seed* lockstep runs (`rotate_left(7) ^ cycles` per lane
    /// in lane order). A determinism cross-check for the SIMD lockstep
    /// path: moves only when machine behavior changes.
    pub lockstep_sim_cycles: u64,
    /// Median over the repeats of the wall-clock per lockstep dispatch,
    /// milliseconds.
    pub lockstep_wall_ms: f64,
    /// Verified lane-results per second through the lockstep SoA path
    /// (`LANES` distinct-seed lane-results per `lockstep_wall_ms`) — the
    /// SIMD-path throughput column.
    pub lockstep_cells_per_sec: f64,
    /// Median over the repeats of `lockstep / scalar` lane-results per
    /// second — the lockstep win over scalar on genuinely divergent
    /// lanes.
    pub lockstep_speedup: f64,
    /// Spread of the per-repeat `lockstep_speedup` ratios:
    /// `(max - min) / median`.
    pub lockstep_speedup_spread: f64,
    /// The case's lowering fingerprint (hex), as the result store would
    /// key it ([`dlp_core::store::lowering_fingerprint`]). Deterministic;
    /// when `cells_per_sec` moves between commits, an unchanged
    /// fingerprint pins the cause to the engines rather than the
    /// scheduler.
    pub lowering_fp: String,
}

/// Untimed scalar warm-up runs before timing (the first generates the
/// workload; each later one hits the workload cache).
const WARMUP: usize = 3;

/// Timed repeats per case; every reported figure is their median.
const REPEATS: usize = 7;

/// Distinct-seed lanes per lockstep dispatch.
const LANES: usize = 8;

/// One timed repeat: rounds of slices of `dispatch(0)` and `dispatch(1)`
/// until the rounds have taken at least `min_wall_s` seconds; returns
/// each entry point's mean wall per dispatch, seconds.
/// A slice is one untimed dispatch, which refills the caches the other
/// entry points evicted, then timed dispatches of the same entry point
/// for a tenth of `min_wall_s`. Alternating slices exposes the two
/// entry points to the same host-speed drift, so their ratio stays put
/// when the host's speed does not; a fixed minimum wall, rather than a
/// fixed count, keeps sub-millisecond dispatches from being timed over a
/// window one scheduler tick can swamp.
fn time_interleaved(min_wall_s: f64, mut dispatch: impl FnMut(usize)) -> [f64; 2] {
    let slice_s = min_wall_s / 10.0;
    let (mut spent, mut count) = ([0.0f64; 2], [0u32; 2]);
    while spent.iter().sum::<f64>() < min_wall_s {
        for entry in 0..2 {
            dispatch(entry);
            let started = Instant::now();
            loop {
                dispatch(entry);
                count[entry] += 1;
                if started.elapsed().as_secs_f64() >= slice_s {
                    break;
                }
            }
            spent[entry] += started.elapsed().as_secs_f64();
        }
    }
    std::array::from_fn(|entry| spent[entry] / f64::from(count[entry]))
}

/// Median of the non-empty `xs` (mean of the middle pair for even
/// lengths).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(median, (max - min) / median)` of `xs`.
fn median_and_spread(xs: &[f64]) -> (f64, f64) {
    let m = median(xs);
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (m, if m > 0.0 { (hi - lo) / m } else { 0.0 })
}

/// Prepares `case`, runs `WARMUP` untimed scalar runs, then times
/// `REPEATS` repeats, each alternating the scalar entry point and
/// `LANES` distinct-seed lanes through the lockstep path for at least
/// `min_wall_s` seconds — both on the same prepared lowering and
/// scratch, so the ratio is apples-to-apples. Every reported figure is
/// the median over the repeats; each ratio is formed within a repeat
/// before the median is taken.
///
/// # Panics
///
/// Panics on lowering, simulation, or verification failure, or when a
/// run's cycle count differs from the warm-up's.
#[must_use]
pub fn measure(case: &HotpathCase, records: usize, min_wall_s: f64) -> HotpathMeasurement {
    let mut prepared = prepare_case(case, records);
    let sim_cycles = prepared.run_once(); // warm: page in workload paths
    for _ in 1..WARMUP {
        assert_eq!(prepared.run_once(), sim_cycles, "simulation is deterministic");
    }
    let workload_cache_hits = prepared.workload_cache_hits();

    let lockstep_sim_cycles = prepared.run_lockstep_once(); // warm

    let (mut scalar, mut lockstep) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let [s, l] = time_interleaved(min_wall_s, |entry| match entry {
            0 => assert_eq!(prepared.run_once(), sim_cycles, "simulation is deterministic"),
            _ => assert_eq!(
                prepared.run_lockstep_once(),
                lockstep_sim_cycles,
                "lockstep runs are deterministic"
            ),
        });
        scalar.push(s);
        lockstep.push(l);
    }
    let ratios: Vec<f64> =
        scalar.iter().zip(&lockstep).map(|(s, l)| LANES as f64 * s / l.max(1e-12)).collect();
    let (lockstep_speedup, lockstep_speedup_spread) = median_and_spread(&ratios);
    let wall = median(&scalar).max(1e-12);
    let lockstep_wall = median(&lockstep).max(1e-12);
    HotpathMeasurement {
        kernel: case.kernel.to_string(),
        config: case.config.to_string(),
        engine: case.engine.to_string(),
        records,
        warmup: WARMUP,
        repeats: REPEATS,
        min_wall_ms: min_wall_s * 1e3,
        sim_cycles,
        wall_ms: wall * 1e3,
        cells_per_sec: 1.0 / wall,
        records_per_sec: records as f64 / wall,
        workload_cache_hits,
        lockstep_sim_cycles,
        lockstep_wall_ms: lockstep_wall * 1e3,
        lockstep_cells_per_sec: LANES as f64 / lockstep_wall,
        lockstep_speedup,
        lockstep_speedup_spread,
        lowering_fp: prepared.lowering_fp().to_string(),
    }
}

/// The full `BENCH_hotpath.json` artifact.
#[derive(Clone, Debug, ToJson)]
pub struct HotpathReport {
    /// Artifact schema version. 2 added the per-case
    /// `workload_cache_hits` (and a queue microbenchmark row); 3 added
    /// the per-case `lowering_fp`; 4 added identical-lane batched
    /// columns; 5 the distinct-seed lockstep (SIMD-path) columns
    /// (`lockstep_sim_cycles`, `lockstep_wall_ms`,
    /// `lockstep_cells_per_sec`, `lockstep_speedup`,
    /// `lockstep_occupancy`); 6 replaced the best-of-three fixed-count
    /// windows with the median of interleaved fixed-minimum-wall repeats
    /// (`warmup`, `repeats`, `min_wall_ms` and the `*_speedup_spread`
    /// columns replace `iters`; the wall columns became per dispatch);
    /// 7 dropped the identical-lane batched columns, `lanes`,
    /// `lockstep_occupancy` and the queue row, leaving the scalar and
    /// lockstep paths a sweep takes.
    /// See `EXPERIMENTS.md`.
    pub schema: u32,
    /// Whether the fast (CI smoke) scale was used.
    pub fast: bool,
    /// One row per [`HOTPATH_CASES`] entry.
    pub cases: Vec<HotpathMeasurement>,
}

/// Current [`HotpathReport::schema`] version.
pub const HOTPATH_SCHEMA: u32 = 7;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_spread_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_and_spread(&[1.0, 2.0, 4.0]), (2.0, 1.5));
    }

    #[test]
    fn lockstep_fold_is_deterministic_on_both_engine_families() {
        for case in [&HOTPATH_CASES[0], &HOTPATH_CASES[3]] {
            let mut prepared = prepare_case(case, 8);
            let first = prepared.run_lockstep_once();
            assert_eq!(first, prepared.run_lockstep_once(), "{} lockstep fold", case.kernel);
        }
    }

    #[test]
    fn hotpath_case_reuses_workload_via_cache() {
        let mut prepared = prepare_case(&HOTPATH_CASES[0], 8);
        let first = prepared.run_once();
        assert_eq!(prepared.workload_cache_hits(), 0, "first run generates");
        let second = prepared.run_once();
        assert_eq!(first, second, "deterministic");
        assert_eq!(prepared.workload_cache_hits(), 1, "second run hits");
    }
}
