//! The hot-path perf-regression harness.
//!
//! The cycle-level engines spend their time in three inner loops: the
//! dataflow event loop (operand delivery, issue arbitration, NoC link
//! reservation), the MIMD per-node fetch loop, and the mesh router.
//! This module pins one *dataflow-heavy* and one *MIMD-heavy* kernel to
//! the configurations that stress those loops and measures simulation
//! throughput with the scheduling cost excluded — each case is prepared
//! once ([`dlp_core::prepare_kernel`]) and only
//! [`dlp_core::run_prepared_in`] is timed, so the numbers move when the
//! engines' hot paths do and not when the scheduler does. Since
//! schema 4 every case is additionally timed through the lane-batched
//! entry point ([`dlp_core::run_prepared_batch_in`], DESIGN.md §10)
//! with `lanes` identical lanes per dispatch, and the artifact carries
//! the batched-vs-scalar speedup alongside a `batched_sim_cycles`
//! column CI asserts equal to the scalar `sim_cycles`. A
//! [`measure_queue`] microbenchmark additionally times the event
//! scheduler itself — the calendar queue against the `BinaryHeap` it
//! replaced — with a checksum asserting both emit the identical order.
//!
//! The one consumer is `cargo run --release -p dlp-bench --bin hotpath`,
//! which writes `BENCH_hotpath.json` (schema documented in
//! `EXPERIMENTS.md`) for CI to archive and ratio-gate against
//! `BENCH_baseline.json`; regressions show up as a drop in
//! `cells_per_sec` between two commits' artifacts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use dlp_common::json::ToJson;
use dlp_common::{SplitMix64, Tick};
use dlp_core::sweep::derive_seed;
use dlp_core::{
    prepare_kernel, run_prepared_batch_in, run_prepared_in, BatchLane, ExperimentParams,
    MachineConfig, RunScratch, WorkloadCache,
};
use dlp_kernels::{suite, DlpKernel};
use trips_sim::equeue::CalendarQueue;

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
    let unroll = if mech.local_pc {
        0
    } else {
        dlp_core::natural_unroll(kernel.as_ref(), mech, &params)
            .map_or(records, |n| n.min(records))
    };
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
    /// with `lanes` identical lanes — the shape a sweep's repeated cells
    /// take (one uniformity class, so one simulation serves every lane;
    /// see DESIGN.md §10) — and returns the per-lane cycle count after
    /// asserting every lane verified and agreed.
    ///
    /// # Panics
    ///
    /// Panics on simulation failure, an output mismatch, or lanes
    /// disagreeing on cycle count — per-lane results must stay
    /// bit-identical to scalar.
    #[must_use]
    fn run_batched_once(&mut self, lanes: usize) -> u64 {
        let specs = vec![BatchLane { records: self.records, params: self.params }; lanes];
        let results =
            run_prepared_batch_in(self.kernel.as_ref(), &self.prepared, &specs, &mut self.scratch);
        assert_eq!(results.len(), lanes);
        let mut cycles = None;
        for r in results {
            let (stats, mismatch) = r.expect("hot-path batched case simulates");
            assert_eq!(mismatch, None, "{} must verify batched", self.kernel.name());
            let c = stats.cycles();
            assert_eq!(*cycles.get_or_insert(c), c, "identical lanes agree on cycles");
        }
        cycles.expect("at least one lane")
    }

    /// Runs the prepared case once through the lane-batched entry point
    /// with `lanes` *distinct-seed* lanes — the genuinely divergent shape
    /// that exercises the lockstep SoA engines rather than the
    /// uniform-collapse fast path — and returns an order-sensitive fold
    /// of the per-lane cycle counts (distinct seeds may legitimately
    /// produce distinct cycle counts on cache-timing-sensitive cases, so
    /// the fold, not a single count, is the determinism probe).
    ///
    /// # Panics
    ///
    /// Panics on simulation failure or any lane failing verification.
    #[must_use]
    fn run_lockstep_once(&mut self, lanes: usize) -> u64 {
        let specs: Vec<BatchLane> = (0..lanes)
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
        assert_eq!(results.len(), lanes);
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
    /// Timed repeats. Each repeat alternates short slices of the scalar,
    /// batched and lockstep entry points, so its three timings, and the
    /// ratios formed from them, share the same host conditions.
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
    /// Lanes per batched dispatch (identical lanes — the
    /// uniform-collapse path a sweep's repeated cells take).
    pub lanes: usize,
    /// Per-lane simulated cycles from the batched runs. CI asserts this
    /// equals `sim_cycles`: batching must not change machine behavior.
    pub batched_sim_cycles: u64,
    /// Median over the repeats of the wall-clock per batched dispatch,
    /// milliseconds.
    pub batched_wall_ms: f64,
    /// Verified lane-results per second through the batched entry point
    /// (`lanes` lane-results per `batched_wall_ms`).
    pub batched_cells_per_sec: f64,
    /// Median over the repeats of `batched / scalar` lane-results per
    /// second — the headline lane-batching win on this case.
    pub batch_speedup: f64,
    /// Spread of the per-repeat `batch_speedup` ratios:
    /// `(max - min) / median`.
    pub batch_speedup_spread: f64,
    /// Order-sensitive fold of per-lane simulated cycles from the
    /// *distinct-seed* lockstep runs (`rotate_left(7) ^ cycles` per lane
    /// in lane order). A determinism cross-check for the SIMD lockstep
    /// path: moves only when machine behavior changes.
    pub lockstep_sim_cycles: u64,
    /// Median over the repeats of the wall-clock per lockstep dispatch,
    /// milliseconds.
    pub lockstep_wall_ms: f64,
    /// Verified lane-results per second through the lockstep SoA path
    /// (`lanes` distinct-seed lane-results per `lockstep_wall_ms`) — the
    /// SIMD-path throughput column.
    pub lockstep_cells_per_sec: f64,
    /// Median over the repeats of `lockstep / scalar` lane-results per
    /// second — the lockstep win over scalar on genuinely divergent
    /// lanes.
    pub lockstep_speedup: f64,
    /// Spread of the per-repeat `lockstep_speedup` ratios:
    /// `(max - min) / median`.
    pub lockstep_speedup_spread: f64,
    /// Lane-slot occupancy of each lockstep dispatch:
    /// `lanes / MAX_CLASSES` — the fraction of the 64 mask-word slots a
    /// dispatch fills at this `--lanes` setting.
    pub lockstep_occupancy: f64,
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

/// One timed repeat: rounds of slices of `dispatch(0)`, `dispatch(1)`
/// and `dispatch(2)` until the rounds have taken at least `min_wall_s`
/// seconds; returns each entry point's mean wall per dispatch, seconds.
/// A slice is one untimed dispatch, which refills the caches the other
/// entry points evicted, then timed dispatches of the same entry point
/// for a tenth of `min_wall_s`. Alternating slices exposes the three
/// entry points to the same host-speed drift, so their ratios stay put
/// when the host's speed does not; a fixed minimum wall, rather than a
/// fixed count, keeps sub-millisecond dispatches from being timed over a
/// window one scheduler tick can swamp.
fn time_interleaved(min_wall_s: f64, mut dispatch: impl FnMut(usize)) -> [f64; 3] {
    let slice_s = min_wall_s / 10.0;
    let (mut spent, mut count) = ([0.0f64; 3], [0u32; 3]);
    while spent.iter().sum::<f64>() < min_wall_s {
        for entry in 0..3 {
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
/// `REPEATS` repeats, each alternating the scalar entry point,
/// `lanes` identical lanes through the batched entry point and `lanes`
/// distinct-seed lanes through the lockstep path for at least
/// `min_wall_s` seconds — all on the same prepared lowering and scratch,
/// so the ratios are apples-to-apples. Every reported figure is the
/// median over the repeats; each ratio is formed within a repeat before
/// the median is taken.
///
/// # Panics
///
/// Panics on lowering, simulation, or verification failure, or when the
/// batched runs' per-lane cycle count diverges from scalar.
#[must_use]
pub fn measure(case: &HotpathCase, records: usize, lanes: usize, min_wall_s: f64) -> HotpathMeasurement {
    let mut prepared = prepare_case(case, records);
    let sim_cycles = prepared.run_once(); // warm: page in workload paths
    for _ in 1..WARMUP {
        assert_eq!(prepared.run_once(), sim_cycles, "simulation is deterministic");
    }
    let workload_cache_hits = prepared.workload_cache_hits();

    let batched_sim_cycles = prepared.run_batched_once(lanes); // warm
    assert_eq!(batched_sim_cycles, sim_cycles, "batching must not change machine behavior");
    let lockstep_sim_cycles = prepared.run_lockstep_once(lanes); // warm

    let (mut scalar, mut batched, mut lockstep) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let [s, b, l] = time_interleaved(min_wall_s, |entry| match entry {
            0 => assert_eq!(prepared.run_once(), sim_cycles, "simulation is deterministic"),
            1 => assert_eq!(
                prepared.run_batched_once(lanes),
                sim_cycles,
                "batched runs are deterministic"
            ),
            _ => assert_eq!(
                prepared.run_lockstep_once(lanes),
                lockstep_sim_cycles,
                "lockstep runs are deterministic"
            ),
        });
        scalar.push(s);
        batched.push(b);
        lockstep.push(l);
    }
    let ratio = |per_dispatch: &[f64]| -> Vec<f64> {
        scalar.iter().zip(per_dispatch).map(|(s, d)| lanes as f64 * s / d.max(1e-12)).collect()
    };
    let (batch_speedup, batch_speedup_spread) = median_and_spread(&ratio(&batched));
    let (lockstep_speedup, lockstep_speedup_spread) = median_and_spread(&ratio(&lockstep));
    let wall = median(&scalar).max(1e-12);
    let batched_wall = median(&batched).max(1e-12);
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
        lanes,
        batched_sim_cycles,
        batched_wall_ms: batched_wall * 1e3,
        batched_cells_per_sec: lanes as f64 / batched_wall,
        batch_speedup,
        batch_speedup_spread,
        lockstep_sim_cycles,
        lockstep_wall_ms: lockstep_wall * 1e3,
        lockstep_cells_per_sec: lanes as f64 / lockstep_wall,
        lockstep_speedup,
        lockstep_speedup_spread,
        lockstep_occupancy: lanes as f64 / trips_sim::batch::MAX_CLASSES as f64,
        lowering_fp: prepared.lowering_fp().to_string(),
    }
}

/// Seed for the queue-churn microbenchmark's deterministic schedule.
const CHURN_SEED: u64 = 0x0051_EEED;

/// Drives a [`CalendarQueue`] through a hold-model churn — `live`
/// resident events, `ops` pop-then-push rounds with pseudo-random tick
/// deltas in 1..=64 — and folds every popped `(tick, payload)` into a
/// checksum. The identical schedule runs through [`heap_churn`]; equal
/// checksums prove the two schedulers emit the same total order.
#[must_use]
fn queue_churn(live: usize, ops: u64) -> u64 {
    let mut q: CalendarQueue<(), u64> = CalendarQueue::new();
    let mut rng = SplitMix64::new(CHURN_SEED ^ live as u64);
    for i in 0..live as u64 {
        q.push((rng.next_u64() & 63) + 1, (), i);
    }
    let mut checksum = 0u64;
    for _ in 0..ops {
        let (t, (), v) = q.pop().expect("churn queue stays populated");
        checksum = checksum.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(t ^ v);
        q.push(t + (rng.next_u64() & 63) + 1, (), v);
    }
    checksum
}

/// The `BinaryHeap` reference for [`queue_churn`]: same schedule, same
/// checksum, through a `Reverse<(tick, seq)>` heap — the scheduler both
/// engines used before the calendar queue.
#[must_use]
fn heap_churn(live: usize, ops: u64) -> u64 {
    let mut q: BinaryHeap<Reverse<(Tick, u64, u64)>> = BinaryHeap::new();
    let mut rng = SplitMix64::new(CHURN_SEED ^ live as u64);
    let mut seq = 0u64;
    for i in 0..live as u64 {
        q.push(Reverse(((rng.next_u64() & 63) + 1, seq, i)));
        seq += 1;
    }
    let mut checksum = 0u64;
    for _ in 0..ops {
        let Reverse((t, _, v)) = q.pop().expect("churn heap stays populated");
        checksum = checksum.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(t ^ v);
        q.push(Reverse((t + (rng.next_u64() & 63) + 1, seq, v)));
        seq += 1;
    }
    checksum
}

/// The event-scheduler microbenchmark row of `BENCH_hotpath.json`.
#[derive(Clone, Debug, ToJson)]
pub struct QueueMeasurement {
    /// Resident events held in the queue throughout the churn.
    pub live: usize,
    /// Pop-then-push rounds timed.
    pub ops: u64,
    /// Calendar-queue wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Calendar-queue rounds per second.
    pub ops_per_sec: f64,
    /// `BinaryHeap` reference wall-clock, milliseconds.
    pub heap_wall_ms: f64,
    /// `BinaryHeap` reference rounds per second.
    pub heap_ops_per_sec: f64,
    /// Order checksum (identical for both schedulers by construction —
    /// [`measure_queue`] asserts it — and deterministic, so it doubles
    /// as a cross-commit determinism check).
    pub checksum: u64,
}

/// Times the calendar queue against the `BinaryHeap` it replaced, through
/// the same hold-model churn at `live` resident events, and asserts
/// their order checksums agree.
///
/// # Panics
///
/// Panics when the calendar queue and the heap emit different orders —
/// a scheduler-equivalence violation that must fail the bench.
#[must_use]
pub fn measure_queue(live: usize, ops: u64) -> QueueMeasurement {
    // Warm both once so allocation warm-up is outside the timed region
    // (matching how the engines hold their queues across runs).
    let warm_q = queue_churn(live, ops);
    let warm_h = heap_churn(live, ops);
    assert_eq!(warm_q, warm_h, "calendar queue must emit the heap's exact order");

    let started = Instant::now();
    let checksum = queue_churn(live, ops);
    let wall = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let heap_checksum = heap_churn(live, ops);
    let heap_wall = started.elapsed().as_secs_f64();
    assert_eq!(checksum, heap_checksum, "checksums diverged between timed runs");

    QueueMeasurement {
        live,
        ops,
        wall_ms: wall * 1e3,
        ops_per_sec: ops as f64 / wall.max(1e-9),
        heap_wall_ms: heap_wall * 1e3,
        heap_ops_per_sec: ops as f64 / heap_wall.max(1e-9),
        checksum,
    }
}

/// The full `BENCH_hotpath.json` artifact.
#[derive(Clone, Debug, ToJson)]
pub struct HotpathReport {
    /// Artifact schema version. 2 added `queue` and the per-case
    /// `workload_cache_hits`; 3 added the per-case `lowering_fp`;
    /// 4 added the lane-batched columns (`lanes`, `batched_sim_cycles`,
    /// `batched_wall_ms`, `batched_cells_per_sec`, `batch_speedup`);
    /// 5 the distinct-seed lockstep (SIMD-path) columns
    /// (`lockstep_sim_cycles`, `lockstep_wall_ms`,
    /// `lockstep_cells_per_sec`, `lockstep_speedup`,
    /// `lockstep_occupancy`); 6 replaced the best-of-three fixed-count
    /// windows with the median of interleaved fixed-minimum-wall repeats
    /// (`warmup`, `repeats`, `min_wall_ms` and the `*_speedup_spread`
    /// columns replace `iters`; the wall columns became per dispatch).
    /// See `EXPERIMENTS.md`.
    pub schema: u32,
    /// Whether the fast (CI smoke) scale was used.
    pub fast: bool,
    /// One row per [`HOTPATH_CASES`] entry.
    pub cases: Vec<HotpathMeasurement>,
    /// The event-scheduler microbenchmark.
    pub queue: QueueMeasurement,
}

/// Current [`HotpathReport::schema`] version.
pub const HOTPATH_SCHEMA: u32 = 6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_checksums_agree_and_are_deterministic() {
        for live in [1usize, 7, 64, 700] {
            let a = queue_churn(live, 2_000);
            let b = heap_churn(live, 2_000);
            assert_eq!(a, b, "order parity at {live} live events");
            assert_eq!(a, queue_churn(live, 2_000), "deterministic at {live}");
        }
    }

    #[test]
    fn median_and_spread_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_and_spread(&[1.0, 2.0, 4.0]), (2.0, 1.5));
    }

    #[test]
    fn batched_lanes_match_scalar_cycles_on_both_engine_families() {
        // fft/baseline exercises the dataflow engine, blowfish/M the
        // MIMD engine; `run_batched_once` asserts per-lane agreement
        // internally, this pins batched == scalar across entry points.
        for case in [&HOTPATH_CASES[0], &HOTPATH_CASES[3]] {
            let mut prepared = prepare_case(case, 8);
            let scalar = prepared.run_once();
            assert_eq!(prepared.run_batched_once(4), scalar, "{} batched cycles", case.kernel);
        }
    }

    #[test]
    fn lockstep_fold_is_deterministic_on_both_engine_families() {
        for case in [&HOTPATH_CASES[0], &HOTPATH_CASES[3]] {
            let mut prepared = prepare_case(case, 8);
            let first = prepared.run_lockstep_once(4);
            assert_eq!(first, prepared.run_lockstep_once(4), "{} lockstep fold", case.kernel);
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
