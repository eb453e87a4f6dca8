//! perfbench — the sweep benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-cold --seed 1 --seconds 15 --trace 0
//! ```
//!
//! With `--trace 0` the run sets up, times fresh `Sweep::run`s of the
//! workload for `--seconds` seconds on two workers, and prints the
//! end-to-end metrics. With `--trace 1` it runs the workload once on two
//! workers and once on one, replays it serially through the layers'
//! public functions with a span around every call, and prints the
//! per-layer metrics. Either way every cell is checked against its
//! kernel's reference; a failed or mismatched cell is counted, never
//! fatal. The last line of standard output is the JSON result. See
//! README.md for the workloads and the metric → layer → workload map.

mod metrics;
mod tally;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;

use dlp_core::specialized::{paper_reference, Units};
use dlp_core::{
    default_records, recommend, CellOutcome, ExperimentParams, ResultStore, SweepReport,
};
use dlp_kernels::suite;

use metrics::{result_line, Metric, END_TO_END, PER_LAYER};
use tally::{ratio, Reps, SimTotals, Tally};
use trace::traced_pass;
use workload::{build_sweep, Cell, Workload, WORKERS};

/// Set-up samples per `--trace 0` run: this process plus child
/// processes that only set up.
const SETUP_SAMPLES: usize = 5;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: set up, print the set-up time, and exit.
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--setup-probe",
    ];
    for (i, a) in args.iter().enumerate() {
        let is_value = i > 0 && known[..4].contains(&args[i - 1].as_str());
        if !is_value && !known.contains(&a.as_str()) {
            return Err(format!("unknown argument {a}"));
        }
    }
    let name = value("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name} (one of {})", names.join(", "))
    })?;
    let seed = value("--seed")
        .map_or(Ok(ExperimentParams::default().seed), str::parse)
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")
        .map_or(Ok(10), str::parse)
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1) as f64,
        trace,
        setup_probe: args.iter().any(|a| a == "--setup-probe"),
    })
}

/// A per-process working directory inside the benchmark's own
/// directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = out_dir().join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where runs keep their stores and traces.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What set-up leaves for the timed runs.
struct Setup {
    /// Suite construction plus the first IR of every kernel, which
    /// fills the process-wide tables (blowfish's π boxes, AES).
    kernels_init_ms: f64,
    /// `store-rerun`: the template store every timed run starts from.
    template: Option<PathBuf>,
}

fn setup(w: Workload, seed: u64, dir: &Path) -> Result<Setup, String> {
    let started = Instant::now();
    for kernel in suite().into_iter().filter(|k| k.in_perf_suite()) {
        std::hint::black_box(kernel.ir());
    }
    let kernels_init_ms = started.elapsed().as_secs_f64() * 1e3;
    let template = if w.uses_store() {
        let path = dir.join("template");
        let store = open_store(&path)?;
        let report = build_sweep(&w.template_cells(seed), WORKERS, Some(store)).run();
        println!(
            "template store: {} cells executed, {} failed",
            report.cells_executed,
            Tally::of(&report).failed()
        );
        Some(path)
    } else {
        None
    };
    Ok(Setup {
        kernels_init_ms,
        template,
    })
}

fn open_store(path: &Path) -> Result<Arc<ResultStore>, String> {
    ResultStore::open(path)
        .map(Arc::new)
        .map_err(|e| format!("opening store {}: {e}", path.display()))
}

/// A fresh copy of the template store, for one sweep.
fn fresh_store(setup: &Setup, dir: &Path, tag: &str) -> Result<Option<Arc<ResultStore>>, String> {
    let Some(template) = &setup.template else {
        return Ok(None);
    };
    let path = dir.join(tag);
    let _ = std::fs::remove_dir_all(&path);
    copy_tree(template, &path).map_err(|e| format!("copying the template store: {e}"))?;
    open_store(&path).map(Some)
}

/// Copy a store directory, leaving out its lock file, and make the copy
/// durable: the timed sweep syncs each entry it writes, and a sync must
/// not also flush this copy's dirty pages.
fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else if entry.file_name() != "LOCK" {
            std::fs::copy(entry.path(), &target)?;
            std::fs::File::open(&target)?.sync_all()?;
        }
    }
    std::fs::File::open(to)?.sync_all()
}

/// Peak resident set size of this process, in MB (10^6 bytes).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Reset this process's peak resident set (`VmHWM`) to its current
/// resident set, so that the next [`peak_rss_mb`] is the peak since now.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Simulated-model fidelity at `seed`: the mean over the Table 6 rows
/// of |ln(ours / paper)|, i.e. the log of the geometric-mean factor by
/// which the simulated TRIPS column differs from the published one.
///
/// Runs the thirteen Table 6 cells (each kernel on its recommended
/// configuration, `default_records(.., 1)`) as one sweep and converts
/// each to the row's units as `dlp_core::specialized::table6` does. A
/// row whose cell does not verify is left out and counted as failed.
fn table6_err(seed: u64) -> (f64, Tally) {
    let reference = paper_reference();
    let cells: Vec<Cell> = reference
        .iter()
        .map(|&(kernel, ..)| {
            let k = suite()
                .into_iter()
                .find(|k| k.name() == kernel)
                .expect("suite kernel");
            let config = recommend(&k.ir().attributes()).config;
            Cell {
                kernel,
                config,
                records: default_records(kernel, 1),
                seed,
            }
        })
        .collect();
    let report = build_sweep(&cells, WORKERS, None).run();
    let mut logs = Vec::new();
    for ((_, paper, _, _, units), cell) in reference.iter().zip(&report.cells) {
        let (
            Some(paper),
            CellOutcome::Ran {
                stats,
                mismatch: None,
            },
        ) = (paper, &cell.outcome)
        else {
            continue;
        };
        let cycles_per_record = stats.cycles() as f64 / cell.records.max(1) as f64;
        let ours = match units {
            Units::OpsPerCycle => stats.ops_per_cycle().0,
            Units::CyclesPerBlock => cycles_per_record,
            Units::KiloItersPerSec => 1.3e9 / (cycles_per_record * 64.0) / 1e3,
            Units::MFragmentsPerSec => 450.0e6 / cycles_per_record / 1e6,
            Units::MTrianglesPerSec => 2.4e9 / cycles_per_record / 1e6,
        };
        logs.push((ours / paper).ln().abs());
    }
    (
        logs.iter().sum::<f64>() / logs.len().max(1) as f64,
        Tally::of(&report),
    )
}

/// Time one sweep run.
fn timed_run(
    w: Workload,
    seed: u64,
    threads: usize,
    store: Option<Arc<ResultStore>>,
) -> (SweepReport, f64) {
    let sweep = build_sweep(&w.cells(seed), threads, store);
    let started = Instant::now();
    let report = sweep.run();
    (report, started.elapsed().as_secs_f64())
}

fn print_metrics(table: &[Metric], values: &[(&str, f64)]) {
    for metric in table {
        if let Some((_, value)) = values.iter().find(|(name, _)| *name == metric.name) {
            println!(
                "{:<32} {value:>16.6} {:<9} ({} is better)",
                metric.name, metric.unit, metric.better
            );
        }
    }
}

fn print_failures(tally: &Tally) {
    for line in &tally.failures {
        println!("  FAILED {line}");
    }
}

/// `--trace 0`: end-to-end metrics.
fn end_to_end(args: &Args, process_start: Instant, dir: &Path) -> Result<String, String> {
    let (w, seed) = (args.workload, args.seed);
    let setup = setup(w, seed, dir)?;
    let mut setup_s = vec![process_start.elapsed().as_secs_f64()];
    let setup_peak_mb = peak_rss_mb()?;
    for _ in 1..SETUP_SAMPLES {
        setup_s.push(setup_probe_in_child(args)?);
    }

    let (mut rates, mut peaks_mb) = (Vec::new(), Vec::new());
    let mut reps = Reps::default();
    let timed_start = Instant::now();
    while rates.is_empty() || timed_start.elapsed().as_secs_f64() < args.seconds {
        let rep = rates.len();
        let store = fresh_store(&setup, dir, &format!("rep-{rep}"))?;
        reset_peak_rss()?;
        let (report, wall_s) = timed_run(w, seed, WORKERS, store);
        peaks_mb.push(peak_rss_mb()?);
        let _ = std::fs::remove_dir_all(dir.join(format!("rep-{rep}")));
        let tally = Tally::of(&report);
        println!(
            "rep {rep}: {} cells, {} verified, {} executed, in {:.1} ms, peak RSS {:.1} MB",
            tally.attempted,
            tally.verified,
            report.cells_executed,
            wall_s * 1e3,
            peaks_mb[rep]
        );
        if rep == 0 {
            print_failures(&tally);
        }
        rates.push(tally.verified as f64 / wall_s);
        if !reps.add(&report) {
            println!("GATE: rep {rep}'s canonical report differs from rep 0's");
        }
    }
    let (mut attempted, mut failed) = (reps.tally.attempted, reps.tally.failed());
    let (table6_err, table6_tally) = table6_err(seed);
    print_failures(&table6_tally);
    attempted += table6_tally.attempted;
    failed += table6_tally.failed();
    let values = [
        ("cells_per_s", median(&mut rates)),
        ("setup_s", median(&mut setup_s)),
        // What one CLI run peaks at: set-up, then a single sweep.
        ("peak_rss_mb", setup_peak_mb.max(median(&mut peaks_mb))),
        ("table6_err", table6_err),
    ];
    print_metrics(END_TO_END, &values);
    Ok(result_line(
        reps.deterministic,
        attempted,
        failed,
        END_TO_END,
        &values,
    ))
}

/// Run this program again in set-up-only mode and return the set-up
/// time it reports.
fn setup_probe_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("starting a set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("set-up probe printed no time: {stdout}"))
}

/// `--trace 1`: per-layer metrics.
fn per_layer(args: &Args, dir: &Path) -> Result<String, String> {
    let (w, seed) = (args.workload, args.seed);
    let setup = setup(w, seed, dir)?;
    let cells = w.cells(seed);

    let (parallel, parallel_s) = timed_run(w, seed, WORKERS, fresh_store(&setup, dir, "par")?);
    let (serial, serial_s) = timed_run(w, seed, 1, fresh_store(&setup, dir, "ser")?);
    let traced = traced_pass(&cells, fresh_store(&setup, dir, "traced")?);
    let tracer = &traced.tracer;
    let trace_path = out_dir().join(format!("trace-{}.jsonl", w.name()));
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    println!(
        "spans: {} written to {}",
        tracer.spans().len(),
        trace_path.display()
    );

    // Correctness gate: worker count and tracing change nothing.
    let tally = Tally::of(&parallel);
    print_failures(&tally);
    let mut correct = true;
    if parallel.canonical_json() != serial.canonical_json() {
        println!("GATE: the 2-worker and 1-worker canonical reports differ");
        correct = false;
    }
    for (cell, traced_result) in serial.cells.iter().zip(&traced.results) {
        let untraced = match &cell.outcome {
            CellOutcome::Ran { stats, mismatch } => Some((*stats, *mismatch)),
            _ => None,
        };
        if untraced != *traced_result {
            println!(
                "GATE: traced {}/{} differs from the untraced run",
                cell.kernel, cell.config
            );
            correct = false;
        }
    }
    let totals = SimTotals::of(&serial);

    let layers = tracer.layer_ms();
    let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let attributed_ms: f64 = layers.values().sum();
    let serial_ms = serial_s * 1e3;
    println!(
        "coverage: layers account for {attributed_ms:.1} ms of the {serial_ms:.1} ms serial wall \
         ({:.1}%)",
        100.0 * attributed_ms / serial_ms
    );
    for (name, ms) in &layers {
        println!("  {name:<22} {ms:>10.3} ms");
    }
    let sim_ms = layer("sim.scalar") + layer("sim.lockstep");
    let host_ns_per_cycle = if traced.executed_cycles == 0 {
        0.0
    } else {
        sim_ms * 1e6 / traced.executed_cycles as f64
    };
    let n = parallel.cells.len() as u64;
    let values = [
        ("kernels.init_ms", setup.kernels_init_ms),
        ("kernels.ir_ms", layer("kernels.ir")),
        ("kernels.ir_calls", tracer.count("kernels.ir") as f64),
        ("kernels.workload_ms", layer("kernels.workload")),
        (
            "kernels.workloads_generated",
            parallel.workload_cache_misses as f64,
        ),
        ("sched.unroll_probe_ms", layer("sched.unroll_probe")),
        ("sched.schedule_ms", layer("sched.schedule")),
        ("sched.mimd_ms", layer("sched.mimd")),
        ("sched.lowerings", parallel.plans_prepared as f64),
        ("verify.legality_ms", layer("verify.legality")),
        ("verify.analyze_ms", layer("verify.analyze")),
        ("verify.warnings", parallel.analysis_warnings as f64),
        ("sim.scalar_ms", layer("sim.scalar")),
        ("sim.lockstep_ms", layer("sim.lockstep")),
        ("sim.host_ns_per_cycle", host_ns_per_cycle),
        ("sim.cycles", totals.cycles as f64),
        ("sim.useful_ops", totals.useful_ops as f64),
        ("sim.useful_op_ratio", totals.useful_op_ratio()),
        ("sim.net_hops", totals.net_hops as f64),
        ("sim.loads", totals.loads as f64),
        ("sim.smc_accesses", totals.smc_accesses as f64),
        (
            "sim.mem_stall_node_cycles",
            totals.mem_stall_node_cycles as f64,
        ),
        ("sim.revitalizations", totals.revitalizations as f64),
        ("sim.mimd_fetches", totals.mimd_fetches as f64),
        ("sim.l1_miss_ratio", totals.l1_miss_ratio()),
        ("runner.verify_ms", layer("runner.verify")),
        ("sweep.keys_ms", layer("sweep.keys")),
        ("sweep.worker_util", worker_util(&parallel, parallel_s)),
        (
            "sweep.plan_reuse_ratio",
            ratio(parallel.plan_reuses as u64, n),
        ),
        (
            "sweep.workload_cache_hit_ratio",
            ratio(
                parallel.workload_cache_hits,
                parallel.workload_cache_hits + parallel.workload_cache_misses,
            ),
        ),
        ("sweep.cells_batched", parallel.cells_batched as f64),
        ("sweep.batch_occupancy", parallel.batch_occupancy),
        ("sweep.other_ms", serial_ms - attributed_ms),
        ("store.get_ms", layer("store.get")),
        ("store.put_ms", layer("store.put")),
        (
            "store.hit_ratio",
            ratio(
                parallel.store_hits,
                parallel.store_hits + parallel.store_misses,
            ),
        ),
        ("store.bytes_written", traced.store_bytes_written as f64),
        (
            "trace.overhead_frac",
            tracer.traced_wall_ms() / serial_ms - 1.0,
        ),
        (
            "fail_frac",
            ratio(tally.failed() as u64, tally.attempted as u64),
        ),
    ];
    print_metrics(PER_LAYER, &values);
    Ok(result_line(
        correct,
        tally.attempted,
        tally.failed(),
        PER_LAYER,
        &values,
    ))
}

/// Busy share of the workers: the cells' execution time over workers ×
/// wall. A lane-batched group reports its whole dispatch time on every
/// member, so members of one kernel/configuration with bit-identical
/// times count once.
fn worker_util(report: &SweepReport, wall_s: f64) -> f64 {
    let mut seen: Vec<(&str, &str, u64)> = Vec::new();
    let mut busy_ms = 0.0;
    for cell in &report.cells {
        let key = (
            cell.kernel.as_str(),
            cell.config.as_str(),
            cell.wall_ms.to_bits(),
        );
        if !seen.contains(&key) {
            seen.push(key);
            busy_ms += cell.wall_ms;
        }
    }
    busy_ms / (report.threads as f64 * wall_s * 1e3)
}

fn run(args: &Args, process_start: Instant) -> Result<String, String> {
    let dir = WorkDir::create()?;
    if args.setup_probe {
        setup(args.workload, args.seed, &dir.0)?;
        return Ok(format!("setup_s {}", process_start.elapsed().as_secs_f64()));
    }
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        per_layer(args, &dir.0)
    } else {
        end_to_end(args, process_start, &dir.0)
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let result = parse_args().and_then(|args| run(&args, process_start));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
