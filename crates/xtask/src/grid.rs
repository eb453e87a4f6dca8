//! `analyze-grid`: lowers every suite kernel for every published
//! machine configuration through `prepare_kernel` and asks two things of
//! each lowering:
//!
//! * legality — did the static verifier accept it? Any rejected
//!   lowering is counted in `failures` and fails the command;
//! * semantics — what `W*` warnings did the analyzer attach (DESIGN.md
//!   §13), what is the sound cycle bound, and how long did analysis take
//!   per kernel? `--deny-warnings` makes any warning fatal, `--budget N`
//!   pins a ceiling, and `--json <path>` writes the machine-readable
//!   artifact CI uploads.

use std::process::ExitCode;
use std::time::Instant;

use dlp_common::json::ToJson;

/// Records per cell — matches the experiment grid's default.
const RECORDS: usize = 64;

/// One lowering of the kernel × configuration grid.
struct GridCell {
    /// Kernel name.
    kernel: &'static str,
    /// Configuration display name.
    config: String,
    /// The prepared plan, or the verifier/scheduler rejection.
    result: Result<dlp_core::PreparedProgram, dlp_common::DlpError>,
    /// Host wall-clock spent lowering + analyzing this cell, in
    /// milliseconds.
    prepare_ms: f64,
}

/// Lower the full grid, timing each `prepare_kernel` call.
fn walk_grid() -> Vec<GridCell> {
    let params = dlp_core::ExperimentParams::default();
    let kernels = dlp_kernels::suite();
    let mut cells = Vec::new();
    for config in dlp_core::MachineConfig::ALL {
        for kernel in &kernels {
            let started = Instant::now();
            let result =
                dlp_core::prepare_kernel(kernel.as_ref(), config.mechanisms(), RECORDS, &params);
            cells.push(GridCell {
                kernel: kernel.name(),
                config: config.to_string(),
                result,
                prepare_ms: started.elapsed().as_secs_f64() * 1e3,
            });
        }
    }
    cells
}

/// One analyzer finding, flattened for the JSON artifact.
#[derive(ToJson)]
struct WarningRow {
    code: String,
    span: String,
    detail: String,
}

/// One analyzed grid cell in the JSON artifact.
#[derive(ToJson)]
struct AnalyzedCell {
    kernel: String,
    config: String,
    prepare_ms: f64,
    bound_cycles: u64,
    estimate_ticks: u64,
    warnings: Vec<WarningRow>,
}

/// The `analyze-grid` artifact: every cell plus the headline counters
/// the CI gate reads.
#[derive(ToJson)]
struct AnalyzeReport {
    records: usize,
    lowerings: usize,
    failures: usize,
    total_warnings: usize,
    cells: Vec<AnalyzedCell>,
}

/// `analyze-grid`: run the semantic analyzer over the full grid and
/// report warnings, sound cycle bounds, and per-kernel analysis time.
pub fn analyze_grid(args: &[String]) -> ExitCode {
    let mut deny_warnings = false;
    let mut budget: Option<usize> = None;
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--budget" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => budget = Some(n),
                None => {
                    eprintln!("analyze-grid: --budget needs a count");
                    return ExitCode::FAILURE;
                }
            },
            "--json" => match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => {
                    eprintln!("analyze-grid: --json needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("analyze-grid: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let cells = walk_grid();
    let mut report = AnalyzeReport {
        records: RECORDS,
        lowerings: cells.len(),
        failures: 0,
        total_warnings: 0,
        cells: Vec::with_capacity(cells.len()),
    };
    for cell in &cells {
        match &cell.result {
            Ok(prepared) => {
                let analysis = prepared.analysis();
                for w in &analysis.warnings {
                    println!("analyze-grid: {} on {}: {w}", cell.kernel, cell.config);
                }
                report.total_warnings += analysis.warnings.len();
                report.cells.push(AnalyzedCell {
                    kernel: cell.kernel.to_string(),
                    config: cell.config.clone(),
                    prepare_ms: cell.prepare_ms,
                    bound_cycles: prepared.bound_cycles(RECORDS),
                    estimate_ticks: prepared.estimate_ticks(RECORDS),
                    warnings: analysis
                        .warnings
                        .iter()
                        .map(|w| WarningRow {
                            code: w.code.to_string(),
                            span: w.span.clone(),
                            detail: w.detail.clone(),
                        })
                        .collect(),
                });
            }
            Err(e) => {
                report.failures += 1;
                eprintln!("analyze-grid: {} on {}: lowering failed: {e}", cell.kernel, cell.config);
            }
        }
    }

    // Per-kernel analysis time: the sum over its configurations, so a
    // pathological kernel (schedule blowup, interval divergence) shows
    // up by name rather than hiding in the grid total.
    let kernels = dlp_kernels::suite();
    for k in &kernels {
        let ms: f64 =
            cells.iter().filter(|c| c.kernel == k.name()).map(|c| c.prepare_ms).sum();
        println!("analyze-grid: {:<16} analyzed in {ms:8.2} ms", k.name());
    }
    println!(
        "analyze-grid: {} lowerings, {} warnings, {} failures",
        report.lowerings, report.total_warnings, report.failures
    );

    if let Some(path) = &json_path {
        let json = dlp_common::json::to_string(&report);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("analyze-grid: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("analyze-grid: artifact written to {path}");
    }

    let ceiling = if deny_warnings { Some(0) } else { budget };
    if let Some(max) = ceiling {
        if report.total_warnings > max {
            eprintln!(
                "analyze-grid: {} warnings exceed the budget of {max}",
                report.total_warnings
            );
            return ExitCode::FAILURE;
        }
    }
    if report.failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
