//! The studies beyond the paper's tables, each a view of one shared
//! sweep (DESIGN.md's experiment index):
//!
//! | study | push | projection |
//! |---|---|---|
//! | A1–A3 mechanism ablations | [`push_ablation`] | [`print_ablation`] |
//! | X1 configuration space | [`push_configspace`] | [`print_configspace`] |
//! | X5 array-size scaling | [`push_scaling`] | [`print_scaling`] |
//! | X6 energy per subsystem | — (paper-grid cells) | [`print_energy`] |
//!
//! A `push_*` function adds the study's cells to a [`Sweep`] and returns
//! the range of cells it pushed; the matching `print_*` function prints
//! the study as markdown from the report restricted to that range
//! ([`SweepReport::view`]). Kernels are registered by name, so a cell
//! equal to one the paper grid or another study pushed shares its plan
//! and run. `report` runs the paper grid and every study in one
//! [`Sweep::run`].

use std::ops::Range;

use dlp_common::{DlpError, GridShape};
use dlp_core::{
    default_records, recommend, CellOutcome, CellSpec, EnergyModel, ExperimentParams,
    MachineConfig, Sweep, SweepReport,
};
use trips_sim::MechanismSet;

/// Pushes suite kernel `name` on the named `config` at
/// [`default_records`]`(name, scale)` records.
fn push_named(
    sweep: &mut Sweep,
    name: &str,
    config: MachineConfig,
    scale: usize,
    params: ExperimentParams,
    label: String,
) {
    let kernel = sweep.add_kernel_by_name(name).expect("suite kernel");
    let (mech, records) = (config.mechanisms(), default_records(name, scale));
    sweep.push_cell(CellSpec { kernel, config: Some(config), mech, records, params, label });
}

/// A1–A3: sweeps one knob per mechanism — the revitalize-broadcast
/// delay on S (convert), the L0 access latency on S-O-D (blowfish) and
/// the LMW width on S-O (highpassfilter).
pub fn push_ablation(sweep: &mut Sweep, scale: usize) -> Range<usize> {
    let start = sweep.len();
    let mut params = ExperimentParams::default();
    for delay in [1u64, 5, 20, 80] {
        params.timing.fetch.revitalize_delay = delay * 2;
        push_named(sweep, "convert", MachineConfig::S, scale, params, format!("A1 delay={delay}"));
    }
    let mut params = ExperimentParams::default();
    for lat in [1u64, 3, 8] {
        params.timing.mem.l0_latency = lat * 2;
        let label = format!("A2 latency={lat}");
        push_named(sweep, "blowfish", MachineConfig::SOD, scale, params, label);
    }
    let mut params = ExperimentParams::default();
    for width in [1u32, 2, 4, 8] {
        params.timing.mem.lmw_max_words = width;
        let label = format!("A3 width={width}");
        push_named(sweep, "highpassfilter", MachineConfig::SO, scale, params, label);
    }
    start..sweep.len()
}

/// Prints A1–A3 in simulated cycles from the [`push_ablation`] view.
///
/// # Errors
///
/// The first failed or mis-verified cell.
pub fn print_ablation(view: &SweepReport) -> Result<(), DlpError> {
    view.ensure_verified()?;
    let cycles = |prefix: &'static str| {
        view.cells.iter().filter_map(move |c| {
            let knob = c.label.strip_prefix(prefix)?;
            Some((knob, c.outcome.stats()?.cycles()))
        })
    };
    println!("## A1–A3 (mechanism ablations, simulated cycles)\n\n```text");
    println!("A1: revitalize delay sweep — convert on S (simulated cycles)");
    for (knob, cycles) in cycles("A1 delay=") {
        println!("  delay {knob:>3} cycles: {cycles:>8} cycles");
    }
    println!("\nA2: L0 latency sweep — blowfish on S-O-D (simulated cycles)");
    for (knob, cycles) in cycles("A2 latency=") {
        println!("  latency {knob:>2} cycles: {cycles:>8} cycles");
    }
    println!("\nA3: LMW width sweep — highpassfilter on S-O (simulated cycles)");
    for (knob, cycles) in cycles("A3 width=") {
        println!("  width {knob} words: {cycles:>8} cycles");
    }
    println!("```\n");
    Ok(())
}

/// X1: a representative kernel from each Figure 5 preference group on
/// every coherent mechanism combination ([`MechanismSet::all_coherent`]),
/// the space the paper says yields "as many as 20 different run-time
/// machine configurations" (§5.3) but evaluates five of.
pub fn push_configspace(sweep: &mut Sweep, scale: usize) -> Range<usize> {
    let start = sweep.len();
    for name in ["fft", "convert", "blowfish", "vertex-skinning"] {
        let kernel = sweep.add_kernel_by_name(name).expect("suite kernel");
        let (records, params) = (default_records(name, scale), ExperimentParams::default());
        for mech in MechanismSet::all_coherent() {
            let label = name.to_string();
            sweep.push_cell(CellSpec { kernel, config: None, mech, records, params, label });
        }
    }
    start..sweep.len()
}

/// Prints X1 from the [`push_configspace`] view: each kernel's
/// configurations ranked by simulated cycles. A cell that fails or
/// computes a wrong output is printed as such, not ranked.
pub fn print_configspace(view: &SweepReport) {
    println!("## X1 (configuration space, simulated cycles)\n\n```text");
    for cells in view.cells.chunk_by(|a, b| a.kernel == b.kernel) {
        println!("{} ({} records): cycles per configuration", cells[0].kernel, cells[0].records);
        let mut rows = Vec::new();
        for cell in cells {
            match &cell.outcome {
                CellOutcome::Ran { stats, mismatch: None } => {
                    rows.push((&cell.config, stats.cycles()));
                }
                CellOutcome::Ran { mismatch: Some(at), .. } => {
                    println!("  {:<40} WRONG OUTPUT at word {at}", cell.config);
                }
                CellOutcome::Failed { error, .. } => {
                    println!("  {:<40} unsupported: {error}", cell.config);
                }
                CellOutcome::Skipped { reason, .. } => {
                    println!("  {:<40} skipped: {reason}", cell.config);
                }
            }
        }
        rows.sort_by_key(|(_, c)| *c);
        for (i, (mech, cycles)) in rows.iter().enumerate() {
            let marker = if i == 0 { "  <= best" } else { "" };
            println!("  {mech:<40} {cycles:>10}{marker}");
        }
        println!();
    }
    println!(
        "the named Table 5 configurations (smc+inst-revit[+op-revit][+l0-data],\n\
         smc+local-pc[+l0-data]) should appear at or near the top of each list."
    );
    println!("```\n");
}

/// The array sizes X5 runs, as rows = columns.
const DIMS: [u8; 4] = [4, 8, 12, 16];

/// X5: representative kernels on each one's recommended configuration,
/// on 4×4 through 16×16 arrays — the "technology scalability" the paper
/// chooses the grid substrate for (§4).
pub fn push_scaling(sweep: &mut Sweep, scale: usize) -> Range<usize> {
    let start = sweep.len();
    for name in ["convert", "fft", "blowfish", "vertex-simple"] {
        let id = sweep.add_kernel_by_name(name).expect("suite kernel");
        let config = recommend(&sweep.kernel(id).ir().attributes()).config;
        for dim in DIMS {
            let params =
                ExperimentParams { grid: GridShape::new(dim, dim), ..ExperimentParams::default() };
            push_named(sweep, name, config, scale, params, format!("{dim}x{dim}"));
        }
    }
    start..sweep.len()
}

/// Prints X5 in useful ops per cycle from the [`push_scaling`] view.
///
/// # Errors
///
/// The first failed or mis-verified cell.
pub fn print_scaling(view: &SweepReport) -> Result<(), DlpError> {
    view.ensure_verified()?;
    println!("## X5 (array-size scaling, useful ops/cycle on each kernel's recommended config)\n");
    println!("```text");
    println!("{:<18} {:>8} {:>8} {:>8} {:>8}", "kernel", "4x4", "8x8", "12x12", "16x16");
    for cells in view.cells.chunks(DIMS.len()) {
        let ops: Vec<f64> =
            cells.iter().map(|c| c.outcome.stats().map_or(0.0, |s| s.ops_per_cycle().0)).collect();
        println!(
            "{:<18} {:>8.1} {:>8.1} {:>8.1} {:>8.1}   ({})",
            cells[0].kernel, ops[0], ops[1], ops[2], ops[3], cells[0].config
        );
    }
    println!("\nthroughput should grow with the array; perfectly linear scaling would");
    println!("quadruple from 4x4 to 8x8 and again to 16x16 (memory ports scale with rows).");
    println!("```\n");
    Ok(())
}

/// Prints X6 — energy per record by subsystem, the §7 future-work
/// metric — from the paper grid's view: baseline, S, S-O, S-O-D and M-D
/// on convert, blowfish and vertex-skinning. Each mechanism's benefit
/// shows up in the subsystem it relieves.
///
/// # Errors
///
/// The first failed or mis-verified cell, and [`DlpError::Internal`]
/// naming a cell the view lacks.
pub fn print_energy(grid: &SweepReport) -> Result<(), DlpError> {
    grid.ensure_verified()?;
    const KERNELS: [&str; 3] = ["convert", "blowfish", "vertex-skinning"];
    let model = EnergyModel::default();
    let w = KERNELS.iter().map(|k| k.len()).max().unwrap_or(0);
    println!("## X6 (energy per record by subsystem, nJ)\n\n```text");
    println!(
        "{:<w$} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "kernel", "config", "alu", "network", "regfile", "l1", "smc", "l0", "fetch", "total"
    );
    for name in KERNELS {
        for config in [
            MachineConfig::Baseline,
            MachineConfig::S,
            MachineConfig::SO,
            MachineConfig::SOD,
            MachineConfig::MD,
        ] {
            let (stats, records) = grid.ran_cell(name, config)?;
            // Approximate mapped-block size for fetch energy: each
            // iteration executes the block once, so ops/iteration is the
            // block's instruction count.
            let block_insts = (stats.total_ops() / stats.iterations.max(1)) as usize;
            let b = model.breakdown(stats, block_insts);
            let per = records as f64;
            println!(
                "{:<w$} {:>8} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9.2}",
                name,
                config.to_string(),
                b.alu_nj / per,
                b.network_nj / per,
                b.regfile_nj / per,
                b.l1_nj / per,
                b.smc_nj / per,
                b.l0_nj / per,
                b.fetch_nj / per,
                b.total_nj() / per,
            );
        }
        println!();
    }
    println!(
        "watch: S-O cuts the register-file column (operand revitalization);\n\
         S-O-D/M-D move lookup traffic from l1 to the cheap l0 column;\n\
         revitalization/local PCs cut fetch relative to the baseline."
    );
    println!("```\n");
    Ok(())
}
