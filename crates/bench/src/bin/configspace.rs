//! The full configuration space: the paper notes the mechanisms "can be
//! combined in different ways … to produce as many as 20 different
//! run-time machine configurations" (§5.3) but evaluates five. This sweep
//! runs a representative kernel from each Figure 5 preference group on
//! *every* coherent mechanism combination, confirming that the named
//! Table 5 configurations dominate the space for their kernels.
//!
//! The whole kernel × mechanism-set grid runs as one parallel [`Sweep`]
//! batch; unsupported combinations surface as per-cell failures rather
//! than aborting the sweep.
//!
//! Pass `--quick` for smoke-scale workloads.

use dlp_bench::Args;
use dlp_core::{default_records, CellOutcome, CellSpec, ExperimentParams, Sweep};
use trips_sim::MechanismSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = Args::from_env();
    let quick = args.switch("--quick");
    args.finish()?;
    let params = ExperimentParams::default();
    let space = MechanismSet::all_coherent();
    let names = ["fft", "convert", "blowfish", "vertex-skinning"];

    let mut sweep = Sweep::new();
    for name in names {
        let id = sweep.add_kernel_by_name(name).expect("kernel");
        for mech in &space {
            sweep.push_cell(CellSpec {
                kernel: id,
                config: None,
                mech: *mech,
                records: default_records(name, usize::from(!quick)),
                params,
                label: name.to_string(),
            });
        }
    }
    let report = sweep.run();

    for name in names {
        let cells: Vec<_> = report.cells.iter().filter(|c| c.kernel == name).collect();
        let records = cells.first().map_or(0, |c| c.records);
        println!("{name} ({records} records): cycles per configuration");
        let mut rows = Vec::new();
        for cell in cells {
            match &cell.outcome {
                CellOutcome::Ran { stats, mismatch: None } =>
                    rows.push((cell.config.clone(), stats.cycles())),
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
    println!(
        "({} cells on {} workers, {} schedules prepared, {:.0} ms)",
        report.cells.len(),
        report.threads,
        report.plans_prepared,
        report.wall_ms
    );
    Ok(())
}
