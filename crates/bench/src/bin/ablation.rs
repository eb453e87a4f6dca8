//! Mechanism ablations in *simulated cycles* (experiments A1–A3 of
//! DESIGN.md): sweep one knob per mechanism and report the simulated
//! cost, verified.
//!
//! All three sweeps are batched into one parallel [`Sweep`]; cells carry
//! their own timing parameters, so the schedule cache still collapses
//! cells whose knob does not affect lowering.
//!
//! Pass `--quick` for smoke-scale workloads.

use dlp_bench::Args;
use dlp_core::{default_records, CellSpec, ExperimentParams, MachineConfig, Sweep};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = Args::from_env();
    let quick = args.switch("--quick");
    args.finish()?;
    let scale = usize::from(!quick);
    let mut sweep = Sweep::new();

    // A1: revitalize-broadcast delay on the S machine (convert).
    let convert = sweep.add_kernel_by_name("convert").expect("kernel");
    for delay_cycles in [1u64, 5, 20, 80] {
        let mut params = ExperimentParams::default();
        params.timing.fetch.revitalize_delay = delay_cycles * 2;
        sweep.push_cell(CellSpec {
            kernel: convert,
            config: Some(MachineConfig::S),
            mech: MachineConfig::S.mechanisms(),
            records: default_records("convert", scale),
            params,
            label: format!("A1 delay={delay_cycles}"),
        });
    }

    // A2: L0 access latency on the S-O-D machine (blowfish).
    let blowfish = sweep.add_kernel_by_name("blowfish").expect("kernel");
    for lat in [1u64, 3, 8] {
        let mut params = ExperimentParams::default();
        params.timing.mem.l0_latency = lat * 2;
        sweep.push_cell(CellSpec {
            kernel: blowfish,
            config: Some(MachineConfig::SOD),
            mech: MachineConfig::SOD.mechanisms(),
            records: default_records("blowfish", scale),
            params,
            label: format!("A2 latency={lat}"),
        });
    }

    // A3: LMW width on the S-O machine (highpassfilter).
    let highpass = sweep.add_kernel_by_name("highpassfilter").expect("kernel");
    for width in [1u32, 2, 4, 8] {
        let mut params = ExperimentParams::default();
        params.timing.mem.lmw_max_words = width;
        sweep.push_cell(CellSpec {
            kernel: highpass,
            config: Some(MachineConfig::SO),
            mech: MachineConfig::SO.mechanisms(),
            records: default_records("highpassfilter", scale),
            params,
            label: format!("A3 width={width}"),
        });
    }

    let report = sweep.run();
    report.ensure_verified()?;

    println!("A1: revitalize delay sweep — convert on S (simulated cycles)");
    for cell in report.cells.iter().filter(|c| c.label.starts_with("A1")) {
        let knob = cell.label.trim_start_matches("A1 delay=");
        let stats = cell.outcome.stats().expect("verified");
        println!("  delay {knob:>3} cycles: {:>8} cycles", stats.cycles());
    }
    println!("\nA2: L0 latency sweep — blowfish on S-O-D (simulated cycles)");
    for cell in report.cells.iter().filter(|c| c.label.starts_with("A2")) {
        let knob = cell.label.trim_start_matches("A2 latency=");
        let stats = cell.outcome.stats().expect("verified");
        println!("  latency {knob:>2} cycles: {:>8} cycles", stats.cycles());
    }
    println!("\nA3: LMW width sweep — highpassfilter on S-O (simulated cycles)");
    for cell in report.cells.iter().filter(|c| c.label.starts_with("A3")) {
        let knob = cell.label.trim_start_matches("A3 width=");
        let stats = cell.outcome.stats().expect("verified");
        println!("  width {knob} words: {:>8} cycles", stats.cycles());
    }
    println!(
        "\n({} cells on {} workers, {} schedules prepared, {} reused, {:.0} ms)",
        report.cells.len(),
        report.threads,
        report.plans_prepared,
        report.plan_reuses,
        report.wall_ms
    );
    Ok(())
}
