//! Regenerates Figure 5: speedup of each machine configuration over the
//! baseline, per benchmark (grouped by preferred configuration), plus the
//! flexible architecture's harmonic-mean bars.
//!
//! Pass `--quick` for smoke-scale workloads.

use dlp_bench::Args;
use dlp_core::{flexible, ExperimentParams, MachineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = Args::from_env();
    let quick = args.switch("--quick");
    args.finish()?;
    let params = ExperimentParams::default();
    let fig = flexible(&params, if quick { 0 } else { 1 })?;

    println!(
        "Figure 5: speedup over baseline per configuration{}\n",
        if quick { " [--quick]" } else { "" }
    );
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>7} {:>7}   best  (recommended)",
        "benchmark", "S", "S-O", "S-O-D", "M", "M-D"
    );
    // Group rows by preferred configuration like the paper's figure.
    let mut rows = fig.rows.clone();
    rows.sort_by_key(|r| (r.recommended, r.kernel.clone()));
    for row in &rows {
        println!(
            "{:<22} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2}   {:<5} ({})",
            row.kernel,
            row.speedup[&MachineConfig::S],
            row.speedup[&MachineConfig::SO],
            row.speedup[&MachineConfig::SOD],
            row.speedup[&MachineConfig::M],
            row.speedup[&MachineConfig::MD],
            row.best.to_string(),
            row.recommended,
        );
    }
    println!("\nFlexible architecture (harmonic mean of per-kernel recommended configs):");
    println!("  flexible: {:.2}x over baseline", fig.summary.flexible_hm);
    for config in MachineConfig::DLP {
        let hm = fig.summary.fixed_hm[&config];
        let adv = fig.summary.advantage_over.get(&config).copied().unwrap_or(0.0) * 100.0;
        println!("  vs fixed {config:<6}: {hm:.2}x   flexible {adv:+.0}%");
    }
    println!("\npaper: flexible is +55% vs fixed S, +20% vs fixed S-O, +5% vs fixed M-D");
    Ok(())
}
