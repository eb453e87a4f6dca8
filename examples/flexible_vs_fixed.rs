//! The Figure 5 headline, live: run every benchmark on every
//! configuration, print per-kernel speedups grouped by preferred machine,
//! and the flexible architecture's harmonic-mean advantage over each fixed
//! configuration (the paper's 5%–55%).
//!
//! ```sh
//! cargo run --release --example flexible_vs_fixed           # standard scale
//! cargo run --release --example flexible_vs_fixed -- --quick
//! ```

use dlp_core::{ExperimentParams, Figure5, MachineConfig, Sweep};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut sweep = Sweep::new();
    let ids = sweep.add_perf_suite();
    sweep.push_paper_grid(&ids, &ExperimentParams::default(), usize::from(!quick));
    let fig = Figure5::from_report(&sweep.run())?;

    println!("speedup over baseline (execution cycles), per configuration\n");
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>7} {:>7}   best   recommended",
        "benchmark", "S", "S-O", "S-O-D", "M", "M-D"
    );
    for row in &fig.rows {
        println!(
            "{:<22} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2}   {:<5}  {}",
            row.kernel,
            row.speedup[&MachineConfig::S],
            row.speedup[&MachineConfig::SO],
            row.speedup[&MachineConfig::SOD],
            row.speedup[&MachineConfig::M],
            row.speedup[&MachineConfig::MD],
            row.best.to_string(),
            row.recommended
        );
    }

    println!("\nharmonic-mean speedup over baseline:");
    println!("  flexible (per-kernel recommended config): {:.2}x", fig.summary.flexible_hm);
    for (config, hm) in &fig.summary.fixed_hm {
        let adv = fig.summary.advantage_over.get(config).copied().unwrap_or(0.0);
        println!("  fixed {config:<6}: {hm:.2}x   (flexible is {:+.0}% better)", adv * 100.0);
    }
    println!("\npaper (Figure 5): flexible beats fixed S by 55%, S-O by 20%, M-D by 5%");
    Ok(())
}
