//! Regenerates Table 6: TRIPS with the DLP mechanisms vs specialized
//! hardware (published numbers).
//!
//! Pass `--quick` for smoke-scale workloads.

use dlp_bench::Args;
use dlp_core::specialized::table6;
use dlp_core::ExperimentParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = Args::from_env();
    let quick = args.switch("--quick");
    args.finish()?;
    let params = ExperimentParams::default();
    let rows = table6(&params, if quick { 0 } else { 1 })?;

    println!(
        "Table 6: performance comparison to specialized hardware{}\n",
        if quick { " [--quick]" } else { "" }
    );
    println!(
        "{:<22} {:>12} {:>12} {:>12}  {:<24} units",
        "benchmark", "ours", "paper-TRIPS", "specialized", "hardware"
    );
    for r in rows {
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.1}"));
        println!(
            "{:<22} {:>12.1} {:>12} {:>12}  {:<24} {}{}",
            r.kernel,
            r.trips,
            fmt(r.paper_trips),
            fmt(r.specialized),
            r.hardware,
            r.units.label(),
            if r.units.smaller_is_better() { " (smaller is better)" } else { "" },
        );
    }
    println!(
        "\nSpecialized and paper-TRIPS columns are published values transcribed from\n\
         the paper; 'ours' is simulated on each kernel's recommended configuration\n\
         with the paper's clock normalizations (see EXPERIMENTS.md for unit\n\
         interpretations)."
    );
    Ok(())
}
