//! Regenerates Table 4: baseline TRIPS performance in useful operations
//! per cycle (overhead instructions excluded, per the paper).
//!
//! Pass `--quick` for smoke-scale workloads.

use dlp_bench::{run_suite_on, Args};
use dlp_core::MachineConfig;

/// The paper's Table 4 values, for side-by-side comparison.
fn paper_value(kernel: &str) -> Option<f64> {
    Some(match kernel {
        "convert" => 14.1,
        "dct" => 10.4,
        "highpassfilter" => 7.4,
        "fft" => 3.7,
        "lu" => 0.7,
        "md5" => 2.8,
        "blowfish" => 5.1,
        "rijndael" => 7.5,
        "vertex-simple" => 3.6,
        "fragment-simple" => 2.6,
        "vertex-reflection" => 5.2,
        "fragment-reflection" => 4.0,
        "vertex-skinning" => 5.6,
        _ => return None,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = Args::from_env();
    let quick = args.switch("--quick");
    args.finish()?;
    println!(
        "Table 4: performance on baseline TRIPS (useful ops/cycle){}\n",
        if quick { " [--quick]" } else { "" }
    );
    println!("{:<22} {:>10} {:>10}", "benchmark", "measured", "paper");
    let outs = run_suite_on(MachineConfig::Baseline, quick);
    for out in outs {
        let paper = paper_value(&out.kernel).map_or("-".into(), |v| format!("{v:.1}"));
        println!("{:<22} {:>10.1} {:>10}", out.kernel, out.stats.ops_per_cycle().0, paper);
    }
    println!(
        "\nAbsolute values depend on our reconstructed scheduler and timing model;\n\
         the shape to compare is which kernels sustain high vs low throughput\n\
         (see EXPERIMENTS.md)."
    );
    Ok(())
}
