//! The paper artifacts and every study from one sweep: the paper grid
//! (every performance-suite kernel on the baseline and the five DLP
//! configurations) followed by the cells of the A1–A3, X1 and X5
//! [`studies`]. Prints Table 4, Figure 5 and Table 6, then each study,
//! as markdown, and writes Figure 5 and Table 6 to `report.json`, the
//! artifact EXPERIMENTS.md is refreshed from. Each table is a projection
//! of its own range of the one report.
//!
//! Pass `--quick` for smoke-scale workloads (24 records per kernel);
//! pass `--out <path>` to choose the JSON destination.

use dlp_bench::{studies, Args};
use dlp_common::json::ToJson;
use dlp_core::specialized::{table6, Table6Row};
use dlp_core::{ExperimentParams, Figure5, MachineConfig, Sweep};

#[derive(ToJson)]
struct Report {
    figure5: Figure5,
    table6: Vec<Table6Row>,
}

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
    let out_path = args.value("--out").unwrap_or_else(|| "report.json".to_string());
    args.finish()?;

    let scale = usize::from(!quick);
    let mut sweep = Sweep::new();
    let ids = sweep.add_perf_suite();
    let grid = sweep.push_paper_grid(&ids, &ExperimentParams::default(), scale);
    let ablation = studies::push_ablation(&mut sweep, scale);
    let configspace = studies::push_configspace(&mut sweep, scale);
    let scaling = studies::push_scaling(&mut sweep, scale);
    let report = sweep.run();
    let grid = report.view(grid);
    let figure5 = Figure5::from_report(&grid)?;
    let t6 = table6(&grid)?;
    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.1}"));

    // Markdown summary.
    println!("## Table 4 (baseline useful ops/cycle)\n");
    println!("| benchmark | measured | paper |");
    println!("|---|---|---|");
    for row in &figure5.rows {
        println!(
            "| {} | {:.1} | {} |",
            row.kernel,
            row.baseline_ops_per_cycle,
            fmt(paper_value(&row.kernel))
        );
    }
    println!("\n## Figure 5 (speedup over baseline)\n");
    println!("| benchmark | S | S-O | S-O-D | M | M-D | best |");
    println!("|---|---|---|---|---|---|---|");
    for row in &figure5.rows {
        println!(
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {} |",
            row.kernel,
            row.speedup[&MachineConfig::S],
            row.speedup[&MachineConfig::SO],
            row.speedup[&MachineConfig::SOD],
            row.speedup[&MachineConfig::M],
            row.speedup[&MachineConfig::MD],
            row.best,
        );
    }
    println!("\nflexible harmonic mean: {:.2}x", figure5.summary.flexible_hm);
    for config in MachineConfig::DLP {
        println!(
            "- vs fixed {config}: {:.2}x (flexible {:+.0}%)",
            figure5.summary.fixed_hm[&config],
            figure5.summary.advantage_over.get(&config).copied().unwrap_or(0.0) * 100.0
        );
    }
    println!("\n## Table 6 (vs specialized hardware)\n");
    println!("| benchmark | ours | paper TRIPS | specialized | units |");
    println!("|---|---|---|---|---|");
    for r in &t6 {
        println!(
            "| {} | {:.1} | {} | {} | {} |",
            r.kernel,
            r.trips,
            fmt(r.paper_trips),
            fmt(r.specialized),
            r.units.label()
        );
    }
    println!();
    studies::print_ablation(&report.view(ablation))?;
    studies::print_configspace(&report.view(configspace));
    studies::print_scaling(&report.view(scaling))?;
    studies::print_energy(&grid)?;

    // JSON artifact, via the workspace's shared JSON writer
    // (`dlp_common::json`).
    let artifact = Report { figure5, table6: t6 };
    std::fs::write(&out_path, dlp_common::json::to_string(&artifact))?;
    eprintln!(
        "{} cells, {} runs, {} lowerings prepared on {} workers in {:.0} ms; wrote {out_path}",
        report.cells.len(),
        report.cells_executed,
        report.plans_prepared,
        report.threads,
        report.wall_ms
    );
    Ok(())
}
