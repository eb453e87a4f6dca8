//! Machine-readable experiment report: runs the Figure 5 and Table 6
//! experiments and writes `report.json` plus a markdown summary to
//! stdout — the artifact EXPERIMENTS.md is refreshed from.
//!
//! Pass `--quick` for smoke-scale workloads; pass `--out <path>` to choose
//! the JSON destination.

use dlp_bench::Args;
use dlp_common::json::ToJson;
use dlp_core::specialized::{table6, Table6Row};
use dlp_core::{flexible, ExperimentParams, Figure5, MachineConfig};

#[derive(ToJson)]
struct Report {
    figure5: Figure5,
    table6: Vec<Table6Row>,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = Args::from_env();
    let quick = args.switch("--quick");
    let out_path = args.value("--out").unwrap_or_else(|| "report.json".to_string());
    args.finish()?;

    let params = ExperimentParams::default();
    let scale = usize::from(!quick);
    let figure5 = flexible(&params, scale)?;
    let t6 = table6(&params, scale)?;

    // Markdown summary.
    println!("## Figure 5 (speedup over baseline)\n");
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
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.1}"));
        println!(
            "| {} | {:.1} | {} | {} | {} |",
            r.kernel,
            r.trips,
            fmt(r.paper_trips),
            fmt(r.specialized),
            r.units.label()
        );
    }

    // JSON artifact, via the workspace's shared JSON writer
    // (`dlp_common::json`).
    let report = Report { figure5, table6: t6 };
    std::fs::write(&out_path, dlp_common::json::to_string(&report))?;
    eprintln!("\nwrote {out_path}");
    Ok(())
}
