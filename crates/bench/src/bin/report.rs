//! Every paper table and figure, and every study, from one sweep: the
//! paper grid (every performance-suite kernel on the baseline and the
//! five DLP configurations) followed by the cells of the A1–A3, X1 and
//! X5 [`studies`]. Prints, as markdown, the static tables (Tables 1, 2,
//! 3 and 5 and the Section 3 survey, which simulate nothing), then
//! Table 4, Figure 5 and Table 6, then each study (X6 included), and
//! writes Figure 5 and Table 6 to `report.json`, the artifact
//! EXPERIMENTS.md is refreshed from. Each simulated table is a
//! projection of its own range of the one report.
//!
//! Pass `--quick` for smoke-scale workloads (24 records per kernel);
//! pass `--out <path>` to choose the JSON destination.

use dlp_bench::{studies, Args};
use dlp_classic::survey;
use dlp_common::json::ToJson;
use dlp_core::specialized::{table6, Table6Row};
use dlp_core::{recommend, ExperimentParams, Figure5, MachineConfig, Sweep};
use dlp_kernel_ir::{Domain, KernelAttributes};
use dlp_kernels::suite;

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

/// Table 1: the benchmark suite descriptions.
fn print_table1() {
    println!("## Table 1 (benchmark description)\n\n```text");
    let groups = [
        (Domain::Multimedia, "Multimedia processing"),
        (Domain::Scientific, "Scientific codes"),
        (Domain::Network, "Network processing, security (1500 byte packets)"),
        (Domain::Graphics, "Real-time graphics processing"),
    ];
    let kernels = suite();
    for (domain, title) in groups {
        println!("{title}");
        for k in &kernels {
            if k.ir().domain() == domain {
                println!("  {:<22} {}", k.name(), k.description());
            }
        }
        println!();
    }
    println!("```\n");
}

/// Table 2: kernel attributes computed from the IR.
fn print_table2() {
    println!("## Table 2 (benchmark attributes, computed from the kernel IR)\n\n```text");
    println!("{}", KernelAttributes::header());
    for k in suite() {
        println!("{}", k.ir().attributes());
    }
    println!(
        "\nNotes: instruction counts are for fully unrolled kernel instances\n\
         (internal loops expanded, data-dependent loops expanded to their\n\
         maximum trip count with select merges), as in the paper."
    );
    println!("```\n");
}

/// Table 3: the attribute → mechanism map, applied to the suite by the
/// recommender.
fn print_table3() {
    println!("## Table 3 (universal mechanisms recommended per benchmark)\n\n```text");
    println!(
        "{:<22} {:>4} {:>4} {:>8} {:>6} {:>9} {:>8}   config",
        "benchmark", "SMC", "L1$", "op-revit", "L0-dat", "inst-rev", "localPC"
    );
    let yn = |b: bool| if b { "Y" } else { "-" };
    for k in suite() {
        let rec = recommend(&k.ir().attributes());
        println!(
            "{:<22} {:>4} {:>4} {:>8} {:>6} {:>9} {:>8}   {}",
            k.name(),
            yn(rec.smc),
            yn(rec.cached_l1),
            yn(rec.operand_revitalization),
            yn(rec.l0_data_store),
            yn(rec.inst_revitalization),
            yn(rec.local_pc),
            rec.config
        );
    }
    println!(
        "\nPaper Table 3 rows: regular memory -> SMC (all); irregular -> cached L1;\n\
         scalar constants -> operand revitalization; indexed constants -> L0 data\n\
         store; tight loops -> instruction revitalization; data-dependent\n\
         branching -> local program counters."
    );
    println!("```\n");
}

/// Table 5: the machine configurations.
fn print_table5() {
    println!("## Table 5 (machine configurations)\n\n```text");
    println!(
        "{:<9} {:^6} {:^6} {:^6} {:^6}  architecture model",
        "config", "L0-I", "L0-D", "i-rev", "o-rev"
    );
    for c in MachineConfig::ALL {
        println!("{}", c.table5_row());
    }
    println!(
        "\nAll five DLP configurations devote one L2 bank per row to the software\n\
         managed cache (SMC) with store buffers and row streaming channels (§5.3)."
    );
    println!("```\n");
}

/// The Section 3 survey: classic vector / SIMD / coarse-MIMD first-order
/// estimates per benchmark (Figure 2's qualitative story).
fn print_section3() {
    println!(
        "## Section 3 (classic data-parallel architectures, first-order estimates)\n\n```text"
    );
    println!(
        "{:<22} {:>10} {:>10} {:>12}   best fixed model",
        "benchmark", "vector", "simd", "coarse-mimd"
    );
    for k in suite() {
        let attrs = k.ir().attributes();
        let s = survey(&attrs);
        let best = s.iter().min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite")).expect("3");
        println!(
            "{:<22} {:>10.2} {:>10.2} {:>12.2}   {}",
            attrs.name, s[0].1, s[1].1, s[2].1, best.0
        );
    }
    println!("\nestimated cycles/record; smaller is better");
    println!("```\n");
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
    print_table1();
    print_table2();
    print_table3();
    print_table5();
    print_section3();
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
