//! Technology scalability: the paper's central premise for choosing the
//! grid substrate is that it scales — "an execution substrate with a large
//! number of functional units … and technology scalability" (§4). This
//! sweep runs representative kernels on 4×4 through 16×16 arrays and
//! reports sustained throughput; streaming kernels should scale close to
//! linearly with ALU count on their preferred configuration.
//!
//! Every kernel × array-size cell runs in one parallel [`Sweep`] batch
//! (cells carry their own grid shape).
//!
//! Pass `--quick` for smoke-scale workloads.

use dlp_bench::Args;
use dlp_common::GridShape;
use dlp_core::{default_records, recommend, CellSpec, ExperimentParams, Sweep};

const DIMS: [u8; 4] = [4, 8, 12, 16];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = Args::from_env();
    let quick = args.switch("--quick");
    args.finish()?;
    let names = ["convert", "fft", "blowfish", "vertex-simple"];

    let mut sweep = Sweep::new();
    let mut configs = Vec::new();
    for name in names {
        let id = sweep.add_kernel_by_name(name).expect("kernel");
        let config = recommend(&sweep.kernel(id).ir().attributes()).config;
        configs.push(config);
        for dim in DIMS {
            let params = ExperimentParams {
                grid: GridShape::new(dim, dim),
                ..ExperimentParams::default()
            };
            sweep.push_cell(CellSpec {
                kernel: id,
                config: Some(config),
                mech: config.mechanisms(),
                records: default_records(name, usize::from(!quick)),
                params,
                label: format!("{dim}x{dim}"),
            });
        }
    }
    let report = sweep.run();
    report.ensure_verified()?;

    println!(
        "array-size scaling (useful ops/cycle on each kernel's recommended config){}\n",
        if quick { " [--quick]" } else { "" }
    );
    println!("{:<18} {:>8} {:>8} {:>8} {:>8}", "kernel", "4x4", "8x8", "12x12", "16x16");
    for (i, name) in names.iter().enumerate() {
        let cells: Vec<f64> = report
            .cells
            .iter()
            .filter(|c| c.kernel == *name)
            .map(|c| c.outcome.stats().expect("verified").ops_per_cycle().0)
            .collect();
        println!(
            "{:<18} {:>8.1} {:>8.1} {:>8.1} {:>8.1}   ({})",
            name, cells[0], cells[1], cells[2], cells[3], configs[i]
        );
    }
    println!("\nthroughput should grow with the array; perfectly linear scaling would");
    println!("quadruple from 4x4 to 8x8 and again to 16x16 (memory ports scale with rows).");
    println!(
        "({} cells on {} workers, {} schedules prepared, {:.0} ms)",
        report.cells.len(),
        report.threads,
        report.plans_prepared,
        report.wall_ms
    );
    Ok(())
}
