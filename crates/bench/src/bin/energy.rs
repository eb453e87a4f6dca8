//! Energy comparison across configurations (the §7 future-work metric):
//! each mechanism's benefit shows up in the subsystem it relieves —
//! operand revitalization in the register file, the L0 store in the
//! caches, instruction revitalization in fetch.
//!
//! Pass `--quick` for smoke-scale workloads.

use dlp_bench::Args;
use dlp_core::{default_records, run_kernel, EnergyModel, ExperimentParams, MachineConfig};
use dlp_kernels::suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = Args::from_env();
    let quick = args.switch("--quick");
    args.finish()?;
    let params = ExperimentParams::default();
    let model = EnergyModel::default();
    let kernels = suite();

    println!(
        "energy per record (nJ) by subsystem{}\n",
        if quick { " [--quick]" } else { "" }
    );
    println!(
        "{:<12} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "kernel", "config", "alu", "network", "regfile", "l1", "smc", "l0", "fetch", "total"
    );
    for name in ["convert", "blowfish", "vertex-skinning"] {
        let kernel = kernels.iter().find(|k| k.name() == name).expect("kernel");
        let records = default_records(name, usize::from(!quick));
        for config in [
            MachineConfig::Baseline,
            MachineConfig::S,
            MachineConfig::SO,
            MachineConfig::SOD,
            MachineConfig::MD,
        ] {
            let out = run_kernel(kernel.as_ref(), config, records, &params)?;
            assert!(out.verified());
            // Approximate mapped-block size for fetch energy: each
            // iteration executes the block once, so ops/iteration is the
            // block's instruction count.
            let block_insts = (out.stats.total_ops() / out.stats.iterations.max(1)) as usize;
            let b = model.breakdown(&out.stats, block_insts);
            let per = records as f64;
            println!(
                "{:<12} {:>7} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9.2}",
                name,
                config.to_string(),
                b.alu_nj / per,
                b.network_nj / per,
                b.regfile_nj / per,
                b.l1_nj / per,
                b.smc_nj / per,
                b.l0_nj / per,
                b.fetch_nj / per,
                b.total_nj() / per,
            );
        }
        println!();
    }
    println!(
        "watch: S-O cuts the register-file column (operand revitalization);\n\
         S-O-D/M-D move lookup traffic from l1 to the cheap l0 column;\n\
         revitalization/local PCs cut fetch relative to the baseline."
    );
    Ok(())
}
