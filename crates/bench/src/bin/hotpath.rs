//! Engine hot-path throughput → `BENCH_hotpath.json`.
//!
//! Times the cycle-level engines' inner loops (dataflow event loop,
//! MIMD fetch loop, mesh router) with scheduling excluded: each case in
//! [`dlp_bench::hotpath::HOTPATH_CASES`] is lowered once and only the
//! simulation is timed. Comparing `cells_per_sec` between two commits'
//! artifacts is the perf-regression check; `sim_cycles` doubles as a
//! determinism cross-check (it must only move when machine behavior
//! does).
//!
//! Every case is also timed through the lockstep engines (distinct-seed
//! lanes per dispatch, DESIGN.md §10); the artifact records the
//! lockstep-vs-scalar speedup that CI gates and a `lockstep_sim_cycles`
//! fold that must repeat across runs.
//!
//! Flags:
//!
//! * `--fast` — CI smoke scale (few records, short repeats); also
//!   honors `--quick` for symmetry with the other binaries.
//! * `--out PATH` — JSON destination (default `BENCH_hotpath.json`).
//! * `--help` — list the flags and exit. Any other argument is an error.

use dlp_bench::hotpath::{measure, HotpathReport, HOTPATH_CASES, HOTPATH_SCHEMA};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = dlp_bench::Args::from_env();
    // Both switches are looked up (no short-circuit), so both are accepted.
    let fast = args.switch("--fast") | args.switch("--quick");
    let out_path = args.value("--out").unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    args.finish()?;

    // Each repeat alternates the entry points for a fixed minimum wall,
    // and every figure is the median of the repeats: fast scale (the CI
    // gate's input) takes ≈2 s, full scale ≈25 s.
    let (records, min_wall_s) = if fast { (24, 0.05) } else { (256, 0.6) };

    let mut cases = Vec::with_capacity(HOTPATH_CASES.len());
    for case in HOTPATH_CASES {
        let m = measure(case, records, min_wall_s);
        println!(
            "{:>9} {:<9} [{}] {:>10.1} cells/s  {:>12.0} records/s  ({} sim cycles, {} cache hits, lowering {})",
            m.kernel,
            m.config,
            m.engine,
            m.cells_per_sec,
            m.records_per_sec,
            m.sim_cycles,
            m.workload_cache_hits,
            &m.lowering_fp[..8],
        );
        println!(
            "{:>9} {:<9} [lockstep] {:>10.1} cells/s  {:>9.2}x vs scalar ±{:.0}%  (fold {:#018x})",
            "",
            "",
            m.lockstep_cells_per_sec,
            m.lockstep_speedup,
            m.lockstep_speedup_spread * 50.0,
            m.lockstep_sim_cycles,
        );
        cases.push(m);
    }

    let report = HotpathReport { schema: HOTPATH_SCHEMA, fast, cases };
    std::fs::write(&out_path, dlp_common::json::to_string(&report))?;
    eprintln!("wrote {out_path}");
    Ok(())
}
