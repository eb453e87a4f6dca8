//! The benchmark's workloads: which cells each one pushes, and how a
//! fresh [`Sweep`] is built from them.
//!
//! Every input is a pure function of the workload and the benchmark
//! seed, so one seed always yields the same grid, the same cell seeds
//! and therefore the same simulated results.

use std::sync::Arc;

use dlp_common::SplitMix64;
use dlp_core::sweep::KernelId;
use dlp_core::{default_records, ExperimentParams, MachineConfig, ResultStore, Sweep};
use dlp_kernels::suite;

/// Worker threads of every timed `Sweep::run`.
pub const WORKERS: usize = 2;

/// The kernel whose six cells `store-rerun` leaves out of its template
/// store, as after editing that kernel.
pub const EDITED_KERNEL: &str = "fft";

/// Seeds per kernel/configuration pair on `seed-sweep`.
pub const SEEDS_PER_PAIR: usize = 32;

/// The `seed-sweep` pairs: three dataflow and two MIMD configurations.
pub const SEED_SWEEP_PAIRS: [(&str, MachineConfig); 5] = [
    ("fft", MachineConfig::SO),
    ("convert", MachineConfig::Baseline),
    ("vertex-skinning", MachineConfig::SOD),
    ("blowfish", MachineConfig::MD),
    ("md5", MachineConfig::M),
];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 78-cell paper grid at `default_records(.., 1)`, no store.
    GridCold,
    /// The same grid at `default_records(.., 4)`.
    GridX4,
    /// A few kernel/configuration pairs, each over many derived seeds.
    SeedSweep,
    /// The grid served from a store that misses one kernel's cells.
    StoreRerun,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::GridCold,
        Workload::GridX4,
        Workload::SeedSweep,
        Workload::StoreRerun,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridCold => "grid-cold",
            Workload::GridX4 => "grid-x4",
            Workload::SeedSweep => "seed-sweep",
            Workload::StoreRerun => "store-rerun",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the timed sweep runs against a result store.
    pub fn uses_store(self) -> bool {
        self == Workload::StoreRerun
    }

    /// The cells of one timed run, in push order.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        match self {
            Workload::GridCold | Workload::StoreRerun => grid(1, seed),
            Workload::GridX4 => grid(4, seed),
            Workload::SeedSweep => seed_sweep(seed),
        }
    }

    /// The cells the template store of `store-rerun` is built from:
    /// the grid without [`EDITED_KERNEL`].
    pub fn template_cells(self, seed: u64) -> Vec<Cell> {
        self.cells(seed)
            .into_iter()
            .filter(|c| c.kernel != EDITED_KERNEL)
            .collect()
    }
}

/// One cell: kernel, configuration, record count, and the base seed the
/// sweep derives the kernel's workload seed from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Suite kernel name.
    pub kernel: &'static str,
    /// Machine configuration.
    pub config: MachineConfig,
    /// Records to process.
    pub records: usize,
    /// `ExperimentParams::seed` of the cell.
    pub seed: u64,
}

impl Cell {
    /// The cell's experiment parameters: the repository defaults with
    /// the cell's seed.
    pub fn params(&self) -> ExperimentParams {
        ExperimentParams {
            seed: self.seed,
            ..ExperimentParams::default()
        }
    }
}

/// The paper grid: every performance-suite kernel on the baseline and
/// the five DLP configurations, at `default_records(.., scale)`.
fn grid(scale: usize, seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for kernel in suite().into_iter().filter(|k| k.in_perf_suite()) {
        let records = default_records(kernel.name(), scale);
        for config in MachineConfig::ALL {
            cells.push(Cell {
                kernel: kernel.name(),
                config,
                records,
                seed,
            });
        }
    }
    cells
}

/// [`SEED_SWEEP_PAIRS`] × [`SEEDS_PER_PAIR`] seeds drawn from `seed`.
fn seed_sweep(seed: u64) -> Vec<Cell> {
    let mut rng = SplitMix64::new(seed);
    let seeds: Vec<u64> = (0..SEEDS_PER_PAIR).map(|_| rng.next_u64()).collect();
    let mut cells = Vec::new();
    for (kernel, config) in SEED_SWEEP_PAIRS {
        for &s in &seeds {
            cells.push(Cell {
                kernel,
                config,
                records: default_records(kernel, 1),
                seed: s,
            });
        }
    }
    cells
}

/// A fresh sweep over `cells`, on `threads` workers, optionally
/// attached to `store`.
pub fn build_sweep(cells: &[Cell], threads: usize, store: Option<Arc<ResultStore>>) -> Sweep {
    let mut sweep = Sweep::with_threads(threads);
    let mut ids: Vec<(&str, KernelId)> = Vec::new();
    for cell in cells {
        let id = match ids.iter().find(|(name, _)| *name == cell.kernel) {
            Some(&(_, id)) => id,
            None => {
                let id = sweep
                    .add_kernel_by_name(cell.kernel)
                    .unwrap_or_else(|| panic!("{} is a suite kernel", cell.kernel));
                ids.push((cell.kernel, id));
                id
            }
        };
        sweep.push_config(id, cell.config, cell.records, &cell.params());
    }
    if let Some(store) = store {
        sweep.set_store(store);
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_alone_determines_the_inputs() {
        for w in Workload::ALL {
            assert_eq!(w.cells(7), w.cells(7), "{}", w.name());
            assert_ne!(w.cells(7), w.cells(8), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn workload_shapes() {
        assert_eq!(Workload::GridCold.cells(1).len(), 78);
        assert_eq!(Workload::GridX4.cells(1).len(), 78);
        assert_eq!(Workload::SeedSweep.cells(1).len(), 5 * SEEDS_PER_PAIR);
        let template = Workload::StoreRerun.template_cells(1);
        assert_eq!(template.len(), 72);
        assert!(template.iter().all(|c| c.kernel != EDITED_KERNEL));
    }
}
