//! The studies share one sweep with the paper grid, as `report` runs
//! them: each study's cells come out bit-identical to a sweep of that
//! study alone, the grid's projections equal a grid-only run's, and the
//! shared kernel ids let equal cells share lowerings and runs.

use std::ops::Range;

use dlp_bench::studies;
use dlp_common::json::to_string;
use dlp_core::specialized::table6;
use dlp_core::{ExperimentParams, Figure5, Sweep, SweepReport};

/// The smoke size: 24 records per kernel.
const QUICK: usize = 0;

type Push = fn(&mut Sweep, usize) -> Range<usize>;

const STUDIES: [(&str, Push); 3] = [
    ("ablation", studies::push_ablation),
    ("configspace", studies::push_configspace),
    ("scaling", studies::push_scaling),
];

fn push_grid(sweep: &mut Sweep, scale: usize) -> Range<usize> {
    let ids = sweep.add_perf_suite();
    sweep.push_paper_grid(&ids, &ExperimentParams::default(), scale)
}

/// A sweep of one study alone.
fn alone(push: Push) -> SweepReport {
    let mut sweep = Sweep::new();
    assert_eq!(push(&mut sweep, QUICK), 0..sweep.len());
    sweep.run()
}

#[test]
fn studies_in_one_sweep_match_their_own_sweeps_and_share_runs() {
    let mut sweep = Sweep::new();
    let grid = push_grid(&mut sweep, QUICK);
    let ranges: Vec<Range<usize>> =
        STUDIES.iter().map(|(_, push)| push(&mut sweep, QUICK)).collect();
    assert_eq!(ranges.last().map(|r| r.end), Some(sweep.len()));
    let shared = sweep.run();

    let grid_alone = alone(push_grid);
    let grid_view = shared.view(grid);
    assert_eq!(grid_view.canonical_json(), grid_alone.canonical_json());
    assert_eq!(
        to_string(&Figure5::from_report(&grid_view).unwrap()),
        to_string(&Figure5::from_report(&grid_alone).unwrap())
    );
    assert_eq!(to_string(&table6(&grid_view).unwrap()), to_string(&table6(&grid_alone).unwrap()));
    studies::print_energy(&grid_view).expect("every energy cell is a grid cell");

    let mut apart = vec![grid_alone];
    for ((name, push), range) in STUDIES.iter().zip(ranges) {
        let own = alone(*push);
        // Kernel, configuration, label, records and the whole outcome,
        // `SimStats` included, of every cell.
        assert_eq!(shared.view(range).canonical_json(), own.canonical_json(), "{name}");
        apart.push(own);
    }

    // Apart, the grid, ablation, configuration space and scaling
    // sweeps (78 + 11 + 64 + 16 cells) lower and run 58 + 11 + 46 + 16 =
    // 131 programs, with 20 + 0 + 18 + 0 = 38 plan reuses. Together they
    // lower and run 105: every study cell equal to a grid cell or to
    // another study's cell shares its plan and run.
    let each = |f: fn(&SweepReport) -> usize| apart.iter().map(f).collect::<Vec<_>>();
    assert_eq!(each(|r| r.cells.len()), [78, 11, 64, 16]);
    assert_eq!(each(|r| r.cells_executed), [58, 11, 46, 16]);
    assert_eq!(each(|r| r.plans_prepared), [58, 11, 46, 16]);
    assert_eq!(each(|r| r.plan_reuses), [20, 0, 18, 0]);
    assert_eq!(shared.cells.len(), 169);
    assert_eq!((shared.cells_executed, shared.plans_prepared, shared.plan_reuses), (105, 105, 64));
    // The configuration space's two local-PC sets without the SMC (on
    // each of its four kernels) are the only cells that cannot run.
    assert_eq!(shared.failures().len(), 8);
}
