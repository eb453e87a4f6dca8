//! Integration: the flexible architecture (Table 3 recommender + Table 5
//! configurations) reproduces the paper's Figure 5 structure, and Table 6
//! keeps the paper's comparison directions. Both are projections of one
//! run of the quick paper grid.

use std::sync::OnceLock;

use dlp_core::specialized::table6;
use dlp_core::store::Hasher;
use dlp_core::{recommend, ExperimentParams, Figure5, MachineConfig, Sweep, SweepReport};
use dlp_kernels::suite;

/// The paper grid (every performance-suite kernel on the baseline and the
/// five DLP configurations) at the 24-record smoke size.
fn quick_paper_grid() -> Sweep {
    let mut sweep = Sweep::new();
    let ids = sweep.add_perf_suite();
    sweep.push_paper_grid(&ids, &ExperimentParams::default(), 0);
    sweep
}

/// The quick paper grid's report, run once for every test here.
fn quick_report() -> &'static SweepReport {
    static REPORT: OnceLock<SweepReport> = OnceLock::new();
    REPORT.get_or_init(|| quick_paper_grid().run())
}

fn quick_figure5() -> Figure5 {
    Figure5::from_report(quick_report()).expect("figure 5 experiment runs verified")
}

/// Pins the quick paper grid's identity: its cells' store digests in
/// push order, folded into one digest, so a change to how the grid is
/// built (its cells, their order, records or parameters) or to any store
/// key shows here.
#[test]
fn quick_paper_grid_digest_is_pinned() {
    // The fold the pinned grid digests were first taken with.
    let mut h = Hasher::new();
    h.field("manifest_version", "2");
    for key in quick_paper_grid().cell_keys() {
        h.field("cell", &key.digest.hex());
    }
    assert_eq!(h.digest().hex(), "01f27942233ad42f749b6065b38a14d0");
}

#[test]
fn recommender_matches_paper_grouping() {
    // §5.3: fft and lu on S; convert..fragment-reflection on S-O;
    // md5, blowfish, rijndael, vertex-skinning on M-D.
    let expected = [
        ("convert", MachineConfig::SO),
        ("dct", MachineConfig::SO),
        ("highpassfilter", MachineConfig::SO),
        ("fft", MachineConfig::S),
        ("lu", MachineConfig::S),
        ("md5", MachineConfig::MD),
        ("blowfish", MachineConfig::MD),
        ("rijndael", MachineConfig::MD),
        ("vertex-simple", MachineConfig::SO),
        ("fragment-simple", MachineConfig::SO),
        ("vertex-reflection", MachineConfig::SO),
        ("fragment-reflection", MachineConfig::SO),
        ("vertex-skinning", MachineConfig::MD),
    ];
    let kernels = suite();
    for (name, config) in expected {
        let k = kernels.iter().find(|k| k.name() == name).expect("kernel exists");
        assert_eq!(recommend(&k.ir().attributes()).config, config, "{name}");
    }
}

#[test]
fn flexible_beats_every_fixed_configuration() {
    // Smoke-scale workloads: the shapes (who wins) are stable even at
    // small record counts; the `report` binary runs the full-size version.
    let fig = quick_figure5();

    // Structure: one row per performance-suite kernel, in suite order,
    // all verified (`from_report` errors otherwise), each with a positive
    // speedup on all five DLP configurations.
    let kernels = suite();
    let perf_suite = kernels.iter().filter(|k| k.in_perf_suite()).map(|k| k.name());
    assert!(fig.rows.iter().map(|r| r.kernel.as_str()).eq(perf_suite), "rows in suite order");
    assert_eq!(fig.rows.len(), 13);
    for row in &fig.rows {
        assert_eq!(row.speedup.len(), 5, "{}", row.kernel);
        for (c, s) in &row.speedup {
            assert!(*s > 0.0, "{} on {c}: speedup {s}", row.kernel);
        }
    }

    // The flexible architecture must not lose to any fixed configuration
    // (it can tie when one configuration happens to be best for every
    // kernel — which Figure 5 shows is not the case at paper scale).
    for (config, hm) in &fig.summary.fixed_hm {
        assert!(
            fig.summary.flexible_hm >= *hm * 0.999,
            "flexible ({:.3}) lost to fixed {config} ({hm:.3})",
            fig.summary.flexible_hm
        );
    }

    // And it must beat the baseline overall, even at smoke scale where
    // per-kernel setup costs weigh on the weaker fixed configurations.
    assert!(
        fig.summary.flexible_hm > 1.0,
        "flexible harmonic-mean speedup {} <= 1",
        fig.summary.flexible_hm
    );
}

/// The fixed-configuration means run over every cell of the report, so a
/// cell beyond the paper grid is an error rather than a skewed bar.
#[test]
fn figure5_rejects_cells_beyond_the_paper_grid() {
    let mut report = quick_report().clone();
    report.cells.push(report.cells[1].clone());
    let err = Figure5::from_report(&report).expect_err("79 cells is not the paper grid");
    assert!(err.to_string().contains("holds 79 cells"), "{err}");
}

#[test]
fn per_kernel_preferences_match_paper_shapes() {
    let fig = quick_figure5();
    let row = |name: &str| fig.rows.iter().find(|r| r.kernel == name).expect("row exists");

    // Constant-heavy kernels gain from operand revitalization.
    for name in ["convert", "vertex-simple", "vertex-reflection"] {
        let r = row(name);
        assert!(
            r.speedup[&MachineConfig::SO] >= r.speedup[&MachineConfig::S],
            "{name}: S-O should be at least S"
        );
    }
    // Table-indexed crypto gains from the L0 data store.
    for name in ["blowfish", "rijndael"] {
        let r = row(name);
        assert!(
            r.speedup[&MachineConfig::SOD] > r.speedup[&MachineConfig::SO],
            "{name}: S-O-D should beat S-O"
        );
        assert!(
            r.speedup[&MachineConfig::MD] > r.speedup[&MachineConfig::M],
            "{name}: M-D should beat M"
        );
    }
}

/// Table 6 regenerates with the right comparison directions at smoke scale.
#[test]
fn table6_preserves_comparison_directions() {
    let rows = table6(quick_report()).expect("table 6 runs verified");
    assert_eq!(rows.len(), 13);
    let row = |name: &str| rows.iter().find(|r| r.kernel == name).expect("row");

    // Crypto: TRIPS cycles/block is an order of magnitude below
    // CryptoManiac's published numbers (smaller is better).
    for name in ["blowfish", "rijndael"] {
        let r = row(name);
        let specialized = r.specialized.expect("published value");
        assert!(
            r.trips < specialized,
            "{name}: ours {} should beat specialized {}",
            r.trips,
            specialized
        );
    }
    // Fragment shading: the specialized GPU wins.
    let r = row("fragment-simple");
    assert!(r.trips < r.specialized.expect("published value"));
}

/// fft/lu prefer the streaming S machine; MIMD per-element load routing
/// degrades them (§5.3). This shape needs enough records to amortize the
/// stream setup, so it runs the two kernels at a larger scale than the
/// smoke-sized figure above.
#[test]
fn streaming_kernels_prefer_s_over_mimd() {
    use dlp_core::run_kernel;
    use dlp_kernels::suite;

    let params = ExperimentParams::default();
    let kernels = suite();
    for name in ["fft", "lu"] {
        let k = kernels.iter().find(|k| k.name() == name).expect("kernel exists");
        let s = run_kernel(k.as_ref(), MachineConfig::S, 2048, &params).unwrap();
        let m = run_kernel(k.as_ref(), MachineConfig::M, 2048, &params).unwrap();
        assert!(s.verified() && m.verified());
        assert!(
            s.stats.cycles() < m.stats.cycles(),
            "{name}: S ({}) should beat M ({})",
            s.stats.cycles(),
            m.stats.cycles()
        );
    }
}
