//! Tier-1 guarantees of the sweep persistence layer (`dlp_core::store`):
//!
//! * A sweep served from a **warm store** emits a canonical report
//!   bit-identical to the cold run that populated it, at any worker
//!   count — caching changes *where* results come from, never *what*
//!   they are.
//! * **Resume** after an interruption executes only the cells the
//!   manifest is missing, and still converges to the identical report.
//! * The **dead-letter queue** preserves the failure taxonomy through a
//!   full write → load → replay round trip.
//! * Corrupted or version-skewed store entries degrade to **misses** —
//!   a damaged cache can cost time, never correctness and never a
//!   panic.

use std::path::PathBuf;
use std::sync::Arc;

use dlp_core::store::{load_dlq, seal_line, unseal_line, Hasher};
use dlp_core::{
    CellSpec, DeadLetterQueue, ExperimentParams, MachineConfig, ManifestWriter, ResultStore,
    Sweep, SweepManifest, SweepReport,
};

/// A fresh per-test scratch directory.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlp-store-sweep-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The test grid: two kernels spanning both engines × two
/// configurations, smoke-scale records.
fn build_grid(threads: usize) -> Sweep {
    let params = ExperimentParams::default();
    let mut sweep = Sweep::with_threads(threads);
    for name in ["convert", "blowfish"] {
        let id = sweep.add_kernel_by_name(name).expect("suite kernel");
        for config in [MachineConfig::Baseline, MachineConfig::SOD] {
            sweep.push_config(id, config, 24, &params);
        }
    }
    sweep
}

fn run_with_store(threads: usize, store: &Arc<ResultStore>) -> SweepReport {
    let mut sweep = build_grid(threads);
    sweep.set_store(Arc::clone(store));
    sweep.run()
}

#[test]
fn warm_store_is_bit_identical_to_cold_at_any_worker_count() {
    let dir = tmpdir("warm-cold");
    let store = Arc::new(ResultStore::open(&dir).expect("open store"));

    let cold = run_with_store(1, &store);
    assert_eq!(cold.cells_executed, cold.cells.len(), "cold store executes everything");
    assert_eq!(cold.store_hits, 0);

    let warm1 = run_with_store(1, &store);
    let warm2 = run_with_store(2, &store);
    for warm in [&warm1, &warm2] {
        assert_eq!(warm.cells_executed, 0, "warm store executes nothing");
        assert_eq!(warm.store_hits as usize, warm.cells.len());
        assert_eq!(warm.store_misses, 0);
        assert_eq!(warm.plans_prepared, 0, "no lowering happens on a warm store");
        assert_eq!(
            warm.canonical_json(),
            cold.canonical_json(),
            "the canonical report must not depend on store temperature or worker count"
        );
    }
    assert_persisted_encoding(&cold, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pins the bytes this grid persists: the manifest grid digest, each
/// cell's store key, the canonical report and the entry files. Every one
/// of them is derived from JSON the workspace writes (store keys hash the
/// JSON of each kernel's IR and MIMD program), so a change to the JSON
/// encoder that moves any byte shows here.
fn assert_persisted_encoding(cold: &SweepReport, dir: &std::path::Path) {
    const MSG: &str = "these values are an on-disk format: change them only on purpose, \
                       together with a bump of STORE_VERSION or LOWERING_SCHEMA";
    let grid = build_grid(1);
    assert_eq!(grid.grid_digest().hex(), "d4e636eb5a98ecce16ef49ce61001309", "{MSG}");
    let keys: Vec<String> = grid.cell_keys().iter().map(|k| k.digest.hex()).collect();
    assert_eq!(
        keys,
        [
            "cf630ef7c6606c4ca8b54111626142eb",
            "e15395fb13ce903ca1a9c16ffbd3b63b",
            "d3174e811c5ba66ae76b38acfbf53e89",
            "1d6302c0315c60624f3bc83499936d09",
        ],
        "{MSG}"
    );

    let canonical = cold.canonical_json();
    assert_eq!(canonical.len(), 2399, "{MSG}");
    let mut h = Hasher::new();
    h.update(canonical.as_bytes());
    assert_eq!(h.digest().hex(), "291fcc65f181b03f96748f4935079d98", "{MSG}");

    let mut entries = Vec::new();
    for shard in std::fs::read_dir(dir.join("entries")).expect("entries dir") {
        for file in std::fs::read_dir(shard.expect("shard").path()).expect("shard dir") {
            entries.push(file.expect("entry").path());
        }
    }
    entries.sort();
    assert_eq!(entries.len(), 4, "one entry per cell");
    let mut h = Hasher::new();
    for path in &entries {
        h.update(&std::fs::read(path).expect("read entry"));
    }
    assert_eq!(h.digest().hex(), "1aa01419d77c2af3fc12344c37f9f57c", "{MSG}");
}

#[test]
fn resume_executes_only_the_missing_cells() {
    let dir = tmpdir("resume");
    let manifest_path = dir.join("sweep.manifest.jsonl");

    // A complete checkpointed reference run.
    let mut sweep = build_grid(1);
    let digests = sweep.cell_digests();
    sweep.set_manifest(ManifestWriter::create(&manifest_path, &digests).expect("create manifest"));
    let reference = sweep.run();
    let total = reference.cells.len();

    // Simulate the interruption: keep the header and the first two cell
    // lines, plus a torn third line (a crash mid-write).
    let text = std::fs::read_to_string(&manifest_path).expect("read manifest");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), total + 1, "header + one line per cell");
    let torn = format!("{}\n{}\n{}\n{}", lines[0], lines[1], lines[2], &lines[3][..lines[3].len() / 2]);
    std::fs::write(&manifest_path, torn).expect("truncate manifest");

    let manifest = SweepManifest::load(&manifest_path).expect("torn final line is tolerated");
    assert_eq!(manifest.completed(), 2, "two cells survived the crash");

    let mut resumed = build_grid(2);
    assert_eq!(manifest.grid_digest, resumed.grid_digest(), "same grid");
    resumed.set_resume(manifest);
    resumed.set_manifest(ManifestWriter::append_to(&manifest_path).expect("reopen manifest"));
    let report = resumed.run();

    assert_eq!(report.resumed_cells, 2, "recorded cells are served, not re-run");
    assert_eq!(report.cells_executed, total - 2, "only the missing cells execute");
    assert_eq!(
        report.canonical_json(),
        reference.canonical_json(),
        "resume converges to the uninterrupted run's exact report"
    );

    // The resumed run re-checkpointed the missing cells: the manifest is
    // complete again and a further resume executes nothing.
    let full = SweepManifest::load(&manifest_path).expect("manifest readable after resume");
    assert_eq!(full.completed(), total);
    let mut third = build_grid(1);
    third.set_resume(full);
    let report = third.run();
    assert_eq!(report.resumed_cells, total);
    assert_eq!(report.cells_executed, 0);
    assert_eq!(report.canonical_json(), reference.canonical_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_letter_queue_round_trips_the_failure_taxonomy() {
    let dir = tmpdir("dlq");
    let dlq_path = dir.join("sweep.dlq.jsonl");

    // A 2-tick watchdog is nondeterministic-by-taxonomy (a different
    // budget could pass), so the failure is uncacheable and must be
    // dead-lettered.
    let params = ExperimentParams { watchdog: Some(2), ..ExperimentParams::default() };
    let mut sweep = Sweep::with_threads(1);
    let id = sweep.add_kernel_by_name("convert").expect("suite kernel");
    sweep.push_cell(CellSpec {
        kernel: id,
        config: Some(MachineConfig::S),
        mech: MachineConfig::S.mechanisms(),
        records: 24,
        params,
        label: "strangled".into(),
    });
    let dlq = Arc::new(DeadLetterQueue::new(&dlq_path));
    sweep.set_dlq(Arc::clone(&dlq));
    let report = sweep.run();

    assert_eq!(report.failures().len(), 1);
    assert_eq!(report.dlq_appended, 1, "the watchdog failure is dead-lettered");
    assert_eq!(report.cells[0].outcome.failure_kind(), Some("watchdog"));

    let records = load_dlq(&dlq_path);
    assert_eq!(records.len(), 1);
    let record = &records[0];
    assert_eq!(record.kernel, "convert");
    assert_eq!(record.config, "S");
    assert_eq!(record.kind, "watchdog", "the DlpError taxonomy survives the queue");
    assert_eq!(record.watchdog, Some(2), "the failing parameters are replayable");

    // Replaying the record's own parameters reproduces the same failure
    // kind — the record is a faithful reproduction recipe.
    let mut replay = Sweep::with_threads(1);
    let id = replay.add_kernel_by_name(&record.kernel).expect("suite kernel");
    replay.push_cell(CellSpec {
        kernel: id,
        config: None,
        mech: record.mech,
        records: record.records,
        params: record.params(),
        label: record.label.clone(),
    });
    let replayed = replay.run();
    assert_eq!(replayed.cells[0].outcome.failure_kind(), Some("watchdog"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_letter_queue_lines_follow_cell_order() {
    // Every cell dead-letters (2-tick watchdog) on two workers, so the
    // appends arrive in completion order; the queue must still end up in
    // cell order, after the lines an earlier run left, byte for byte.
    let dir = tmpdir("dlq-order");
    let earlier = b"{\"an earlier run's line\":1}\n";
    let run = |tag: &str| {
        let path = dir.join(format!("{tag}.dlq.jsonl"));
        std::fs::write(&path, earlier).expect("seed queue");
        let params = ExperimentParams { watchdog: Some(2), ..ExperimentParams::default() };
        let mut sweep = Sweep::with_threads(2);
        for name in ["convert", "blowfish", "md5"] {
            let id = sweep.add_kernel_by_name(name).expect("suite kernel");
            for config in MachineConfig::ALL {
                sweep.push_config(id, config, 24, &params);
            }
        }
        sweep.set_dlq(Arc::new(DeadLetterQueue::new(&path)));
        let report = sweep.run();
        assert_eq!(report.dlq_appended as usize, report.cells.len());
        let cells: Vec<(String, String)> =
            report.cells.iter().map(|c| (c.kernel.clone(), c.config.clone())).collect();
        (std::fs::read(&path).expect("read queue"), cells)
    };
    let (first, cells) = run("a");
    let (second, _) = run("b");
    assert_eq!(first, second, "two runs write the same queue bytes");
    assert!(first.starts_with(earlier), "earlier lines stay first and unchanged");
    let path = dir.join("a.dlq.jsonl");
    let order: Vec<(String, String)> =
        load_dlq(&path).into_iter().map(|r| (r.kernel, r.config)).collect();
    assert_eq!(order, cells, "records follow cell order");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_store_entries_are_misses_never_panics() {
    let dir = tmpdir("damaged");
    let store = Arc::new(ResultStore::open(&dir).expect("open store"));
    let cold = run_with_store(1, &store);

    // Damage every entry a different way: garbage bytes, a correctly
    // sealed line of the wrong shape, and a correctly re-sealed but
    // version-skewed record (the seal alone must not make it servable).
    let keys = build_grid(1).cell_keys();
    assert_eq!(keys.len(), cold.cells.len());
    std::fs::write(store.path_of(&keys[0]), b"\x00\xffnot json").expect("corrupt entry 0");
    std::fs::write(store.path_of(&keys[1]), format!("{}\n", seal_line("{}")))
        .expect("corrupt entry 1");
    let sealed = std::fs::read_to_string(store.path_of(&keys[2])).expect("read entry 2");
    let skewed = unseal_line(sealed.trim_end_matches('\n'))
        .expect("entry 2 is sealed")
        .replace("{\"store_version\":2,", "{\"store_version\":999,");
    assert!(skewed.contains("999"), "version field rewritten");
    std::fs::write(store.path_of(&keys[2]), format!("{}\n", seal_line(&skewed)))
        .expect("skew entry 2");

    let repaired = run_with_store(2, &store);
    assert_eq!(repaired.store_misses, 3, "every damaged entry is a miss");
    assert_eq!(repaired.store_hits as usize, cold.cells.len() - 3);
    assert_eq!(repaired.cells_executed, 3, "missed cells re-execute and repair the store");
    assert_eq!(
        repaired.canonical_json(),
        cold.canonical_json(),
        "a damaged cache costs time, never correctness"
    );

    let warm = run_with_store(1, &store);
    assert_eq!(warm.cells_executed, 0, "re-execution rewrote the damaged entries");
    let _ = std::fs::remove_dir_all(&dir);
}
