//! Strict decoding of the persisted records (`dlp_core::store`).
//!
//! Every field a record's type writes is required when it is read back.
//! A record that lost any one field, or carries a value its field cannot
//! hold, reads as corrupt: a store miss or a skipped dead-letter line —
//! never a record with a field quietly defaulted. Each case edits a
//! record the store really wrote, re-seals it so the seal passes, and
//! reads it back.

use std::path::PathBuf;

use dlp_common::json::{self, JsonValue};
use dlp_common::{FaultPlan, GridShape, SimStats, TimingParams};
use dlp_core::store::{load_dlq, rewrite_dlq, seal_line, unseal_line};
use dlp_core::{CellOutcome, Digest, DlqRecord, MachineConfig, ResultStore, StoreKey};

/// A fresh per-test scratch directory.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlp-strict-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Compact JSON text of a parsed value, written as `dlp_common::json`
/// writes it.
fn render(v: &JsonValue) -> String {
    let join = |items: Vec<String>| items.join(",");
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => n.clone(),
        JsonValue::Str(s) => json::to_string(s),
        JsonValue::Arr(items) => format!("[{}]", join(items.iter().map(render).collect())),
        JsonValue::Obj(pairs) => format!(
            "{{{}}}",
            join(
                pairs
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json::to_string(k), render(v)))
                    .collect()
            )
        ),
    }
}

/// The member paths of every object nested in `v`, outermost first.
fn member_paths(v: &JsonValue) -> Vec<Vec<String>> {
    let JsonValue::Obj(pairs) = v else { return Vec::new() };
    let mut out = Vec::new();
    for (k, child) in pairs {
        out.push(vec![k.clone()]);
        for mut rest in member_paths(child) {
            rest.insert(0, k.clone());
            out.push(rest);
        }
    }
    out
}

/// `v` with the member at `path` replaced by `new`, or removed if `new`
/// is `None`.
fn edit(v: &JsonValue, path: &[String], new: Option<&JsonValue>) -> JsonValue {
    let JsonValue::Obj(pairs) = v else { panic!("{path:?} runs through a non-object") };
    let (head, rest) = path.split_first().expect("non-empty path");
    let mut out = Vec::new();
    for (k, child) in pairs {
        if k != head {
            out.push((k.clone(), child.clone()));
        } else if !rest.is_empty() {
            out.push((k.clone(), edit(child, rest, new)));
        } else if let Some(new) = new {
            out.push((k.clone(), new.clone()));
        }
    }
    JsonValue::Obj(out)
}

fn path(members: &[&str]) -> Vec<String> {
    members.iter().map(ToString::to_string).collect()
}

fn num(n: u64) -> JsonValue {
    JsonValue::Num(n.to_string())
}

/// Parse a sealed line the store wrote, checking that [`render`] writes
/// its payload back byte for byte.
fn unseal_parse(line: &str) -> JsonValue {
    let payload = unseal_line(line.trim_end_matches('\n')).expect("sealed line");
    let v = json::parse(payload).expect("payload parses");
    assert_eq!(render(&v), payload, "render must reproduce what the store wrote");
    v
}

fn sealed(v: &JsonValue) -> String {
    format!("{}\n", seal_line(&render(v)))
}

#[test]
fn a_store_entry_missing_any_field_it_is_read_by_is_a_miss() {
    let dir = tmpdir("store");
    let store = ResultStore::open(&dir).expect("open store");
    let ran = CellOutcome::Ran {
        stats: SimStats { ticks: 42, useful_ops: 7, loads: 3, ..SimStats::default() },
        mismatch: Some(5),
    };
    let failed = CellOutcome::Failed {
        error: "verification failed".into(),
        kind: "verify".into(),
        attempts: 0,
        timed_out: false,
    };
    // Lookups trust only the digest: the audit fields are not read.
    let audit = ["kernel", "config", "records", "seed", "lowering"];
    for (seed, outcome) in [(1, ran), (2, failed)] {
        let key =
            StoreKey::new("convert", "S-O", 24, seed, &FaultPlan::none(), None, 1, Digest(7, 9));
        assert!(store.put(&key, &outcome).expect("put"));
        let file = store.path_of(&key);
        let entry = unseal_parse(&std::fs::read_to_string(&file).expect("read entry"));
        let write = |v: &JsonValue| std::fs::write(&file, sealed(v)).expect("write entry");

        let paths = member_paths(&entry);
        if matches!(outcome, CellOutcome::Ran { .. }) {
            assert!(paths.contains(&path(&["outcome", "stats", "ticks"])), "counters are covered");
        }
        for p in paths {
            write(&edit(&entry, &p, None));
            let expect = if audit.contains(&p[0].as_str()) { Some(outcome.clone()) } else { None };
            assert_eq!(store.get(&key), expect, "entry without {}", p.join("."));
        }
        write(&entry);
        assert_eq!(store.get(&key), Some(outcome), "the unedited entry still serves");
    }

    // A `stats` member selects the ran shape; if it does not decode, the
    // entry is a miss even when it also holds every failed-shape field.
    let key = StoreKey::new("convert", "S-O", 24, 3, &FaultPlan::none(), None, 1, Digest(7, 9));
    let outcome = CellOutcome::Ran { stats: SimStats::default(), mismatch: None };
    assert!(store.put(&key, &outcome).expect("put"));
    let file = store.path_of(&key);
    let entry = unseal_parse(&std::fs::read_to_string(&file).expect("read entry"));
    let mut both = edit(&entry, &path(&["outcome", "stats", "ticks"]), None);
    if let JsonValue::Obj(pairs) = &mut both {
        let outcome = &mut pairs.iter_mut().find(|(k, _)| k == "outcome").expect("outcome").1;
        if let JsonValue::Obj(fields) = outcome {
            fields.push(("error".into(), JsonValue::Str("e".into())));
            fields.push(("kind".into(), JsonValue::Str("verify".into())));
            fields.push(("attempts".into(), num(1)));
            fields.push(("timed_out".into(), JsonValue::Bool(false)));
        }
    }
    std::fs::write(&file, sealed(&both)).expect("write entry");
    assert_eq!(store.get(&key), None, "a broken ran outcome is not read as a failure");
    let _ = std::fs::remove_dir_all(&dir);
}

fn dlq_record() -> DlqRecord {
    DlqRecord {
        dlq_version: 2,
        kernel: "fft".into(),
        config: "S-O".into(),
        label: "rate=100ppm".into(),
        mech: MachineConfig::SO.mechanisms(),
        grid: GridShape::trips_baseline(),
        timing: TimingParams::default(),
        fault: FaultPlan::none().with_salt(5),
        base_seed: 0xD1_2003,
        watchdog: Some(50_000_000),
        records: 24,
        error: "unrecoverable fault".into(),
        kind: "fault-unrecoverable".into(),
        attempts: 3,
        timed_out: false,
    }
}

#[test]
fn a_dead_letter_line_missing_any_field_or_with_a_zero_grid_is_skipped() {
    let dir = tmpdir("dlq");
    let queue = dir.join("dlq.jsonl");
    let record = dlq_record();
    rewrite_dlq(&queue, std::slice::from_ref(&record)).expect("write queue");
    let good = std::fs::read_to_string(&queue).expect("read queue");
    let v = unseal_parse(&good);
    assert_eq!(load_dlq(&queue), std::slice::from_ref(&record));

    // Each bad line sits between two good ones; only the good ones load.
    let expect_skipped = |bad: &JsonValue, what: &str| {
        std::fs::write(&queue, format!("{good}{}{good}", sealed(bad))).expect("write queue");
        assert_eq!(load_dlq(&queue), [record.clone(), record.clone()], "{what}");
    };
    let paths = member_paths(&v);
    assert!(paths.contains(&path(&["timing", "mem", "l1_bytes"])), "nested fields are covered");
    for p in paths {
        expect_skipped(&edit(&v, &p, None), &format!("line without {}", p.join(".")));
    }
    for dim in ["rows", "cols"] {
        expect_skipped(&edit(&v, &path(&["grid", dim]), Some(&num(0))), &format!("grid.{dim} = 0"));
    }
    expect_skipped(&edit(&v, &path(&["grid", "rows"]), Some(&num(256))), "grid.rows = 256");
    expect_skipped(&edit(&v, &path(&["dlq_version"]), Some(&num(3))), "another dlq_version");

    // A null watchdog is a record without one, not a broken line.
    let unwatched = edit(&v, &path(&["watchdog"]), Some(&JsonValue::Null));
    std::fs::write(&queue, sealed(&unwatched)).expect("write queue");
    assert_eq!(load_dlq(&queue), [DlqRecord { watchdog: None, ..record }]);
    let _ = std::fs::remove_dir_all(&dir);
}
