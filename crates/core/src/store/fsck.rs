//! Store fsck: scan a result store, quarantine what cannot be trusted,
//! and garbage-collect what a crash left behind.
//!
//! A damaged store is never *wrong* — every read path degrades to a
//! miss — but it can silently cost recomputation forever (a corrupt
//! entry is re-missed on every sweep until something overwrites it) and
//! a kill inside the atomic writer leaves `.tmp-*` droppings. `fsck`
//! makes the degradation visible and bounded:
//!
//! * every entry file is read back through the one entry reader the
//!   store's `get` uses (seal, decode, version, digest-vs-filename);
//!   failures move to `quarantine/` for post-mortem instead of being
//!   deleted;
//! * files that don't belong in the layout (stray names, wrong shard)
//!   are quarantined as *orphaned*;
//! * stale `.tmp-*` files in the root and the shards are removed;
//! * a missing or stale `STORE_INFO.json` stamp is rewritten.
//!
//! Exposed as `sweep --fsck DIR`; the chaos harness runs it after
//! every injected kill. Takes the store
//! lock, so it cannot race a live sweep in another process.

use std::io;
use std::path::{Path, PathBuf};

use dlp_common::json::ToJson;

use super::lock::StoreLock;
use super::{read_entry, Digest};

/// What one [`fsck`] pass found and did. Serializable for
/// `BENCH_chaos.json` and the `--fsck` CLI output.
#[derive(Clone, Debug, Default, PartialEq, Eq, ToJson)]
pub struct FsckReport {
    /// Entry files scanned.
    pub scanned: usize,
    /// Entries that read back valid.
    pub valid: usize,
    /// Corrupt entries (bad seal/JSON/version/digest) moved to
    /// `quarantine/`.
    pub quarantined: usize,
    /// Files that don't belong in the layout (stray names, wrong
    /// shard), also moved to `quarantine/`.
    pub orphaned: usize,
    /// Stale `.tmp-*` files removed.
    pub gc_tmp: usize,
    /// Whether the `STORE_INFO.json` stamp was missing or stale and got
    /// rewritten.
    pub restamped: bool,
}

/// Move a file into `quarantine/`, creating the directory lazily.
fn quarantine(root: &Path, file: &Path) -> io::Result<()> {
    let qdir = root.join("quarantine");
    std::fs::create_dir_all(&qdir)?;
    let name = file.file_name().map_or_else(|| "unnamed".into(), |n| n.to_os_string());
    std::fs::rename(file, qdir.join(name))
}

fn is_tmp(name: &str) -> bool {
    name.starts_with(".tmp-")
}

/// The shard-and-name shape a valid entry file must have: filed under
/// `entries/<d[..2]>/<d>.json` where `d` is 32 hex digits.
fn well_placed(shard: &str, name: &str) -> Option<String> {
    let stem = name.strip_suffix(".json")?;
    Digest::from_hex(stem)?;
    (&stem[..2] == shard).then(|| stem.to_string())
}

/// Scan the store rooted at `root` (creating it if absent, like
/// `ResultStore::open`): quarantine corrupt and orphaned entries,
/// remove stale temp files, and refresh the stamp. Holds the store
/// lock for the duration.
///
/// # Errors
///
/// I/O errors walking the tree or moving files. A *corrupt entry* is
/// never an error — finding those is the job.
pub fn fsck(root: &Path) -> io::Result<FsckReport> {
    let entries_dir = root.join("entries");
    std::fs::create_dir_all(&entries_dir)?;
    let _lock = StoreLock::acquire(root)?;

    let mut report = FsckReport::default();

    // Stale temp files in the root (a killed stamp write).
    for entry in std::fs::read_dir(root)?.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.path().is_file() && is_tmp(&name) {
            std::fs::remove_file(entry.path())?;
            report.gc_tmp += 1;
        }
    }

    let mut shards: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(&entries_dir)?.flatten() {
        let path = entry.path();
        if path.is_dir() {
            shards.push(path);
        } else {
            // Files directly under entries/ never belong to the layout.
            let name = entry.file_name().to_string_lossy().into_owned();
            if is_tmp(&name) {
                std::fs::remove_file(&path)?;
                report.gc_tmp += 1;
            } else {
                quarantine(root, &path)?;
                report.orphaned += 1;
            }
        }
    }
    shards.sort();

    for shard in shards {
        let shard_name = shard.file_name().map_or_else(String::new, |n| {
            n.to_string_lossy().into_owned()
        });
        let mut files: Vec<PathBuf> =
            std::fs::read_dir(&shard)?.flatten().map(|e| e.path()).collect();
        files.sort();
        for file in files {
            let name =
                file.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
            if is_tmp(&name) {
                std::fs::remove_file(&file)?;
                report.gc_tmp += 1;
                continue;
            }
            let Some(digest_hex) = well_placed(&shard_name, &name) else {
                quarantine(root, &file)?;
                report.orphaned += 1;
                continue;
            };
            report.scanned += 1;
            if read_entry(&file, &digest_hex).is_some() {
                report.valid += 1;
            } else {
                quarantine(root, &file)?;
                report.quarantined += 1;
            }
        }
    }

    report.restamped = super::write_stamp(root)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::super::tests_support::{ran_outcome, sample_key, tmpdir};
    use super::super::ResultStore;
    use super::*;

    #[test]
    fn fsck_quarantines_gcs_and_keeps_valid_entries() {
        let dir = tmpdir("fsck");
        let store = ResultStore::open(&dir).expect("open");
        let good = sample_key(1);
        let bad = sample_key(2);
        assert!(store.put(&good, &ran_outcome()).expect("put good"));
        assert!(store.put(&bad, &ran_outcome()).expect("put bad"));
        let bad_path = store.path_of(&bad);
        drop(store);

        // Corrupt one entry, drop a stale tmp file and two orphans.
        std::fs::write(&bad_path, "{torn").expect("corrupt");
        std::fs::write(dir.join("entries").join(".tmp-999-x"), "junk").expect("tmp");
        std::fs::write(dir.join("entries").join("stray.txt"), "junk").expect("orphan");
        let misfiled = dir.join("entries").join("ff");
        std::fs::create_dir_all(&misfiled).expect("mkdir");
        std::fs::write(misfiled.join(format!("{}.json", "0".repeat(32))), "x").expect("misfiled");

        let report = fsck(&dir).expect("fsck");
        assert_eq!(report.scanned, 2, "misfiled entries are orphans, not scans");
        assert_eq!(report.valid, 1);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.orphaned, 2);
        assert_eq!(report.gc_tmp, 1);
        assert!(!report.restamped, "the stamp was already current");

        // The corrupt entry is preserved for post-mortem, not deleted.
        assert!(dir.join("quarantine").join(format!("{}.json", bad.digest.hex())).exists());
        // The good entry still serves.
        let store = ResultStore::open(&dir).expect("reopen");
        assert_eq!(store.get(&good), Some(ran_outcome()));
        assert_eq!(store.get(&bad), None, "quarantined entry is a miss");

        // A second pass over the repaired store is a no-op.
        drop(store);
        let clean = fsck(&dir).expect("fsck again");
        assert_eq!(
            clean,
            FsckReport { scanned: 1, valid: 1, ..FsckReport::default() }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_restamps_and_creates_missing_stores() {
        let dir = tmpdir("fsck-stamp");
        let root = dir.join("fresh");
        let report = fsck(&root).expect("fsck on a nonexistent root");
        assert!(report.restamped, "a fresh root gets a stamp");
        std::fs::write(root.join("STORE_INFO.json"), "garbage").expect("break stamp");
        assert!(fsck(&root).expect("fsck").restamped);
        assert!(!fsck(&root).expect("fsck").restamped);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
