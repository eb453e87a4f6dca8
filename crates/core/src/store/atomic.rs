//! The one write path every durable store artifact goes through.
//!
//! [`atomic_write_file`] replaces a whole file as tempfile → write →
//! `fsync` → rename → parent-directory `fsync`. A kill at any instant
//! leaves either the old content or the new, never a mixture, and the
//! rename is durable once the parent is synced. `cargo xtask detlint`
//! forbids the persistence layer from writing files any other way (no
//! bare `std::fs::write` / `File::create` outside this module).
//!
//! What it writes is a *sealed* line ([`seal_line`]: a content digest
//! prefixed to the payload). Readers [`unseal_line`] and treat a bad seal
//! as a torn or corrupted file, so bit rot can cost an entry, never
//! serve a wrong one.
//!
//! The write is instrumented for the chaos harness: it passes through
//! the [`iofault`] shim (seeded short writes, injected `ENOSPC`/`EIO`,
//! torn tails, bit flips) and fires [`dlp_common::crashpoint`] sites on
//! each side of its commit point.

use std::io::{self, Write as _};
use std::path::Path;

use dlp_common::crashpoint::{self, CrashSites};

use super::iofault;
use super::{Digest, Hasher};

/// Prefix `payload` with the 32-hex content digest of its bytes,
/// separated by one space — the sealed-line format the store entries and
/// the stamp are written in as of format version 2.
#[must_use]
pub fn seal_line(payload: &str) -> String {
    let mut h = Hasher::new();
    h.update(payload.as_bytes());
    format!("{} {payload}", h.digest().hex())
}

/// Recover the payload of a sealed line, or `None` if the seal is
/// missing, malformed, or disagrees with the payload bytes (a torn
/// write or bit corruption — the caller degrades it to a miss).
#[must_use]
pub fn unseal_line(line: &str) -> Option<&str> {
    let (hex, payload) = line.split_once(' ')?;
    let sealed = Digest::from_hex(hex)?;
    let mut h = Hasher::new();
    h.update(payload.as_bytes());
    (h.digest() == sealed).then_some(payload)
}

/// Best-effort directory fsync: makes a just-committed rename durable.
/// Failure is ignored — not every filesystem lets a directory be opened
/// for syncing, and the rename itself has already happened.
fn sync_dir(path: &Path) {
    if let Ok(dir) = std::fs::File::open(path) {
        let _ = dir.sync_all();
    }
}

/// Atomically replace `path` with `bytes`: write a `.tmp-<pid>-<name>`
/// sibling, `fsync` it, rename it over `path`, and `fsync` the parent
/// directory. Fires `sites.tmp` between the sync and the rename and
/// `sites.renamed` after the parent sync, so the chaos harness can kill
/// on either side of the commit point.
///
/// # Errors
///
/// I/O errors from any step, including faults injected by the
/// [`iofault`] shim.
pub fn atomic_write_file(path: &Path, bytes: &[u8], sites: CrashSites) -> io::Result<()> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let tmp = path.with_file_name(format!(".tmp-{}-{name}", std::process::id()));
    let filtered = iofault::filter(bytes)?;
    let data = filtered.as_deref().unwrap_or(bytes);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(data)?;
        file.sync_all()?;
    }
    crashpoint::hit(sites.tmp);
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        sync_dir(parent);
    }
    crashpoint::hit(sites.renamed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SITES: CrashSites = CrashSites { tmp: "test.tmp", renamed: "test.renamed" };

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dlp-atomic-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    #[test]
    fn seal_round_trips_and_rejects_corruption() {
        let payload = r#"{"cell":3,"outcome":{"reason":"x","failures":1}}"#;
        let sealed = seal_line(payload);
        assert_eq!(unseal_line(&sealed), Some(payload));

        // Any payload flip breaks the seal.
        let flipped = sealed.replace("\"cell\":3", "\"cell\":7");
        assert_eq!(unseal_line(&flipped), None);
        // A flipped seal digit breaks it too.
        let mut chars: Vec<char> = sealed.chars().collect();
        chars[0] = if chars[0] == '0' { '1' } else { '0' };
        assert_eq!(unseal_line(&chars.into_iter().collect::<String>()), None);
        // Truncation (a torn write) breaks it.
        assert_eq!(unseal_line(&sealed[..sealed.len() - 4]), None);
        // Unsealed lines never pass.
        assert_eq!(unseal_line(payload), None);
        assert_eq!(unseal_line(""), None);
        assert_eq!(unseal_line("deadbeef not-32-hex"), None);
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = tmpdir("atomic");
        let path = dir.join("stamp.json");
        atomic_write_file(&path, b"v1\n", SITES).expect("write");
        assert_eq!(std::fs::read(&path).expect("read"), b"v1\n");
        atomic_write_file(&path, b"v2\n", SITES).expect("rewrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"v2\n");
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .expect("readdir")
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(stray.is_empty(), "no temp files survive a completed write");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
