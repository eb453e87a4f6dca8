//! The content-addressed result store — the persistence layer that
//! turns the sweep engine into a service.
//!
//! **[`ResultStore`]** is an on-disk cache of cell outcomes keyed by a
//! 128-bit content digest over *every input that can change the
//! result*: kernel, configuration, record count, derived workload
//! seed, fault plan, watchdog, retry budget, and the **lowering
//! fingerprint** (see [`lowering_fingerprint`]). It is built on
//! `dlp_common::json` (emit *and* parse — nothing else in the workspace
//! reads JSON back). A warm store makes a repeat sweep O(lookup): the
//! engine executes only cells whose inputs changed, and the report is
//! bit-identical to a cold run (enforced by the `store_sweep` tier-1
//! test and the CI store-smoke job). Corrupt, truncated, or
//! version-mismatched entries are treated as misses, never errors. The
//! store is also the sweep's checkpoint: each cacheable cell is written
//! as it completes, so a killed sweep rerun with the same `--store`
//! executes only the cells that had not landed — and the non-cacheable
//! failures, which a rerun re-diagnoses.
//!
//! # What is cacheable
//!
//! Only outcomes that are pure functions of the key may enter the
//! store: completed runs ([`crate::CellOutcome::Ran`], including
//! mismatches — wrong answers are deterministic too) and *deterministic
//! rejections* (verifier, capacity, unsupported-feature, malformed-
//! program, invalid-config failures). Watchdog trips, fault-budget
//! exhaustion, and internal panics are **not** cached — they are
//! exactly the outcomes an operator retries, so a rerun on the same
//! store executes them again. The sweep report records each such failure
//! ([`crate::SweepReport::failures`]). [`cacheable`] is the single
//! arbiter.
//!
//! # Key schema and invalidation
//!
//! The entry digest folds in [`STORE_VERSION`]; the lowering
//! fingerprint folds in [`LOWERING_SCHEMA`] plus the serialized kernel
//! IR and (for MIMD) the assembled program, so editing a kernel or
//! bumping the schema constant invalidates exactly the affected
//! entries. See `OPERATIONS.md` for the operator-facing invalidation
//! rules and runbooks.
//!
//! Every entry decodes through its type: it derives `FromJson` beside
//! `ToJson` (`dlp_common::json`), so it has one schema and a field added
//! to a type is read and written alike. Decoding is strict — an entry
//! missing any field, such as one written before a `SimStats` counter
//! existed, reads as corrupt (a miss): recomputing beats resurrecting a
//! half-zeroed record. The only checks written here by hand are the
//! format versions and digests.
//!
//! # Crash consistency
//!
//! As of format version 2 every durable write funnels through
//! [`atomic`]: whole files are replaced via tempfile → `fsync` →
//! rename ([`atomic_write_file`]), and every file holds one sealed line
//! (content digest prefix, [`seal_line`]). A process killed at *any*
//! instant — the [`CRASHPOINTS`] enumerate the interesting ones, and
//! `cargo xtask chaos` kills at each — leaves a store that resumes to
//! a byte-identical canonical report. Host-I/O faults (short writes,
//! `ENOSPC`/`EIO`, torn tails, bit flips; see [`iofault`]) degrade to
//! misses and recomputes, never wrong results: corrupt bytes can't
//! pass the seal. Concurrent sweeps on one store serialize on an
//! advisory [`lock::StoreLock`], and [`fsck::fsck`] (exposed as
//! `sweep --fsck`) quarantines anything a crash or bit rot left
//! unreadable. `DESIGN.md` §11 states the full
//! contract.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dlp_common::crashpoint::CrashSites;
use dlp_common::json::{self, FromJson, ToJson};
use dlp_common::{FaultPlan, GridShape, Tick, TimingParams};
use dlp_kernels::{DlpKernel, MimdTarget};
use trips_sim::MechanismSet;

use crate::sweep::CellOutcome;

pub mod atomic;
pub mod fsck;
pub mod iofault;
pub mod lock;

pub use atomic::{atomic_write_file, seal_line, unseal_line};
pub use fsck::{fsck, FsckReport};
pub use iofault::IoFaultPlan;
pub use lock::StoreLock;

/// On-disk entry format version. Bump when the entry layout, the key
/// schema, or the meaning of any digested field changes; every older
/// entry then reads as a miss and is recomputed. Version 2 introduced
/// the sealed-line entry format ([`seal_line`]).
pub const STORE_VERSION: u32 = 2;

/// Lowering-fingerprint schema version. Bump when the scheduler's
/// *semantics* change (placement, routing, unroll policy) in a way the
/// fingerprint's inputs cannot see — the fingerprint hashes the
/// scheduler's inputs (kernel IR, mechanisms, grid, timing, effective
/// unroll), not the placement output, so a pure scheduler-code change
/// needs this manual bump to invalidate warm stores.
pub const LOWERING_SCHEMA: u32 = 1;

/// Every named crashpoint threaded through the store's write paths, in
/// write-path order — the kill matrix `cargo xtask chaos` enumerates.
/// Arm one via `DLP_CRASHPOINT=<name>[:N]` to abort the process at its
/// Nth hit; `sweep` refuses to start when the variable names none of
/// these.
pub const CRASHPOINTS: &[&str] = &[
    "stamp.tmp",
    "stamp.renamed",
    "entry.tmp",
    "entry.renamed",
];

const STAMP_SITES: CrashSites = CrashSites { tmp: "stamp.tmp", renamed: "stamp.renamed" };
const ENTRY_SITES: CrashSites = CrashSites { tmp: "entry.tmp", renamed: "entry.renamed" };

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// A 128-bit content digest: two independent 64-bit FNV-1a streams over
/// the same bytes (distinct offset bases), rendered as 32 hex digits.
///
/// Not cryptographic — collision resistance here guards against
/// *accidental* key collisions across a few thousand sweep cells, where
/// 128 well-mixed bits are ample.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u64, pub u64);

impl Digest {
    /// The 32-hex-digit rendering used in file names and JSON.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }

    /// Parse the [`Digest::hex`] rendering.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Digest(hi, lo))
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.hex())
    }
}

/// Incremental FNV-1a/128 hasher (two independent 64-bit lanes).
#[derive(Clone, Copy)]
pub struct Hasher {
    a: u64,
    b: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    /// A fresh hasher (standard FNV offset basis on lane A, a distinct
    /// fixed basis on lane B).
    #[must_use]
    pub fn new() -> Self {
        Hasher { a: 0xcbf2_9ce4_8422_2325, b: 0x6c62_272e_07bb_0142 }
    }

    /// Fold bytes into both lanes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte ^ 0x5a)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold a labeled field: `label`, `=`, the value, then a `;`
    /// terminator, so adjacent fields can never alias.
    pub fn field(&mut self, label: &str, value: &str) {
        self.update(label.as_bytes());
        self.update(b"=");
        self.update(value.as_bytes());
        self.update(b";");
    }

    /// Finish, producing the digest.
    #[must_use]
    pub fn digest(&self) -> Digest {
        Digest(self.a, self.b)
    }
}

// ---------------------------------------------------------------------------
// Fingerprints and keys
// ---------------------------------------------------------------------------

/// Content fingerprint of one *lowering*: everything the scheduler
/// reads to produce a [`crate::PreparedProgram`], plus
/// [`LOWERING_SCHEMA`].
///
/// Inputs digested: the kernel's serialized IR (so editing a kernel
/// invalidates its entries), the mechanism set, grid, timing model, the
/// *effective* unroll (`natural_unroll(..).min(records)`, which is the
/// unroll the scheduler actually picks — two record counts mapping to
/// the same effective unroll share a fingerprint, and the record count
/// itself is a separate [`StoreKey`] field), and for MIMD
/// configurations the assembled per-node program
/// (MIMD lowering bypasses the IR). A failed MIMD assembly digests the
/// error text instead — still deterministic, and such cells fail at
/// prepare time anyway.
#[must_use]
pub fn lowering_fingerprint(
    kernel: &dyn DlpKernel,
    mech: MechanismSet,
    grid: GridShape,
    timing: &TimingParams,
    effective_unroll: usize,
) -> Digest {
    let mut h = Hasher::new();
    h.field("lowering_schema", &LOWERING_SCHEMA.to_string());
    h.field("kernel", kernel.name());
    h.field("mech", &json::to_string(&mech));
    h.field("grid", &json::to_string(&grid));
    h.field("timing", &json::to_string(timing));
    h.field("unroll", &effective_unroll.to_string());
    if mech.local_pc {
        let prog = kernel.mimd_program(MimdTarget { tables_in_l0: mech.l0_data_store });
        match prog {
            Ok(p) => h.field("mimd", &json::to_string(&p)),
            Err(e) => h.field("mimd_err", &e.to_string()),
        }
        h.field("mimd_table", &json::to_string(&kernel.mimd_table_image()));
    } else {
        h.field("ir", &json::to_string(&kernel.ir()));
    }
    h.digest()
}

/// The content address of one sweep cell: the human-readable key fields
/// plus the combined [`StoreKey::digest`] the store files under.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreKey {
    /// Kernel name.
    pub kernel: String,
    /// Configuration display name (audit only — the mechanism set is
    /// already inside [`StoreKey::lowering`]).
    pub config: String,
    /// Records processed.
    pub records: usize,
    /// The *derived* workload seed (see [`crate::sweep::derive_seed`]).
    pub seed: u64,
    /// The lowering fingerprint.
    pub lowering: Digest,
    /// The combined content address (what the entry is filed under).
    pub digest: Digest,
}

impl StoreKey {
    /// Build a key. Besides the named fields, the digest folds in the
    /// fault plan, watchdog override, the policy's retry budget (a cell
    /// that may retry with re-salted faults is a different computation
    /// than a single-attempt one), and [`STORE_VERSION`].
    #[must_use]
    #[allow(clippy::too_many_arguments)] // a key *is* its inputs; a builder would obscure them
    pub fn new(
        kernel: &str,
        config: &str,
        records: usize,
        seed: u64,
        fault: &FaultPlan,
        watchdog: Option<Tick>,
        max_attempts: u32,
        lowering: Digest,
    ) -> StoreKey {
        let mut h = Hasher::new();
        h.field("store_version", &STORE_VERSION.to_string());
        h.field("kernel", kernel);
        h.field("config", config);
        h.field("records", &records.to_string());
        h.field("seed", &seed.to_string());
        h.field("fault", &json::to_string(fault));
        h.field("watchdog", &watchdog.map_or_else(|| "none".to_string(), |t| t.to_string()));
        h.field("max_attempts", &max_attempts.to_string());
        h.field("lowering", &lowering.hex());
        StoreKey {
            kernel: kernel.to_string(),
            config: config.to_string(),
            records,
            seed,
            lowering,
            digest: h.digest(),
        }
    }
}

/// Whether an outcome is a pure function of its [`StoreKey`] and may
/// enter the result store. See the module docs for the taxonomy split;
/// the complement of this predicate is exactly the set of failures a
/// rerun on the same store executes again (plus [`CellOutcome::Skipped`],
/// which the sweep never produces).
#[must_use]
pub fn cacheable(outcome: &CellOutcome) -> bool {
    match outcome {
        CellOutcome::Ran { .. } => true,
        CellOutcome::Failed { kind, timed_out, .. } => {
            !timed_out
                && matches!(
                    kind.as_str(),
                    "verify"
                        | "capacity-exceeded"
                        | "unsupported"
                        | "malformed-program"
                        | "invalid-config"
                )
        }
        CellOutcome::Skipped { .. } => false,
    }
}

// ---------------------------------------------------------------------------
// The result store
// ---------------------------------------------------------------------------

/// One store entry as written to disk (the key fields are for audit —
/// lookups trust only the digest, and a digest/filename disagreement
/// reads as corrupt).
#[derive(ToJson)]
struct StoredEntry {
    store_version: u32,
    kernel: String,
    config: String,
    records: usize,
    seed: u64,
    lowering: String,
    digest: String,
    outcome: CellOutcome,
}

/// The fields of a [`StoredEntry`] a read checks; the audit fields are
/// not read.
#[derive(FromJson)]
struct EntryHead {
    store_version: u32,
    digest: String,
    outcome: CellOutcome,
}

/// Read the entry file at `path` as the store trusts it: sealed, of the
/// current [`STORE_VERSION`], filed under its own digest `digest_hex`,
/// and decoding in full. Every failure is `None`. Shared by
/// [`ResultStore::get`] and [`fsck`].
pub(crate) fn read_entry(path: &Path, digest_hex: &str) -> Option<CellOutcome> {
    let text = std::fs::read_to_string(path).ok()?;
    let payload = unseal_line(text.trim_end_matches('\n'))?;
    let entry: EntryHead = json::from_str(payload)?;
    (entry.store_version == STORE_VERSION && entry.digest == digest_hex).then_some(entry.outcome)
}

/// A content-addressed on-disk cache of sweep-cell outcomes.
///
/// Layout under the root: `entries/<first 2 hex>/<32 hex>.json`, one
/// file per key (the two-digit shard keeps directories small at
/// millions of entries), plus a `STORE_INFO.json` stamp and a `LOCK`
/// file. Writes go through [`atomic_write_file`] (tempfile → `fsync` →
/// rename), so a killed process never leaves a half-written entry a
/// later run could read; entries are sealed lines, so bit corruption
/// can't serve a wrong result. All read failures — I/O, bad seal,
/// parse, version or digest mismatch, missing counters — degrade to a
/// miss; the store can always be deleted wholesale with no correctness
/// impact (see `OPERATIONS.md`). Opening the store acquires the
/// advisory [`StoreLock`], held until the store is dropped, so
/// concurrent sweep *processes* on one root serialize.
///
/// # Examples
///
/// ```no_run
/// use dlp_core::store::{lowering_fingerprint, ResultStore, StoreKey};
/// # fn main() -> std::io::Result<()> {
/// let store = ResultStore::open("dlp-store")?;
/// # let key: StoreKey = unimplemented!();
/// if let Some(outcome) = store.get(&key) {
///     println!("cache hit: {:?}", outcome.stats());
/// }
/// # Ok(())
/// # }
/// ```
pub struct ResultStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Held for the store's lifetime; serializes sweep processes.
    _lock: StoreLock,
}

/// Write (or refresh) the sealed `STORE_INFO.json` stamp under `root`,
/// atomically. Returns whether the stamp was missing or stale and got
/// rewritten. Shared by [`ResultStore::open`] and [`fsck`].
pub(crate) fn write_stamp(root: &Path) -> io::Result<bool> {
    let info = root.join("STORE_INFO.json");
    let payload =
        format!("{{\"store_version\":{STORE_VERSION},\"lowering_schema\":{LOWERING_SCHEMA}}}");
    let stamp = format!("{}\n", seal_line(&payload));
    if std::fs::read_to_string(&info).ok().as_deref() == Some(stamp.as_str()) {
        return Ok(false);
    }
    atomic_write_file(&info, stamp.as_bytes(), STAMP_SITES)?;
    Ok(true)
}

impl ResultStore {
    /// Open (creating if needed) a store rooted at `root`, acquiring
    /// the advisory store lock (blocking, with a stderr note, while
    /// another process holds it).
    ///
    /// A `STORE_INFO.json` stamp records the [`STORE_VERSION`]; a stamp
    /// from a different version is rewritten (old entries simply stop
    /// matching — their digests embed the old version).
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory tree, taking the lock, or
    /// writing the stamp.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ResultStore> {
        let root = root.into();
        std::fs::create_dir_all(root.join("entries"))?;
        let lock = StoreLock::acquire(&root)?;
        write_stamp(&root)?;
        Ok(ResultStore { root, hits: AtomicU64::new(0), misses: AtomicU64::new(0), _lock: lock })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The entry file a key is stored under.
    #[must_use]
    pub fn path_of(&self, key: &StoreKey) -> PathBuf {
        let hex = key.digest.hex();
        self.root.join("entries").join(&hex[..2]).join(format!("{hex}.json"))
    }

    /// Lookups served from the store so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found no (valid) entry.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Look up a key. Every failure mode — absent file, I/O error,
    /// broken seal, parse error, version skew, digest mismatch — is a
    /// miss.
    #[must_use]
    pub fn get(&self, key: &StoreKey) -> Option<CellOutcome> {
        let outcome = read_entry(&self.path_of(key), &key.digest.hex());
        match outcome {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        outcome
    }

    /// Insert an outcome, if [`cacheable`]. Returns whether an entry
    /// was written. The write is a sealed line committed through
    /// [`atomic_write_file`], so concurrent writers of the same key
    /// race benignly (identical content), readers never observe a
    /// partial entry, and a kill at any instant leaves either no entry
    /// or a complete durable one.
    ///
    /// # Errors
    ///
    /// I/O errors creating the shard directory or writing the entry
    /// (including faults injected by the [`iofault`] shim).
    pub fn put(&self, key: &StoreKey, outcome: &CellOutcome) -> io::Result<bool> {
        if !cacheable(outcome) {
            return Ok(false);
        }
        let path = self.path_of(key);
        let shard = path.parent().unwrap_or(&self.root).to_path_buf();
        std::fs::create_dir_all(&shard)?;
        let entry = StoredEntry {
            store_version: STORE_VERSION,
            kernel: key.kernel.clone(),
            config: key.config.clone(),
            records: key.records,
            seed: key.seed,
            lowering: key.lowering.hex(),
            digest: key.digest.hex(),
            outcome: outcome.clone(),
        };
        let line = format!("{}\n", seal_line(&json::to_string(&entry)));
        atomic_write_file(&path, line.as_bytes(), ENTRY_SITES)?;
        Ok(true)
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    //! Shared fixtures for the store submodules' unit tests.
    use super::*;
    pub(crate) use dlp_common::SimStats;

    pub(crate) fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("dlp-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    pub(crate) fn sample_key(tag: u64) -> StoreKey {
        StoreKey::new(
            "convert",
            "S-O",
            24,
            tag,
            &FaultPlan::none(),
            None,
            1,
            Digest(7, 9),
        )
    }

    pub(crate) fn ran_outcome() -> CellOutcome {
        CellOutcome::Ran {
            stats: SimStats { ticks: 42, useful_ops: 7, ..SimStats::default() },
            mismatch: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{ran_outcome, sample_key, tmpdir, SimStats};
    use super::*;
    use crate::MachineConfig;

    #[test]
    fn digest_hex_round_trips() {
        let d = Digest(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
        assert_eq!(Digest::from_hex(&d.hex()), Some(d));
        assert_eq!(Digest::from_hex("short"), None);
        assert_eq!(Digest::from_hex(&"z".repeat(32)), None);
    }

    #[test]
    fn keys_separate_every_input() {
        let base = sample_key(1);
        let (none, salted) = (FaultPlan::none(), FaultPlan::none().with_salt(1));
        let key = |kernel: &str, config: &str, records: usize, fault: &FaultPlan| {
            StoreKey::new(kernel, config, records, 1, fault, None, 1, Digest(7, 9))
        };
        let others = [
            ("seed", sample_key(2)),
            ("kernel", key("fft", "S-O", 24, &none)),
            ("config", key("convert", "S-O-D", 24, &none)),
            ("records", key("convert", "S-O", 16, &none)),
            ("fault salt", key("convert", "S-O", 24, &salted)),
            ("lowering", StoreKey::new("convert", "S-O", 24, 1, &none, None, 1, Digest(7, 10))),
            ("watchdog", StoreKey::new("convert", "S-O", 24, 1, &none, Some(100), 1, Digest(7, 9))),
            ("attempts", StoreKey::new("convert", "S-O", 24, 1, &none, None, 3, Digest(7, 9))),
        ];
        assert_eq!(base.digest, key("convert", "S-O", 24, &none).digest, "same inputs");
        for (what, other) in others {
            assert_ne!(base.digest, other.digest, "keys differing only in {what} must differ");
        }
    }

    #[test]
    fn store_round_trips_ran_and_deterministic_failures() {
        let dir = tmpdir("roundtrip");
        let store = ResultStore::open(&dir).expect("open");
        let key = sample_key(1);
        assert_eq!(store.get(&key), None);
        assert!(store.put(&key, &ran_outcome()).expect("put"));
        assert_eq!(store.get(&key), Some(ran_outcome()));

        let vkey = sample_key(2);
        let verify_failure = CellOutcome::Failed {
            error: "verification failed [V0101] ...".into(),
            kind: "verify".into(),
            attempts: 0,
            timed_out: false,
        };
        assert!(store.put(&vkey, &verify_failure).expect("put"));
        assert_eq!(store.get(&vkey), Some(verify_failure));
        assert_eq!(store.hits(), 2);
        assert_eq!(store.misses(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nondeterministic_failures_are_not_cacheable() {
        for kind in ["watchdog", "fault-unrecoverable", "internal"] {
            let outcome = CellOutcome::Failed {
                error: "e".into(),
                kind: kind.into(),
                attempts: 1,
                timed_out: false,
            };
            assert!(!cacheable(&outcome), "{kind} must rerun, not be stored");
        }
        let timed_out = CellOutcome::Failed {
            error: "e".into(),
            kind: "verify".into(),
            attempts: 1,
            timed_out: true,
        };
        assert!(!cacheable(&timed_out), "soft timeouts are host-dependent");
        assert!(!cacheable(&CellOutcome::Skipped { reason: "r".into(), failures: 3 }));
        let dir = tmpdir("nocache");
        let store = ResultStore::open(&dir).expect("open");
        let key = sample_key(3);
        let watchdog = CellOutcome::Failed {
            error: "w".into(),
            kind: "watchdog".into(),
            attempts: 1,
            timed_out: false,
        };
        assert!(!store.put(&key, &watchdog).expect("put"), "refused");
        assert_eq!(store.get(&key), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_mismatched_entries_are_misses() {
        let dir = tmpdir("corrupt");
        let store = ResultStore::open(&dir).expect("open");
        let key = sample_key(4);
        assert!(store.put(&key, &ran_outcome()).expect("put"));

        // Garbage content.
        std::fs::write(store.path_of(&key), "{not json").expect("write");
        assert_eq!(store.get(&key), None, "corrupt entry is a miss");

        // A flipped payload byte breaks the seal.
        assert!(store.put(&key, &ran_outcome()).expect("re-put"));
        let text = std::fs::read_to_string(store.path_of(&key)).expect("read");
        std::fs::write(store.path_of(&key), text.replace("\"ticks\":42", "\"ticks\":43"))
            .expect("write");
        assert_eq!(store.get(&key), None, "bit corruption is a miss, never a wrong result");

        // Correctly re-sealed, but the wrong store version.
        assert!(store.put(&key, &ran_outcome()).expect("re-put"));
        let text = std::fs::read_to_string(store.path_of(&key)).expect("read");
        let payload = unseal_line(text.trim_end_matches('\n')).expect("sealed");
        let skewed = payload.replace(
            &format!("\"store_version\":{STORE_VERSION}"),
            &format!("\"store_version\":{}", STORE_VERSION + 1),
        );
        std::fs::write(store.path_of(&key), format!("{}\n", seal_line(&skewed)))
            .expect("write");
        assert_eq!(store.get(&key), None, "version skew is a miss");

        // An entry filed under the wrong digest (e.g. a hand-copied
        // file) must not be served.
        assert!(store.put(&key, &ran_outcome()).expect("re-put"));
        let other = sample_key(5);
        let shard = store.path_of(&other);
        std::fs::create_dir_all(shard.parent().expect("shard")).expect("mkdir");
        std::fs::copy(store.path_of(&key), &shard).expect("copy");
        assert_eq!(store.get(&other), None, "digest mismatch is a miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outcome_json_round_trips_all_variants() {
        let outcomes = [
            ran_outcome(),
            CellOutcome::Ran {
                stats: SimStats::default(),
                mismatch: Some(17),
            },
            CellOutcome::Failed {
                error: "boom \"quoted\"".into(),
                kind: "watchdog".into(),
                attempts: 3,
                timed_out: true,
            },
            CellOutcome::Skipped { reason: "skipped on S-O".into(), failures: 4 },
        ];
        for outcome in outcomes {
            assert_eq!(json::from_str(&json::to_string(&outcome)), Some(outcome));
        }
    }

    #[test]
    fn lowering_fingerprint_separates_inputs() {
        let suite = dlp_kernels::suite();
        let convert =
            suite.iter().find(|k| k.name() == "convert").expect("suite kernel").as_ref();
        let fft = suite.iter().find(|k| k.name() == "fft").expect("suite kernel").as_ref();
        let grid = GridShape::trips_baseline();
        let timing = TimingParams::default();
        let base = lowering_fingerprint(convert, MachineConfig::SO.mechanisms(), grid, &timing, 16);
        assert_eq!(
            base,
            lowering_fingerprint(convert, MachineConfig::SO.mechanisms(), grid, &timing, 16),
            "pure function"
        );
        assert_ne!(
            base,
            lowering_fingerprint(fft, MachineConfig::SO.mechanisms(), grid, &timing, 16),
            "kernel separates"
        );
        assert_ne!(
            base,
            lowering_fingerprint(convert, MachineConfig::S.mechanisms(), grid, &timing, 16),
            "mechanisms separate"
        );
        assert_ne!(
            base,
            lowering_fingerprint(convert, MachineConfig::SO.mechanisms(), grid, &timing, 8),
            "effective unroll separates"
        );
        let mut slow = timing;
        slow.mem.l1_hit_latency += 2;
        assert_ne!(
            base,
            lowering_fingerprint(convert, MachineConfig::SO.mechanisms(), grid, &slow, 16),
            "timing separates"
        );
        // MIMD fingerprints hash the assembled program, not the IR.
        let m = lowering_fingerprint(convert, MachineConfig::M.mechanisms(), grid, &timing, 0);
        let md = lowering_fingerprint(convert, MachineConfig::MD.mechanisms(), grid, &timing, 0);
        assert_ne!(m, md, "MIMD table placement separates");
    }
}
