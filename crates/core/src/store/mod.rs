//! The content-addressed result store, sweep checkpoint manifests, and
//! the dead-letter queue — the persistence layer that turns the sweep
//! engine into a service.
//!
//! Three durable artifacts live here, all built on `dlp_common::json`
//! (emit *and* parse — nothing else in the workspace reads JSON back):
//!
//! * **[`ResultStore`]** — an on-disk cache of cell outcomes keyed by a
//!   128-bit content digest over *every input that can change the
//!   result*: kernel, configuration, record count, derived workload
//!   seed, fault plan, watchdog, retry budget, and the **lowering
//!   fingerprint** (see [`lowering_fingerprint`]). A warm store makes a
//!   repeat sweep O(lookup): the engine executes only cells whose
//!   inputs changed, and the report is bit-identical to a cold run
//!   (enforced by the `store_sweep` tier-1 test and the CI store-smoke
//!   job). Corrupt, truncated, or version-mismatched entries are
//!   treated as misses, never errors.
//! * **[`SweepManifest`]** — an append-only JSONL checkpoint of one
//!   sweep run. The engine writes one line per completed cell, so a
//!   killed process loses only its in-flight cells;
//!   `sweep --resume <manifest>` re-runs the grid executing only the
//!   missing ones.
//! * **The dead-letter queue** ([`DlqRecord`]) — cells that exhausted
//!   their [`crate::SweepPolicy`] retries with a *non-cacheable* failure
//!   (watchdog, unrecoverable fault, internal error) are appended as
//!   fully self-describing records: kernel, mechanism set, grid, timing,
//!   fault plan, seed. `sweep --replay-dlq` reconstructs and re-runs
//!   them with `faults`-style diagnosis.
//!
//! # What is cacheable
//!
//! Only outcomes that are pure functions of the key may enter the
//! store: completed runs ([`crate::CellOutcome::Ran`], including
//! mismatches — wrong answers are deterministic too) and *deterministic
//! rejections* (verifier, capacity, unsupported-feature, malformed-
//! program, invalid-config failures). Watchdog trips, fault-budget
//! exhaustion, and internal panics are **not** cached — they are
//! exactly the outcomes an operator retries, so they go to the
//! dead-letter queue instead. [`cacheable`] is the single arbiter.
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
//! Every record decodes through its type: entries, manifest lines and
//! dead-letter records derive `FromJson` beside `ToJson`
//! (`dlp_common::json`), so each has one schema and a field added to a
//! type is read and written alike. Decoding is strict — a record missing
//! any field, such as one written before a `SimStats` counter existed,
//! reads as corrupt (a miss, a skipped or torn line): recomputing beats
//! resurrecting a half-zeroed record. The only checks written here by
//! hand are the format versions and digests.
//!
//! # Crash consistency
//!
//! As of format version 2 every durable write funnels through
//! [`atomic`]: whole files are replaced via tempfile → `fsync` →
//! rename ([`atomic_write_file`]), appends are sealed lines (content
//! digest prefix, [`seal_line`]) written in one `write_all` and
//! `fdatasync`ed ([`AppendWriter`]). A process killed at *any* instant
//! — the [`CRASHPOINTS`] enumerate the interesting ones, and
//! `cargo xtask chaos` kills at each — leaves a store that resumes to
//! a byte-identical canonical report. Host-I/O faults (short writes,
//! `ENOSPC`/`EIO`, torn tails, bit flips; see [`iofault`]) degrade to
//! misses and recomputes, never wrong results: corrupt bytes can't
//! pass the seal. Concurrent sweeps on one store serialize on an
//! advisory [`lock::StoreLock`], and [`fsck::fsck`] (exposed as
//! `sweep --fsck`) quarantines anything a crash or bit rot left
//! unreadable. `DESIGN.md` §11 states the full
//! contract.

use std::io::{self, BufRead as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dlp_common::crashpoint::CrashSites;
use dlp_common::json::{self, FromJson, ToJson};
use dlp_common::{DlpError, FaultPlan, GridShape, Tick, TimingParams};
use dlp_kernels::{DlpKernel, MimdTarget};
use trips_sim::MechanismSet;

use crate::sweep::CellOutcome;
use crate::ExperimentParams;

pub mod atomic;
pub mod fsck;
pub mod iofault;
pub mod lock;

pub use atomic::{atomic_write_file, seal_line, unseal_line, AppendSites, AppendWriter};
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

/// Manifest line-format version. Version 2: header and cell lines are
/// sealed ([`seal_line`]).
pub const MANIFEST_VERSION: u32 = 2;

/// Dead-letter record format version. Version 2: lines are sealed
/// ([`seal_line`]).
pub const DLQ_VERSION: u32 = 2;

/// Every named crashpoint threaded through the store's write paths, in
/// write-path order — the kill matrix `cargo xtask chaos` enumerates.
/// Arm one via `DLP_CRASHPOINT=<name>[:N]` to abort the process at its
/// Nth hit; `sweep` refuses to start when the variable names none of
/// these.
pub const CRASHPOINTS: &[&str] = &[
    "stamp.tmp",
    "stamp.renamed",
    "manifest.header",
    "entry.tmp",
    "entry.renamed",
    "manifest.append",
    "manifest.synced",
    "dlq.append",
    "dlq.synced",
    "dlq-rewrite.tmp",
    "dlq-rewrite.renamed",
];

const STAMP_SITES: CrashSites = CrashSites { tmp: "stamp.tmp", renamed: "stamp.renamed" };
const ENTRY_SITES: CrashSites = CrashSites { tmp: "entry.tmp", renamed: "entry.renamed" };
const DLQ_REWRITE_SITES: CrashSites =
    CrashSites { tmp: "dlq-rewrite.tmp", renamed: "dlq-rewrite.renamed" };
const MANIFEST_SITES: AppendSites =
    AppendSites { appended: "manifest.append", synced: "manifest.synced" };
const MANIFEST_HEADER_SITES: AppendSites =
    AppendSites { appended: "manifest.header", synced: "manifest.synced" };
const DLQ_SITES: AppendSites = AppendSites { appended: "dlq.append", synced: "dlq.synced" };

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
/// the complement of this predicate is exactly the dead-letter set
/// (plus [`CellOutcome::Skipped`], which the sweep never produces).
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

// ---------------------------------------------------------------------------
// Sweep manifests (checkpoint / resume)
// ---------------------------------------------------------------------------

/// One completed cell recorded in a manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct ManifestEntry {
    /// What happened.
    pub outcome: CellOutcome,
    /// Host wall-clock the cell took when first executed, ms.
    pub wall_ms: f64,
    /// Attempts spent.
    pub attempts: u32,
}

/// A manifest's first line: the grid identity a resume must match.
#[derive(ToJson, FromJson)]
struct ManifestHeader {
    manifest_version: u32,
    grid_digest: String,
    cells: usize,
}

/// One completed cell as a manifest line. `wall_ms` is written as `null`
/// when it is not finite, and reads back as 0.
#[derive(ToJson, FromJson)]
struct ManifestLine {
    cell: usize,
    attempts: u32,
    wall_ms: Option<f64>,
    outcome: CellOutcome,
}

/// A parsed sweep checkpoint: the grid identity plus every cell
/// recorded so far, indexed by push position.
#[derive(Clone, Debug)]
pub struct SweepManifest {
    /// Digest over the per-cell store digests in push order — a resumed
    /// sweep must present the identical grid.
    pub grid_digest: Digest,
    /// Total cells in the grid.
    pub cells: usize,
    /// Recorded outcomes (`None` where the cell had not completed).
    pub entries: Vec<Option<ManifestEntry>>,
}

impl SweepManifest {
    /// Number of cells with a recorded outcome.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Load a manifest written by [`ManifestWriter`].
    ///
    /// Every line must [`unseal_line`]. The final line of a killed run
    /// may be torn; a seal or parse failure on the *last* line is
    /// tolerated (that cell reads as missing), while malformed interior
    /// lines fail the load — they indicate real corruption, not an
    /// interrupted write.
    ///
    /// # Errors
    ///
    /// [`DlpError::InvalidConfig`] on I/O failure, a bad header, or
    /// interior corruption.
    pub fn load(path: &Path) -> Result<SweepManifest, DlpError> {
        let bad = |detail: String| DlpError::InvalidConfig { detail };
        let text = std::fs::read_to_string(path)
            .map_err(|e| bad(format!("manifest {}: {e}", path.display())))?;
        let mut lines = text.lines().enumerate().peekable();
        let (_, header_line) = lines
            .next()
            .ok_or_else(|| bad(format!("manifest {}: empty file", path.display())))?;
        let header = unseal_line(header_line)
            .ok_or_else(|| bad(format!("manifest {}: broken header seal", path.display())))?;
        let h: ManifestHeader = json::from_str(header)
            .ok_or_else(|| bad(format!("manifest {}: malformed header", path.display())))?;
        if h.manifest_version != MANIFEST_VERSION {
            return Err(bad(format!(
                "manifest version {} (this build reads {MANIFEST_VERSION})",
                h.manifest_version
            )));
        }
        let grid_digest = Digest::from_hex(&h.grid_digest)
            .ok_or_else(|| bad("manifest header: bad grid_digest".into()))?;
        let cells = h.cells;
        let mut entries: Vec<Option<ManifestEntry>> = vec![None; cells];
        while let Some((lineno, line)) = lines.next() {
            if line.trim().is_empty() {
                continue;
            }
            match unseal_line(line).and_then(json::from_str::<ManifestLine>) {
                Some(ManifestLine { cell, attempts, wall_ms, outcome }) if cell < cells => {
                    let wall_ms = wall_ms.unwrap_or(0.0);
                    entries[cell] = Some(ManifestEntry { outcome, wall_ms, attempts });
                }
                Some(ManifestLine { cell, .. }) => {
                    return Err(bad(format!(
                        "manifest line {}: cell {cell} out of range (grid has {cells})",
                        lineno + 1
                    )))
                }
                // A torn final line is the normal kill signature.
                None if lines.peek().is_none() => break,
                None => {
                    return Err(bad(format!("manifest line {}: unparsable entry", lineno + 1)))
                }
            }
        }
        Ok(SweepManifest { grid_digest, cells, entries })
    }
}

/// Incremental manifest writer: a sealed header line at creation, then
/// one sealed, `fdatasync`ed line per completed cell, so a kill loses
/// at most the in-flight cells and a machine crash can tear at most
/// the final line.
pub struct ManifestWriter {
    file: AppendWriter,
}

impl ManifestWriter {
    /// Create (truncating) a manifest for a grid whose per-cell digests
    /// are `cell_digests`, in push order.
    ///
    /// # Errors
    ///
    /// I/O errors creating the file or writing the header.
    pub fn create(path: &Path, cell_digests: &[Digest]) -> io::Result<ManifestWriter> {
        let file = AppendWriter::create(path, MANIFEST_SITES)?;
        let header = ManifestHeader {
            manifest_version: MANIFEST_VERSION,
            grid_digest: grid_digest(cell_digests).hex(),
            cells: cell_digests.len(),
        };
        file.append_line_at(&json::to_string(&header), MANIFEST_HEADER_SITES)?;
        Ok(ManifestWriter { file })
    }

    /// Reopen an existing manifest for appending — the resume path
    /// (the header is already on disk). A torn final line from the
    /// interrupted run is truncated away first, so it can't glue onto
    /// the next append and corrupt an interior line.
    ///
    /// # Errors
    ///
    /// I/O errors opening or repairing the file.
    pub fn append_to(path: &Path) -> io::Result<ManifestWriter> {
        truncate_torn_tail(path)?;
        let file = AppendWriter::append_to(path, MANIFEST_SITES)?;
        Ok(ManifestWriter { file })
    }

    /// Append a completed cell (thread-safe; sealed and synced before
    /// returning).
    pub fn append(&self, cell: usize, entry: &ManifestEntry) {
        let line = json::to_string(&ManifestLine {
            cell,
            attempts: entry.attempts,
            wall_ms: Some(entry.wall_ms),
            outcome: entry.outcome.clone(),
        });
        // Checkpointing is best-effort by design: an unwritable
        // manifest must not fail the sweep it is backing up.
        let _ = self.file.append_line(&line);
    }
}

/// The grid-identity digest a manifest pins: the per-cell store digests
/// in push order.
#[must_use]
pub fn grid_digest(cell_digests: &[Digest]) -> Digest {
    let mut h = Hasher::new();
    h.field("manifest_version", &MANIFEST_VERSION.to_string());
    for d in cell_digests {
        h.field("cell", &d.hex());
    }
    h.digest()
}

// ---------------------------------------------------------------------------
// Dead-letter queue
// ---------------------------------------------------------------------------

/// A dead-lettered cell: a self-describing, replayable record of a
/// sweep cell that exhausted its retries with a non-[`cacheable`]
/// failure. Everything needed to reconstruct the cell is inline —
/// mechanism set, grid, timing, fault plan, base seed — so a later
/// `sweep --replay-dlq` needs only the suite kernel by name.
#[derive(Clone, Debug, PartialEq, ToJson, FromJson)]
pub struct DlqRecord {
    /// Record format version.
    pub dlq_version: u32,
    /// Kernel name (must be a suite kernel to replay).
    pub kernel: String,
    /// Configuration display name (audit; the mechanism set governs).
    pub config: String,
    /// The cell's experiment tag.
    pub label: String,
    /// The mechanism set the cell ran on.
    pub mech: MechanismSet,
    /// Grid shape.
    pub grid: GridShape,
    /// Timing model.
    pub timing: TimingParams,
    /// Fault plan (with the cell's own base salt — replay re-salts per
    /// attempt exactly as the original sweep did).
    pub fault: FaultPlan,
    /// The *base* experiment seed (pre-derivation).
    pub base_seed: u64,
    /// Watchdog override, if any.
    pub watchdog: Option<Tick>,
    /// Records processed.
    pub records: usize,
    /// The rendered error that dead-lettered the cell.
    pub error: String,
    /// Its [`DlpError::kind`] tag.
    pub kind: String,
    /// Attempts spent before dead-lettering.
    pub attempts: u32,
    /// Always `false`: the sweep has no wall-clock retry budget. Kept
    /// only so dead-letter lines keep their format ([`DLQ_VERSION`]).
    pub timed_out: bool,
}

impl DlqRecord {
    /// The [`ExperimentParams`] to replay this record under.
    #[must_use]
    pub fn params(&self) -> ExperimentParams {
        ExperimentParams {
            grid: self.grid,
            timing: self.timing,
            seed: self.base_seed,
            fault: self.fault,
            watchdog: self.watchdog,
        }
    }
}

/// Cut a torn final line (bytes after the last newline, left by a killed
/// writer) off the existing file at `path`, so it cannot glue onto the
/// next appended line. Returns the file's length afterwards.
fn truncate_torn_tail(path: &Path) -> io::Result<u64> {
    let bytes = std::fs::read(path)?;
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    if keep < bytes.len() {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(keep as u64)?;
    }
    Ok(keep as u64)
}

/// Append-only dead-letter queue writer (sealed JSONL; one synced line
/// per record, so records survive a kill and corruption is detected on
/// load).
///
/// Workers append in completion order, which varies run to run. Once a
/// sweep finishes, [`DeadLetterQueue::order_by_cell`] rewrites the lines
/// this writer added into cell order, so two runs of one grid write the
/// same bytes; lines already in the file stay first and untouched.
pub struct DeadLetterQueue {
    path: PathBuf,
    state: Mutex<DlqState>,
    appended: AtomicU64,
}

/// The open append handle plus what [`DeadLetterQueue::order_by_cell`]
/// needs: the file's length before this writer's first pending line, and
/// the pending sealed lines keyed by cell.
#[derive(Default)]
struct DlqState {
    file: Option<AppendWriter>,
    prior_len: u64,
    lines: Vec<(usize, String)>,
}

impl DeadLetterQueue {
    /// A queue that will append to `path` (the file is created lazily
    /// on the first record, so a clean sweep leaves no empty file).
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> DeadLetterQueue {
        DeadLetterQueue {
            path: path.into(),
            state: Mutex::new(DlqState::default()),
            appended: AtomicU64::new(0),
        }
    }

    /// The queue's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended by this writer so far.
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Append cell `cell`'s record (thread-safe, sealed, synced;
    /// best-effort like the manifest — an unwritable queue must not fail
    /// the sweep).
    pub fn append(&self, cell: usize, record: &DlqRecord) {
        let line = json::to_string(record);
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.file.is_none() {
            // A torn line an interrupted run left would swallow this
            // record; unreadable either way, it is cut off first. If that
            // fails, every existing byte counts as earlier.
            state.prior_len = truncate_torn_tail(&self.path)
                .or_else(|_| std::fs::metadata(&self.path).map(|m| m.len()))
                .unwrap_or(0);
            state.file = AppendWriter::append_to(&self.path, DLQ_SITES).ok();
        }
        if let Some(file) = state.file.as_ref() {
            if file.append_line(&line).is_ok() {
                self.appended.fetch_add(1, Ordering::Relaxed);
                state.lines.push((cell, seal_line(&line)));
            }
        }
    }

    /// Rewrite the lines appended since the last call into cell order
    /// (stable, so one cell's lines keep their own order), atomically:
    /// the file's earlier bytes first and unchanged, then the sorted
    /// lines. A no-op when nothing was appended.
    ///
    /// The rewrite happens only when the file's bytes after the earlier
    /// ones are exactly this writer's lines in append order. Anything
    /// else there (another process appending to the same path, or a
    /// failed append's torn bytes) leaves the file in completion order,
    /// untouched, rather than dropping lines this writer did not write.
    ///
    /// # Errors
    ///
    /// I/O errors reading or rewriting the file.
    pub fn order_by_cell(&self) -> io::Result<()> {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.lines.is_empty() {
            return Ok(());
        }
        // The next append reopens the file, as the rewrite replaces it.
        state.file = None;
        let mut lines = std::mem::take(&mut state.lines);
        let mut out = std::fs::read(&self.path)?;
        let prior = usize::try_from(state.prior_len).unwrap_or(usize::MAX).min(out.len());
        let appended: Vec<u8> =
            lines.iter().flat_map(|(_, line)| line.bytes().chain(std::iter::once(b'\n'))).collect();
        if out[prior..] != appended[..] {
            return Ok(());
        }
        lines.sort_by_key(|&(cell, _)| cell);
        out.truncate(prior);
        for (_, line) in &lines {
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
        atomic_write_file(&self.path, &out, DLQ_REWRITE_SITES)
    }
}

/// Load every valid record from a dead-letter queue file. Lines that
/// fail to [`unseal_line`] or decode, or carry another [`DLQ_VERSION`],
/// are skipped (a torn final line is the normal kill signature; a
/// flipped bit breaks the seal); a missing file is an empty queue.
#[must_use]
pub fn load_dlq(path: &Path) -> Vec<DlqRecord> {
    let Ok(file) = std::fs::File::open(path) else {
        return Vec::new();
    };
    std::io::BufReader::new(file)
        .lines()
        .map_while(Result::ok)
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| unseal_line(&l).and_then(json::from_str::<DlqRecord>))
        .filter(|r| r.dlq_version == DLQ_VERSION)
        .collect()
}

/// Rewrite a dead-letter queue with the given records (used by replay
/// to drop records that now succeed), atomically — a kill mid-rewrite
/// leaves either the old queue or the new one, never a mixture. An
/// empty set removes the file.
///
/// # Errors
///
/// I/O errors writing or removing the file.
pub fn rewrite_dlq(path: &Path, records: &[DlqRecord]) -> io::Result<()> {
    if records.is_empty() {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    } else {
        let mut out = String::new();
        for r in records {
            out.push_str(&seal_line(&json::to_string(r)));
            out.push('\n');
        }
        atomic_write_file(path, out.as_bytes(), DLQ_REWRITE_SITES)
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
            assert!(!cacheable(&outcome), "{kind} must go to the DLQ, not the store");
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
    fn dlq_record_round_trips_and_replays_params() {
        let record = DlqRecord {
            dlq_version: DLQ_VERSION,
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
            error: "unrecoverable fault at noc-link (tick 42): 8 retries".into(),
            kind: "fault-unrecoverable".into(),
            attempts: 3,
            timed_out: false,
        };
        let back: DlqRecord = json::from_str(&json::to_string(&record)).expect("decodes");
        assert_eq!(back, record);
        let params = back.params();
        assert_eq!(params.seed, 0xD1_2003);
        assert_eq!(params.watchdog, Some(50_000_000));
        assert_eq!(params.fault.salt, 5);
        assert_eq!(params.timing, TimingParams::default());
    }

    /// A watchdog record for `convert` on M, told apart by `base_seed`.
    fn dlq_record(base_seed: u64) -> DlqRecord {
        DlqRecord {
            dlq_version: DLQ_VERSION,
            kernel: "convert".into(),
            config: "M".into(),
            label: "l".into(),
            mech: MachineConfig::M.mechanisms(),
            grid: GridShape::trips_baseline(),
            timing: TimingParams::default(),
            fault: FaultPlan::none(),
            base_seed,
            watchdog: None,
            records: 8,
            error: "e".into(),
            kind: "watchdog".into(),
            attempts: 1,
            timed_out: false,
        }
    }

    #[test]
    fn dlq_file_append_load_rewrite() {
        let dir = tmpdir("dlq");
        let path = dir.join("dlq.jsonl");
        let queue = DeadLetterQueue::new(&path);
        assert!(!path.exists(), "created lazily");
        assert!(load_dlq(&path).is_empty(), "missing file is an empty queue");

        let mut record = dlq_record(1);
        queue.append(0, &record);
        record.base_seed = 2;
        queue.append(1, &record);
        assert_eq!(queue.appended(), 2);

        // A torn final line (kill mid-write) is skipped.
        use std::io::Write as _;
        let mut f =
            std::fs::OpenOptions::new().append(true).open(&path).expect("open");
        write!(f, "{{\"dlq_version\":1,\"kernel\":\"trunc").expect("write");
        drop(f);
        let loaded = load_dlq(&path);
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[1].base_seed, 2);

        // The next run's writer cuts the torn tail before appending, so
        // its first record stays readable.
        let next_run = DeadLetterQueue::new(&path);
        record.base_seed = 3;
        next_run.append(0, &record);
        next_run.order_by_cell().expect("order");
        let loaded = load_dlq(&path);
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[2].base_seed, 3);

        rewrite_dlq(&path, &loaded[1..]).expect("rewrite");
        assert_eq!(load_dlq(&path).len(), 2);
        rewrite_dlq(&path, &[]).expect("rewrite empty");
        assert!(!path.exists(), "empty queue removes the file");
        rewrite_dlq(&path, &[]).expect("idempotent on missing file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dlq_order_by_cell_sorts_own_lines_and_keeps_foreign_ones() {
        let dir = tmpdir("dlq-order");
        let path = dir.join("dlq.jsonl");
        let seeds = |path: &Path| load_dlq(path).iter().map(|r| r.base_seed).collect::<Vec<_>>();

        // One writer: its lines land in cell order behind earlier ones.
        let earlier = DeadLetterQueue::new(&path);
        earlier.append(5, &dlq_record(50));
        earlier.order_by_cell().expect("order");
        let queue = DeadLetterQueue::new(&path);
        queue.append(2, &dlq_record(2));
        queue.append(0, &dlq_record(0));
        queue.append(1, &dlq_record(1));
        queue.order_by_cell().expect("order");
        assert_eq!(seeds(&path), [50, 0, 1, 2]);

        // Two writers on one path: neither rewrite may drop the other's
        // lines, so both leave completion order.
        std::fs::remove_file(&path).expect("remove");
        let a = DeadLetterQueue::new(&path);
        let b = DeadLetterQueue::new(&path);
        a.append(1, &dlq_record(1));
        b.append(0, &dlq_record(10));
        a.append(0, &dlq_record(0));
        a.order_by_cell().expect("order a");
        b.order_by_cell().expect("order b");
        assert_eq!(seeds(&path), [1, 10, 0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trip_tolerates_torn_tail_only() {
        let dir = tmpdir("manifest");
        let path = dir.join("sweep.manifest.jsonl");
        let digests = [Digest(1, 1), Digest(2, 2), Digest(3, 3)];
        let writer = ManifestWriter::create(&path, &digests).expect("create");
        writer.append(0, &ManifestEntry { outcome: ran_outcome(), wall_ms: 1.5, attempts: 1 });
        writer.append(2, &ManifestEntry { outcome: ran_outcome(), wall_ms: 2.5, attempts: 2 });
        drop(writer);

        let m = SweepManifest::load(&path).expect("loads");
        assert_eq!(m.cells, 3);
        assert_eq!(m.grid_digest, grid_digest(&digests));
        assert_eq!(m.completed(), 2);
        assert!(m.entries[1].is_none());
        assert_eq!(m.entries[2].as_ref().map(|e| e.attempts), Some(2));

        // Torn final line: tolerated, reads as missing.
        use std::io::Write as _;
        let mut f =
            std::fs::OpenOptions::new().append(true).open(&path).expect("open");
        write!(f, "{{\"cell\":1,\"atte").expect("write");
        drop(f);
        let m = SweepManifest::load(&path).expect("still loads");
        assert_eq!(m.completed(), 2);

        // Interior corruption: rejected.
        let text = std::fs::read_to_string(&path).expect("read");
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{broken";
        std::fs::write(&path, lines.join("\n")).expect("write");
        assert!(SweepManifest::load(&path).is_err(), "interior corruption must fail");

        // Out-of-range cell index: rejected.
        let writer = ManifestWriter::create(&path, &digests).expect("recreate");
        writer.append(7, &ManifestEntry { outcome: ran_outcome(), wall_ms: 0.0, attempts: 1 });
        drop(writer);
        assert!(SweepManifest::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
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
