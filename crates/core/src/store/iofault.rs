//! Deterministic host-I/O fault injection for the persistence layer.
//!
//! The write-side twin of `dlp_common::fault`: where PR 3 injects
//! seeded transient faults into the *simulated* NoC and memory system,
//! this shim injects faults into the *host* filesystem writes the store
//! performs — short writes, `ENOSPC`/`EIO` errors, torn final lines,
//! and single-bit corruption — all drawn from one seeded `SplitMix64`
//! stream so a failing campaign replays exactly.
//!
//! Every write in `dlp_core::store` funnels through
//! [`super::atomic`], which calls the crate-private `filter` hook on
//! the outgoing bytes
//! before they touch a file descriptor. Unarmed (the normal case) the
//! shim is one mutex acquire and a `None` check. Armed — via
//! [`arm`] or the `DLP_STORE_IOFAULT=seed:error:short:torn:flip`
//! environment variable (ppm fields) — each write rolls each fault
//! kind independently.
//!
//! The contract the chaos tests pin: **every injected fault degrades to
//! a miss or a recompute, never a wrong result and never a panic.**
//! Corrupted bytes are caught by the sealed-line digests on read;
//! injected errors surface as `io::Error` through write paths that are
//! already best-effort (entry puts, DLQ appends) or
//! operator-visible (`ResultStore::open`, `rewrite_dlq`).

use std::io;
use std::sync::Mutex;

use dlp_common::SplitMix64;

/// Per-write fault probabilities, in parts per million, plus the RNG
/// seed the rolls are drawn from. `1_000_000` makes a kind certain —
/// what the tier-1 chaos tests use to exercise each kind exhaustively.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoFaultPlan {
    /// Seed for the shared roll stream.
    pub seed: u64,
    /// P(write fails outright) — alternating `ENOSPC` / `EIO`.
    pub error_ppm: u32,
    /// P(only a prefix of the bytes reaches the file) — half the
    /// buffer, as a crashed kernel flush might leave.
    pub short_ppm: u32,
    /// P(the tail of the write is torn off) — 1..=16 bytes cut, the
    /// torn-final-line signature of a mid-write power loss.
    pub torn_ppm: u32,
    /// P(one bit of the buffer is flipped) — silent media corruption.
    pub flip_ppm: u32,
}

impl IoFaultPlan {
    /// The all-zero plan: nothing injected.
    #[must_use]
    pub fn none() -> IoFaultPlan {
        IoFaultPlan { seed: 0, error_ppm: 0, short_ppm: 0, torn_ppm: 0, flip_ppm: 0 }
    }

    /// Parse the `seed:error:short:torn:flip` spec (the
    /// `DLP_STORE_IOFAULT` format; all five fields required, ppm).
    #[must_use]
    pub fn parse(spec: &str) -> Option<IoFaultPlan> {
        let mut parts = spec.split(':');
        let plan = IoFaultPlan {
            seed: parts.next()?.parse().ok()?,
            error_ppm: parts.next()?.parse().ok()?,
            short_ppm: parts.next()?.parse().ok()?,
            torn_ppm: parts.next()?.parse().ok()?,
            flip_ppm: parts.next()?.parse().ok()?,
        };
        parts.next().is_none().then_some(plan)
    }
}

struct State {
    plan: IoFaultPlan,
    rng: SplitMix64,
    /// Injections by fault kind: `[errors, short writes, torn tails, bit flips]`.
    by_fault: [u64; 4],
}

static STATE: Mutex<Option<State>> = Mutex::new(None);
static ENV: std::sync::OnceLock<Option<IoFaultPlan>> = std::sync::OnceLock::new();

fn lock() -> std::sync::MutexGuard<'static, Option<State>> {
    STATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arm the shim process-wide with `plan`, resetting the roll stream and
/// the injection counters.
pub fn arm(plan: IoFaultPlan) {
    *lock() = Some(State { plan, rng: SplitMix64::new(plan.seed), by_fault: [0; 4] });
}

/// Disarm the shim; subsequent writes pass through untouched.
pub fn disarm() {
    *lock() = None;
}

/// Injection counts since the last [`arm`], by fault kind:
/// `[errors, short writes, torn tails, bit flips]`.
#[must_use]
pub fn injected() -> [u64; 4] {
    lock().as_ref().map_or([0; 4], |s| s.by_fault)
}

/// Roll the armed plan against one outgoing write. Returns `Ok(None)`
/// to pass the bytes through untouched, `Ok(Some(mutated))` to write
/// corrupted bytes instead, or an injected `io::Error`.
pub(crate) fn filter(bytes: &[u8]) -> io::Result<Option<Vec<u8>>> {
    let mut guard = lock();
    if guard.is_none() {
        let env = ENV.get_or_init(|| {
            std::env::var("DLP_STORE_IOFAULT").ok().as_deref().and_then(IoFaultPlan::parse)
        });
        if let Some(plan) = *env {
            *guard = Some(State { plan, rng: SplitMix64::new(plan.seed), by_fault: [0; 4] });
        }
    }
    let Some(state) = guard.as_mut() else { return Ok(None) };

    let roll = |rng: &mut SplitMix64, ppm: u32| ppm > 0 && rng.below(1_000_000) < u64::from(ppm);

    if roll(&mut state.rng, state.plan.error_ppm) {
        let which = state.by_fault[0];
        state.by_fault[0] += 1;
        return Err(if which.is_multiple_of(2) {
            io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC")
        } else {
            io::Error::other("injected EIO")
        });
    }
    if bytes.is_empty() {
        return Ok(None);
    }
    if roll(&mut state.rng, state.plan.short_ppm) {
        state.by_fault[1] += 1;
        return Ok(Some(bytes[..bytes.len() / 2].to_vec()));
    }
    if roll(&mut state.rng, state.plan.torn_ppm) {
        state.by_fault[2] += 1;
        let cut = 1 + state.rng.below(bytes.len().min(16) as u64) as usize;
        return Ok(Some(bytes[..bytes.len() - cut.min(bytes.len())].to_vec()));
    }
    if roll(&mut state.rng, state.plan.flip_ppm) {
        state.by_fault[3] += 1;
        let bit = state.rng.below(bytes.len() as u64 * 8);
        let mut out = bytes.to_vec();
        out[(bit / 8) as usize] ^= 1 << (bit % 8);
        return Ok(Some(out));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing() {
        assert_eq!(
            IoFaultPlan::parse("7:10:20:30:40"),
            Some(IoFaultPlan { seed: 7, error_ppm: 10, short_ppm: 20, torn_ppm: 30, flip_ppm: 40 })
        );
        assert_eq!(IoFaultPlan::parse("7:10:20:30"), None, "five fields required");
        assert_eq!(IoFaultPlan::parse("7:10:20:30:40:50"), None, "exactly five");
        assert_eq!(IoFaultPlan::parse("x:0:0:0:0"), None);
        assert_eq!(IoFaultPlan::parse(""), None);
    }

    // The fault behaviors themselves are pinned end-to-end by the
    // tier-1 `chaos_recovery` test (arming mutates global state, so
    // in-crate unit tests would race other store tests).
}
