//! Deterministic process-kill injection ("crashpoints") for
//! crash-consistency testing of the host persistence layer.
//!
//! A *crashpoint* is a named site threaded through a durable write path
//! (store entries and the store stamp — see
//! `dlp_core::store::CRASHPOINTS` for the full list). In normal
//! operation every site is a no-op costing one atomic load. When a site
//! is **armed** — via the `DLP_CRASHPOINT=<name>[:N]` environment
//! variable — the Nth pass through that site aborts the process on the
//! spot, exactly where a power loss or `kill -9` could have landed. A
//! spec that does not parse arms nothing; the `sweep` binary refuses to
//! start on one, or on a name that is no store crashpoint.
//!
//! This is the host-I/O twin of `dlp_common::fault`: PR 3 injects
//! seeded transient faults into the *simulated* hardware; this module
//! injects deterministic kills into the *host* write paths so the chaos
//! harness (`cargo xtask chaos`, tier-1 `tests/chaos_recovery.rs`) can
//! prove crash-anywhere recovery mechanically — kill at every site,
//! rerun on the same store, and require the canonical report
//! byte-identical to an uninterrupted run.
//!
//! The abort is [`std::process::abort`], not a panic: nothing unwinds,
//! no destructor runs, no buffered writer flushes — the honest
//! worst-case kill.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// An armed crashpoint: which site fires, and on which pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArmedCrashpoint {
    /// The site name ([`hit`] argument) that fires.
    pub name: String,
    /// The 1-based hit ordinal that aborts the process.
    pub nth: u64,
}

/// Parse a `name[:N]` arming spec. `N` defaults to 1 (the first hit)
/// and must be at least 1; an empty name is invalid.
#[must_use]
pub fn parse_spec(spec: &str) -> Option<ArmedCrashpoint> {
    let (name, nth) = match spec.rsplit_once(':') {
        Some((name, n)) => (name, n.parse().ok()?),
        None => (spec, 1),
    };
    if name.is_empty() || nth == 0 {
        return None;
    }
    Some(ArmedCrashpoint { name: name.to_string(), nth })
}

static ARMED: OnceLock<Option<ArmedCrashpoint>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);

fn armed() -> &'static Option<ArmedCrashpoint> {
    ARMED.get_or_init(|| std::env::var("DLP_CRASHPOINT").ok().as_deref().and_then(parse_spec))
}

/// Record one pass through the named site, aborting the process if this
/// is the armed site's Nth pass. Unarmed (the normal case) this is one
/// lazy-initialized load and a string compare miss.
pub fn hit(name: &str) {
    if let Some(armed) = armed() {
        if armed.name == name {
            let n = HITS.fetch_add(1, Ordering::SeqCst) + 1;
            if n == armed.nth {
                eprintln!("crashpoint {name}: aborting at hit {n}");
                std::process::abort();
            }
        }
    }
}

/// Passes recorded through the armed site so far (always 0 when
/// nothing is armed).
#[must_use]
pub fn hits() -> u64 {
    HITS.load(Ordering::SeqCst)
}

/// The two kill sites of one atomic tempfile-and-rename write, named so
/// the shared atomic writer can be killed on either side of the commit
/// point (the rename).
#[derive(Clone, Copy, Debug)]
pub struct CrashSites {
    /// Fires after the temp file is written and fsynced, before the
    /// rename — a kill here must leave the destination untouched.
    pub tmp: &'static str,
    /// Fires after the rename (and parent-directory fsync) — a kill
    /// here must leave the new content fully visible.
    pub renamed: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing() {
        assert_eq!(
            parse_spec("entry.tmp"),
            Some(ArmedCrashpoint { name: "entry.tmp".into(), nth: 1 })
        );
        assert_eq!(
            parse_spec("entry.renamed:3"),
            Some(ArmedCrashpoint { name: "entry.renamed".into(), nth: 3 })
        );
        assert_eq!(parse_spec(""), None, "empty name");
        assert_eq!(parse_spec("x:0"), None, "hit ordinals are 1-based");
        assert_eq!(parse_spec("x:nope"), None, "non-numeric ordinal");
        assert_eq!(parse_spec(":2"), None, "missing name");
    }

    #[test]
    fn unarmed_hits_are_no_ops() {
        // The test process never sets DLP_CRASHPOINT, so any number of
        // hits must neither abort nor count.
        for _ in 0..3 {
            hit("entry.tmp");
        }
        assert_eq!(hits(), 0);
    }
}
