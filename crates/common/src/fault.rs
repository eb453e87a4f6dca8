//! Deterministic transient-fault injection.
//!
//! The substrate the paper proposes is *reconfigurable*: one array morphs
//! per kernel. That only earns trust if the mechanisms keep working when
//! the fabric misbehaves — a router drops a flit, a DMA engine stalls, an
//! SMC bank goes busy, an operand store latches a flipped bit. This module
//! is the chaos layer that asks those questions reproducibly:
//!
//! * [`FaultPlan`] — *what* to inject and *how often*: per-site rates plus
//!   a retry budget and backoff/stall magnitudes. A plan is pure data
//!   (`Copy`), carried inside `ExperimentParams`, and is seeded from the
//!   experiment seed so any run can be replayed bit-for-bit.
//! * [`FaultInjector`] — the run-time state: one deterministic
//!   [`SplitMix64`] stream owned by the machine, rolled at each hook point
//!   in program order (each cell simulates serially, so the stream is
//!   identical across sweep thread counts), plus accumulated
//!   [`FaultStats`] and the fatal-escalation latch.
//!
//! # Recovery model
//!
//! Every fault is *detected* at its site (link-level CRC, bank timeout,
//! operand parity) and retried or absorbed; delivered values are never
//! silently corrupted. A recovered run therefore produces output values
//! bit-identical to the fault-free run — only slower, with the extra
//! ticks charged honestly at the site. A fault whose retries exhaust
//! [`FaultPlan::max_retries`] latches a [`FatalFault`]; the engines notice
//! the latch at the next event/step boundary and abort with
//! `DlpError::FaultUnrecoverable`. Injection stops once the latch is set,
//! so a doomed run drains quickly instead of compounding damage.
//!
//! # Determinism contract
//!
//! A plan with every rate zero ([`FaultPlan::is_none`]) produces a
//! disabled injector: every hook takes an early-return path that performs
//! **zero** RNG draws and calls the exact fault-free code, so a zero-fault
//! plan is a true no-op (golden stats are bit-identical). With nonzero
//! rates, the injector draws once per *opportunity* in simulation order,
//! so equal seeds yield equal fault schedules and equal `SimStats`.

use crate::json::ToJson;

use crate::{DlpError, SplitMix64, Tick};

/// Domain-separation constant mixed into the run seed so the fault stream
/// is independent of the workload-generation stream derived from the same
/// experiment seed.
const FAULT_STREAM_SALT: u64 = 0xFA17_5EED_0000_2003;

/// A per-site fault probability, in events per million opportunities.
///
/// Stored as parts-per-million so plans are exact integers (`Eq`, hashable,
/// serializable without float noise). `FaultRate(1_000_000)` fires on every
/// opportunity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, ToJson)]
pub struct FaultRate(pub u32);

impl FaultRate {
    /// Never fires.
    pub const ZERO: FaultRate = FaultRate(0);

    /// A rate of `n` events per million opportunities (clamped to 10⁶).
    #[must_use]
    pub const fn per_million(n: u32) -> FaultRate {
        FaultRate(if n > 1_000_000 { 1_000_000 } else { n })
    }

    /// True when this rate can never fire.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// Where a fault was injected — carried in diagnostics and
/// `DlpError::FaultUnrecoverable`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Mesh link dropped or corrupted a message (detected by link CRC,
    /// NACKed, replayed with exponential backoff).
    NocLink,
    /// DMA engine stalled mid-transfer (absorbed by the staging throttle).
    Dma,
    /// SMC bank went busy for a stall window.
    SmcBank,
    /// L1 fill was delayed after a miss.
    L1Fill,
    /// Operand store latched a flipped bit (detected by parity, value
    /// re-latched from the in-flight buffer).
    OperandStore,
}

impl FaultSite {
    /// Stable lower-case site name for diagnostics and JSON.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            FaultSite::NocLink => "noc-link",
            FaultSite::Dma => "dma",
            FaultSite::SmcBank => "smc-bank",
            FaultSite::L1Fill => "l1-fill",
            FaultSite::OperandStore => "operand-store",
        }
    }
}

/// A deterministic transient-fault schedule: per-site rates plus recovery
/// budgets. Pure data; the run-time state lives in [`FaultInjector`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, ToJson)]
pub struct FaultPlan {
    /// NoC message-drop rate (per routed message).
    pub noc_drop: FaultRate,
    /// NoC message-corruption rate (per routed message; detected by link
    /// CRC and replayed exactly like a drop).
    pub noc_corrupt: FaultRate,
    /// DMA stall rate (per staged transfer).
    pub dma_stall: FaultRate,
    /// SMC bank stall-window rate (per bank access).
    pub smc_stall: FaultRate,
    /// L1 fill-delay rate (per miss fill).
    pub l1_fill_delay: FaultRate,
    /// Operand-store bit-flip rate (per operand write).
    pub operand_flip: FaultRate,
    /// Retry budget per fault event before escalating to
    /// `DlpError::FaultUnrecoverable`.
    pub max_retries: u32,
    /// Base backoff in ticks; retry *k* waits `backoff_ticks << (k-1)`,
    /// capped at [`FaultPlan::backoff_cap`].
    pub backoff_ticks: Tick,
    /// Upper bound on a single backoff wait.
    pub backoff_cap: Tick,
    /// Length of a DMA/SMC stall window, in ticks.
    pub stall_ticks: Tick,
    /// Extra ticks a faulted L1 fill takes.
    pub fill_delay_ticks: Tick,
    /// Extra salt mixed into the stream seed. The sweep retry policy
    /// re-salts per attempt so a retried cell sees an independent (but
    /// still deterministic) schedule.
    pub salt: u64,
}

impl FaultPlan {
    /// The no-fault plan: all rates zero. Installing it is a true no-op.
    #[must_use]
    pub const fn none() -> FaultPlan {
        FaultPlan {
            noc_drop: FaultRate::ZERO,
            noc_corrupt: FaultRate::ZERO,
            dma_stall: FaultRate::ZERO,
            smc_stall: FaultRate::ZERO,
            l1_fill_delay: FaultRate::ZERO,
            operand_flip: FaultRate::ZERO,
            max_retries: 8,
            backoff_ticks: 4,
            backoff_cap: 64,
            stall_ticks: 32,
            fill_delay_ticks: 16,
            salt: 0,
        }
    }

    /// A plan injecting at `rate` (parts per million) at **every** site,
    /// with the default recovery budgets.
    #[must_use]
    pub const fn uniform(rate: FaultRate) -> FaultPlan {
        let mut plan = FaultPlan::none();
        plan.noc_drop = rate;
        plan.noc_corrupt = rate;
        plan.dma_stall = rate;
        plan.smc_stall = rate;
        plan.l1_fill_delay = rate;
        plan.operand_flip = rate;
        plan
    }

    /// True when every rate is zero (nothing can ever fire).
    #[must_use]
    pub const fn is_none(&self) -> bool {
        self.noc_drop.is_zero()
            && self.noc_corrupt.is_zero()
            && self.dma_stall.is_zero()
            && self.smc_stall.is_zero()
            && self.l1_fill_delay.is_zero()
            && self.operand_flip.is_zero()
    }

    /// This plan with a different salt (used by the sweep retry policy).
    #[must_use]
    pub const fn with_salt(mut self, salt: u64) -> FaultPlan {
        self.salt = salt;
        self
    }

    /// Build the run-time injector for this plan, seeded from the
    /// experiment seed. Deterministic: same plan + same seed → the same
    /// fault schedule, independent of sweep thread count.
    #[must_use]
    pub fn injector(&self, run_seed: u64) -> FaultInjector {
        FaultInjector::new(*self, run_seed)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Counters accumulated by a [`FaultInjector`] over one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient faults injected (each failed attempt counts once).
    pub injected: u64,
    /// Recovery replays performed (NoC resends, operand re-latches).
    pub retries: u64,
    /// Extra simulated ticks charged to fault recovery (backoff waits,
    /// stall windows, delayed fills).
    pub stall_ticks: u64,
}

/// A fault whose retry budget was exhausted; latched by the injector and
/// surfaced by the engines as `DlpError::FaultUnrecoverable`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FatalFault {
    /// Where the fault struck.
    pub site: FaultSite,
    /// Simulated tick at which recovery was abandoned.
    pub tick: Tick,
    /// Retries performed before giving up.
    pub retries: u32,
}

impl FatalFault {
    /// Convert into the workspace error type.
    #[must_use]
    pub fn to_error(self) -> DlpError {
        DlpError::FaultUnrecoverable {
            site: self.site.name(),
            tick: self.tick,
            detail: format!("{} retries exhausted", self.retries),
        }
    }
}

/// Run-time fault state: one deterministic RNG stream, accumulated
/// counters, and the fatal latch. Owned by the simulated machine; every
/// hook point threads `&mut FaultInjector` through.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    enabled: bool,
    rng: SplitMix64,
    stats: FaultStats,
    fatal: Option<FatalFault>,
}

impl FaultInjector {
    /// An injector that never fires and never draws from its RNG.
    #[must_use]
    pub fn disabled() -> FaultInjector {
        FaultInjector::new(FaultPlan::none(), 0)
    }

    /// Build from a plan and the run seed. All-zero-rate plans come up
    /// disabled, which short-circuits every hook.
    #[must_use]
    pub fn new(plan: FaultPlan, run_seed: u64) -> FaultInjector {
        // Scramble the salt through one SplitMix64 step so salt=0/seed=s
        // and salt=s/seed=0 do not collide.
        let mut mix = SplitMix64::new(run_seed ^ FAULT_STREAM_SALT);
        let base = mix.next_u64();
        let mut salted = SplitMix64::new(plan.salt ^ 0x9E37_79B9_7F4A_7C15);
        let seed = base ^ salted.next_u64();
        FaultInjector {
            enabled: !plan.is_none(),
            plan,
            rng: SplitMix64::new(seed),
            stats: FaultStats::default(),
            fatal: None,
        }
    }

    /// The plan this injector executes.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Fast-path guard: false when the plan cannot fire (or a fatal fault
    /// is already latched). Hooks must check this before any other call so
    /// the zero-fault path performs no RNG draws.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled && self.fatal.is_none()
    }

    /// Roll one fault opportunity at `rate`. Draws exactly one RNG value
    /// per call when enabled; never fires when disabled or fatal.
    pub fn roll(&mut self, rate: FaultRate) -> bool {
        if !self.enabled() || rate.is_zero() {
            return false;
        }
        self.rng.below(1_000_000) < u64::from(rate.0)
    }

    /// Backoff before retry `attempt` (1-based): bounded exponential.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Tick {
        let shift = attempt.saturating_sub(1).min(32);
        self.plan
            .backoff_ticks
            .checked_shl(shift)
            .unwrap_or(self.plan.backoff_cap)
            .clamp(1, self.plan.backoff_cap.max(1))
    }

    /// Record one injected-and-recovered fault: `retries` replays costing
    /// `stall` extra ticks in total.
    pub fn recovered(&mut self, injected: u64, retries: u64, stall: Tick) {
        self.stats.injected += injected;
        self.stats.retries += retries;
        self.stats.stall_ticks += stall;
    }

    /// Record one fault absorbed as a stall window (no replay needed).
    pub fn stalled(&mut self, stall: Tick) {
        self.stats.injected += 1;
        self.stats.stall_ticks += stall;
    }

    /// Latch a budget-exhausted fault. First escalation wins; injection
    /// stops afterwards ([`FaultInjector::enabled`] goes false).
    pub fn escalate(&mut self, site: FaultSite, tick: Tick, retries: u32) {
        if self.fatal.is_none() {
            self.fatal = Some(FatalFault { site, tick, retries });
        }
    }

    /// The latched fatal fault, if any. Engines check this at every
    /// event/step boundary and abort with its error.
    #[must_use]
    pub fn fatal(&self) -> Option<FatalFault> {
        self.fatal
    }

    /// Retry budget from the plan.
    #[must_use]
    pub fn max_retries(&self) -> u32 {
        self.plan.max_retries
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Drain the counters, returning everything accumulated since the last
    /// drain. The engines call this once per run so staging faults are
    /// charged to the run they delay — the same convention as setup ticks.
    pub fn take_stats(&mut self) -> FaultStats {
        std::mem::take(&mut self.stats)
    }

    /// Model an operand-store write at `t`: parity-check the latched
    /// value, re-latching from the in-flight buffer on a flip (bounded by
    /// the retry budget). Returns the tick at which the value is good.
    pub fn operand_write(&mut self, mut t: Tick) -> Tick {
        if !self.enabled() || self.plan.operand_flip.is_zero() {
            return t;
        }
        let mut attempt = 0u32;
        while self.roll(self.plan.operand_flip) {
            attempt += 1;
            if attempt > self.plan.max_retries {
                // Earlier re-latches were already recorded; count only the
                // budget-breaking flip itself before latching fatal.
                self.recovered(1, 0, 0);
                self.escalate(FaultSite::OperandStore, t, attempt - 1);
                return t;
            }
            let wait = self.backoff(attempt);
            t += wait;
            self.recovered(1, 1, wait);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_disabled_and_never_draws() {
        let mut inj = FaultPlan::none().injector(42);
        assert!(!inj.enabled());
        for _ in 0..1000 {
            assert!(!inj.roll(FaultRate::per_million(1_000_000)));
        }
        assert_eq!(inj.stats(), FaultStats::default());
        // The RNG state must be untouched: a clone seeded identically
        // produces the same first draw after force-enabling.
        let again = FaultPlan::none().injector(42);
        assert_eq!(format!("{:?}", inj.rng), format!("{:?}", again.rng));
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::uniform(FaultRate::per_million(250_000));
        let mut a = plan.injector(7);
        let mut b = plan.injector(7);
        for _ in 0..10_000 {
            assert_eq!(a.roll(plan.noc_drop), b.roll(plan.noc_drop));
        }
    }

    #[test]
    fn different_salt_different_schedule() {
        let rate = FaultRate::per_million(500_000);
        let mut a = FaultPlan::uniform(rate).injector(7);
        let mut b = FaultPlan::uniform(rate).with_salt(1).injector(7);
        let fires_a: Vec<bool> = (0..64).map(|_| a.roll(rate)).collect();
        let fires_b: Vec<bool> = (0..64).map(|_| b.roll(rate)).collect();
        assert_ne!(fires_a, fires_b);
    }

    #[test]
    fn rate_is_roughly_honored() {
        let rate = FaultRate::per_million(100_000); // 10%
        let mut inj = FaultPlan::uniform(rate).injector(99);
        let fires = (0..100_000).filter(|_| inj.roll(rate)).count();
        assert!((8_000..12_000).contains(&fires), "{fires} fires at 10%");
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let inj = FaultPlan::uniform(FaultRate::per_million(1)).injector(0);
        assert_eq!(inj.backoff(1), 4);
        assert_eq!(inj.backoff(2), 8);
        assert_eq!(inj.backoff(3), 16);
        assert_eq!(inj.backoff(10), 64); // capped
        assert_eq!(inj.backoff(60), 64); // shift clamped, still capped
    }

    #[test]
    fn escalate_latches_first_and_stops_injection() {
        let plan = FaultPlan::uniform(FaultRate::per_million(1_000_000));
        let mut inj = plan.injector(3);
        assert!(inj.roll(plan.noc_drop));
        inj.escalate(FaultSite::NocLink, 100, 8);
        inj.escalate(FaultSite::SmcBank, 200, 1);
        let fatal = inj.fatal().unwrap();
        assert_eq!(fatal.site, FaultSite::NocLink);
        assert_eq!(fatal.tick, 100);
        assert!(!inj.enabled());
        assert!(!inj.roll(plan.noc_drop));
        let err = fatal.to_error();
        assert!(err.to_string().contains("noc-link"));
    }

    #[test]
    fn operand_write_always_fires_escalates_within_budget() {
        let mut plan = FaultPlan::none();
        plan.operand_flip = FaultRate::per_million(1_000_000);
        plan.max_retries = 3;
        let mut inj = plan.injector(5);
        let t = inj.operand_write(10);
        // Every re-latch flips again, so the budget exhausts.
        assert!(inj.fatal().is_some());
        assert_eq!(inj.fatal().unwrap().site, FaultSite::OperandStore);
        assert!(t >= 10);
        assert_eq!(inj.stats().retries, 3);
    }

    #[test]
    fn operand_write_zero_rate_is_free() {
        let mut plan = FaultPlan::uniform(FaultRate::per_million(900_000));
        plan.operand_flip = FaultRate::ZERO;
        let mut inj = plan.injector(5);
        assert_eq!(inj.operand_write(77), 77);
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn uniform_and_none_roundtrip() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::uniform(FaultRate::ZERO).is_none());
        assert!(!FaultPlan::uniform(FaultRate::per_million(1)).is_none());
        assert_eq!(FaultRate::per_million(2_000_000), FaultRate(1_000_000));
    }
}
