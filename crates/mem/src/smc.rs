//! Software-managed cache (SMC) bank with its row streaming channel.

use std::ops::Range;

use dlp_common::{FaultInjector, MemParams, Tick};

use crate::Throttle;

/// One L2 bank reconfigured as a software-managed cache (§4.2).
///
/// Tag checks and hardware replacement are disabled; instead software (the
/// experiment driver, playing the role of the stream scheduler) declares
/// which word range is *resident* via [`SmcBank::set_resident`] — normally
/// after paying for a [`crate::DmaEngine`] transfer. Accesses inside the
/// window complete at SMC latency through the row's dedicated streaming
/// channel; accesses outside it fall through to main memory and pay the
/// DRAM penalty (this is how `lu`, whose dataset exceeds SMC capacity,
/// loses its advantage — exactly the paper's §5.1 caveat).
///
/// A wide load (`LMW`) is a single bank transaction that streams up to
/// [`MemParams::lmw_max_words`] contiguous words down the row channel,
/// amortizing per-access overhead — the mechanism that lets a load placed
/// next to the memory interface behave "like a vector fetch unit".
#[derive(Clone, Debug)]
pub struct SmcBank {
    capacity_words: u64,
    resident: Option<Range<u64>>,
    latency: Tick,
    dram_latency: Tick,
    channel_words_per_cycle: u32,
    lmw_max_words: u32,
    issue: Throttle,
    accesses: u64,
}

impl SmcBank {
    /// Build a bank from the memory parameters.
    #[must_use]
    pub fn new(params: &MemParams) -> Self {
        SmcBank {
            capacity_words: (params.smc_bank_bytes / 8) as u64,
            resident: None,
            latency: params.smc_latency,
            dram_latency: params.dram_latency,
            channel_words_per_cycle: params.smc_channel_words_per_cycle.max(1),
            lmw_max_words: params.lmw_max_words.max(1),
            issue: Throttle::new(1),
            accesses: 0,
        }
    }

    /// Bank capacity in 64-bit words.
    #[must_use]
    pub fn capacity_words(&self) -> u64 {
        self.capacity_words
    }

    /// Maximum words one LMW transaction may fetch.
    #[must_use]
    pub fn lmw_max_words(&self) -> u32 {
        self.lmw_max_words
    }

    /// Declare the resident word range (what software DMA'd in).
    ///
    /// The range is clamped to bank capacity: if software asks for more than
    /// fits, only the prefix is resident — the remainder of the dataset will
    /// fall back to DRAM on access.
    pub fn set_resident(&mut self, range: Range<u64>) -> Range<u64> {
        let len = (range.end - range.start).min(self.capacity_words);
        let clamped = range.start..range.start + len;
        self.resident = Some(clamped.clone());
        clamped
    }

    /// Declare the resident range without clamping to this bank's capacity.
    ///
    /// Used when software interleaves a stream across several banks: each
    /// bank answers for the whole aggregate window while holding only its
    /// share, so the *caller* is responsible for clamping to the aggregate
    /// capacity.
    pub fn set_resident_raw(&mut self, range: Range<u64>) {
        self.resident = Some(range);
    }

    /// The currently resident range, if any.
    #[must_use]
    pub fn resident(&self) -> Option<Range<u64>> {
        self.resident.clone()
    }

    fn covered(&self, addr: u64) -> bool {
        self.resident.as_ref().is_some_and(|r| r.contains(&addr))
    }

    /// A single-word access at `addr`; returns the completion tick.
    pub fn access(&mut self, addr: u64, now: Tick) -> Tick {
        self.accesses += 1;
        let start = self.issue_cycle(now);
        let lat = if self.covered(addr) {
            self.latency
        } else {
            self.latency + self.dram_latency
        };
        start + lat
    }

    /// A wide LMW transaction fetching `n` contiguous words at `addr`;
    /// returns the tick the **last** word reaches the row channel's end.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`SmcBank::lmw_max_words`].
    pub fn access_wide(&mut self, addr: u64, n: u32, now: Tick) -> Tick {
        assert!(n > 0 && n <= self.lmw_max_words, "lmw width {n} out of range");
        self.accesses += 1;
        let start = self.issue_cycle(now);
        let all_resident = (addr..addr + u64::from(n)).all(|a| self.covered(a));
        let base = if all_resident {
            self.latency
        } else {
            self.latency + self.dram_latency
        };
        // The channel streams `channel_words_per_cycle` words per cycle
        // (2 ticks); the first batch rides the base latency.
        let extra_batches = (n.saturating_sub(1)) / self.channel_words_per_cycle;
        start + base + Tick::from(extra_batches) * 2
    }

    /// Accept a store into the bank (issue slot + latency).
    pub fn store(&mut self, _addr: u64, now: Tick) -> Tick {
        self.accesses += 1;
        let start = self.issue_cycle(now);
        start + self.latency
    }

    /// [`SmcBank::access`] with fault injection: the bank may go busy for a
    /// stall window before the transaction starts (recovered by waiting —
    /// no replay, no data loss). Disabled injector ⇒ exactly `access`.
    pub fn access_faulty(&mut self, addr: u64, now: Tick, inj: &mut FaultInjector) -> Tick {
        self.access(addr, self.faulty_start(now, inj))
    }

    /// [`SmcBank::access_wide`] with fault injection (see
    /// [`SmcBank::access_faulty`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`SmcBank::lmw_max_words`].
    pub fn access_wide_faulty(
        &mut self,
        addr: u64,
        n: u32,
        now: Tick,
        inj: &mut FaultInjector,
    ) -> Tick {
        self.access_wide(addr, n, self.faulty_start(now, inj))
    }

    /// [`SmcBank::store`] with fault injection (see
    /// [`SmcBank::access_faulty`]).
    pub fn store_faulty(&mut self, addr: u64, now: Tick, inj: &mut FaultInjector) -> Tick {
        self.store(addr, self.faulty_start(now, inj))
    }

    /// Roll the bank-stall hazard: a struck transaction waits out a stall
    /// window before it can issue.
    fn faulty_start(&self, now: Tick, inj: &mut FaultInjector) -> Tick {
        if !inj.enabled() {
            return now;
        }
        let plan = inj.plan();
        if inj.roll(plan.smc_stall) {
            inj.stalled(plan.stall_ticks);
            now + plan.stall_ticks
        } else {
            now
        }
    }

    /// Total transactions issued.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Clear throughput state and counters (between kernels); residency is
    /// kept, since it is software state.
    pub fn reset_timing(&mut self) {
        self.issue.reset();
        self.accesses = 0;
    }

    /// One new transaction per cycle.
    fn issue_cycle(&mut self, now: Tick) -> Tick {
        let got = self.issue.reserve(now / 2);
        (got * 2).max(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> SmcBank {
        let mut b = SmcBank::new(&MemParams::default());
        b.set_resident(0..4096);
        b
    }

    #[test]
    fn resident_access_is_fast() {
        let mut b = bank();
        let t = b.access(100, 0);
        assert_eq!(t, MemParams::default().smc_latency);
    }

    #[test]
    fn non_resident_access_pays_dram() {
        let mut b = bank();
        let p = MemParams::default();
        let t = b.access(100_000, 0);
        assert_eq!(t, p.smc_latency + p.dram_latency);
    }

    #[test]
    fn resident_window_clamped_to_capacity() {
        let mut b = SmcBank::new(&MemParams::default());
        // 64 KB bank = 8192 words; ask for 100k words.
        let got = b.set_resident(0..100_000);
        assert_eq!(got, 0..8192);
        let t_in = b.access(8000, 0);
        b.reset_timing();
        let t_out = b.access(9000, 0);
        assert!(t_out > t_in);
    }

    #[test]
    fn wide_access_streams_batches() {
        let mut b = bank();
        let p = MemParams::default();
        // 8 words at 8 words/cycle: single batch.
        assert_eq!(b.access_wide(0, 8, 0), p.smc_latency);
        b.reset_timing();
        // Narrower channel: 8 words at 2/cycle = 3 extra batches = +6 ticks.
        let mut q = p;
        q.smc_channel_words_per_cycle = 2;
        let mut b2 = SmcBank::new(&q);
        b2.set_resident(0..4096);
        assert_eq!(b2.access_wide(0, 8, 0), q.smc_latency + 6);
    }

    #[test]
    fn one_transaction_per_cycle() {
        let mut b = bank();
        let t1 = b.access(0, 0);
        let t2 = b.access(1, 0);
        let t3 = b.access(2, 0);
        assert_eq!(t2 - t1, 2);
        assert_eq!(t3 - t2, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_lmw_panics() {
        bank().access_wide(0, 64, 0);
    }

    #[test]
    fn faulty_access_with_zero_plan_is_identical() {
        use dlp_common::FaultPlan;
        let mut clean = bank();
        let mut faulty = bank();
        let mut inj = FaultPlan::none().injector(9);
        for i in 0..20 {
            assert_eq!(clean.access(i, i), faulty.access_faulty(i, i, &mut inj));
        }
        assert_eq!(clean.accesses(), faulty.accesses());
        assert_eq!(inj.stats().injected, 0);
    }

    #[test]
    fn bank_stall_delays_the_struck_transaction() {
        use dlp_common::{FaultPlan, FaultRate};
        let mut plan = FaultPlan::none();
        plan.smc_stall = FaultRate::per_million(1_000_000);
        let mut b = bank();
        let mut inj = plan.injector(9);
        let clean = bank().access(100, 0);
        let faulted = b.access_faulty(100, 0, &mut inj);
        assert_eq!(faulted, clean + plan.stall_ticks);
        assert_eq!(inj.stats().injected, 1);
        assert_eq!(inj.stats().stall_ticks, plan.stall_ticks);
        assert!(inj.fatal().is_none(), "stall windows are always recoverable");
    }

    #[test]
    fn stores_share_issue_bandwidth() {
        let mut b = bank();
        let t1 = b.store(0, 0);
        let t2 = b.access(1, 0);
        assert!(t2 > t1);
    }
}
