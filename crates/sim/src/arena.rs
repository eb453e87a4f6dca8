//! Reusable engine scratch storage for zero-allocation steady state.

/// Recyclable storage for both cycle-level engines.
///
/// Every vector, calendar-queue bucket, and channel table an engine
/// needs per run lives here and retains its capacity between runs, so a
/// worker that threads one arena through many cells (the sweep engine's
/// phase 2, the hot-path bench loop) stops allocating after its first
/// cell: frames, throttle tables, resolved-target tables, MIMD channels
/// and node state, and the event queue's bucket storage are all reused.
///
/// Pass one to [`Machine::run_dataflow_in`](crate::Machine::run_dataflow_in)
/// or [`Machine::run_mimd_in`](crate::Machine::run_mimd_in). The
/// allocation-free variants are observationally pure: statistics are
/// bit-identical to the arena-free entry points, which simply construct
/// a fresh arena per call. An arena left dirty by a failed run (watchdog,
/// malformed program) is fully reset at the start of the next run.
#[derive(Default)]
pub struct EngineArena {
    pub(crate) dataflow: crate::dataflow::DataflowScratch,
    pub(crate) mimd: crate::mimd::MimdScratch,
    pub(crate) batch_dataflow: crate::batch::BatchDataflowScratch,
    pub(crate) batch_mimd: crate::batch::BatchMimdScratch,
}

impl EngineArena {
    /// An empty arena. Storage grows on first use and is retained after.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Promise that `block` already passed
    /// [`DataflowBlock::validate`](trips_isa::DataflowBlock::validate)
    /// for `grid` with `slots_per_node` reservation stations, so the
    /// next [`run_dataflow_in`](crate::Machine::run_dataflow_in) against
    /// this exact block (same address and length) skips re-validating.
    ///
    /// Validation is linear in the block (instructions + targets):
    /// ≈0.4–0.7 ms for a full ≈4096-instruction unrolled block on a
    /// 2-vCPU Xeon host, still a visible share of a ≈2 ms revitalized
    /// run. A scheduler lowering already validates as its final step, so
    /// callers running prepared programs (the sweep engine, the hot-path
    /// harness) use this to avoid paying it again per cell. Marking a
    /// block that was *not* validated trades the structured
    /// `MalformedProgram` error for a later panic or wrong simulation;
    /// only mark blocks a scheduler produced.
    pub fn mark_dataflow_block_validated(
        &mut self,
        block: &trips_isa::DataflowBlock,
        grid: dlp_common::GridShape,
        slots_per_node: usize,
    ) {
        let fp = (std::ptr::from_ref(block) as usize, block.len(), grid, slots_per_node);
        self.dataflow.tables.validated = Some(fp);
        self.batch_dataflow.tables.validated = Some(fp);
    }
}
