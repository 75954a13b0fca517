//! Ensemble configuration: everything the trainer and scheduler do is
//! gated through [`EnsembleConfig`].

use pdc_pclouds::PcloudsConfig;

/// Configuration of one bagged-ensemble training run.
#[derive(Debug, Clone)]
pub struct EnsembleConfig {
    /// Number of trees B (≥ 1).
    pub trees: usize,
    /// Bootstrap-resample each tree's training set (bagging). With this
    /// off every tree trains on the original records — useful for the
    /// degenerate-identity contract: `trees == 1` with bootstrap off on
    /// the world group is byte-identical to plain [`pdc_pclouds::train`].
    pub bootstrap: bool,
    /// Root of the per-tree split seed streams (see
    /// [`crate::bootstrap::tree_seed`]).
    pub seed: u64,
    /// Per-rank resident-memory budget in bytes. The scheduler refuses to
    /// open a subgroup narrower than the width at which one tree's
    /// predicted residency (data shard + one small-task working set) fits
    /// the budget, queueing trees instead. `usize::MAX` disables the
    /// bound.
    pub memory_budget_bytes: usize,
    /// Fixed subgroup width for ablations (0 = let the scheduler choose
    /// from the budget and tree count). Widths below the budget's minimum
    /// feasible width are raised to it.
    pub subgroup_width: usize,
    /// Per-tree pCLOUDS configuration (cloud parameters, memory limit,
    /// comm schedule, recovery), applied unchanged inside each subgroup.
    pub base: PcloudsConfig,
}

impl EnsembleConfig {
    /// Paper-scaled defaults for a training set of `n` records: 8 bagged
    /// trees, scheduler-chosen widths, unbounded memory budget.
    pub fn paper_scaled(n: u64) -> Self {
        EnsembleConfig {
            trees: 8,
            bootstrap: true,
            seed: 0xba66_ed5e,
            memory_budget_bytes: usize::MAX,
            subgroup_width: 0,
            base: PcloudsConfig::paper_scaled(n),
        }
    }
}
