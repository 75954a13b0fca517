//! Per-processor build state shared across the SPMD closure invocations.
//!
//! Every processor keeps a **replica** of the tree skeleton (identical on
//! all ranks because every data-parallel decision is made collectively) and
//! a per-task slice of the pre-drawn sample. Small-node subtrees are built
//! only on their owning processor and grafted into the skeleton afterwards.

use std::collections::HashMap;

use parking_lot::Mutex;

use pdc_clouds::{ClassCounts, DecisionTree, NodeId, NodeStats, SortedSample};
use pdc_datagen::Record;

/// Mutable state of one processor during a build.
#[derive(Default)]
pub struct RankState {
    /// Tree skeleton replica (data-parallel part only).
    pub tree: Option<DecisionTree>,
    /// Task id → node id in the skeleton.
    pub node_of: HashMap<u64, NodeId>,
    /// Task id → this processor's replica of the task's sample points,
    /// sorted once at the root and split stably on the way down.
    pub samples: HashMap<u64, SortedSample>,
    /// Task id → node statistics fused into the parent's partition pass
    /// (saves the separate statistics pass, as in the paper).
    pub stats_cache: HashMap<u64, NodeStats>,
    /// Subtrees of small tasks this processor solved locally.
    pub local_subtrees: Vec<(u64, DecisionTree)>,
    /// Per-run instrumentation.
    pub metrics: BuildMetrics,
}

/// Instrumentation of one processor's build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildMetrics {
    /// Large (data-parallel) nodes processed.
    pub large_nodes: usize,
    /// Alive intervals this processor evaluated.
    pub alive_intervals_evaluated: usize,
    /// Total alive-interval records this processor scanned exactly.
    pub alive_points_scanned: u64,
    /// Sum of survival ratios over large nodes (divide by `large_nodes`).
    /// A record alive in several attributes counts once per attribute, so a
    /// node's ratio can exceed 1 on hard nodes.
    pub survival_ratio_sum: f64,
    /// Survival ratio of the root node (the paper's headline SSE metric).
    pub root_survival_ratio: f64,
    /// Small tasks solved locally.
    pub small_solved: usize,
    /// Records processed in locally solved small tasks.
    pub small_records: u64,
    /// Virtual seconds in the statistics pass (phase 1).
    pub time_stats: f64,
    /// Virtual seconds deriving the splitting point (phase 2: combine,
    /// boundary ginis, alive determination/evaluation).
    pub time_derive: f64,
    /// Virtual seconds partitioning data and sample points (phase 3).
    pub time_partition: f64,
    /// Virtual seconds redistributing small nodes (compute-dependent I/O).
    pub time_small_redistribute: f64,
    /// Virtual seconds solving small nodes locally.
    pub time_small_solve: f64,
}

/// All processors' states for one build.
pub struct SharedBuild {
    ranks: Vec<Mutex<RankState>>,
}

impl SharedBuild {
    /// Fresh state for a `p`-processor build. Every rank starts with the
    /// same replicated root sample and a single-leaf skeleton.
    pub fn new(p: usize, root_counts: ClassCounts, root_sample: Vec<Record>) -> Self {
        let root_sample = SortedSample::new(root_sample);
        let ranks = (0..p)
            .map(|_| {
                let mut st = RankState {
                    tree: Some(DecisionTree::single_leaf(root_counts.clone())),
                    ..RankState::default()
                };
                st.node_of.insert(1, 0);
                st.samples.insert(1, root_sample.clone());
                Mutex::new(st)
            })
            .collect();
        SharedBuild { ranks }
    }

    /// Lock rank `r`'s state.
    pub fn rank(&self, r: usize) -> parking_lot::MutexGuard<'_, RankState> {
        self.ranks[r].lock()
    }

    /// Number of ranks.
    pub fn nprocs(&self) -> usize {
        self.ranks.len()
    }

    /// Assemble the final tree: rank 0's skeleton with every rank's local
    /// subtrees grafted at their task's placeholder leaves.
    pub fn assemble(&self) -> DecisionTree {
        let mut state0 = self.rank(0);
        let mut tree = state0.tree.take().expect("skeleton missing");
        let node_of = state0.node_of.clone();
        drop(state0);
        for r in 0..self.nprocs() {
            let state = self.rank(r);
            for (task_id, subtree) in &state.local_subtrees {
                let node = *node_of
                    .get(task_id)
                    .unwrap_or_else(|| panic!("no skeleton node for task {task_id}"));
                tree.graft(node, subtree);
            }
        }
        // Canonical renumbering: which rank solved which small task (and
        // hence the graft order) depends on the machine width, but the
        // splits do not. The canonical form makes the assembled tree's
        // bytes invariant to the processor count.
        tree.canonical()
    }

    /// Aggregate the per-rank metrics.
    pub fn metrics(&self) -> Vec<BuildMetrics> {
        (0..self.nprocs()).map(|r| self.rank(r).metrics.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_with_no_small_tasks_returns_skeleton() {
        let build = SharedBuild::new(2, vec![3, 4], Vec::new());
        let tree = build.assemble();
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict(&pdc_datagen::generate(1, Default::default())[0]), 1);
    }

    #[test]
    fn root_sample_replicated_on_every_rank() {
        let sample = pdc_datagen::generate(5, Default::default());
        let build = SharedBuild::new(3, vec![1, 1], sample.clone());
        for r in 0..3 {
            assert_eq!(build.rank(r).samples[&1].records(), sample);
        }
    }
}
