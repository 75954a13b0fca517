//! Per-processor build state shared across the SPMD closure invocations.
//!
//! On the modelled machine every processor of a task's group keeps a
//! **replica** of the tree skeleton and of the pre-drawn sample (identical
//! on all of them because every data-parallel decision is made
//! collectively). The replicas are equal by construction, so the simulator
//! keeps **one** skeleton, written once per split by the first member of
//! the task's group, and **one** sample allocation per live task, handed to
//! every member as an `Arc`. Small-node subtrees are built only on their
//! owning processor and grafted into the skeleton afterwards.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use pdc_clouds::{ClassCounts, DecisionTree, NodeId, NodeStats, SortedSample, Splitter};
use pdc_datagen::Record;

/// Mutable state of one processor during a build.
#[derive(Default)]
pub struct RankState {
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
    /// Alive intervals this processor evaluated.
    pub alive_intervals_evaluated: usize,
    /// Total alive-interval records this processor scanned exactly.
    pub alive_points_scanned: u64,
    /// Survival ratio of the root node (the paper's headline SSE metric).
    /// A record alive in several attributes counts once per attribute, so
    /// the ratio can exceed 1 on a hard node.
    pub root_survival_ratio: f64,
    /// Small tasks solved locally.
    pub small_solved: usize,
}

/// The sample points of one live task, shared by its group.
struct TaskSample {
    /// Sorted once at the root and split stably on the way down; emptied
    /// by the first rank that splits it.
    sample: Arc<SortedSample>,
    /// Ranks that have not yet finished with the task.
    pending: usize,
}

/// The tree skeleton: the data-parallel part of the tree.
struct Skeleton {
    /// `None` once assembled.
    tree: Option<DecisionTree>,
    /// Task id → node id in the skeleton.
    node_of: HashMap<u64, NodeId>,
}

/// All processors' states for one build.
pub struct SharedBuild {
    ranks: Vec<Mutex<RankState>>,
    skeleton: Mutex<Skeleton>,
    /// Task id → the task's sample points. Never locked across a
    /// communication call, so a rank holding it always makes progress.
    samples: Mutex<HashMap<u64, TaskSample>>,
}

impl SharedBuild {
    /// Fresh state for a `p`-processor build: a single-leaf skeleton, and
    /// the root sample, sorted here, once.
    pub fn new(p: usize, root_counts: ClassCounts, root_sample: Vec<Record>) -> Self {
        let skeleton = Skeleton {
            tree: Some(DecisionTree::single_leaf(root_counts)),
            node_of: HashMap::from([(1, 0)]),
        };
        let root = TaskSample {
            sample: Arc::new(SortedSample::new(root_sample)),
            pending: p,
        };
        SharedBuild {
            ranks: (0..p).map(|_| Mutex::default()).collect(),
            skeleton: Mutex::new(skeleton),
            samples: Mutex::new(HashMap::from([(1, root)])),
        }
    }

    /// Record that task `id` split on `splitter` into children with these
    /// class counts. Called once per split, by the first member of the
    /// task's group.
    pub(crate) fn split_node(
        &self,
        id: u64,
        splitter: Splitter,
        left_counts: ClassCounts,
        right_counts: ClassCounts,
    ) {
        let mut skeleton = self.skeleton.lock();
        let node = skeleton.node_of[&id];
        let tree = skeleton.tree.as_mut().expect("skeleton");
        let (l, r) = tree.split_leaf(node, splitter, left_counts, right_counts);
        skeleton.node_of.extend([(2 * id, l), (2 * id + 1, r)]);
    }

    /// Lock rank `r`'s state.
    pub fn rank(&self, r: usize) -> parking_lot::MutexGuard<'_, RankState> {
        self.ranks[r].lock()
    }

    /// The sample points of live task `id`.
    pub fn sample(&self, id: u64) -> Arc<SortedSample> {
        Arc::clone(&self.samples.lock()[&id].sample)
    }

    /// The samples of the two children `splitter` divides task `id` into,
    /// for the `group_size` members of the task's group. The first member
    /// to ask splits the task's sample; the others are handed the same two
    /// allocations. Counts as the calling rank's
    /// [`SharedBuild::release_sample`] of `id`.
    pub fn split_sample(
        &self,
        id: u64,
        splitter: &Splitter,
        group_size: usize,
    ) -> (Arc<SortedSample>, Arc<SortedSample>) {
        let (lid, rid) = (2 * id, 2 * id + 1);
        let mut samples = self.samples.lock();
        // A child is live until every member has released it, and no member
        // releases a child before it has split the parent.
        if !samples.contains_key(&lid) {
            let parent = samples.get_mut(&id).expect("sample of a live task");
            let parent = Arc::try_unwrap(std::mem::take(&mut parent.sample))
                .unwrap_or_else(|shared| (*shared).clone());
            let (left, right) = parent.split(splitter);
            for (child, sample) in [(lid, left), (rid, right)] {
                let sample = TaskSample {
                    sample: Arc::new(sample),
                    pending: group_size,
                };
                samples.insert(child, sample);
            }
        }
        let children = (
            Arc::clone(&samples[&lid].sample),
            Arc::clone(&samples[&rid].sample),
        );
        Self::release(&mut samples, id);
        children
    }

    /// The calling rank has finished with task `id` (it became a leaf or a
    /// small task, or its data moved to a group without this rank); the
    /// last rank's call frees the sample.
    pub fn release_sample(&self, id: u64) {
        Self::release(&mut self.samples.lock(), id);
    }

    fn release(samples: &mut HashMap<u64, TaskSample>, id: u64) {
        let task = samples.get_mut(&id).expect("sample of a live task");
        task.pending -= 1;
        if task.pending == 0 {
            samples.remove(&id);
        }
    }

    /// Number of ranks.
    pub fn nprocs(&self) -> usize {
        self.ranks.len()
    }

    /// Ids of the tasks whose sample some rank still holds: none once a
    /// build has run to completion.
    pub fn live_samples(&self) -> Vec<u64> {
        self.samples.lock().keys().copied().collect()
    }

    /// Assemble the final tree: the skeleton with every rank's local
    /// subtrees grafted at their task's placeholder leaves.
    pub fn assemble(&self) -> DecisionTree {
        let mut skeleton = self.skeleton.lock();
        let mut tree = skeleton.tree.take().expect("skeleton missing");
        for r in 0..self.nprocs() {
            let state = self.rank(r);
            for (task_id, subtree) in &state.local_subtrees {
                let node = *skeleton
                    .node_of
                    .get(task_id)
                    .unwrap_or_else(|| panic!("no skeleton node for task {task_id}"));
                tree.graft(node, subtree);
            }
        }
        // Canonical renumbering: which rank solved which small task (and
        // hence the graft order), and under task parallelism the order in
        // which concurrent groups split their nodes, depend on the machine
        // width and the host, but the splits do not. The canonical form
        // makes the assembled tree's bytes invariant to all of them.
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
    fn every_rank_holds_the_same_allocation_of_a_task_sample() {
        let sample = pdc_datagen::generate(5, Default::default());
        let build = SharedBuild::new(3, vec![1, 1], sample.clone());
        assert_eq!(build.sample(1).records(), sample);
        assert!(Arc::ptr_eq(&build.sample(1), &build.sample(1)));
        // The first rank splits; the others get the same two children.
        let splitter = Splitter::Categorical { attr: 0, left_values: 0b0101 };
        let first = build.split_sample(1, &splitter, 3);
        assert_eq!(first.0.len() + first.1.len(), 5);
        assert!(first.0.records().iter().all(|r| splitter.goes_left(r)));
        for _ in 1..3 {
            let other = build.split_sample(1, &splitter, 3);
            assert!(Arc::ptr_eq(&first.0, &other.0) && Arc::ptr_eq(&first.1, &other.1));
        }
        // A task's entry goes with its last rank.
        assert!(!build.samples.lock().contains_key(&1));
        for r in 0..3 {
            assert_eq!(build.samples.lock()[&2].pending, 3 - r);
            build.release_sample(2);
        }
        assert_eq!(build.samples.lock().keys().collect::<Vec<_>>(), [&3]);
    }
}
