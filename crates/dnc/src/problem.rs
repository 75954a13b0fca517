//! The problem interface of the generic out-of-core divide-and-conquer
//! framework.
//!
//! "Execution of a problem instance is represented by a divide-and-conquer
//! tree. The root node contains the entire data set. Each internal node
//! represents a task \[which\] is split into two subtasks." Problems plug into
//! the framework with two collective steps over a batch of tasks — process
//! the batch with a group of processors (data parallelism), and move tasks'
//! data to their groups (compute-dependent parallel I/O) — plus how to
//! solve a small task locally. A single task is a batch of one, and a
//! single processor is a group of one.

use pdc_cgm::{Group, Proc};

/// One task of the divide-and-conquer tree.
///
/// Task ids use heap numbering: the root is `1`, the children of `id` are
/// `2·id` and `2·id + 1`. Ids are assigned by the framework and give
/// problems a deterministic namespace (e.g. for per-task files).
#[derive(Debug, Clone, PartialEq)]
pub struct Task<M> {
    /// Heap-numbered task id (root = 1).
    pub id: u64,
    /// Depth in the divide-and-conquer tree (root = 0).
    pub depth: usize,
    /// Problem-specific task description.
    pub meta: M,
}

impl<M> Task<M> {
    /// The root task.
    pub fn root(meta: M) -> Task<M> {
        Task {
            id: 1,
            depth: 0,
            meta,
        }
    }

    /// Children of this task with the given metas.
    pub fn children(&self, left: M, right: M) -> (Task<M>, Task<M>) {
        (
            Task {
                id: 2 * self.id,
                depth: self.depth + 1,
                meta: left,
            },
            Task {
                id: 2 * self.id + 1,
                depth: self.depth + 1,
                meta: right,
            },
        )
    }
}

/// Result of processing one task.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome<M> {
    /// The task is fully solved; no subtasks.
    Solved,
    /// The task split into two subtasks with these metas.
    Split(M, M),
}

/// A divide-and-conquer problem over disk-resident data.
///
/// All methods marked *collective* are called by every member of the
/// communicator they run in, in the same order (SPMD): the whole machine,
/// or inside [`Proc::scoped`] a task's group, where `proc.rank()` is
/// group-local. A problem therefore addresses per-processor state (its
/// disks) by the processor it runs on, not by `proc.rank()`.
/// `solve_small_local` runs on the owning processor only and must not
/// communicate.
pub trait OocProblem: Sync {
    /// Task description: everything needed to decide cost/size and locate
    /// the task's data. Must be identical on all processors.
    type Meta: Clone + Send;

    /// Estimated processing cost of a task (drives LPT assignment of small
    /// tasks and the cost split of task-parallel groups; the paper assigns
    /// small nodes "based on the task costs").
    fn cost(&self, meta: &Self::Meta) -> f64;

    /// Is this task small enough for single-processor in-core processing?
    fn is_small(&self, meta: &Self::Meta) -> bool;

    /// Size of the task's data in bytes. Drives the scheduler's
    /// `dnc.resident_bytes` gauge (memory footprint of the small tasks a
    /// processor is solving — see [`pdc_cgm::gauge`]); purely
    /// observational. Default: 0 (no footprint reported).
    fn task_bytes(&self, _meta: &Self::Meta) -> u64 {
        0
    }

    /// *Collective.* Process a batch of tasks with the group holding their
    /// data and return one outcome per task, in order: derive each
    /// division, partition each task's local data, and report the split (or
    /// that the task is solved). A batch is one task under data, mixed and
    /// task parallelism, a whole tree level under concatenated parallelism;
    /// a problem can spool the batch's communication together.
    fn process(&self, proc: &mut Proc, tasks: &[Task<Self::Meta>]) -> Vec<Outcome<Self::Meta>>;

    /// *Collective.* Move each task's distributed data to its group, given
    /// in the ranks of the communicator this call runs in
    /// (compute-dependent parallel I/O). Afterwards a small task whose group
    /// has one member is ready for that member's `solve_small_local`; any
    /// other task is ready for `process` by its group. The batch is every
    /// delayed small task at once, one task when small tasks are shipped as
    /// they appear, or both children of a task-parallel split; a problem
    /// can batch the transfers to save message startups.
    fn redistribute(&self, proc: &mut Proc, assignments: &[(Task<Self::Meta>, Group)]);

    /// *Local.* Solve a small task entirely on this processor. The task's
    /// data is already resident on this processor's disk.
    fn solve_small_local(&self, proc: &mut Proc, task: &Task<Self::Meta>);

    /// *Local hint.* The framework is about to start another task and
    /// `task` is next in this processor's queue: an engine-backed problem
    /// can issue asynchronous prefetch reads for the task's files so the
    /// transfer overlaps the current task's compute. Must not change
    /// observable state other than virtual time, and must be free when the
    /// disk has no engine; the engine itself drops a hint that does not fit
    /// beside the running task's dirty pages. Default: no-op.
    fn prefetch_task(&self, _proc: &mut Proc, _task: &Task<Self::Meta>) {}

    /// *Collective.* Called once when the tree is complete, still inside
    /// the `dnc.run` span: a problem holding asynchronous engine state
    /// flushes it here (dirty write-back, device sync) so the run's
    /// accounting closes exactly. Default: no-op.
    fn finish(&self, _proc: &mut Proc) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_numbering() {
        let root = Task::root(());
        assert_eq!(root.id, 1);
        assert_eq!(root.depth, 0);
        let (l, r) = root.children((), ());
        assert_eq!((l.id, r.id), (2, 3));
        assert_eq!((l.depth, r.depth), (1, 1));
        let (ll, lr) = l.children((), ());
        assert_eq!((ll.id, lr.id), (4, 5));
    }
}
