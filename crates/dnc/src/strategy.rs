//! The parallelization strategies of Section 3 of the paper, as policies
//! over one driver.
//!
//! All five run through one loop over a FIFO frontier of ready tasks, each
//! carrying the processor group that handles it. They differ only in which
//! ready tasks are processed together, which group a child gets, and when
//! small tasks move:
//!
//! * **Data parallelism** — every task, large or small, is processed by all
//!   processors, one task after another. No data movement, balanced I/O,
//!   but message startups dominate once tasks get small.
//! * **Mixed (delayed task parallelism)** — the paper's choice: data
//!   parallelism for large tasks; small tasks are queued, LPT-assigned
//!   (weighted by the speeds the machine's fault plan gives each rank —
//!   all equal, hence the paper's schedule, unless the plan says
//!   otherwise), their data redistributed *after all large tasks finish*
//!   (batching the message startups), then solved locally; a solve the
//!   plan spoils is paid for again.
//! * **Mixed (immediate)** — like mixed, but each small task is
//!   redistributed and solved the moment it is discovered; used to measure
//!   what the delaying buys.
//! * **Concatenated parallelism** — all tasks of one tree level are
//!   processed together so their communication can be spooled; the
//!   available memory is shared by the whole level (which is why the paper
//!   argues *against* it for out-of-core work).
//! * **Task parallelism** — at every split the task's group divides in
//!   proportion to the subtask costs and one redistribution moves each
//!   child's data into its subgroup. A group of one handles its subtree
//!   alone, as mixed parallelism on a one-processor machine: it streams its
//!   tasks out-of-core while they are large and solves them in memory once
//!   they are small.
//!
//! A rank is a group of one, as a task is a batch of one: a small task's
//! owner is a group of one, and a batch runs inside its group's
//! [`Proc::scoped`] region unless the group is the run's own communicator,
//! so the first four strategies never enter a scope.

use std::collections::VecDeque;

use pdc_cgm::{Group, Proc};

use crate::problem::{Outcome, OocProblem, Task};
use crate::scheduler::lpt_assign_weighted;

/// Which policy the driver follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Pure data parallelism (all tasks via all processors).
    DataParallel,
    /// Data parallelism for large tasks + delayed task parallelism for
    /// small tasks (the paper's pCLOUDS strategy).
    Mixed,
    /// Mixed, but small tasks are shipped and solved immediately.
    MixedImmediate,
    /// Concatenated parallelism: level-by-level batches.
    Concatenated,
    /// Pure task parallelism with compute-dependent parallel I/O: at every
    /// split the processor group divides proportionally to the subtask
    /// costs and each side's data is redistributed into its subgroup; a
    /// group of one handles its whole subtask alone. Opens subgroup scopes,
    /// so it cannot run inside one.
    TaskParallel,
}

/// Counts of what a run did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DncReport {
    /// Tasks processed with data parallelism.
    pub large_tasks: usize,
    /// Tasks handled by the task-parallel (small) path.
    pub small_tasks: usize,
    /// Small tasks this processor solved locally.
    pub local_small_tasks: usize,
    /// Local small-task solves this processor repeated because the fault
    /// plan spoiled an attempt (see [`pdc_cgm::FaultPlan::task_fault_prob`]).
    pub small_task_retries: usize,
    /// Deepest task depth reached.
    pub max_depth: usize,
}

/// *Collective.* Build the divide-and-conquer tree for `root_meta` with the
/// chosen strategy. Every processor must call this with identical
/// arguments.
pub fn run<P: OocProblem>(
    proc: &mut Proc,
    problem: &P,
    root_meta: P::Meta,
    strategy: Strategy,
) -> DncReport {
    let strategy_idx = match strategy {
        Strategy::DataParallel => 0,
        Strategy::Mixed => 1,
        Strategy::MixedImmediate => 2,
        Strategy::Concatenated => 3,
        Strategy::TaskParallel => 4,
    };
    let span = proc.span("dnc.run", &[("strategy", strategy_idx)]);
    let report = run_frontier(proc, problem, root_meta, strategy);
    // Flush any asynchronous engine state inside the run span, so the
    // span rollup still partitions the whole run's wall time.
    problem.finish(proc);
    proc.span_end(span);
    report
}

/// Run `f` over `group` (ranks of the run's communicator): inside its
/// scope, or directly when the group is the whole communicator.
fn in_group<T>(proc: &mut Proc, group: &Group, f: impl FnOnce(&mut Proc) -> T) -> T {
    if group.size() == proc.nprocs() {
        f(proc)
    } else {
        proc.scoped(group, f)
    }
}

/// The five strategies as one loop over a FIFO frontier of ready tasks,
/// each with its group. Each round takes a batch off the front — the front
/// task, or under concatenated parallelism the whole frontier, which is
/// then exactly one tree level — and processes it with its group. A child
/// the problem calls small stays in the frontier under data and
/// concatenated parallelism; under the mixed strategies, and in a
/// task-parallel group of one, it leaves the frontier and is dispatched
/// right after its batch (immediate) or once the frontier is empty
/// (delayed). Under task parallelism a group of two or more splits with
/// its task instead, and this processor follows its own side. Only the
/// groups that dispatch ask `is_small` and hint the next frontier task for
/// prefetch; only the mixed strategies report the `dnc.queue.len` gauge.
fn run_frontier<P: OocProblem>(
    proc: &mut Proc,
    problem: &P,
    root_meta: P::Meta,
    strategy: Strategy,
) -> DncReport {
    let by_level = strategy == Strategy::Concatenated;
    let immediate = strategy == Strategy::MixedImmediate;
    let mixed = immediate || strategy == Strategy::Mixed;
    let task_parallel = strategy == Strategy::TaskParallel;
    let dispatches = |group: &Group| mixed || (task_parallel && group.size() == 1);
    let gauge = |proc: &mut Proc, frontier: &VecDeque<(Task<P::Meta>, Group)>| {
        if mixed {
            proc.gauge("dnc.queue.len", frontier.len() as f64);
        }
    };
    let world = Group::world(proc.nprocs());
    // Small tasks are dispatched by the group they appear in: the whole
    // communicator, or under task parallelism this processor alone.
    let small_group = match task_parallel {
        true => Group::new(vec![proc.rank()]),
        false => world.clone(),
    };
    let mut report = DncReport::default();
    let mut frontier = VecDeque::new();
    let mut delayed: Vec<Task<P::Meta>> = Vec::new();
    let root = Task::root(root_meta);
    if dispatches(&world) && problem.is_small(&root.meta) {
        delayed.push(root);
    } else {
        frontier.push_back((root, world));
    }
    gauge(proc, &frontier);
    while let Some((first, group)) = frontier.pop_front() {
        let mut batch = vec![first];
        if by_level {
            batch.extend(frontier.drain(..).map(|(task, _)| task));
        }
        gauge(proc, &frontier);
        let depth = batch.iter().map(|t| t.depth).max().unwrap_or(0);
        report.large_tasks += batch.len();
        report.max_depth = report.max_depth.max(depth);
        // Task-queue lookahead: hint the next frontier task so an engine can
        // fetch its files while this batch computes.
        if let Some((next, _)) = frontier.front().filter(|_| dispatches(&group)) {
            problem.prefetch_task(proc, next);
        }
        let outcomes = in_group(proc, &group, |proc| {
            if by_level {
                let attrs = [("depth", depth as i64), ("tasks", batch.len() as i64)];
                proc.in_span("dnc.level", &attrs, |proc| problem.process(proc, &batch))
            } else {
                let attrs = [("task", batch[0].id as i64), ("depth", depth as i64)];
                proc.in_span("dnc.task", &attrs, |proc| problem.process(proc, &batch))
            }
        });
        assert_eq!(outcomes.len(), batch.len(), "process shape mismatch");
        let mut split = false;
        for (task, outcome) in batch.iter().zip(outcomes) {
            let Outcome::Split(l, r) = outcome else {
                continue;
            };
            split = true;
            let (lt, rt) = task.children(l, r);
            report.max_depth = report.max_depth.max(lt.depth);
            if task_parallel && group.size() > 1 {
                let (child, child_group) = split_group(proc, problem, &group, lt, rt);
                if child_group.size() == 1 && problem.is_small(&child.meta) {
                    // The split's redistribution made it this processor's
                    // own small task.
                    report.small_tasks += 1;
                    let span = proc.span("dnc.small", &[("tasks", 1)]);
                    solve_local(proc, problem, &child, &mut report);
                    proc.span_end(span);
                } else {
                    frontier.push_back((child, child_group));
                }
                continue;
            }
            for child in [lt, rt] {
                if !(dispatches(&group) && problem.is_small(&child.meta)) {
                    frontier.push_back((child, group.clone()));
                } else if immediate {
                    // Ship and solve right away: more message startups,
                    // used as the ablation against delaying.
                    dispatch_small(proc, problem, &group, vec![child], &mut report);
                } else {
                    delayed.push(child);
                }
            }
        }
        if split {
            gauge(proc, &frontier);
        }
    }
    if !delayed.is_empty() {
        dispatch_small(proc, problem, &small_group, delayed, &mut report);
    }
    report
}

/// Task parallelism at a split of `group`'s task: the group divides in
/// proportion to the children's costs, and one redistribution moves each
/// child's data into its subgroup. Returns this processor's child and its
/// subgroup.
fn split_group<P: OocProblem>(
    proc: &mut Proc,
    problem: &P,
    group: &Group,
    left: Task<P::Meta>,
    right: Task<P::Meta>,
) -> (Task<P::Meta>, Group) {
    // Subgroups in the group's own ranks, as its scope sees them.
    let (lg, rg) = Group::world(group.size())
        .split_by_cost(problem.cost(&left.meta), problem.cost(&right.meta));
    let moves = [(left, lg), (right, rg)];
    in_group(proc, group, |proc| problem.redistribute(proc, &moves));
    let me = group.local(proc.rank()).expect("a member of the split group");
    let (child, sub) = moves
        .into_iter()
        .find(|(_, sub)| sub.contains(me))
        .expect("the subgroups cover the group");
    let members = sub.members().iter().map(|&m| group.global(m)).collect();
    (child, Group::new(members))
}

/// LPT-assign, redistribute and locally solve a batch of small tasks over
/// `group`.
///
/// The paper's implementation notes a limitation of its small-node phase:
/// *"we do not regroup the processors as they become idle."* Here the
/// machine's deterministic [`pdc_cgm::FaultPlan`] is the failure detector:
/// tasks are placed by [`lpt_assign_weighted`] with per-rank speeds `1 /
/// skew` (`0` for ranks marked failed), so failed ranks receive no tasks
/// and stragglers proportionally less. Under an inert plan all speeds are
/// `1.0`, and this is the paper's schedule bit for bit.
fn dispatch_small<P: OocProblem>(
    proc: &mut Proc,
    problem: &P,
    group: &Group,
    tasks: Vec<Task<P::Meta>>,
    report: &mut DncReport,
) {
    in_group(proc, group, |proc| {
        let span = proc.span("dnc.small", &[("tasks", tasks.len() as i64)]);
        let costs: Vec<f64> = tasks.iter().map(|t| problem.cost(&t.meta)).collect();
        // Speeds come from the shared fault plan, so every rank derives the
        // identical schedule without communicating. Ranks are translated to
        // physical identities: inside a subgroup scope the schedule indexes
        // group-local ranks, but skew and failure are properties of the
        // physical processor.
        let speeds: Vec<f64> = (0..proc.nprocs())
            .map(|r| {
                let phys = proc.peer_world_rank(r);
                let plan = proc.faults();
                if plan.is_failed(phys) {
                    0.0
                } else {
                    1.0 / plan.skew_of(phys)
                }
            })
            .collect();
        let owners = lpt_assign_weighted(&costs, &speeds);
        let assignments: Vec<(Task<P::Meta>, Group)> = tasks
            .into_iter()
            .zip(owners.iter().map(|&owner| Group::new(vec![owner])))
            .collect();
        problem.redistribute(proc, &assignments);
        // Local solving: no communication, so processors proceed independently.
        let me = proc.rank();
        for (i, (task, _)) in assignments.iter().enumerate() {
            report.small_tasks += 1;
            if owners[i] == me {
                // Hint the next task this rank owns: its data can stream in
                // while the current one is solved.
                if let Some(next) = (i + 1..owners.len()).find(|&j| owners[j] == me) {
                    problem.prefetch_task(proc, &assignments[next].0);
                }
                solve_local(proc, problem, task, report);
            }
        }
        proc.span_end(span);
    })
}

/// Solve one small task this processor owns. A solve whose attempt the
/// fault plan spoils is paid for again.
fn solve_local<P: OocProblem>(
    proc: &mut Proc,
    problem: &P,
    task: &Task<P::Meta>,
    report: &mut DncReport,
) {
    // The task's data is resident on this rank from the start of the local
    // solve until it completes (retries included).
    let resident = if proc.gauges_enabled() {
        problem.task_bytes(&task.meta) as f64
    } else {
        0.0
    };
    proc.gauge_delta("dnc.resident_bytes", proc.clock(), resident);
    let before = proc.clock();
    problem.solve_small_local(proc, task);
    report.local_small_tasks += 1;
    // Task retry: a spoiled attempt discards the work and pays for the
    // solve again. Re-charging the measured solve time (instead of
    // re-calling the solver) keeps problem-side effects idempotent. Attempts
    // are capped so a fault probability of 1.0 cannot loop forever.
    let elapsed = proc.clock() - before;
    let seq = (report.local_small_tasks - 1) as u64;
    let mut attempt = 0u32;
    while attempt < 16 && proc.faults().task_spoiled(proc.world_rank(), seq, attempt) {
        proc.advance_compute(elapsed);
        report.small_task_retries += 1;
        attempt += 1;
    }
    proc.gauge_delta("dnc.resident_bytes", proc.clock(), -resident);
}
