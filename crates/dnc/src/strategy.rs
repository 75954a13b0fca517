//! The parallelization strategies of Section 3 of the paper, as drivers
//! over an [`OocProblem`].
//!
//! Four of them are one driver over a FIFO frontier of ready tasks; they
//! differ only in which ready tasks are processed together and when small
//! tasks move:
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
//!
//! **Task parallelism** has its own driver over the problem's group hooks:
//! each processor follows one root-to-leaf path as its group halves.

use std::collections::VecDeque;

use pdc_cgm::Proc;

use crate::problem::{Outcome, OocProblem, Task};
use crate::scheduler::lpt_assign_weighted;

/// Which driver to use.
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
    /// group of one solves its whole subtask locally. Requires the
    /// problem's group hooks.
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
    let report = match strategy {
        Strategy::TaskParallel => run_task_parallel(proc, problem, root_meta),
        _ => run_frontier(proc, problem, root_meta, strategy),
    };
    // Flush any asynchronous engine state inside the run span, so the
    // span rollup still partitions the whole run's wall time.
    problem.finish(proc);
    proc.span_end(span);
    report
}

/// Pure task parallelism: each processor follows its own root-to-leaf path
/// through the divide-and-conquer tree, its group halving (by cost) at
/// every split, with the subtask's data redistributed into the subgroup.
fn run_task_parallel<P: OocProblem>(
    proc: &mut Proc,
    problem: &P,
    root_meta: P::Meta,
) -> DncReport {
    use pdc_cgm::Group;
    let mut report = DncReport::default();
    let mut group = Group::world(proc.nprocs());
    let mut task = Task::root(root_meta);
    loop {
        report.max_depth = report.max_depth.max(task.depth);
        if group.size() == 1 {
            report.small_tasks += 1;
            report.local_small_tasks += 1;
            let attrs = [("task", task.id as i64), ("depth", task.depth as i64)];
            proc.in_span("dnc.small", &attrs, |proc| {
                problem.solve_subtree_local(proc, &task)
            });
            return report;
        }
        report.large_tasks += 1;
        let attrs = [("task", task.id as i64), ("depth", task.depth as i64)];
        match proc.in_span("dnc.task", &attrs, |proc| {
            problem.process_group(proc, &group, &task)
        }) {
            Outcome::Solved => return report,
            Outcome::Split(l, r) => {
                let (lt, rt) = task.children(l, r);
                let (lg, rg) =
                    group.split_by_cost(problem.cost(&lt.meta), problem.cost(&rt.meta));
                problem.redistribute_split(proc, &group, &lt, &lg, &rt, &rg);
                if lg.contains(proc.rank()) {
                    group = lg;
                    task = lt;
                } else {
                    group = rg;
                    task = rt;
                }
            }
        }
    }
}

/// The four frontier strategies as one loop over a FIFO frontier of ready
/// tasks. Each round takes a batch off the front — the front task, or under
/// concatenated parallelism the whole frontier, which is then exactly one
/// tree level — and processes it with all processors. A child the problem
/// calls small stays in the frontier under data and concatenated
/// parallelism; under the mixed strategies it leaves the frontier and is
/// dispatched right after its batch (immediate) or once the frontier is
/// empty (delayed). Only the mixed strategies ask `is_small`, hint the next
/// frontier task for prefetch and report the `dnc.queue.len` gauge.
fn run_frontier<P: OocProblem>(
    proc: &mut Proc,
    problem: &P,
    root_meta: P::Meta,
    strategy: Strategy,
) -> DncReport {
    let by_level = strategy == Strategy::Concatenated;
    let immediate = strategy == Strategy::MixedImmediate;
    let mixed = immediate || strategy == Strategy::Mixed;
    let gauge = |proc: &mut Proc, frontier: &VecDeque<Task<P::Meta>>| {
        if mixed {
            proc.gauge("dnc.queue.len", frontier.len() as f64);
        }
    };
    let mut report = DncReport::default();
    let mut frontier = VecDeque::new();
    let mut delayed: Vec<Task<P::Meta>> = Vec::new();
    let root = Task::root(root_meta);
    if mixed && problem.is_small(&root.meta) {
        delayed.push(root);
    } else {
        frontier.push_back(root);
    }
    gauge(proc, &frontier);
    while !frontier.is_empty() {
        let batch: Vec<Task<P::Meta>> = if by_level {
            frontier.drain(..).collect()
        } else {
            frontier.pop_front().into_iter().collect()
        };
        gauge(proc, &frontier);
        let depth = batch.iter().map(|t| t.depth).max().unwrap_or(0);
        report.large_tasks += batch.len();
        report.max_depth = report.max_depth.max(depth);
        // Task-queue lookahead: hint the next frontier task so an engine can
        // fetch its files while this batch computes.
        if let Some(next) = frontier.front().filter(|_| mixed) {
            problem.prefetch_task(proc, next);
        }
        let outcomes = if by_level {
            let attrs = [("depth", depth as i64), ("tasks", batch.len() as i64)];
            proc.in_span("dnc.level", &attrs, |proc| problem.process(proc, &batch))
        } else {
            let attrs = [("task", batch[0].id as i64), ("depth", depth as i64)];
            proc.in_span("dnc.task", &attrs, |proc| problem.process(proc, &batch))
        };
        assert_eq!(outcomes.len(), batch.len(), "process shape mismatch");
        let mut split = false;
        for (task, outcome) in batch.iter().zip(outcomes) {
            let Outcome::Split(l, r) = outcome else {
                continue;
            };
            split = true;
            let (lt, rt) = task.children(l, r);
            for child in [lt, rt] {
                if !(mixed && problem.is_small(&child.meta)) {
                    frontier.push_back(child);
                } else if immediate {
                    // Ship and solve right away: more message startups,
                    // used as the ablation against delaying.
                    report.max_depth = report.max_depth.max(child.depth);
                    dispatch_small(proc, problem, vec![child], &mut report);
                } else {
                    report.max_depth = report.max_depth.max(child.depth);
                    delayed.push(child);
                }
            }
        }
        if split {
            gauge(proc, &frontier);
        }
    }
    if !delayed.is_empty() {
        dispatch_small(proc, problem, delayed, &mut report);
    }
    report
}

/// LPT-assign, redistribute and locally solve a batch of small tasks.
///
/// The paper's implementation notes a limitation of its small-node phase:
/// *"we do not regroup the processors as they become idle."* Here the
/// machine's deterministic [`pdc_cgm::FaultPlan`] is the failure detector:
/// tasks are placed by [`lpt_assign_weighted`] with per-rank speeds `1 /
/// skew` (`0` for ranks marked failed), so failed ranks receive no tasks
/// and stragglers proportionally less, and a local solve whose attempt the
/// plan spoils is re-executed. Under an inert plan all speeds are `1.0`,
/// nothing is spoiled, and this is the paper's schedule bit for bit.
fn dispatch_small<P: OocProblem>(
    proc: &mut Proc,
    problem: &P,
    tasks: Vec<Task<P::Meta>>,
    report: &mut DncReport,
) {
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
    let assignments: Vec<(Task<P::Meta>, usize)> =
        tasks.into_iter().zip(owners.iter().copied()).collect();
    problem.redistribute(proc, &assignments);
    // Local solving: no communication, so processors proceed independently.
    for (i, (task, owner)) in assignments.iter().enumerate() {
        report.small_tasks += 1;
        if *owner == proc.rank() {
            // Hint the next task this rank owns: its data can stream in
            // while the current one is solved.
            if let Some((next, _)) =
                assignments[i + 1..].iter().find(|(_, o)| *o == proc.rank())
            {
                problem.prefetch_task(proc, next);
            }
            // The task's data is resident on this rank from the start of
            // the local solve until it completes (retries included).
            let resident = if proc.gauges_enabled() {
                problem.task_bytes(&task.meta) as f64
            } else {
                0.0
            };
            proc.gauge_delta("dnc.resident_bytes", proc.clock(), resident);
            let before = proc.clock();
            problem.solve_small_local(proc, task);
            report.local_small_tasks += 1;
            // Task retry: a spoiled attempt discards the work and pays for
            // the solve again. Re-charging the measured solve time (instead
            // of re-calling the solver) keeps problem-side effects
            // idempotent. Attempts are capped so a fault probability of 1.0
            // cannot loop forever.
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
    }
    proc.span_end(span);
}
