//! Driver-logic tests with a synthetic in-memory problem: verify *what the
//! strategies do* (processing order, batching, assignment) independent of
//! any real workload.

use parking_lot::Mutex;
use pdc_cgm::{Cluster, Group, Proc};
use pdc_dnc::{run, Outcome, OocProblem, Strategy, Task};

/// A scripted divide-and-conquer: tasks split until their size drops below
/// `small_at`; every hook appends to its processor's event log (by world
/// rank, so a subgroup member logs as itself).
struct Scripted {
    small_at: u64,
    events: Vec<Mutex<Vec<String>>>,
}

impl Scripted {
    fn new(p: usize, small_at: u64) -> Self {
        Scripted {
            small_at,
            events: (0..p).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn log(&self, proc: &Proc, what: String) {
        self.events[proc.world_rank()].lock().push(what);
    }

    fn events_of(&self, rank: usize) -> Vec<String> {
        self.events[rank].lock().clone()
    }
}

impl OocProblem for Scripted {
    type Meta = u64; // task "size"

    fn cost(&self, meta: &u64) -> f64 {
        *meta as f64
    }

    fn is_small(&self, meta: &u64) -> bool {
        *meta < self.small_at
    }

    fn process(&self, proc: &mut Proc, tasks: &[Task<u64>]) -> Vec<Outcome<u64>> {
        let ids: Vec<String> = tasks.iter().map(|t| t.id.to_string()).collect();
        self.log(proc, format!("batch:{}", ids.join(",")));
        tasks
            .iter()
            .map(|task| {
                self.log(proc, format!("large:{}", task.id));
                proc.barrier(); // keep ranks honest about collectivity
                if task.meta <= 1 {
                    Outcome::Solved
                } else {
                    // Uneven split to exercise cost-based assignment.
                    let left = task.meta * 2 / 3;
                    Outcome::Split(left, task.meta - left)
                }
            })
            .collect()
    }

    /// One `move:` line per call; a group of one prints as its bare owner,
    /// a larger group as its members joined by `+`.
    fn redistribute(&self, proc: &mut Proc, assignments: &[(Task<u64>, Group)]) {
        let moves: Vec<String> = assignments
            .iter()
            .map(|(task, group)| {
                let members: Vec<String> = group.members().iter().map(|m| m.to_string()).collect();
                format!("{}->{}", task.id, members.join("+"))
            })
            .collect();
        self.log(proc, format!("move:{}", moves.join(",")));
        proc.barrier();
    }

    fn prefetch_task(&self, proc: &mut Proc, task: &Task<u64>) {
        self.log(proc, format!("prefetch:{}", task.id));
    }

    fn solve_small_local(&self, proc: &mut Proc, task: &Task<u64>) {
        self.log(proc, format!("solve:{}", task.id));
    }
}

#[test]
fn mixed_defers_all_small_tasks_to_the_end() {
    let p = 4;
    let problem = Scripted::new(p, 10);
    let cluster = Cluster::new(p);
    let out = cluster.run(|proc| run(proc, &problem, 100u64, Strategy::Mixed));
    let events = problem.events_of(0);
    // No "move" event may precede the last "large" event.
    let last_large = events.iter().rposition(|e| e.starts_with("large")).unwrap();
    let first_move = events.iter().position(|e| e.starts_with("move")).unwrap();
    assert!(
        first_move > last_large,
        "redistribution started before all large tasks finished: {events:?}"
    );
    // Reports agree across ranks.
    for r in &out.results {
        assert_eq!(r.large_tasks, out.results[0].large_tasks);
        assert_eq!(r.small_tasks, out.results[0].small_tasks);
    }
    assert!(out.results[0].small_tasks >= 2);
}

#[test]
fn immediate_interleaves_moves_with_large_tasks() {
    let p = 4;
    let problem = Scripted::new(p, 10);
    let cluster = Cluster::new(p);
    let _ = cluster.run(|proc| run(proc, &problem, 100u64, Strategy::MixedImmediate));
    let events = problem.events_of(0);
    let last_large = events.iter().rposition(|e| e.starts_with("large")).unwrap();
    let first_move = events.iter().position(|e| e.starts_with("move")).unwrap();
    assert!(
        first_move < last_large,
        "immediate mode should ship small tasks as discovered: {events:?}"
    );
}

#[test]
fn data_parallel_never_redistributes() {
    let p = 3;
    let problem = Scripted::new(p, 10);
    let cluster = Cluster::new(p);
    let out = cluster.run(|proc| run(proc, &problem, 50u64, Strategy::DataParallel));
    for rank in 0..p {
        assert!(
            problem.events_of(rank).iter().all(|e| !e.starts_with("move")),
            "data parallelism must not move data"
        );
    }
    assert_eq!(out.results[0].small_tasks, 0);
}

#[test]
fn concatenated_processes_levels_breadth_first() {
    let p = 2;
    let problem = Scripted::new(p, 0); // nothing is "small"
    let cluster = Cluster::new(p);
    let _ = cluster.run(|proc| run(proc, &problem, 20u64, Strategy::Concatenated));
    let events = problem.events_of(0);
    // Heap ids within one level are contiguous powers-of-two ranges; check
    // ids appear in nondecreasing level order.
    let levels: Vec<u32> = events
        .iter()
        .filter_map(|e| e.strip_prefix("large:"))
        .map(|id| 63 - id.parse::<u64>().unwrap().leading_zeros())
        .collect();
    assert!(
        levels.windows(2).all(|w| w[0] <= w[1]),
        "levels out of order: {levels:?}"
    );
}

#[test]
fn every_small_task_is_solved_exactly_once() {
    let p = 4;
    let problem = Scripted::new(p, 12);
    let cluster = Cluster::new(p);
    let out = cluster.run(|proc| run(proc, &problem, 200u64, Strategy::Mixed));
    let mut solved: Vec<String> = (0..p)
        .flat_map(|r| problem.events_of(r))
        .filter(|e| e.starts_with("solve"))
        .collect();
    let before = solved.len();
    solved.sort();
    solved.dedup();
    assert_eq!(solved.len(), before, "a task was solved twice");
    assert_eq!(solved.len(), out.results[0].small_tasks);
}

#[test]
fn solved_root_means_one_task_total() {
    struct Trivial;
    impl OocProblem for Trivial {
        type Meta = ();
        fn cost(&self, _: &()) -> f64 {
            1.0
        }
        fn is_small(&self, _: &()) -> bool {
            false
        }
        fn process(&self, _: &mut Proc, tasks: &[Task<()>]) -> Vec<Outcome<()>> {
            vec![Outcome::Solved; tasks.len()]
        }
        fn redistribute(&self, _: &mut Proc, _: &[(Task<()>, Group)]) {}
        fn solve_small_local(&self, _: &mut Proc, _: &Task<()>) {}
    }
    let cluster = Cluster::new(3);
    let out = cluster.run(|proc| run(proc, &Trivial, (), Strategy::Mixed));
    assert_eq!(out.results[0].large_tasks, 1);
    assert_eq!(out.results[0].small_tasks, 0);
}

/// Every rank's whole call log under `strategy`, one string per rank: the
/// batches it processed (task ids), the moves (task -> owner), its solves
/// and its prefetch hints, in call order. `large:` lines repeat the batch
/// ids and are left out.
fn call_log(strategy: Strategy, p: usize, root: u64) -> Vec<String> {
    let problem = Scripted::new(p, 4);
    let _ = Cluster::new(p).run(|proc| run(proc, &problem, root, strategy));
    (0..p)
        .map(|rank| {
            let events = problem.events_of(rank);
            let kept: Vec<&str> = events
                .iter()
                .map(String::as_str)
                .filter(|e| !e.starts_with("large:"))
                .collect();
            kept.join(" ")
        })
        .collect()
}

/// The full call order of every frontier strategy at p = 4, as literal
/// logs: which tasks are processed together, when small tasks move and to
/// whom, who solves them, and which task each prefetch hint names.
#[test]
fn call_order_is_pinned_for_every_frontier_strategy() {
    let dp = "batch:1 batch:2 batch:3 batch:4 batch:5 batch:6 batch:7 batch:8 batch:9 \
              batch:10 batch:11 batch:12 batch:13 batch:14 batch:15 batch:16 batch:17 \
              batch:18 batch:19 batch:20 batch:21 batch:22 batch:23 batch:24 batch:25 \
              batch:26 batch:27 batch:32 batch:33 batch:34 batch:35";
    let level = "batch:1 batch:2,3 batch:4,5,6,7 batch:8,9,10,11,12,13,14,15 \
                 batch:16,17,18,19,20,21,22,23,24,25,26,27 batch:32,33,34,35";
    let large = "batch:1 prefetch:3 batch:2 prefetch:4 batch:3 prefetch:5 batch:4 \
                 prefetch:6 batch:5 prefetch:8 batch:6 batch:8";
    let moves = "move:7->0,9->1,10->2,11->3,12->0,13->1,16->2,17->3";
    let mixed: Vec<String> = [
        "prefetch:12 solve:7 solve:12",
        "prefetch:13 solve:9 solve:13",
        "prefetch:16 solve:10 solve:16",
        "prefetch:17 solve:11 solve:17",
    ]
    .iter()
    .map(|solves| format!("{large} {moves} {solves}"))
    .collect();
    let immediate = |solve: &dyn Fn(u64) -> String| {
        format!(
            "batch:1 prefetch:3 batch:2 prefetch:4 batch:3 move:7->0{} prefetch:5 batch:4 \
             move:9->0{} prefetch:6 batch:5 move:10->0{} move:11->0{} prefetch:8 batch:6 \
             move:12->0{} move:13->0{} batch:8 move:16->0{} move:17->0{}",
            solve(7), solve(9), solve(10), solve(11), solve(12), solve(13), solve(16), solve(17)
        )
    };
    let owner = immediate(&|id| format!(" solve:{id}"));
    let other = immediate(&|_| String::new());
    let expected: [(Strategy, Vec<String>); 4] = [
        (Strategy::DataParallel, vec![dp.into(); 4]),
        (Strategy::Mixed, mixed),
        (Strategy::MixedImmediate, vec![owner, other.clone(), other.clone(), other]),
        (Strategy::Concatenated, vec![level.into(); 4]),
    ];
    for (strategy, logs) in expected {
        assert_eq!(call_log(strategy, 4, 16), logs, "{strategy:?}");
    }
    // A small root skips the frontier: it is shipped and solved at once.
    for strategy in [Strategy::Mixed, Strategy::MixedImmediate] {
        let logs = call_log(strategy, 4, 3);
        let expected = ["move:1->0 solve:1", "move:1->0", "move:1->0", "move:1->0"];
        assert_eq!(logs, expected, "{strategy:?}");
    }
}

/// Task parallelism at p = 3 with uneven costs: the root's group splits
/// 2 : 1, the pair splits again at task 2, and each group of one streams its
/// tasks until they are small, then ships them to itself and solves them.
#[test]
fn call_order_is_pinned_for_task_parallelism() {
    let split = "batch:1 move:2->0+1,3->2";
    let expected = [
        format!(
            "{split} batch:2 move:4->0,5->1 batch:4 batch:8 move:9->0,16->0,17->0 \
             prefetch:16 solve:9 prefetch:17 solve:16 solve:17"
        ),
        format!(
            "{split} batch:2 move:4->0,5->1 batch:5 move:10->0,11->0 prefetch:11 solve:10 \
             solve:11"
        ),
        format!(
            "{split} batch:3 batch:6 move:7->0,12->0,13->0 prefetch:12 solve:7 prefetch:13 \
             solve:12 solve:13"
        ),
    ];
    assert_eq!(call_log(Strategy::TaskParallel, 3, 16), expected);
    // A small task a split hands to a group of one is solved at once.
    let expected = [
        "batch:1 move:2->0+1,3->2 batch:2 move:4->0,5->1 batch:4 move:8->0,9->0 prefetch:9 \
         solve:8 solve:9",
        "batch:1 move:2->0+1,3->2 batch:2 move:4->0,5->1 solve:5",
        "batch:1 move:2->0+1,3->2 solve:3",
    ];
    assert_eq!(call_log(Strategy::TaskParallel, 3, 9), expected);
}
