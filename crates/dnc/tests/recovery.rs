//! Fault-aware small-task dispatch over `run`: the machine's fault plan
//! decides who owns how much — a straggler less than a healthy rank, a
//! failed rank nothing — and a spoiled solve is retried and charged. (That
//! the weighted schedule beats the uniform one on the same costs and speeds
//! is a pure-function check in `scheduler.rs`.)

use pdc_cgm::{Cluster, FaultPlan, Group, MachineConfig, OpKind, Proc};
use pdc_dnc::{run, DncReport, Outcome, OocProblem, Strategy, Task};

/// Splits until size < `small_at`; small solves charge compute proportional
/// to the task size, so schedules show up in the virtual clocks.
struct Compute {
    small_at: u64,
}

impl OocProblem for Compute {
    type Meta = u64;

    fn cost(&self, meta: &u64) -> f64 {
        *meta as f64
    }

    fn is_small(&self, meta: &u64) -> bool {
        *meta < self.small_at
    }

    fn process(&self, proc: &mut Proc, tasks: &[Task<u64>]) -> Vec<Outcome<u64>> {
        tasks
            .iter()
            .map(|task| {
                proc.charge(OpKind::RecordScan, task.meta);
                proc.barrier();
                if task.meta <= 1 {
                    Outcome::Solved
                } else {
                    let left = task.meta * 2 / 3;
                    Outcome::Split(left, task.meta - left)
                }
            })
            .collect()
    }

    fn redistribute(&self, proc: &mut Proc, assignments: &[(Task<u64>, Group)]) {
        for (task, group) in assignments {
            let owner = group.global(0);
            // Ship the task's records to its owner as one message.
            let bytes = (task.meta as usize) * 8;
            if proc.rank() == 0 && owner != 0 {
                proc.send_bytes(owner, 77, vec![0u8; bytes]);
            } else if proc.rank() == owner && owner != 0 {
                let _ = proc.recv_bytes(0, 77);
            }
            proc.barrier();
        }
    }

    fn solve_small_local(&self, proc: &mut Proc, task: &Task<u64>) {
        proc.charge(OpKind::RecordScan, task.meta * 5_000);
    }
}

/// `Strategy::Mixed` over 400 records split down to tasks below 40, on a
/// machine of `p` ranks under `faults`.
fn run_mixed(p: usize, faults: FaultPlan) -> pdc_cgm::RunOutput<DncReport> {
    let cluster = Cluster::with_config(
        p,
        MachineConfig {
            faults,
            ..MachineConfig::default()
        },
    );
    let problem = Compute { small_at: 40 };
    cluster.run(|proc| run(proc, &problem, 400u64, Strategy::Mixed))
}

#[test]
fn a_straggler_owns_less_small_task_cost_than_any_healthy_rank() {
    // Solves charge in proportion to the task size, so a rank's compute
    // seconds divided by its skew are the small-task cost it was given (the
    // data-parallel phase charges every rank alike).
    let mut plan = FaultPlan::with_seed(0);
    plan.skew = vec![1.0, 6.0, 1.0, 1.0];
    let out = run_mixed(4, plan);
    let owned: Vec<f64> = out
        .stats
        .iter()
        .zip([1.0, 6.0, 1.0, 1.0])
        .map(|(s, skew)| s.counters.compute_time / skew)
        .collect();
    for healthy in [0, 2, 3] {
        assert!(
            owned[1] < owned[healthy],
            "the straggler must be relieved: {owned:?}"
        );
    }
    assert!(out.results[1].local_small_tasks > 0, "relieved, not excluded");
}

#[test]
fn regrouping_routes_around_a_failed_rank() {
    let mut plan = FaultPlan::with_seed(0);
    plan.failed = vec![2];
    let out = run_mixed(4, plan);
    assert_eq!(out.results[2].local_small_tasks, 0);
    assert!(out.results.iter().map(|r| r.local_small_tasks).sum::<usize>() > 0);
}

#[test]
fn spoiled_tasks_are_retried_and_charged() {
    let mut plan = FaultPlan::with_seed(9);
    plan.task_fault_prob = 0.4;
    let healthy = run_mixed(4, FaultPlan::default()).makespan();
    let out = run_mixed(4, plan);
    let retries: usize = out.results.iter().map(|r| r.small_task_retries).sum();
    assert!(retries > 0, "40% spoil rate must trigger retries");
    assert!(
        out.makespan() > healthy,
        "retries must cost time: {} !> {healthy}",
        out.makespan()
    );
}
