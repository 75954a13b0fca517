//! Fault-injection behavior: determinism, zero-fault bit-identity,
//! straggler skew, retry charging, degraded disks and non-hanging
//! collectives under permanent link failure.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pdc_cgm::fault::DegradedWindow;
use pdc_cgm::{Cluster, FaultPlan, MachineConfig, OpKind, Proc};

fn config_with(faults: FaultPlan) -> MachineConfig {
    MachineConfig {
        faults,
        ..MachineConfig::default()
    }
}

/// A collectives-heavy workload whose finish times are sensitive to every
/// charged nanosecond.
fn workload(proc: &mut Proc) -> u64 {
    let p = proc.nprocs() as u64;
    proc.charge(OpKind::RecordScan, 500 * (proc.rank() as u64 + 1));
    proc.disk_read_ws(1 << 16, 1 << 20);
    let sum: u64 = proc.allreduce(proc.rank() as u64, |a, b| a + b);
    assert_eq!(sum, p * (p - 1) / 2);
    let v = proc.broadcast(0, (proc.rank() == 0).then_some(sum));
    proc.barrier();
    let all = proc.all_gather(proc.rank() as u64);
    proc.disk_write_ws(1 << 14, 1 << 22);
    v + all.iter().sum::<u64>()
}

fn finish_times(cfg: MachineConfig, p: usize) -> Vec<f64> {
    let out = Cluster::with_config(p, cfg).run(workload);
    out.stats.iter().map(|s| s.finish_time).collect()
}

#[test]
fn inert_plan_is_bit_identical_to_default() {
    let baseline = finish_times(MachineConfig::default(), 6);
    // An inert plan with a different seed must not change a single bit.
    let mut inert = FaultPlan::with_seed(0xDEAD_BEEF);
    inert.skew = vec![1.0; 6];
    assert!(inert.is_inert());
    let with_plan = finish_times(config_with(inert), 6);
    assert_eq!(baseline, with_plan, "zero-fault path diverged");
}

#[test]
fn fault_runs_are_deterministic() {
    let mut plan = FaultPlan::with_seed(11);
    plan.link.drop_prob = 0.1;
    plan.link.delay_prob = 0.1;
    plan.disk.read_error_prob = 0.05;
    plan.skew = vec![1.0, 1.5, 1.0, 2.0, 1.0, 1.0];
    let a = finish_times(config_with(plan.clone()), 6);
    let b = finish_times(config_with(plan), 6);
    assert_eq!(a, b, "same seed must give identical virtual times");
}

#[test]
fn drops_and_delays_cost_time() {
    let baseline = finish_times(MachineConfig::default(), 4);
    let mut plan = FaultPlan::with_seed(3);
    plan.link.drop_prob = 0.3;
    let out = Cluster::with_config(4, config_with(plan)).run(workload);
    let total = out.total_counters();
    assert!(total.link_retries > 0, "a 30% drop rate must trigger retries");
    assert!(
        out.makespan() > baseline.iter().cloned().fold(0.0, f64::max),
        "retries must lengthen the run"
    );
}

#[test]
fn straggler_skew_slows_the_machine() {
    let baseline = finish_times(MachineConfig::default(), 4);
    let mut plan = FaultPlan::with_seed(0);
    plan.skew = vec![1.0, 4.0, 1.0, 1.0];
    let skewed = finish_times(config_with(plan), 4);
    let base_max = baseline.iter().cloned().fold(0.0, f64::max);
    let skew_max = skewed.iter().cloned().fold(0.0, f64::max);
    assert!(
        skew_max > base_max,
        "a 4x straggler must stretch the makespan ({base_max} -> {skew_max})"
    );
}

#[test]
fn degraded_disk_window_charges_more() {
    let run = |faults: FaultPlan| {
        let out = Cluster::with_config(1, config_with(faults)).run(|proc| {
            proc.disk_read_ws(1 << 20, usize::MAX);
            proc.clock()
        });
        out.results[0]
    };
    let healthy = run(FaultPlan::default());
    let mut plan = FaultPlan::default();
    plan.disk.degraded = vec![DegradedWindow { start: 0.0, end: 1e9, slowdown: 5.0 }];
    let degraded = run(plan);
    assert!(
        degraded > 4.0 * healthy,
        "5x slowdown window: {healthy} -> {degraded}"
    );
}

#[test]
fn disk_read_errors_retry_and_charge() {
    let mut plan = FaultPlan::with_seed(21);
    plan.disk.read_error_prob = 0.3;
    let out = Cluster::with_config(1, config_with(plan)).run(|proc| {
        for _ in 0..200 {
            proc.try_disk_read_ws(4096, usize::MAX).expect("retries should recover");
        }
        proc.counters.disk_retries
    });
    assert!(out.results[0] > 0, "30% error rate over 200 reads must retry");
}

#[test]
fn try_collectives_surface_errors_instead_of_hanging() {
    let mut plan = FaultPlan::with_seed(5);
    plan.link.drop_prob = 1.0; // every transmission drops: all sends fail
    plan.link.max_retries = 1;
    for p in [2, 3, 4, 5, 8] {
        let out = Cluster::with_config(p, config_with(plan.clone())).run(|proc| {
            let r = proc.try_allreduce(proc.rank() as u64, |a, b| a + b);
            r.is_err()
        });
        assert!(
            out.results.iter().all(|&failed| failed),
            "p={p}: every rank must surface the failure"
        );
    }
}

#[test]
fn try_barrier_and_broadcast_survive_total_link_failure() {
    let mut plan = FaultPlan::with_seed(17);
    plan.link.drop_prob = 1.0;
    plan.link.max_retries = 0;
    let out = Cluster::with_config(4, config_with(plan)).run(|proc| {
        let b = proc.try_barrier().is_err();
        let bc = proc
            .try_broadcast(0, (proc.rank() == 0).then_some(42u64))
            .is_err();
        (b, bc)
    });
    for (rank, &(barrier_failed, bcast_failed)) in out.results.iter().enumerate() {
        assert!(barrier_failed, "rank {rank}: barrier must fail");
        assert!(bcast_failed, "rank {rank}: broadcast must fail");
    }
}

/// The collectives that have a fallible name, through their plain names.
type Plain = (&'static str, fn(&mut Proc) -> Vec<u64>);
const PLAIN: [Plain; 5] = [
    ("allreduce", |proc| vec![proc.allreduce(proc.rank() as u64 + 1, |a, b| a + b)]),
    ("barrier", |proc| {
        proc.barrier();
        vec![]
    }),
    ("broadcast", |proc| vec![proc.broadcast(0, (proc.rank() == 0).then_some(42u64))]),
    ("reduce", |proc| {
        let reduced = proc.reduce(0, proc.rank() as u64 + 1, |a, b| a + b);
        reduced.into_iter().collect()
    }),
    ("reduce_scatter_blocks", |proc| {
        let (p, r) = (proc.nprocs() as u64, proc.rank() as u64);
        let blocks = (0..p).map(|j| vec![r * p + j; 4]).collect();
        proc.reduce_scatter_blocks(blocks, |a, b| a + b)
    }),
];

#[test]
fn plain_collectives_panic_with_the_fault_on_a_dead_link() {
    // Every transmission drops, no retries: the plain names finish the
    // poison-propagating schedule — so no rank is left parked and the run
    // ends structurally — and then panic with the fault itself.
    let mut plan = FaultPlan::with_seed(23);
    plan.link.drop_prob = 1.0;
    plan.link.max_retries = 0;
    for (which, body) in PLAIN {
        // p ∈ {3, 5} run the fan-in reduce-scatter, p ∈ {2, 4, 8} halving.
        for p in [2usize, 3, 4, 5, 8] {
            let cluster = Cluster::with_config(p, config_with(plan.clone()));
            let payload = catch_unwind(AssertUnwindSafe(|| {
                cluster.run(|proc| body(proc));
            }))
            .expect_err("a dead link must end the run with a panic");
            let msg = payload.downcast_ref::<String>().expect("string panic payload");
            assert!(msg.contains(&format!("{which} failed: ")), "{which} p={p}: {msg}");
            assert!(
                msg.contains("link failure") || msg.contains("poisoned message"),
                "{which} p={p}: {msg}"
            );
            assert!(!msg.contains("deadlock"), "{which} p={p}: {msg}");
        }
    }
}

#[test]
fn plain_collectives_recover_under_retried_drops() {
    // Drops with generous retries only cost virtual time.
    let mut plan = FaultPlan::with_seed(29);
    plan.link.drop_prob = 0.2;
    plan.link.max_retries = 50;
    for (which, body) in PLAIN {
        for p in [2usize, 3, 4, 5, 8] {
            let healthy = Cluster::new(p).run(|proc| body(proc));
            let mut cfg = config_with(plan.clone());
            cfg.spans = true;
            let retried = Cluster::with_config(p, cfg).run(|proc| body(proc));
            assert_eq!(retried.results, healthy.results, "{which} p={p}");
            assert!(retried.makespan() >= healthy.makespan());
            // Both reduce-scatter schedules are in this table, by name.
            if which == "reduce_scatter_blocks" {
                let want = match p {
                    3 | 5 => "cgm.reduce_scatter.fanin",
                    _ => "cgm.reduce_scatter.halving",
                };
                let spans = &retried.stats[0].spans;
                assert!(spans.iter().any(|sp| sp.name == want), "p={p}: no {want} span");
            }
        }
    }
}

#[test]
fn failed_rank_is_an_extreme_straggler() {
    let mut plan = FaultPlan::with_seed(0);
    plan.failed = vec![1];
    plan.failed_skew = 50.0;
    let out = Cluster::with_config(2, config_with(plan)).run(|proc| {
        proc.charge(OpKind::RecordScan, 10_000);
        proc.clock()
    });
    assert!(
        out.results[1] > 40.0 * out.results[0],
        "failed rank must crawl: {:?}",
        out.results
    );
}
