//! The profiled harness run (spans + event DAG + gauges, engine on) must
//! reproduce the plain engine run's virtual times bit for bit, its exports
//! must be byte-deterministic across identical runs, and the per-rank time
//! identity must survive faults and the asynchronous engine composed.

use pdc_bench::harness::{Experiment, Scale};
use pdc_cgm::{chrome_trace_json, gauges_csv, metrics_csv, metrics_jsonl, FaultPlan};
use pdc_pario::EngineConfig;

fn engine() -> EngineConfig {
    EngineConfig::new(512 * 1024, true)
}

#[test]
fn profiled_run_is_bit_identical_to_plain() {
    let n = 20_000;
    let p = 4;
    let plain = Experiment::new(n, p, Scale::Quick).engine(&engine()).run();
    let profiled = Experiment::new(n, p, Scale::Quick).engine(&engine()).profiled().run();
    assert_eq!(plain.tree, profiled.tree);
    for (a, b) in plain.run.stats.iter().zip(&profiled.run.stats) {
        assert!(a.gauges.is_empty() && a.spans.is_empty());
        assert!(!b.gauges.is_empty() && !b.spans.is_empty());
        assert_eq!(
            a.finish_time.to_bits(),
            b.finish_time.to_bits(),
            "rank {}: profiling perturbed the virtual clock",
            a.rank
        );
        assert_eq!(a.counters, b.counters, "rank {}: counters diverged", a.rank);
    }
}

#[test]
fn profiled_exports_are_byte_identical_across_runs() {
    let n = 20_000;
    let p = 4;
    let experiment = Experiment::new(n, p, Scale::Quick).engine(&engine()).profiled();
    let a = experiment.run();
    let b = experiment.run();
    assert_eq!(
        chrome_trace_json(&a.run.stats),
        chrome_trace_json(&b.run.stats),
        "chrome trace diverged between identical runs"
    );
    assert_eq!(
        metrics_jsonl(&a.run.stats),
        metrics_jsonl(&b.run.stats),
        "metrics JSONL diverged between identical runs"
    );
    assert_eq!(
        metrics_csv(&a.run.stats),
        metrics_csv(&b.run.stats),
        "metrics CSV diverged between identical runs"
    );
    assert_eq!(
        gauges_csv(&a.run.stats),
        gauges_csv(&b.run.stats),
        "gauges CSV diverged between identical runs"
    );
}

#[test]
fn faults_and_engine_compose_with_the_accounting_identity() {
    // Every virtual second still lands in exactly one bucket when fault
    // injection and the asynchronous engine are both on.
    let n = 20_000;
    let p = 4;
    let mut faults = FaultPlan::with_seed(42);
    faults.link.drop_prob = 0.02;
    faults.link.delay_prob = 0.02;
    faults.disk.read_error_prob = 0.02;
    faults.skew = vec![1.0, 1.0, 1.0, 1.4];
    assert!(!faults.is_inert());
    let out = Experiment::new(n, p, Scale::Quick)
        .machine(|m| m.faults = faults)
        .config(|c| c.switch_threshold_intervals = 40)
        .engine(&engine())
        .run();
    let mut fault_seconds = 0.0;
    for s in &out.run.stats {
        let c = &s.counters;
        let sum = c.compute_time
            + c.comm_time
            + c.io_time
            + c.fault_time
            + c.io_stall_time
            + s.idle_time();
        assert!(
            (sum - s.finish_time).abs() < 1e-9,
            "rank {}: accounting identity broke with faults + engine",
            s.rank
        );
        fault_seconds += c.fault_time;
    }
    assert!(fault_seconds > 0.0, "the fault plan never fired");
}
