//! The profiled harness run (spans + event DAG + gauges, engine on) must
//! reproduce the plain engine run's virtual times bit for bit, its exports
//! (faults and engine on) must be byte-deterministic across identical runs,
//! and the per-rank time identity must survive faults and the asynchronous
//! engine composed. These are cells of the identity matrix in `identity/`.

mod identity;

use identity::{check, experiment, run, Preset, ENGINE, FAULTS_ENGINE};
use pdc_cgm::{chrome_trace_json, gauges_csv, metrics_csv, metrics_jsonl, ProcStats};

#[test]
fn profiled_run_is_bit_identical_to_plain() {
    check(ENGINE, Preset::Profiled);
}

#[test]
fn profiled_exports_are_byte_identical_across_runs() {
    let a = run(FAULTS_ENGINE, Preset::Profiled);
    let b = experiment(FAULTS_ENGINE, Preset::Profiled).run();
    for (what, export) in [
        ("chrome trace", chrome_trace_json as fn(&[ProcStats]) -> String),
        ("metrics JSONL", metrics_jsonl),
        ("metrics CSV", metrics_csv),
        ("gauges CSV", gauges_csv),
    ] {
        assert_eq!(
            export(&a.run.stats),
            export(&b.run.stats),
            "{what} diverged between identical runs"
        );
    }
}

#[test]
fn faults_and_engine_compose_with_the_accounting_identity() {
    check(FAULTS_ENGINE, Preset::Bare);
}
