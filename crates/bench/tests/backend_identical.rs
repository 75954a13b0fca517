//! The event-driven executor must be a perfect stand-in for the
//! thread-per-rank backend: for every harness configuration — plain,
//! fault-injected, engine-on, full telemetry, ensemble subgroups,
//! event-DAG recording — the same experiment on [`pdc_cgm::Backend::Event`]
//! must reproduce the [`pdc_cgm::Backend::Thread`] run bit for bit:
//! finish-time bits, counters, spans, gauges, the recorded event graph and
//! the trace bytes exported from it. This is the contract that lets
//! figures, perf-gate baselines and large-`p` sweeps switch backends freely
//! (the thread backend stays the baseline of record).

use pdc_bench::harness::{machine_config, Experiment, Scale};
use pdc_cgm::replay::identity_check;
use pdc_cgm::{chrome_trace_json, Backend, Cluster, EventGraph, FaultPlan, MachineConfig};
use pdc_ensemble::{train_ensemble_on, EnsembleConfig};
use pdc_pario::{EngineConfig, ReplacementPolicy};
use pdc_pclouds::TrainOutput;

const N: u64 = 20_000;
const P: usize = 4;

/// Select `backend` on `machine`, with the admission width pinned so the
/// test does not depend on the host's core count (any width must give the
/// same bits; 2 exercises real multiplexing at p=4).
fn pin_backend(machine: &mut MachineConfig, backend: Backend) {
    machine.backend = backend;
    machine.event_workers = 2;
}

fn on_backend(backend: Backend) -> Experiment {
    Experiment::new(N, P, Scale::Quick).machine(|m| pin_backend(m, backend))
}

fn assert_outputs_identical(thread: &TrainOutput, event: &TrainOutput, what: &str) {
    assert_eq!(thread.tree, event.tree, "{what}: trees diverged across backends");
    assert_eq!(thread.metrics, event.metrics, "{what}: build metrics diverged");
    for (a, b) in thread.run.stats.iter().zip(&event.run.stats) {
        assert_eq!(
            a.finish_time.to_bits(),
            b.finish_time.to_bits(),
            "{what}: rank {}: finish bits diverged across backends",
            a.rank
        );
        assert_eq!(a.counters, b.counters, "{what}: rank {}: counters", a.rank);
        assert_eq!(a.spans, b.spans, "{what}: rank {}: spans", a.rank);
        assert_eq!(a.gauges, b.gauges, "{what}: rank {}: gauges", a.rank);
        assert_eq!(a.events, b.events, "{what}: rank {}: recorded event DAG", a.rank);
    }
}

#[test]
fn backend_identical_plain() {
    let thread = on_backend(Backend::Thread).run();
    let event = on_backend(Backend::Event).run();
    assert_outputs_identical(&thread, &event, "plain");
}

#[test]
fn backend_identical_under_faults() {
    let mut plan = FaultPlan::with_seed(42);
    plan.link.drop_prob = 0.01;
    plan.link.delay_prob = 0.02;
    plan.disk.read_error_prob = 0.01;
    let run = |backend| on_backend(backend).machine(|m| m.faults = plan.clone()).run();
    assert_outputs_identical(&run(Backend::Thread), &run(Backend::Event), "faults");
}

#[test]
fn backend_identical_with_engine() {
    let engine = EngineConfig::new(512 * 1024, ReplacementPolicy::Lru, true);
    let run = |backend| on_backend(backend).engine(&engine).run();
    assert_outputs_identical(&run(Backend::Thread), &run(Backend::Event), "engine");
}

#[test]
fn backend_identical_with_full_telemetry() {
    let run = |backend| on_backend(backend).profiled().run();
    let thread = run(Backend::Thread);
    let event = run(Backend::Event);
    assert_outputs_identical(&thread, &event, "telemetry");
    // The exported artifacts — what a human or CI actually diffs — must be
    // byte-equal, not merely equivalent.
    assert_eq!(
        chrome_trace_json(&thread.run.stats),
        chrome_trace_json(&event.run.stats),
        "telemetry: exported chrome traces differ across backends"
    );
}

#[test]
fn backend_identical_recorded_and_replayable() {
    let run = |backend| on_backend(backend).traced().run();
    let thread = run(Backend::Thread);
    let event = run(Backend::Event);
    assert_outputs_identical(&thread, &event, "recorded");
    let tg = EventGraph::from_stats(&thread.run.stats);
    let eg = EventGraph::from_stats(&event.run.stats);
    assert_eq!(tg, eg, "recorded event graphs diverged across backends");
    // The event-backend recording must satisfy the replay identity on its
    // own terms, too — what-if replay is backend-agnostic.
    identity_check(&eg);
}

#[test]
fn backend_identical_ensemble_subgroups() {
    // Ensemble training exercises train_in_group's scoped communicators:
    // disjoint subgroups training concurrently, the scheduling that made
    // rank multiplexing subtle in the first place.
    use pdc_datagen::{generate, GeneratorConfig};
    let n = 6_000usize;
    let records = generate(n, GeneratorConfig::default());
    let run = |backend| {
        let mut cfg = EnsembleConfig::paper_scaled(n as u64);
        cfg.base = pdc_bench::harness::experiment_config(n as u64, Scale::Quick);
        cfg.trees = 4;
        cfg.subgroup_width = 2;
        let mut machine = machine_config(Scale::Quick);
        pin_backend(&mut machine, backend);
        machine.gauges = true;
        train_ensemble_on(&Cluster::with_config(P, machine), &records, &cfg)
    };
    let thread = run(Backend::Thread);
    let event = run(Backend::Event);
    assert_eq!(
        thread.model.trees, event.model.trees,
        "ensemble trees diverged across backends"
    );
    assert_eq!(
        thread.runtime().to_bits(),
        event.runtime().to_bits(),
        "ensemble makespan bits diverged across backends"
    );
    let t_peak = thread.peak_resident_bytes();
    let e_peak = event.peak_resident_bytes();
    assert_eq!(t_peak, e_peak, "ensemble peak-residency gauges diverged");
}
