//! Identity-override replay must reproduce every harness configuration's
//! virtual times bit for bit: plain runs, fault injection, the
//! asynchronous engine, the full telemetry stack, and ensemble training on
//! machine subgroups. This is the keystone contract of the what-if
//! subsystem — if the identity replay drifts, every hypothetical predicted
//! from the event graph is untrustworthy.

use pdc_bench::harness::{machine_config, Experiment, Scale};
use pdc_cgm::replay::{identity_check, replay, CostOverride};
use pdc_cgm::{Cluster, EventGraph, FaultPlan};
use pdc_ensemble::{train_ensemble_on, EnsembleConfig};
use pdc_pario::EngineConfig;

const N: u64 = 20_000;
const P: usize = 4;

fn faulty_plan() -> FaultPlan {
    let mut plan = FaultPlan::with_seed(42);
    plan.link.drop_prob = 0.01;
    plan.link.delay_prob = 0.02;
    plan.disk.read_error_prob = 0.01;
    plan
}

#[test]
fn recording_does_not_perturb_the_run() {
    let plain = Experiment::new(N, P, Scale::Quick).run();
    let recorded = Experiment::new(N, P, Scale::Quick).traced().run();
    assert_eq!(plain.tree, recorded.tree);
    for (a, b) in plain.run.stats.iter().zip(&recorded.run.stats) {
        assert_eq!(
            a.finish_time.to_bits(),
            b.finish_time.to_bits(),
            "rank {}: recording perturbed the virtual clock",
            a.rank
        );
        assert_eq!(a.counters, b.counters, "rank {}: counters diverged", a.rank);
    }
}

#[test]
fn identity_replay_bit_exact_plain() {
    let out = Experiment::new(N, P, Scale::Quick).traced().run();
    identity_check(&EventGraph::from_stats(&out.run.stats));
}

#[test]
fn identity_replay_bit_exact_with_faults() {
    let out = Experiment::new(N, P, Scale::Quick)
        .machine(|m| m.faults = faulty_plan())
        .traced()
        .run();
    identity_check(&EventGraph::from_stats(&out.run.stats));
}

#[test]
fn identity_replay_bit_exact_with_engine() {
    let engine = EngineConfig::new(512 * 1024, true);
    let out = Experiment::new(N, P, Scale::Quick).engine(&engine).traced().run();
    identity_check(&EventGraph::from_stats(&out.run.stats));
}

#[test]
fn identity_replay_bit_exact_with_telemetry_and_everything() {
    let engine = EngineConfig::new(512 * 1024, true);
    // Everything at once: faults, the engine, and the whole telemetry
    // stack (spans + gauges) on top of the recording.
    let out = Experiment::new(N, P, Scale::Quick)
        .machine(|m| m.faults = faulty_plan())
        .engine(&engine)
        .profiled()
        .run();
    identity_check(&EventGraph::from_stats(&out.run.stats));
}

#[test]
fn identity_replay_bit_exact_ensemble_subgroups() {
    let records = pdc_datagen::generate(4_000, pdc_datagen::GeneratorConfig::default());
    let mut cfg = EnsembleConfig::paper_scaled(4_000);
    cfg.base.clouds.q_root = 100;
    cfg.base.clouds.sample_size = 300;
    cfg.trees = 4;
    let mut machine = machine_config(Scale::Quick);
    machine.spans = true;
    machine.record = true;
    let out = train_ensemble_on(&Cluster::with_config(8, machine), &records, &cfg);
    identity_check(&EventGraph::from_stats(&out.run.stats));
}

#[test]
fn replay_overrides_behave_on_a_real_training_run() {
    let out = Experiment::new(N, P, Scale::Quick).traced().run();
    let graph = EventGraph::from_stats(&out.run.stats);
    let base = graph.makespan();

    // Infinite link bandwidth: the run can only get faster, and must save
    // at least every recorded transfer second on the slowest rank.
    let mut inf_bw = CostOverride::identity();
    inf_bw.comm_transfer = 0.0;
    let predicted = replay(&graph, &inf_bw);
    assert!(predicted.makespan() <= base);

    // A per-phase speedup of the attribute scan shortens the run: the scan
    // phase is a real part of every training level.
    let scan_fast = CostOverride::identity().with_span("pclouds.*", 0.5);
    assert!(replay(&graph, &scan_fast).makespan() < base);

    // The critical-path verdict renders for downstream reports.
    let line = predicted.critical.render(predicted.makespan());
    assert!(line.contains("verdict:"), "{line}");
}
