//! Identity-override replay must reproduce every harness configuration's
//! virtual times bit for bit: each configuration of the identity matrix
//! under every preset, and ensemble training on machine subgroups. This is
//! the keystone contract of the what-if subsystem — if the identity replay
//! drifts, every hypothetical predicted from the event graph is
//! untrustworthy. The tests here check every cell of the matrix.

mod identity;

use identity::{check, run, Config, Preset, CONFIGS, ENGINE, FAULTS, FAULTS_ENGINE, PLAIN, PRESETS};
use pdc_bench::harness::{machine_config, Scale};
use pdc_cgm::replay::{identity_check, replay, CostOverride};
use pdc_cgm::{Cluster, EventGraph};
use pdc_ensemble::{train_ensemble_on, EnsembleConfig};

/// Every preset of one configuration.
fn check_row(config: Config) {
    for preset in PRESETS {
        check(config, preset);
    }
}

#[test]
fn recording_does_not_perturb_the_run() {
    for config in CONFIGS {
        check(config, Preset::Traced);
    }
}

#[test]
fn identity_replay_bit_exact_plain() {
    check_row(PLAIN);
}

#[test]
fn identity_replay_bit_exact_with_faults() {
    check_row(FAULTS);
}

#[test]
fn identity_replay_bit_exact_with_engine() {
    check_row(ENGINE);
}

#[test]
fn identity_replay_bit_exact_with_telemetry_and_everything() {
    check_row(FAULTS_ENGINE);
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
    let graph = EventGraph::from_stats(&run(PLAIN, Preset::Traced).run.stats);
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
