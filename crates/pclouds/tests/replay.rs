//! Record/replay at the pCLOUDS layer: a recorded training run must
//! identity-replay bit-exactly, and phase-level overrides must act on the
//! recorded `pclouds.*` spans.

use pdc_cgm::replay::{identity_check, replay, CostOverride};
use pdc_cgm::{Cluster, EventGraph, MachineConfig};
use pdc_clouds::CloudsParams;
use pdc_datagen::{generate, GeneratorConfig};
use pdc_dnc::Strategy;
use pdc_pario::DiskFarm;
use pdc_pclouds::{load_dataset, train, PcloudsConfig, TrainOutput};

fn test_config() -> PcloudsConfig {
    PcloudsConfig {
        clouds: CloudsParams {
            q_root: 200,
            q_min: 10,
            sample_size: 2_000,
            ..CloudsParams::default()
        },
        memory_limit_bytes: 32 * 1024, // force genuinely chunked streaming
        switch_threshold_intervals: 10,
    }
}

fn recorded_train(records: &[pdc_datagen::Record], p: usize) -> TrainOutput {
    let cfg = test_config();
    let farm = DiskFarm::in_memory(p);
    let root = load_dataset(&farm, records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
    let machine = MachineConfig {
        spans: true,
        record: true,
        ..MachineConfig::default()
    };
    let cluster = Cluster::with_config(p, machine);
    train(&cluster, &farm, &root, &cfg, Strategy::Mixed)
}

#[test]
fn recorded_training_identity_replays_bit_exactly() {
    let records = generate(6_000, GeneratorConfig::default());
    for p in [1, 2, 4] {
        let out = recorded_train(&records, p);
        let graph = EventGraph::from_stats(&out.run.stats);
        let replayed = identity_check(&graph);
        assert_eq!(
            replayed.makespan().to_bits(),
            out.runtime().to_bits(),
            "p={p}: replayed makespan differs from the live run"
        );
    }
}

#[test]
fn phase_overrides_act_on_training_spans() {
    let records = generate(6_000, GeneratorConfig::default());
    let out = recorded_train(&records, 4);
    let graph = EventGraph::from_stats(&out.run.stats);
    let base = graph.makespan();

    // The attribute scan is a real phase of every level; halving its cost
    // must shorten the run, and speedups compose multiplicatively with the
    // coarser pclouds.* pattern.
    let scan = CostOverride::identity().with_span("pclouds.attr_scan", 0.5);
    let scan_time = replay(&graph, &scan).makespan();
    assert!(scan_time < base, "attr_scan speedup did not help: {scan_time} >= {base}");

    let all = CostOverride::identity().with_span("pclouds.*", 0.5);
    let all_time = replay(&graph, &all).makespan();
    assert!(all_time <= scan_time, "pclouds.* subsumes pclouds.attr_scan");

    // Scaling collective framing only (cgm.* spans) is also visible.
    let comm = CostOverride::identity().with_span("cgm.*", 0.5);
    assert!(replay(&graph, &comm).makespan() <= base);
}
