//! The determinism contract of the ensemble trainer:
//!
//! * every member tree's bytes are invariant to the subgroup width and the
//!   scheduling order (widths {1, 2, 4} × B ∈ {1, 4, 8});
//! * B = 1 with bootstrap off on the world group is byte-identical to
//!   plain `pclouds::train`;
//! * two subgroups training concurrently land on pinned virtual times,
//!   however the host interleaves them.

use pdc_cgm::wire::Wire;
use pdc_cgm::{Cluster, MachineConfig};
use pdc_datagen::{generate, GeneratorConfig};
use pdc_ensemble::EnsembleConfig;
use pdc_pclouds::train_in_memory;

fn quick_config(n: u64) -> EnsembleConfig {
    let mut cfg = EnsembleConfig::paper_scaled(n);
    cfg.base.clouds.q_root = 100;
    cfg.base.clouds.sample_size = 300;
    cfg
}

#[test]
fn member_trees_invariant_to_width_and_scheduling() {
    let records = generate(1_500, GeneratorConfig::default());
    let p = 8;
    for trees in [1usize, 4, 8] {
        let mut reference: Option<Vec<Vec<u8>>> = None;
        for width in [1usize, 2, 4] {
            let mut cfg = quick_config(records.len() as u64);
            cfg.trees = trees;
            cfg.subgroup_width = width;
            let out = pdc_ensemble::train_ensemble(&records, p, &cfg);
            assert_eq!(out.model.size(), trees);
            let bytes: Vec<Vec<u8>> =
                out.model.trees.iter().map(|t| t.to_bytes()).collect();
            match &reference {
                None => reference = Some(bytes),
                Some(want) => assert_eq!(
                    want, &bytes,
                    "B={trees}: tree bytes changed at subgroup width {width}"
                ),
            }
        }
        // The scheduler-chosen placement (different subgroup count, widths
        // and queue order) must still produce the same trees.
        let mut cfg = quick_config(records.len() as u64);
        cfg.trees = trees;
        cfg.subgroup_width = 0;
        let out = pdc_ensemble::train_ensemble(&records, p, &cfg);
        let bytes: Vec<Vec<u8>> = out.model.trees.iter().map(|t| t.to_bytes()).collect();
        assert_eq!(reference.unwrap(), bytes, "B={trees}: scheduler placement");
    }
}

#[test]
fn single_tree_on_world_group_matches_plain_train() {
    let records = generate(2_000, GeneratorConfig::default());
    let p = 4;
    let mut cfg = quick_config(records.len() as u64);
    cfg.trees = 1;
    cfg.bootstrap = false;
    let ens = pdc_ensemble::train_ensemble(&records, p, &cfg);
    assert_eq!(ens.schedule.subgroups.len(), 1);
    assert_eq!(ens.schedule.subgroups[0].size(), p);

    let plain = train_in_memory(&records, p, &cfg.base);
    assert_eq!(
        ens.model.trees[0].to_bytes(),
        plain.tree.to_bytes(),
        "B=1 ensemble tree differs from plain pclouds::train"
    );
    // The scoped world group adds no charges: even the virtual makespan
    // is bit-identical.
    assert_eq!(ens.runtime().to_bits(), plain.runtime().to_bits());
}

#[test]
fn concurrent_subgroups_land_on_pinned_virtual_times() {
    // Two width-2 subgroups train two trees each, side by side on p = 4:
    // the case in which the host's interleaving of the groups could leak.
    // Makespan bits and per-rank peak resident bytes as both executors of
    // commit 5343ca5 produced them.
    let records = generate(1_500, GeneratorConfig::default());
    let mut cfg = quick_config(records.len() as u64);
    cfg.trees = 4;
    cfg.subgroup_width = 2;
    let machine = MachineConfig { gauges: true, ..MachineConfig::default() };
    let out = pdc_ensemble::train_ensemble_on(&Cluster::with_config(4, machine), &records, &cfg);
    assert_eq!(out.schedule.subgroups.len(), 2);
    assert_eq!(out.runtime().to_bits(), 0x3fc1_d097_855b_a5fe, "{:#x}", out.runtime().to_bits());
    assert_eq!(out.peak_resident_bytes(), [47_528.0, 46_384.0, 47_164.0, 45_864.0]);
}

#[test]
fn bootstrap_trees_differ_from_each_other() {
    let records = generate(1_500, GeneratorConfig::default());
    let mut cfg = quick_config(records.len() as u64);
    cfg.trees = 4;
    let out = pdc_ensemble::train_ensemble(&records, 4, &cfg);
    let distinct: std::collections::HashSet<Vec<u8>> = out
        .model
        .trees
        .iter()
        .map(|t| t.to_bytes())
        .collect();
    assert!(
        distinct.len() > 1,
        "bootstrap resampling should diversify the members"
    );
}
