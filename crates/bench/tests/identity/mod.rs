//! The identity matrix of the harness: every run configuration — plain,
//! fault injection, the asynchronous engine, both — under every observation
//! preset — bare, traced, profiled. Observation is pure, the engine and the
//! fault plan change only *when* time is paid, and identity-override replay
//! reproduces every recorded run bit for bit; [`check`] is that contract
//! for one cell. Each cell is trained at most once per test binary, and each
//! binary checks the part of the matrix its contracts name, so not every
//! item here is used in every binary.
#![allow(dead_code)]

use std::sync::OnceLock;

use pdc_bench::harness::{Experiment, Scale};
use pdc_cgm::replay::identity_check;
use pdc_cgm::{EventGraph, FaultPlan};
use pdc_pario::EngineConfig;
use pdc_pclouds::TrainOutput;

const N: u64 = 20_000;
const P: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Preset {
    Bare,
    Traced,
    Profiled,
}

pub const PRESETS: [Preset; 3] = [Preset::Bare, Preset::Traced, Preset::Profiled];

/// A run configuration: fault injection on or off, the engine on or off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    pub faults: bool,
    pub engine: bool,
}

pub const PLAIN: Config = Config { faults: false, engine: false };
pub const FAULTS: Config = Config { faults: true, engine: false };
pub const ENGINE: Config = Config { faults: false, engine: true };
pub const FAULTS_ENGINE: Config = Config { faults: true, engine: true };
pub const CONFIGS: [Config; 4] = [PLAIN, FAULTS, ENGINE, FAULTS_ENGINE];

/// The experiment of one cell. The fault plan drops and delays messages,
/// fails disk reads and slows the last rank; a switch threshold of 40
/// intervals (in every cell, so that every cell trains the same tree)
/// leaves more of the tree to the small-task schedule those speeds weight.
pub fn experiment(config: Config, preset: Preset) -> Experiment {
    let mut experiment =
        Experiment::new(N, P, Scale::Quick).config(|c| c.switch_threshold_intervals = 40);
    if config.faults {
        let mut plan = FaultPlan::with_seed(42);
        plan.link.drop_prob = 0.02;
        plan.link.delay_prob = 0.02;
        plan.disk.read_error_prob = 0.02;
        plan.skew = vec![1.0, 1.0, 1.0, 1.4];
        experiment = experiment.machine(|m| m.faults = plan);
    }
    if config.engine {
        experiment = experiment.engine(&EngineConfig::new(512 * 1024));
    }
    match preset {
        Preset::Bare => experiment,
        Preset::Traced => experiment.traced(),
        Preset::Profiled => experiment.profiled(),
    }
}

/// The run of one cell, trained on first use.
pub fn run(config: Config, preset: Preset) -> &'static TrainOutput {
    static CELLS: [OnceLock<TrainOutput>; 12] = [const { OnceLock::new() }; 12];
    let cell = 6 * config.faults as usize + 3 * config.engine as usize + preset as usize;
    CELLS[cell].get_or_init(|| experiment(config, preset).run())
}

/// One cell's contract: the tree is plain/bare's; every rank's finish bits
/// and counters are its configuration's bare run's; spans are recorded
/// unless bare and gauges only when profiled; every virtual second lands in
/// exactly one bucket; the fault plan fires iff the configuration has one;
/// and a recorded run replays bit for bit under identity overrides.
pub fn check(config: Config, preset: Preset) {
    let name = format!("{config:?} {preset:?}");
    let out = run(config, preset);
    let bare = run(config, Preset::Bare);
    assert!(out.tree == run(PLAIN, Preset::Bare).tree, "{name}: tree changed");
    let mut fault_seconds = 0.0;
    for (a, b) in bare.run.stats.iter().zip(&out.run.stats) {
        assert_eq!(
            a.finish_time.to_bits(),
            b.finish_time.to_bits(),
            "{name}: rank {} finish bits moved",
            b.rank
        );
        assert_eq!(a.counters, b.counters, "{name}: rank {} counters moved", b.rank);
        assert_eq!(b.spans.is_empty(), preset == Preset::Bare, "{name}: spans");
        assert_eq!(b.gauges.is_empty(), preset != Preset::Profiled, "{name}: gauges");
        let c = &b.counters;
        let sum =
            c.compute_time + c.comm_time + c.io_time + c.fault_time + c.io_stall_time + b.idle_time();
        assert!(
            (sum - b.finish_time).abs() < 1e-9,
            "{name}: rank {} accounting identity broke",
            b.rank
        );
        fault_seconds += c.fault_time;
    }
    assert_eq!(fault_seconds > 0.0, config.faults, "{name}: fault plan fired");
    if preset != Preset::Bare {
        identity_check(&EventGraph::from_stats(&out.run.stats));
    }
}
