//! The identity matrix of the harness: every run configuration — plain,
//! fault injection, the asynchronous engine, both — under every observation
//! preset — bare, traced, profiled. Observation is pure (training and
//! serving), the engine and the fault plan change only *when* time is paid,
//! exports are byte-deterministic, and identity-override replay — the
//! keystone of the what-if subsystem — reproduces every recorded run bit for
//! bit. [`check`] is that contract for one cell; each cell is trained at most
//! once in this binary. (That a disabled engine equals no engine is pinned in
//! `pario/tests/engine.rs`; `Experiment::new` *is* the disabled-engine run.)
//! The derived views of two further runs are pinned to fixtures in
//! [`golden_views`].

mod golden_views;

use std::sync::OnceLock;

use pdc_bench::harness::{machine_config, Experiment, Scale};
use pdc_cgm::replay::{identity_check, replay, CostOverride};
use pdc_cgm::{chrome_trace_json, gauges_csv, metrics_csv, metrics_jsonl, ProcStats};
use pdc_cgm::{Cluster, EventGraph, FaultPlan};
use pdc_clouds::{DecisionTree, Splitter};
use pdc_datagen::GeneratorConfig;
use pdc_ensemble::{train_ensemble_on, EnsembleConfig};
use pdc_pario::{BackendKind, DiskFarm, EngineConfig};
use pdc_pclouds::TrainOutput;
use pdc_serve::{serve, stage_requests, Layout, ServeConfig, SloSpec, TelemetryConfig};

const N: u64 = 20_000;
const P: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Preset {
    Bare,
    Traced,
    Profiled,
}

const PRESETS: [Preset; 3] = [Preset::Bare, Preset::Traced, Preset::Profiled];

/// A run configuration: fault injection on or off, the engine on or off.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Config {
    faults: bool,
    engine: bool,
}

const PLAIN: Config = Config { faults: false, engine: false };
const FAULTS: Config = Config { faults: true, engine: false };
const ENGINE: Config = Config { faults: false, engine: true };
const FAULTS_ENGINE: Config = Config { faults: true, engine: true };
const CONFIGS: [Config; 4] = [PLAIN, FAULTS, ENGINE, FAULTS_ENGINE];

/// The experiment of one cell. The fault plan drops and delays messages,
/// fails disk reads and slows the last rank; a switch threshold of 40
/// intervals (in every cell, so that every cell trains the same tree)
/// leaves more of the tree to the small-task schedule those speeds weight.
fn experiment(config: Config, preset: Preset) -> Experiment {
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
fn run(config: Config, preset: Preset) -> &'static TrainOutput {
    static CELLS: [OnceLock<TrainOutput>; 12] = [const { OnceLock::new() }; 12];
    let cell = 6 * config.faults as usize + 3 * config.engine as usize + preset as usize;
    CELLS[cell].get_or_init(|| experiment(config, preset).run())
}

/// One cell's contract: the tree is plain/bare's; every rank's finish bits
/// and counters are its configuration's bare run's; spans are recorded
/// unless bare and gauges only when profiled; every virtual second lands in
/// exactly one bucket; the fault plan fires iff the configuration has one;
/// and a recorded run replays bit for bit under identity overrides.
fn check(config: Config, preset: Preset) {
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

// ---- Engine ----
#[test]
fn enabled_engine_keeps_the_tree_and_the_accounting_identity() {
    check(ENGINE, Preset::Bare);
}

// ---- Profiled ----
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

// ---- Replay ----
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

// ---- Telemetry ----
fn tree() -> DecisionTree {
    let mut t = DecisionTree::single_leaf(vec![5, 5]);
    let (l, _) = t.split_leaf(
        0,
        Splitter::Numeric {
            attr: 0,
            threshold: 80_000.0,
        },
        vec![5, 0],
        vec![0, 5],
    );
    t.split_leaf(
        l,
        Splitter::Categorical {
            attr: 0,
            left_values: 0b0_0011,
        },
        vec![2, 1],
        vec![1, 2],
    );
    t
}

#[test]
fn serving_run_is_bit_identical_with_full_telemetry_on() {
    let p = 3;
    let tree = tree();
    let engine = EngineConfig {
        page_bytes: 16 * 1024,
        budget_bytes: 8 * 16 * 1024,
    };
    let stage = || {
        let farm = DiskFarm::with_engine(p, BackendKind::InMemory, &engine);
        stage_requests(&farm, 3_000, GeneratorConfig::default());
        farm
    };

    // Baseline: everything off.
    let plain = Cluster::new(p);
    let off = serve(&plain, &stage(), &tree, &ServeConfig::new(Layout::Flat, 200));

    // Everything on: spans + event DAG + gauges at the machine level,
    // histogram + exact validation + tumbling windows + SLO at the
    // harness level.
    let mut machine = pdc_cgm::MachineConfig::default();
    machine.spans = true;
    machine.record = true;
    machine.gauges = true;
    let observed = Cluster::with_config(p, machine);
    let telemetry = TelemetryConfig::new((off.makespan / 10.0).max(1e-6))
        .with_slo(SloSpec::p99(off.latency.p99 * 2.0));
    let cfg = ServeConfig::new(Layout::Flat, 200)
        .with_telemetry(telemetry)
        .with_exact_latencies();
    let on = serve(&observed, &stage(), &tree, &cfg);

    assert_eq!(on.predictions, off.predictions, "answers must not change");
    assert_eq!(on.makespan.to_bits(), off.makespan.to_bits());
    for (a, b) in off.stats.iter().zip(&on.stats) {
        assert_eq!(
            a.finish_time.to_bits(),
            b.finish_time.to_bits(),
            "rank {}: telemetry must not move the virtual clock",
            a.rank
        );
        assert_eq!(
            a.counters, b.counters,
            "rank {}: telemetry must not touch any counter",
            a.rank
        );
    }
    // And the telemetry actually observed the run.
    let t = on.telemetry.expect("telemetry was configured");
    assert!(!t.windows.is_empty());
    assert_eq!(
        t.windows.iter().map(|w| w.records).sum::<u64>(),
        on.records
    );
    assert!(t.slo.expect("slo was configured").compliance > 0.0);
    assert!(on.latency_exact.is_some());
    // The gauge tracks exist on the observed run only — observation
    // happened, it just cost nothing.
    assert!(on.stats.iter().any(|s| s
        .gauges
        .iter()
        .any(|g| g.name == "serve.window.rps")));
    assert!(off.stats.iter().all(|s| s.gauges.is_empty()));
}

#[test]
fn pclouds_run_is_bit_identical_with_full_observability_on() {
    // The `profiled` preset flips exactly spans + record + gauges.
    check(ENGINE, Preset::Profiled);
}
