//! Regression contract: the whole observability stack — spans, the
//! recorded event DAG, gauges, latency histograms, windowed telemetry, SLO monitors —
//! is **pure observation**. Turning all of it on at once must leave every
//! rank's finish time bit-identical and every counter identical, at both
//! the serving layer and the training (pclouds) layer.

mod identity;

use identity::{check, Preset, ENGINE};
use pdc_cgm::Cluster;
use pdc_clouds::{DecisionTree, Splitter};
use pdc_datagen::GeneratorConfig;
use pdc_pario::{BackendKind, DiskFarm, EngineConfig};
use pdc_serve::{serve, stage_requests, Layout, ServeConfig, SloSpec, TelemetryConfig};

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
