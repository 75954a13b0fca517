//! The asynchronous disk engine, disabled, must reproduce the plain
//! harness run's virtual times bit for bit — the regression contract that
//! lets the engine ship wired through every layer while staying inert by
//! default.

use pdc_bench::harness::{Experiment, Scale};
use pdc_pario::{EngineConfig, ReplacementPolicy};

#[test]
fn disabled_engine_run_is_bit_identical() {
    let n = 20_000;
    let p = 4;
    let plain = Experiment::new(n, p, Scale::Quick).run();
    let disabled = Experiment::new(n, p, Scale::Quick).engine(&EngineConfig::disabled()).run();
    assert_eq!(plain.tree, disabled.tree);
    for (a, b) in plain.run.stats.iter().zip(&disabled.run.stats) {
        assert_eq!(
            a.finish_time.to_bits(),
            b.finish_time.to_bits(),
            "rank {}: the disabled engine perturbed the virtual clock",
            a.rank
        );
        assert_eq!(a.counters, b.counters, "rank {}: counters diverged", a.rank);
    }
}

#[test]
fn enabled_engine_keeps_the_tree_and_the_accounting_identity() {
    let n = 20_000;
    let p = 4;
    let plain = Experiment::new(n, p, Scale::Quick).run();
    let engine = EngineConfig::new(512 * 1024, ReplacementPolicy::Lru, true);
    let engined = Experiment::new(n, p, Scale::Quick).engine(&engine).run();
    assert_eq!(plain.tree, engined.tree, "the engine must not change results");
    for s in &engined.run.stats {
        let c = &s.counters;
        let sum = c.compute_time
            + c.comm_time
            + c.io_time
            + c.fault_time
            + c.io_stall_time
            + s.idle_time();
        assert!(
            (sum - s.finish_time).abs() < 1e-9,
            "rank {}: accounting identity broke with the engine on",
            s.rank
        );
    }
}
