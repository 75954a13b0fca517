//! The asynchronous disk engine must not change what is trained, and its
//! stall time must keep the accounting identity closed. (`Experiment::new`
//! *is* the disabled-engine run; that a disabled engine equals no engine is
//! pinned where the two differ, in `pario/tests/engine.rs`.)

use pdc_bench::harness::{Experiment, Scale};
use pdc_pario::EngineConfig;

#[test]
fn enabled_engine_keeps_the_tree_and_the_accounting_identity() {
    let n = 20_000;
    let p = 4;
    let plain = Experiment::new(n, p, Scale::Quick).run();
    let engine = EngineConfig::new(512 * 1024, true);
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
