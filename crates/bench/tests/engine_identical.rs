//! The asynchronous disk engine must not change what is trained, and its
//! stall time must keep the accounting identity closed. (`Experiment::new`
//! *is* the disabled-engine run; that a disabled engine equals no engine is
//! pinned where the two differ, in `pario/tests/engine.rs`.)

mod identity;

use identity::{check, Preset, ENGINE};

#[test]
fn enabled_engine_keeps_the_tree_and_the_accounting_identity() {
    check(ENGINE, Preset::Bare);
}
