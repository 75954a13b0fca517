//! Tracing must be free: a traced harness run reproduces the untraced
//! run's virtual times bit for bit.

use pdc_bench::harness::{Experiment, Scale};

#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let n = 20_000;
    let p = 4;
    let plain = Experiment::new(n, p, Scale::Quick).run();
    let traced = Experiment::new(n, p, Scale::Quick).traced().run();
    assert_eq!(plain.tree, traced.tree);
    for (a, b) in plain.run.stats.iter().zip(&traced.run.stats) {
        assert!(a.spans.is_empty() && a.trace.is_empty());
        assert!(!b.spans.is_empty() && !b.trace.is_empty());
        assert_eq!(
            a.finish_time.to_bits(),
            b.finish_time.to_bits(),
            "rank {}: tracing perturbed the virtual clock",
            a.rank
        );
    }
}
