//! **Ablation — fault injection and recovery (robustness extension).**
//!
//! The paper's implementation "does not regroup the processors as they
//! become idle" and assumes a fault-free machine. Here the small-node phase
//! always schedules around what the machine's fault plan says (speed-
//! weighted LPT, retried solves; see `pdc_dnc::strategy`), and this harness
//! studies what faults still cost: it trains the same pCLOUDS workload
//! while sweeping
//!
//! * the **fault rate** — per-transmission link drop/delay probability and
//!   per-request transient disk-read error probability (all retried and
//!   charged through the virtual clock), and
//! * the **straggler skew** — a clock-rate multiplier on one processor.
//!
//! Expected shape:
//!
//! * runtime degrades **gracefully and monotonically** with the fault rate
//!   (every drop, delay and re-read adds bounded charged time) and with the
//!   skew (the data-parallel phase waits for the straggler whatever the
//!   small-node schedule does);
//! * a zero-fault plan, and a skew of 1.0, reproduce the healthy machine's
//!   virtual times bit for bit (weighted LPT with equal speeds *is* LPT);
//! * everything is driven by the machine's deterministic seeds: the same
//!   configuration reproduces the same virtual times bit for bit (checked
//!   below).

use pdc_bench::harness::{ascii_chart, num, write_results, Experiment, Scale, TableWriter};
use pdc_cgm::FaultPlan;

/// Switch to task parallelism at 40 intervals instead of the paper's 10:
/// the small-node phase — the phase that schedules around a straggler —
/// then carries a meaningful share of the runtime, with enough tasks for
/// weighted LPT to act on (at 10 the data-parallel phase dominates and the
/// straggler's drag there is unavoidable; far above 40 a single large task
/// dominates the tail and no assignment can help).
const SWITCH_THRESHOLD: usize = 40;

fn plan(fault_rate: f64, skew: f64, p: usize) -> FaultPlan {
    let mut plan = FaultPlan::with_seed(42);
    plan.link.drop_prob = fault_rate;
    plan.link.delay_prob = fault_rate;
    plan.disk.read_error_prob = fault_rate;
    if skew != 1.0 {
        let mut skews = vec![1.0; p];
        skews[p - 1] = skew;
        plan.skew = skews;
    }
    plan
}

fn main() {
    let scale = Scale::from_env();
    let n = scale.records(1_200_000);
    let p = 8;
    eprintln!("ablation_faults: n={n} p={p}");
    // One training run under `faults`.
    let run = |faults: FaultPlan| {
        Experiment::new(n, p, scale)
            .machine(|m| m.faults = faults)
            .config(|c| c.switch_threshold_intervals = SWITCH_THRESHOLD)
            .run()
    };

    let mut table = TableWriter::new(&[
        "fault_rate",
        "skew",
        "runtime_s",
        "slowdown",
        "link_retries",
        "link_delays",
        "disk_retries",
    ]);

    // Determinism: the same seeded configuration must reproduce the same
    // virtual times exactly.
    let probe = plan(0.01, 2.0, p);
    let once = run(probe.clone());
    let twice = run(probe);
    assert_eq!(
        once.run.stats.iter().map(|s| s.finish_time).collect::<Vec<_>>(),
        twice.run.stats.iter().map(|s| s.finish_time).collect::<Vec<_>>(),
        "fault injection must be deterministic"
    );
    eprintln!("  determinism: identical virtual times across reruns");

    // Graceful degradation: runtime vs fault rate at no skew.
    let healthy = run(FaultPlan::default());
    let base = healthy.runtime();
    let row = |rate: f64, skew: f64, runtime: f64, totals: &pdc_cgm::Counters| {
        vec![
            num(rate),
            num(skew),
            num(runtime),
            num(runtime / base),
            totals.link_retries.to_string(),
            totals.link_delays.to_string(),
            totals.disk_retries.to_string(),
        ]
    };
    let mut degradation = Vec::new();
    for rate in [0.0, 0.001, 0.005, 0.02] {
        let out = run(plan(rate, 1.0, p));
        let totals = out.run.total_counters();
        table.row(row(rate, 1.0, out.runtime(), &totals));
        degradation.push((rate, out.runtime()));
        eprintln!("  rate={rate}: {:.3}s ({:.3}x)", out.runtime(), out.runtime() / base);
    }
    assert!(
        degradation.windows(2).all(|w| w[0].1 <= w[1].1),
        "degradation must be monotone in the fault rate: {degradation:?}"
    );
    assert_eq!(
        degradation[0].1, base,
        "a zero-fault plan must reproduce the fault-free virtual times"
    );

    // One rank straggles: the small-node phase relieves it, the
    // data-parallel phase cannot.
    let mut skew_pts = Vec::new();
    for skew in [1.0, 2.0, 4.0, 8.0] {
        let out = run(plan(0.0, skew, p));
        table.row(row(0.0, skew, out.runtime(), &out.run.total_counters()));
        eprintln!("  skew={skew}: {:.3}s", out.runtime());
        skew_pts.push((skew, out.runtime()));
    }
    assert_eq!(
        skew_pts[0].1, base,
        "equal speeds must reproduce the healthy machine's schedule"
    );
    assert!(
        skew_pts.windows(2).all(|w| w[0].1 < w[1].1),
        "a slower straggler must cost time: {skew_pts:?}"
    );

    table.print();
    println!();
    println!("runtime (s) vs straggler skew:");
    println!(
        "{}",
        ascii_chart(&[("weighted-LPT dispatch".to_string(), skew_pts)], 56, 14)
    );
    let csv_path = write_results("ablation_faults", "csv", scale, table.csv());
    eprintln!("  wrote {}", csv_path.display());
}
