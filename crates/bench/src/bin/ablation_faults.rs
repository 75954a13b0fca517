//! **Ablation — fault injection and recovery (robustness extension).**
//!
//! The paper's implementation "does not regroup the processors as they
//! become idle" and assumes a fault-free machine. This harness studies what
//! that costs: it trains the same pCLOUDS workload while sweeping
//!
//! * the **fault rate** — per-transmission link drop/delay probability and
//!   per-request transient disk-read error probability (all retried and
//!   charged through the virtual clock), and
//! * the **straggler skew** — a clock-rate multiplier on one processor,
//!
//! each with the fault-aware small-task recovery of
//! [`pdc_dnc::DncOptions`] off and on. Expected shape:
//!
//! * runtime degrades **gracefully and monotonically** with the fault rate
//!   (every drop, delay and re-read adds bounded charged time);
//! * recovery matches the oblivious schedule exactly at skew 1.0 (weighted
//!   LPT with equal speeds *is* LPT) and **strictly beats** it once a
//!   straggler appears, because the weighted assignment relieves the slow
//!   processor of small-node work;
//! * everything is driven by the machine's deterministic seeds: the same
//!   configuration reproduces the same virtual times bit for bit (checked
//!   below).

use pdc_bench::harness::{ascii_chart, csv_flag, Experiment, Scale, TableWriter};
use pdc_bench::summary::BenchSummary;
use pdc_cgm::FaultPlan;

/// Switch to task parallelism at 40 intervals instead of the paper's 10:
/// the small-node phase — the phase recovery can reschedule — then carries
/// a meaningful share of the runtime, with enough tasks for weighted LPT
/// to act on (at 10 the data-parallel phase dominates and the straggler's
/// drag there is unavoidable; far above 40 a single large task dominates
/// the tail and no assignment can help).
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
    let csv = csv_flag();
    let n = scale.records(1_200_000);
    let p = 8;
    eprintln!("ablation_faults: n={n} p={p}");
    // One training run under `faults`, with fault-aware small-task
    // recovery (speed-weighted LPT + task retry) on or off.
    let run = |faults: FaultPlan, recover: bool| {
        Experiment::new(n, p, scale)
            .machine(|m| m.faults = faults)
            .config(|c| {
                c.recover_small_tasks = recover;
                c.switch_threshold_intervals = SWITCH_THRESHOLD;
            })
            .run()
    };

    let mut table = TableWriter::new(
        &[
            "fault_rate",
            "skew",
            "recovery",
            "runtime_s",
            "slowdown",
            "link_retries",
            "link_delays",
            "disk_retries",
        ],
        csv,
    );

    // Determinism: the same seeded configuration must reproduce the same
    // virtual times exactly.
    let probe = plan(0.01, 2.0, p);
    let once = run(probe.clone(), true);
    let twice = run(probe, true);
    assert_eq!(
        once.run.stats.iter().map(|s| s.finish_time).collect::<Vec<_>>(),
        twice.run.stats.iter().map(|s| s.finish_time).collect::<Vec<_>>(),
        "fault injection must be deterministic"
    );
    eprintln!("  determinism: identical virtual times across reruns");

    // Graceful degradation: runtime vs fault rate at no skew.
    let healthy = run(FaultPlan::default(), false);
    let base = healthy.runtime();
    let mut summary = BenchSummary::new("ablation_faults", scale);
    summary.metric("healthy_runtime_s", base);
    let mut degradation = Vec::new();
    for rate in [0.0, 0.001, 0.005, 0.02] {
        let out = run(plan(rate, 1.0, p), false);
        let totals = out.run.total_counters();
        table.row(vec![
            format!("{rate}"),
            "1.0".into(),
            "off".into(),
            format!("{:.3}", out.runtime()),
            format!("{:.3}", out.runtime() / base),
            totals.link_retries.to_string(),
            totals.link_delays.to_string(),
            totals.disk_retries.to_string(),
        ]);
        degradation.push((rate, out.runtime()));
        let key = format!("rate{}", format!("{rate}").replace('.', "_"));
        summary.metric(&format!("{key}_runtime_s"), out.runtime());
        summary.metric(&format!("{key}_disk_retries_exact"), totals.disk_retries as f64);
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

    // Recovery: oblivious vs weighted-LPT dispatch as one rank straggles.
    let mut oblivious_pts = Vec::new();
    let mut recovered_pts = Vec::new();
    for skew in [1.0, 2.0, 4.0, 8.0] {
        let mut runtimes = [0.0f64; 2];
        for (i, recover) in [false, true].into_iter().enumerate() {
            let out = run(plan(0.0, skew, p), recover);
            let totals = out.run.total_counters();
            runtimes[i] = out.runtime();
            table.row(vec![
                "0".into(),
                format!("{skew}"),
                if recover { "on" } else { "off" }.into(),
                format!("{:.3}", out.runtime()),
                format!("{:.3}", out.runtime() / base),
                totals.link_retries.to_string(),
                totals.link_delays.to_string(),
                totals.disk_retries.to_string(),
            ]);
        }
        let [oblivious, recovered] = runtimes;
        let key = format!("skew{}", format!("{skew}").replace('.', "_"));
        summary.metric(&format!("{key}_oblivious_s"), oblivious);
        summary.metric(&format!("{key}_recovered_s"), recovered);
        eprintln!(
            "  skew={skew}: oblivious {oblivious:.3}s, recovered {recovered:.3}s"
        );
        oblivious_pts.push((skew, oblivious));
        recovered_pts.push((skew, recovered));
        if skew == 1.0 {
            assert_eq!(
                oblivious, recovered,
                "equal speeds: recovery must not change the schedule"
            );
        } else {
            assert!(
                recovered < oblivious,
                "skew {skew}: recovery must beat the oblivious schedule \
                 ({recovered} !< {oblivious})"
            );
        }
    }

    table.print();
    let path = summary.write();
    eprintln!("  wrote {}", path.display());
    if !csv {
        println!();
        println!("runtime (s) vs straggler skew:");
        println!(
            "{}",
            ascii_chart(
                &[
                    ("no recovery".to_string(), oblivious_pts),
                    ("weighted-LPT recovery".to_string(), recovered_pts),
                ],
                56,
                14,
            )
        );
    }
}
