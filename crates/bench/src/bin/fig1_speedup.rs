//! **Figure 1 — Speedup characteristics.**
//!
//! The paper plots speedup (T(1)/T(p)) against the number of processors
//! (1–16) for training sets of 3.6, 4.8, 6.0 and 7.2 million records
//! (classification function 2, q_root = 10,000, 1 MB memory limit at 6M
//! tuples scaled linearly, switch threshold of ten intervals).
//!
//! Expected shape: speedup improves with data size; superlinear points
//! around p = 4 (cache effects + aggregate disk bandwidth); flattening at
//! p = 16 for the smaller sets.
//!
//! `PCLOUDS_SCALE=full` reproduces the paper's sizes; the default is 1/20.
//!
//! Sweep overrides, for runs beyond the paper's 16-node SP2:
//!
//! * `FIG1_PROCS` — comma-separated processor counts (e.g.
//!   `FIG1_PROCS=1,64,256`).
//! * `FIG1_SIZES` — comma-separated paper-scale record counts (scaled by
//!   `PCLOUDS_SCALE` like the defaults).
//!
//! An overridden sweep writes its summary as `fig1_speedup_custom`, so the
//! checked-in `fig1_speedup` perf-gate baseline (taken on the default
//! grid) is never clobbered by exploratory runs.

use pdc_bench::harness::{ascii_chart, csv_flag, Experiment, Scale, TableWriter};
use pdc_bench::summary::BenchSummary;

fn parse_list<T: std::str::FromStr>(var: &str) -> Option<Vec<T>>
where
    T::Err: std::fmt::Debug,
{
    let raw = std::env::var(var).ok()?;
    let list: Vec<T> = raw
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|e| panic!("{var}: bad entry {s:?}: {e:?}"))
        })
        .collect();
    assert!(!list.is_empty(), "{var} must name at least one value");
    Some(list)
}

fn main() {
    let scale = Scale::from_env();
    let csv = csv_flag();
    let procs_override = parse_list::<usize>("FIG1_PROCS");
    let sizes_override = parse_list::<u64>("FIG1_SIZES");
    let overridden = procs_override.is_some() || sizes_override.is_some();
    let bin_name = if overridden { "fig1_speedup_custom" } else { "fig1_speedup" };
    let mut summary = BenchSummary::new(bin_name, scale);
    let paper_sizes: Vec<u64> = sizes_override
        .unwrap_or_else(|| vec![3_600_000, 4_800_000, 6_000_000, 7_200_000]);
    let procs: Vec<usize> = procs_override.unwrap_or_else(|| vec![1, 2, 4, 8, 16]);
    for &p in &procs {
        assert!(p >= 1, "FIG1_PROCS entries must be >= 1");
    }

    eprintln!(
        "fig1_speedup: scale {scale:?} (divisor {}), sizes {:?}",
        scale.divisor(),
        paper_sizes.iter().map(|&s| scale.records(s)).collect::<Vec<_>>(),
    );

    let mut table = TableWriter::new(
        &["records", "p", "runtime_s", "speedup", "efficiency"],
        csv,
    );
    let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    // Speedup is T(base)/T(p) with base = the first processor count in the
    // sweep (the paper's T(1) on the default grid; an overridden sweep
    // that omits p=1 reports speedup relative to its smallest p).
    let p_base = procs[0];
    for &paper_n in &paper_sizes {
        let n = scale.records(paper_n);
        let mut t_base = 0.0;
        let mut points = Vec::new();
        for &p in &procs {
            let out = Experiment::new(n, p, scale).run();
            let t = out.runtime();
            if p == p_base {
                t_base = t;
            }
            let speedup = t_base / t;
            let mk = paper_n / 100_000; // stable across scales: paper size in 0.1M units
            summary.metric(&format!("runtime_s_n{mk}_p{p}"), t);
            summary.metric(&format!("speedup_n{mk}_p{p}"), speedup);
            points.push((p as f64, speedup));
            table.row(vec![
                n.to_string(),
                p.to_string(),
                format!("{t:.3}"),
                format!("{speedup:.2}"),
                format!("{:.2}", speedup / p as f64),
            ]);
            eprintln!("  n={n} p={p}: T={t:.3}s speedup={speedup:.2}");
        }
        series.push((format!("{n} records"), points));
    }
    table.print();
    let path = summary.write();
    eprintln!("  wrote {}", path.display());
    if !csv {
        println!("
speedup vs processors:");
        print!("{}", ascii_chart(&series, 56, 16));
    }
}
