//! **Machine-readable perf-regression gate.**
//!
//! Re-runs the quick-scale benchmark suite (sibling binaries of this
//! executable, `PCLOUDS_SCALE=quick`), then compares each binary's fresh
//! `results/BENCH_<bin>.json` summary against the checked-in baseline in
//! `results/baselines/` (see [`pdc_bench::gate`]). Every metric is bitwise:
//! the virtual clock and the counters are deterministic, so any moved bit
//! is a model change. Exits nonzero on any mismatch, so CI can gate merges
//! on it directly.
//!
//! ```text
//! perf_gate [--no-run] [--bins a,b,c] [--baselines DIR]
//! ```
//!
//! * `--no-run` — skip re-running the binaries; compare whatever
//!   summaries are already in `results/` (useful locally after a manual
//!   quick-scale run, and for testing the gate itself).
//! * `--bins` — comma-separated gated set; default
//!   `fig_serving,ablation_cache,ablation_ensemble,fig1_speedup,`
//!   `ablation_faults` (the fastest bins that still cover serving,
//!   caching, ensemble scheduling, end-to-end speedup, and
//!   fault-injection overheads).
//! * `--baselines` — baseline directory (default `results/baselines`).
//!
//! To re-baseline: run the gated bins at quick scale, copy the fresh
//! `results/BENCH_*.json` over the files in `results/baselines/`, and
//! commit with a sentence saying *why* the numbers moved.

use std::path::{Path, PathBuf};
use std::process::Command;

use pdc_bench::gate::compare;
use pdc_bench::summary::BenchSummary;

const DEFAULT_BINS: &[&str] = &[
    "fig_serving",
    "ablation_cache",
    "ablation_ensemble",
    "fig1_speedup",
    "ablation_faults",
];

struct Args {
    no_run: bool,
    bins: Vec<String>,
    baselines: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        no_run: false,
        bins: DEFAULT_BINS.iter().map(|s| s.to_string()).collect(),
        baselines: PathBuf::from("results/baselines"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--no-run" => args.no_run = true,
            "--bins" => {
                let v = it.next().expect("--bins needs a comma-separated list");
                args.bins = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--baselines" => {
                args.baselines = PathBuf::from(it.next().expect("--baselines needs a path"));
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

/// Run a sibling benchmark binary at quick scale, inheriting stderr so its
/// progress shows up in the gate log.
fn run_sibling(bin: &str) {
    let me = std::env::current_exe().expect("current_exe");
    let dir = me.parent().expect("binary has a parent directory");
    let path = dir.join(bin);
    assert!(
        path.exists(),
        "{} not found next to perf_gate — build the full bench suite first \
         (cargo build --release -p pdc-bench --bins)",
        path.display()
    );
    eprintln!("perf_gate: running {bin} (PCLOUDS_SCALE=quick)");
    let status = Command::new(&path)
        .env("PCLOUDS_SCALE", "quick")
        .status()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", path.display()));
    assert!(status.success(), "{bin} exited with {status}");
}

fn main() {
    let args = parse_args();
    if !args.no_run {
        for bin in &args.bins {
            run_sibling(bin);
        }
    }

    let mut violations = Vec::new();
    let mut compared = 0usize;
    for bin in &args.bins {
        let base_path = BenchSummary::path_in(&args.baselines, bin);
        let cur_path = BenchSummary::path_in(Path::new("results"), bin);
        let baseline = match BenchSummary::read(&base_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!(
                    "perf_gate: FAIL {bin}: no readable baseline ({e}); \
                     generate one and commit it under {}",
                    args.baselines.display()
                );
                std::process::exit(2);
            }
        };
        let current = match BenchSummary::read(&cur_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perf_gate: FAIL {bin}: no readable current summary ({e})");
                std::process::exit(2);
            }
        };
        let v = compare(&baseline, &current);
        compared += baseline.metrics.len();
        if v.is_empty() {
            eprintln!("perf_gate: PASS {bin} ({} metrics bitwise equal)", baseline.metrics.len());
        }
        violations.extend(v);
    }

    if violations.is_empty() {
        eprintln!("perf_gate: PASS — {compared} metrics across {} bin(s)", args.bins.len());
        return;
    }
    eprintln!("perf_gate: FAIL — {} violation(s):", violations.len());
    for v in &violations {
        eprintln!("  {}", v.render());
    }
    eprintln!(
        "perf_gate: if the change is intentional, re-baseline: run the gated \
         bins with PCLOUDS_SCALE=quick and copy results/BENCH_*.json into {}",
        args.baselines.display()
    );
    std::process::exit(1);
}
