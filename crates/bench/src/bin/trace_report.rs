//! **Extension — structured trace export and critical-path report.**
//!
//! Runs one traced pCLOUDS experiment and writes its observability
//! artifacts under `results/`:
//!
//! * `results/trace_<name>.json` — Chrome trace-event JSON; open it in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! * `results/trace_<name>.jsonl` — one metrics row per rank × span
//!   (inclusive/self time plus counter deltas).
//!
//! and prints a per-span rollup summary and the cross-rank critical-path
//! report (the span chain that bounds the makespan) to the terminal.
//!
//! Usage: `trace_report [name] [--p N]` (default name `report`, p = 4);
//! workload scale via `PCLOUDS_SCALE` as usual.

use pdc_bench::harness::{Experiment, Scale};
use pdc_cgm::export::validate_json;
use pdc_cgm::{chrome_trace_json, critical_path, metrics_jsonl};

fn main() {
    let mut name = String::from("report");
    let mut p = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--p" {
            p = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--p needs a processor count");
        } else if !a.starts_with("--") {
            name = a;
        }
    }

    let scale = Scale::from_env();
    let n = scale.records(4_800_000);
    eprintln!("trace_report: n={n} p={p} name={name}");
    let out = Experiment::new(n, p, scale).traced().run();
    let stats = &out.run.stats;

    std::fs::create_dir_all("results").expect("create results/");
    let trace = chrome_trace_json(stats);
    validate_json(&trace).expect("chrome trace JSON must parse");
    let trace_path = format!("results/trace_{name}.json");
    std::fs::write(&trace_path, &trace).expect("write trace JSON");

    let jsonl = metrics_jsonl(stats);
    for (i, line) in jsonl.lines().enumerate() {
        validate_json(line).unwrap_or_else(|e| panic!("metrics JSONL line {i}: {e}"));
    }
    let jsonl_path = format!("results/trace_{name}.jsonl");
    std::fs::write(&jsonl_path, &jsonl).expect("write metrics JSONL");

    let reg = out.span_metrics();
    println!("== span rollups (all ranks) ==");
    println!(
        "{:<28} {:>6} {:>12} {:>12} {:>12}",
        "span", "count", "total_s", "self_s", "max_s"
    );
    for s in reg.by_name() {
        println!(
            "{:<28} {:>6} {:>12.3} {:>12.3} {:>12.3}",
            s.name, s.count, s.total_seconds, s.total_self_seconds, s.max_seconds
        );
    }

    let cp = critical_path(stats);
    assert!(
        !cp.segments.is_empty(),
        "critical path must be non-empty for a traced run"
    );
    println!();
    println!("{}", cp.render());
    println!(
        "wrote {trace_path} ({} bytes) and {jsonl_path} ({} rows)",
        trace.len(),
        jsonl.lines().count()
    );
}
