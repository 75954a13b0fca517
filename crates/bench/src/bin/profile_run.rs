//! **Extension — resource-gauge profiling run.**
//!
//! Runs one pCLOUDS experiment with the full observability stack on (spans,
//! the recorded event DAG, gauges — see [`pdc_cgm::gauge`]) and the
//! asynchronous disk engine enabled, then writes the profiling artifacts
//! under `results/`:
//!
//! * `results/profile_<name>.json` — Chrome trace-event JSON including the
//!   gauge counter tracks (`"ph":"C"`); open it in Perfetto
//!   (<https://ui.perfetto.dev>) to see queue depths, buffer-pool occupancy
//!   and resident task bytes as time series under each rank.
//! * `results/profile_<name>.jsonl` — one metrics row per rank × span
//!   (inclusive/self time plus counter deltas).
//! * `results/profile_<name>.csv` — the gauge step functions as a flat
//!   `rank,gauge,time_s,value` table ([`pdc_cgm::gauges_csv`]).
//! * `results/profile_<name>.txt` — the rendered [`pdc_cgm::BuildReport`]
//!   (per-rank utilization, per-level attribution with imbalance factors,
//!   hotspots, gauge peaks).
//!
//! and prints the level-wise build table plus the report summary, the
//! per-span rollups and the cross-rank critical path (the span chain that
//! bounds the makespan) to the terminal.
//!
//! With `--serve`, profiles the **serving path** instead: trains a model,
//! then runs the scoring harness with the full observability stack *and*
//! windowed telemetry on (see [`pdc_serve::telemetry`]), writing
//! `results/profile_serve_<name>.{json,csv,txt}` — the Chrome trace now
//! carries `serve.window.rps` / `serve.window.p99_ms` / `serve.slo.*`
//! counter tracks next to the pool gauges, the txt report appends the
//! window time series, the SLO verdict and the critical path through
//! deploy + scoring.
//!
//! Usage: `profile_run [name] [--p N] [--serve]` (default name `profile`,
//! p = 4); workload scale via `PCLOUDS_SCALE` as usual.

use pdc_bench::harness::{machine_config, Experiment, Scale};
use pdc_cgm::export::validate_json;
use pdc_cgm::{
    chrome_trace_json, critical_path, gauges_csv, metrics_jsonl, BuildReport, Cluster,
};
use pdc_datagen::GeneratorConfig;
use pdc_pario::{BackendKind, DiskFarm, EngineConfig};
use pdc_serve::{serve, stage_requests, Layout, ServeConfig, SloSpec, TelemetryConfig};

fn main() {
    let mut name = String::from("profile");
    let mut p = 4usize;
    let mut serve_mode = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--p" {
            p = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--p needs a processor count");
        } else if a == "--serve" {
            serve_mode = true;
        } else if !a.starts_with("--") {
            name = a;
        }
    }

    let scale = Scale::from_env();
    if serve_mode {
        return profile_serve(&name, p, scale);
    }
    let n = scale.records(4_800_000);
    eprintln!("profile_run: n={n} p={p} name={name}");
    let engine = EngineConfig::new(512 * 1024);
    let out = Experiment::new(n, p, scale).engine(&engine).profiled().run();
    let stats = &out.run.stats;

    std::fs::create_dir_all("results").expect("create results/");
    let trace = chrome_trace_json(stats);
    validate_json(&trace).expect("chrome trace JSON must parse");
    assert!(
        trace.contains("\"ph\":\"C\""),
        "profiled trace must carry gauge counter tracks"
    );
    let trace_path = format!("results/profile_{name}.json");
    std::fs::write(&trace_path, &trace).expect("write trace JSON");

    let jsonl = metrics_jsonl(stats);
    for (i, line) in jsonl.lines().enumerate() {
        validate_json(line).unwrap_or_else(|e| panic!("metrics JSONL line {i}: {e}"));
    }
    let jsonl_path = format!("results/profile_{name}.jsonl");
    std::fs::write(&jsonl_path, &jsonl).expect("write metrics JSONL");

    let csv = gauges_csv(stats);
    let csv_path = format!("results/profile_{name}.csv");
    std::fs::write(&csv_path, &csv).expect("write gauges CSV");

    let report = BuildReport::from_stats(stats);
    let rendered = report.render();
    let txt_path = format!("results/profile_{name}.txt");
    std::fs::write(&txt_path, &rendered).expect("write build report");

    println!("{rendered}");
    println!("== span rollups (all ranks) ==");
    println!(
        "{:<28} {:>6} {:>12} {:>12} {:>12}",
        "span", "count", "total_s", "self_s", "max_s"
    );
    for s in out.span_metrics().by_name() {
        println!(
            "{:<28} {:>6} {:>12.3} {:>12.3} {:>12.3}",
            s.name, s.count, s.total_seconds, s.total_self_seconds, s.max_seconds
        );
    }
    let cp = critical_path(stats);
    assert!(
        !cp.segments.is_empty(),
        "critical path must be non-empty for a recorded run"
    );
    println!();
    println!("{}", cp.render());
    println!(
        "wrote {trace_path} ({} bytes), {jsonl_path} ({} rows), {csv_path} ({} samples), {txt_path}",
        trace.len(),
        jsonl.lines().count(),
        csv.lines().count().saturating_sub(1)
    );
}

/// Profile the serving path: train, probe once to size the windows and the
/// SLO deterministically, then re-run with spans + event DAG + gauges +
/// telemetry on.
fn profile_serve(name: &str, p: usize, scale: Scale) {
    let train_n = scale.records(600_000);
    let requests = scale.records(2_400_000);
    eprintln!("profile_run --serve: train_n={train_n} requests={requests} p={p} name={name}");
    let tree = Experiment::new(train_n, p, scale).run().tree;
    let request_gen = GeneratorConfig {
        seed: 0x5e21_e5ed,
        ..GeneratorConfig::default()
    };
    let engine = EngineConfig {
        page_bytes: 16 * 1024,
        budget_bytes: 32 * 16 * 1024,
    };
    let stage = || {
        let farm = DiskFarm::with_engine(p, BackendKind::InMemory, &engine);
        stage_requests(&farm, requests, request_gen);
        farm
    };

    // Pass 1 — bare probe: measure the run so the window width and the SLO
    // threshold are derived from data, not guessed (both passes are
    // deterministic, so the probe is exact).
    let plain = Cluster::with_config(p, machine_config(scale));
    let probe = serve(
        &plain,
        &stage(),
        &tree,
        &ServeConfig::new(Layout::Flat, 1_024),
    );
    let window = ((probe.makespan - probe.deploy_seconds) / 24.0).max(1e-6);
    let slo = SloSpec::p99(probe.latency.p99 * 2.0);

    // Pass 2 — same run, full observability stack + telemetry.
    let mut machine = machine_config(scale);
    machine.spans = true;
    machine.record = true;
    machine.gauges = true;
    let cluster = Cluster::with_config(p, machine);
    let cfg = ServeConfig::new(Layout::Flat, 1_024)
        .with_telemetry(TelemetryConfig::new(window).with_slo(slo));
    let report = serve(&cluster, &stage(), &tree, &cfg);
    assert_eq!(
        report.makespan.to_bits(),
        probe.makespan.to_bits(),
        "telemetry and recording must not perturb the serving run"
    );
    let telemetry = report.telemetry.as_ref().expect("telemetry was configured");
    let stats = &report.stats;

    std::fs::create_dir_all("results").expect("create results/");
    let trace = chrome_trace_json(stats);
    validate_json(&trace).expect("chrome trace JSON must parse");
    for track in ["serve.window.rps", "serve.window.p99_ms", "serve.slo.violation"] {
        assert!(
            trace.contains(track),
            "serving trace must carry the {track} counter track"
        );
    }
    let trace_path = format!("results/profile_serve_{name}.json");
    std::fs::write(&trace_path, &trace).expect("write trace JSON");

    let csv = gauges_csv(stats);
    let csv_path = format!("results/profile_serve_{name}.csv");
    std::fs::write(&csv_path, &csv).expect("write gauges CSV");

    let mut rendered = String::new();
    rendered.push_str(&format!(
        "serving profile: layout flat, batch 1024, {} requests, p={p}\n\
         deploy {:.6}s, makespan {:.6}s, {:.0} records/s sustained\n\
         latency p50 {:.4} ms, p99 {:.4} ms, p999 {:.4} ms ({} batches)\n\n",
        report.records,
        report.deploy_seconds,
        report.makespan,
        report.throughput_rps,
        report.latency.p50 * 1e3,
        report.latency.p99 * 1e3,
        report.latency.p999 * 1e3,
        report.latency.batches,
    ));
    rendered.push_str(&telemetry.render());
    rendered.push_str("\nwindow series (CSV):\n");
    rendered.push_str(&telemetry.windows_csv());
    rendered.push_str("\ncritical path:\n");
    rendered.push_str(&critical_path(stats).render());
    let txt_path = format!("results/profile_serve_{name}.txt");
    std::fs::write(&txt_path, &rendered).expect("write serving report");

    println!("{rendered}");
    println!(
        "wrote {trace_path} ({} bytes), {csv_path} ({} samples), {txt_path}",
        trace.len(),
        csv.lines().count().saturating_sub(1)
    );
}
