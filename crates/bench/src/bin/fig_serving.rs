//! **Figure — the serving path: compiled layouts at production throughput.**
//!
//! Trains one tree on the fig-1 workload, then ablates the serving harness
//! over **layout × batch size × engine on/off** and writes
//! `results/fig_serving.csv`. Each cell deploys the compiled model by
//! broadcast, streams the request shards from every rank's disk, and
//! measures sustained records/sec plus p50/p99/p999 virtual-clock batch
//! latency (see [`pdc_serve::serve`]).
//!
//! Expected shape, asserted below as the regression contract:
//!
//! * **Predictions are byte-identical** across both layouts at every
//!   cell — compilation changes cost, never answers.
//! * **Flat beats pointer** at every batch size and engine setting: the
//!   flat array drops the dependent pointer-chase charge per visited node
//!   and its 16-byte nodes keep the working set inside the CPU cache.

use pdc_bench::harness::{machine_config, write_results, Experiment, Scale, TableWriter};
use pdc_bench::summary::BenchSummary;
use pdc_cgm::{Cluster, HistogramSpec};
use pdc_datagen::GeneratorConfig;
use pdc_pario::{BackendKind, DiskFarm, EngineConfig};
use pdc_serve::{serve, stage_requests, Layout, ServeConfig, ServeReport, ALL_LAYOUTS};

/// One CSV row of the ablation.
struct Row {
    engine: &'static str,
    batch: usize,
    layout: Layout,
    report: ServeReport,
    /// Throughput relative to the pointer baseline of the same
    /// (engine, batch) cell; 1.0 for the baseline itself.
    speedup_vs_pointer: f64,
    /// Predictions byte-identical to the pointer baseline of the cell.
    identical: bool,
}

fn main() {
    let scale = Scale::from_env();
    let p = 4;
    let train_n = scale.records(600_000);
    let requests = scale.records(2_400_000);
    eprintln!("fig_serving: train_n={train_n} requests={requests} p={p}");

    // --- Train the model once; serving ablates the scoring side only.
    let trained = Experiment::new(train_n, p, scale).run();
    let tree = trained.tree;
    assert!(
        tree.depth() >= 1,
        "trained tree must have at least one split for the ablation to be meaningful"
    );
    eprintln!(
        "  trained tree: {} nodes, depth {} ({:.3}s virtual build time)",
        tree.num_nodes(),
        tree.depth(),
        trained.run.makespan()
    );

    let cluster = Cluster::with_config(p, machine_config(scale));
    // Requests come from a different generator seed than the training data:
    // the serving fleet scores traffic it has never seen.
    let request_gen = GeneratorConfig {
        seed: 0x5e21_e5ed,
        ..GeneratorConfig::default()
    };
    let engines: [(&'static str, EngineConfig); 2] = [
        ("off", EngineConfig::disabled()),
        (
            "on",
            EngineConfig {
                page_bytes: 16 * 1024,
                budget_bytes: 32 * 16 * 1024,
            },
        ),
    ];
    let batches = [256usize, 1_024, 4_096];

    let mut rows: Vec<Row> = Vec::new();
    for (engine_name, engine) in &engines {
        for &batch in &batches {
            // One report per layout. Every layout gets a freshly staged farm
            // so no run inherits a warm buffer pool from the previous one.
            let mut cell: Vec<(Layout, ServeReport)> = Vec::new();
            for layout in ALL_LAYOUTS {
                let farm = DiskFarm::with_engine(p, BackendKind::InMemory, engine);
                stage_requests(&farm, requests, request_gen);
                // Exact latencies ride along to validate the histogram path:
                // every reported percentile must agree with the exact
                // nearest-rank answer within the bucket layout's relative
                // error (see `pdc_cgm::hist`).
                let serve_cfg = ServeConfig::new(layout, batch).with_exact_latencies();
                let report = serve(&cluster, &farm, &tree, &serve_cfg);
                assert_eq!(report.records, requests);
                let exact = report
                    .latency_exact
                    .expect("exact latencies were requested");
                let tol = HistogramSpec::latency_default().rel_error();
                for (which, approx, e) in [
                    ("p50", report.latency.p50, exact.p50),
                    ("p99", report.latency.p99, exact.p99),
                    ("p999", report.latency.p999, exact.p999),
                ] {
                    assert!(
                        approx >= e - 1e-15 && approx <= e * (1.0 + tol) + 1e-15,
                        "engine={engine_name} batch={batch} {}: histogram {which} \
                         {approx} strays from exact {e} beyond relative error {tol}",
                        layout.name()
                    );
                }
                assert_eq!(report.latency.max, exact.max);
                cell.push((layout, report));
            }
            let pointer = cell
                .iter()
                .find(|(l, _)| *l == Layout::Pointer)
                .map(|(_, r)| (r.throughput_rps, r.predictions.clone()))
                .expect("pointer baseline in every cell");
            for (layout, report) in cell {
                let identical = report.predictions == pointer.1;
                let speedup = report.throughput_rps / pointer.0;
                eprintln!(
                    "  engine={engine_name} batch={batch} {:>9}: {:>12.0} rps \
                     ({speedup:.2}x pointer), p99 {:.3} ms",
                    layout.name(),
                    report.throughput_rps,
                    report.latency.p99 * 1e3,
                );
                assert!(
                    identical,
                    "engine={engine_name} batch={batch}: {} predictions must be \
                     byte-identical to the pointer tree",
                    layout.name()
                );
                if layout == Layout::Flat {
                    assert!(
                        speedup > 1.0,
                        "engine={engine_name} batch={batch}: flat must serve strictly \
                         more records/sec than pointer ({} !> {})",
                        report.throughput_rps,
                        pointer.0
                    );
                }
                rows.push(Row {
                    engine: engine_name,
                    batch,
                    layout,
                    report,
                    speedup_vs_pointer: speedup,
                    identical,
                });
            }
        }
    }

    // --- Emit the table and the checked-in CSV.
    let headers = [
        "engine",
        "batch",
        "layout",
        "records",
        "model_nodes",
        "model_bytes",
        "deploy_s",
        "makespan_s",
        "throughput_rps",
        "speedup_vs_pointer",
        "p50_ms",
        "p99_ms",
        "p999_ms",
        "identical",
    ];
    let mut table = TableWriter::new(&headers);
    for r in &rows {
        table.row(vec![
            r.engine.to_string(),
            r.batch.to_string(),
            r.layout.name().to_string(),
            r.report.records.to_string(),
            r.report.model_nodes.to_string(),
            r.report.model_bytes.to_string(),
            format!("{:.6}", r.report.deploy_seconds),
            format!("{:.6}", r.report.makespan),
            format!("{:.1}", r.report.throughput_rps),
            format!("{:.4}", r.speedup_vs_pointer),
            format!("{:.4}", r.report.latency.p50 * 1e3),
            format!("{:.4}", r.report.latency.p99 * 1e3),
            format!("{:.4}", r.report.latency.p999 * 1e3),
            if r.identical { "yes" } else { "no" }.to_string(),
        ]);
    }
    table.print();
    let csv_path = write_results("fig_serving", "csv", scale, table.csv());
    eprintln!("  wrote {} ({} rows)", csv_path.display(), rows.len());

    // The same cells at full precision, plus the exact correctness
    // invariants.
    let mut summary = BenchSummary::new("fig_serving", scale);
    summary.metric("records_exact", requests as f64);
    for r in &rows {
        let key = format!("e{}_b{}_{}", r.engine, r.batch, r.layout.name());
        summary.metric(&format!("{key}_rps"), r.report.throughput_rps);
        summary.metric(&format!("{key}_p99_ms"), r.report.latency.p99 * 1e3);
        summary.metric(
            &format!("{key}_identical_exact"),
            f64::from(u8::from(r.identical)),
        );
        if r.layout != Layout::Pointer {
            summary.metric(&format!("{key}_speedup"), r.speedup_vs_pointer);
        }
    }
    let path = summary.write();
    eprintln!("  wrote {}", path.display());
}
