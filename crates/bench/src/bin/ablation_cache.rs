//! **Ablation — buffer-pool budget (the asynchronous disk engine).**
//!
//! Sweeps the [`pdc_pario::EngineConfig`] budget on two workloads and
//! writes `results/ablation_cache.csv`:
//!
//! * **pclouds** — the fig-1 training workload, one row per buffer budget
//!   beside the engine-off run (`budget_pages = 0`). Asserted: every cell
//!   trains the engine-off tree, and the makespan never grows with the
//!   budget.
//! * **seqscan / rescan** — synthetic single-rank scans that isolate the
//!   engine: a sequential scan with per-chunk compute (read-ahead hides at
//!   least 95 % of the device time, asserted), and a repeated scan over a
//!   file larger than the pool, the one access pattern LRU is worst at
//!   (every page is evicted right before its reuse, so every page comes off
//!   the device on every pass, asserted) and no pass of the trainer or the
//!   server makes.
//!
//! Everything is deterministic; the assertions below are the regression
//! contract for the engine's performance claims.

use pdc_bench::harness::{num, write_results, Experiment, Scale, TableWriter};
use pdc_cgm::{Cluster, Counters, MachineConfig};
use pdc_pario::{BackendKind, DiskFarm, EngineConfig};

/// One row of the sweep.
struct Row {
    workload: &'static str,
    budget_pages: usize,
    makespan: f64,
    hits: u64,
    misses: u64,
    evictions: u64,
    prefetches: u64,
    io_stall: f64,
    io_overlapped: f64,
}

impl Row {
    fn new(workload: &'static str, budget_pages: usize, makespan: f64, c: &Counters) -> Row {
        Row {
            workload,
            budget_pages,
            makespan,
            hits: c.cache_hits,
            misses: c.cache_misses,
            evictions: c.cache_evictions,
            prefetches: c.prefetches,
            io_stall: c.io_stall_time,
            io_overlapped: c.io_overlapped_time,
        }
    }
}

/// Synthetic scan: `passes` full sequential passes over a `file_pages`-page
/// file with per-chunk compute `overlap` times the chunk's device time.
/// Returns the finish time and the rank's counters.
fn scan_run(
    engine: &EngineConfig,
    file_pages: usize,
    passes: usize,
    overlap: f64,
) -> (f64, Counters) {
    const PAGE_RECORDS: usize = 8 * 1024; // 64 KiB of u64s = one page
    let farm = DiskFarm::with_engine(1, BackendKind::InMemory, engine);
    {
        // Load outside the timed region (uncharged, pool stays cold).
        let mut disk = farm.lock(0);
        let f = disk.create::<u64>("scan");
        let data: Vec<u64> = (0..(file_pages * PAGE_RECORDS) as u64).collect();
        disk.append_uncharged(&f, &data);
    }
    let out = Cluster::with_config(1, MachineConfig::default()).run(|proc| {
        let per_chunk_io = {
            let d = &proc.cost_model().disk;
            d.access_latency + (PAGE_RECORDS * 8) as f64 / d.bandwidth
        };
        let mut disk = farm.lock(0);
        let f = disk.open::<u64>("scan");
        for _ in 0..passes {
            let mut reader = disk.reader(&f, PAGE_RECORDS);
            while reader.next_chunk(&mut disk, proc).is_some() {
                proc.advance_compute(per_chunk_io * overlap);
            }
        }
        disk.sync_engine(proc);
    });
    (out.stats[0].finish_time, out.stats[0].counters.clone())
}

fn main() {
    let scale = Scale::from_env();
    let n = scale.records(1_200_000);
    let p = 4;
    eprintln!("ablation_cache: n={n} p={p}");
    let mut rows: Vec<Row> = Vec::new();

    // --- The engine-off run: the budget-0 row and the reference tree.
    let experiment = Experiment::new(n, p, scale);
    let reference = experiment.run();
    rows.push(Row::new("pclouds", 0, reference.runtime(), &Counters::default()));

    // --- The fig-1 workload across budgets. Pages are 16 KiB so
    // quick-scale node files still span several pages.
    const PCLOUDS_PAGE: usize = 16 * 1024;
    let mut smaller_pool = f64::INFINITY;
    for budget_pages in [4usize, 8, 16, 64] {
        let engine = EngineConfig {
            page_bytes: PCLOUDS_PAGE,
            budget_bytes: budget_pages * PCLOUDS_PAGE,
        };
        let out = experiment.clone().engine(&engine).run();
        assert_eq!(out.tree, reference.tree, "the engine must never change the computed tree");
        let makespan = out.runtime();
        eprintln!("  pclouds {budget_pages:>2} pages: {makespan:.4}s");
        assert!(
            makespan <= smaller_pool,
            "{budget_pages} pages slower than the next smaller pool ({makespan} !<= {smaller_pool})"
        );
        smaller_pool = makespan;
        rows.push(Row::new("pclouds", budget_pages, makespan, &out.run.total_counters()));
    }

    // --- Synthetic: one sequential pass, compute ≈ device time per chunk.
    // Read-ahead should hide nearly all of the transfer behind the compute.
    let scan_budget = 16;
    let scan_engine = EngineConfig::new(scan_budget * 64 * 1024);
    let (makespan, c) = scan_run(&scan_engine, 64, 1, 1.0);
    let hidden = c.io_overlapped_time / (c.io_overlapped_time + c.io_stall_time);
    eprintln!("  seqscan: {makespan:.4}s, read-ahead hides {:.1}% of the device time", hidden * 100.0);
    assert!(
        hidden >= 0.95,
        "sequential scan: read-ahead must hide >= 95% of the device time ({hidden})"
    );
    rows.push(Row::new("seqscan", scan_budget, makespan, &c));

    // --- Synthetic: four repeated passes over a 64-page file with a
    // 16-page pool. LRU floods: every page is evicted before its reuse, so
    // every page comes off the device (demand miss or read-ahead) per pass.
    let (makespan, c) = scan_run(&scan_engine, 64, 4, 0.0);
    eprintln!(
        "  rescan: {makespan:.4}s, {} hits, {} misses, {} prefetched",
        c.cache_hits, c.cache_misses, c.prefetches
    );
    assert_eq!(
        c.cache_misses + c.prefetches,
        4 * 64,
        "repeated scan of a file larger than the pool: every page is read on every pass"
    );
    rows.push(Row::new("rescan", scan_budget, makespan, &c));

    // --- Emit the table and the checked-in CSV.
    let headers = [
        "workload",
        "budget_pages",
        "makespan_s",
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "prefetches",
        "io_stall_s",
        "io_overlapped_s",
    ];
    let mut table = TableWriter::new(&headers);
    for r in &rows {
        table.row(vec![
            r.workload.to_string(),
            r.budget_pages.to_string(),
            num(r.makespan),
            r.hits.to_string(),
            r.misses.to_string(),
            r.evictions.to_string(),
            r.prefetches.to_string(),
            num(r.io_stall),
            num(r.io_overlapped),
        ]);
    }
    table.print();
    let csv_path = write_results("ablation_cache", "csv", scale, table.csv());
    eprintln!("  wrote {} ({} rows)", csv_path.display(), rows.len());
}
