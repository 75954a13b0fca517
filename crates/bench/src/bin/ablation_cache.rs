//! **Ablation — buffer-pool budget & prefetch (the asynchronous disk
//! engine).**
//!
//! Sweeps the [`pdc_pario::EngineConfig`] space on two workloads and writes
//! `results/ablation_cache.csv`:
//!
//! * **pclouds** — the fig-1 training workload, buffer budget × prefetch
//!   on/off, beside the engine-off run (`none`). Asserted: every cell
//!   trains the engine-off tree, and at fixed prefetch the makespan never
//!   grows with the budget. Reported, not asserted: prefetch on against off
//!   per budget — it is two-sided (task lookahead costs small pools more
//!   than read-ahead hides; see EXPERIMENTS.md).
//! * **seqscan / rescan** — synthetic single-rank scans that isolate the
//!   engine: a sequential scan with per-chunk compute (prefetch hides the
//!   device time almost entirely, asserted), and a repeated scan over a file
//!   larger than the pool, the one access pattern LRU is worst at (every
//!   page is evicted right before its reuse: no hits, asserted) and no pass
//!   of the trainer or the server makes.
//!
//! Everything is deterministic; the assertions below are the regression
//! contract for the engine's performance claims.

use pdc_bench::harness::{write_results, Experiment, Scale, TableWriter};
use pdc_bench::summary::BenchSummary;
use pdc_cgm::{Cluster, Counters, MachineConfig};
use pdc_pario::{BackendKind, DiskFarm, EngineConfig};

/// One row of the sweep.
struct Row {
    workload: &'static str,
    policy: &'static str,
    budget_pages: usize,
    prefetch: bool,
    makespan: f64,
    hits: u64,
    misses: u64,
    evictions: u64,
    prefetches: u64,
    io_stall: f64,
    io_overlapped: f64,
}

impl Row {
    /// `policy` is `lru` for every engine-on run: the column predates the
    /// one policy and stays so the CSV shape and the metric keys are stable.
    fn new(
        workload: &'static str,
        policy: &'static str,
        budget_pages: usize,
        prefetch: bool,
        makespan: f64,
        c: &Counters,
    ) -> Row {
        Row {
            workload,
            policy,
            budget_pages,
            prefetch,
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

    // --- The engine-off run: the `none` row and the reference tree.
    let experiment = Experiment::new(n, p, scale);
    let reference = experiment.run();
    let none = Counters::default();
    rows.push(Row::new("pclouds", "none", 0, false, reference.runtime(), &none));

    // --- The fig-1 workload across budget × prefetch. Pages are 16 KiB so
    // quick-scale node files still span several pages.
    const PCLOUDS_PAGE: usize = 16 * 1024;
    let mut smaller_pool = [f64::INFINITY; 2];
    for budget_pages in [4usize, 8, 16, 64] {
        let makespans = [false, true].map(|prefetch| {
            let engine = EngineConfig {
                page_bytes: PCLOUDS_PAGE,
                budget_bytes: budget_pages * PCLOUDS_PAGE,
                prefetch,
            };
            let out = experiment.clone().engine(&engine).run();
            assert_eq!(
                out.tree, reference.tree,
                "the engine must never change the computed tree"
            );
            let t = out.run.total_counters();
            rows.push(Row::new("pclouds", "lru", budget_pages, prefetch, out.runtime(), &t));
            out.runtime()
        });
        let [off, on] = makespans;
        eprintln!(
            "  pclouds {budget_pages:>2} pages: prefetch off {off:.4}s, on {on:.4}s ({:+.1}%)",
            (on / off - 1.0) * 100.0
        );
        for (i, which) in ["off", "on"].into_iter().enumerate() {
            assert!(
                makespans[i] <= smaller_pool[i],
                "prefetch {which}: {budget_pages} pages slower than the next smaller pool \
                 ({} !<= {})",
                makespans[i],
                smaller_pool[i]
            );
        }
        smaller_pool = makespans;
    }

    // --- Synthetic: one sequential pass, compute ≈ device time per chunk.
    // Prefetch should hide nearly all of the transfer behind the compute.
    let scan_budget = 16;
    let [seq_off, seq_on] = [false, true].map(|prefetch| {
        let engine = EngineConfig::new(scan_budget * 64 * 1024, prefetch);
        let (makespan, c) = scan_run(&engine, 64, 1, 1.0);
        rows.push(Row::new("seqscan", "lru", scan_budget, prefetch, makespan, &c));
        makespan
    });
    eprintln!("  seqscan: prefetch off {seq_off:.4}s, on {seq_on:.4}s");
    assert!(
        seq_on < seq_off,
        "sequential scan: prefetch must be faster ({seq_on} !< {seq_off})"
    );

    // --- Synthetic: four repeated passes over a 64-page file with a
    // 16-page pool. LRU floods: every page is evicted before its reuse.
    let (makespan, c) = scan_run(&EngineConfig::new(scan_budget * 64 * 1024, false), 64, 4, 0.0);
    eprintln!("  rescan: {makespan:.4}s, {} hits, {} misses", c.cache_hits, c.cache_misses);
    assert_eq!(
        (c.cache_hits, c.cache_misses),
        (0, 4 * 64),
        "repeated scan of a file larger than the pool: every read misses"
    );
    rows.push(Row::new("rescan", "lru", scan_budget, false, makespan, &c));

    // --- Emit the table and the checked-in CSV.
    let headers = [
        "workload",
        "policy",
        "budget_pages",
        "prefetch",
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
            r.policy.to_string(),
            r.budget_pages.to_string(),
            if r.prefetch { "on" } else { "off" }.to_string(),
            format!("{:.6}", r.makespan),
            r.hits.to_string(),
            r.misses.to_string(),
            r.evictions.to_string(),
            r.prefetches.to_string(),
            format!("{:.6}", r.io_stall),
            format!("{:.6}", r.io_overlapped),
        ]);
    }
    table.print();
    let csv_path = write_results("ablation_cache", "csv", scale, table.csv());
    eprintln!("  wrote {} ({} rows)", csv_path.display(), rows.len());

    // The same rows at full precision: makespans and hit/miss counts.
    let mut summary = BenchSummary::new("ablation_cache", scale);
    for r in &rows {
        let key = format!(
            "{}_{}_b{}_pf{}",
            r.workload,
            r.policy,
            r.budget_pages,
            if r.prefetch { "on" } else { "off" }
        );
        summary.metric(&format!("{key}_makespan_s"), r.makespan);
        summary.metric(&format!("{key}_hits_exact"), r.hits as f64);
        summary.metric(&format!("{key}_misses_exact"), r.misses as f64);
    }
    let path = summary.write();
    eprintln!("  wrote {}", path.display());
}
