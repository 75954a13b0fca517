//! **Ablation — buffer pool, replacement policy & prefetch (the
//! asynchronous disk engine).**
//!
//! Sweeps the [`pdc_pario::EngineConfig`] space on two workloads and writes
//! `results/ablation_cache.csv`:
//!
//! * **pclouds** — the fig-1 training workload, buffer budget × replacement
//!   policy × prefetch on/off. Expected shape: the *disabled* engine is
//!   bit-identical to the plain synchronous farm, and prefetch (task
//!   lookahead from the divide-and-conquer queue + sequential read-ahead in
//!   the chunked readers) is strictly faster at every budget because the
//!   next task's transfer rides under the current task's compute.
//! * **seqscan / rescan** — synthetic single-rank scans that isolate the
//!   engine: a sequential scan with per-chunk compute (prefetch hides the
//!   device time almost entirely), and a repeated scan over a file larger
//!   than the pool (LRU evicts every page right before its reuse — the
//!   classic sequential-flooding pathology — while MRU keeps a prefix of
//!   the file resident and wins measurably).
//!
//! Everything is deterministic; the assertions below are the regression
//! contract for the engine's performance claims.

use pdc_bench::harness::{csv_flag, write_results_csv, Experiment, Scale, TableWriter};
use pdc_bench::summary::BenchSummary;
use pdc_cgm::{Cluster, MachineConfig};
use pdc_pario::{BackendKind, DiskFarm, EngineConfig, ReplacementPolicy};

/// One row of the sweep.
struct Row {
    workload: &'static str,
    policy: String,
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

fn policy_name(p: ReplacementPolicy) -> &'static str {
    match p {
        ReplacementPolicy::Lru => "lru",
        ReplacementPolicy::Clock => "clock",
        ReplacementPolicy::Mru => "mru",
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
) -> (f64, pdc_cgm::Counters) {
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
    let csv = csv_flag();
    let n = scale.records(1_200_000);
    let p = 4;
    eprintln!("ablation_cache: n={n} p={p}");
    let mut rows: Vec<Row> = Vec::new();

    // --- Regression: the disabled engine is the synchronous path, bit for
    // bit.
    let experiment = Experiment::new(n, p, scale);
    let baseline = experiment.run();
    let disabled = experiment.clone().engine(&EngineConfig::disabled()).run();
    assert_eq!(baseline.tree, disabled.tree);
    for (a, b) in baseline.run.stats.iter().zip(&disabled.run.stats) {
        assert_eq!(
            a.finish_time.to_bits(),
            b.finish_time.to_bits(),
            "rank {}: a disabled engine must be bit-identical to the plain farm",
            a.rank
        );
    }
    eprintln!("  disabled engine: bit-identical to the synchronous path");
    rows.push(Row {
        workload: "pclouds",
        policy: "none".into(),
        budget_pages: 0,
        prefetch: false,
        makespan: disabled.runtime(),
        hits: 0,
        misses: 0,
        evictions: 0,
        prefetches: 0,
        io_stall: 0.0,
        io_overlapped: 0.0,
    });

    // --- The fig-1 workload across budget × policy × prefetch. Pages are
    // 16 KiB so quick-scale node files still span several pages.
    const PCLOUDS_PAGE: usize = 16 * 1024;
    let budgets_pages = [4usize, 16];
    let policies = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Clock,
        ReplacementPolicy::Mru,
    ];
    for &budget_pages in &budgets_pages {
        for policy in policies {
            let mut makespans = [0.0f64; 2];
            for (i, prefetch) in [false, true].into_iter().enumerate() {
                let engine = EngineConfig {
                    page_bytes: PCLOUDS_PAGE,
                    budget_bytes: budget_pages * PCLOUDS_PAGE,
                    policy,
                    prefetch,
                };
                let out = experiment.clone().engine(&engine).run();
                assert_eq!(
                    out.tree, baseline.tree,
                    "the engine must never change the computed tree"
                );
                let t = out.run.total_counters();
                makespans[i] = out.runtime();
                rows.push(Row {
                    workload: "pclouds",
                    policy: policy_name(policy).into(),
                    budget_pages,
                    prefetch,
                    makespan: out.runtime(),
                    hits: t.cache_hits,
                    misses: t.cache_misses,
                    evictions: t.cache_evictions,
                    prefetches: t.prefetches,
                    io_stall: t.io_stall_time,
                    io_overlapped: t.io_overlapped_time,
                });
            }
            let [off, on] = makespans;
            eprintln!(
                "  pclouds {}x{budget_pages}p: prefetch off {off:.4}s, on {on:.4}s",
                policy_name(policy)
            );
            assert!(
                on < off,
                "{:?} @ {budget_pages} pages: prefetch must be strictly faster \
                 ({on} !< {off})",
                policy
            );
        }
    }

    // --- Synthetic: one sequential pass, compute ≈ device time per chunk.
    // Prefetch should hide nearly all of the transfer behind the compute.
    let seq_budget = 16;
    let mut seq_makespans = [0.0f64; 2];
    for (i, prefetch) in [false, true].into_iter().enumerate() {
        let engine = EngineConfig::new(
            seq_budget * 64 * 1024,
            ReplacementPolicy::Lru,
            prefetch,
        );
        let (makespan, c) = scan_run(&engine, 64, 1, 1.0);
        seq_makespans[i] = makespan;
        rows.push(Row {
            workload: "seqscan",
            policy: "lru".into(),
            budget_pages: seq_budget,
            prefetch,
            makespan,
            hits: c.cache_hits,
            misses: c.cache_misses,
            evictions: c.cache_evictions,
            prefetches: c.prefetches,
            io_stall: c.io_stall_time,
            io_overlapped: c.io_overlapped_time,
        });
    }
    let [seq_off, seq_on] = seq_makespans;
    eprintln!("  seqscan: prefetch off {seq_off:.4}s, on {seq_on:.4}s");
    assert!(
        seq_on < seq_off,
        "sequential scan: prefetch must be faster ({seq_on} !< {seq_off})"
    );

    // --- Synthetic: four repeated passes over a 64-page file with a
    // 16-page pool. LRU floods (every page evicted before reuse); MRU keeps
    // a resident prefix and must win measurably.
    let mut rescan: Vec<(ReplacementPolicy, f64, u64)> = Vec::new();
    for policy in policies {
        let engine = EngineConfig::new(16 * 64 * 1024, policy, false);
        let (makespan, c) = scan_run(&engine, 64, 4, 0.0);
        rescan.push((policy, makespan, c.cache_hits));
        rows.push(Row {
            workload: "rescan",
            policy: policy_name(policy).into(),
            budget_pages: 16,
            prefetch: false,
            makespan,
            hits: c.cache_hits,
            misses: c.cache_misses,
            evictions: c.cache_evictions,
            prefetches: c.prefetches,
            io_stall: c.io_stall_time,
            io_overlapped: c.io_overlapped_time,
        });
        eprintln!(
            "  rescan {}: {makespan:.4}s, {} hits",
            policy_name(policy),
            c.cache_hits
        );
    }
    let lru = rescan.iter().find(|r| r.0 == ReplacementPolicy::Lru).unwrap();
    let mru = rescan.iter().find(|r| r.0 == ReplacementPolicy::Mru).unwrap();
    assert!(
        mru.2 > lru.2,
        "repeated scan: MRU must keep pages LRU floods away \
         ({} hits !> {} hits)",
        mru.2,
        lru.2
    );
    assert!(
        mru.1 < lru.1,
        "repeated scan: MRU must be measurably faster than LRU \
         ({} !< {})",
        mru.1,
        lru.1
    );

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
    let mut table = TableWriter::new(&headers, csv);
    let mut csv_text = headers.join(",") + "\n";
    for r in &rows {
        let cells = vec![
            r.workload.to_string(),
            r.policy.clone(),
            r.budget_pages.to_string(),
            if r.prefetch { "on" } else { "off" }.to_string(),
            format!("{:.6}", r.makespan),
            r.hits.to_string(),
            r.misses.to_string(),
            r.evictions.to_string(),
            r.prefetches.to_string(),
            format!("{:.6}", r.io_stall),
            format!("{:.6}", r.io_overlapped),
        ];
        csv_text.push_str(&cells.join(","));
        csv_text.push('\n');
        table.row(cells);
    }
    table.print();
    let csv_path = write_results_csv("ablation_cache", scale, &csv_text);
    eprintln!("  wrote {} ({} rows)", csv_path.display(), rows.len());

    // Machine-readable summary for the perf gate: makespans and hit/miss
    // counts are deterministic alike, and gated bitwise alike.
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
