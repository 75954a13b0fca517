//! The asynchronous disk engine end to end: disabled bit-identity, cache
//! hit/miss accounting, prefetch overlap, write-back, and fault injection
//! on the device timeline.

use pdc_cgm::{Cluster, FaultPlan, MachineConfig, OpKind};
use pdc_pario::{BackendKind, DiskFarm, EngineConfig};

const PAGE: usize = 64 * 1024;

fn engine_cfg(budget_pages: usize) -> EngineConfig {
    EngineConfig::new(budget_pages * PAGE)
}

/// A chunked scan with per-chunk compute; returns the rank's finish time.
fn scan_workload(farm: &DiskFarm, p: usize, cfg: MachineConfig) -> Vec<f64> {
    let out = Cluster::with_config(p, cfg).run(|proc| {
        let mut disk = farm.lock(proc.rank());
        let f = disk.create::<u64>("scan");
        let data: Vec<u64> = (0..65_536).collect(); // 512 KiB = 8 pages
        disk.append(proc, &f, &data);
        let chunk = 8_192; // one 64 KiB page per chunk
        let per_chunk_io = {
            let d = &proc.cost_model().disk;
            d.access_latency + (chunk * 8) as f64 / d.bandwidth
        };
        let mut reader = disk.reader(&f, chunk);
        let mut sum = 0u64;
        while let Some(recs) = reader.next_chunk(&mut disk, proc) {
            sum += recs.iter().sum::<u64>();
            // Compute comparable to one chunk's device time: exactly the
            // regime where prefetch hides the next chunk's transfer.
            proc.advance_compute(per_chunk_io);
        }
        assert_eq!(sum, (0..65_536u64).sum::<u64>());
        disk.sync_engine(proc);
    });
    out.stats.iter().map(|s| s.finish_time).collect()
}

#[test]
fn disabled_engine_is_bit_identical_to_the_legacy_path() {
    let run = |farm: DiskFarm| {
        Cluster::new(2).run(move |proc| {
            let mut disk = farm.lock(proc.rank());
            let f = disk.create::<u64>("data");
            disk.append(proc, &f, &(0..4096u64).collect::<Vec<_>>());
            let part = disk.read_range(proc, &f, 100, 200);
            disk.sync_engine(proc); // must be a free no-op without an engine
            let all = disk.read_all(proc, &f);
            (part.len(), all.len())
        })
    };
    let plain = run(DiskFarm::in_memory(2));
    let disabled = run(DiskFarm::with_engine(
        2,
        BackendKind::InMemory,
        &EngineConfig::disabled(),
    ));
    assert_eq!(plain.results, disabled.results);
    for (a, b) in plain.stats.iter().zip(&disabled.stats) {
        assert_eq!(
            a.finish_time.to_bits(),
            b.finish_time.to_bits(),
            "rank {}: disabled engine perturbed the virtual clock",
            a.rank
        );
        assert_eq!(a.counters, b.counters);
    }
}

#[test]
fn cached_reread_is_free_and_counts_hits() {
    let farm = DiskFarm::with_engine(1, BackendKind::InMemory, &engine_cfg(16));
    let out = Cluster::new(1).run(|proc| {
        let mut disk = farm.lock(0);
        let f = disk.create::<u64>("data");
        let data: Vec<u64> = (0..32_768).collect(); // 256 KiB = 4 pages
        // Uncharged append: the pool starts cold, so the first read misses.
        disk.append_uncharged(&f, &data);
        let first = disk.read_range(proc, &f, 0, 32_768);
        let t_first = proc.clock();
        let misses = proc.counters.cache_misses;
        let second = disk.read_range(proc, &f, 0, 32_768);
        let t_second = proc.clock();
        assert_eq!(first, second);
        assert_eq!(misses, 4, "first read misses each page once");
        assert_eq!(proc.counters.cache_misses, 4, "re-read must not miss");
        assert_eq!(proc.counters.cache_hits, 4, "re-read hits every page");
        assert_eq!(
            t_first.to_bits(),
            t_second.to_bits(),
            "a fully cached read costs nothing"
        );
        disk.sync_engine(proc);
    });
    // Identity with the engine enabled.
    for s in &out.stats {
        let sum = s.counters.compute_time
            + s.counters.comm_time
            + s.counters.io_time
            + s.counters.fault_time
            + s.counters.io_stall_time
            + s.idle_time();
        assert!((sum - s.finish_time).abs() < 1e-9, "accounting identity");
    }
}

#[test]
fn prefetch_overlaps_the_scan_and_is_strictly_faster() {
    let p = 2;
    // Disable the legacy working-set cache heuristic so the synchronous
    // path pays the same cold per-request costs as the engine.
    let mut base = MachineConfig::default();
    base.cost.disk.cache_bytes = 0;
    let engine = scan_workload(
        &DiskFarm::with_engine(p, BackendKind::InMemory, &engine_cfg(4)),
        p,
        base.clone(),
    );
    // The same cold requests, each waited out before the chunk's compute.
    let legacy = scan_workload(&DiskFarm::in_memory(p), p, base);
    for (rank, (t_engine, t_legacy)) in engine.iter().zip(&legacy).enumerate() {
        assert!(
            t_engine < t_legacy,
            "rank {rank}: read-ahead must be strictly faster ({t_engine} vs {t_legacy})"
        );
    }
}

#[test]
fn a_scan_reads_ahead_one_chunk_per_chunk_and_none_at_end_of_file() {
    let farm = DiskFarm::with_engine(1, BackendKind::InMemory, &engine_cfg(16));
    Cluster::new(1).run(|proc| {
        let mut disk = farm.lock(0);
        let f = disk.create::<u64>("scan");
        // Five cold pages scanned two pages at a time: 2 + 2 + 1.
        disk.append_uncharged(&f, &(0..40_960u64).collect::<Vec<_>>());
        let mut reader = disk.reader(&f, 16_384);
        // Per call: (records returned, device requests, bytes requested,
        // pages requested speculatively). The first chunk is the only
        // demand read; every other request is the read-ahead of
        // `min(chunk, remaining)` records, issued as one request.
        let expected = [
            (16_384, 2, 4 * PAGE as u64, 2),
            (16_384, 1, PAGE as u64, 1),
            (8_192, 0, 0, 0),
            (0, 0, 0, 0),
        ];
        for want in expected {
            let before = proc.counters.clone();
            let got = reader.next_chunk(&mut disk, proc).map_or(0, |chunk| chunk.len());
            let c = &proc.counters;
            let seen = (
                got,
                c.disk_reads - before.disk_reads,
                c.disk_read_bytes - before.disk_read_bytes,
                c.prefetches - before.prefetches,
            );
            assert_eq!(seen, want, "at record {}", reader.position());
        }
        assert_eq!(proc.counters.cache_misses, 2, "only the first chunk is a demand read");
        disk.sync_engine(proc);
    });
}

#[test]
fn read_ahead_is_issued_whole_only_beside_the_running_tasks_dirty_pages() {
    // A full 16-page pool: the running task's 6 dirty pages, least recently
    // used, and 10 clean ones. Speculation may take half the clean frames.
    let cfg = MachineConfig { gauges: true, ..MachineConfig::default() };
    let farm = DiskFarm::with_engine(1, BackendKind::InMemory, &engine_cfg(16));
    let out = Cluster::with_config(1, cfg).run(|proc| {
        let mut disk = farm.lock(0);
        let output = disk.create::<u64>("output");
        disk.append(proc, &output, &(0..6 * 8_192u64).collect::<Vec<_>>());
        let clean = disk.create::<u64>("clean");
        disk.append_uncharged(&clean, &(0..10 * 8_192u64).collect::<Vec<_>>());
        disk.read_range(proc, &clean, 0, 10 * 8_192);
        let input = disk.create::<u64>("input");
        disk.append_uncharged(&input, &(0..16 * 8_192u64).collect::<Vec<_>>());
        // (first page, pages) → (device requests, bytes, pages speculated,
        // evictions): five pages go as one request in place of five clean
        // ones; ten pages do not fit though only five are missing; six do
        // not fit.
        let cases = [
            ((0, 5), (1, 5 * PAGE as u64, 5, 5)),
            ((0, 10), (0, 0, 0, 0)),
            ((5, 6), (0, 0, 0, 0)),
        ];
        for ((first, pages), want) in cases {
            let before = proc.counters.clone();
            disk.prefetch_range(proc, &input, first * 8_192, pages * 8_192);
            let c = &proc.counters;
            let seen = (
                c.disk_reads - before.disk_reads,
                c.disk_read_bytes - before.disk_read_bytes,
                c.prefetches - before.prefetches,
                c.cache_evictions - before.cache_evictions,
            );
            assert_eq!(seen, want, "read-ahead of pages {first}.. (+{pages}) beside 6 dirty ones");
        }
    });
    // Every pool sample: the dirty pages stay and no write-back is queued.
    let samples = |name| out.stats[0].gauges.iter().filter(move |g| g.name == name).map(|g| g.value);
    assert!(samples("pario.pool.dirty").all(|v| v == 6.0), "speculation evicted a dirty page");
    assert!(samples("pario.engine.pending").all(|v| v == 0.0), "speculation queued a write-back");
}

#[test]
fn write_back_defers_and_sync_settles_the_device() {
    let farm = DiskFarm::with_engine(1, BackendKind::InMemory, &engine_cfg(64));
    Cluster::new(1).run(|proc| {
        let mut disk = farm.lock(0);
        let f = disk.create::<u64>("out");
        let t0 = proc.clock();
        disk.append(proc, &f, &(0..65_536u64).collect::<Vec<_>>()); // 8 pages
        // Write-back: the append itself does not advance the compute clock.
        assert_eq!(proc.clock(), t0);
        proc.charge(OpKind::Misc, 1_000);
        disk.sync_engine(proc);
        // Sync flushed 8 dirty pages as one coalesced device write.
        assert_eq!(proc.counters.disk_writes, 1);
        assert_eq!(proc.counters.disk_write_bytes, 8 * 65_536);
        assert!(proc.counters.io_stall_time > 0.0, "sync waits out the flush");
        assert_eq!(disk.read_all_uncharged(&f).len(), 65_536);
    });
}

#[test]
fn deleted_scratch_files_never_pay_write_back() {
    let farm = DiskFarm::with_engine(1, BackendKind::InMemory, &engine_cfg(64));
    Cluster::new(1).run(|proc| {
        let mut disk = farm.lock(0);
        let f = disk.create::<u64>("tmp");
        disk.append(proc, &f, &(0..8_192u64).collect::<Vec<_>>());
        disk.delete("tmp");
        disk.sync_engine(proc);
        assert_eq!(proc.counters.disk_writes, 0, "deleted dirty pages are dropped");
        assert_eq!(proc.clock(), 0.0);
    });
}

#[test]
fn engine_reads_retry_transient_faults_and_roundtrip() {
    let p = 2;
    let farm = DiskFarm::with_engine(p, BackendKind::InMemory, &engine_cfg(8));
    let mut faults = FaultPlan::with_seed(23);
    faults.disk.read_error_prob = 0.15;
    let out = Cluster::with_config(p, MachineConfig { faults, ..MachineConfig::default() })
        .run(|proc| {
            let mut disk = farm.lock(proc.rank());
            let f = disk.create::<u64>("data");
            let data: Vec<u64> = (0..40_000).map(|i| i ^ 0xABCD).collect();
            // Cold pool: every page must come off the (faulty) device.
            disk.append_uncharged(&f, &data);
            let mut reader = disk.reader(&f, 4_096);
            let mut back = Vec::new();
            while let Some(chunk) = reader.next_chunk(&mut disk, proc) {
                back.extend(chunk);
            }
            assert_eq!(back, data, "data must round-trip under device faults");
            disk.sync_engine(proc);
            proc.counters.disk_retries
        });
    let retries: u64 = out.results.iter().sum();
    assert!(retries > 0, "15% error rate must produce device retries");
    for s in &out.stats {
        let sum = s.counters.compute_time
            + s.counters.comm_time
            + s.counters.io_time
            + s.counters.fault_time
            + s.counters.io_stall_time
            + s.idle_time();
        assert!(
            (sum - s.finish_time).abs() < 1e-9,
            "rank {}: identity must hold with faulted async reads",
            s.rank
        );
    }
}
