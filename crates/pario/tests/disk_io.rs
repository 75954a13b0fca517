//! Direct tests of the typed-file disk layer: chunked readers, buffered
//! writers, and — crucially for the reproduction — the virtual-time cost
//! accounting of every I/O request.

use pdc_cgm::{Cluster, FaultPlan, MachineConfig};
use pdc_pario::{BackendKind, BufferedWriter, DiskFarm, EngineConfig};

/// Both kinds of farm over a scratch directory of the calling test's own.
fn both_kinds(test: &str) -> (std::path::PathBuf, [BackendKind; 2]) {
    let dir = std::env::temp_dir().join(format!("pario-{test}-{}", std::process::id()));
    (dir.clone(), [BackendKind::InMemory, BackendKind::OnDisk(dir)])
}

#[test]
fn read_write_roundtrip_and_ranges() {
    let farm = DiskFarm::in_memory(1);
    let cluster = Cluster::new(1);
    let out = cluster.run(|proc| {
        let mut disk = farm.lock(0);
        let f = disk.create::<u64>("data");
        let values: Vec<u64> = (0..100).collect();
        disk.append(proc, &f, &values);
        assert_eq!(disk.num_records(&f), 100);
        assert_eq!(disk.read_range(proc, &f, 10, 5), vec![10, 11, 12, 13, 14]);
        assert_eq!(disk.read_range(proc, &f, 0, 0), Vec::<u64>::new());
        disk.read_all(proc, &f)
    });
    assert_eq!(out.results[0], (0..100).collect::<Vec<u64>>());
}

#[test]
fn chunked_reader_visits_everything_in_order() {
    let farm = DiskFarm::in_memory(1);
    let cluster = Cluster::new(1);
    let out = cluster.run(|proc| {
        let mut disk = farm.lock(0);
        let f = disk.create::<u64>("data");
        let values: Vec<u64> = (0..103).collect(); // not a multiple of 10
        disk.append(proc, &f, &values);
        let mut reader = disk.reader(&f, 10);
        let mut collected = Vec::new();
        let mut chunks = 0;
        while let Some(chunk) = reader.next_chunk(&mut disk, proc) {
            assert!(chunk.len() <= 10);
            collected.extend(chunk);
            chunks += 1;
        }
        (collected, chunks, reader.position())
    });
    let (collected, chunks, pos) = &out.results[0];
    assert_eq!(collected, &(0..103).collect::<Vec<u64>>());
    assert_eq!(*chunks, 11);
    assert_eq!(*pos, 103);
}

#[test]
fn buffered_writer_batches_requests() {
    let farm = DiskFarm::in_memory(1);
    let cluster = Cluster::new(1);
    let out = cluster.run(|proc| {
        let mut disk = farm.lock(0);
        let f = disk.create::<u64>("data");
        let mut w = BufferedWriter::new(f.clone(), 16);
        for i in 0..100u64 {
            w.push(&mut disk, proc, i);
        }
        let before_flush = proc.counters.disk_writes;
        w.flush(&mut disk, proc);
        assert_eq!(w.buffered(), 0);
        (disk.num_records(&f), before_flush, proc.counters.disk_writes)
    });
    let (records, before, after) = out.results[0];
    assert_eq!(records, 100);
    // 100 records at 16 per request: 6 full flushes + 1 final partial.
    assert_eq!(before, 6);
    assert_eq!(after, 7);
}

#[test]
fn io_costs_follow_the_disk_model() {
    // With the buffer cache disabled (cache_bytes = 0), each request costs
    // exactly latency + bytes/bandwidth.
    let mut cfg = MachineConfig::default();
    cfg.cost.disk.access_latency = 0.004;
    cfg.cost.disk.bandwidth = 1.0e6;
    cfg.cost.disk.cache_bytes = 0;
    let farm = DiskFarm::in_memory(1);
    let cluster = Cluster::with_config(1, cfg);
    let out = cluster.run(|proc| {
        let mut disk = farm.lock(0);
        let f = disk.create::<u64>("data");
        disk.append(proc, &f, &vec![0u64; 1000]); // 8000 bytes
        let after_write = proc.clock();
        let _ = disk.read_range(proc, &f, 0, 500); // 4000 bytes
        (after_write, proc.clock())
    });
    let (w, total) = out.results[0];
    assert!((w - (0.004 + 8_000.0 / 1.0e6)).abs() < 1e-12, "write cost {w}");
    let r = total - w;
    assert!((r - (0.004 + 4_000.0 / 1.0e6)).abs() < 1e-12, "read cost {r}");
}

#[test]
fn buffer_cache_makes_small_files_cheap() {
    let mut cfg = MachineConfig::default();
    cfg.cost.disk.access_latency = 0.01;
    cfg.cost.disk.bandwidth = 1.0e6;
    cfg.cost.disk.cache_bytes = 10_000;
    cfg.cost.disk.cached_bandwidth = 100.0e6;
    let farm = DiskFarm::in_memory(1);
    let cluster = Cluster::with_config(1, cfg);
    let out = cluster.run(|proc| {
        let mut disk = farm.lock(0);
        // Small file: fits the cache entirely.
        let small = disk.create::<u64>("small");
        disk.append(proc, &small, &vec![1u64; 1_000]); // 8 KB <= 10 KB
        let t_small_write = proc.clock();
        // Large file: exceeds the cache.
        let large = disk.create::<u64>("large");
        disk.append(proc, &large, &vec![1u64; 2_000]); // 16 KB > 10 KB
        let t_large_write = proc.clock() - t_small_write;
        (t_small_write, t_large_write)
    });
    let (small, large) = out.results[0];
    assert!(
        small * 10.0 < large,
        "cached write {small} should be far cheaper than cold write {large}"
    );
}

#[test]
fn delete_reclaims_space_and_uncharged_helpers_are_free() {
    let farm = DiskFarm::in_memory(2);
    {
        let mut disk = farm.lock(0);
        let f = disk.create::<u64>("x");
        disk.append_uncharged(&f, &[1, 2, 3]);
        assert_eq!(disk.read_all_uncharged(&f), vec![1, 2, 3]);
        assert_eq!(disk.used_bytes(), 24);
        disk.delete("x");
        assert!(!disk.exists("x"));
        assert_eq!(disk.used_bytes(), 0);
    }
    assert_eq!(farm.used_bytes(), 0);
}

/// Rename must move the physical storage with the logical name: after
/// renaming, re-creating a file under the *old* name must not truncate or
/// alias the renamed file's bytes. (This is the regression test for the
/// on-disk backend leaving its scratch file at the old path.)
fn rename_keeps_data_after_old_name_is_reused(kind: BackendKind) {
    let farm = DiskFarm::new(1, kind);
    let mut disk = farm.lock(0);
    let a = disk.create::<u64>("a");
    disk.append_uncharged(&a, &[1, 2, 3]);
    disk.rename("a", "b");
    assert!(!disk.exists("a"));
    let b = disk.open::<u64>("b");
    // Re-create "a": with the old bug this truncated b's on-disk bytes.
    let a2 = disk.create::<u64>("a");
    disk.append_uncharged(&a2, &[9, 9]);
    assert_eq!(disk.read_all_uncharged(&b), vec![1, 2, 3]);
    assert_eq!(disk.read_all_uncharged(&a2), vec![9, 9]);
    // Rename over an existing destination replaces it cleanly.
    disk.rename("a", "b");
    let b2 = disk.open::<u64>("b");
    assert_eq!(disk.read_all_uncharged(&b2), vec![9, 9]);
}

#[test]
fn rename_in_memory_backend() {
    rename_keeps_data_after_old_name_is_reused(BackendKind::InMemory);
}

#[test]
fn rename_on_disk_backend() {
    let dir = std::env::temp_dir().join(format!("pario-rename-{}", std::process::id()));
    rename_keeps_data_after_old_name_is_reused(BackendKind::OnDisk(dir.clone()));
    let _ = std::fs::remove_dir_all(dir);
}

/// With one physical file per logical file, the replaced file's clean-up
/// unlinked the path its successor had just taken and the rename found no
/// file. Bytes are held by id now: a name is only a key of the namespace.
#[test]
fn a_recreated_file_renames_with_its_second_contents() {
    let (dir, kinds) = both_kinds("recreate");
    for kind in kinds {
        let farm = DiskFarm::new(1, kind.clone());
        let mut disk = farm.lock(0);
        let first = disk.create::<u64>("a");
        disk.append_uncharged(&first, &[1, 2, 3]);
        let second = disk.create::<u64>("a");
        assert_eq!(disk.used_bytes(), 0, "{kind:?}: re-creating reclaims the first contents");
        disk.append_uncharged(&second, &[4, 5]);
        disk.rename("a", "b");
        let b = disk.open::<u64>("b");
        assert_eq!(disk.read_all_uncharged(&b), vec![4, 5], "{kind:?}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Logical names used to be mapped to file names by replacing path-hostile
/// characters, so `x/y` and `x_y` were one physical file.
#[test]
fn names_differing_only_in_path_hostile_characters_hold_independent_data() {
    let (dir, kinds) = both_kinds("names");
    for kind in kinds {
        let farm = DiskFarm::new(1, kind.clone());
        let mut disk = farm.lock(0);
        let slash = disk.create::<u64>("x/y");
        disk.append_uncharged(&slash, &[1, 2, 3]);
        let underscore = disk.create::<u64>("x_y");
        disk.append_uncharged(&underscore, &[9]);
        let dots = disk.create::<u64>("../x y");
        assert_eq!(disk.read_all_uncharged(&slash), vec![1, 2, 3], "{kind:?}");
        assert_eq!(disk.read_all_uncharged(&underscore), vec![9], "{kind:?}");
        assert_eq!(disk.read_all_uncharged(&dots), Vec::<u64>::new(), "{kind:?}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A store error is reported once, by the disk, naming who failed at what.
#[test]
fn a_failing_store_names_rank_file_operation_and_offset() {
    // The farm's directory is a regular file: no rank can create its
    // scratch file under it. Nothing fails before the first append.
    let not_a_dir = std::env::temp_dir().join(format!("pario-notdir-{}", std::process::id()));
    std::fs::write(&not_a_dir, b"in the way").expect("temp dir is writable");
    let farm = DiskFarm::new(3, BackendKind::OnDisk(not_a_dir.clone()));
    let failure = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut disk = farm.lock(2);
        let f = disk.create::<u64>("node-7");
        assert!(disk.read_all_uncharged(&f).is_empty());
        disk.append_uncharged(&f, &[1]);
    }));
    std::fs::remove_file(&not_a_dir).expect("the file in the way is still there");
    let payload = failure.expect_err("the append cannot succeed");
    let message = payload.downcast_ref::<String>().expect("a formatted panic");
    assert!(
        message.starts_with("pario: rank 2 append of \"node-7\" at byte 0 failed: "),
        "{message}"
    );
}

#[test]
fn streaming_roundtrip_under_transient_disk_faults() {
    // ChunkedReader + BufferedWriter under injected transient read errors:
    // retries must charge the clock and the data must round-trip exactly.
    let p = 2;
    let farm = DiskFarm::in_memory(p);
    let mut faults = FaultPlan::with_seed(41);
    faults.disk.read_error_prob = 0.2;
    let cluster = Cluster::with_config(p, MachineConfig { faults, ..MachineConfig::default() });
    let out = cluster.run(|proc| {
        let mut disk = farm.lock(proc.rank());
        let f = disk.create::<u64>("stream");
        let mut w = BufferedWriter::new(f.clone(), 16);
        let data: Vec<u64> = (0..300).map(|i| i * 7 + proc.rank() as u64).collect();
        for &v in &data {
            w.push(&mut disk, proc, v);
        }
        w.flush(&mut disk, proc);
        let mut reader = disk.reader(&f, 16);
        let mut back = Vec::new();
        while let Some(chunk) = reader.next_chunk(&mut disk, proc) {
            // A chunk views the reader's one buffer: keeping it across the
            // next read does not compile, it is copied out instead.
            back.extend(chunk);
        }
        assert_eq!(back, data, "decoded data must round-trip under faults");
        (proc.counters.disk_retries, proc.counters.fault_time, proc.clock())
    });
    let retries: u64 = out.results.iter().map(|&(r, _, _)| r).sum();
    assert!(retries > 0, "20% error rate over ~40 reads must retry");
    for &(r, fault_time, clock) in &out.results {
        if r > 0 {
            assert!(fault_time > 0.0, "retries must charge fault time");
            assert!(clock >= fault_time, "fault time rides on the clock");
        }
    }
}

#[test]
#[should_panic(expected = "type mismatch")]
fn reopening_with_wrong_type_panics() {
    let farm = DiskFarm::in_memory(1);
    let mut disk = farm.lock(0);
    disk.create::<u64>("x");
    let _ = disk.open::<u8>("x");
}

#[test]
#[should_panic(expected = "read_range")]
fn reading_past_end_panics() {
    let farm = DiskFarm::in_memory(1);
    let cluster = Cluster::new(1);
    cluster.run(|proc| {
        let mut disk = farm.lock(0);
        let f = disk.create::<u64>("x");
        disk.append(proc, &f, &[1, 2, 3]);
        let _ = disk.read_range(proc, &f, 2, 5);
    });
}

/// The `partition` pattern on one disk: stream one file chunk by chunk while
/// appending to two others. Returns the rank's finish-time bits and its
/// `[reads, read bytes, writes, write bytes, hits, misses, evictions,
/// prefetches]`.
fn partition_pattern(kind: BackendKind, engine: &EngineConfig) -> (u64, [u64; 8]) {
    let farm = DiskFarm::with_engine(1, kind, engine);
    let data: Vec<u64> = (0..50_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let out = Cluster::new(1).run(|proc| {
        let mut disk = farm.lock(0);
        let src = disk.create::<u64>("node-1");
        disk.append_uncharged(&src, &data);
        let left = disk.create::<u64>("node-2");
        let right = disk.create::<u64>("node-3");
        let mut reader = disk.reader(&src, 3_000);
        let (mut lbuf, mut rbuf) = (Vec::new(), Vec::new());
        while let Some(chunk) = reader.next_chunk(&mut disk, proc) {
            for k in chunk {
                if k % 2 == 0 { lbuf.push(k) } else { rbuf.push(k) }
            }
            disk.append(proc, &left, &lbuf);
            disk.append(proc, &right, &rbuf);
            lbuf.clear();
            rbuf.clear();
        }
        disk.delete("node-1");
        disk.sync_engine(proc);
        (disk.read_all(proc, &left), disk.read_all(proc, &right))
    });
    let (left, right) = &out.results[0];
    let evens: Vec<u64> = data.iter().copied().filter(|k| k % 2 == 0).collect();
    let odds: Vec<u64> = data.iter().copied().filter(|k| k % 2 == 1).collect();
    assert_eq!((left, right), (&evens, &odds), "bytes read differ from bytes written");
    let c = &out.stats[0].counters;
    (
        out.stats[0].finish_time.to_bits(),
        [
            c.disk_reads,
            c.disk_read_bytes,
            c.disk_writes,
            c.disk_write_bytes,
            c.cache_hits,
            c.cache_misses,
            c.cache_evictions,
            c.prefetches,
        ],
    )
}

#[test]
fn partition_pattern_reads_what_it_wrote_and_charges_what_it_did() {
    // Finish times and counters of the code before the reader owned its
    // buffer (one shared per-disk scratch buffer, decode into a `Vec`):
    // whose buffer a chunk sits in is invisible to the virtual machine.
    // The pooled counters were re-pinned when speculation became the
    // engine's decision: beside the two children's dirty pages no read-ahead
    // fits in half the 4-page pool's clean frames, so the six pages once
    // read ahead are demand reads now, at the same finish time.
    let plain = (4591870180066957724, [19, 800_000, 34, 400_000, 0, 0, 0, 0]);
    let pooled = (4598467312208468561, [12, 862_144, 2, 400_000, 16, 15, 22, 0]);
    let (dir, kinds) = both_kinds("pattern");
    let small_pool = EngineConfig::new(4 * 64 * 1024);
    for kind in kinds {
        assert_eq!(partition_pattern(kind.clone(), &EngineConfig::disabled()), plain, "{kind:?}");
        assert_eq!(partition_pattern(kind.clone(), &small_pool), pooled, "{kind:?}, 4-page pool");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_chunk_is_a_copy_that_outlives_rename_and_delete_of_its_file() {
    let (dir, kinds) = both_kinds("view");
    for kind in kinds {
        let farm = DiskFarm::new(1, kind);
        Cluster::new(1).run(|proc| {
            let mut disk = farm.lock(0);
            let f = disk.create::<u64>("a");
            disk.append(proc, &f, &(0..100).collect::<Vec<u64>>());
            let mut reader = disk.reader(&f, 64);
            // The chunk borrows the reader, not the disk: the file may go.
            let chunk = reader.next_chunk(&mut disk, proc).expect("first chunk");
            disk.rename("a", "b");
            let reused = disk.create::<u64>("a");
            disk.append(proc, &reused, &[7; 100]);
            disk.delete("b");
            assert_eq!(chunk.to_vec(), (0..64).collect::<Vec<u64>>());
        });
    }
    let _ = std::fs::remove_dir_all(dir);
}
