//! Property-based tests: redistribution conserves and correctly places
//! records for arbitrary routing functions, chunk sizes and machine sizes;
//! the fixed record layout round-trips every `Rec` type, equals its `Wire`
//! bytes, and hostile buffers are refused with an error, never a panic; an
//! engine driven by the same operations speculates only beside its dirty
//! pages; a dealt stream lands where a plain loop would put it.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use pdc_cgm::{Cluster, Proc, Wire};
use pdc_pario::{
    deal_stream, redistribute, BackendKind, Deal, DiskFarm, EngineConfig, IoEngine, NodeDisk,
    RaggedChunk, Rec, RecBuf, RecChunk, BATCH_RECORDS, EXTENT_BYTES,
};
use proptest::prelude::*;

/// `store` → `load` round-trips `value`, `store` writes its `Wire` bytes,
/// and buffers one byte short or long of a batch of them are refused.
fn check_layout<R: Rec + PartialEq + std::fmt::Debug>(value: R) {
    let mut bytes = vec![0xAA; R::ENCODED_BYTES];
    value.store(&mut bytes);
    assert_eq!(bytes, value.to_bytes(), "file bytes differ from message bytes");
    assert_eq!(R::load(&bytes), value);
    let batch = RecBuf::from_records(&[value.clone(), value.clone(), value.clone()]);
    let whole = batch.view().bytes();
    assert_eq!(RecChunk::<R>::new(whole).unwrap().to_vec(), vec![value; 3]);
    for ragged in [&whole[..whole.len() - 1], &whole[1..]] {
        let err = RaggedChunk { len: whole.len() - 1, stride: R::ENCODED_BYTES };
        // A one-byte record type has no ragged length.
        assert_eq!(RecChunk::<R>::new(ragged).err(), (R::ENCODED_BYTES > 1).then_some(err));
    }
}

/// A scratch directory of the calling test's own.
fn scratch_dir(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pario-{test}-{}", std::process::id()))
}

/// Lengths of the regular files under `dir` (none if it does not exist).
fn file_lens(dir: &Path) -> Vec<u64> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    entries.map(|e| e.expect("entry").metadata().expect("metadata").len()).collect()
}

/// `n` bytes that differ from append to append and from position to position.
fn pattern(tag: u64, n: usize) -> Vec<u8> {
    (0..n as u64).map(|i| ((i ^ tag << 32).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8).collect()
}

/// Byte sizes of the model's appends: nothing, one byte, a typical chunk,
/// and one byte short of, exactly, and one byte over 1, 2 and 3 extents.
fn append_sizes() -> Vec<usize> {
    let edges = (1..=3).flat_map(|k| [k * EXTENT_BYTES - 1, k * EXTENT_BYTES, k * EXTENT_BYTES + 1]);
    [0, 1, 50_000].into_iter().chain(edges).collect()
}

/// A read range of a `len`-byte file chosen by `pick`: around one of the
/// file's extent edges where it has any, else anywhere, at most to its end.
fn read_range(len: usize, pick: u64) -> (usize, usize) {
    let (a, b) = ((pick >> 8) as usize % 4_000, (pick >> 24) as usize % (2 * EXTENT_BYTES));
    let edges = len / EXTENT_BYTES;
    let start = if edges > 0 {
        ((1 + pick as usize % edges) * EXTENT_BYTES).saturating_sub(a)
    } else {
        a % (len + 1)
    };
    (start, b.min(len - start))
}

/// A model file: its bytes, and how many of them were released.
type ModelFile = (Vec<u8>, usize);

/// Both disks agree with the model on every live file from its release
/// point on; returns the number of extents the live files hold.
fn check_against_model(
    model: &HashMap<&str, ModelFile>,
    disks: &mut [&mut NodeDisk; 2],
    proc: &mut Proc,
    step: usize,
) -> usize {
    let mut page = RecBuf::new();
    for disk in disks.iter_mut() {
        let mut names = disk.file_names();
        names.sort();
        let mut expected: Vec<&str> = model.keys().copied().collect();
        expected.sort();
        assert_eq!(names, expected, "step {step}: namespace");
        assert_eq!(disk.used_bytes(), model.values().map(|v| v.0.len() as u64).sum::<u64>(), "step {step}");
        for (name, (bytes, released)) in model {
            let file = disk.open::<u8>(name);
            assert_eq!(disk.num_records(&file), bytes.len(), "step {step}: {name}");
            let stored = disk.read_range_into(proc, &file, *released, bytes.len() - released, &mut page);
            assert!(stored.bytes() == &bytes[*released..], "step {step}: bytes of {name}");
        }
    }
    model.values().map(|(bytes, released)| bytes.len().div_ceil(EXTENT_BYTES) - released / EXTENT_BYTES).sum()
}

/// Page size and budget of the engine the model runs beside its disks: a
/// pool of one extent, so the model's appends and reads evict.
const MODEL_PAGE: usize = 8 * 1024;
const MODEL_POOL_PAGES: usize = 32;

/// Read `[start, start + count)` of `file` ahead on `engine` and check the
/// rule: all pages of the request fit in half the clean frames, or nothing
/// is issued; the missing pages go in flight all together or not at all,
/// and no dirty page is evicted.
fn check_prefetch(engine: &mut IoEngine, proc: &mut Proc, file: u64, start: usize, count: usize) {
    let first = (start / MODEL_PAGE) as u64;
    let pages = first..if count == 0 { first } else { (start + count).div_ceil(MODEL_PAGE) as u64 };
    let missing: Vec<u64> = pages.clone().filter(|&p| engine.pool().state((file, p)).is_none()).collect();
    let dirty = engine.pool().dirty_pages();
    let fits = pages.end - pages.start <= (MODEL_POOL_PAGES.saturating_sub(dirty) / 2) as u64;
    let before = proc.counters.prefetches;
    engine.prefetch(proc, file, start as u64, count);
    let inserted = missing.iter().filter(|&&p| engine.pool().state((file, p)).is_some()).count();
    assert_eq!(engine.pool().dirty_pages(), dirty, "speculation evicted a dirty page");
    assert_eq!(inserted, if fits { missing.len() } else { 0 }, "pages {pages:?}, {dirty} dirty");
    assert_eq!(proc.counters.prefetches - before, inserted as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The real-file disk and the RAM disk are one machine to their callers,
    /// and the scratch file is as long as the peak of held extents, no more:
    /// a released extent is on the free list, never in two files, and never
    /// freed twice when its file is deleted. An engine fed the same appends,
    /// reads and deletes speculates by its rule (see `check_prefetch`).
    #[test]
    fn real_file_disk_equals_ram_disk_within_the_peak_of_live_extents(
        ops in proptest::collection::vec((0u8..11, 0usize..3, any::<u64>()), 1..24),
    ) {
        let dir = scratch_dir("model");
        let farms = [DiskFarm::in_memory(1), DiskFarm::new(1, BackendKind::OnDisk(dir.clone()))];
        let sizes = append_sizes();
        // Three names the per-file layout mapped to one path.
        let names = ["node-1", "node/1", "node_1"];
        Cluster::new(1).run(|proc| {
            let (mut ram, mut real) = (farms[0].lock(0), farms[1].lock(0));
            let mut disks = [&mut *ram, &mut *real];
            let mut model: HashMap<&str, ModelFile> = HashMap::new();
            let mut peak = 0;
            let mut engine = IoEngine::new(&EngineConfig {
                page_bytes: MODEL_PAGE,
                budget_bytes: MODEL_POOL_PAGES * MODEL_PAGE,
            });
            // The engine's file id per live name; ids are never reused.
            let mut ids: HashMap<&str, u64> = HashMap::new();
            for (step, &(op, name, pick)) in ops.iter().enumerate() {
                let name = names[name];
                match op {
                    0 => {
                        disks.iter_mut().for_each(|d| drop(d.create::<u8>(name)));
                        model.insert(name, (Vec::new(), 0));
                        if let Some(old) = ids.insert(name, step as u64) {
                            engine.invalidate_file(old);
                        }
                    }
                    1 => {
                        disks.iter_mut().for_each(|d| d.delete(name));
                        model.remove(name);
                        if let Some(old) = ids.remove(name) {
                            engine.invalidate_file(old);
                        }
                    }
                    2 if model.contains_key(name) => {
                        let to = names[pick as usize % names.len()];
                        disks.iter_mut().for_each(|d| d.rename(name, to));
                        let moved = model.remove(name).expect("checked");
                        model.insert(to, moved);
                        let id = ids.remove(name).expect("live");
                        if let Some(old) = ids.insert(to, id) {
                            engine.invalidate_file(old);
                        }
                    }
                    3 | 4 if model.contains_key(name) => {
                        let (bytes, released) = &model[name];
                        let (start, count) = read_range(bytes.len(), pick);
                        let start = start.max(*released);
                        let count = count.min(bytes.len() - start);
                        for disk in disks.iter_mut() {
                            let file = disk.open::<u8>(name);
                            let mut page = RecBuf::new();
                            let got = disk.read_range_into(proc, &file, start, count, &mut page);
                            assert!(
                                got.bytes() == &bytes[start..start + count],
                                "step {step}: [{start}, +{count}) of {name}"
                            );
                        }
                        engine.read(proc, ids[name], start as u64, count).expect("no faults");
                    }
                    5 if model.contains_key(name) => {
                        // Release up to the end of a range around an extent
                        // edge; below the current point it changes nothing.
                        let (bytes, released) = model.get_mut(name).expect("checked");
                        let (start, count) = read_range(bytes.len(), pick);
                        for disk in disks.iter_mut() {
                            let file = disk.open::<u8>(name);
                            disk.release_read(&file, start + count);
                        }
                        *released = (*released).max(start + count);
                    }
                    6 | 7 if model.contains_key(name) => {
                        // Read ahead up to a dozen pages from around an extent
                        // edge, then twice as far over what may now be in
                        // flight; half the time after write-back left the
                        // pool clean.
                        if op == 7 {
                            engine.sync(proc);
                        }
                        let len = model[name].0.len();
                        let (start, _) = read_range(len, pick);
                        let count = ((pick >> 48) as usize % (12 * MODEL_PAGE)).min(len - start);
                        check_prefetch(&mut engine, proc, ids[name], start, count);
                        check_prefetch(&mut engine, proc, ids[name], start, (2 * count).min(len - start));
                    }
                    8.. => {
                        let bytes = pattern(step as u64, sizes[pick as usize % sizes.len()]);
                        for disk in disks.iter_mut() {
                            if !disk.exists(name) {
                                disk.create::<u8>(name);
                            }
                            let file = disk.open::<u8>(name);
                            // One-byte records: the bytes are the chunk.
                            disk.append_chunk(proc, &file, RecChunk::new(&bytes).expect("whole records"));
                        }
                        let held = &mut model.entry(name).or_default().0;
                        let id = *ids.entry(name).or_insert(step as u64);
                        engine.append(proc, id, held.len() as u64, bytes.len());
                        held.extend_from_slice(&bytes);
                    }
                    _ => {}
                }
                peak = peak.max(check_against_model(&model, &mut disks, proc, step));
                // One scratch file once a byte was written; the free list
                // (deleted and released extents) is used before it grows, and
                // its last extent is not padded.
                let scratch = file_lens(&dir);
                assert_eq!(scratch.len(), usize::from(peak > 0), "step {step}");
                let len = scratch.first().map_or(0, |&len| len as usize);
                assert!(len <= peak * EXTENT_BYTES, "step {step}: {len} bytes for a peak of {peak} extents");
                assert!(len + EXTENT_BYTES > peak * EXTENT_BYTES, "step {step}: {len} bytes, peak {peak}");
            }
        });
        drop(farms);
        prop_assert_eq!(file_lens(&dir), Vec::<u64>::new(), "a dropped farm leaves no file");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn redistribute_conserves_and_places(
        per_proc in proptest::collection::vec(0usize..80, 1..5),
        chunk in 1usize..40,
        route_mod in 1u64..7,
    ) {
        let p = per_proc.len();
        let farm = DiskFarm::in_memory(p);
        let cluster = Cluster::new(p);
        let per_proc = std::sync::Arc::new(per_proc);
        let pp = std::sync::Arc::clone(&per_proc);
        let farm_ref = &farm;
        let out = cluster.run(move |proc| {
            let (src, dst) = {
                let mut disk = farm_ref.lock(proc.rank());
                let src = disk.create::<u64>("src");
                let dst = disk.create::<u64>("dst");
                let data: Vec<u64> = (0..pp[proc.rank()])
                    .map(|i| (proc.rank() * 1_000 + i) as u64)
                    .collect();
                disk.append_uncharged(&src, &data);
                (src, dst)
            };
            let p = proc.nprocs() as u64;
            let got = redistribute(proc, farm_ref, &src, &dst, chunk, move |r| {
                ((*r % route_mod) % p) as usize
            });
            let mut disk = farm_ref.lock(proc.rank());
            disk.read_all_uncharged(&dst).len() == got
        });
        prop_assert!(out.results.iter().all(|&ok| ok));
        // Conservation: total received equals total sent.
        let total_in: usize = per_proc.iter().sum();
        let mut total_out = 0usize;
        for rank in 0..p {
            let mut disk = farm.lock(rank);
            let dst = disk.open::<u64>("dst");
            let records = disk.read_all_uncharged(&dst);
            for r in &records {
                prop_assert_eq!(
                    ((*r % route_mod) % p as u64) as usize,
                    rank,
                    "record {} misplaced", r
                );
            }
            total_out += records.len();
        }
        prop_assert_eq!(total_out, total_in);
    }

    #[test]
    fn every_rec_type_roundtrips_through_its_fixed_layout(
        a in any::<u64>(),
        b in any::<u32>(),
        c in any::<u8>(),
        x in -1e300f64..1e300,
    ) {
        check_layout(c);
        check_layout(b);
        check_layout(a);
        check_layout(a as i64);
        check_layout(x);
        check_layout((a, x));
        check_layout((c, b));
        check_layout((c, a as i64, x));
        check_layout(((b, c), (x, a), c));
    }

    #[test]
    fn views_and_batches_refuse_hostile_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        cut in 0usize..300,
    ) {
        let bytes = &bytes[..cut.min(bytes.len())];
        // A view exists exactly when the length is a whole number of records.
        prop_assert_eq!(RecChunk::<u64>::new(bytes).is_ok(), bytes.len() % 8 == 0);
        prop_assert_eq!(RecChunk::<(u8, u32, f64)>::new(bytes).is_ok(), bytes.len() % 13 == 0);
        if let Ok(view) = RecChunk::<(u8, u32, f64)>::new(bytes) {
            prop_assert_eq!(view.iter().count(), view.len());
        }
        // A batch message is a count and that many records, nothing else.
        match RecBuf::<(u32, u8)>::from_bytes(bytes) {
            Ok(batch) => prop_assert_eq!(bytes.len(), 8 + batch.len() * 5),
            Err(e) => prop_assert!(!e.what.is_empty()),
        }
    }

    #[test]
    fn chunked_reader_equals_read_all(
        n in 0usize..300,
        chunk in 1usize..64,
    ) {
        let farm = DiskFarm::in_memory(1);
        let cluster = Cluster::new(1);
        let out = cluster.run(|proc| {
            let mut disk = farm.lock(0);
            let f = disk.create::<u64>("data");
            let values: Vec<u64> = (0..n as u64).collect();
            disk.append(proc, &f, &values);
            let mut reader = disk.reader(&f, chunk);
            let mut collected = Vec::new();
            while let Some(batch) = reader.next_chunk(&mut disk, proc) {
                collected.extend(batch);
            }
            collected == disk.read_all(proc, &f)
        });
        prop_assert!(out.results[0]);
    }
}

/// What a caller must not ask of a disk panics on both kinds, naming the
/// rank, before anything is charged or read: a range past the end, and one
/// whose end overflows.
#[test]
fn out_of_range_reads_panic_on_both_kinds_of_disk() {
    let dir = scratch_dir("range");
    for kind in [BackendKind::InMemory, BackendKind::OnDisk(dir.clone())] {
        for (start, count) in [(EXTENT_BYTES, 2), (3, usize::MAX - 1)] {
            let farm = DiskFarm::new(1, kind.clone());
            let failure = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Cluster::new(1).run(|proc| {
                    let mut disk = farm.lock(0);
                    let file = disk.create::<u8>("x");
                    let bytes = pattern(0, EXTENT_BYTES + 1);
                    disk.append_chunk(proc, &file, RecChunk::new(&bytes).expect("whole records"));
                    disk.read_range_into(proc, &file, start, count, &mut RecBuf::new()).len()
                })
            }));
            let payload = failure.err().unwrap_or_else(|| panic!("{kind:?} [{start}, +{count}) was read"));
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.contains("pario: rank 0 read_range"), "{kind:?}: {message}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A dealt stream leaves each rank the records, and visits them in the
    /// order, that a plain loop over the stream would: round-robin, and
    /// contiguous shares whose sum is below, at or above the stream's
    /// length, which is read no further than the deal needs.
    #[test]
    fn a_dealt_stream_equals_a_plain_loop(
        n in 0usize..3 * BATCH_RECORDS + 9,
        p in 1usize..70,
        raw_shares in proptest::collection::vec(0u64..40_000, 70),
    ) {
        let shares = &raw_shares[..p];
        for deal in [Deal::RoundRobin, Deal::Shares(shares)] {
            let mut want = vec![Vec::new(); p];
            let mut start = 0;
            match deal {
                Deal::RoundRobin => (0..n as u64).for_each(|i| want[i as usize % p].push(i)),
                Deal::Shares(shares) => {
                    for (rank, &share) in shares.iter().enumerate() {
                        let end = (start + share).min(n as u64);
                        want[rank].extend(start.min(end)..end);
                        start += share;
                    }
                }
            }
            let read = want.iter().map(Vec::len).sum::<usize>();
            let pulled = AtomicUsize::new(0);
            let stream = (0..n as u64).inspect(|_| {
                pulled.fetch_add(1, Ordering::Relaxed);
            });
            let farm = DiskFarm::in_memory(p);
            let mut visited = Vec::new();
            let dealt = deal_stream(&farm, "dealt", stream, deal, |x| visited.push(x));
            prop_assert_eq!(pulled.load(Ordering::Relaxed), read, "{:?}: records pulled", deal);
            prop_assert_eq!(visited, (0..read as u64).collect::<Vec<_>>(), "{:?}: visit order", deal);
            for (rank, want) in want.iter().enumerate() {
                prop_assert_eq!(dealt[rank], want.len() as u64);
                let mut disk = farm.lock(rank);
                let file = disk.open::<u64>("dealt");
                prop_assert_eq!(&disk.read_all_uncharged(&file), want, "{:?}: rank {}", deal, rank);
            }
        }
    }
}
