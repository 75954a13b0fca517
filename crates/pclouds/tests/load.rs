//! The streaming loader deals its records in two lanes (a helper thread
//! generates and encodes, the caller samples, counts and appends); what it
//! leaves behind must be exactly what a plain loop over the stream leaves:
//! the same class counts, the same sample and the same bytes on every
//! rank's disk, on both backends, at every batch boundary. A panic on
//! either lane must end the load with that panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pdc_clouds::Reservoir;
use pdc_datagen::{generate, GeneratorConfig, Record, NUM_CLASSES};
use pdc_pario::{BackendKind, DiskFarm, RecBuf, BATCH_RECORDS};
use pdc_pclouds::load_dataset_stream;

const SAMPLE: usize = 1_000;
const SEED: u64 = 7;

/// The loader as one sequential loop: counts, sample and each rank's file
/// bytes.
fn reference(records: &[Record], p: usize) -> (Vec<u64>, Vec<Record>, Vec<Vec<u8>>) {
    let mut counts = vec![0u64; NUM_CLASSES];
    let mut reservoir = Reservoir::new(SAMPLE, SEED);
    let mut ranks = vec![Vec::new(); p];
    for (i, r) in records.iter().enumerate() {
        counts[r.class as usize] += 1;
        reservoir.offer(*r);
        ranks[i % p].push(*r);
    }
    let bytes = ranks.iter().map(|rank| RecBuf::from_records(rank).view().bytes().to_vec()).collect();
    (counts, reservoir.into_sample(), bytes)
}

/// Each rank's one file, as bytes.
fn file_bytes(farm: &DiskFarm) -> Vec<Vec<u8>> {
    (0..farm.nprocs())
        .map(|rank| {
            let mut disk = farm.lock(rank);
            let names = disk.file_names();
            assert_eq!(names.len(), 1, "rank {rank} holds {names:?}");
            let file = disk.open::<Record>(&names[0]);
            RecBuf::from_records(&disk.read_all_uncharged(&file)).view().bytes().to_vec()
        })
        .collect()
}

/// The text a panic was raised with.
fn message(payload: &(dyn std::any::Any + Send)) -> String {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => s.to_string(),
        (_, Some(s)) => s.clone(),
        _ => "(not a string)".into(),
    }
}

#[test]
fn the_two_lane_load_equals_a_sequential_loop_at_every_batch_boundary() {
    let b = BATCH_RECORDS;
    let all = generate(3 * b + 5, GeneratorConfig::default());
    let dir = std::env::temp_dir().join(format!("pclouds-load-{}", std::process::id()));
    for p in [1, 3, 4, 64] {
        let mut sizes = vec![0, 1, p - 1, p, b - 1, b, b + 1, 3 * b + 5];
        sizes.dedup();
        for n in sizes {
            let records = &all[..n];
            let (counts, sample, bytes) = reference(records, p);
            for kind in [BackendKind::InMemory, BackendKind::OnDisk(dir.clone())] {
                let farm = DiskFarm::new(p, kind.clone());
                let root = load_dataset_stream(&farm, records.iter().copied(), SAMPLE, SEED);
                let at = format!("n = {n}, p = {p}, {kind:?}");
                assert_eq!(root.counts, counts, "{at}: counts");
                assert_eq!(root.sample, sample, "{at}: sample");
                assert!(file_bytes(&farm) == bytes, "{at}: file bytes differ");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stream_that_panics_ends_the_load_with_its_panic() {
    let records = generate(3 * BATCH_RECORDS, GeneratorConfig::default());
    let farm = DiskFarm::in_memory(4);
    // Past the first batch, so one batch has been appended already.
    let stream = records.iter().enumerate().map(|(i, r)| {
        assert!(i != BATCH_RECORDS + 7, "the stream broke at record {i}");
        *r
    });
    let err = catch_unwind(AssertUnwindSafe(|| load_dataset_stream(&farm, stream, SAMPLE, SEED)))
        .expect_err("the load must fail");
    assert_eq!(message(&*err), format!("the stream broke at record {}", BATCH_RECORDS + 7));
}

#[test]
fn an_append_that_panics_ends_the_load_with_its_panic() {
    let records = generate(3 * BATCH_RECORDS, GeneratorConfig::default());
    let farm = DiskFarm::in_memory(4);
    // The stream deletes rank 2's file as it yields a record of the second
    // batch: the calling thread's next append to rank 2 finds no file.
    let stream = records.iter().enumerate().map(|(i, r)| {
        if i == BATCH_RECORDS + 7 {
            let mut disk = farm.lock(2);
            let names = disk.file_names();
            disk.delete(&names[0]);
        }
        *r
    });
    let err = catch_unwind(AssertUnwindSafe(|| load_dataset_stream(&farm, stream, SAMPLE, SEED)))
        .expect_err("the load must fail");
    let msg = message(&*err);
    assert!(msg.contains("missing (deleted?)"), "unexpected panic: {msg}");
}
