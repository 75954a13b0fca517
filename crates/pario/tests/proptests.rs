//! Property-based tests: redistribution conserves and correctly places
//! records for arbitrary routing functions, chunk sizes and machine sizes;
//! the fixed record layout round-trips every `Rec` type, equals its `Wire`
//! bytes, and hostile buffers are refused with an error, never a panic.

use pdc_cgm::{Cluster, Wire};
use pdc_pario::{redistribute, DiskFarm, RaggedChunk, Rec, RecBuf, RecChunk};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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
