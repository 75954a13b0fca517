//! Property-based tests of the wire format and the collectives.

use pdc_cgm::{Cluster, Histogram, HistogramSpec, Wire};
use proptest::prelude::*;

/// The `encoded_len` contract: exactly the bytes `encode` writes, since a
/// board collective charges that length for the message it never encodes.
fn assert_encoded_len<T: Wire>(v: &T) {
    prop_assert_eq!(v.encoded_len(), v.to_bytes().len(), "{}", std::any::type_name::<T>());
}

/// Decode `bytes` as a `T`: it may fail, it may not panic, and a value it
/// yields may not hold more reserved elements (`capacities`) than the input
/// had bytes to describe — a length prefix is never trusted on its own.
fn decode_hostile<T: Wire>(bytes: &[u8], capacities: &impl Fn(&T) -> Vec<usize>) {
    if let Ok(v) = T::from_bytes(bytes) {
        for cap in capacities(&v) {
            prop_assert!(cap <= 16 + bytes.len(), "capacity {cap} from {} bytes", bytes.len());
        }
    }
}

/// Arbitrary bytes, every truncation of `valid`'s encoding and a one-byte
/// mutation (`flip`, nonzero) at every position of it.
fn hostile_bytes<T: Wire>(
    valid: &T,
    junk: &[u8],
    flip: u8,
    capacities: impl Fn(&T) -> Vec<usize>,
) {
    decode_hostile(junk, &capacities);
    let bytes = valid.to_bytes();
    for cut in 0..bytes.len() {
        decode_hostile(&bytes[..cut], &capacities);
    }
    for at in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[at] ^= flip;
        decode_hostile(&mutated, &capacities);
    }
}

/// Arbitrary bytes and a nonzero mutation mask.
fn junk_and_flip() -> impl Strategy<Value = (Vec<u8>, u8)> {
    (proptest::collection::vec(any::<u8>(), 0..96), 1u8..=255)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encoded_len_is_the_encoding_length_of_primitives_and_containers(
        x in any::<u64>(),
        f in any::<f64>(),
        flag in any::<bool>(),
        s in "\\PC{0,16}",
        pairs in proptest::collection::vec(
            ((any::<bool>(), any::<u32>()), proptest::collection::vec(any::<u8>(), 0..8)),
            0..8,
        ),
        rows in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..6), 0..6),
    ) {
        assert_encoded_len(&(x as u8));
        assert_encoded_len(&(x as u16));
        assert_encoded_len(&(x as u32));
        assert_encoded_len(&x);
        assert_encoded_len(&(x as i8));
        assert_encoded_len(&(x as i16));
        assert_encoded_len(&(x as i32));
        assert_encoded_len(&(x as i64));
        assert_encoded_len(&(f as f32));
        assert_encoded_len(&f);
        assert_encoded_len(&(x as usize));
        assert_encoded_len(&flag);
        assert_encoded_len(&());
        assert_encoded_len(&s);
        // Nested vectors, options and tuples of every arity.
        let nested: Vec<Option<(u32, Vec<u8>)>> = pairs
            .iter()
            .map(|((some, v), bytes)| some.then(|| (*v, bytes.clone())))
            .collect();
        assert_encoded_len(&nested);
        assert_encoded_len(&flag.then(|| rows.clone()));
        assert_encoded_len(&rows);
        assert_encoded_len(&(x,));
        assert_encoded_len(&(x as u8, rows.clone()));
        assert_encoded_len(&(flag, s.clone(), f));
        assert_encoded_len(&(x as u16, nested.clone(), (), Some(f)));
        assert_encoded_len(&(x as i32, flag, s, nested, vec![(); pairs.len()]));
    }

    #[test]
    fn encoded_len_is_the_encoding_length_of_a_histogram(
        values in proptest::collection::vec(0.0f64..2e6, 0..64),
        big in any::<u64>(),
    ) {
        let spec = HistogramSpec::new(1.0, 1e6, 3);
        assert_encoded_len(&spec);
        let mut h = Histogram::new(spec);
        assert_encoded_len(&h);
        for v in values {
            h.record(v);
        }
        assert_encoded_len(&h);
        // A count of at least 2^63 takes a ten-byte varint.
        h.record_n(5.0, (1 << 63) + (big >> 2));
        assert_encoded_len(&h);
    }

    #[test]
    fn wire_roundtrip_u64_vec(v in proptest::collection::vec(any::<u64>(), 0..64)) {
        let bytes = v.to_bytes();
        prop_assert_eq!(Vec::<u64>::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn wire_roundtrip_f64(x in any::<f64>()) {
        // NaN compares unequal; compare bit patterns instead.
        let back = f64::from_bytes(&x.to_bytes()).unwrap();
        prop_assert_eq!(back.to_bits(), x.to_bits());
    }

    #[test]
    fn wire_roundtrip_nested(
        v in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..16)),
            0..16,
        )
    ) {
        let bytes = v.to_bytes();
        prop_assert_eq!(Vec::<(u32, Vec<u8>)>::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn wire_roundtrip_string(s in "\\PC{0,40}") {
        let bytes = s.to_bytes();
        prop_assert_eq!(String::from_bytes(&bytes).unwrap(), s);
    }

    #[test]
    fn wire_rejects_truncation(v in proptest::collection::vec(any::<u32>(), 1..16)) {
        let bytes = v.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(Vec::<u32>::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn hostile_bytes_vec_u64(
        v in proptest::collection::vec(any::<u64>(), 0..12),
        (junk, flip) in junk_and_flip(),
    ) {
        hostile_bytes(&v, &junk, flip, |v| vec![v.capacity()]);
    }

    #[test]
    fn hostile_bytes_nested_vec(
        v in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..6), 0..6),
        (junk, flip) in junk_and_flip(),
    ) {
        hostile_bytes(&v, &junk, flip, |v| {
            v.iter().map(Vec::capacity).chain([v.capacity()]).collect()
        });
    }

    #[test]
    fn hostile_bytes_gather_wire_form(
        v in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..24)),
            0..6,
        ),
        (junk, flip) in junk_and_flip(),
    ) {
        // What `gather` / `all_gather` put on the wire: (rank, encoded value).
        hostile_bytes(&v, &junk, flip, |v| {
            v.iter().map(|(_, b)| b.capacity()).chain([v.capacity()]).collect()
        });
    }

    #[test]
    fn hostile_bytes_string(s in "\\PC{0,24}", (junk, flip) in junk_and_flip()) {
        hostile_bytes(&s, &junk, flip, |s| vec![s.capacity()]);
    }

    #[test]
    fn hostile_bytes_option_pair(
        (some, x, n) in (any::<bool>(), any::<f64>(), any::<u64>()),
        (junk, flip) in junk_and_flip(),
    ) {
        // The wire form of `min_loc`'s operand, optional.
        hostile_bytes(&some.then_some((x, n)), &junk, flip, |_| vec![]);
    }

    #[test]
    fn allreduce_sums_any_values(
        p in 1usize..6,
        base in proptest::collection::vec(0u64..1_000_000, 6),
    ) {
        let cluster = Cluster::new(p);
        let base = std::sync::Arc::new(base);
        let expected: u64 = base.iter().take(p).sum();
        let b2 = std::sync::Arc::clone(&base);
        let out = cluster.run(move |proc| {
            proc.allreduce(b2[proc.rank()], |a, b| a + b)
        });
        prop_assert!(out.results.iter().all(|&r| r == expected));
    }

    #[test]
    fn scan_matches_sequential_prefix(
        p in 1usize..6,
        base in proptest::collection::vec(0u64..1_000_000, 6),
    ) {
        let cluster = Cluster::new(p);
        let base = std::sync::Arc::new(base);
        let b2 = std::sync::Arc::clone(&base);
        let out = cluster.run(move |proc| proc.scan(b2[proc.rank()], |a, b| a + b));
        let mut acc = 0u64;
        for (rank, &got) in out.results.iter().enumerate() {
            acc += base[rank];
            prop_assert_eq!(got, acc);
        }
    }

    #[test]
    fn all_to_all_is_a_permutation_of_payloads(
        p in 1usize..5,
        seed in any::<u64>(),
    ) {
        let cluster = Cluster::new(p);
        let out = cluster.run(|proc| {
            let parts: Vec<u64> = (0..proc.nprocs())
                .map(|dst| seed ^ ((proc.rank() as u64) << 32) ^ dst as u64)
                .collect();
            proc.all_to_all(parts)
        });
        for (rank, received) in out.results.iter().enumerate() {
            for (src, &v) in received.iter().enumerate() {
                prop_assert_eq!(v, seed ^ ((src as u64) << 32) ^ rank as u64);
            }
        }
    }
}
