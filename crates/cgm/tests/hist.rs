//! Property and integration tests of [`pdc_cgm::hist`]: the merge
//! operation must be associative and commutative (so cluster reductions
//! are shape-independent), quantiles must stay within the spec's relative
//! error of the exact nearest-rank answer, and per-rank histograms must
//! reduce through the ordinary collectives.

use pdc_cgm::{Cluster, Histogram, HistogramSpec, Wire};
use proptest::prelude::*;

fn spec() -> HistogramSpec {
    HistogramSpec::new(1e-6, 60.0, 2)
}

fn hist_of(samples: &[f64]) -> Histogram {
    let mut h = Histogram::new(spec());
    for &v in samples {
        h.record(v);
    }
    h
}

/// Samples spanning underflow, the full bucket range, and overflow.
fn sample_vec() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1e-8f64..100.0, 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative(a in sample_vec(), b in sample_vec()) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(
        a in sample_vec(),
        b in sample_vec(),
        c in sample_vec(),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_equals_union(a in sample_vec(), b in sample_vec()) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let mut union: Vec<f64> = a.clone();
        union.extend_from_slice(&b);
        prop_assert_eq!(merged, hist_of(&union));
    }

    #[test]
    fn quantile_within_relative_error(samples in proptest::collection::vec(2e-6f64..59.0, 1..300)) {
        let h = hist_of(&samples);
        let mut exact = samples.clone();
        exact.sort_by(f64::total_cmp);
        let s = spec();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let e = exact[rank - 1];
            let approx = h.quantile(q);
            prop_assert!(
                approx >= e - 1e-15 && approx <= e * (1.0 + s.rel_error()) + 1e-15,
                "q={} approx={} exact={}", q, approx, e
            );
        }
    }

    #[test]
    fn wire_roundtrips_any_contents(samples in sample_vec()) {
        let h = hist_of(&samples);
        prop_assert_eq!(Histogram::from_bytes(&h.to_bytes()).unwrap(), h);
    }
}

/// Decode hostile `bytes` as a histogram: an error or a value, never a
/// panic, and never a layout larger than the decoder's cap (the bucket
/// arrays are sized from the spec, not from a length prefix).
fn decode_hostile(bytes: &[u8]) {
    if let Ok(h) = Histogram::from_bytes(bytes) {
        assert!(h.num_buckets() <= 1 << 22, "{} buckets decoded", h.num_buckets());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hostile_bytes_histogram(
        samples in proptest::collection::vec(1e-8f64..100.0, 0..24),
        junk in proptest::collection::vec(any::<u8>(), 0..96),
        flip in 1u8..=255,
    ) {
        decode_hostile(&junk);
        let bytes = hist_of(&samples).to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(Histogram::from_bytes(&bytes[..cut]).is_err(), "truncated at {cut}");
        }
        for at in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[at] ^= flip;
            decode_hostile(&mutated);
        }
    }
}

#[test]
fn hostile_specs_are_refused_before_their_layout_is_built() {
    // The three frames the decoder used to act on: a subnormal first edge
    // (which `*= growth` never moves — the layout loop did not end), a
    // range of 600 decades at five figures (1.4e8 buckets, 2 GB), and a
    // bucket gap that overflows the running index.
    let frame = |min: f64, max: f64, sig_figs: u8, tail: &[u8]| {
        let mut bytes = min.to_bytes();
        bytes.extend(max.to_bytes());
        bytes.push(sig_figs);
        bytes.extend_from_slice(tail);
        bytes
    };
    assert!(Histogram::from_bytes(&frame(5e-324, 1e-323, 2, &[])).is_err());
    assert!(Histogram::from_bytes(&frame(0.0, 1e-310, 2, &[])).is_err());
    assert!(Histogram::from_bytes(&frame(1e-300, 1e300, 5, &[])).is_err());
    let mut tail = Vec::new();
    tail.extend(f64::INFINITY.to_bits().to_bytes()); // min_seen
    tail.extend(f64::NEG_INFINITY.to_bits().to_bytes()); // max_seen
    tail.extend([0, 0, 2]); // underflow, overflow, two non-empty buckets
    tail.extend([1, 1]); // bucket 1 holds 1
    tail.extend([0xff; 9]); // gap = u64::MAX ...
    tail.extend([1, 1]); // ... closed by a final byte, then count 1
    assert!(Histogram::from_bytes(&frame(1e-6, 60.0, 2, &tail)).is_err());
}

#[test]
fn per_rank_histograms_reduce_through_allreduce() {
    // Each rank records its own latencies; one allreduce with `merge` as
    // the combiner produces, on every rank, exactly the histogram of the
    // union — independent of the reduction tree the collective uses.
    for p in [1usize, 2, 3, 5, 8] {
        let out = Cluster::new(p).run(|proc| {
            let mut h = Histogram::new(spec());
            for i in 0..50 {
                h.record(1e-4 * (proc.rank() as f64 + 1.0) * (i as f64 + 1.0));
            }
            proc.allreduce(h, |mut a, b| {
                a.merge(&b);
                a
            })
        });
        let mut expected = Histogram::new(spec());
        for rank in 0..p {
            for i in 0..50 {
                expected.record(1e-4 * (rank as f64 + 1.0) * (i as f64 + 1.0));
            }
        }
        for h in &out.results {
            assert_eq!(h, &expected, "p={p}: reduced histogram must be the union");
        }
    }
}

#[test]
fn reduction_is_shape_independent() {
    // The same per-rank contents reduced over different processor counts
    // (and therefore different binomial-tree shapes) always yield the
    // union histogram — the practical payoff of associativity +
    // commutativity with integer counts.
    let contents: Vec<Vec<f64>> = (0..8)
        .map(|r| (0..20).map(|i| 1e-3 * ((r * 20 + i) as f64 + 1.0)).collect())
        .collect();
    let mut expected = Histogram::new(spec());
    for c in &contents {
        for &v in c {
            expected.record(v);
        }
    }
    let contents = std::sync::Arc::new(contents);
    for p in [8usize] {
        let contents = std::sync::Arc::clone(&contents);
        let out = Cluster::new(p).run(move |proc| {
            let mut h = Histogram::new(spec());
            for &v in &contents[proc.rank()] {
                h.record(v);
            }
            proc.allreduce(h, |mut a, b| {
                a.merge(&b);
                a
            })
        });
        for h in &out.results {
            assert_eq!(h, &expected);
        }
    }
}
