//! Deterministic HDR-style log-bucketed histograms with bounded relative
//! error, for latency/size distributions that must survive aggregation.
//!
//! The serving path records one latency per batch; a production fleet
//! records millions. Keeping every sample (the `Vec<f64>` the first
//! serving harness used) costs memory linear in traffic, and percentiles
//! over it cannot be combined across ranks without shipping the raw
//! samples. A [`Histogram`] fixes both:
//!
//! * **Fixed layout, bounded memory.** The bucket boundaries are derived
//!   once from a [`HistogramSpec`] `(min, max, sig_figs)`: geometrically
//!   growing buckets `(bᵢ₋₁, bᵢ]` with `bᵢ = min·gⁱ⁺¹` and growth
//!   `g = 1 + 10^-sig_figs`. Any value in `[min, max]` lands in a bucket
//!   whose upper edge overestimates it by at most a factor `g`, so every
//!   quantile query is within one bucket's relative error
//!   ([`HistogramSpec::rel_error`]) of the exact nearest-rank answer.
//!   The layout is a pure function of the spec — no per-value `ln` calls,
//!   just a binary search over precomputed edges — so two ranks with the
//!   same spec always agree bucket-for-bucket.
//! * **Mergeable.** Counts are integers and the layout is shared, so
//!   [`Histogram::merge`] is associative *and* commutative — per-rank
//!   histograms reduce across the cluster through the existing
//!   collectives ([`crate::Proc::allreduce`] with `merge` as the
//!   combiner) and the result is independent of the reduction tree's
//!   shape. The exact observed minimum and maximum ride along (`f64::min`
//!   / `f64::max` are associative and commutative on non-NaN inputs).
//! * **Wire-encodable.** The sparse varint encoding (gap/count pairs,
//!   like the PR 5 histogram payloads) keeps mostly-empty bucket arrays
//!   small on the network.
//!
//! Values below `min` are clamped into an underflow bucket (reported as
//! `min`), values above `max` into an overflow bucket (reported as the
//! exact observed maximum); the relative-error bound applies to values
//! inside `[min, max]`. A spec may set `min = 0.0` — zero-duration
//! samples are routine in a virtual-time system (a cache hit costs zero
//! seconds) — in which case the geometric layout starts at
//! [`HistogramSpec::layout_min`] and everything at or below it (including
//! exact zeros) clamps into underflow, reported as `0.0`.
//!
//! ```
//! use pdc_cgm::hist::{Histogram, HistogramSpec};
//!
//! let spec = HistogramSpec::new(1e-6, 60.0, 2); // 1 µs .. 60 s, ~1% error
//! let mut a = Histogram::new(spec);
//! let mut b = Histogram::new(spec);
//! for i in 1..=900 {
//!     a.record(i as f64 * 1e-3);
//! }
//! for i in 901..=1000 {
//!     b.record(i as f64 * 1e-3);
//! }
//! a.merge(&b);
//! assert_eq!(a.count(), 1000);
//! let p50 = a.quantile(0.50);
//! assert!((p50 - 0.5).abs() <= 0.5 * spec.rel_error() + 1e-12);
//! assert_eq!(a.max(), 1.0); // exact, not bucketed
//! ```

use crate::wire::{decode_varint, encode_varint, varint_len, DecodeError, DecodeResult, Wire};

/// The fixed bucket layout of a [`Histogram`]: trackable range and
/// resolution. Two histograms merge iff their specs are equal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSpec {
    /// Smallest trackable value (exclusive lower edge of the first
    /// bucket); values below clamp into the underflow bucket. Must be
    /// non-negative. `min == 0.0` is allowed — zero-duration samples are
    /// routine (a cache hit served in zero virtual time) — and makes the
    /// underflow bucket report exactly `0.0`; the geometric layout then
    /// starts at a tiny positive [`HistogramSpec::layout_min`] because a
    /// geometric progression cannot start at zero.
    pub min: f64,
    /// Largest trackable value; values above clamp into the overflow
    /// bucket. Must exceed `min`.
    pub max: f64,
    /// Significant decimal figures of resolution: the relative error of a
    /// quantile query is bounded by `10^-sig_figs`. 1..=5.
    pub sig_figs: u8,
}

impl HistogramSpec {
    /// Build a spec, validating the range and resolution.
    pub fn new(min: f64, max: f64, sig_figs: u8) -> HistogramSpec {
        assert!(min >= 0.0 && min.is_finite(), "min must be non-negative");
        assert!(max > min && max.is_finite(), "max must exceed min");
        assert!(
            (1..=5).contains(&sig_figs),
            "sig_figs must be in 1..=5 (got {sig_figs})"
        );
        HistogramSpec { min, max, sig_figs }
    }

    /// The default latency spec used by the serving harness: 1 µs to 60
    /// virtual seconds at two significant figures (≤ 1% relative error,
    /// ~1 800 buckets, ~14 KiB).
    pub fn latency_default() -> HistogramSpec {
        HistogramSpec::new(1e-6, 60.0, 2)
    }

    /// Geometric growth factor between consecutive bucket edges.
    pub fn growth(&self) -> f64 {
        1.0 + self.rel_error()
    }

    /// Bound on the relative error of a quantile query for values inside
    /// `[min, max]`: `10^-sig_figs`.
    pub fn rel_error(&self) -> f64 {
        10f64.powi(-i32::from(self.sig_figs))
    }

    /// Where the geometric bucket layout actually starts: `min` itself
    /// when positive, else (for `min == 0.0`) nine decades below `max` —
    /// a geometric progression cannot start at zero, so zero-min specs
    /// treat everything at or below this threshold as underflow (reported
    /// as exactly `0.0` by quantile queries).
    pub fn layout_min(&self) -> f64 {
        if self.min > 0.0 {
            self.min
        } else {
            self.max * 1e-9
        }
    }

    /// Whether [`HistogramSpec::edges`] can build this layout: it starts at
    /// a normal float (a subnormal edge does not grow under `*= growth`, so
    /// the loop would never end) and has at most [`MAX_DECODED_BUCKETS`]
    /// edges. The decoder checks this before allocating anything from a
    /// spec it was handed.
    fn layout_is_bounded(&self) -> bool {
        let start = self.layout_min();
        start.is_normal()
            && (self.max / start).ln() / self.growth().ln() <= MAX_DECODED_BUCKETS as f64
    }

    /// Upper bucket edges `m·g, m·g², …` for `m = layout_min()`, the last
    /// edge ≥ `max`. Computed by repeated multiplication — deterministic
    /// for a given spec, identical on every rank.
    fn edges(&self) -> Vec<f64> {
        let g = self.growth();
        let mut edges = Vec::new();
        let mut edge = self.layout_min();
        while edge < self.max {
            edge *= g;
            edges.push(edge);
        }
        edges
    }
}

/// Most buckets a decoded spec may lay out: twice what five significant
/// figures over nine decades need (2.07 M). A spec claiming more is
/// corrupt, and is rejected before its edges are computed.
const MAX_DECODED_BUCKETS: usize = 1 << 22;

impl Wire for HistogramSpec {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.min.encode(buf);
        self.max.encode(buf);
        buf.push(self.sig_figs);
    }
    fn encoded_len(&self) -> usize {
        17
    }
    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        let min = f64::decode(buf)?;
        let max = f64::decode(buf)?;
        let sig_figs = u8::decode(buf)?;
        let spec = HistogramSpec { min, max, sig_figs };
        if !(min >= 0.0 && min.is_finite() && max > min && max.is_finite())
            || !(1..=5).contains(&sig_figs)
            || !spec.layout_is_bounded()
        {
            return Err(DecodeError::malformed("histogram spec out of range", buf));
        }
        Ok(spec)
    }
}

/// A mergeable log-bucketed histogram (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    spec: HistogramSpec,
    /// Upper bucket edges; bucket `i` covers `(edges[i-1], edges[i]]`
    /// (bucket 0 covers `(layout_min, edges[0]]`, with `v ≤ layout_min`
    /// in underflow).
    edges: Vec<f64>,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    /// Exact extremes of everything recorded (±∞ when empty).
    min_seen: f64,
    max_seen: f64,
}

impl Histogram {
    /// New empty histogram with the given bucket layout.
    pub fn new(spec: HistogramSpec) -> Histogram {
        let edges = spec.edges();
        let counts = vec![0; edges.len()];
        Histogram {
            spec,
            edges,
            counts,
            underflow: 0,
            overflow: 0,
            min_seen: f64::INFINITY,
            max_seen: f64::NEG_INFINITY,
        }
    }

    /// The layout this histogram was built with.
    pub fn spec(&self) -> HistogramSpec {
        self.spec
    }

    /// Number of buckets in the layout (excluding underflow/overflow).
    pub fn num_buckets(&self) -> usize {
        self.counts.len()
    }

    /// Record one value. Non-finite values are rejected with a panic —
    /// the virtual clock never produces them.
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Record `n` occurrences of `value`.
    pub fn record_n(&mut self, value: f64, n: u64) {
        assert!(value.is_finite(), "histogram values must be finite");
        if n == 0 {
            return;
        }
        self.min_seen = self.min_seen.min(value);
        self.max_seen = self.max_seen.max(value);
        if value <= self.spec.layout_min() {
            self.underflow += n;
        } else if value > self.spec.max {
            self.overflow += n;
        } else {
            let i = self.edges.partition_point(|&e| e < value);
            self.counts[i] += n;
        }
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.underflow + self.overflow + self.counts.iter().sum::<u64>()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min(&self) -> f64 {
        if self.min_seen.is_finite() {
            self.min_seen
        } else {
            0.0
        }
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> f64 {
        if self.max_seen.is_finite() {
            self.max_seen
        } else {
            0.0
        }
    }

    /// Merge another histogram of the **same spec** into this one
    /// (associative and commutative; panics on layout mismatch).
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.spec, other.spec,
            "cannot merge histograms with different bucket layouts"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.min_seen = self.min_seen.min(other.min_seen);
        self.max_seen = self.max_seen.max(other.max_seen);
    }

    /// Nearest-rank quantile, `q ∈ [0, 1]`: the value at rank
    /// `⌈q·count⌉` (clamped to `[1, count]`). Returns the containing
    /// bucket's upper edge (clamped to `max`), so the answer is within
    /// [`HistogramSpec::rel_error`] of the exact nearest-rank value for
    /// samples inside `[min, max]`; underflow reports `spec.min`,
    /// overflow reports the exact observed maximum. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = self.underflow;
        if rank <= seen {
            return self.spec.min;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank <= seen {
                return self.edges[i].min(self.spec.max).min(self.max());
            }
        }
        self.max()
    }

    /// Sparse iterator over `(bucket_upper_edge, count)` for the non-empty
    /// buckets, in value order (underflow/overflow excluded).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.edges
            .iter()
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|(&e, &c)| (e, c))
    }
}

impl Wire for Histogram {
    /// Spec + extremes + underflow/overflow + sparse `(gap, count)` varint
    /// pairs over the non-empty buckets.
    fn encode(&self, buf: &mut Vec<u8>) {
        self.spec.encode(buf);
        self.min_seen.to_bits().encode(buf);
        self.max_seen.to_bits().encode(buf);
        encode_varint(buf, self.underflow);
        encode_varint(buf, self.overflow);
        let nonzero = self.counts.iter().filter(|&&c| c > 0).count() as u64;
        encode_varint(buf, nonzero);
        let mut prev = 0usize;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                encode_varint(buf, (i - prev) as u64);
                encode_varint(buf, c);
                prev = i;
            }
        }
    }

    fn encoded_len(&self) -> usize {
        let mut len = self.spec.encoded_len() + 16;
        len += varint_len(self.underflow) + varint_len(self.overflow);
        let (mut nonzero, mut prev) = (0u64, 0usize);
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                len += varint_len((i - prev) as u64) + varint_len(c);
                nonzero += 1;
                prev = i;
            }
        }
        len + varint_len(nonzero)
    }

    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        let spec = HistogramSpec::decode(buf)?;
        let mut h = Histogram::new(spec);
        h.min_seen = f64::from_bits(u64::decode(buf)?);
        h.max_seen = f64::from_bits(u64::decode(buf)?);
        h.underflow = decode_varint(buf)?;
        h.overflow = decode_varint(buf)?;
        let nonzero = decode_varint(buf)?;
        let mut i = 0usize;
        for k in 0..nonzero {
            let gap = usize::try_from(decode_varint(buf)?).unwrap_or(usize::MAX);
            let count = decode_varint(buf)?;
            i = if k == 0 { gap } else { i.saturating_add(gap) };
            if i >= h.counts.len() || count == 0 {
                return Err(DecodeError {
                    what: "histogram bucket out of range",
                    remaining: buf.len(),
                    trailing: false,
                });
            }
            h.counts[i] = count;
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> HistogramSpec {
        HistogramSpec::new(1e-6, 60.0, 2)
    }

    #[test]
    fn empty_and_single_sample() {
        let mut h = Histogram::new(spec());
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.min(), 0.0);
        h.record(0.125);
        assert_eq!(h.count(), 1);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(
                (v - 0.125).abs() <= 0.125 * spec().rel_error() + 1e-12,
                "q={q}: {v}"
            );
        }
        assert_eq!(h.max(), 0.125, "max is exact, not bucketed");
        assert_eq!(h.min(), 0.125);
    }

    #[test]
    fn under_and_overflow_clamp() {
        let mut h = Histogram::new(spec());
        h.record(1e-9); // below min
        h.record(1e3); // above max
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.25), 1e-6, "underflow reports spec.min");
        assert_eq!(h.quantile(1.0), 1e3, "overflow reports the exact max");
        assert_eq!(h.min(), 1e-9, "min is exact even below the range");
    }

    #[test]
    fn quantiles_within_relative_error_of_nearest_rank() {
        let s = spec();
        let mut h = Histogram::new(s);
        let mut exact: Vec<f64> = Vec::new();
        // A deliberately skewed sample: dense sub-millisecond mass plus a
        // long tail, the shape of real batch latencies.
        let mut v = 13u64;
        for _ in 0..10_000 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (v >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            let sample = 1e-4 * (1.0 + 9.0 * u) * (1.0 + if u > 0.99 { 100.0 * u } else { 0.0 });
            h.record(sample);
            exact.push(sample);
        }
        exact.sort_by(f64::total_cmp);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let e = exact[rank - 1];
            let a = h.quantile(q);
            assert!(
                a >= e - 1e-15 && a <= e * (1.0 + s.rel_error()) + 1e-15,
                "q={q}: approx {a} vs exact {e}"
            );
        }
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let s = spec();
        let mut all = Histogram::new(s);
        let mut a = Histogram::new(s);
        let mut b = Histogram::new(s);
        for i in 1..=1000u64 {
            let v = i as f64 * 1e-3;
            all.record(v);
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, all, "merge must be exactly the union");
    }

    #[test]
    #[should_panic(expected = "different bucket layouts")]
    fn merge_rejects_mismatched_specs() {
        let mut a = Histogram::new(HistogramSpec::new(1e-6, 60.0, 2));
        let b = Histogram::new(HistogramSpec::new(1e-6, 60.0, 3));
        a.merge(&b);
    }

    #[test]
    fn wire_roundtrip_sparse() {
        let mut h = Histogram::new(spec());
        for v in [1e-5, 3e-4, 3e-4, 0.2, 59.0, 1e-9, 100.0] {
            h.record(v);
        }
        let bytes = h.to_bytes();
        // Sparse: far fewer bytes than the ~1800-bucket dense array.
        assert!(bytes.len() < 100, "sparse encoding stays small: {}", bytes.len());
        let back = Histogram::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, h);
        let empty = Histogram::new(spec());
        assert_eq!(
            Histogram::from_bytes(&empty.to_bytes()).unwrap(),
            empty,
            "empty histogram roundtrips"
        );
    }

    #[test]
    fn wire_rejects_out_of_range_buckets() {
        let mut h = Histogram::new(HistogramSpec::new(1.0, 2.0, 1));
        h.record(1.5);
        let mut bytes = h.to_bytes();
        // Corrupt the gap varint of the single bucket entry to point past
        // the end of the (tiny) bucket array.
        let n = bytes.len();
        bytes[n - 2] = 0x7f;
        assert!(Histogram::from_bytes(&bytes).is_err());
        // And a corrupt spec must be rejected before allocating buckets.
        let mut spec_bytes = Vec::new();
        (-1.0f64).encode(&mut spec_bytes);
        2.0f64.encode(&mut spec_bytes);
        spec_bytes.push(2);
        assert!(HistogramSpec::from_bytes(&spec_bytes).is_err());
    }

    #[test]
    fn bucket_count_matches_resolution() {
        let s = spec();
        let h = Histogram::new(s);
        let expected = ((s.max / s.min).ln() / s.growth().ln()).ceil();
        assert!((h.num_buckets() as f64 - expected).abs() <= 2.0);
        // Coarser resolution → far fewer buckets.
        let coarse = Histogram::new(HistogramSpec::new(1e-6, 60.0, 1));
        assert!(coarse.num_buckets() < h.num_buckets() / 5);
    }

    #[test]
    fn zero_min_spec_accepts_zero_durations() {
        // Regression: HistogramSpec::new(0.0, ..) used to assert
        // "min must be positive", so any telemetry stream containing a
        // zero-duration sample (cache hits cost zero virtual seconds)
        // could not even build its histogram. Zero now rides the
        // underflow bucket and reports exactly 0.0.
        let s = HistogramSpec::new(0.0, 60.0, 2);
        assert!(s.layout_min() > 0.0, "geometric layout needs a positive start");
        let mut h = Histogram::new(s);
        h.record(0.0);
        h.record(0.0);
        h.record(1e-15); // below layout_min: also underflow
        h.record(0.5);
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(0.25), 0.0, "underflow reports the spec min of 0.0");
        assert_eq!(h.quantile(0.5), 0.0);
        let p100 = h.quantile(1.0);
        assert!((p100 - 0.5).abs() <= 0.5 * s.rel_error() + 1e-12, "{p100}");
        assert_eq!(h.min(), 0.0, "exact min survives");
    }

    #[test]
    fn zero_min_histograms_keep_merge_laws_and_wire_roundtrip() {
        let s = HistogramSpec::new(0.0, 60.0, 2);
        let mut all = Histogram::new(s);
        let mut a = Histogram::new(s);
        let mut b = Histogram::new(s);
        for i in 0..1000u64 {
            let v = if i % 5 == 0 { 0.0 } else { i as f64 * 1e-3 };
            all.record(v);
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, all, "merge must be exactly the union with zeros present");
        let back = Histogram::from_bytes(&all.to_bytes()).expect("zero-min wire roundtrip");
        assert_eq!(back, all);
    }

    #[test]
    fn positive_min_layout_is_unchanged() {
        // layout_min == min for every positive-min spec, so existing
        // histograms keep their exact bucket boundaries.
        let s = spec();
        assert_eq!(s.layout_min(), s.min);
        let h = Histogram::new(s);
        let expected = ((s.max / s.min).ln() / s.growth().ln()).ceil();
        assert!((h.num_buckets() as f64 - expected).abs() <= 2.0);
    }

    #[test]
    #[should_panic(expected = "min must be non-negative")]
    fn negative_min_still_rejected() {
        HistogramSpec::new(-1.0, 60.0, 2);
    }

    #[test]
    fn nonzero_buckets_iterates_in_value_order() {
        let mut h = Histogram::new(spec());
        h.record(0.5);
        h.record(1e-4);
        h.record(1e-4);
        let buckets: Vec<(f64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets.len(), 2);
        assert!(buckets[0].0 < buckets[1].0);
        assert_eq!(buckets[0].1, 2);
        assert_eq!(buckets[1].1, 1);
    }
}
