//! Property-based tests of the CLOUDS machinery's core invariants.

use pdc_clouds::gini::{gini, interval_gini_lower_bound, split_gini, sub};
use pdc_clouds::{
    accumulate_stats, exact_interval_scan, AliveInterval, AliveRouter, AttrIntervalStats, Candidate,
    CountMatrix, CountTable, IntervalSet, NodeAccumulator, SortedSample, Splitter,
};
use pdc_datagen::{Record, NUM_CATEGORICAL, NUM_CLASSES, NUM_NUMERIC};
use pdc_pario::RecBuf;
use proptest::prelude::*;

/// Samples that stress the lookup index of `IntervalSet::from_sample`.
fn adversarial_sample(kind: u8, raw: &[f64]) -> Vec<f64> {
    let spread = |f: &dyn Fn(usize, f64) -> f64| -> Vec<f64> {
        raw.iter().enumerate().map(|(i, &v)| f(i, v)).collect()
    };
    match kind {
        // Smooth.
        0 => raw.to_vec(),
        // Half the mass on one value (the `commission == 0` spike).
        1 => spread(&|i, v| if i % 2 == 0 { 0.0 } else { v.abs() + 1.0 }),
        // Exponentially spaced: almost every boundary in the first cell.
        2 => spread(&|i, _| 2f64.powi(i as i32 % 500 - 250)),
        // Two distinct values; all equal.
        3 => spread(&|i, _| if i % 3 == 0 { -7.5 } else { 7.5 }),
        4 => vec![raw[0]; raw.len()],
        // `hi - lo` overflows (scale 0) / is subnormal (scale infinite).
        5 => spread(&|_, v| v * (f64::MAX / 1_000.0)),
        6 => spread(&|i, _| i as f64 * f64::MIN_POSITIVE),
        // One far outlier: every other boundary shares a cell.
        _ => spread(&|i, v| if i == 0 { 1e300 } else { v }),
    }
}

/// Boundary ladders around the edges of the lookup index: the smallest and
/// the largest indexed set, a subnormal spread through zero, and an even
/// ladder with `extra` more boundaries packed into one cell (a lookup
/// compares a window of four, so 1 + `extra` ∈ 1..=8 straddles it).
fn adversarial_ladder(kind: u8, pick: usize, (at, extra): (usize, usize)) -> Vec<f64> {
    match kind {
        0 => (0..15 + pick % 3).map(|i| i as f64 - 8.0).collect(),
        1 => (0..65_535 + pick % 2).map(|i| i as f64 * 0.25).collect(),
        2 => (-20..20 + (pick % 40) as i32)
            .map(|i| f64::from(i) * (f64::MIN_POSITIVE / 8.0) + 0.0)
            .collect(),
        _ => {
            let len = 16 + pick % 500;
            let mut ladder: Vec<f64> = (0..len).map(|i| i as f64).collect();
            ladder.extend((1..=extra).map(|j| (at % len) as f64 + j as f64 / 16.0));
            ladder.sort_by(|a, b| a.partial_cmp(b).unwrap());
            ladder
        }
    }
}

/// The set whose boundaries are exactly `ladder` (ascending, distinct),
/// built the way workers build theirs: from a sample.
fn set_with_boundaries(ladder: &[f64]) -> IntervalSet {
    let mut sample = vec![ladder[0] - 1.0];
    sample.extend(ladder);
    sample.push(ladder[ladder.len() - 1] + 1.0);
    let set = IntervalSet::from_sample(&sample, sample.len());
    assert_eq!(set.boundaries(), ladder);
    set
}

/// Columns that stress a stable split of sorted columns: ties, all-equal,
/// infinities, signed zeros.
fn adversarial_value(kind: u8, i: usize, v: f64) -> f64 {
    match kind {
        0 => v,
        1 => (v / 25_000.0).floor(), // a handful of distinct values
        2 => 7.5,
        3 if i.is_multiple_of(5) => f64::INFINITY,
        3 if i.is_multiple_of(7) => f64::NEG_INFINITY,
        4 if i.is_multiple_of(2) => -0.0,
        4 => (i % 3) as f64 * 0.0,
        _ => v,
    }
}

/// `node` holds `raw` in order, and reads off the interval sets that
/// sorting `raw`'s values gives.
fn check_node(node: &SortedSample, raw: &[Record]) {
    assert_eq!(node.records(), raw);
    for attr in 0..NUM_NUMERIC {
        let values: Vec<f64> = raw.iter().map(|r| r.num(attr)).collect();
        for q in [1, 2, 10, 10_000] {
            // Debug shows the boundaries' bits (−0.0 ≠ 0.0) and the index.
            assert_eq!(
                format!("{:?}", node.intervals(attr, q)),
                format!("{:?}", IntervalSet::from_sample(&values, q)),
                "attr {attr}, q {q}, {} points",
                raw.len()
            );
        }
    }
}

/// A decoder against hostile input, shaped like `hostile_bytes_decision_tree`:
/// `value`'s own message decodes to it, every truncation of that message is
/// refused, and whatever `junk` or a one-byte mutation (`^ flip`) at any
/// position decodes to is handed to `consume`, which must not panic.
fn check_hostile<T>(value: &T, junk: &[u8], flip: u8, consume: impl Fn(T))
where
    T: pdc_cgm::Wire + PartialEq + std::fmt::Debug,
{
    let bytes = value.to_bytes();
    assert_eq!(&T::from_bytes(&bytes).expect("a valid message"), value);
    for cut in 0..bytes.len() {
        assert!(T::from_bytes(&bytes[..cut]).is_err(), "truncated at {cut}");
    }
    T::from_bytes(junk).into_iter().for_each(&consume);
    for at in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[at] ^= flip;
        T::from_bytes(&mutated).into_iter().for_each(&consume);
    }
}

/// Class totals of `before` plus one per point, unless they overflow: the
/// node total a consumer of such counts is consistent with.
fn total_after(before: &[u64], points: &[(f64, u8)]) -> Option<Vec<u64>> {
    (0..NUM_CLASSES)
        .map(|c| before[c].checked_add(points.iter().filter(|p| usize::from(p.1) == c).count() as u64))
        .collect()
}

/// `exact_interval_scan` as it was written before it stopped building a
/// candidate per distinct value: a fresh right-hand count and a whole
/// `Candidate` at every threshold, kept or dropped by `Candidate::better`.
/// The reference its rewrite must match bit for bit.
fn reference_exact_interval_scan(
    points: &mut [(f64, u8)],
    alive: &AliveInterval,
    node_total: &[u64],
) -> Option<Candidate> {
    if points.is_empty() {
        return None;
    }
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN attribute value"));
    let mut left = alive.cum_before.clone();
    let mut best: Option<Candidate> = None;
    let n = points.len();
    let mut i = 0;
    while i < n {
        let v = points[i].0;
        while i < n && points[i].0 == v {
            left[points[i].1 as usize] += 1;
            i += 1;
        }
        let right = sub(node_total, &left);
        if right.iter().sum::<u64>() == 0 {
            break;
        }
        let g = split_gini(&left, &right);
        best = Candidate::better(
            best,
            Candidate {
                gini: g,
                splitter: Splitter::Numeric { attr: alive.attr, threshold: v },
                left_counts: left.clone(),
            },
        );
    }
    best
}

/// An alive interval over the whole line holding `points`, with
/// `cum_before` records before it.
fn whole_line(points: &[(f64, u8)], cum_before: Vec<u64>) -> AliveInterval {
    AliveInterval {
        attr: 2,
        index: 0,
        lower: None,
        upper: None,
        cum_before,
        est: 0.0,
        count: points.len() as u64,
    }
}

#[test]
fn exact_scan_keeps_the_first_of_tied_thresholds() {
    // Classes 0 1 1 0 at 1 2 3 4: the splits at 1 and at 3 swap the sides'
    // counts, so their ginis are the same bits; the smaller threshold wins.
    let points = [(1.0, 0), (2.0, 1), (3.0, 1), (4.0, 0)];
    let alive = whole_line(&points, vec![0; NUM_CLASSES]);
    let total = vec![2, 2];
    let got = exact_interval_scan(&mut points.clone(), &alive, &total).unwrap();
    let want = reference_exact_interval_scan(&mut points.clone(), &alive, &total).unwrap();
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    assert_eq!(got.splitter, Splitter::Numeric { attr: 2, threshold: 1.0 });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Gini is always within [0, 1 - 1/c] and 0 for pure nodes.
    #[test]
    fn gini_bounds(counts in proptest::collection::vec(0u64..10_000, 2..5)) {
        let g = gini(&counts);
        prop_assert!(g >= 0.0);
        let c = counts.iter().filter(|&&x| x > 0).count().max(1) as f64;
        prop_assert!(g <= 1.0 - 1.0 / c + 1e-12);
    }

    /// Weighted split gini never exceeds the parent's gini (concavity).
    #[test]
    fn split_never_increases_gini(
        left in proptest::collection::vec(0u64..5_000, 2),
        right in proptest::collection::vec(0u64..5_000, 2),
    ) {
        let parent: Vec<u64> = left.iter().zip(&right).map(|(a, b)| a + b).collect();
        prop_assert!(split_gini(&left, &right) <= gini(&parent) + 1e-12);
    }

    /// The SSE lower bound is sound for every integral interior split.
    #[test]
    fn sse_bound_is_sound(
        cum in proptest::collection::vec(0u64..50, 2),
        interior in proptest::collection::vec(0u64..30, 2),
        after in proptest::collection::vec(0u64..50, 2),
    ) {
        let total: Vec<u64> = (0..2)
            .map(|k| cum[k] + interior[k] + after[k])
            .collect();
        let bound = interval_gini_lower_bound(&cum, &interior, &total);
        for t0 in 0..=interior[0] {
            for t1 in 0..=interior[1] {
                let l = vec![cum[0] + t0, cum[1] + t1];
                let r = sub(&total, &l);
                prop_assert!(split_gini(&l, &r) >= bound - 1e-9);
            }
        }
    }

    /// interval_of is consistent with the boundary ordering: the chosen
    /// interval's edges bracket the value.
    #[test]
    fn interval_of_brackets_value(
        mut boundaries in proptest::collection::vec(-1_000.0f64..1_000.0, 1..20),
        v in -2_000.0f64..2_000.0,
    ) {
        boundaries.sort_by(|a, b| a.partial_cmp(b).unwrap());
        boundaries.dedup();
        let set = IntervalSet::from_boundaries(boundaries);
        let i = set.interval_of(v);
        prop_assert!(i < set.num_intervals());
        if let Some(lo) = set.lower_edge(i) {
            prop_assert!(v > lo, "value {v} not above lower edge {lo}");
        }
        if let Some(hi) = set.upper_edge(i) {
            prop_assert!(v <= hi, "value {v} not within upper edge {hi}");
        }
    }

    /// `interval_of` on a `from_sample` set is the number of boundaries
    /// strictly below the value — the plain binary search — for every
    /// input, whatever the sample did to the lookup index.
    #[test]
    fn interval_of_on_sampled_sets_equals_the_plain_search(
        kind in 0u8..12,
        raw in proptest::collection::vec(-1_000.0f64..1_000.0, 40..600),
        q in 2usize..300,
        cluster in (0usize..600, 0usize..8),
    ) {
        let (set, mut probes) = match kind {
            0..8 => {
                let sample = adversarial_sample(kind, &raw);
                (IntervalSet::from_sample(&sample, q), sample)
            }
            _ => (set_with_boundaries(&adversarial_ladder(kind - 8, raw.len(), cluster)), raw),
        };
        let bounds = set.boundaries();
        for &b in bounds {
            probes.extend([b, b.next_down(), b.next_up()]);
        }
        if let (Some(&lo), Some(&hi)) = (bounds.first(), bounds.last()) {
            probes.extend([lo - 1.0, lo * 2.0, -lo, hi + 1.0, hi * 2.0, (lo + hi) / 2.0]);
        }
        probes.extend([
            f64::NEG_INFINITY, f64::INFINITY, f64::MIN, f64::MAX, 0.0, -0.0,
            f64::MIN_POSITIVE, -f64::MIN_POSITIVE / 4.0, f64::NAN,
        ]);
        for v in probes {
            prop_assert_eq!(
                set.interval_of(v),
                bounds.partition_point(|&b| b < v),
                "value {:e}, kind {}, {} boundaries", v, kind, bounds.len()
            );
        }
        prop_assert_eq!(set.interval_of(f64::NAN), 0);
    }

    /// Batched accumulation equals counting one value at a time with the
    /// plain search and `f64::min`/`max`, however the records are cut into
    /// batches and whether a batch is resident records or a view of their
    /// file bytes — also for values on every boundary, infinite,
    /// signed-zero, subnormal or NaN (counted in interval 0, leaving its
    /// range alone).
    #[test]
    fn add_records_equals_one_at_a_time(
        seed in any::<u64>(),
        n in 1usize..700,
        q in 1usize..120,
        cuts in proptest::collection::vec(0usize..700, 0..12),
        spice in 0usize..4,
    ) {
        use pdc_datagen::{generate, ClassifyFn, GeneratorConfig};
        let mut records = generate(n, GeneratorConfig {
            seed,
            function: ClassifyFn::F6,
            ..GeneratorConfig::default()
        });
        let sample = records[..n.div_ceil(3)].to_vec();
        let sorted = SortedSample::new(sample.clone());
        let mut oracle = NodeAccumulator::from_sample(&sorted, q).finish();
        // Every `spice + 1`-th value (none when `spice` is 0) becomes one
        // of the attribute's boundaries or a special value.
        for stats in &oracle.numeric {
            let mut specials = stats.intervals().boundaries().to_vec();
            specials.extend([
                f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, f64::NAN,
                f64::MIN_POSITIVE / 2.0, -f64::MIN_POSITIVE / 2.0,
            ]);
            for (i, r) in records.iter_mut().enumerate().skip(stats.attr) {
                if spice > 0 && i.is_multiple_of(spice + 1) {
                    r.numeric[stats.attr] = specials[(i / (spice + 1)) % specials.len()];
                }
            }
        }
        for r in &records {
            oracle.total[r.class as usize] += 1;
            for m in &mut oracle.categorical {
                m.add_value(r.cat(m.attr), r.class);
            }
        }
        for stats in &mut oracle.numeric {
            let bounds = stats.intervals().boundaries();
            let mut counts = vec![[0u64; 2]; bounds.len() + 1];
            let mut ranges: Vec<Option<(f64, f64)>> = vec![None; bounds.len() + 1];
            for r in &records {
                let v = r.num(stats.attr);
                let i = bounds.partition_point(|&b| b < v);
                counts[i][r.class as usize] += 1;
                if !v.is_nan() {
                    let (lo, hi) = ranges[i].unwrap_or((v, v));
                    ranges[i] = Some((lo.min(v), hi.max(v)));
                }
            }
            *stats = AttrIntervalStats::from_parts(
                stats.attr,
                stats.intervals().clone(),
                CountTable::from_rows(&counts).unwrap(),
                &ranges,
            ).unwrap();
        }
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (n + 1)).collect();
        cuts.extend([0, n]);
        cuts.sort_unstable();
        let mut batched = NodeAccumulator::from_sample(&sorted, q);
        let mut viewed = NodeAccumulator::from_sample(&sorted, q);
        for w in cuts.windows(2) {
            batched.add_records(&records[w[0]..w[1]]);
            viewed.add_records(&RecBuf::from_records(&records[w[0]..w[1]]).view());
        }
        prop_assert_eq!(&batched.finish(), &oracle);
        prop_assert_eq!(&viewed.finish(), &oracle);
        prop_assert_eq!(&accumulate_stats(&records, &sample, q), &oracle);
    }

    /// The alive router reports the hits of the nested
    /// `for record { for interval { contains } }` scan, in its order — for
    /// any number of attributes with alive intervals, the whole-range
    /// interval, neighbours sharing an edge, an attribute's first and last
    /// interval, and values on edges, infinite or NaN.
    #[test]
    fn alive_router_equals_nested_contains(
        seed in any::<u64>(),
        n in 0usize..200,
        attrs in proptest::collection::vec(
            (proptest::collection::vec(0u8..100, 0..12), any::<u64>()),
            NUM_NUMERIC,
        ),
    ) {
        use pdc_datagen::{generate, GeneratorConfig};
        // Per attribute: distinct ascending edges cut the line into
        // `edges + 1` intervals; `mask` picks the alive ones.
        let mut alive: Vec<AliveInterval> = Vec::new();
        let mut specials = vec![f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -0.0];
        for (attr, (edges, mask)) in attrs.iter().enumerate() {
            let mut edges: Vec<f64> = edges.iter().map(|&e| f64::from(e) / 2.0 - 25.0).collect();
            edges.sort_by(|a, b| a.partial_cmp(b).unwrap());
            edges.dedup();
            for index in 0..=edges.len() {
                if mask >> index & 1 == 1 {
                    alive.push(AliveInterval {
                        attr,
                        index,
                        lower: index.checked_sub(1).map(|i| edges[i]),
                        upper: edges.get(index).copied(),
                        cum_before: vec![0; 2],
                        est: 0.0,
                        count: 0,
                    });
                }
            }
            specials.extend(edges.iter().flat_map(|&e| [e, e.next_down(), e.next_up()]));
        }
        let mut records = generate(n, GeneratorConfig { seed, ..GeneratorConfig::default() });
        for (i, r) in records.iter_mut().enumerate() {
            for (attr, v) in r.numeric.iter_mut().enumerate() {
                *v = match (i + attr) % 3 {
                    0 => specials[(i * NUM_NUMERIC + attr) % specials.len()],
                    _ => *v % 60.0 - 30.0,
                };
            }
        }
        let mut nested = Vec::new();
        for r in &records {
            for (k, interval) in alive.iter().enumerate() {
                let v = r.num(interval.attr);
                if interval.contains(v) {
                    nested.push((k, v.to_bits(), r.class));
                }
            }
        }
        let router = AliveRouter::new(&alive);
        let mut routed = Vec::new();
        router.for_each_hit(records.as_slice(), |k, v, class| routed.push((k, v.to_bits(), class)));
        prop_assert_eq!(&routed, &nested);
        let mut viewed = Vec::new();
        router.for_each_hit(&RecBuf::from_records(&records).view(), |k, v, class| {
            viewed.push((k, v.to_bits(), class));
        });
        prop_assert_eq!(&viewed, &nested);
    }

    /// A sample sorted once and split stably down a chain of numeric and
    /// categorical splits gives, at every node and for every attribute, the
    /// interval set (boundaries and lookup index) that sorting the node's
    /// raw values from scratch gives.
    #[test]
    fn presorted_sample_equals_sort_from_scratch(
        seed in any::<u64>(),
        kinds in proptest::collection::vec(0u8..6, NUM_NUMERIC),
        n in 0usize..400,
        chain in proptest::collection::vec((any::<bool>(), 0usize..6, any::<u64>()), 0..6),
    ) {
        use pdc_datagen::{generate, GeneratorConfig};
        let mut raw = generate(n, GeneratorConfig { seed, ..GeneratorConfig::default() });
        for (i, r) in raw.iter_mut().enumerate() {
            for (attr, kind) in kinds.iter().enumerate() {
                r.numeric[attr] = adversarial_value(*kind, i, r.numeric[attr]);
            }
        }
        let mut node = SortedSample::new(raw.clone());
        check_node(&node, &raw);
        for (numeric, attr, bits) in chain {
            let splitter = if numeric {
                // A value of the node (or, on an empty node, anything):
                // below the minimum and at the maximum one child is empty.
                let threshold = match raw.len() {
                    0 => 0.0,
                    len => raw[bits as usize % len].numeric[attr],
                };
                Splitter::Numeric { attr, threshold: threshold - (bits % 2) as f64 }
            } else {
                Splitter::Categorical { attr: attr % NUM_CATEGORICAL, left_values: bits }
            };
            let (left, right) = node.split(&splitter);
            let (raw_left, raw_right): (Vec<Record>, Vec<Record>) =
                raw.iter().partition(|r| splitter.goes_left(r));
            check_node(&left, &raw_left);
            check_node(&right, &raw_right);
            // Descend into the larger child.
            (node, raw) = if raw_left.len() >= raw_right.len() {
                (left, raw_left)
            } else {
                (right, raw_right)
            };
        }
    }

    /// Equi-depth construction: on distinct values every interval holds a
    /// fair share of the sample.
    #[test]
    fn equi_depth_intervals(n in 50usize..400, q in 2usize..10) {
        let values: Vec<f64> = (0..n).map(|i| i as f64 * 1.7).collect();
        let set = IntervalSet::from_sample(&values, q);
        let mut counts = vec![0usize; set.num_intervals()];
        for &v in &values {
            counts[set.interval_of(v)] += 1;
        }
        let ideal = n / q;
        for &c in &counts {
            prop_assert!(c <= 2 * ideal + 2, "interval holds {c}, ideal {ideal}");
        }
    }

    /// Exact interval scan never returns a split with an empty side and its
    /// gini is at most the node's own gini.
    #[test]
    fn exact_scan_returns_valid_candidates(
        points in proptest::collection::vec((0.0f64..100.0, 0u8..2), 2..60),
        outside in proptest::collection::vec(0u64..50, 2),
    ) {
        let mut total = outside.clone();
        for &(_, c) in &points {
            total[c as usize] += 1;
        }
        let alive = AliveInterval {
            attr: 0,
            index: 0,
            lower: None,
            upper: None,
            cum_before: vec![0; 2],
            est: 0.0,
            count: points.len() as u64,
        };
        // `outside` counts sit conceptually after the interval.
        let mut pts = points.clone();
        if let Some(c) = exact_interval_scan(&mut pts, &alive, &total) {
            let left_n: u64 = c.left_counts.iter().sum();
            let total_n: u64 = total.iter().sum();
            prop_assert!(left_n > 0 && left_n < total_n);
            prop_assert!(c.gini <= gini(&total) + 1e-12);
        }
    }

    /// The exact scan builds a candidate only when its gini bits beat the
    /// best so far, and returns what the reference scan returns, bit for
    /// bit: on few distinct values (long runs of duplicates), with records
    /// before and after the interval, and on mirrored columns, where the
    /// splits at `t` and `10 - t - 1` tie exactly.
    #[test]
    fn exact_scan_equals_the_reference_scan(
        raw in proptest::collection::vec((0u8..10, 0u8..NUM_CLASSES as u8), 0..60),
        before in proptest::collection::vec(0u64..20, NUM_CLASSES),
        after in proptest::collection::vec(0u64..20, NUM_CLASSES),
        mirror in any::<bool>(),
    ) {
        let mut points: Vec<(f64, u8)> = raw.iter().map(|&(v, c)| (f64::from(v), c)).collect();
        let (before, after) = if mirror {
            points.extend(raw.iter().map(|&(v, c)| (f64::from(10 - v), c)));
            (vec![0; NUM_CLASSES], vec![0; NUM_CLASSES])
        } else {
            (before, after)
        };
        let alive = whole_line(&points, before.clone());
        let mut total = total_after(&before, &points).unwrap();
        pdc_clouds::gini::add_assign(&mut total, &after);
        let got = exact_interval_scan(&mut points.clone(), &alive, &total);
        let want = reference_exact_interval_scan(&mut points, &alive, &total);
        // Debug shows every bit of the gini and the threshold (−0.0 ≠ 0.0).
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    /// A sample's interval set is cut once per `(attr, q)`: asking again
    /// returns the same allocation, whatever was asked in between, and it
    /// equals `IntervalSet::from_sorted` over a fresh sort of the values —
    /// boundaries and lookup index — on columns with duplicates, at
    /// `q = 1`, below `GRID_MIN_BOUNDARIES` and above it.
    #[test]
    fn memoised_interval_sets_equal_a_fresh_cut(
        seed in any::<u64>(),
        kinds in proptest::collection::vec(0u8..6, NUM_NUMERIC),
        n in 0usize..300,
        asks in proptest::collection::vec((0..NUM_NUMERIC, 0u8..3, 0usize..200), 1..12),
    ) {
        use pdc_datagen::{generate, GeneratorConfig};
        let mut raw = generate(n, GeneratorConfig { seed, ..GeneratorConfig::default() });
        for (i, r) in raw.iter_mut().enumerate() {
            for (attr, kind) in kinds.iter().enumerate() {
                r.numeric[attr] = adversarial_value(*kind, i, r.numeric[attr]);
            }
        }
        // q = 1, a set below 16 boundaries, or one of up to 216 intervals.
        let asks: Vec<(usize, usize)> = asks
            .into_iter()
            .map(|(attr, size, x)| (attr, [1, 2 + x % 15, 17 + x][usize::from(size)]))
            .collect();
        let sample = SortedSample::new(raw.clone());
        let first: Vec<IntervalSet> = asks.iter().map(|&(attr, q)| sample.intervals(attr, q)).collect();
        for (&(attr, q), set) in asks.iter().zip(&first) {
            let again = sample.intervals(attr, q);
            prop_assert_eq!(again.boundaries().as_ptr(), set.boundaries().as_ptr());
            let mut values: Vec<f64> = raw.iter().map(|r| r.num(attr)).collect();
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let fresh = IntervalSet::from_sorted(values.len(), |i| values[i], q);
            prop_assert_eq!(format!("{set:?}"), format!("{fresh:?}"), "attr {}, q {}", attr, q);
        }
    }

    /// Breiman's ordering equals exhaustive search for two classes, on any
    /// count matrix.
    #[test]
    fn breiman_optimal_for_two_classes(
        counts in proptest::collection::vec((0u64..30, 0u64..30), 2..9),
    ) {
        let rows: Vec<[u64; 2]> = counts.iter().map(|&(a, b)| [a, b]).collect();
        let m = CountMatrix::from_table(0, CountTable::from_rows(&rows).unwrap()).unwrap();
        let total = m.totals();
        // exhaustive_limit high -> exhaustive; 0 -> Breiman path.
        let exhaustive = m.best_split(&total, 16);
        let breiman = m.best_split(&total, 0);
        match (exhaustive, breiman) {
            (Some(a), Some(b)) => prop_assert!(
                (a.gini - b.gini).abs() < 1e-12,
                "exhaustive {} vs breiman {}", a.gini, b.gini
            ),
            (a, b) => prop_assert_eq!(a.is_none(), b.is_none()),
        }
    }

    /// MDL pruning never increases the training error of the majority-vote
    /// labeling beyond the collapsed leaves' own errors, and always yields
    /// a structurally valid tree.
    #[test]
    fn mdl_prune_keeps_tree_valid(seed in any::<u64>()) {
        use pdc_clouds::{build_tree, mdl_prune, CloudsParams, MdlParams};
        use pdc_datagen::{generate, GeneratorConfig};
        let records = generate(400, GeneratorConfig {
            seed,
            noise: 0.15,
            ..GeneratorConfig::default()
        });
        let params = CloudsParams {
            q_root: 50,
            sample_size: 200,
            min_node_size: 2,
            ..CloudsParams::default()
        };
        let mut tree = build_tree(&records, &params);
        let nodes_before = tree.num_nodes();
        mdl_prune(&mut tree, &MdlParams::default());
        prop_assert!(tree.num_nodes() <= nodes_before);
        // Tree still classifies everything (no panics, valid routing).
        for r in &records {
            prop_assert!(tree.predict(r) <= 1);
        }
    }

    /// Hostile bytes at the tree wire form: arbitrary bytes, every
    /// truncation and a one-byte mutation at every position of a built
    /// tree's encoding decode to an error or to a tree — never a panic,
    /// never an arena or a count vector reserved from a length prefix the
    /// input could not back, and never a "tree" a record cannot be routed
    /// through.
    #[test]
    fn hostile_bytes_decision_tree(
        seed in any::<u64>(),
        junk in proptest::collection::vec(any::<u8>(), 0..96),
        flip in 1u8..=255,
    ) {
        use pdc_cgm::Wire;
        use pdc_clouds::{build_tree, CloudsParams, DecisionTree};
        use pdc_datagen::{generate, GeneratorConfig};
        let records = generate(120, GeneratorConfig { seed, noise: 0.1, ..GeneratorConfig::default() });
        let params = CloudsParams { q_root: 20, sample_size: 60, min_node_size: 8, ..CloudsParams::default() };
        let bytes = build_tree(&records, &params).to_bytes();
        let decode = |bytes: &[u8]| {
            if let Ok(tree) = DecisionTree::from_bytes(bytes) {
                let bound = 16 + bytes.len();
                assert!(tree.nodes.capacity() <= bound, "arena reserved {}", tree.nodes.capacity());
                for node in &tree.nodes {
                    assert!(node.counts().capacity() <= bound);
                }
                assert!(tree.predict(&records[0]) < 2);
            }
        };
        decode(&junk);
        for cut in 0..bytes.len() {
            prop_assert!(DecisionTree::from_bytes(&bytes[..cut]).is_err(), "truncated at {cut}");
        }
        for at in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[at] ^= flip;
            decode(&mutated);
        }
    }

    /// An interval set off the wire keeps the invariants its owner relies
    /// on: every boundary lies in the interval it closes.
    #[test]
    fn hostile_bytes_interval_set(
        raw in proptest::collection::vec(-1e6f64..1e6, 0..24),
        junk in proptest::collection::vec(any::<u8>(), 0..96),
        flip in 1u8..=255,
    ) {
        let mut boundaries = raw;
        boundaries.sort_by(|a, b| a.partial_cmp(b).unwrap());
        boundaries.dedup();
        check_hostile(&IntervalSet::from_boundaries(boundaries), &junk, flip, |set: IntervalSet| {
            for i in 0..set.num_intervals() {
                if let Some(upper) = set.upper_edge(i) {
                    assert_eq!(set.interval_of(upper), i, "boundary {i} of {:?}", set.boundaries());
                    assert!(set.lower_edge(i).is_none_or(|lower| lower < upper));
                }
            }
            let stats = AttrIntervalStats::new(0, set, NUM_CLASSES);
            assert!(stats.best_boundary(&vec![0; NUM_CLASSES]).is_none());
        });
    }

    /// An alive interval off the wire routes records and scans them exactly
    /// (under any node total its counts are consistent with).
    #[test]
    fn hostile_bytes_alive_interval(
        seed in any::<u64>(),
        attr in 0..NUM_NUMERIC,
        (lower, width, edges) in (-1e5f64..1e5, 0.5f64..1e5, 0u8..4),
        cum_before in proptest::collection::vec(0u64..1_000, NUM_CLASSES),
        junk in proptest::collection::vec(any::<u8>(), 0..96),
        flip in 1u8..=255,
    ) {
        use pdc_datagen::{generate, GeneratorConfig};
        let interval = AliveInterval {
            attr,
            index: 3,
            lower: (edges & 1 == 1).then_some(lower),
            upper: (edges & 2 == 2).then_some(lower + width),
            cum_before,
            est: 0.25,
            count: 9,
        };
        let records = generate(64, GeneratorConfig { seed, ..GeneratorConfig::default() });
        check_hostile(&interval, &junk, flip, |interval: AliveInterval| {
            let mut points = Vec::new();
            AliveRouter::new([&interval]).for_each_hit(records.as_slice(), |k, v, class| {
                assert!(k == 0 && interval.contains(v));
                points.push((v, class));
            });
            if let Some(total) = total_after(&interval.cum_before, &points) {
                let _ = exact_interval_scan(&mut points, &interval, &total);
            }
        });
    }

    /// A candidate off the wire is compared, routes records, and splits its
    /// node's class counts the way a builder concludes a node.
    #[test]
    fn hostile_bytes_candidate(
        seed in any::<u64>(),
        (numeric, attr, threshold, left_values) in (any::<bool>(), 0..NUM_NUMERIC, -1e5f64..1e5, any::<u64>()),
        left_counts in proptest::collection::vec(0u64..1_000, NUM_CLASSES),
        gini in 0f64..0.5,
        junk in proptest::collection::vec(any::<u8>(), 0..96),
        flip in 1u8..=255,
    ) {
        use pdc_datagen::{generate, GeneratorConfig};
        let splitter = if numeric {
            Splitter::Numeric { attr, threshold }
        } else {
            Splitter::Categorical { attr: attr % NUM_CATEGORICAL, left_values }
        };
        let candidate = Candidate { gini, splitter, left_counts };
        let records = generate(32, GeneratorConfig { seed, ..GeneratorConfig::default() });
        check_hostile(&candidate, &junk, flip, |decoded: Candidate| {
            assert!(Candidate::better(Some(candidate.clone()), decoded.clone()).is_some());
            let left = (0..records.len()).filter(|&i| decoded.splitter.goes_left_at(records.as_slice(), i)).count();
            assert!(left <= records.len() && !decoded.splitter.describe().is_empty());
            let one_each: Vec<(f64, u8)> = (0..NUM_CLASSES as u8).map(|c| (0.0, c)).collect();
            if let Some(total) = total_after(&decoded.left_counts, &one_each) {
                assert_eq!(sub(&total, &decoded.left_counts), vec![1; NUM_CLASSES]);
            }
        });
    }
}
