//! Numeric-attribute split evaluation: interval statistics, boundary gini
//! evaluation (the SS method), alive-interval determination and exact
//! in-interval scans (the SSE method).
//!
//! These are the building blocks shared by sequential CLOUDS and pCLOUDS:
//! pCLOUDS accumulates [`AttrIntervalStats`] locally, merges them with a
//! global combine (the paper's *replication method*), and evaluates alive
//! intervals with the *single-assignment* approach — all through the same
//! functions.

use pdc_cgm::wire::{DecodeError, DecodeResult, Wire};
use pdc_datagen::{RecordBatch, NUM_CLASSES, NUM_NUMERIC};

use crate::gini::{
    add_assign, interval_gini_lower_bound, split_gini, sub, ClassCounts, CountTable,
};
use crate::intervals::IntervalSet;
use crate::split::{Candidate, Splitter};

/// An interval no value has fallen into: `min > max`.
const EMPTY_RANGE: (f64, f64) = (f64::INFINITY, f64::NEG_INFINITY);

/// Per-interval class frequencies of one numeric attribute at one node —
/// the form statistics are merged, sent and evaluated in;
/// [`AttrAccumulator`] is the form they are counted in.
///
/// The cells are flat: one `q × classes` [`CountTable`] and one `(min, max)`
/// pair per interval, two allocations whatever `q` is. The wire form is
/// that of the nested `Vec<ClassCounts>` / `Vec<Option<(f64, f64)>>` layout
/// it replaced.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrIntervalStats {
    /// Numeric attribute index.
    pub attr: usize,
    intervals: IntervalSet,
    /// Row `i`, column `k`: records of class `k` falling in interval `i`.
    counts: CountTable,
    /// Observed `(min, max)` value per interval ([`EMPTY_RANGE`] if empty).
    /// Lets the SSE pruning discard single-valued intervals — e.g. the huge
    /// `commission == 0` spike of the benchmark data — whose only interior
    /// threshold is equivalent to the boundary split.
    ranges: Vec<(f64, f64)>,
}

impl AttrIntervalStats {
    /// Empty statistics for `attr` over `intervals` with `nclasses` classes.
    pub fn new(attr: usize, intervals: IntervalSet, nclasses: usize) -> Self {
        let q = intervals.num_intervals();
        AttrIntervalStats {
            attr,
            intervals,
            counts: CountTable::new(q, nclasses),
            ranges: vec![EMPTY_RANGE; q],
        }
    }

    /// Statistics with the given cells: one row of `counts` and one entry of
    /// `ranges` (`None` = empty) per interval. Errors when the shapes
    /// disagree or a range is inverted or NaN — decoders pass outside input
    /// through here.
    pub fn from_parts(
        attr: usize,
        intervals: IntervalSet,
        counts: CountTable,
        ranges: &[Option<(f64, f64)>],
    ) -> Result<Self, &'static str> {
        let q = intervals.num_intervals();
        if counts.rows() != q || ranges.len() != q {
            return Err("interval statistics shape disagrees with the interval set");
        }
        let invalid = |&(lo, hi): &(f64, f64)| lo > hi || lo.is_nan() || hi.is_nan();
        if ranges.iter().flatten().any(invalid) {
            return Err("interval range inverted or NaN");
        }
        Ok(AttrIntervalStats {
            attr,
            intervals,
            counts,
            ranges: ranges.iter().map(|r| r.unwrap_or(EMPTY_RANGE)).collect(),
        })
    }

    /// Interval boundaries.
    pub fn intervals(&self) -> &IntervalSet {
        &self.intervals
    }

    /// Class counts per interval.
    pub fn counts(&self) -> &CountTable {
        &self.counts
    }

    /// Observed `(min, max)` value of interval `i` (`None` if empty).
    pub fn range(&self, i: usize) -> Option<(f64, f64)> {
        let (lo, hi) = self.ranges[i];
        (lo <= hi).then_some((lo, hi))
    }

    /// Merge another processor's statistics over the same intervals
    /// (element-wise sum). Panics if the interval structures differ.
    pub fn merge(&mut self, other: &AttrIntervalStats) {
        assert_eq!(self.attr, other.attr);
        assert_eq!(self.intervals, other.intervals, "interval mismatch in merge");
        self.counts.add_assign(&other.counts);
        for (a, b) in self.ranges.iter_mut().zip(&other.ranges) {
            *a = (a.0.min(b.0), a.1.max(b.1));
        }
    }

    /// Total class counts across all intervals.
    pub fn totals(&self) -> ClassCounts {
        self.counts.totals()
    }

    /// Weighted gini of the split at every internal boundary. Entry `i` is
    /// the split at threshold `boundaries[i]`.
    pub fn boundary_ginis(&self, node_total: &ClassCounts) -> Vec<f64> {
        let nb = self.intervals.boundaries().len();
        let mut out = Vec::with_capacity(nb);
        let mut left = vec![0u64; node_total.len()];
        for i in 0..nb {
            add_assign(&mut left, self.counts.row(i));
            let right = sub(node_total, &left);
            out.push(split_gini(&left, &right));
        }
        out
    }

    /// Best interval-boundary split for this attribute (the SS candidate).
    pub fn best_boundary(&self, node_total: &ClassCounts) -> Option<Candidate> {
        let ginis = self.boundary_ginis(node_total);
        let boundaries = self.intervals.boundaries();
        let n: u64 = node_total.iter().sum();
        let mut best: Option<Candidate> = None;
        let mut left = vec![0u64; node_total.len()];
        for (i, &g) in ginis.iter().enumerate() {
            add_assign(&mut left, self.counts.row(i));
            let left_n: u64 = left.iter().sum();
            if left_n == 0 || left_n == n {
                continue; // degenerate: one side empty, cannot partition
            }
            best = Candidate::better(
                best,
                Candidate {
                    gini: g,
                    splitter: Splitter::Numeric {
                        attr: self.attr,
                        threshold: boundaries[i],
                    },
                    left_counts: left.clone(),
                },
            );
        }
        best
    }

    /// The SSE method's alive intervals: intervals whose gini lower bound is
    /// strictly below `gini_min` and which contain at least two records
    /// (otherwise no interior split can beat the boundaries).
    pub fn alive_intervals(&self, node_total: &ClassCounts, gini_min: f64) -> Vec<AliveInterval> {
        let mut alive = Vec::new();
        let mut cum_before = vec![0u64; node_total.len()];
        for (i, interior) in self.counts.iter().enumerate() {
            let count: u64 = interior.iter().sum();
            // A single-valued interval (min == max) offers only one interior
            // threshold, equivalent to its upper-boundary split, which the
            // boundary pass already evaluated — never alive.
            let multi_valued = self.ranges[i].0 < self.ranges[i].1;
            if count >= 2 && multi_valued {
                let est = interval_gini_lower_bound(&cum_before, interior, node_total);
                if est < gini_min {
                    alive.push(AliveInterval {
                        attr: self.attr,
                        index: i,
                        lower: self.intervals.lower_edge(i),
                        upper: self.intervals.upper_edge(i),
                        cum_before: cum_before.clone(),
                        est,
                        count,
                    });
                }
            }
            add_assign(&mut cum_before, interior);
        }
        alive
    }
}

impl AttrIntervalStats {
    /// Append the per-interval ranges in their wire form (that of a
    /// `Vec<Option<(f64, f64)>>`); shared with pCLOUDS' sparse message.
    pub fn encode_ranges(&self, buf: &mut Vec<u8>) {
        (self.ranges.len() as u64).encode(buf);
        for i in 0..self.ranges.len() {
            self.range(i).encode(buf);
        }
    }

    /// The number of bytes [`AttrIntervalStats::encode_ranges`] appends.
    pub fn ranges_encoded_len(&self) -> usize {
        8 + (0..self.ranges.len()).map(|i| self.range(i).encoded_len()).sum::<usize>()
    }
}

impl Wire for AttrIntervalStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.attr.encode(buf);
        self.intervals.encode(buf);
        self.counts.encode(buf);
        self.encode_ranges(buf);
    }

    fn encoded_len(&self) -> usize {
        self.attr.encoded_len()
            + self.intervals.encoded_len()
            + self.counts.encoded_len()
            + self.ranges_encoded_len()
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        let attr = usize::decode(bytes)?;
        let intervals = IntervalSet::decode(bytes)?;
        let counts = CountTable::decode(bytes)?;
        let ranges = Vec::<Option<(f64, f64)>>::decode(bytes)?;
        AttrIntervalStats::from_parts(attr, intervals, counts, &ranges)
            .map_err(|what| DecodeError::malformed(what, bytes))
    }
}

/// One interval while a node's records are being counted: class counts and
/// observed range side by side, so that accounting a value touches **one**
/// cache line (a cell never straddles two).
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct Cell {
    counts: [u64; NUM_CLASSES],
    min: f64,
    max: f64,
}

/// The statistics of one numeric attribute while they are being counted:
/// [`AttrIntervalStats`] with each interval's counts and range interleaved
/// in one 32-byte cell. [`AttrAccumulator::finish`] lays them out flat.
#[derive(Debug)]
pub struct AttrAccumulator {
    /// Numeric attribute index.
    pub attr: usize,
    intervals: IntervalSet,
    cells: Vec<Cell>,
}

impl AttrAccumulator {
    /// Empty statistics for `attr` over `intervals`.
    pub fn new(attr: usize, intervals: IntervalSet) -> Self {
        let empty = Cell {
            counts: [0; NUM_CLASSES],
            min: EMPTY_RANGE.0,
            max: EMPTY_RANGE.1,
        };
        AttrAccumulator {
            attr,
            cells: vec![empty; intervals.num_intervals()],
            intervals,
        }
    }

    /// Record one attribute value with its class. Values must not be NaN.
    #[inline]
    pub fn add_value(&mut self, value: f64, class: u8) {
        let cell = &mut self.cells[self.intervals.interval_of(value)];
        cell.counts[usize::from(class)] += 1;
        // Selects (one `minsd` / `maxsd` each), not `f64::min` / `max`,
        // which also cater for a NaN receiver — a range never is one. A NaN
        // value compares false and leaves the range alone either way.
        cell.min = if value < cell.min { value } else { cell.min };
        cell.max = if value > cell.max { value } else { cell.max };
    }

    /// The counted statistics in their flat form.
    pub fn finish(self) -> AttrIntervalStats {
        let mut counts = CountTable::new(self.cells.len(), NUM_CLASSES);
        for (row, cell) in counts.cells_mut().chunks_exact_mut(NUM_CLASSES).zip(&self.cells) {
            row.copy_from_slice(&cell.counts);
        }
        AttrIntervalStats {
            attr: self.attr,
            intervals: self.intervals,
            counts,
            ranges: self.cells.iter().map(|cell| (cell.min, cell.max)).collect(),
        }
    }
}

/// One interval that survived the SSE pruning and must be scanned exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct AliveInterval {
    /// Numeric attribute index.
    pub attr: usize,
    /// Interval index within the attribute.
    pub index: usize,
    /// Open lower edge (`None` = −inf).
    pub lower: Option<f64>,
    /// Closed upper edge (`None` = +inf).
    pub upper: Option<f64>,
    /// Class counts of all records strictly before this interval.
    pub cum_before: ClassCounts,
    /// Gini lower bound that kept the interval alive.
    pub est: f64,
    /// Number of records inside the interval.
    pub count: u64,
}

/// Does `value` lie in `(lower, upper]`, a missing edge being infinite?
#[inline]
fn within((lower, upper): (Option<f64>, Option<f64>), value: f64) -> bool {
    lower.is_none_or(|lo| value > lo) && upper.is_none_or(|hi| value <= hi)
}

impl AliveInterval {
    /// Does `value` fall inside this interval `(lower, upper]`?
    pub fn contains(&self, value: f64) -> bool {
        within((self.lower, self.upper), value)
    }
}

/// Routes attribute values to the alive intervals containing them: the
/// SSE second pass asks of every record "which alive interval, if any?",
/// and the answer is *none* for most records and most attributes.
///
/// Built once per node from the node's alive list **sorted by
/// `(attr, index)`** (so an attribute's intervals are ascending and
/// disjoint). Per attribute that has alive intervals it keeps their hull
/// `(lowest lower edge, highest upper edge]`, so a value costs one hull
/// test and — inside the hull — one search for the first interval ending
/// at or above it plus one `(lower, upper]` test of that interval; no
/// other interval of the attribute can contain it.
#[derive(Debug, Clone)]
pub struct AliveRouter {
    groups: Vec<AttrGroup>,
    /// `(lower, upper)` of alive interval `k`.
    edges: Vec<(Option<f64>, Option<f64>)>,
}

/// The alive intervals `start..end` of one attribute.
#[derive(Debug, Clone)]
struct AttrGroup {
    attr: usize,
    start: usize,
    end: usize,
    hull: (Option<f64>, Option<f64>),
}

impl AliveRouter {
    /// Router over `alive`, sorted by `(attr, index)`; hits report an
    /// interval by its position `k` in `alive`.
    pub fn new<'a>(alive: impl IntoIterator<Item = &'a AliveInterval>) -> AliveRouter {
        let mut router = AliveRouter {
            groups: Vec::new(),
            edges: Vec::new(),
        };
        for (k, interval) in alive.into_iter().enumerate() {
            match router.groups.last_mut() {
                Some(group) if group.attr == interval.attr => {
                    debug_assert!(
                        matches!((router.edges[k - 1].1, interval.lower), (Some(hi), Some(lo)) if hi <= lo),
                        "alive intervals of attribute {} overlap or descend",
                        interval.attr
                    );
                    group.end = k + 1;
                    group.hull.1 = interval.upper;
                }
                _ => router.groups.push(AttrGroup {
                    attr: interval.attr,
                    start: k,
                    end: k + 1,
                    hull: (interval.lower, interval.upper),
                }),
            }
            router.edges.push((interval.lower, interval.upper));
        }
        router
    }

    /// The alive interval of `group` containing `value`, if any.
    #[inline]
    fn locate(&self, group: &AttrGroup, value: f64) -> Option<usize> {
        if !within(group.hull, value) {
            return None;
        }
        let ends_below = |&(_, upper): &(_, Option<f64>)| upper.is_some_and(|hi| hi < value);
        let k = group.start + self.edges[group.start..group.end].partition_point(ends_below);
        (k < group.end && within(self.edges[k], value)).then_some(k)
    }

    /// `hit(k, value, class)` for every record of `batch` and every alive
    /// interval `k` containing the record's value of `k`'s attribute — in
    /// `(record, k)` order, the order of
    /// `for record { for (k, interval) in alive { if interval.contains(..) } }`.
    pub fn for_each_hit(
        &self,
        batch: &(impl RecordBatch + ?Sized),
        mut hit: impl FnMut(usize, f64, u8),
    ) {
        if let [group] = self.groups.as_slice() {
            // One attribute (most nodes): its column walk.
            batch.for_each_num(group.attr, |value, class| {
                if let Some(k) = self.locate(group, value) {
                    hit(k, value, class);
                }
            });
            return;
        }
        for i in 0..batch.len() {
            for group in &self.groups {
                let value = batch.num(i, group.attr);
                if let Some(k) = self.locate(group, value) {
                    hit(k, value, batch.class(i));
                }
            }
        }
    }
}

impl Wire for AliveInterval {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.attr.encode(buf);
        self.index.encode(buf);
        self.lower.encode(buf);
        self.upper.encode(buf);
        self.cum_before.encode(buf);
        self.est.encode(buf);
        self.count.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.attr.encoded_len()
            + self.index.encoded_len()
            + self.lower.encoded_len()
            + self.upper.encoded_len()
            + self.cum_before.encoded_len()
            + self.est.encoded_len()
            + self.count.encoded_len()
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        let interval = AliveInterval {
            attr: usize::decode(bytes)?,
            index: usize::decode(bytes)?,
            lower: Option::<f64>::decode(bytes)?,
            upper: Option::<f64>::decode(bytes)?,
            cum_before: ClassCounts::decode(bytes)?,
            est: f64::decode(bytes)?,
            count: u64::decode(bytes)?,
        };
        let nan = |edge: Option<f64>| edge.is_some_and(f64::is_nan);
        let inverted = matches!((interval.lower, interval.upper), (Some(lo), Some(hi)) if lo >= hi);
        if interval.attr >= NUM_NUMERIC {
            Err(DecodeError::malformed("alive interval attribute out of range", bytes))
        } else if nan(interval.lower) || nan(interval.upper) || inverted {
            Err(DecodeError::malformed("alive interval edges NaN or inverted", bytes))
        } else if interval.cum_before.len() != NUM_CLASSES {
            Err(DecodeError::malformed("alive interval class counts of the wrong length", bytes))
        } else {
            Ok(interval)
        }
    }
}

/// Exact gini scan over the points of one alive interval: sorts the points
/// and evaluates the split at every distinct value. Returns the best
/// candidate, or `None` when the interval has no point.
///
/// `points` are `(value, class)` pairs of records inside the interval.
pub fn exact_interval_scan(
    points: &mut [(f64, u8)],
    alive: &AliveInterval,
    node_total: &ClassCounts,
) -> Option<Candidate> {
    if points.is_empty() {
        return None;
    }
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN attribute value"));
    let mut left = alive.cum_before.clone();
    let mut right = vec![0u64; node_total.len()];
    let mut best: Option<Candidate> = None;
    let n = points.len();
    let mut i = 0;
    while i < n {
        let v = points[i].0;
        debug_assert!(
            alive.contains(v),
            "point {v} outside alive interval {:?}..{:?}",
            alive.lower,
            alive.upper
        );
        while i < n && points[i].0 == v {
            left[points[i].1 as usize] += 1;
            i += 1;
        }
        for ((r, &t), &l) in right.iter_mut().zip(node_total).zip(&left) {
            *r = t - l;
        }
        if right.iter().sum::<u64>() == 0 {
            break; // threshold at the global maximum cannot partition
        }
        let g = split_gini(&left, &right);
        // Thresholds ascend within the interval, so the canonical key
        // (`Candidate::key`: gini bits, then threshold) is decided by the
        // gini bits alone: on a tie the later, larger threshold loses.
        if best.as_ref().is_none_or(|b| g.to_bits() < b.gini.to_bits()) {
            best = Some(Candidate {
                gini: g,
                splitter: Splitter::Numeric {
                    attr: alive.attr,
                    threshold: v,
                },
                left_counts: left.clone(),
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intervals::IntervalSet;

    fn stats_from(values: &[(f64, u8)], q: usize) -> (AttrIntervalStats, ClassCounts) {
        let sample: Vec<f64> = values.iter().map(|&(v, _)| v).collect();
        let intervals = IntervalSet::from_sample(&sample, q);
        let mut stats = AttrAccumulator::new(0, intervals);
        let mut total = vec![0u64; 2];
        for &(v, c) in values {
            stats.add_value(v, c);
            total[c as usize] += 1;
        }
        (stats.finish(), total)
    }

    /// Brute-force best split over all distinct thresholds.
    fn brute_force_best(values: &[(f64, u8)]) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut total = vec![0u64; 2];
        for &(_, c) in &sorted {
            total[c as usize] += 1;
        }
        let mut left = vec![0u64, 0];
        let mut best = f64::INFINITY;
        let mut i = 0;
        while i < sorted.len() {
            let v = sorted[i].0;
            while i < sorted.len() && sorted[i].0 == v {
                left[sorted[i].1 as usize] += 1;
                i += 1;
            }
            let right = sub(&total, &left);
            best = best.min(split_gini(&left, &right));
        }
        best
    }

    fn synthetic_values(n: usize) -> Vec<(f64, u8)> {
        // Class 0 below 37.5, class 1 above, with some overlap noise.
        (0..n)
            .map(|i| {
                let v = (i as f64 * 7.3) % 100.0;
                let c = if v <= 37.5 {
                    u8::from(i % 13 == 0)
                } else {
                    u8::from(i % 11 != 0)
                };
                (v, c)
            })
            .collect()
    }

    #[test]
    fn interval_counts_sum_to_totals() {
        let values = synthetic_values(500);
        let (stats, total) = stats_from(&values, 8);
        assert_eq!(stats.totals(), total);
        let per_interval: u64 = stats.counts.cells().iter().sum();
        assert_eq!(per_interval, 500);
    }

    #[test]
    fn merge_equals_combined_accumulation() {
        let values = synthetic_values(300);
        // Build with the same interval set for both halves.
        let sample: Vec<f64> = values.iter().map(|&(v, _)| v).collect();
        let intervals = IntervalSet::from_sample(&sample, 6);
        let mut a = AttrAccumulator::new(0, intervals.clone());
        let mut b = AttrAccumulator::new(0, intervals.clone());
        let mut whole = AttrAccumulator::new(0, intervals.clone());
        for (i, &(v, c)) in values.iter().enumerate() {
            if i % 2 == 0 {
                a.add_value(v, c);
            } else {
                b.add_value(v, c);
            }
            whole.add_value(v, c);
        }
        // Merging into empty statistics changes nothing either.
        let mut merged = AttrIntervalStats::new(0, intervals, 2);
        merged.merge(&a.finish());
        merged.merge(&b.finish());
        assert_eq!(merged, whole.finish());
    }

    #[test]
    fn boundary_ginis_match_direct_computation() {
        let values = synthetic_values(400);
        let (stats, total) = stats_from(&values, 10);
        let ginis = stats.boundary_ginis(&total);
        for (i, &b) in stats.intervals.boundaries().iter().enumerate() {
            let mut left = vec![0u64; 2];
            for &(v, c) in &values {
                if v <= b {
                    left[c as usize] += 1;
                }
            }
            let right = sub(&total, &left);
            let expected = split_gini(&left, &right);
            assert!(
                (ginis[i] - expected).abs() < 1e-12,
                "boundary {i}: {} vs {expected}",
                ginis[i]
            );
        }
    }

    #[test]
    fn sse_exact_scan_finds_global_optimum() {
        // SSE with alive intervals must recover the brute-force optimum:
        // the lower bound never prunes the true best interval.
        let values = synthetic_values(800);
        let (stats, total) = stats_from(&values, 16);
        let boundary_best = stats
            .best_boundary(&total)
            .map(|c| c.gini)
            .unwrap_or(f64::INFINITY);
        let alive = stats.alive_intervals(&total, boundary_best);
        let mut best = boundary_best;
        for a in &alive {
            let mut points: Vec<(f64, u8)> =
                values.iter().copied().filter(|&(v, _)| a.contains(v)).collect();
            assert_eq!(points.len() as u64, a.count, "alive interval count");
            if let Some(c) = exact_interval_scan(&mut points, a, &total) {
                best = best.min(c.gini);
            }
        }
        let brute = brute_force_best(&values);
        assert!(
            (best - brute).abs() < 1e-12,
            "SSE best {best} != brute force {brute}"
        );
    }

    #[test]
    fn alive_interval_pruning_is_sound() {
        // Every interval pruned by the bound must contain no split better
        // than gini_min.
        let values = synthetic_values(600);
        let (stats, total) = stats_from(&values, 12);
        let gini_min = stats.best_boundary(&total).unwrap().gini;
        let alive = stats.alive_intervals(&total, gini_min);
        let alive_idx: Vec<usize> = alive.iter().map(|a| a.index).collect();
        for i in 0..stats.intervals.num_intervals() {
            if alive_idx.contains(&i) {
                continue;
            }
            // Scan the pruned interval exactly; nothing should beat gini_min.
            let lo = stats.intervals.lower_edge(i);
            let hi = stats.intervals.upper_edge(i);
            let mut cum_before = vec![0u64; 2];
            for j in 0..i {
                add_assign(&mut cum_before, stats.counts.row(j));
            }
            let fake = AliveInterval {
                attr: 0,
                index: i,
                lower: lo,
                upper: hi,
                cum_before,
                est: 0.0,
                count: stats.counts.row(i).iter().sum(),
            };
            let mut points: Vec<(f64, u8)> =
                values.iter().copied().filter(|&(v, _)| fake.contains(v)).collect();
            if let Some(c) = exact_interval_scan(&mut points, &fake, &total) {
                assert!(
                    c.gini >= gini_min - 1e-12,
                    "pruned interval {i} hides a better split: {} < {gini_min}",
                    c.gini
                );
            }
        }
    }

    #[test]
    fn alive_interval_contains_respects_half_open_edges() {
        let a = AliveInterval {
            attr: 0,
            index: 1,
            lower: Some(10.0),
            upper: Some(20.0),
            cum_before: vec![0, 0],
            est: 0.0,
            count: 0,
        };
        assert!(!a.contains(10.0));
        assert!(a.contains(10.0001));
        assert!(a.contains(20.0));
        assert!(!a.contains(20.0001));
    }

    #[test]
    fn from_parts_refuses_inconsistent_cells() {
        let intervals = || IntervalSet::from_boundaries(vec![1.0, 2.0]);
        let ranges = [Some((0.0, 0.5)), None, Some((3.0, 3.0))];
        let ok =
            AttrIntervalStats::from_parts(0, intervals(), CountTable::new(3, 2), &ranges).unwrap();
        assert_eq!((ok.range(0), ok.range(1)), (Some((0.0, 0.5)), None));
        assert_eq!(AttrIntervalStats::from_bytes(&ok.to_bytes()).unwrap(), ok);
        // Shapes that disagree with the interval set.
        assert!(
            AttrIntervalStats::from_parts(0, intervals(), CountTable::new(2, 2), &ranges).is_err()
        );
        assert!(
            AttrIntervalStats::from_parts(0, intervals(), CountTable::new(3, 2), &ranges[..2])
                .is_err()
        );
        // An inverted or NaN range would read as "empty" in the flat cells.
        for bad in [(1.0, 0.0), (f64::NAN, 1.0), (0.0, f64::NAN)] {
            let ranges = [Some(bad), None, None];
            assert!(
                AttrIntervalStats::from_parts(0, intervals(), CountTable::new(3, 2), &ranges)
                    .is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn alive_interval_wire_roundtrip() {
        let a = AliveInterval {
            attr: 3,
            index: 7,
            lower: None,
            upper: Some(1.5),
            cum_before: vec![4, 9],
            est: 0.123,
            count: 13,
        };
        assert_eq!(AliveInterval::from_bytes(&a.to_bytes()).unwrap(), a);
    }

    #[test]
    fn empty_interval_scan_returns_none() {
        let a = AliveInterval {
            attr: 0,
            index: 0,
            lower: None,
            upper: None,
            cum_before: vec![0, 0],
            est: 0.0,
            count: 0,
        };
        assert_eq!(exact_interval_scan(&mut [], &a, &vec![5, 5]), None);
    }
}
