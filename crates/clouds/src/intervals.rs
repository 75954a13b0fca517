//! Interval construction for numeric attributes.
//!
//! In the SS/SSE methods "the range of each numeric attribute is divided
//! into q intervals such that each interval contains approximately the same
//! number of points. These intervals are generated using a predrawn random
//! sample set S."

use std::sync::Arc;

/// Internal boundaries of `q` intervals over one numeric attribute.
/// `boundaries().len() == q - 1`; interval `i` covers `(b_{i-1}, b_i]` with
/// `b_{-1} = -inf`, `b_{q-1} = +inf`. A record exactly on a boundary lies in
/// the interval to its **left**, matching the convention that a numeric
/// split at threshold `t` sends `value <= t` left.
///
/// Equality and the wire form see the boundaries only; the lookup index of
/// [`IntervalSet::from_sorted`] is derived data.
///
/// The boundaries and the index are shared, never copied: a set is cut once
/// per node (`SortedSample::intervals`), every modelled rank's statistics
/// hold a clone — a pointer copy — and two sets cut together compare equal
/// without reading their boundaries.
#[derive(Debug, Clone)]
pub struct IntervalSet {
    /// The boundaries, ascending — followed by [`WINDOW`] × `+inf` when
    /// `grid` is set, so that a lookup window starting at any boundary
    /// (or just past the last) stays inside the array.
    padded: Arc<[f64]>,
    /// Lookup index, built by [`IntervalSet::from_sorted`] only: sets made
    /// by [`IntervalSet::from_boundaries`] or decoded from the wire belong
    /// to owners, which never look values up.
    grid: Option<Grid>,
}

impl PartialEq for IntervalSet {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.padded, &other.padded) || self.boundaries() == other.boundaries()
    }
}

/// Sets with fewer boundaries than this are searched directly.
const GRID_MIN_BOUNDARIES: usize = 16;

/// Boundaries one indexed lookup compares against, and so the most a grid
/// cell may hold. Fixed by measurement: on the host benchmark's training
/// runs the fullest cell of any set, at one cell per boundary, holds four
/// (EXPERIMENTS.md, "Host-clock: one lookup per value"), and four compares
/// fill one 32-byte vector.
const WINDOW: usize = 4;

/// A uniform grid over `[lo, hi]` = `[first, last boundary]`, mapping a
/// cell to the first boundary lying in it or beyond.
///
/// `cell(v) = min(floor((v − lo) · scale), cells − 1)` is monotone
/// non-decreasing in `v`: IEEE subtraction and multiplication by a positive
/// constant round monotonically, and so do the saturating float-to-integer
/// cast and `min`. Hence a boundary in a lower cell than `v` is `< v` and a
/// boundary in a higher cell is `> v`, so the number of boundaries `< v` is
/// `first[cell(v)]` plus the number of boundaries `< v` **among the next
/// [`WINDOW`]**: those of `v`'s own cell are all there (no cell holds
/// more), and whatever the window takes in from higher cells, or from the
/// `+inf` padding, compares `> v` and counts nothing — exactly what the
/// full binary search returns, without a data-dependent branch.
#[derive(Debug, Clone)]
struct Grid {
    lo: f64,
    scale: f64,
    /// `first[c]` = boundaries in cells below `c`; `cells + 1` entries.
    /// `u16` keeps the index at a quarter of the boundaries' own size.
    first: Arc<[u16]>,
}

impl Grid {
    /// The index of `boundaries`, or `None` where it would be useless (few
    /// boundaries) or inexact (no finite positive scale): those sets keep
    /// the plain binary search. One cell per boundary holds an evenly
    /// spread set; a set bunched so that some cell would be overfull gets
    /// 2, 4 or 8 cells per boundary, and past that the plain search too.
    fn build(boundaries: &[f64]) -> Option<Grid> {
        let n = boundaries.len();
        if !(GRID_MIN_BOUNDARIES..=usize::from(u16::MAX)).contains(&n) {
            return None;
        }
        [1, 2, 4, 8].into_iter().find_map(|per| Grid::with_cells(boundaries, n * per))
    }

    /// The `cells`-cell index, unless a cell would hold more than
    /// [`WINDOW`] boundaries.
    fn with_cells(boundaries: &[f64], cells: usize) -> Option<Grid> {
        let (lo, hi) = (boundaries[0], boundaries[boundaries.len() - 1]);
        let scale = cells as f64 / (hi - lo);
        // `hi − lo` overflowing gives scale 0, a subnormal spread gives inf.
        if !(scale.is_finite() && scale > 0.0) {
            return None;
        }
        let mut first = vec![0u16; cells + 1];
        for &b in boundaries {
            first[cell(lo, scale, cells, b) + 1] += 1;
        }
        if first.iter().any(|&held| usize::from(held) > WINDOW) {
            return None;
        }
        for c in 0..cells {
            first[c + 1] += first[c];
        }
        Some(Grid {
            lo,
            scale,
            first: first.into(),
        })
    }

    /// Cell of a value.
    #[inline]
    fn cell(&self, v: f64) -> usize {
        cell(self.lo, self.scale, self.first.len() - 1, v)
    }
}

/// Cell of `v` in a `cells`-cell grid from `lo` at `scale` cells per unit.
/// The cast saturates: `+inf` lands in the last cell, anything `<= lo` —
/// and NaN — in cell 0.
#[inline]
fn cell(lo: f64, scale: f64, cells: usize, v: f64) -> usize {
    (((v - lo) * scale) as usize).min(cells - 1)
}

impl pdc_cgm::Wire for IntervalSet {
    /// The wire form of the `Vec<f64>` of boundaries.
    fn encode(&self, buf: &mut Vec<u8>) {
        let boundaries = self.boundaries();
        (boundaries.len() as u64).encode(buf);
        for b in boundaries {
            b.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        8 + 8 * self.boundaries().len()
    }
    fn decode(bytes: &mut &[u8]) -> pdc_cgm::wire::DecodeResult<Self> {
        let boundaries = Vec::<f64>::decode(bytes)?;
        if !strictly_ascending(&boundaries) {
            return Err(pdc_cgm::wire::DecodeError::malformed("boundaries not strictly ascending", bytes));
        }
        Ok(IntervalSet {
            padded: boundaries.into(),
            grid: None,
        })
    }
}

/// Strictly ascending, hence free of duplicates and NaN.
fn strictly_ascending(boundaries: &[f64]) -> bool {
    boundaries.windows(2).all(|w| w[0] < w[1]) && !boundaries.iter().any(|b| b.is_nan())
}

impl IntervalSet {
    /// Build an interval set directly from ascending internal boundaries.
    pub fn from_boundaries(boundaries: Vec<f64>) -> IntervalSet {
        assert!(strictly_ascending(&boundaries), "boundaries must be strictly ascending");
        IntervalSet {
            padded: boundaries.into(),
            grid: None,
        }
    }

    /// Build interval boundaries from the sample's values for one attribute
    /// (equi-depth quantiles of the sample): sort, then
    /// [`IntervalSet::from_sorted`].
    pub fn from_sample(values: &[f64], q: usize) -> IntervalSet {
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN attribute value"));
        IntervalSet::from_sorted(sorted.len(), |i| sorted[i], q)
    }

    /// Pick the boundaries of `q` equi-depth intervals out of a column that
    /// is already sorted ascending: `n` values, the `i`-th read by
    /// `value(i)` — `O(q)` reads, whatever `n` is. Duplicates are removed,
    /// so the result may have fewer than `q` intervals when the column has
    /// few distinct values.
    pub fn from_sorted(n: usize, value: impl Fn(usize) -> f64, q: usize) -> IntervalSet {
        assert!(q >= 1, "need at least one interval");
        if n == 0 || q == 1 {
            return IntervalSet::from_boundaries(Vec::new());
        }
        let mut boundaries = Vec::with_capacity(q - 1 + WINDOW);
        for i in 1..q {
            // The i-th q-quantile of the sample.
            boundaries.push(value(((i * n) / q).min(n - 1)));
        }
        boundaries.dedup();
        // A boundary equal to the maximum value would create an empty last
        // interval; harmless, keep it simple and drop it.
        let max = value(n - 1);
        while boundaries.last() == Some(&max) {
            boundaries.pop();
        }
        let grid = Grid::build(&boundaries);
        if grid.is_some() {
            boundaries.extend([f64::INFINITY; WINDOW]);
        }
        IntervalSet {
            padded: boundaries.into(),
            grid,
        }
    }

    /// Number of intervals (`boundaries + 1`).
    pub fn num_intervals(&self) -> usize {
        self.boundaries().len() + 1
    }

    /// The internal boundary values, ascending.
    pub fn boundaries(&self) -> &[f64] {
        let padding = if self.grid.is_some() { WINDOW } else { 0 };
        &self.padded[..self.padded.len() - padding]
    }

    /// Index of the interval containing `v` (boundary values belong to the
    /// left interval): the number of boundaries below `v`, 0 for NaN.
    #[inline]
    pub fn interval_of(&self, v: f64) -> usize {
        let Some(grid) = &self.grid else {
            return self.padded.partition_point(|&b| b < v);
        };
        let start = usize::from(grid.first[grid.cell(v)]);
        let window = &self.padded[start..start + WINDOW];
        start + window.iter().map(|&b| usize::from(b < v)).sum::<usize>()
    }

    /// The open lower edge of interval `i` (`None` for the first interval).
    pub fn lower_edge(&self, i: usize) -> Option<f64> {
        if i == 0 {
            None
        } else {
            Some(self.boundaries()[i - 1])
        }
    }

    /// The closed upper edge of interval `i` (`None` for the last interval).
    pub fn upper_edge(&self, i: usize) -> Option<f64> {
        self.boundaries().get(i).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_depth_on_uniform_sample() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let set = IntervalSet::from_sample(&values, 10);
        assert_eq!(set.num_intervals(), 10);
        // Boundaries near 100, 200, ... 900.
        for (i, &b) in set.boundaries().iter().enumerate() {
            let expected = 100.0 * (i + 1) as f64;
            assert!((b - expected).abs() <= 1.0, "boundary {i} = {b}");
        }
    }

    #[test]
    fn interval_of_respects_left_closed_boundaries() {
        let set = IntervalSet::from_boundaries(vec![10.0, 20.0]);
        assert_eq!(set.interval_of(5.0), 0);
        assert_eq!(set.interval_of(10.0), 0, "boundary belongs left");
        assert_eq!(set.interval_of(10.5), 1);
        assert_eq!(set.interval_of(20.0), 1);
        assert_eq!(set.interval_of(25.0), 2);
    }

    #[test]
    fn duplicate_heavy_sample_collapses_intervals() {
        let values = vec![5.0; 100];
        let set = IntervalSet::from_sample(&values, 10);
        assert_eq!(set.num_intervals(), 1);
        assert_eq!(set.interval_of(5.0), 0);
    }

    #[test]
    fn empty_sample_and_single_interval() {
        let set = IntervalSet::from_sample(&[], 10);
        assert_eq!(set.num_intervals(), 1);
        let set = IntervalSet::from_sample(&[1.0, 2.0], 1);
        assert_eq!(set.num_intervals(), 1);
    }

    #[test]
    fn edges_are_consistent() {
        let set = IntervalSet::from_boundaries(vec![1.0, 2.0, 3.0]);
        assert_eq!(set.lower_edge(0), None);
        assert_eq!(set.upper_edge(0), Some(1.0));
        assert_eq!(set.lower_edge(2), Some(2.0));
        assert_eq!(set.upper_edge(3), None);
        assert_eq!(set.num_intervals(), 4);
    }

    #[test]
    fn lookup_index_is_built_only_where_it_is_exact_and_useful() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let indexed = IntervalSet::from_sample(&values, 100);
        assert!(indexed.grid.is_some());
        for v in [-1.0, 0.0, 9.5, 10.0, 10.5, 500.0, 989.9, 990.0, 2_000.0] {
            let plain = indexed.boundaries().partition_point(|&b| b < v);
            assert_eq!(indexed.interval_of(v), plain, "value {v}");
        }
        // Too few boundaries to pay for an index.
        assert!(IntervalSet::from_sample(&values, 8).grid.is_none());
        // A cell may hold as many boundaries as a lookup compares — here
        // 5.0 and `extra` more in cell 6 of a ladder 0..20 — and not one
        // more: that set gets finer cells.
        let clustered = |extra: usize| {
            let mut sample: Vec<f64> = (-1..=20).map(f64::from).collect();
            sample.extend((1..=extra).map(|j| 5.0 + j as f64 / 10.0));
            let set = IntervalSet::from_sample(&sample, sample.len());
            assert_eq!(set.boundaries().len(), 20 + extra);
            for v in [4.9, 5.0, 5.05, 5.1, 5.25, 5.3, 5.4, 5.45, 6.0, 19.0, 25.0, f64::NAN] {
                let plain = set.boundaries().partition_point(|&b| b < v);
                assert_eq!(set.interval_of(v), plain, "value {v}, {extra} extra");
            }
            set
        };
        let cells = |set: &IntervalSet| set.grid.as_ref().map(|g| g.first.len() - 1);
        let full = clustered(WINDOW - 1);
        assert_eq!(cells(&full), Some(20 + WINDOW - 1));
        assert_eq!(full.padded[20 + WINDOW - 1..], [f64::INFINITY; WINDOW]);
        assert_eq!(cells(&clustered(WINDOW)), Some(2 * (20 + WINDOW)));
        // Bunched beyond eight cells per boundary: the plain search.
        let bunched: Vec<f64> = (0..100).map(|i| 2f64.powi(i - 50)).collect();
        let set = IntervalSet::from_sample(&bunched, 50);
        assert!(set.grid.is_none() && set.num_intervals() > 40);
        assert_eq!(&*set.padded, set.boundaries());
        // `hi - lo` overflows: no finite scale, plain search.
        let stretch = f64::MAX / 600.0;
        let wide: Vec<f64> = values.iter().map(|v| (v - 500.0) * stretch).collect();
        let set = IntervalSet::from_sample(&wide, 100);
        assert!(set.grid.is_none() && set.num_intervals() > 50);
        // Owners' sets (explicit boundaries, wire) carry no index and
        // compare equal to the indexed set with the same boundaries.
        let plain = IntervalSet::from_boundaries(indexed.boundaries().to_vec());
        assert!(plain.grid.is_none());
        assert_eq!(plain, indexed);
        use pdc_cgm::Wire;
        assert_eq!(plain.to_bytes(), indexed.to_bytes());
        let decoded = IntervalSet::from_bytes(&indexed.to_bytes()).unwrap();
        assert!(decoded.grid.is_none());
    }

    #[test]
    fn clones_share_their_boundaries_and_the_wire_form_compares_equal() {
        use pdc_cgm::Wire;
        let values: Vec<f64> = (0..1000).map(|i| (i % 97) as f64).collect();
        for q in [1, 8, 100] {
            let set = IntervalSet::from_sample(&values, q);
            let clone = set.clone();
            assert!(Arc::ptr_eq(&set.padded, &clone.padded));
            assert_eq!(clone, set);
            // Decoded, the set owns fresh boundaries and still compares
            // equal, both ways.
            let decoded = IntervalSet::from_bytes(&clone.to_bytes()).unwrap();
            assert!(!Arc::ptr_eq(&set.padded, &decoded.padded));
            assert_eq!(decoded, set, "q {q}");
            assert_eq!(set, decoded, "q {q}");
            assert_ne!(IntervalSet::from_boundaries(vec![0.5]), set, "q {q}");
        }
    }

    #[test]
    fn max_value_boundary_is_dropped() {
        // Skewed sample where high quantiles coincide with the max.
        let mut values = vec![1.0, 2.0, 3.0];
        values.extend(vec![100.0; 97]);
        let set = IntervalSet::from_sample(&values, 10);
        for &b in set.boundaries() {
            assert!(b < 100.0, "boundary {b} would create empty last interval");
        }
    }
}
