//! Random sampling helpers: the "pre-drawn random sample set S" used to
//! place interval boundaries.

use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::seq::index::sample as index_sample;
use rand::SeedableRng;

use pdc_datagen::{Record, NUM_NUMERIC};

use crate::intervals::IntervalSet;
use crate::split::Splitter;

/// Draw `size` records uniformly without replacement (or all of them when
/// `size >= records.len()`), deterministically for a given seed.
pub fn draw_sample(records: &[Record], size: usize, seed: u64) -> Vec<Record> {
    if size >= records.len() {
        return records.to_vec();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let idx = index_sample(&mut rng, records.len(), size);
    idx.into_iter().map(|i| records[i]).collect()
}

/// An integer that orders as `value` does under `partial_cmp`: −0.0 and 0.0
/// are one key, NaN is refused. Integer keys sort several times faster than
/// a float comparator.
fn sort_key(value: f64) -> u64 {
    assert!(!value.is_nan(), "NaN attribute value");
    let bits = (value + 0.0).to_bits(); // −0.0 + 0.0 is 0.0
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// A node's sample points with every numeric attribute **sorted once**: the
/// records in drawing order plus, per numeric attribute, the record indices
/// in ascending value order. The root's columns are sorted when the sample
/// is drawn; [`SortedSample::split`] routes them *stably* down the tree, so
/// a child's columns are sorted without sorting and its interval boundaries
/// are read off by index ([`SortedSample::intervals`]). This is the
/// pre-sorted attribute list of SLIQ/SPRINT — which CLOUDS avoids for the
/// data — applied to the sample, which is small and replicated.
///
/// Equality sees the points and columns only; the interval sets already
/// cut from them are derived data.
#[derive(Debug, Clone, Default)]
pub struct SortedSample {
    records: Vec<Record>,
    /// `columns[a][k]` indexes the record with the `k`-th smallest value of
    /// numeric attribute `a` (ties in record order).
    columns: [Vec<u32>; NUM_NUMERIC],
    cuts: Cuts,
}

impl PartialEq for SortedSample {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records && self.columns == other.columns
    }
}

/// The interval sets cut from one sample, by `(attr, q)`. Every modelled
/// rank reads a node's sets off the same shared sample, so the host cuts
/// each once and hands out clones (pointer copies) of it.
#[derive(Debug, Default)]
struct Cuts(Mutex<Vec<(usize, usize, IntervalSet)>>);

impl Clone for Cuts {
    fn clone(&self) -> Self {
        Cuts(Mutex::new(self.0.lock().unwrap_or_else(PoisonError::into_inner).clone()))
    }
}

impl SortedSample {
    /// Sort every numeric attribute of `records` (the one sort of a build).
    pub fn new(records: Vec<Record>) -> SortedSample {
        assert!(
            u32::try_from(records.len()).is_ok(),
            "sample of {} points exceeds the u32 column index",
            records.len()
        );
        let columns = std::array::from_fn(|attr| {
            // Ties in record order, as a stable sort of the values leaves
            // them — so a column equals what sorting the child from scratch
            // would give, bit for bit.
            let mut keyed: Vec<(u64, u32)> =
                records.iter().zip(0..).map(|(r, i)| (sort_key(r.num(attr)), i)).collect();
            keyed.sort_unstable();
            keyed.into_iter().map(|(_, i)| i).collect()
        });
        SortedSample {
            records,
            columns,
            cuts: Cuts::default(),
        }
    }

    /// The sample points, in drawing order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Boundaries of `q` equi-depth intervals of numeric attribute `attr`,
    /// equal to `IntervalSet::from_sample` over the points' raw values. The
    /// first call for `(attr, q)` cuts the set; every later one returns a
    /// clone of it, sharing its boundaries.
    pub fn intervals(&self, attr: usize, q: usize) -> IntervalSet {
        let mut cuts = self.cuts.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, _, set)) = cuts.iter().find(|&&(a, k, _)| (a, k) == (attr, q)) {
            return set.clone();
        }
        let column = &self.columns[attr];
        let set =
            IntervalSet::from_sorted(column.len(), |k| self.records[column[k] as usize].num(attr), q);
        cuts.push((attr, q, set.clone()));
        set
    }

    /// Partition the sample on `splitter` into (left, right). Stable in the
    /// records and in every column, so both children are sorted samples.
    pub fn split(self, splitter: &Splitter) -> (SortedSample, SortedSample) {
        // The parent's cut sets describe the parent: they go with it.
        let SortedSample { records, columns, .. } = self;
        // Where each point goes: its side (right?) and its index there.
        let mut counts = [0u32; 2];
        let placed: Vec<(bool, u32)> = records
            .iter()
            .map(|r| {
                let right = !splitter.goes_left(r);
                counts[usize::from(right)] += 1;
                (right, counts[usize::from(right)] - 1)
            })
            .collect();
        let mut sides = counts.map(|n| SortedSample {
            records: Vec::with_capacity(n as usize),
            ..SortedSample::default()
        });
        for (r, &(right, _)) in records.iter().zip(&placed) {
            sides[usize::from(right)].records.push(*r);
        }
        // Every rank of a machine splits its replica at the same moment:
        // let go of each piece of the parent as soon as it is routed.
        drop(records);
        for (attr, column) in columns.into_iter().enumerate() {
            for (side, n) in sides.iter_mut().zip(counts) {
                side.columns[attr].reserve_exact(n as usize);
            }
            for i in column {
                let (right, at) = placed[i as usize];
                sides[usize::from(right)].columns[attr].push(at);
            }
        }
        let [left, right] = sides;
        (left, right)
    }
}

/// Reservoir sampling over a streaming source (used by the out-of-core
/// builders where the data never fits in memory).
pub struct Reservoir {
    size: usize,
    seen: u64,
    rng: StdRng,
    items: Vec<Record>,
}

impl Reservoir {
    /// Reservoir of capacity `size`.
    pub fn new(size: usize, seed: u64) -> Self {
        Reservoir {
            size,
            seen: 0,
            rng: StdRng::seed_from_u64(seed),
            items: Vec::with_capacity(size),
        }
    }

    /// Offer one record to the reservoir.
    pub fn offer(&mut self, record: Record) {
        use rand::Rng;
        self.seen += 1;
        if self.items.len() < self.size {
            self.items.push(record);
        } else {
            let j = self.rng.random_range(0..self.seen);
            if (j as usize) < self.size {
                self.items[j as usize] = record;
            }
        }
    }

    /// Records seen so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Consume the reservoir, returning the sample.
    pub fn into_sample(self) -> Vec<Record> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_datagen::{generate, GeneratorConfig};

    #[test]
    fn sample_is_deterministic_and_right_sized() {
        let records = generate(1000, GeneratorConfig::default());
        let a = draw_sample(&records, 100, 7);
        let b = draw_sample(&records, 100, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        let c = draw_sample(&records, 100, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn interval_sets_are_cut_once_per_attribute_and_q() {
        let sample = SortedSample::new(generate(400, GeneratorConfig::default()));
        let shared =
            |a: &IntervalSet, b: &IntervalSet| a.boundaries().as_ptr() == b.boundaries().as_ptr();
        let set = sample.intervals(0, 20);
        assert!(shared(&set, &sample.intervals(0, 20)));
        // Another q or attribute is another cut; a clone of the sample
        // keeps what was cut.
        assert!(!shared(&set, &sample.intervals(0, 21)));
        assert!(!shared(&set, &sample.intervals(1, 20)));
        assert!(shared(&set, &sample.clone().intervals(0, 20)));
        assert_eq!(sample, SortedSample::new(sample.records().to_vec()));
    }

    #[test]
    fn a_split_child_cuts_its_own_sets() {
        let records = generate(400, GeneratorConfig::default());
        let sample = SortedSample::new(records.clone());
        let splitter = Splitter::Numeric {
            attr: 0,
            threshold: records[0].num(0),
        };
        let parent: Vec<IntervalSet> = (0..NUM_NUMERIC).map(|a| sample.intervals(a, 10)).collect();
        let (left, right) = sample.split(&splitter);
        for (child, side) in [(left, true), (right, false)] {
            let raw: Vec<Record> =
                records.iter().filter(|r| splitter.goes_left(r) == side).copied().collect();
            assert_eq!(child.records(), raw);
            for (attr, parent) in parent.iter().enumerate() {
                let values: Vec<f64> = raw.iter().map(|r| r.num(attr)).collect();
                let set = child.intervals(attr, 10);
                assert_eq!(set, IntervalSet::from_sample(&values, 10), "attr {attr}");
                assert_ne!(set.boundaries().as_ptr(), parent.boundaries().as_ptr());
            }
        }
    }

    #[test]
    fn oversized_sample_returns_everything() {
        let records = generate(50, GeneratorConfig::default());
        let s = draw_sample(&records, 100, 7);
        assert_eq!(s, records);
    }

    #[test]
    fn sample_has_no_duplicate_indices() {
        // With all-distinct records, a without-replacement sample has no
        // duplicates.
        let records = generate(500, GeneratorConfig::default());
        let s = draw_sample(&records, 200, 3);
        let mut keys: Vec<u64> = s.iter().map(|r| r.numeric[0].to_bits()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 200);
    }

    #[test]
    fn reservoir_keeps_capacity_and_counts() {
        let records = generate(1000, GeneratorConfig::default());
        let mut res = Reservoir::new(64, 5);
        for r in &records {
            res.offer(*r);
        }
        assert_eq!(res.seen(), 1000);
        let sample = res.into_sample();
        assert_eq!(sample.len(), 64);
    }

    #[test]
    fn reservoir_under_capacity_keeps_all() {
        let records = generate(10, GeneratorConfig::default());
        let mut res = Reservoir::new(64, 5);
        for r in &records {
            res.offer(*r);
        }
        assert_eq!(res.into_sample(), records);
    }

    #[test]
    fn reservoir_is_roughly_uniform() {
        // Offer 0..1000 (encoded in salary); check the sampled mean is near
        // the population mean.
        let mut res = Reservoir::new(200, 11);
        let mut template = generate(1, GeneratorConfig::default())[0];
        for i in 0..1000 {
            template.numeric[0] = i as f64;
            res.offer(template);
        }
        let sample = res.into_sample();
        let mean: f64 = sample.iter().map(|r| r.numeric[0]).sum::<f64>() / sample.len() as f64;
        assert!(
            (mean - 499.5).abs() < 60.0,
            "reservoir mean {mean} far from population mean"
        );
    }
}
