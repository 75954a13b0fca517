//! Categorical-attribute split evaluation.
//!
//! CLOUDS "evaluates categorical attributes in the same way as SPRINT": a
//! count matrix (value × class) is accumulated in one pass, and the best
//! binary partition of the value set is chosen by gini. Three strategies:
//!
//! * **exhaustive** subset enumeration for small cardinalities (exact);
//! * **Breiman ordering** for two classes: sorting values by their class-0
//!   proportion and scanning prefix splits is provably optimal (Breiman et
//!   al., 1984) — exact at any cardinality;
//! * **greedy hill climbing** otherwise (the SPRINT fallback).

use pdc_cgm::wire::{DecodeError, DecodeResult, Wire};

use crate::gini::{add_assign, split_gini, sub, ClassCounts, CountTable};
use crate::split::{Candidate, Splitter};

/// Largest categorical cardinality: value subsets are `u64` bitmasks.
const MAX_CARDINALITY: usize = 64;

/// Categorical attributes with cardinality up to this limit are split by
/// exhaustive subset enumeration (at most `2^11 − 1` partitions); the
/// limit every builder passes to [`CountMatrix::best_split`].
pub const EXHAUSTIVE_LIMIT: u32 = 12;

/// Count matrix of one categorical attribute at one node: row `v`, column
/// `k` = records with attribute value `v` and class `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct CountMatrix {
    /// Categorical attribute index.
    pub attr: usize,
    /// `cardinality × nclasses` counts.
    counts: CountTable,
}

impl CountMatrix {
    /// Empty matrix for `attr` with the given shape.
    pub fn new(attr: usize, cardinality: usize, nclasses: usize) -> Self {
        assert!(
            cardinality <= MAX_CARDINALITY,
            "categorical cardinality above bitmask width"
        );
        CountMatrix {
            attr,
            counts: CountTable::new(cardinality, nclasses),
        }
    }

    /// Matrix with the given counts, one row per attribute value. Errors
    /// when there are more rows than a value bitmask can address — decoders
    /// pass outside input through here.
    pub fn from_table(attr: usize, counts: CountTable) -> Result<Self, &'static str> {
        if counts.rows() > MAX_CARDINALITY {
            return Err("categorical cardinality above bitmask width");
        }
        Ok(CountMatrix { attr, counts })
    }

    /// Class counts per attribute value.
    pub fn counts(&self) -> &CountTable {
        &self.counts
    }

    /// Record one value/class observation.
    #[inline]
    pub fn add_value(&mut self, value: u8, class: u8) {
        self.counts.increment(value as usize, class as usize);
    }

    /// Merge another processor's matrix (element-wise sum).
    pub fn merge(&mut self, other: &CountMatrix) {
        assert_eq!(self.attr, other.attr);
        self.counts.add_assign(&other.counts);
    }

    /// Total class counts across all values.
    pub fn totals(&self) -> ClassCounts {
        self.counts.totals()
    }

    fn left_counts(&self, mask: u64) -> ClassCounts {
        let mut left = vec![0u64; self.counts.cols()];
        for (v, c) in self.counts.iter().enumerate() {
            if mask & (1u64 << v) != 0 {
                add_assign(&mut left, c);
            }
        }
        left
    }

    fn candidate(&self, mask: u64, node_total: &ClassCounts) -> Option<Candidate> {
        let left = self.left_counts(mask);
        let right = sub(node_total, &left);
        let nl: u64 = left.iter().sum();
        let nr: u64 = right.iter().sum();
        if nl == 0 || nr == 0 {
            return None; // degenerate split, cannot partition the node
        }
        Some(Candidate {
            gini: split_gini(&left, &right),
            splitter: Splitter::Categorical {
                attr: self.attr,
                left_values: mask,
            },
            left_counts: left,
        })
    }

    /// Best binary partition of this attribute's values.
    ///
    /// Exhaustive for cardinality ≤ `exhaustive_limit`; Breiman ordering for
    /// two classes above that; greedy hill climbing otherwise. Returns
    /// `None` when no non-degenerate split exists (all records share one
    /// value).
    pub fn best_split(&self, node_total: &ClassCounts, exhaustive_limit: u32) -> Option<Candidate> {
        let card = self.counts.rows() as u32;
        let nclasses = node_total.len();
        if card <= 1 {
            return None;
        }
        if card <= exhaustive_limit {
            self.best_split_exhaustive(node_total)
        } else if nclasses == 2 {
            self.best_split_breiman(node_total)
        } else {
            self.best_split_greedy(node_total)
        }
    }

    /// Enumerate all `2^(card-1) − 1` non-trivial partitions (value 0 fixed
    /// on the left to kill the mirror symmetry).
    fn best_split_exhaustive(&self, node_total: &ClassCounts) -> Option<Candidate> {
        let card = self.counts.rows();
        let mut best: Option<Candidate> = None;
        // Masks over values 1..card, with value 0 always on the left.
        for rest in 0..(1u64 << (card - 1)) {
            let mask = 1 | (rest << 1);
            if let Some(c) = self.candidate(mask, node_total) {
                best = Candidate::better(best, c);
            }
        }
        best
    }

    /// Two-class exact method: order values by class-0 proportion and scan
    /// prefix splits.
    fn best_split_breiman(&self, node_total: &ClassCounts) -> Option<Candidate> {
        debug_assert_eq!(node_total.len(), 2);
        let mut order: Vec<usize> = (0..self.counts.rows()).collect();
        let proportion = |v: usize| -> f64 {
            let row = self.counts.row(v);
            let n = row[0] + row[1];
            if n == 0 {
                // Empty values are inert; park them at one end.
                -1.0
            } else {
                row[0] as f64 / n as f64
            }
        };
        order.sort_by(|&a, &b| proportion(a).partial_cmp(&proportion(b)).unwrap());
        let mut best: Option<Candidate> = None;
        let mut mask = 0u64;
        for &v in order.iter().take(self.counts.rows() - 1) {
            mask |= 1u64 << v;
            if let Some(c) = self.candidate(mask, node_total) {
                best = Candidate::better(best, c);
            }
        }
        best
    }

    /// Greedy hill climbing: start from the single best value on the left,
    /// then keep moving the value that most improves gini.
    fn best_split_greedy(&self, node_total: &ClassCounts) -> Option<Candidate> {
        let card = self.counts.rows();
        let mut best: Option<Candidate> = None;
        // Seed: best singleton.
        for v in 0..card {
            if let Some(c) = self.candidate(1u64 << v, node_total) {
                best = Candidate::better(best, c);
            }
        }
        let mut current = best.clone()?;
        loop {
            let Splitter::Categorical { left_values, .. } = current.splitter else {
                unreachable!()
            };
            let mut improved: Option<Candidate> = None;
            for v in 0..card {
                let bit = 1u64 << v;
                if left_values & bit != 0 {
                    continue;
                }
                if let Some(c) = self.candidate(left_values | bit, node_total) {
                    if c.gini < current.gini {
                        improved = Candidate::better(improved, c);
                    }
                }
            }
            match improved {
                Some(c) => {
                    current = c.clone();
                    best = Candidate::better(best, c);
                }
                None => break,
            }
        }
        best
    }
}

impl Wire for CountMatrix {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.attr.encode(buf);
        self.counts.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.attr.encoded_len() + self.counts.encoded_len()
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        let attr = usize::decode(bytes)?;
        let counts = CountTable::decode(bytes)?;
        CountMatrix::from_table(attr, counts).map_err(|what| DecodeError::malformed(what, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(counts: &[[u64; 2]]) -> CountMatrix {
        CountMatrix::from_table(0, CountTable::from_rows(counts).unwrap()).unwrap()
    }

    #[test]
    fn accumulate_and_totals() {
        let mut m = CountMatrix::new(1, 4, 2);
        m.add_value(0, 0);
        m.add_value(0, 1);
        m.add_value(3, 1);
        assert_eq!(m.totals(), vec![1, 2]);
        let mut other = CountMatrix::new(1, 4, 2);
        other.add_value(3, 1);
        m.merge(&other);
        assert_eq!(m.counts.row(3), [0, 2]);
    }

    #[test]
    fn perfect_categorical_split_found() {
        // Values {0,1} are pure class 0; {2,3} pure class 1.
        let m = matrix(&[[5, 0], [3, 0], [0, 4], [0, 6]]);
        let total = m.totals();
        let best = m.best_split(&total, EXHAUSTIVE_LIMIT).unwrap();
        assert!(best.gini.abs() < 1e-12, "gini = {}", best.gini);
        let Splitter::Categorical { left_values, .. } = best.splitter else {
            panic!()
        };
        // Left side must be exactly {0,1} (0 is pinned left).
        assert_eq!(left_values & 0b1111, 0b0011);
    }

    #[test]
    fn breiman_matches_exhaustive_for_two_classes() {
        // Pseudo-random matrices; exhaustive limit high enough to be exact.
        for seed in 0..20u64 {
            let card = 3 + (seed % 6) as usize;
            let counts: Vec<[u64; 2]> = (0..card)
                .map(|v| {
                    let x = seed.wrapping_mul(6364136223846793005).wrapping_add(v as u64);
                    [(x >> 7) % 10, (x >> 17) % 10]
                })
                .collect();
            let m = matrix(&counts);
            let total = m.totals();
            if total.iter().sum::<u64>() == 0 {
                continue;
            }
            let exhaustive = m.best_split_exhaustive(&total);
            let breiman = m.best_split_breiman(&total);
            match (exhaustive, breiman) {
                (Some(a), Some(b)) => assert!(
                    (a.gini - b.gini).abs() < 1e-12,
                    "seed {seed}: exhaustive {} vs breiman {}",
                    a.gini,
                    b.gini
                ),
                (a, b) => assert_eq!(a.is_none(), b.is_none(), "seed {seed}"),
            }
        }
    }

    #[test]
    fn degenerate_single_value_returns_none() {
        let m = matrix(&[[5, 5], [0, 0], [0, 0]]);
        let total = m.totals();
        assert!(m.best_split(&total, EXHAUSTIVE_LIMIT).is_none());
    }

    #[test]
    fn cardinality_one_returns_none() {
        let m = matrix(&[[5, 5]]);
        let total = m.totals();
        assert!(m.best_split(&total, EXHAUSTIVE_LIMIT).is_none());
    }

    #[test]
    fn greedy_finds_reasonable_split_multiclass() {
        // 3 classes, 6 values; greedy should find the clean partition
        // {0,1} vs rest where {0,1} is pure class 0.
        let rows = [[8, 0, 0], [7, 0, 0], [0, 5, 1], [0, 4, 2], [0, 1, 6], [0, 0, 7]];
        let m = CountMatrix::from_table(2, CountTable::from_rows(&rows).unwrap()).unwrap();
        let total = m.totals();
        let greedy = m.best_split_greedy(&total).unwrap();
        let exhaustive = m.best_split_exhaustive(&total).unwrap();
        // Greedy is a heuristic; it must be valid and here it should match.
        assert!((greedy.gini - exhaustive.gini).abs() < 1e-9);
    }

    #[test]
    fn splits_never_have_empty_sides() {
        let m = matrix(&[[5, 0], [0, 0], [0, 5]]);
        let total = m.totals();
        let best = m.best_split(&total, EXHAUSTIVE_LIMIT).unwrap();
        let Splitter::Categorical { left_values, .. } = best.splitter else {
            panic!()
        };
        let left = m.left_counts(left_values);
        let nl: u64 = left.iter().sum();
        let nr: u64 = total.iter().sum::<u64>() - nl;
        assert!(nl > 0 && nr > 0);
    }

    #[test]
    fn wire_roundtrip() {
        let m = matrix(&[[1, 2], [3, 4]]);
        assert_eq!(CountMatrix::from_bytes(&m.to_bytes()).unwrap(), m);
        // More values than a subset bitmask addresses: refused, not shifted.
        let mut wide = Vec::new();
        0usize.encode(&mut wide);
        CountTable::new(MAX_CARDINALITY + 1, 2).encode(&mut wide);
        assert!(CountMatrix::from_bytes(&wide).is_err());
    }
}
