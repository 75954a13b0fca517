//! Split derivation over in-memory record sets: the SS, SSE and direct
//! methods. The sequential builder uses these directly; pCLOUDS uses the
//! same pieces with communication in between (accumulate locally → combine
//! globally → evaluate).

use pdc_datagen::{Record, RecordBatch, CATEGORICAL_CARDINALITY, NUM_CLASSES, NUM_NUMERIC};

use crate::categorical::{CountMatrix, EXHAUSTIVE_LIMIT};
use crate::gini::ClassCounts;
use crate::numeric::{
    exact_interval_scan, AliveInterval, AliveRouter, AttrAccumulator, AttrIntervalStats,
};
use crate::params::{CloudsParams, SplitMethod};
use crate::sample::SortedSample;
use crate::split::Candidate;

/// All statistics the SS/SSE methods need for one node, accumulated in a
/// single pass over the node's records.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// Class distribution of the node.
    pub total: ClassCounts,
    /// Per-numeric-attribute interval statistics.
    pub numeric: Vec<AttrIntervalStats>,
    /// Per-categorical-attribute count matrices.
    pub categorical: Vec<CountMatrix>,
}

/// A node's statistics while its records are being counted; numeric
/// attributes in their accumulation form ([`AttrAccumulator`]).
#[derive(Debug)]
pub struct NodeAccumulator {
    total: ClassCounts,
    numeric: Vec<AttrAccumulator>,
    categorical: Vec<CountMatrix>,
}

impl NodeAccumulator {
    /// Empty statistics with interval boundaries read off `sample`'s
    /// sorted columns.
    pub fn from_sample(sample: &SortedSample, q: usize) -> NodeAccumulator {
        let numeric = (0..NUM_NUMERIC)
            .map(|attr| AttrAccumulator::new(attr, sample.intervals(attr, q)))
            .collect();
        let categorical = (0..CATEGORICAL_CARDINALITY.len())
            .map(|attr| CountMatrix::new(attr, CATEGORICAL_CARDINALITY[attr], NUM_CLASSES))
            .collect();
        NodeAccumulator {
            total: vec![0u64; NUM_CLASSES],
            numeric,
            categorical,
        }
    }

    /// Account a batch of records in every attribute's statistics,
    /// **attribute-major**: the batch is walked once per attribute, so only
    /// that attribute's boundaries and cells (≈ 0.4 MB at `q = 10,000`) are
    /// live in cache at a time instead of every attribute's at every record.
    /// Callers pass batches that themselves fit in cache (a streaming
    /// chunk) — resident records or a view of a page, where each attribute
    /// walk is a strided read of the page's bytes.
    pub fn add_records(&mut self, records: &(impl RecordBatch + ?Sized)) {
        for i in 0..records.len() {
            self.total[records.class(i) as usize] += 1;
        }
        for stats in &mut self.numeric {
            records.for_each_num(stats.attr, |value, class| stats.add_value(value, class));
        }
        for m in &mut self.categorical {
            records.for_each_cat(m.attr, |value, class| m.add_value(value, class));
        }
    }

    /// The counted statistics, ready to merge, send and evaluate.
    pub fn finish(self) -> NodeStats {
        NodeStats {
            total: self.total,
            numeric: self.numeric.into_iter().map(AttrAccumulator::finish).collect(),
            categorical: self.categorical,
        }
    }
}

impl NodeStats {
    /// Merge another processor's statistics (pCLOUDS' global combine).
    pub fn merge(&mut self, other: &NodeStats) {
        crate::gini::add_assign(&mut self.total, &other.total);
        for (a, b) in self.numeric.iter_mut().zip(&other.numeric) {
            a.merge(b);
        }
        for (a, b) in self.categorical.iter_mut().zip(&other.categorical) {
            a.merge(b);
        }
    }

    /// Best split over interval boundaries and categorical attributes — the
    /// SS method's answer, and SSE's `gini_min` starting point.
    pub fn best_ss_split(&self) -> Option<Candidate> {
        let mut best: Option<Candidate> = None;
        for stats in &self.numeric {
            if let Some(c) = stats.best_boundary(&self.total) {
                best = Candidate::better(best, c);
            }
        }
        for m in &self.categorical {
            if let Some(c) = m.best_split(&self.total, EXHAUSTIVE_LIMIT) {
                best = Candidate::better(best, c);
            }
        }
        best
    }

    /// All alive intervals across numeric attributes for a given `gini_min`.
    pub fn alive_intervals(&self, gini_min: f64) -> Vec<AliveInterval> {
        self.numeric
            .iter()
            .flat_map(|s| s.alive_intervals(&self.total, gini_min))
            .collect()
    }

    /// Number of records in the node.
    pub fn n(&self) -> u64 {
        self.total.iter().sum()
    }

    /// Survival ratio: fraction of the node's records lying in `alive`
    /// intervals (the paper's measure of how much work SSE's second pass
    /// must do).
    pub fn survival_ratio(&self, alive: &[AliveInterval]) -> f64 {
        let n = self.n();
        if n == 0 {
            return 0.0;
        }
        let alive_count: u64 = alive.iter().map(|a| a.count).sum();
        alive_count as f64 / n as f64
    }
}

/// Records per [`NodeAccumulator::add_records`] batch when accumulating a resident
/// record set: ≈ 0.2 MB of records, re-read from cache once per attribute.
const ACCUMULATE_BLOCK: usize = 4096;

/// Accumulate [`NodeStats`] for `records` with intervals from `sample`
/// (sorted here; a builder that splits its sample down a tree keeps a
/// [`SortedSample`] and sorts once).
pub fn accumulate_stats(records: &[Record], sample: &[Record], q: usize) -> NodeStats {
    accumulate(records, &SortedSample::new(sample.to_vec()), q)
}

fn accumulate(records: &[Record], sample: &SortedSample, q: usize) -> NodeStats {
    let mut stats = NodeAccumulator::from_sample(sample, q);
    for block in records.chunks(ACCUMULATE_BLOCK) {
        stats.add_records(block);
    }
    stats.finish()
}

/// SSE second pass over in-memory records: exact scans of the alive
/// intervals (sorted by `(attr, index)`, as [`NodeStats::alive_intervals`]
/// lists them), returning the best candidate found (if any beats `best`).
pub fn evaluate_alive_in_memory(
    records: &[Record],
    alive: &[AliveInterval],
    total: &ClassCounts,
    mut best: Option<Candidate>,
) -> Option<Candidate> {
    let mut points: Vec<Vec<(f64, u8)>> = vec![Vec::new(); alive.len()];
    AliveRouter::new(alive).for_each_hit(records, |k, value, class| points[k].push((value, class)));
    for (interval, points) in alive.iter().zip(&mut points) {
        if let Some(c) = exact_interval_scan(points, interval, total) {
            best = Candidate::better(best, c);
        }
    }
    best
}

/// The direct (exact) method: sort every numeric attribute and evaluate the
/// gini index at each distinct point; categorical attributes via their count
/// matrices. Used for small nodes and as the reference method. No
/// parameter tunes it, so `_params` is unread.
pub fn direct_best_split(records: &[Record], _params: &CloudsParams) -> Option<Candidate> {
    if records.is_empty() {
        return None;
    }
    let mut total = vec![0u64; NUM_CLASSES];
    for r in records {
        total[r.class as usize] += 1;
    }
    let mut best: Option<Candidate> = None;
    for attr in 0..NUM_NUMERIC {
        let whole_range = AliveInterval {
            attr,
            index: 0,
            lower: None,
            upper: None,
            cum_before: vec![0u64; NUM_CLASSES],
            est: 0.0,
            count: records.len() as u64,
        };
        let mut points: Vec<(f64, u8)> =
            records.iter().map(|r| (r.num(attr), r.class)).collect();
        if let Some(c) = exact_interval_scan(&mut points, &whole_range, &total) {
            best = Candidate::better(best, c);
        }
    }
    for (attr, &card) in CATEGORICAL_CARDINALITY.iter().enumerate() {
        let mut m = CountMatrix::new(attr, card, NUM_CLASSES);
        for r in records {
            m.add_value(r.cat(attr), r.class);
        }
        if let Some(c) = m.best_split(&total, EXHAUSTIVE_LIMIT) {
            best = Candidate::better(best, c);
        }
    }
    best
}

/// Derive the splitter for an in-memory node with the configured method.
pub fn derive_split_in_memory(
    records: &[Record],
    sample: &SortedSample,
    q: usize,
    params: &CloudsParams,
) -> Option<Candidate> {
    match params.method {
        SplitMethod::Direct => direct_best_split(records, params),
        SplitMethod::SS => {
            let stats = accumulate(records, sample, q);
            stats.best_ss_split()
        }
        SplitMethod::SSE => {
            let stats = accumulate(records, sample, q);
            let ss_best = stats.best_ss_split();
            let gini_min = ss_best.as_ref().map_or(f64::INFINITY, |c| c.gini);
            let alive = stats.alive_intervals(gini_min);
            evaluate_alive_in_memory(records, &alive, &stats.total, ss_best)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::draw_sample;
    use pdc_datagen::{generate, ClassifyFn, GeneratorConfig};

    fn dataset(n: usize) -> Vec<Record> {
        generate(
            n,
            GeneratorConfig {
                function: ClassifyFn::F2,
                ..GeneratorConfig::default()
            },
        )
    }

    #[test]
    fn stats_total_matches_record_count() {
        let records = dataset(500);
        let sample = draw_sample(&records, 100, 1);
        let stats = accumulate_stats(&records, &sample, 20);
        assert_eq!(stats.n(), 500);
        for s in &stats.numeric {
            assert_eq!(s.totals(), stats.total);
        }
        for m in &stats.categorical {
            assert_eq!(m.totals(), stats.total);
        }
    }

    #[test]
    fn merge_equals_whole() {
        let records = dataset(400);
        let sample = draw_sample(&records, 80, 2);
        let sorted = SortedSample::new(sample.clone());
        let mut a = NodeAccumulator::from_sample(&sorted, 10);
        let mut b = NodeAccumulator::from_sample(&sorted, 10);
        let (even, odd): (Vec<_>, Vec<_>) = records.chunks(2).map(|c| (c[0], c[1])).unzip();
        a.add_records(even.as_slice());
        b.add_records(odd.as_slice());
        let mut a = a.finish();
        a.merge(&b.finish());
        let whole = accumulate_stats(&records, &sample, 10);
        assert_eq!(a, whole);
    }

    #[test]
    fn sse_matches_direct_on_numeric_dominated_data() {
        // SSE must find the exact best split (its bound is sound and the
        // alive scan is exact); the direct method is the reference.
        let records = dataset(2_000);
        let sample = SortedSample::new(draw_sample(&records, 500, 3));
        let params = CloudsParams::default();
        let sse = derive_split_in_memory(&records, &sample, 50, &params).unwrap();
        let direct = direct_best_split(&records, &params).unwrap();
        assert!(
            (sse.gini - direct.gini).abs() < 1e-10,
            "SSE {} vs direct {}",
            sse.gini,
            direct.gini
        );
    }

    #[test]
    fn ss_is_no_better_than_sse() {
        let records = dataset(2_000);
        let sample = SortedSample::new(draw_sample(&records, 300, 4));
        let params = CloudsParams::default();
        let ss = derive_split_in_memory(
            &records,
            &sample,
            40,
            &CloudsParams {
                method: SplitMethod::SS,
                ..params.clone()
            },
        )
        .unwrap();
        let sse = derive_split_in_memory(&records, &sample, 40, &params).unwrap();
        assert!(sse.gini <= ss.gini + 1e-12);
    }

    #[test]
    fn survival_ratio_is_small_fraction() {
        // With a good gini_min, few intervals stay alive.
        let records = dataset(5_000);
        let sample = draw_sample(&records, 1_000, 5);
        let stats = accumulate_stats(&records, &sample, 100);
        let gini_min = stats.best_ss_split().unwrap().gini;
        let alive = stats.alive_intervals(gini_min);
        let ratio = stats.survival_ratio(&alive);
        assert!(ratio < 0.5, "survival ratio {ratio} suspiciously high");
    }

    #[test]
    fn direct_split_separates_f2_on_age_or_salary() {
        let records = dataset(3_000);
        let c = direct_best_split(&records, &CloudsParams::default()).unwrap();
        match c.splitter {
            crate::split::Splitter::Numeric { attr, .. } => {
                assert!(
                    attr == pdc_datagen::numeric::AGE || attr == pdc_datagen::numeric::SALARY,
                    "unexpected attribute {attr}"
                );
            }
            ref s => panic!("F2 should split numerically, got {s:?}"),
        }
    }

    #[test]
    fn empty_and_pure_nodes_yield_no_split() {
        let params = CloudsParams::default();
        assert!(direct_best_split(&[], &params).is_none());
        let mut records = dataset(100);
        for r in &mut records {
            r.class = 0;
        }
        // A pure node: every split has gini 0 == node gini; splits exist but
        // are valid (both sides non-empty) — builder stops via purity
        // instead. Direct may return a candidate; just ensure no panic.
        let _ = direct_best_split(&records, &params);
    }
}
