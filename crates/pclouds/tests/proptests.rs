//! Property-based tests of pCLOUDS' key invariants over random data-set
//! seeds: machine-size independence of the tree, determinism, and disk
//! conservation — and of the histogram wire decoder over hostile bytes.

use pdc_cgm::wire::encode_varint;
use pdc_cgm::{Cluster, Wire};
use pdc_clouds::{AttrIntervalStats, CloudsParams, CountMatrix, CountTable, IntervalSet};
use pdc_datagen::{generate, ClassifyFn, GeneratorConfig};
use pdc_dnc::Strategy;
use pdc_pario::DiskFarm;
use pdc_pclouds::{load_dataset, train, train_in_memory, HistMsg, PcloudsConfig};
use proptest::prelude::*;

fn config() -> PcloudsConfig {
    PcloudsConfig {
        clouds: CloudsParams {
            q_root: 64,
            sample_size: 600,
            ..CloudsParams::default()
        },
        memory_limit_bytes: 16 * 1024,
        switch_threshold_intervals: 10,
    }
}

proptest! {
    // Each case trains several trees; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The trained tree does not depend on the processor count.
    #[test]
    fn tree_is_p_independent(seed in any::<u64>(), fidx in 1usize..=10) {
        let records = generate(1_500, GeneratorConfig {
            seed,
            function: ClassifyFn::from_index(fidx).unwrap(),
            ..GeneratorConfig::default()
        });
        let reference = train_in_memory(&records, 1, &config()).tree;
        for p in [3usize, 4] {
            let tree = train_in_memory(&records, p, &config()).tree;
            prop_assert_eq!(tree.render(), reference.render(), "p={} differs", p);
        }
    }

    /// Training always leaves every disk empty (no leaked node files) and
    /// the runtime is positive and finite.
    #[test]
    fn disks_conserved_and_runtime_sane(seed in any::<u64>()) {
        let records = generate(1_200, GeneratorConfig {
            seed,
            noise: 0.05,
            ..GeneratorConfig::default()
        });
        let cfg = config();
        let farm = DiskFarm::in_memory(4);
        let root = load_dataset(&farm, &records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
        let cluster = Cluster::new(4);
        let out = train(&cluster, &farm, &root, &cfg, Strategy::Mixed);
        for rank in 0..4 {
            prop_assert!(farm.lock(rank).file_names().is_empty());
        }
        prop_assert!(out.runtime().is_finite() && out.runtime() > 0.0);
        // The tree classifies every training record to a valid class.
        for r in &records {
            prop_assert!(out.tree.predict(r) <= 1);
        }
    }

    /// Every leaf's stored class counts sum to its parent flows: the root
    /// counts equal the class histogram of the training set.
    #[test]
    fn root_counts_match_data(seed in any::<u64>()) {
        let records = generate(800, GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        });
        let out = train_in_memory(&records, 2, &config());
        let hist = pdc_clouds::class_counts(&records);
        prop_assert_eq!(out.tree.nodes[0].counts().clone(), hist);
    }
}

/// One attribute's statistics in the **nested** layout they had before the
/// cells went flat (`Vec<ClassCounts>`, `Vec<Option<(f64, f64)>>`), with the
/// encoders that layout had — the reference the flat layout's bytes are
/// pinned against.
struct Nested {
    attr: usize,
    boundaries: Vec<f64>,
    counts: Vec<Vec<u64>>,
    ranges: Vec<Option<(f64, f64)>>,
}

impl Nested {
    /// `rows` rows whose cells come from `cells` (zero-heavy, like a deep
    /// node's local counts).
    fn new(rows: usize, cells: &[u64]) -> Nested {
        Nested {
            attr: 2,
            boundaries: (1..rows).map(|b| b as f64).collect(),
            counts: (0..rows)
                .map(|r| (0..2).map(|c| cells[(2 * r + c) % cells.len()] % 3).collect())
                .collect(),
            ranges: (0..rows)
                .map(|r| (r % 2 == 0).then_some((r as f64, r as f64 + 0.5)))
                .collect(),
        }
    }

    fn numeric(&self) -> AttrIntervalStats {
        let intervals = IntervalSet::from_boundaries(self.boundaries.clone());
        let counts = CountTable::from_rows(&self.counts).unwrap();
        AttrIntervalStats::from_parts(self.attr, intervals, counts, &self.ranges).unwrap()
    }

    fn categorical(&self) -> CountMatrix {
        CountMatrix::from_table(self.attr, CountTable::from_rows(&self.counts).unwrap()).unwrap()
    }

    /// The old sparse table: dimensions, then varint (gap, value) pairs.
    fn encode_sparse_counts(&self, buf: &mut Vec<u8>) {
        let cols = self.counts.first().map_or(0, |c| c.len());
        encode_varint(buf, self.counts.len() as u64);
        encode_varint(buf, cols as u64);
        let nonzero = self.counts.iter().flatten().filter(|&&v| v != 0).count();
        encode_varint(buf, nonzero as u64);
        let mut prev = 0u64;
        for (idx, &v) in self.counts.iter().flatten().enumerate() {
            if v != 0 {
                encode_varint(buf, idx as u64 - prev);
                encode_varint(buf, v);
                prev = idx as u64 + 1;
            }
        }
    }

    /// (dense `AttrIntervalStats`, sparse `HistMsg::Numeric`) bytes.
    fn numeric_bytes(&self) -> (Vec<u8>, Vec<u8>) {
        let mut dense = Vec::new();
        self.attr.encode(&mut dense);
        self.boundaries.encode(&mut dense);
        self.counts.encode(&mut dense);
        self.ranges.encode(&mut dense);
        let mut sparse = vec![0u8];
        encode_varint(&mut sparse, self.attr as u64);
        self.boundaries.encode(&mut sparse);
        self.encode_sparse_counts(&mut sparse);
        self.ranges.encode(&mut sparse);
        (dense, sparse)
    }

    /// (dense `CountMatrix`, sparse `HistMsg::Categorical`) bytes.
    fn categorical_bytes(&self) -> (Vec<u8>, Vec<u8>) {
        let mut dense = Vec::new();
        self.attr.encode(&mut dense);
        self.counts.encode(&mut dense);
        let mut sparse = vec![1u8];
        encode_varint(&mut sparse, self.attr as u64);
        self.encode_sparse_counts(&mut sparse);
        (dense, sparse)
    }
}

/// A valid numeric or categorical histogram message (see [`Nested::new`]).
fn valid_hist_msg(numeric: bool, rows: usize, cells: &[u64]) -> HistMsg {
    let nested = Nested::new(rows, cells);
    if numeric {
        HistMsg::Numeric(nested.numeric())
    } else {
        HistMsg::Categorical(nested.categorical())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes decode to a value or an error — never a panic, and
    /// never an allocation sized by a length the payload cannot back.
    #[test]
    fn hist_decoder_survives_arbitrary_bytes(
        tag in 0u8..3,
        body in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut bytes = vec![tag];
        bytes.extend(body);
        let _ = HistMsg::from_bytes(&bytes);
    }

    /// The flat cell layout is invisible on the wire: dense and sparse
    /// encodings equal those of the nested layout byte for byte — also for
    /// all-zero tables and a categorical table without rows — so message
    /// sizes, and with them the virtual clock, cannot move.
    #[test]
    fn flat_cells_encode_like_the_nested_layout(
        rows in 0usize..40,
        cells in proptest::collection::vec(any::<u64>(), 1..48),
        all_zero in any::<bool>(),
    ) {
        let cells = if all_zero { vec![0] } else { cells };
        let nested = Nested::new(rows, &cells);
        let (dense, sparse) = nested.categorical_bytes();
        prop_assert_eq!(nested.categorical().to_bytes(), dense.clone());
        prop_assert_eq!(CountMatrix::from_bytes(&dense).unwrap(), nested.categorical());
        prop_assert_eq!(HistMsg::Categorical(nested.categorical()).to_bytes(), sparse);
        if rows > 0 {
            let (dense, sparse) = nested.numeric_bytes();
            prop_assert_eq!(nested.numeric().to_bytes(), dense.clone());
            prop_assert_eq!(AttrIntervalStats::from_bytes(&dense).unwrap(), nested.numeric());
            prop_assert_eq!(HistMsg::Numeric(nested.numeric()).to_bytes(), sparse);
        }
    }

    /// Valid encodings roundtrip; the same bytes truncated, or with any one
    /// byte overwritten, decode to a value or an error — never a panic.
    #[test]
    fn hist_decoder_survives_mutated_valid_encodings(
        numeric in any::<bool>(),
        rows in 1usize..24,
        cells in proptest::collection::vec(any::<u64>(), 1..48),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let msg = valid_hist_msg(numeric, rows, &cells);
        let bytes = msg.to_bytes();
        prop_assert_eq!(HistMsg::from_bytes(&bytes).unwrap(), msg);
        let at = at % bytes.len();
        let _ = HistMsg::from_bytes(&bytes[..at]);
        let mut mutated = bytes;
        mutated[at] = byte;
        let _ = HistMsg::from_bytes(&mutated);
    }
}
