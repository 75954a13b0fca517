//! Property-based tests of pCLOUDS' key invariants over random data-set
//! seeds: machine-size independence of the tree, determinism, and disk
//! conservation — and of the histogram wire decoder over hostile bytes.

use pdc_cgm::{Cluster, Wire};
use pdc_clouds::{AttrIntervalStats, CloudsParams, CountMatrix, IntervalSet};
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
        ..PcloudsConfig::default()
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

/// A valid numeric or categorical histogram message with `rows` rows whose
/// cells come from `cells` (zero-heavy, like a deep node's local counts).
fn valid_hist_msg(numeric: bool, rows: usize, cells: &[u64]) -> HistMsg {
    let counts: Vec<Vec<u64>> = (0..rows)
        .map(|r| (0..2).map(|c| cells[(2 * r + c) % cells.len()] % 3).collect())
        .collect();
    if numeric {
        HistMsg::Numeric(AttrIntervalStats {
            attr: 2,
            intervals: IntervalSet::from_boundaries((1..rows).map(|b| b as f64).collect()),
            counts,
            ranges: (0..rows).map(|r| (r % 2 == 0).then_some((r as f64, r as f64 + 0.5))).collect(),
        })
    } else {
        HistMsg::Categorical(CountMatrix { attr: 1, counts })
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
