//! Hostile bytes at the two ensemble decoders: `EnsembleModel` (what
//! training returns) and `EnsemblePredictor` (what serving deploys). Every
//! truncation of a valid encoding is refused; arbitrary bytes and a one-byte
//! mutation at any position decode to an error or to an ensemble that votes
//! on records — never a panic.

use pdc_cgm::{Cluster, Proc, Wire};
use pdc_clouds::{build_tree, CloudsParams, DecisionTree};
use pdc_datagen::{generate, GeneratorConfig, Record, NUM_CLASSES};
use pdc_ensemble::EnsembleModel;
use pdc_serve::{EnsemblePredictor, Predictor, ALL_LAYOUTS};
use proptest::prelude::*;

/// `members` small trees, each grown on its own noisy draw.
fn trees(seed: u64, members: usize) -> Vec<DecisionTree> {
    let params = CloudsParams {
        q_root: 20,
        sample_size: 60,
        min_node_size: 8,
        ..CloudsParams::default()
    };
    (0..members as u64)
        .map(|i| {
            let config = GeneratorConfig {
                seed: seed.wrapping_add(i),
                noise: 0.1,
                ..GeneratorConfig::default()
            };
            build_tree(&generate(120, config), &params)
        })
        .collect()
}

/// Every truncation of `bytes` must be refused; whatever `junk` or a
/// one-byte mutation (`^ flip`) at any position decodes to is handed to
/// `consume`.
fn check_hostile<T: Wire>(bytes: &[u8], junk: &[u8], flip: u8, mut consume: impl FnMut(T)) {
    for cut in 0..bytes.len() {
        assert!(T::from_bytes(&bytes[..cut]).is_err(), "truncated at {cut}");
    }
    T::from_bytes(junk).into_iter().for_each(&mut consume);
    for at in 0..bytes.len() {
        let mut mutated = bytes.to_vec();
        mutated[at] ^= flip;
        T::from_bytes(&mutated).into_iter().for_each(&mut consume);
    }
}

/// A decoded predictor answers every question the serving harness asks,
/// and its batch scorer agrees with record-at-a-time voting.
fn serve(proc: &mut Proc, ensemble: &EnsemblePredictor, records: &[Record]) {
    let _ = (
        ensemble.layout_name(),
        ensemble.num_nodes(),
        ensemble.footprint_bytes(),
    );
    let want = ensemble.predict_all(records);
    assert!(want.iter().all(|&class| usize::from(class) < NUM_CLASSES));
    let mut got = Vec::new();
    ensemble.score_batch(proc, records, &mut got);
    assert_eq!(got, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn hostile_bytes_ensemble_model(
        seed in any::<u64>(),
        members in 1usize..4,
        junk in proptest::collection::vec(any::<u8>(), 0..96),
        flip in 1u8..=255,
    ) {
        let records = generate(16, GeneratorConfig { seed, ..GeneratorConfig::default() });
        let model = EnsembleModel { trees: trees(seed, members) };
        let bytes = model.to_bytes();
        prop_assert_eq!(&EnsembleModel::from_bytes(&bytes).expect("a valid encoding"), &model);
        check_hostile(&bytes, &junk, flip, |decoded: EnsembleModel| {
            for r in &records {
                assert!(usize::from(decoded.predict(r)) < NUM_CLASSES);
            }
        });
    }

    #[test]
    fn hostile_bytes_ensemble_predictor(
        seed in any::<u64>(),
        members in 1usize..4,
        junk in proptest::collection::vec(any::<u8>(), 0..96),
        flip in 1u8..=255,
    ) {
        let records = generate(16, GeneratorConfig { seed, ..GeneratorConfig::default() });
        let members = trees(seed, members);
        Cluster::new(1).run(|proc| {
            for layout in ALL_LAYOUTS {
                let ensemble = EnsemblePredictor::compile(&members, layout);
                let bytes = ensemble.to_bytes();
                assert_eq!(EnsemblePredictor::from_bytes(&bytes).expect("a valid encoding"), ensemble);
                check_hostile(&bytes, &junk, flip, |decoded| serve(proc, &decoded, &records));
            }
        });
    }
}

/// An ensemble needs a member to vote: a zero-member list is malformed.
#[test]
fn empty_member_list_is_refused() {
    assert!(EnsemblePredictor::from_bytes(&0u64.to_bytes()).is_err());
}
