//! Prediction-parity property tests: every compiled serving layout must be
//! **bit-identical** to the pointer tree on every record — one at a time and
//! through the batch scorer that serves them — across trees trained on all
//! ten SLIQ generator functions, across randomly grown trees with random
//! records, and across adversarial edge shapes (single-leaf trees,
//! maximum-depth chains, categorical-only splits).

use pdc_cgm::{Cluster, OpKind, Proc};
use pdc_clouds::{CloudsParams, DecisionTree, Node, Splitter};
use pdc_datagen::record::{CATEGORICAL_CARDINALITY, NUM_CATEGORICAL, NUM_NUMERIC};
use pdc_datagen::{generate, ClassifyFn, GeneratorConfig, Record, ALL_FUNCTIONS, NUM_CLASSES};
use pdc_pario::RecBuf;
use pdc_pclouds::{train_in_memory, PcloudsConfig};
use pdc_serve::{assert_equivalent, EnsemblePredictor, Layout, Predictor, ALL_LAYOUTS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Check all layouts against the pointer tree record by record, with a
/// diagnostic that names the layout and record on divergence.
fn check_parity(tree: &DecisionTree, records: &[Record]) {
    assert_equivalent(tree, records);
    for layout in ALL_LAYOUTS {
        let model = layout.compile(tree);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(
                model.predict(r),
                tree.predict(r),
                "layout {} diverges from the tree on record {i}: {r:?}",
                layout.name()
            );
        }
    }
}

/// A small-but-real training run: reduced interval counts and sample so
/// each function trains in well under a second.
fn small_config() -> PcloudsConfig {
    let mut config = PcloudsConfig::default();
    config.clouds = CloudsParams {
        q_root: 200,
        q_min: 10,
        sample_size: 400,
        ..CloudsParams::default()
    };
    config
}

#[test]
fn trained_trees_agree_on_all_sliq_functions() {
    for function in ALL_FUNCTIONS {
        let gen = GeneratorConfig {
            function,
            noise: 0.05,
            seed: 0xF00D ^ function.index() as u64,
        };
        let train = generate(2_000, gen);
        let out = train_in_memory(&train, 2, &small_config());
        // Held-out records from a different seed, plus the training set
        // itself, so both seen and unseen regions of the space are covered.
        let test = generate(1_000, GeneratorConfig { seed: gen.seed ^ 0xBEEF, ..gen });
        check_parity(&out.tree, &train);
        check_parity(&out.tree, &test);
    }
}

/// Grow a random tree: repeatedly split a random leaf with a random
/// numeric or categorical splitter until `splits` internal nodes exist.
fn random_tree(rng: &mut StdRng, splits: usize) -> DecisionTree {
    let mut tree = DecisionTree::single_leaf(vec![1, 1]);
    let mut leaves = vec![0usize];
    for _ in 0..splits {
        let pick = rng.random_range(0..leaves.len());
        let leaf = leaves.swap_remove(pick);
        let splitter = random_splitter(rng);
        let (l, r) = tree.split_leaf(
            leaf,
            splitter,
            vec![rng.random_range(0u64..10), rng.random_range(0u64..10)],
            vec![rng.random_range(0u64..10), rng.random_range(0u64..10)],
        );
        leaves.push(l);
        leaves.push(r);
    }
    tree
}

fn random_splitter(rng: &mut StdRng) -> Splitter {
    if rng.random_bool(0.5) {
        Splitter::Numeric {
            attr: rng.random_range(0..NUM_NUMERIC),
            threshold: rng.random_range(-1_000.0..1_000.0),
        }
    } else {
        let attr = rng.random_range(0..NUM_CATEGORICAL);
        Splitter::Categorical {
            attr,
            left_values: rng.next_u64() & ((1u64 << CATEGORICAL_CARDINALITY[attr]) - 1),
        }
    }
}

/// A random record in the same attribute domains the random splitters draw
/// from, with occasional boundary-exact numeric values.
fn random_record(rng: &mut StdRng) -> Record {
    let mut numeric = [0.0f64; NUM_NUMERIC];
    for v in numeric.iter_mut() {
        *v = rng.random_range(-1_200.0..1_200.0);
    }
    let mut categorical = [0u8; NUM_CATEGORICAL];
    for (c, &card) in categorical.iter_mut().zip(&CATEGORICAL_CARDINALITY) {
        *c = rng.random_range(0..card) as u8;
    }
    Record { numeric, categorical, class: 0 }
}

use rand::RngCore;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random trees × random records: all layouts match the pointer tree.
    #[test]
    fn random_trees_agree(seed in any::<u64>(), splits in 0usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_tree(&mut rng, splits);
        let records: Vec<Record> = (0..200).map(|_| random_record(&mut rng)).collect();
        check_parity(&tree, &records);
    }

    /// Records whose numeric values are copied from thresholds in the tree
    /// exercise the inclusive `<=` boundary of every numeric split.
    #[test]
    fn threshold_exact_records_agree(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_tree(&mut rng, 20);
        let thresholds: Vec<(usize, f64)> = tree
            .nodes
            .iter()
            .filter_map(|node| match node {
                pdc_clouds::Node::Internal {
                    splitter: Splitter::Numeric { attr, threshold },
                    ..
                } => Some((*attr, *threshold)),
                _ => None,
            })
            .collect();
        let mut records = Vec::new();
        for &(attr, threshold) in &thresholds {
            let mut r = random_record(&mut rng);
            r.numeric[attr] = threshold;
            records.push(r);
            // And one record sitting exactly on *every* numeric threshold at
            // once, to stack boundary cases along a single root-leaf path.
            let mut all = random_record(&mut rng);
            for &(a, t) in &thresholds {
                all.numeric[a] = t;
            }
            records.push(all);
        }
        check_parity(&tree, &records);
    }
}

#[test]
fn single_leaf_tree_agrees() {
    for class in 0..2u64 {
        let counts = if class == 0 { vec![7, 3] } else { vec![3, 7] };
        let tree = DecisionTree::single_leaf(counts);
        let records = generate(500, GeneratorConfig::default());
        check_parity(&tree, &records);
    }
}

#[test]
fn max_depth_chain_agrees() {
    // A pathological left-leaning chain as deep as the training stack would
    // ever grow one (CloudsParams::default().max_depth), splitting on the
    // same attribute with descending thresholds.
    let depth = CloudsParams::default().max_depth.max(32);
    let mut tree = DecisionTree::single_leaf(vec![depth as u64, depth as u64]);
    let mut leaf = 0usize;
    for d in 0..depth {
        let threshold = 1_000.0 - d as f64;
        let (l, _) = tree.split_leaf(
            leaf,
            Splitter::Numeric { attr: 0, threshold },
            vec![(depth - d) as u64, 0],
            vec![0, 1],
        );
        leaf = l;
    }
    let mut rng = StdRng::seed_from_u64(0xDEE9);
    let mut records: Vec<Record> = (0..400).map(|_| random_record(&mut rng)).collect();
    // Drive records to every depth of the chain.
    for (i, r) in records.iter_mut().enumerate() {
        r.numeric[0] = 1_001.0 - (i % (depth + 2)) as f64;
    }
    check_parity(&tree, &records);
}

#[test]
fn categorical_only_tree_agrees() {
    // Splits on every categorical attribute and masks at both extremes
    // (empty mask: everything goes right; full mask: everything goes left).
    let mut tree = DecisionTree::single_leaf(vec![4, 4]);
    let (l, r) = tree.split_leaf(
        0,
        Splitter::Categorical { attr: 0, left_values: 0b0_0110 },
        vec![4, 0],
        vec![0, 4],
    );
    tree.split_leaf(
        l,
        Splitter::Categorical { attr: 1, left_values: 0 },
        vec![2, 0],
        vec![2, 0],
    );
    tree.split_leaf(
        r,
        Splitter::Categorical {
            attr: 2,
            left_values: (1u64 << CATEGORICAL_CARDINALITY[2]) - 1,
        },
        vec![0, 2],
        vec![0, 2],
    );
    let mut rng = StdRng::seed_from_u64(0xCA7);
    let records: Vec<Record> = (0..500).map(|_| random_record(&mut rng)).collect();
    check_parity(&tree, &records);
    // Trained categorical-heavy tree: function F10 splits on elevel/zipcode.
    let gen = GeneratorConfig { function: ClassifyFn::F10, noise: 0.0, seed: 0xCAFE };
    let out = train_in_memory(&generate(2_000, gen), 2, &small_config());
    check_parity(&out.tree, &generate(1_000, gen));
}

/// Split tests on `r`'s root-to-leaf path, counted on the training arena.
fn steps_to_leaf(tree: &DecisionTree, r: &Record) -> u64 {
    let mut id = tree.root();
    let mut steps = 0;
    while let Node::Internal { splitter, left, right, .. } = &tree.nodes[id] {
        steps += 1;
        id = if splitter.goes_left(r) { *left } else { *right };
    }
    steps
}

/// The charges a `layout` model of `tree` owes for scoring `records`: one
/// split test and one branch per visited internal node, plus a dependent
/// load on the pointer arena, against the layout's footprint.
fn charge_walks(proc: &mut Proc, tree: &DecisionTree, layout: Layout, records: &[Record]) {
    let steps = records.iter().map(|r| steps_to_leaf(tree, r)).sum();
    let ws = layout.compile(tree).footprint_bytes();
    proc.charge_ws(OpKind::SplitTest, steps, ws);
    proc.charge_ws(OpKind::Compare, steps, ws);
    if layout == Layout::Pointer {
        proc.charge_ws(OpKind::Misc, steps, ws);
    }
}

/// Serve `records` through `model` on a 1-rank machine, resident and as a
/// page view, and compare against `want` and against a machine that was
/// charged `owed` once per pass.
fn check_served<M: Predictor + Sync>(
    what: &str,
    model: &M,
    records: &[Record],
    want: &[u8],
    owed: impl Fn(&mut Proc) + Sync,
) {
    let page = RecBuf::from_records(records);
    let served = Cluster::new(1).run(|proc| {
        let mut resident = Vec::new();
        model.score_batch(proc, records, &mut resident);
        let mut viewed = Vec::new();
        model.score_batch(proc, &page.view(), &mut viewed);
        (resident, viewed)
    });
    let (resident, viewed) = &served.results[0];
    let n = records.len();
    assert_eq!(resident, want, "{what}, {n} resident records");
    assert_eq!(viewed, want, "{what}, {n} viewed records");
    let charged = Cluster::new(1).run(|proc| {
        owed(proc);
        owed(proc);
    });
    assert_eq!(
        served.makespan().to_bits(),
        charged.makespan().to_bits(),
        "{what}, {n} records: makespan {} against {} charged for the walked paths",
        served.makespan(),
        charged.makespan()
    );
}

/// The flat scorer's lane width: records it walks abreast.
const LANES: usize = 8;

/// A comb: a chain of `depth` splits on attribute 0 with a leaf off every
/// level. A record goes left while its value is at or below the level's
/// threshold, so the random records' values in ±1 200 reach every path
/// length from 1 to `depth`.
fn comb_tree(depth: usize) -> DecisionTree {
    let mut tree = DecisionTree::single_leaf(vec![1, 1]);
    let mut leaf = 0usize;
    for d in 0..depth {
        let threshold = 1_000.0 - (2_000.0 / depth as f64) * d as f64;
        let (l, _) = tree.split_leaf(
            leaf,
            Splitter::Numeric { attr: 0, threshold },
            vec![1, 0],
            vec![(d % 2) as u64, 1 - (d % 2) as u64],
        );
        leaf = l;
    }
    tree
}

/// Batches of every length around the scorer's lane width — and a page's
/// worth either side of 1 024 — predict what the tree predicts and cost
/// exactly the root-to-leaf paths walked, for both layouts and an ensemble.
/// The comb's paths of 1 to 24 steps make lanes take their next record in
/// different rounds.
#[test]
fn served_batches_of_every_length_predict_and_charge_the_walked_paths() {
    let mut rng = StdRng::seed_from_u64(0x5C0BE);
    let mut trees = [0, 7, 23, 39].map(|splits| random_tree(&mut rng, splits)).to_vec();
    trees.push(comb_tree(24));
    for n in (0..=2 * LANES + 1).chain([1_023, 1_024, 1_025]) {
        let records: Vec<Record> = (0..n).map(|_| random_record(&mut rng)).collect();
        for layout in ALL_LAYOUTS {
            for (t, tree) in trees.iter().enumerate() {
                let want: Vec<u8> = records.iter().map(|r| tree.predict(r)).collect();
                check_served(
                    &format!("{} tree {t}", layout.name()),
                    &layout.compile(tree),
                    &records,
                    &want,
                    |proc| charge_walks(proc, tree, layout, &records),
                );
            }
            let members = &trees[1..];
            let want: Vec<u8> = records
                .iter()
                .map(|r| {
                    let mut votes = [0u32; NUM_CLASSES];
                    for tree in members {
                        votes[tree.predict(r) as usize] += 1;
                    }
                    (1..NUM_CLASSES).fold(0, |best, c| if votes[c] > votes[best] { c } else { best })
                        as u8
                })
                .collect();
            check_served(
                &format!("{} ensemble", layout.name()),
                &EnsemblePredictor::compile(members, layout),
                &records,
                &want,
                |proc| {
                    for tree in members {
                        charge_walks(proc, tree, layout, &records);
                    }
                    // One vote fold per (record, member) against the tally.
                    let tally = n * std::mem::size_of::<[u32; NUM_CLASSES]>();
                    proc.charge_ws(OpKind::Misc, (n * members.len()) as u64, tally);
                },
            );
        }
    }
}

/// A pass scores batch after batch into one `Vec`: each batch's classes
/// land after what `out` already holds, in record order, and the pass costs
/// exactly the paths walked — resident and as page views.
#[test]
fn batches_scored_into_one_out_append_in_order() {
    let mut rng = StdRng::seed_from_u64(0xA99E);
    let trees = [random_tree(&mut rng, 39), comb_tree(24)];
    let batches: Vec<Vec<Record>> = [1_025, 2 * LANES + 1, 3]
        .iter()
        .map(|&n| (0..n).map(|_| random_record(&mut rng)).collect())
        .collect();
    let pages: Vec<RecBuf<Record>> = batches.iter().map(|b| RecBuf::from_records(b)).collect();
    let held = [1u8, 0, 1];
    for layout in ALL_LAYOUTS {
        for (t, tree) in trees.iter().enumerate() {
            let model = layout.compile(tree);
            let served = Cluster::new(1).run(|proc| {
                let (mut resident, mut viewed) = (held.to_vec(), held.to_vec());
                for (batch, page) in batches.iter().zip(&pages) {
                    model.score_batch(proc, batch.as_slice(), &mut resident);
                    model.score_batch(proc, &page.view(), &mut viewed);
                }
                (resident, viewed)
            });
            let want: Vec<u8> = held
                .iter()
                .copied()
                .chain(batches.iter().flatten().map(|r| tree.predict(r)))
                .collect();
            let (resident, viewed) = &served.results[0];
            let what = format!("{} tree {t}", layout.name());
            assert_eq!(resident, &want, "{what}, resident");
            assert_eq!(viewed, &want, "{what}, viewed");
            let charged = Cluster::new(1).run(|proc| {
                for batch in &batches {
                    charge_walks(proc, tree, layout, batch);
                    charge_walks(proc, tree, layout, batch);
                }
            });
            assert_eq!(
                served.makespan().to_bits(),
                charged.makespan().to_bits(),
                "{what}: makespan {} against {} charged for the walked paths",
                served.makespan(),
                charged.makespan()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hostile bytes at the deployed-model wire form, both layouts:
    /// arbitrary bytes, every truncation and a one-byte mutation at every
    /// position decode to an error or to a model that scores records one at
    /// a time and through the batch scorer's lanes alike — never a panic,
    /// never a node array reserved from a length prefix the input could not
    /// back.
    #[test]
    fn hostile_bytes_compiled_model(
        seed in any::<u64>(),
        splits in 0usize..12,
        junk in proptest::collection::vec(any::<u8>(), 0..96),
        flip in 1u8..=255,
    ) {
        use pdc_cgm::Wire;
        use pdc_serve::CompiledModel;
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_tree(&mut rng, splits);
        let records: Vec<Record> = (0..2 * LANES + 1).map(|_| random_record(&mut rng)).collect();
        let page = RecBuf::from_records(&records);
        for layout in ALL_LAYOUTS {
            let bytes = layout.compile(&tree).to_bytes();
            for cut in 0..bytes.len() {
                prop_assert!(CompiledModel::from_bytes(&bytes[..cut]).is_err(), "truncated at {cut}");
            }
        }
        Cluster::new(1).run(|proc| {
            let mut decode = |bytes: &[u8]| {
                if let Ok(model) = CompiledModel::from_bytes(bytes) {
                    let reserved = match &model {
                        CompiledModel::Pointer(p) => p.tree().nodes.capacity(),
                        CompiledModel::Flat(f) => f.nodes().len(),
                    };
                    let n = bytes.len();
                    assert!(reserved <= 16 + n, "{reserved} nodes from {n} bytes");
                    let want = model.predict_all(&records);
                    assert!(want.iter().all(|&class| class < 2));
                    let (mut resident, mut viewed) = (Vec::new(), Vec::new());
                    model.score_batch(proc, records.as_slice(), &mut resident);
                    model.score_batch(proc, &page.view(), &mut viewed);
                    assert_eq!(resident, want, "resident batch, model from {bytes:?}");
                    assert_eq!(viewed, want, "viewed batch, model from {bytes:?}");
                }
            };
            decode(&junk);
            for layout in ALL_LAYOUTS {
                let bytes = layout.compile(&tree).to_bytes();
                for at in 0..bytes.len() {
                    let mut mutated = bytes.clone();
                    mutated[at] ^= flip;
                    decode(&mutated);
                }
            }
        });
    }
}
