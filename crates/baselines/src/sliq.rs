//! SLIQ (Mehta, Agrawal & Rissanen, EDBT'96), the other pre-CLOUDS
//! classifier the paper discusses: "SLIQ replaces this repeated sorting
//! with one-time sorting by maintaining separate lists for each attribute.
//! However, SLIQ uses a memory-resident data structure called *class list*
//! which limits the number of input records it can handle."
//!
//! The implementation is faithful to that design: one pre-sorted attribute
//! list per numeric attribute shared by the *whole tree* (never
//! partitioned), plus the memory-resident **class list** mapping every
//! record id to its class and its current leaf. One pass over an attribute
//! list evaluates the gini of every candidate split of *every* growing
//! leaf simultaneously (breadth-first level at a time).

use std::collections::HashMap;

use pdc_clouds::categorical::EXHAUSTIVE_LIMIT;
use pdc_clouds::gini::{split_gini, sub, ClassCounts};
use pdc_clouds::{Candidate, CloudsParams, CountMatrix, DecisionTree, Node, NodeId, Splitter};
use pdc_datagen::{Record, CATEGORICAL_CARDINALITY, NUM_CLASSES, NUM_NUMERIC};

/// Work counters of a SLIQ build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SliqStats {
    /// Peak resident class-list entries (the structure that limits SLIQ's
    /// scalability — always equals the training-set size).
    pub class_list_entries: usize,
    /// Attribute-list entries scanned across all levels.
    pub list_scans: u64,
    /// Tree levels processed.
    pub levels: usize,
}

/// One entry of the class list: the record's class and its current leaf.
#[derive(Debug, Clone, Copy)]
struct ClassListEntry {
    class: u8,
    leaf: NodeId,
}

/// Build a decision tree with SLIQ's breadth-first, class-list-driven
/// construction. Stopping criteria come from `params` (its `method` is
/// ignored; SLIQ is exact).
pub fn build_tree_sliq(records: &[Record], params: &CloudsParams) -> (DecisionTree, SliqStats) {
    let mut stats = SliqStats {
        class_list_entries: records.len(),
        ..SliqStats::default()
    };
    let mut counts = vec![0u64; NUM_CLASSES];
    for r in records {
        counts[r.class as usize] += 1;
    }
    let mut tree = DecisionTree::single_leaf(counts);
    if records.is_empty() {
        return (tree, stats);
    }

    // One-time sorting: (value, rid) per numeric attribute.
    let mut attr_lists: Vec<Vec<(f64, u32)>> = Vec::with_capacity(NUM_NUMERIC);
    for attr in 0..NUM_NUMERIC {
        let mut list: Vec<(f64, u32)> = records
            .iter()
            .enumerate()
            .map(|(rid, r)| (r.num(attr), rid as u32))
            .collect();
        list.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN attribute"));
        attr_lists.push(list);
    }

    // The memory-resident class list.
    let mut class_list: Vec<ClassListEntry> = records
        .iter()
        .map(|r| ClassListEntry {
            class: r.class,
            leaf: tree.root(),
        })
        .collect();

    let mut depth = 0usize;
    loop {
        // Growing leaves of the current level: those not yet stopped.
        let mut growing: Vec<NodeId> = Vec::new();
        {
            let mut seen: HashMap<NodeId, ClassCounts> = HashMap::new();
            for entry in &class_list {
                if matches!(tree.nodes[entry.leaf], Node::Leaf { .. }) {
                    seen.entry(entry.leaf)
                        .or_insert_with(|| vec![0u64; NUM_CLASSES])[entry.class as usize] += 1;
                }
            }
            for (leaf, counts) in seen {
                if !params.should_stop(&counts, depth) {
                    growing.push(leaf);
                }
            }
            growing.sort_unstable();
        }
        if growing.is_empty() {
            break;
        }
        stats.levels += 1;

        // Per-growing-leaf running state for the simultaneous scan.
        let mut totals: HashMap<NodeId, ClassCounts> = HashMap::new();
        for entry in &class_list {
            if growing.contains(&entry.leaf) {
                totals
                    .entry(entry.leaf)
                    .or_insert_with(|| vec![0u64; NUM_CLASSES])[entry.class as usize] += 1;
            }
        }
        let mut best: HashMap<NodeId, Candidate> = HashMap::new();
        let mut consider = |leaf: NodeId, cand: Candidate| {
            let merged = Candidate::better(best.remove(&leaf), cand).unwrap();
            best.insert(leaf, merged);
        };

        // Numeric attributes: one pass per pre-sorted list evaluates every
        // growing leaf's candidate thresholds at once.
        for (attr, list) in attr_lists.iter().enumerate() {
            stats.list_scans += list.len() as u64;
            let mut left: HashMap<NodeId, ClassCounts> = HashMap::new();
            let mut i = 0;
            while i < list.len() {
                let v = list[i].0;
                // Consume the run of equal values, updating left counts.
                while i < list.len() && list[i].0 == v {
                    let entry = class_list[list[i].1 as usize];
                    if totals.contains_key(&entry.leaf) {
                        left.entry(entry.leaf)
                            .or_insert_with(|| vec![0u64; NUM_CLASSES])
                            [entry.class as usize] += 1;
                    }
                    i += 1;
                }
                // Candidate split at threshold v for every touched leaf.
                for (&leaf, l) in &left {
                    let total = &totals[&leaf];
                    let r = sub(total, l);
                    let (nl, nr): (u64, u64) = (l.iter().sum(), r.iter().sum());
                    if nl == 0 || nr == 0 {
                        continue;
                    }
                    consider(
                        leaf,
                        Candidate {
                            gini: split_gini(l, &r),
                            splitter: Splitter::Numeric { attr, threshold: v },
                            left_counts: l.clone(),
                        },
                    );
                }
            }
        }

        // Categorical attributes: count matrices per growing leaf.
        for (attr, &card) in CATEGORICAL_CARDINALITY.iter().enumerate() {
            let mut matrices: HashMap<NodeId, CountMatrix> = HashMap::new();
            for (rid, entry) in class_list.iter().enumerate() {
                if totals.contains_key(&entry.leaf) {
                    matrices
                        .entry(entry.leaf)
                        .or_insert_with(|| CountMatrix::new(attr, card, NUM_CLASSES))
                        .add_value(records[rid].cat(attr), entry.class);
                }
            }
            stats.list_scans += class_list.len() as u64;
            for (leaf, m) in matrices {
                if let Some(c) = m.best_split(&totals[&leaf], EXHAUSTIVE_LIMIT) {
                    consider(leaf, c);
                }
            }
        }

        // Apply the winning splits and update the class list in place (the
        // SLIQ trick: no data movement, just leaf pointers).
        let mut split_leaves: Vec<(NodeId, Candidate)> = best.into_iter().collect();
        split_leaves.sort_by_key(|(leaf, _)| *leaf);
        if split_leaves.is_empty() {
            break;
        }
        let mut children: HashMap<NodeId, (NodeId, NodeId, Splitter)> = HashMap::new();
        for (leaf, cand) in split_leaves {
            let total = tree.nodes[leaf].counts().clone();
            let right_counts = sub(&total, &cand.left_counts);
            if cand.left_counts.iter().sum::<u64>() == 0
                || right_counts.iter().sum::<u64>() == 0
            {
                continue;
            }
            let (l, r) = tree.split_leaf(leaf, cand.splitter.clone(), cand.left_counts, right_counts);
            children.insert(leaf, (l, r, cand.splitter));
        }
        if children.is_empty() {
            break;
        }
        for (rid, entry) in class_list.iter_mut().enumerate() {
            if let Some((l, r, splitter)) = children.get(&entry.leaf) {
                entry.leaf = if splitter.goes_left(&records[rid]) { *l } else { *r };
            }
        }
        depth += 1;
        if depth >= params.max_depth {
            break;
        }
    }
    (tree, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_tree_direct;
    use pdc_clouds::{accuracy, holdout_pair};
    use pdc_datagen::{generate, ClassifyFn, GeneratorConfig};

    fn params() -> CloudsParams {
        CloudsParams {
            q_root: 100,
            sample_size: 1_000,
            ..CloudsParams::default()
        }
    }

    #[test]
    fn sliq_learns_f2() {
        let (train, test) = holdout_pair(ClassifyFn::F2, 4_800, 1_200, 0.0);
        let (tree, stats) = build_tree_sliq(&train, &params());
        let acc = accuracy(&tree, &test);
        assert!(acc > 0.95, "accuracy {acc}");
        assert_eq!(stats.class_list_entries, train.len());
        assert!(stats.levels > 1);
    }

    #[test]
    fn sliq_matches_direct_method_accuracy() {
        // Both are exact gini optimizers; depth-first vs breadth-first
        // order does not change per-node decisions.
        let (train, test) = holdout_pair(ClassifyFn::F7, 4_000, 1_000, 0.0);
        let (sliq_tree, _) = build_tree_sliq(&train, &params());
        let direct_tree = build_tree_direct(&train, &params());
        let (a, b) = (accuracy(&sliq_tree, &test), accuracy(&direct_tree, &test));
        assert!((a - b).abs() < 0.02, "sliq {a} vs direct {b}");
    }

    #[test]
    fn sliq_root_split_matches_direct() {
        let records = generate(2_000, GeneratorConfig::default());
        let p = CloudsParams {
            max_depth: 1,
            ..params()
        };
        let (tree, _) = build_tree_sliq(&records, &p);
        let direct = pdc_clouds::direct_best_split(&records, &p).unwrap();
        match &tree.nodes[0] {
            Node::Internal { splitter, counts, .. } => {
                let left = match &tree.nodes[1] {
                    Node::Leaf { counts, .. } => counts.clone(),
                    _ => panic!(),
                };
                let right = sub(counts, &left);
                let g = split_gini(&left, &right);
                assert!(
                    (g - direct.gini).abs() < 1e-12,
                    "sliq root gini {g} vs direct {} ({})",
                    direct.gini,
                    splitter.describe()
                );
            }
            Node::Leaf { .. } => panic!("root did not split"),
        }
    }

    #[test]
    fn sliq_respects_stopping_rules() {
        let records = generate(2_000, GeneratorConfig::default());
        let p = CloudsParams {
            max_depth: 2,
            ..params()
        };
        let (tree, _) = build_tree_sliq(&records, &p);
        assert!(tree.depth() <= 2);
        let p = CloudsParams {
            min_node_size: 100_000,
            ..params()
        };
        let (tree, _) = build_tree_sliq(&records, &p);
        assert_eq!(tree.num_nodes(), 1);
    }

    #[test]
    fn empty_and_pure_inputs() {
        let (tree, stats) = build_tree_sliq(&[], &params());
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(stats.class_list_entries, 0);
        let mut records = generate(500, GeneratorConfig::default());
        for r in &mut records {
            r.class = 0;
        }
        let (tree, _) = build_tree_sliq(&records, &params());
        assert_eq!(tree.num_nodes(), 1);
    }
}
