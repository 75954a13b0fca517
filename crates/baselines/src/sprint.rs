//! SPRINT (Shafer, Agrawal & Mehta, VLDB'96), the classifier CLOUDS is
//! positioned against.
//!
//! SPRINT pre-sorts one **attribute list** per numeric attribute —
//! `(value, class, rid)` triples in value order — and keeps them sorted
//! while partitioning, so no re-sorting ever happens below the root. The
//! price is the materialized lists (three fields per attribute per record)
//! and a rid hash/bitmap join at every split: exactly the memory behaviour
//! that motivates CLOUDS' interval sampling. We count that work
//! ([`SprintStats`]) so benches can compare against CLOUDS.

use pdc_clouds::categorical::EXHAUSTIVE_LIMIT;
use pdc_clouds::gini::{split_gini, sub, ClassCounts};
use pdc_clouds::{CountMatrix, Candidate, CloudsParams, DecisionTree, Splitter};
use pdc_datagen::{Record, CATEGORICAL_CARDINALITY, NUM_CLASSES, NUM_NUMERIC};

/// One entry of a numeric attribute list.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ListEntry {
    value: f64,
    rid: u32,
    class: u8,
}

/// Work counters of a SPRINT build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SprintStats {
    /// Entries touched while scanning attribute lists for split evaluation.
    pub list_scans: u64,
    /// Entries moved while partitioning attribute lists.
    pub list_moves: u64,
    /// Comparisons spent in the initial pre-sorting.
    pub presort_comparisons: u64,
    /// Nodes processed.
    pub nodes: usize,
}

/// The per-node data SPRINT carries: one sorted list per numeric attribute
/// plus the records (for categorical counting and rid membership).
struct NodeData {
    lists: Vec<Vec<ListEntry>>,
    /// rid → record, only for the rids of this node.
    records: Vec<(u32, Record)>,
}

impl NodeData {
    fn n(&self) -> usize {
        self.records.len()
    }

    fn class_counts(&self) -> ClassCounts {
        let mut counts = vec![0u64; NUM_CLASSES];
        for (_, r) in &self.records {
            counts[r.class as usize] += 1;
        }
        counts
    }
}

/// Build a decision tree with SPRINT. Uses the same stopping criteria as
/// the CLOUDS builders (taken from `params`) so trees are comparable;
/// `params.method` is ignored (SPRINT is exact by construction).
pub fn build_tree_sprint(records: &[Record], params: &CloudsParams) -> (DecisionTree, SprintStats) {
    let mut stats = SprintStats::default();
    // Pre-sorting: done once, at the root — SPRINT's signature move.
    let mut lists: Vec<Vec<ListEntry>> = Vec::with_capacity(NUM_NUMERIC);
    for attr in 0..NUM_NUMERIC {
        let mut list: Vec<ListEntry> = records
            .iter()
            .enumerate()
            .map(|(rid, r)| ListEntry {
                value: r.num(attr),
                rid: rid as u32,
                class: r.class,
            })
            .collect();
        let n = list.len().max(2) as u64;
        stats.presort_comparisons += n * (n as f64).log2().ceil() as u64;
        list.sort_by(|a, b| a.value.partial_cmp(&b.value).expect("NaN attribute"));
        lists.push(list);
    }
    let root_data = NodeData {
        lists,
        records: records
            .iter()
            .enumerate()
            .map(|(rid, r)| (rid as u32, *r))
            .collect(),
    };
    let mut tree = DecisionTree::single_leaf(root_data.class_counts());
    let mut stack = vec![(tree.root(), root_data, 0usize)];
    while let Some((node_id, data, depth)) = stack.pop() {
        stats.nodes += 1;
        let counts = data.class_counts();
        if params.should_stop(&counts, depth) {
            continue;
        }
        let Some(cand) = best_split(&data, &counts, &mut stats) else {
            continue;
        };
        let (left, right) = partition(&data, &cand.splitter, &mut stats);
        if left.n() == 0 || right.n() == 0 {
            continue;
        }
        let (lc, rc) = (left.class_counts(), right.class_counts());
        let (l, r) = tree.split_leaf(node_id, cand.splitter, lc, rc);
        stack.push((l, left, depth + 1));
        stack.push((r, right, depth + 1));
    }
    (tree, stats)
}

/// Exact best split: numeric attributes from the sorted lists, categorical
/// attributes from count matrices.
fn best_split(
    data: &NodeData,
    node_total: &ClassCounts,
    stats: &mut SprintStats,
) -> Option<Candidate> {
    let mut best: Option<Candidate> = None;
    for (attr, list) in data.lists.iter().enumerate() {
        stats.list_scans += list.len() as u64;
        let mut left = vec![0u64; NUM_CLASSES];
        let mut i = 0;
        while i < list.len() {
            let v = list[i].value;
            while i < list.len() && list[i].value == v {
                left[list[i].class as usize] += 1;
                i += 1;
            }
            if i == list.len() {
                break; // split at the maximum cannot partition
            }
            let right = sub(node_total, &left);
            let g = split_gini(&left, &right);
            best = Candidate::better(
                best,
                Candidate {
                    gini: g,
                    splitter: Splitter::Numeric { attr, threshold: v },
                    left_counts: left.clone(),
                },
            );
        }
    }
    for (attr, &card) in CATEGORICAL_CARDINALITY.iter().enumerate() {
        let mut m = CountMatrix::new(attr, card, NUM_CLASSES);
        for (_, r) in &data.records {
            m.add_value(r.cat(attr), r.class);
        }
        stats.list_scans += data.records.len() as u64;
        if let Some(c) = m.best_split(node_total, EXHAUSTIVE_LIMIT) {
            best = Candidate::better(best, c);
        }
    }
    best
}

/// Partition via a rid membership bitmap (SPRINT's "hash table" of rids on
/// the winning attribute), keeping each attribute list sorted.
fn partition(data: &NodeData, splitter: &Splitter, stats: &mut SprintStats) -> (NodeData, NodeData) {
    // Membership of every rid of the node.
    let mut goes_left = std::collections::HashMap::with_capacity(data.records.len());
    for (rid, r) in &data.records {
        goes_left.insert(*rid, splitter.goes_left(r));
    }
    let split_list = |list: &Vec<ListEntry>| -> (Vec<ListEntry>, Vec<ListEntry>) {
        let mut l = Vec::new();
        let mut r = Vec::new();
        for e in list {
            if goes_left[&e.rid] {
                l.push(*e);
            } else {
                r.push(*e);
            }
        }
        (l, r)
    };
    let mut left_lists = Vec::with_capacity(NUM_NUMERIC);
    let mut right_lists = Vec::with_capacity(NUM_NUMERIC);
    for list in &data.lists {
        stats.list_moves += list.len() as u64;
        let (l, r) = split_list(list);
        left_lists.push(l);
        right_lists.push(r);
    }
    let (mut lrec, mut rrec) = (Vec::new(), Vec::new());
    for (rid, r) in &data.records {
        if goes_left[rid] {
            lrec.push((*rid, *r));
        } else {
            rrec.push((*rid, *r));
        }
    }
    (
        NodeData {
            lists: left_lists,
            records: lrec,
        },
        NodeData {
            lists: right_lists,
            records: rrec,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_clouds::{accuracy, build_tree, holdout_pair, SplitMethod};
    use pdc_datagen::{generate, ClassifyFn, GeneratorConfig};

    fn params() -> CloudsParams {
        CloudsParams {
            q_root: 100,
            sample_size: 2_000,
            ..CloudsParams::default()
        }
    }

    #[test]
    fn sprint_learns_f2() {
        let (train, test) = holdout_pair(ClassifyFn::F2, 4_800, 1_200, 0.0);
        let (tree, stats) = build_tree_sprint(&train, &params());
        let acc = accuracy(&tree, &test);
        assert!(acc > 0.95, "accuracy {acc}");
        assert!(stats.presort_comparisons > 0);
        assert!(stats.nodes > 1);
    }

    #[test]
    fn sprint_root_split_matches_direct_method() {
        // Both are exact: the root split gini must agree with the direct
        // method's.
        let records = generate(3_000, GeneratorConfig::default());
        let direct = pdc_clouds::direct_best_split(&records, &params()).unwrap();
        let mut stats = SprintStats::default();
        let mut lists = Vec::new();
        for attr in 0..NUM_NUMERIC {
            let mut list: Vec<ListEntry> = records
                .iter()
                .enumerate()
                .map(|(rid, r)| ListEntry {
                    value: r.num(attr),
                    rid: rid as u32,
                    class: r.class,
                })
                .collect();
            list.sort_by(|a, b| a.value.partial_cmp(&b.value).unwrap());
            lists.push(list);
        }
        let data = NodeData {
            lists,
            records: records.iter().enumerate().map(|(i, r)| (i as u32, *r)).collect(),
        };
        let total = data.class_counts();
        let sprint = best_split(&data, &total, &mut stats).unwrap();
        assert!(
            (sprint.gini - direct.gini).abs() < 1e-12,
            "sprint {} vs direct {}",
            sprint.gini,
            direct.gini
        );
    }

    #[test]
    fn sprint_and_clouds_sse_have_similar_accuracy() {
        let (train, test) = holdout_pair(ClassifyFn::F2, 6_400, 1_600, 0.0);
        let (sprint_tree, _) = build_tree_sprint(&train, &params());
        let sse_tree = build_tree(
            &train,
            &CloudsParams {
                method: SplitMethod::SSE,
                ..params()
            },
        );
        let (a, b) = (accuracy(&sprint_tree, &test), accuracy(&sse_tree, &test));
        assert!((a - b).abs() < 0.03, "sprint {a} vs clouds {b}");
    }

    #[test]
    fn lists_stay_sorted_through_partitioning() {
        let records = generate(1_000, GeneratorConfig::default());
        let (tree, _) = build_tree_sprint(&records, &params());
        // Indirect check: tree must classify training data consistently
        // with exact splits (high training accuracy).
        assert!(accuracy(&tree, &records) > 0.97);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let (tree, stats) = build_tree_sprint(&[], &params());
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(stats.nodes, 1);
        let one = generate(1, GeneratorConfig::default());
        let (tree, _) = build_tree_sprint(&one, &params());
        assert_eq!(tree.num_nodes(), 1);
    }
}
