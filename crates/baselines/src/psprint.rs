//! Parallel SPRINT — synchronized tree construction over distributed,
//! pre-sorted attribute lists (the approach of Shafer et al.'s parallel
//! SPRINT and Joshi et al.'s ScalParC, the "more scalable parallel
//! implementation" the paper cites as the state of the art it competes
//! with).
//!
//! Design (one-time work, then one synchronized level at a time):
//!
//! * **Pre-sorting**: each numeric attribute's `(value, rid, class)` list
//!   is globally sample-sorted once; every processor owns a contiguous
//!   value range of every attribute.
//! * **Replicated node map**: `node_of[rid]` (and `class_of[rid]`) are
//!   memory-resident on every processor — SPRINT's scalability sin, which
//!   this implementation reports as `replicated_bytes` so benches can show
//!   what CLOUDS' interval sampling avoids.
//! * **Split evaluation**: every processor sweeps its list segments; an
//!   exclusive prefix sum supplies the class counts before each segment,
//!   and a candidate election picks the global winner per growing node.
//! * **Split application**: each processor partitions its rid-slice of the
//!   records, and the rid→child assignments are all-gathered so every
//!   replica of the node map stays consistent (the O(n)-per-level
//!   communication ScalParC's distributed hash attacks).
//!
//! Unlike pCLOUDS this classifier is **in-core**: the attribute lists and
//! the node map live in memory, which is exactly the regime the paper
//! leaves behind.

use pdc_cgm::{OpKind, Proc};
use pdc_clouds::categorical::EXHAUSTIVE_LIMIT;
use pdc_clouds::gini::{split_gini, sub, ClassCounts};
use pdc_clouds::{Candidate, CloudsParams, CountMatrix, DecisionTree, Node, NodeId, Splitter};
use pdc_datagen::{Record, CATEGORICAL_CARDINALITY, NUM_CLASSES, NUM_NUMERIC};

/// One entry of a distributed attribute list.
#[derive(Debug, Clone, Copy)]
struct Entry {
    value: f64,
    rid: u32,
}

/// Work/memory counters of a parallel SPRINT run (per processor).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PsprintStats {
    /// Bytes of memory-resident replicated state (node map + class map).
    pub replicated_bytes: u64,
    /// Attribute-list entries resident on this processor.
    pub list_entries: u64,
    /// Tree levels processed.
    pub levels: usize,
}

/// *Collective.* Build a decision tree with synchronized (level-by-level)
/// parallel SPRINT. Every processor receives `records` sliced round-robin
/// by rank (`records[i]` with `i % p == rank` belongs to this rank — pass
/// the full set; slicing happens internally so rids stay global).
///
/// Returns the identical tree on every rank plus per-rank stats.
pub fn build_tree_psprint(
    proc: &mut Proc,
    records: &[Record],
    params: &CloudsParams,
) -> (DecisionTree, PsprintStats) {
    let p = proc.nprocs();
    let rank = proc.rank();
    let n = records.len();
    let mut stats = PsprintStats::default();

    // Replicated, memory-resident maps (the SPRINT cost CLOUDS avoids).
    let class_of: Vec<u8> = records.iter().map(|r| r.class).collect();
    let mut node_of: Vec<NodeId> = vec![0; n];
    stats.replicated_bytes = (n * (1 + std::mem::size_of::<NodeId>())) as u64;

    let mut counts = vec![0u64; NUM_CLASSES];
    for r in records {
        counts[r.class as usize] += 1;
    }
    let mut tree = DecisionTree::single_leaf(counts);
    if n == 0 {
        return (tree, stats);
    }

    // My rid slice (round-robin), for categorical counting and split
    // application.
    let my_rids: Vec<u32> = (0..n).filter(|i| i % p == rank).map(|i| i as u32).collect();

    // --- One-time pre-sorting: global sample sort per numeric attribute.
    let mut lists: Vec<Vec<Entry>> = Vec::with_capacity(NUM_NUMERIC);
    for attr in 0..NUM_NUMERIC {
        let local: Vec<(f64, u64)> = my_rids
            .iter()
            .map(|&rid| (records[rid as usize].num(attr), rid as u64))
            .collect();
        // Splitters from an all-gathered sample.
        let sample: Vec<f64> = local.iter().step_by((local.len() / 32).max(1)).map(|e| e.0).collect();
        let mut merged: Vec<f64> = proc.all_gather(sample).iter().flatten().copied().collect();
        merged.sort_by(|a, b| a.total_cmp(b));
        let splitters: Vec<f64> = (1..p)
            .map(|j| merged[(j * merged.len()) / p.max(1)])
            .collect();
        // Route each entry to its value-range owner.
        let mut parts: Vec<Vec<(f64, u64)>> = vec![Vec::new(); p];
        for e in local {
            let dst = splitters.partition_point(|&s| s < e.0);
            parts[dst].push(e);
        }
        let received = proc.all_to_all(parts);
        let mut segment: Vec<Entry> = received
            .into_iter()
            .flatten()
            .map(|(value, rid)| Entry {
                value,
                rid: rid as u32,
            })
            .collect();
        proc.charge(
            OpKind::Compare,
            (segment.len().max(2) as u64) * (segment.len().max(2) as f64).log2() as u64,
        );
        segment.sort_by(|a, b| a.value.total_cmp(&b.value).then(a.rid.cmp(&b.rid)));
        stats.list_entries += segment.len() as u64;
        lists.push(segment);
    }

    // --- Synchronized level-by-level construction.
    let mut depth = 0usize;
    loop {
        // Growing leaves (identical on every rank: replicated maps).
        let mut growing: Vec<NodeId> = Vec::new();
        {
            let mut totals: std::collections::HashMap<NodeId, ClassCounts> =
                std::collections::HashMap::new();
            for (rid, &leaf) in node_of.iter().enumerate() {
                if matches!(tree.nodes[leaf], Node::Leaf { .. }) {
                    totals
                        .entry(leaf)
                        .or_insert_with(|| vec![0u64; NUM_CLASSES])
                        [class_of[rid] as usize] += 1;
                }
            }
            for (leaf, c) in totals {
                if !params.should_stop(&c, depth) {
                    growing.push(leaf);
                }
            }
            growing.sort_unstable();
        }
        if growing.is_empty() {
            break;
        }
        stats.levels += 1;
        let node_index = |leaf: NodeId| growing.binary_search(&leaf).ok();
        let totals_of: Vec<ClassCounts> = growing
            .iter()
            .map(|&leaf| tree.nodes[leaf].counts().clone())
            .collect();

        // Numeric attributes: sweep the local segments; exclusive prefix
        // sums provide the counts before each segment per growing node.
        let mut local_best: Vec<(u64, Candidate)> = Vec::new();
        for (attr, segment) in lists.iter().enumerate() {
            proc.charge_ws(
                OpKind::RecordScan,
                segment.len() as u64,
                segment.len() * std::mem::size_of::<Entry>(),
            );
            // My per-node segment totals.
            let mut seg_totals = vec![vec![0u64; NUM_CLASSES]; growing.len()];
            for e in segment {
                if let Some(g) = node_index(node_of[e.rid as usize]) {
                    seg_totals[g][class_of[e.rid as usize] as usize] += 1;
                }
            }
            let before = proc.exscan(
                seg_totals.clone(),
                vec![vec![0u64; NUM_CLASSES]; growing.len()],
                |a, b| {
                    a.iter()
                        .zip(&b)
                        .map(|(x, y)| x.iter().zip(y).map(|(u, v)| u + v).collect())
                        .collect()
                },
            );
            // Do neighbouring segments share my last value? (A candidate
            // there would split a run of equal values.)
            let first_values = proc.all_gather(segment.first().map(|e| e.value));
            let next_first = first_values.iter().skip(rank + 1).flatten().next().copied();
            let mut left = before;
            let mut i = 0;
            while i < segment.len() {
                let v = segment[i].value;
                while i < segment.len() && segment[i].value == v {
                    let rid = segment[i].rid as usize;
                    if let Some(g) = node_index(node_of[rid]) {
                        left[g][class_of[rid] as usize] += 1;
                    }
                    i += 1;
                }
                // Last local value continuing into the next segment: skip.
                if i == segment.len() && next_first == Some(v) {
                    break;
                }
                for (g, l) in left.iter().enumerate() {
                    let total = &totals_of[g];
                    let nl: u64 = l.iter().sum();
                    let nt: u64 = total.iter().sum();
                    if nl == 0 || nl == nt {
                        continue;
                    }
                    proc.charge(OpKind::GiniEval, 1);
                    let r = sub(total, l);
                    let cand = Candidate {
                        gini: split_gini(l, &r),
                        splitter: Splitter::Numeric { attr, threshold: v },
                        left_counts: l.clone(),
                    };
                    local_best.push((g as u64, cand));
                }
            }
        }
        // Categorical attributes: local count matrices + global combine.
        for (attr, &card) in CATEGORICAL_CARDINALITY.iter().enumerate() {
            let mut matrices: Vec<CountMatrix> = growing
                .iter()
                .map(|_| CountMatrix::new(attr, card, NUM_CLASSES))
                .collect();
            for &rid in &my_rids {
                if let Some(g) = node_index(node_of[rid as usize]) {
                    matrices[g].add_value(records[rid as usize].cat(attr), class_of[rid as usize]);
                }
            }
            let combined = proc.allreduce(matrices, |mut xs, ys| {
                for (x, y) in xs.iter_mut().zip(&ys) {
                    x.merge(y);
                }
                xs
            });
            for (g, m) in combined.into_iter().enumerate() {
                proc.charge(OpKind::GiniEval, card as u64);
                if let Some(c) = m.best_split(&totals_of[g], EXHAUSTIVE_LIMIT) {
                    local_best.push((g as u64, c));
                }
            }
        }
        // Reduce to this rank's best per node, then elect globally.
        let mut mine: std::collections::HashMap<u64, Candidate> = std::collections::HashMap::new();
        for (g, c) in local_best {
            let merged = Candidate::better(mine.remove(&g), c).unwrap();
            mine.insert(g, merged);
        }
        let mine: Vec<(u64, Candidate)> = {
            let mut v: Vec<_> = mine.into_iter().collect();
            v.sort_by_key(|(g, _)| *g);
            v
        };
        let gathered = proc.all_gather(mine);
        let mut winners: std::collections::HashMap<u64, Candidate> =
            std::collections::HashMap::new();
        for list in gathered.iter() {
            for (g, c) in list {
                if winners.get(g).is_none_or(|best| c.beats(best)) {
                    winners.insert(*g, c.clone());
                }
            }
        }

        // Apply splits (every rank has the same winners — same tree).
        let mut children: std::collections::HashMap<NodeId, (NodeId, NodeId, Splitter)> =
            std::collections::HashMap::new();
        let mut any = false;
        let mut sorted: Vec<(u64, Candidate)> = winners.into_iter().collect();
        sorted.sort_by_key(|(g, _)| *g);
        for (g, cand) in sorted {
            let leaf = growing[g as usize];
            let total = tree.nodes[leaf].counts().clone();
            let right = sub(&total, &cand.left_counts);
            if cand.left_counts.iter().sum::<u64>() == 0 || right.iter().sum::<u64>() == 0 {
                continue;
            }
            let (l, r) = tree.split_leaf(leaf, cand.splitter.clone(), cand.left_counts, right);
            children.insert(leaf, (l, r, cand.splitter));
            any = true;
        }
        if !any {
            break;
        }
        // Update the replicated node map: each rank resolves its rid slice
        // and the assignments are all-gathered (O(n) per level).
        let my_moves: Vec<(u64, u64)> = my_rids
            .iter()
            .filter_map(|&rid| {
                children.get(&node_of[rid as usize]).map(|(l, r, splitter)| {
                    proc.charge(OpKind::SplitTest, 1);
                    let child = if splitter.goes_left(&records[rid as usize]) {
                        *l
                    } else {
                        *r
                    };
                    (rid as u64, child as u64)
                })
            })
            .collect();
        for moves in proc.all_gather(my_moves).iter() {
            for &(rid, child) in moves {
                node_of[rid as usize] = child as NodeId;
            }
        }
        depth += 1;
        if depth >= params.max_depth {
            break;
        }
    }
    (tree, stats)
}
