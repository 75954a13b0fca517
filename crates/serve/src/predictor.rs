//! The [`Predictor`] trait: one scoring interface over every compiled
//! layout, plus the pointer-tree baseline.
//!
//! Every layout must return **bit-identical** predictions to
//! [`pdc_clouds::DecisionTree::predict`] on every record — the layouts are
//! pure representation changes, never approximations. What *does* differ is
//! the charged cost on the simulated machine: the pointer tree pays a
//! dependent-load charge per visited node on top of the split test and the
//! branch, the flat array drops the dependent load (children are computed
//! indices into one contiguous slice).

use pdc_cgm::{OpKind, Proc};
use pdc_clouds::{DecisionTree, Node};
use pdc_datagen::{Record, RecordBatch};

/// A compiled model that classifies records and knows how to charge the
/// simulated machine for doing so.
///
/// The serving harness ([`crate::harness::serve`]) only ever talks to models
/// through this trait, so every layout (and any future one) plugs into the
/// same broadcast → stream → score pipeline.
///
/// ```
/// use pdc_clouds::{DecisionTree, Splitter};
/// use pdc_datagen::{generate, GeneratorConfig};
/// use pdc_serve::{FlatTree, PointerPredictor, Predictor};
///
/// // A two-leaf tree: salary <= 60k goes left.
/// let mut tree = DecisionTree::single_leaf(vec![6, 4]);
/// tree.split_leaf(
///     0,
///     Splitter::Numeric { attr: 0, threshold: 60_000.0 },
///     vec![6, 0],
///     vec![0, 4],
/// );
/// let flat = FlatTree::compile(&tree);
/// let pointer = PointerPredictor::new(tree.clone());
/// for r in generate(64, GeneratorConfig::default()) {
///     assert_eq!(flat.predict(&r), tree.predict(&r));
///     assert_eq!(pointer.predict(&r), tree.predict(&r));
/// }
/// ```
pub trait Predictor {
    /// Short layout name (`"pointer"`, `"flat"`).
    fn layout_name(&self) -> &'static str;

    /// Classify one record. Must equal the source tree's
    /// [`DecisionTree::predict`] bit for bit.
    fn predict(&self, r: &Record) -> u8;

    /// Number of nodes in the compiled representation.
    fn num_nodes(&self) -> usize;

    /// Resident bytes of the compiled representation — the working set the
    /// cache model sees while scoring ([`pdc_cgm::CacheParams`]).
    fn footprint_bytes(&self) -> usize;

    /// Classify a batch — resident records or a view of a page — appending
    /// one class byte per record to `out` and charging `proc` this layout's
    /// traversal cost.
    fn score_batch(
        &self,
        proc: &mut Proc,
        records: &(impl RecordBatch + ?Sized),
        out: &mut Vec<u8>,
    ) where
        Self: Sized;

    /// Classify a batch without a simulated machine (tests, offline use).
    fn predict_all(&self, records: &[Record]) -> Vec<u8> {
        records.iter().map(|r| self.predict(r)).collect()
    }
}

/// The baseline: serve straight from the training-time
/// [`DecisionTree`] arena (enum nodes, heap-allocated class counts,
/// children addressed by arena id).
///
/// Per visited node the traversal charges a split test, a branch
/// ([`OpKind::Compare`], the taken/not-taken decision on the outcome) and a
/// dependent load ([`OpKind::Misc`], chasing the child id into a scattered
/// arena entry), all against the arena's full footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct PointerPredictor {
    tree: DecisionTree,
    footprint: usize,
}

impl PointerPredictor {
    /// Wrap a built tree for serving.
    pub fn new(tree: DecisionTree) -> Self {
        let heap: usize = tree
            .nodes
            .iter()
            .map(|n| n.counts().len() * std::mem::size_of::<u64>())
            .sum();
        let footprint = tree.nodes.len() * std::mem::size_of::<Node>() + heap;
        PointerPredictor { tree, footprint }
    }

    /// The wrapped tree.
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// Walk `r` from the root: its leaf's class and the number of split
    /// tests on the way (the internal nodes visited).
    #[inline]
    fn walk(&self, r: &Record) -> (u8, u64) {
        let mut id = self.tree.root();
        let mut steps = 0;
        loop {
            match &self.tree.nodes[id] {
                Node::Leaf { class, .. } => return (*class, steps),
                Node::Internal {
                    splitter,
                    left,
                    right,
                    ..
                } => {
                    steps += 1;
                    id = if splitter.goes_left(r) { *left } else { *right };
                }
            }
        }
    }
}

impl Predictor for PointerPredictor {
    fn layout_name(&self) -> &'static str {
        "pointer"
    }

    fn predict(&self, r: &Record) -> u8 {
        self.tree.predict(r)
    }

    fn num_nodes(&self) -> usize {
        self.tree.nodes.len()
    }

    fn footprint_bytes(&self) -> usize {
        self.footprint
    }

    fn score_batch(
        &self,
        proc: &mut Proc,
        records: &(impl RecordBatch + ?Sized),
        out: &mut Vec<u8>,
    ) {
        let mut steps = 0u64;
        records.for_each(|r| {
            let (class, path) = self.walk(r);
            steps += path;
            out.push(class);
        });
        let ws = self.footprint;
        proc.charge_ws(OpKind::SplitTest, steps, ws);
        proc.charge_ws(OpKind::Compare, steps, ws);
        proc.charge_ws(OpKind::Misc, steps, ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_cgm::Cluster;
    use pdc_clouds::Splitter;
    use pdc_datagen::{generate, GeneratorConfig};

    fn two_level_tree() -> DecisionTree {
        let mut t = DecisionTree::single_leaf(vec![5, 5]);
        t.split_leaf(
            0,
            Splitter::Numeric {
                attr: 2,
                threshold: 50.0,
            },
            vec![5, 0],
            vec![0, 5],
        );
        t
    }

    #[test]
    fn pointer_predicts_like_the_tree() {
        let tree = two_level_tree();
        let p = PointerPredictor::new(tree.clone());
        for r in generate(200, GeneratorConfig::default()) {
            assert_eq!(p.predict(&r), tree.predict(&r));
        }
        assert_eq!(p.layout_name(), "pointer");
        assert_eq!(p.num_nodes(), 3);
        assert!(p.footprint_bytes() > 3 * std::mem::size_of::<Node>());
    }

    #[test]
    fn walk_counts_internal_nodes() {
        let tree = two_level_tree();
        let p = PointerPredictor::new(tree.clone());
        let records = generate(8, GeneratorConfig::default());
        for r in &records {
            assert_eq!(p.walk(r), (tree.predict(r), 1));
        }
        let single = PointerPredictor::new(DecisionTree::single_leaf(vec![1, 0]));
        assert_eq!(single.walk(&records[0]), (0, 0));
    }

    #[test]
    fn score_batch_charges_the_clock() {
        let p = PointerPredictor::new(two_level_tree());
        let records = generate(64, GeneratorConfig::default());
        let out = Cluster::new(1).run(|proc| {
            let mut preds = Vec::new();
            p.score_batch(proc, records.as_slice(), &mut preds);
            preds
        });
        assert_eq!(out.results[0], p.predict_all(&records));
        assert!(out.makespan() > 0.0, "scoring must cost virtual time");
    }
}
