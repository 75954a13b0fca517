//! Flat serving layout: the tree compiled into one contiguous,
//! breadth-first node array with `u32` child indices.
//!
//! This is the QuickScorer-era observation applied to a single tree: at
//! serving time the training arena's enum nodes, heap-allocated class
//! counts and pointer-sized ids are pure overhead. Compilation strips a
//! node down to 16 bytes — child index, packed attribute id, leaf class and
//! the 8-byte test payload (threshold bits or category bitmask) — and lays
//! siblings out adjacently in breadth-first order, so the hot top levels of
//! the tree share cache lines and a child access is an indexed load into
//! one slice instead of a dependent pointer chase.
//!
//! Each root-to-leaf walk is still a chain of dependent loads, so
//! `score_batch` walks eight records abreast: per round every lane applies
//! its node's test in place on the batch and steps to its child, and a lane
//! at its leaf writes its record's class, takes the batch's next record
//! and starts again at the root — through selects, counting no step. The
//! eight chains overlap their loads, no lane waits on another's deeper
//! leaf while the batch has records, and the step count is the exact sum
//! of path lengths. The last records the lanes hold finish abreast, and
//! fewer than a lane-width left over walk alone.

use pdc_cgm::wire::{DecodeError, DecodeResult, Wire};
use pdc_cgm::{OpKind, Proc};
use pdc_clouds::{DecisionTree, Node, Splitter};
use pdc_datagen::{Record, RecordBatch, NUM_CATEGORICAL, NUM_CLASSES, NUM_NUMERIC};

use crate::predictor::Predictor;

/// One compiled node: 16 bytes, no heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatNode {
    /// Breadth-first index of the left child; the right child is
    /// `first_child + 1`. `0` marks a leaf (the root is never a child).
    pub first_child: u32,
    /// Attribute id: `< NUM_NUMERIC` selects a numeric attribute,
    /// otherwise `attr - NUM_NUMERIC` selects a categorical one.
    pub attr: u16,
    /// Predicted class (meaningful on leaves).
    pub class: u8,
    /// Test payload: numeric threshold as `f64` bits, or the categorical
    /// left-branch bitmask.
    pub test: u64,
}

impl FlatNode {
    fn leaf(class: u8) -> Self {
        FlatNode {
            first_child: 0,
            attr: 0,
            class,
            test: 0,
        }
    }
}

impl Wire for FlatNode {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.first_child.encode(buf);
        self.attr.encode(buf);
        self.class.encode(buf);
        self.test.encode(buf);
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        Ok(FlatNode {
            first_child: u32::decode(bytes)?,
            attr: u16::decode(bytes)?,
            class: u8::decode(bytes)?,
            test: u64::decode(bytes)?,
        })
    }
}

/// A tree compiled into a breadth-first [`FlatNode`] array.
///
/// Predictions are bit-identical to the source [`DecisionTree`]: the
/// compiler preserves every threshold's `f64` bits and every categorical
/// bitmask, and the traversal applies the exact tests of
/// [`Splitter::goes_left`].
///
/// ```
/// use pdc_clouds::{DecisionTree, Splitter};
/// use pdc_datagen::{generate, GeneratorConfig};
/// use pdc_serve::{FlatTree, Predictor};
///
/// let mut tree = DecisionTree::single_leaf(vec![8, 8]);
/// let (left, _) = tree.split_leaf(
///     0,
///     Splitter::Numeric { attr: 2, threshold: 40.0 },
///     vec![8, 0],
///     vec![0, 8],
/// );
/// tree.split_leaf(
///     left,
///     Splitter::Categorical { attr: 0, left_values: 0b110 },
///     vec![4, 0],
///     vec![4, 0],
/// );
/// let flat = FlatTree::compile(&tree);
/// assert_eq!(flat.num_nodes(), 5); // breadth-first, reachable nodes only
/// for r in generate(100, GeneratorConfig::default()) {
///     assert_eq!(flat.predict(&r), tree.predict(&r));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlatTree {
    nodes: Vec<FlatNode>,
}

/// Pack a [`Splitter`] into the `(attr, test)` pair of a [`FlatNode`].
fn pack_splitter(s: &Splitter) -> (u16, u64) {
    match *s {
        Splitter::Numeric { attr, threshold } => (attr as u16, threshold.to_bits()),
        Splitter::Categorical { attr, left_values } => {
            ((NUM_NUMERIC + attr) as u16, left_values)
        }
    }
}

impl FlatTree {
    /// Compile a built tree: breadth-first walk of the *reachable* nodes
    /// (pruning and grafting can orphan arena entries; those are dropped),
    /// siblings adjacent, children addressed by `u32` index.
    pub fn compile(tree: &DecisionTree) -> FlatTree {
        let mut order = vec![tree.root()];
        let mut nodes: Vec<FlatNode> = Vec::new();
        let mut head = 0;
        while head < order.len() {
            let id = order[head];
            head += 1;
            match &tree.nodes[id] {
                Node::Leaf { class, .. } => nodes.push(FlatNode::leaf(*class)),
                Node::Internal {
                    splitter,
                    left,
                    right,
                    ..
                } => {
                    let first_child =
                        u32::try_from(order.len()).expect("tree exceeds u32 node indices");
                    order.push(*left);
                    order.push(*right);
                    let (attr, test) = pack_splitter(splitter);
                    nodes.push(FlatNode {
                        first_child,
                        attr,
                        class: 0,
                        test,
                    });
                }
            }
        }
        FlatTree { nodes }
    }

    /// The compiled node array (breadth-first; index 0 is the root).
    pub fn nodes(&self) -> &[FlatNode] {
        &self.nodes
    }

    /// Walk record `i` of `records` from the root: its leaf's class and the
    /// number of split tests on the way.
    #[inline]
    fn walk(&self, records: &(impl RecordBatch + ?Sized), i: usize) -> (u8, u64) {
        let mut at = 0usize;
        let mut steps = 0;
        loop {
            let n = &self.nodes[at];
            if n.first_child == 0 {
                return (n.class, steps);
            }
            steps += 1;
            at = n.first_child as usize + !test_goes_left_at(n, records, i) as usize;
        }
    }
}

/// Records walked abreast by [`FlatTree::score_batch`]: enough independent
/// root-to-leaf chains that their loads overlap, few enough that the lane
/// state stays in registers (measured with refill: four ≈ eight ≈ sixteen,
/// eight ahead by 2–4 % in the medians).
const LANES: usize = 8;

/// Apply a flat node's test to record `i` of a batch — exactly
/// [`Splitter::goes_left_at`] on the packed representation.
#[inline]
fn test_goes_left_at(n: &FlatNode, records: &(impl RecordBatch + ?Sized), i: usize) -> bool {
    let attr = n.attr as usize;
    if attr < NUM_NUMERIC {
        records.num(i, attr) <= f64::from_bits(n.test)
    } else {
        n.test & (1u64 << records.cat(i, attr - NUM_NUMERIC)) != 0
    }
}

impl Predictor for FlatTree {
    fn layout_name(&self) -> &'static str {
        "flat"
    }

    fn predict(&self, r: &Record) -> u8 {
        self.walk(std::slice::from_ref(r), 0).0
    }

    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn footprint_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<FlatNode>()
    }

    fn score_batch(
        &self,
        proc: &mut Proc,
        records: &(impl RecordBatch + ?Sized),
        out: &mut Vec<u8>,
    ) {
        let n = records.len();
        // Records finish out of order: size the batch's slots, then write
        // each by index.
        let start = out.len();
        out.resize(start + n, 0);
        let slots = &mut out[start..];
        let mut steps = 0u64;
        let mut next = 0;
        if n >= LANES {
            // Lane `k` walks record `rec[k]` and sits on node `at[k]`. Every
            // round each lane writes its node's class into its record's
            // slot — a placeholder on an inner node, the answer on a leaf —
            // and through selects, not branches, either steps to a child
            // (one step) or, at its leaf, takes the next record and starts
            // again at the root. So `steps` is the exact path length sum.
            let mut rec: [usize; LANES] = std::array::from_fn(|k| k);
            let mut at = [0usize; LANES];
            next = LANES;
            // A round refills at most every lane, so it never runs past `n`.
            while next + LANES <= n {
                for (r, a) in rec.iter_mut().zip(at.iter_mut()) {
                    let node = &self.nodes[*a];
                    let inner = node.first_child != 0;
                    let child = node.first_child as usize
                        + !test_goes_left_at(node, records, *r) as usize;
                    slots[*r] = node.class;
                    *a = if inner { child } else { 0 };
                    *r = if inner { *r } else { next };
                    next += !inner as usize;
                    steps += inner as u64;
                }
            }
            // Fewer than a lane-width of records left: the lanes finish the
            // records they hold, a lane at its leaf staying put.
            loop {
                let mut moved = 0;
                for (&r, a) in rec.iter().zip(at.iter_mut()) {
                    let node = &self.nodes[*a];
                    let inner = node.first_child != 0;
                    let child =
                        node.first_child as usize + !test_goes_left_at(node, records, r) as usize;
                    *a = if inner { child } else { *a };
                    moved += inner as u64;
                }
                if moved == 0 {
                    break;
                }
                steps += moved;
            }
            for (&r, &a) in rec.iter().zip(&at) {
                slots[r] = self.nodes[a].class;
            }
        }
        for (i, slot) in slots.iter_mut().enumerate().skip(next) {
            let (class, path) = self.walk(records, i);
            steps += path;
            *slot = class;
        }
        // Same split tests and branches as the pointer tree, but no
        // dependent-load charge, against a far smaller working set.
        let ws = self.footprint_bytes();
        proc.charge_ws(OpKind::SplitTest, steps, ws);
        proc.charge_ws(OpKind::Compare, steps, ws);
    }
}

impl Wire for FlatTree {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.nodes.encode(buf);
    }

    /// Refuses an array [`FlatTree::compile`] cannot have produced and a
    /// walk could not survive: an empty one, children out of range or not
    /// after their parent (breadth-first order puts them there, which also
    /// rules out cycles), a test on an attribute a record does not have —
    /// on a leaf too, whose test a lane of `score_batch` applies and
    /// discards —, a leaf class outside the label set.
    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        let nodes = Vec::<FlatNode>::decode(bytes)?;
        let sound = |(i, n): (usize, &FlatNode)| {
            let first = n.first_child as usize;
            usize::from(n.attr) < NUM_NUMERIC + NUM_CATEGORICAL
                && if first == 0 {
                    usize::from(n.class) < NUM_CLASSES
                } else {
                    i < first && first + 1 < nodes.len()
                }
        };
        if nodes.is_empty() || !nodes.iter().enumerate().all(sound) {
            return Err(DecodeError::malformed("flat node array is not a tree", bytes));
        }
        Ok(FlatTree { nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_datagen::{generate, GeneratorConfig};

    fn mixed_tree() -> DecisionTree {
        let mut t = DecisionTree::single_leaf(vec![10, 10]);
        let (l, r) = t.split_leaf(
            0,
            Splitter::Numeric {
                attr: 0,
                threshold: 70_000.0,
            },
            vec![10, 0],
            vec![0, 10],
        );
        t.split_leaf(
            l,
            Splitter::Categorical {
                attr: 2,
                left_values: 0b1_0101,
            },
            vec![5, 0],
            vec![5, 0],
        );
        t.split_leaf(
            r,
            Splitter::Numeric {
                attr: 2,
                threshold: 45.0,
            },
            vec![0, 5],
            vec![0, 5],
        );
        t
    }

    #[test]
    fn node_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<FlatNode>(), 16);
    }

    #[test]
    fn compile_is_breadth_first() {
        let flat = FlatTree::compile(&mixed_tree());
        assert_eq!(flat.num_nodes(), 7);
        // Root's children are adjacent right after it.
        assert_eq!(flat.nodes()[0].first_child, 1);
        // Level-2 internals hand out the next sibling pairs in order.
        assert_eq!(flat.nodes()[1].first_child, 3);
        assert_eq!(flat.nodes()[2].first_child, 5);
        for leaf in &flat.nodes()[3..] {
            assert_eq!(leaf.first_child, 0);
        }
    }

    #[test]
    fn predictions_match_the_source_tree() {
        let tree = mixed_tree();
        let flat = FlatTree::compile(&tree);
        for r in generate(500, GeneratorConfig::default()) {
            assert_eq!(flat.predict(&r), tree.predict(&r));
        }
    }

    #[test]
    fn single_leaf_compiles_and_predicts() {
        let tree = DecisionTree::single_leaf(vec![0, 3]);
        let flat = FlatTree::compile(&tree);
        assert_eq!(flat.num_nodes(), 1);
        let r = generate(1, GeneratorConfig::default())[0];
        assert_eq!(flat.predict(&r), 1);
        assert_eq!(flat.walk(std::slice::from_ref(&r), 0), (1, 0));
    }

    #[test]
    fn wire_roundtrip() {
        let flat = FlatTree::compile(&mixed_tree());
        let bytes = flat.to_bytes();
        assert_eq!(FlatTree::from_bytes(&bytes).unwrap(), flat);
    }

    #[test]
    fn decode_refuses_a_leaf_testing_an_attribute_records_lack() {
        let mut flat = FlatTree::compile(&mixed_tree());
        flat.nodes[3].attr = (NUM_NUMERIC + NUM_CATEGORICAL) as u16;
        assert!(FlatTree::from_bytes(&flat.to_bytes()).is_err());
    }

    #[test]
    fn footprint_is_compact() {
        let tree = mixed_tree();
        let flat = FlatTree::compile(&tree);
        assert_eq!(flat.footprint_bytes(), 7 * 16);
    }
}
