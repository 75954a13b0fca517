//! The decision tree produced by CLOUDS / pCLOUDS.
//!
//! Nodes live in an arena ([`DecisionTree::nodes`]); the tree can be built
//! in **arbitrary order** — the paper's mixed parallelism finishes all large
//! nodes first and fills in small-node subtrees later — because children are
//! attached by patching placeholder leaves.

use crate::gini::{majority_class, ClassCounts};
use crate::split::Splitter;
use pdc_cgm::wire::{DecodeError, DecodeResult, Wire};
use pdc_datagen::{Record, NUM_CATEGORICAL, NUM_CLASSES, NUM_NUMERIC};

/// Identifier of a node in the tree arena.
pub type NodeId = usize;

/// One node of a decision tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Terminal node predicting `class`.
    Leaf {
        /// Predicted class (majority of the training records that reached
        /// the leaf).
        class: u8,
        /// Training class distribution at the leaf.
        counts: ClassCounts,
    },
    /// Internal node testing `splitter`.
    Internal {
        /// The split test.
        splitter: Splitter,
        /// Left child (test true).
        left: NodeId,
        /// Right child (test false).
        right: NodeId,
        /// Training class distribution at the node.
        counts: ClassCounts,
    },
}

impl Node {
    /// Training class distribution at this node.
    pub fn counts(&self) -> &ClassCounts {
        match self {
            Node::Leaf { counts, .. } | Node::Internal { counts, .. } => counts,
        }
    }

    /// Number of training records that reached this node.
    pub fn n(&self) -> u64 {
        self.counts().iter().sum()
    }
}

/// A binary decision tree classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    /// Node arena; index 0 is the root.
    pub nodes: Vec<Node>,
}

impl DecisionTree {
    /// A tree consisting of a single leaf.
    pub fn single_leaf(counts: ClassCounts) -> Self {
        DecisionTree {
            nodes: vec![Node::Leaf {
                class: majority_class(&counts),
                counts,
            }],
        }
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        0
    }

    /// Convert leaf `id` into an internal node with `splitter`, creating two
    /// placeholder leaf children. Returns `(left, right)` child ids.
    pub fn split_leaf(
        &mut self,
        id: NodeId,
        splitter: Splitter,
        left_counts: ClassCounts,
        right_counts: ClassCounts,
    ) -> (NodeId, NodeId) {
        let counts = match &self.nodes[id] {
            Node::Leaf { counts, .. } => counts.clone(),
            Node::Internal { .. } => panic!("split_leaf on internal node {id}"),
        };
        let left = self.nodes.len();
        self.nodes.push(Node::Leaf {
            class: majority_class(&left_counts),
            counts: left_counts,
        });
        let right = self.nodes.len();
        self.nodes.push(Node::Leaf {
            class: majority_class(&right_counts),
            counts: right_counts,
        });
        self.nodes[id] = Node::Internal {
            splitter,
            left,
            right,
            counts,
        };
        (left, right)
    }

    /// Graft another tree in place of leaf `id` (used when a small node's
    /// subtree is built locally by one processor and attached later).
    pub fn graft(&mut self, id: NodeId, subtree: &DecisionTree) {
        assert!(
            matches!(self.nodes[id], Node::Leaf { .. }),
            "graft target must be a leaf"
        );
        let offset = self.nodes.len();
        // Copy the subtree's non-root nodes, then rewrite its root into `id`.
        for node in &subtree.nodes[1..] {
            self.nodes.push(remap(node, offset - 1, id));
        }
        self.nodes[id] = remap(&subtree.nodes[0], offset - 1, id);
    }

    /// Classify one record.
    pub fn predict(&self, r: &Record) -> u8 {
        let mut id = self.root();
        loop {
            match &self.nodes[id] {
                Node::Leaf { class, .. } => return *class,
                Node::Internal {
                    splitter,
                    left,
                    right,
                    ..
                } => {
                    id = if splitter.goes_left(r) { *left } else { *right };
                }
            }
        }
    }

    /// Number of leaves reachable from the root. (Pruning and grafting can
    /// leave orphaned entries in the arena; those are not part of the tree.)
    pub fn num_leaves(&self) -> usize {
        let mut leaves = 0;
        self.visit(self.root(), &mut |node| {
            if matches!(node, Node::Leaf { .. }) {
                leaves += 1;
            }
        });
        leaves
    }

    /// Number of nodes reachable from the root.
    pub fn num_nodes(&self) -> usize {
        let mut count = 0;
        self.visit(self.root(), &mut |_| count += 1);
        count
    }

    /// Pre-order traversal of the reachable tree.
    fn visit(&self, id: NodeId, f: &mut impl FnMut(&Node)) {
        f(&self.nodes[id]);
        if let Node::Internal { left, right, .. } = &self.nodes[id] {
            self.visit(*left, f);
            self.visit(*right, f);
        }
    }

    /// Canonical form: the reachable tree renumbered in pre-order (root
    /// first, left subtree before right). Two trees that test the same
    /// splits encode to the same bytes in canonical form no matter in what
    /// order their arenas were grown — grafting small subtrees rank by rank
    /// numbers nodes differently on different processor counts, so the
    /// assembled tree is canonicalized to make its encoding invariant to
    /// the machine (and, for ensembles, to the subgroup width and
    /// scheduling order a member tree was trained under). Orphaned arena
    /// entries left behind by pruning or grafting are dropped.
    pub fn canonical(&self) -> DecisionTree {
        let mut nodes = Vec::new();
        self.copy_canonical(self.root(), &mut nodes);
        DecisionTree { nodes }
    }

    /// Pre-order copy of the subtree at `id` into `out`; returns the index
    /// the subtree's root received.
    fn copy_canonical(&self, id: NodeId, out: &mut Vec<Node>) -> NodeId {
        let slot = out.len();
        out.push(self.nodes[id].clone());
        if let Node::Internal { left, right, .. } = self.nodes[id].clone() {
            let new_left = self.copy_canonical(left, out);
            let new_right = self.copy_canonical(right, out);
            match &mut out[slot] {
                Node::Internal { left, right, .. } => {
                    *left = new_left;
                    *right = new_right;
                }
                Node::Leaf { .. } => unreachable!(),
            }
        }
        slot
    }

    /// Maximum root-to-leaf depth (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        self.depth_of(self.root())
    }

    fn depth_of(&self, id: NodeId) -> usize {
        match &self.nodes[id] {
            Node::Leaf { .. } => 0,
            Node::Internal { left, right, .. } => {
                1 + self.depth_of(*left).max(self.depth_of(*right))
            }
        }
    }

    /// Pretty-print the tree structure (for examples and debugging).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(self.root(), 0, &mut out);
        out
    }

    fn render_node(&self, id: NodeId, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match &self.nodes[id] {
            Node::Leaf { class, counts } => {
                out.push_str(&format!("{pad}leaf class={class} counts={counts:?}\n"));
            }
            Node::Internal {
                splitter,
                left,
                right,
                ..
            } => {
                out.push_str(&format!("{pad}if {} {{\n", splitter.describe()));
                self.render_node(*left, indent + 1, out);
                out.push_str(&format!("{pad}}} else {{\n"));
                self.render_node(*right, indent + 1, out);
                out.push_str(&format!("{pad}}}\n"));
            }
        }
    }
}

impl Wire for Node {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Node::Leaf { class, counts } => {
                buf.push(0);
                class.encode(buf);
                counts.encode(buf);
            }
            Node::Internal {
                splitter,
                left,
                right,
                counts,
            } => {
                buf.push(1);
                splitter.encode(buf);
                left.encode(buf);
                right.encode(buf);
                counts.encode(buf);
            }
        }
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        match u8::decode(bytes)? {
            0 => Ok(Node::Leaf {
                class: u8::decode(bytes)?,
                counts: ClassCounts::decode(bytes)?,
            }),
            1 => Ok(Node::Internal {
                splitter: Splitter::decode(bytes)?,
                left: NodeId::decode(bytes)?,
                right: NodeId::decode(bytes)?,
                counts: ClassCounts::decode(bytes)?,
            }),
            _ => Err(DecodeError {
                what: "tree node tag out of range",
                remaining: bytes.len(),
                trailing: false,
            }),
        }
    }
}

impl Wire for DecisionTree {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.nodes.encode(buf);
    }

    /// Refuses an arena no builder here produces and no walk could
    /// survive: an empty one, a child id that is out of range or not above
    /// its parent's (every builder appends children after their parent, so
    /// this also rules out cycles), a test on an attribute a record does
    /// not have, a class outside the label set.
    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        let nodes = Vec::<Node>::decode(bytes)?;
        let sound = |(id, node): (usize, &Node)| match node {
            Node::Leaf { class, .. } => usize::from(*class) < NUM_CLASSES,
            Node::Internal {
                splitter,
                left,
                right,
                ..
            } => {
                let child = id + 1..nodes.len();
                child.contains(left)
                    && child.contains(right)
                    && match *splitter {
                        Splitter::Numeric { attr, .. } => attr < NUM_NUMERIC,
                        Splitter::Categorical { attr, .. } => attr < NUM_CATEGORICAL,
                    }
            }
        };
        if nodes.is_empty() || !nodes.iter().enumerate().all(sound) {
            return Err(DecodeError::malformed("tree arena is not a tree", bytes));
        }
        Ok(DecisionTree { nodes })
    }
}

/// Copy `node`, shifting its child ids by `offset`, except that a child id
/// of 0 (the subtree root) is impossible here because roots are handled
/// separately; `root_target` is where the subtree's root landed.
fn remap(node: &Node, offset: usize, root_target: NodeId) -> Node {
    let fix = |child: NodeId| -> NodeId {
        if child == 0 {
            root_target
        } else {
            child + offset
        }
    };
    match node {
        Node::Leaf { class, counts } => Node::Leaf {
            class: *class,
            counts: counts.clone(),
        },
        Node::Internal {
            splitter,
            left,
            right,
            counts,
        } => Node::Internal {
            splitter: splitter.clone(),
            left: fix(*left),
            right: fix(*right),
            counts: counts.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::Splitter;
    use pdc_datagen::{generate, GeneratorConfig};

    fn sample_record() -> Record {
        generate(1, GeneratorConfig::default())[0]
    }

    #[test]
    fn single_leaf_predicts_majority() {
        let t = DecisionTree::single_leaf(vec![3, 9]);
        assert_eq!(t.predict(&sample_record()), 1);
        assert_eq!(t.num_leaves(), 1);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn split_leaf_builds_two_level_tree() {
        let mut t = DecisionTree::single_leaf(vec![5, 5]);
        let (l, r) = t.split_leaf(
            0,
            Splitter::Numeric {
                attr: 2,
                threshold: 50.0,
            },
            vec![5, 0],
            vec![0, 5],
        );
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_leaves(), 2);
        assert_eq!(t.depth(), 1);
        let mut young = sample_record();
        young.numeric[2] = 30.0;
        let mut old = sample_record();
        old.numeric[2] = 70.0;
        assert_eq!(t.predict(&young), 0);
        assert_eq!(t.predict(&old), 1);
        assert!(matches!(t.nodes[l], Node::Leaf { class: 0, .. }));
        assert!(matches!(t.nodes[r], Node::Leaf { class: 1, .. }));
    }

    #[test]
    fn graft_attaches_subtree_with_correct_ids() {
        // Main tree: root split on age; right child will receive a subtree.
        let mut main = DecisionTree::single_leaf(vec![10, 10]);
        let (_, r) = main.split_leaf(
            0,
            Splitter::Numeric {
                attr: 2,
                threshold: 50.0,
            },
            vec![10, 0],
            vec![0, 10],
        );
        // Subtree: split on salary.
        let mut sub = DecisionTree::single_leaf(vec![0, 10]);
        sub.split_leaf(
            0,
            Splitter::Numeric {
                attr: 0,
                threshold: 75_000.0,
            },
            vec![0, 4],
            vec![0, 6],
        );
        main.graft(r, &sub);
        assert_eq!(main.num_nodes(), 5);
        assert_eq!(main.depth(), 2);
        // Predictions must route through the grafted subtree.
        let mut rec = sample_record();
        rec.numeric[2] = 70.0;
        rec.numeric[0] = 60_000.0;
        assert_eq!(main.predict(&rec), 1);
        rec.numeric[0] = 90_000.0;
        assert_eq!(main.predict(&rec), 1);
    }

    #[test]
    fn graft_single_leaf_subtree() {
        let mut main = DecisionTree::single_leaf(vec![4, 4]);
        let (l, _) = main.split_leaf(
            0,
            Splitter::Numeric {
                attr: 0,
                threshold: 1.0,
            },
            vec![4, 0],
            vec![0, 4],
        );
        let sub = DecisionTree::single_leaf(vec![1, 3]);
        main.graft(l, &sub);
        assert!(matches!(main.nodes[l], Node::Leaf { class: 1, .. }));
    }

    #[test]
    fn render_mentions_structure() {
        let mut t = DecisionTree::single_leaf(vec![1, 1]);
        t.split_leaf(
            0,
            Splitter::Numeric {
                attr: 0,
                threshold: 5.0,
            },
            vec![1, 0],
            vec![0, 1],
        );
        let s = t.render();
        assert!(s.contains("salary <= 5.000"), "{s}");
        assert!(s.contains("leaf class=0"));
        assert!(s.contains("leaf class=1"));
    }

    #[test]
    fn wire_roundtrip_preserves_the_tree() {
        let mut t = DecisionTree::single_leaf(vec![10, 10]);
        let (l, _) = t.split_leaf(
            0,
            Splitter::Numeric {
                attr: 2,
                threshold: 50.0,
            },
            vec![10, 0],
            vec![0, 10],
        );
        t.split_leaf(
            l,
            Splitter::Categorical {
                attr: 0,
                left_values: 0b101,
            },
            vec![6, 0],
            vec![4, 0],
        );
        let decoded = DecisionTree::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(decoded, t);
        assert!(DecisionTree::from_bytes(&[1, 7]).is_err(), "bad node tag");
    }

    #[test]
    #[should_panic(expected = "split_leaf on internal node")]
    fn split_internal_panics() {
        let mut t = DecisionTree::single_leaf(vec![2, 2]);
        t.split_leaf(
            0,
            Splitter::Numeric {
                attr: 0,
                threshold: 1.0,
            },
            vec![2, 0],
            vec![0, 2],
        );
        t.split_leaf(
            0,
            Splitter::Numeric {
                attr: 0,
                threshold: 2.0,
            },
            vec![1, 0],
            vec![1, 0],
        );
    }
}
