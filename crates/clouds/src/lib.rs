//! # pdc-clouds — the CLOUDS decision-tree classifier (sequential)
//!
//! CLOUDS (*Classification of Large Out-of-core Data Sets*, AlSabti, Ranka
//! & Singh) derives decision-tree splitters with the gini index like SPRINT,
//! but instead of pre-sorting each numeric attribute it samples the value
//! range into `q` equi-depth **intervals** and evaluates gini only at the
//! interval boundaries (the **SS** method); the **SSE** method additionally
//! computes a per-interval gini **lower bound** and scans exactly only the
//! surviving "alive" intervals. The paper parallelizes exactly this
//! algorithm; this crate holds the sequential machinery shared by both.
//!
//! Main entry points:
//!
//! * [`build_tree`] — in-memory CLOUDS (SS/SSE/direct),
//! * [`mod@derive`] — the split-derivation pieces pCLOUDS composes with
//!   communication,
//! * [`mdl_prune`] — MDL pruning,
//! * [`accuracy`] — evaluation.
//!
//! ```
//! use pdc_clouds::{build_tree, accuracy, CloudsParams};
//! use pdc_datagen::{generate, train_test_split, GeneratorConfig};
//!
//! let data = generate(2_000, GeneratorConfig::default());
//! let (train, test) = train_test_split(data, 0.8);
//! let params = CloudsParams { q_root: 50, sample_size: 500, ..Default::default() };
//! let tree = build_tree(&train, &params);
//! assert!(accuracy(&tree, &test) > 0.9);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod categorical;
pub mod derive;
pub mod gini;
pub mod intervals;
pub mod metrics;
pub mod numeric;
pub mod params;
pub mod prune;
pub mod sample;
pub mod split;
pub mod tree;

pub use builder::{build_tree, build_tree_with_stats, class_counts, BuildStats};
pub use categorical::CountMatrix;
pub use derive::{
    accumulate_stats, derive_split_in_memory, direct_best_split, evaluate_alive_in_memory,
    NodeAccumulator, NodeStats,
};
pub use gini::{gini, split_gini, ClassCounts, CountTable};
pub use intervals::IntervalSet;
pub use metrics::{accuracy, accuracy_of, confusion_matrix, error_rate, holdout_pair};
pub use numeric::{
    exact_interval_scan, AliveInterval, AliveRouter, AttrAccumulator, AttrIntervalStats,
};
pub use params::{CloudsParams, SplitMethod};
pub use prune::{mdl_prune, MdlParams};
pub use sample::{draw_sample, Reservoir, SortedSample};
pub use split::{Candidate, Splitter};
pub use tree::{DecisionTree, Node, NodeId};
