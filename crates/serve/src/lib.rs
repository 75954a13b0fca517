//! # pdc-serve — the serving path: compiled predictors at production throughput
//!
//! The paper's pipeline ends when the tree is built; this crate opens the
//! second half of the production story. A trained
//! [`pdc_clouds::DecisionTree`] is **compiled** into one of two serving
//! layouts behind a single [`Predictor`] trait:
//!
//! * [`PointerPredictor`] — the training arena as-is (baseline),
//! * [`FlatTree`] — a contiguous breadth-first node array with `u32` child
//!   indices and 16-byte nodes.
//!
//! Every layout returns **bit-identical predictions** to the pointer tree
//! on every record — layouts change cost, never answers — and the
//! [`model::assert_equivalent`] helper plus the parity test suite enforce
//! it across all SLIQ generator functions and edge-shaped trees.
//!
//! On top of the layouts, [`harness::serve`] runs a production-shaped
//! scoring loop on the simulated machine: broadcast the compiled model to
//! all ranks (a first-class communication step, recorded in spans), stream
//! request shards from each rank's disk through the asynchronous
//! [`pdc_pario`] engine, and measure sustained records/sec plus
//! p50/p99/p999 virtual-clock tail latency per batch. The `fig_serving`
//! bench ablates layout × batch size × engine and asserts the performance
//! contract (flat strictly faster than pointer, predictions identical).
//!
//! ```
//! use pdc_clouds::{DecisionTree, Splitter};
//! use pdc_datagen::{generate, GeneratorConfig};
//! use pdc_serve::{assert_equivalent, Layout, Predictor};
//!
//! let mut tree = DecisionTree::single_leaf(vec![3, 7]);
//! tree.split_leaf(
//!     0,
//!     Splitter::Numeric { attr: 2, threshold: 55.0 },
//!     vec![3, 0],
//!     vec![0, 7],
//! );
//! let records = generate(256, GeneratorConfig::default());
//! assert_equivalent(&tree, &records); // all layouts, bit for bit
//! let flat = Layout::Flat.compile(&tree);
//! assert_eq!(flat.predict(&records[0]), tree.predict(&records[0]));
//! ```

#![warn(missing_docs)]

pub mod ensemble;
pub mod flat;
pub mod harness;
pub mod model;
pub mod predictor;
pub mod telemetry;

pub use ensemble::EnsemblePredictor;
pub use flat::{FlatNode, FlatTree};
pub use harness::{
    latency_summary, serve, serve_ensemble, serve_model, stage_requests, LatencySummary,
    ServeConfig, ServeReport, REQUESTS_FILE,
};
pub use model::{assert_equivalent, CompiledModel, Layout, ALL_LAYOUTS};
pub use predictor::{PointerPredictor, Predictor};
pub use telemetry::{
    evaluate_slo, merge_windows, SloReport, SloSpec, TelemetryConfig, TelemetryReport,
    WindowRecorder, WindowSlo, WindowStats,
};
