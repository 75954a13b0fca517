//! # pdc-pclouds — the parallel out-of-core CLOUDS classifier
//!
//! The paper's flagship system: CLOUDS parallelized with **mixed
//! parallelism** over a shared-nothing machine whose training data lives on
//! per-processor local disks.
//!
//! * Large nodes are processed with **data parallelism**: one streaming
//!   statistics pass (fused into the parent's partition pass whenever
//!   possible), split derivation via the **replication method** with the
//!   **attribute-based approach**, SSE **alive intervals** evaluated with
//!   the **single-assignment approach**, and a communication-free local
//!   partition pass.
//! * Small nodes (interval count at or below the switch threshold) are
//!   deferred, LPT-assigned to single processors, moved with batched
//!   **compute-dependent parallel I/O**, and solved in memory with the
//!   direct method.
//!
//! ```
//! use pdc_pclouds::{train_in_memory, PcloudsConfig};
//! use pdc_clouds::{accuracy, CloudsParams};
//! use pdc_datagen::{generate, GeneratorConfig};
//!
//! let records = generate(4_000, GeneratorConfig::default());
//! let config = PcloudsConfig {
//!     clouds: CloudsParams { q_root: 100, sample_size: 1_000, ..Default::default() },
//!     memory_limit_bytes: 64 * 1024,
//!     ..Default::default()
//! };
//! let out = train_in_memory(&records, 4, &config);
//! assert!(accuracy(&out.tree, &records) > 0.95);
//! assert!(out.runtime() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod comm;
pub mod config;
mod problem;
pub mod state;

pub use builder::{
    load_dataset, load_dataset_stream, train, train_in_group, train_in_memory, RootInfo,
    TrainOutput,
};
pub use comm::HistMsg;
pub use config::PcloudsConfig;
pub use state::{BuildMetrics, SharedBuild};
