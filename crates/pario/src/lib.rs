//! # pdc-pario — out-of-core parallel I/O subsystem
//!
//! The paper assumes a shared-nothing machine where "each processor has its
//! own disk which can be controlled independently" and where out-of-core
//! data is streamed through a bounded memory buffer. This crate provides
//! that substrate on top of the simulated machine of [`pdc_cgm`]:
//!
//! * [`DiskFarm`] — one [`NodeDisk`] per processor;
//! * [`NodeDisk`] — a namespace of fixed-size-record files
//!   ([`TypedFile`]) with chunked, *cost-charged* reads and writes;
//! * [`ChunkedReader`] / [`BufferedWriter`] — streaming access within a
//!   memory budget (the paper's "memory limit");
//! * [`Rec`] / [`RecChunk`] / [`RecBuf`] — records have one fixed byte
//!   layout, a page read from a file *is* the records, and passes walk
//!   borrowed views of it instead of decoding into a `Vec` of structs;
//! * [`deal_stream`] — the uncharged initial load: a record stream dealt
//!   round-robin or in contiguous shares onto the disks, generated on a
//!   helper thread while the caller visits and appends;
//! * [`fn@redistribute`] — compute-dependent parallel I/O: read → personalized
//!   all-to-all → write, the operation that moves a subtask's data to its
//!   assigned processor group;
//! * the asynchronous disk engine ([`engine`], [`cache`]) — a per-rank LRU
//!   buffer pool, write-back, and compute-independent prefetch (task
//!   lookahead and sequential read-ahead) on the machine's I/O device timeline
//!   (off by default; [`EngineConfig::disabled`] keeps the synchronous
//!   path bit-identical);
//! * two physical stores per disk ([`Store`]) — RAM (default) and one real
//!   scratch file cut into extents — that charge identical virtual I/O
//!   costs.

//!
//! ```
//! use pdc_cgm::Cluster;
//! use pdc_pario::DiskFarm;
//!
//! let farm = DiskFarm::in_memory(2);
//! let out = Cluster::new(2).run(|proc| {
//!     let mut disk = farm.lock(proc.rank());
//!     let f = disk.create::<u64>("data");
//!     disk.append(proc, &f, &[1, 2, 3]);
//!     disk.read_all(proc, &f).len()
//! });
//! assert_eq!(out.results, vec![3, 3]);
//! assert!(out.makespan() > 0.0); // the writes and reads were charged
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod deal;
pub mod disk;
pub mod engine;
pub mod farm;
pub mod rec;
pub mod redistribute;

pub use backend::{BackendKind, Store, EXTENT_BYTES};
pub use cache::BufferPool;
pub use deal::{deal_stream, Deal, BATCH_RECORDS};
pub use disk::{BufferedWriter, ChunkedReader, NodeDisk, TypedFile};
pub use engine::{EngineConfig, IoEngine};
pub use farm::DiskFarm;
pub use rec::{RaggedChunk, Rec, RecBuf, RecChunk};
pub use redistribute::redistribute;
