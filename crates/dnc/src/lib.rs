//! # pdc-dnc — generic parallel out-of-core divide-and-conquer
//!
//! The paper's first contribution is a catalogue of techniques for building
//! a divide-and-conquer tree in parallel when the data lives on the local
//! disks of a shared-nothing machine, plus "a generic technique for
//! parallelizing out-of-core divide-and-conquer problems": data parallelism
//! at the upper levels of the tree, followed by **delayed task parallelism**
//! with compute-dependent parallel I/O for the small nodes.
//!
//! This crate is that framework:
//!
//! * [`OocProblem`] — the problem interface: cost model, small-task
//!   predicate, local solve, and two collective steps over a batch of tasks
//!   (processing by a group and redistribution to groups; a task is a batch
//!   of one, a processor a group of one);
//! * [`Strategy`] — the five strategies of Section 3 (data parallelism,
//!   mixed delayed/immediate, concatenated and task parallelism) run
//!   through one driver over a frontier of ready tasks and their groups;
//! * [`lpt_assign`] — cost-based task-to-processor assignment;
//! * [`problems::sort::OocSort`] — a complete demonstration problem
//!   (parallel out-of-core distribution sort).
//!
//! pCLOUDS (`pdc-pclouds`) is the paper's flagship instantiation of this
//! framework.

//!
//! ```
//! use pdc_cgm::Cluster;
//! use pdc_dnc::problems::sort::OocSort;
//! use pdc_dnc::{run, Strategy};
//! use pdc_pario::DiskFarm;
//!
//! let keys: Vec<u64> = (0..500).rev().collect();
//! let farm = DiskFarm::in_memory(4);
//! let meta = OocSort::scatter_input(&farm, &keys);
//! Cluster::new(4).run(|proc| {
//!     let problem = OocSort { farm: &farm, chunk_records: 64, small_threshold: 50, sample_per_proc: 8 };
//!     run(proc, &problem, meta, Strategy::Mixed)
//! });
//! let sorted = OocSort::collect_sorted(&farm);
//! assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
//! ```

#![warn(missing_docs)]

pub mod problem;
pub mod problems {
    //! Ready-made demonstration problems.
    pub mod sort;
}
pub mod scheduler;
pub mod strategy;

pub use problem::{Outcome, OocProblem, Task};
pub use scheduler::{assignment_imbalance, lpt_assign, lpt_assign_weighted};
pub use strategy::{run, DncReport, Strategy};
