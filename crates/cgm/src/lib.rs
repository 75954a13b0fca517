//! # pdc-cgm — simulated coarse-grained parallel machine
//!
//! The paper evaluates pCLOUDS on a 16-node IBM SP2: a shared-nothing,
//! message-passing machine where every node owns a local disk and
//! communication is modeled as `O(alpha + beta * m)` on a cut-through routed
//! network. This crate reproduces that machine in software:
//!
//! * [`Cluster`] runs an SPMD closure on `p` **virtual processors**,
//!   exactly like `mpirun`: one carrier thread per rank, a receive (or a
//!   wait at a collective's board) parks on the rank's own mailbox, and a
//!   run that can no longer finish — a deadlock, or a rank that panicked —
//!   is detected structurally, with no timer, and reported by its cause
//!   (see [`exec`]).
//! * [`Proc`] is a rank's handle: typed point-to-point [`Proc::send`] /
//!   [`Proc::recv`] plus the full set of collectives the paper uses
//!   (broadcast, global combine, all-to-all broadcast, gather, prefix sum,
//!   min-loc reduction, personalized all-to-all).
//! * Every processor carries a **virtual clock**. Real bytes move between
//!   threads; *time* is charged by the [`cost::CostModel`]: `alpha + beta*m`
//!   per message, per-operation compute rates, per-request disk costs and a
//!   cache model. Receives complete at
//!   `max(receiver clock, sender send-completion time)`. A collective runs
//!   its schedule of point-to-point messages by that rule, resolved once per
//!   call on its communicator's board (see [`collectives`]), so collective
//!   costs (Table 1 of the paper) *emerge* from the p2p model instead of
//!   being asserted.
//!
//! Determinism: for a fixed machine configuration and SPMD program, the
//! virtual clocks are bit-for-bit reproducible — scheduling of the
//! underlying OS threads cannot affect them.
//!
//! ```
//! use pdc_cgm::{Cluster, OpKind};
//!
//! let cluster = Cluster::new(4);
//! let out = cluster.run(|proc| {
//!     proc.charge(OpKind::Misc, 100 * (proc.rank() as u64 + 1));
//!     let total: u64 = proc.allreduce(proc.rank() as u64, |a, b| a + b);
//!     total
//! });
//! assert!(out.results.iter().all(|&t| t == 0 + 1 + 2 + 3));
//! assert!(out.makespan() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod collectives;
pub mod cost;
pub mod counters;
pub mod evg;
pub mod exec;
pub mod export;
pub mod fault;
pub mod gauge;
pub mod group;
pub mod hist;
pub mod json;
mod mailbox;
pub mod metrics;
pub mod proc;
pub mod replay;
pub mod report;
pub mod span;
mod topology;
pub mod trace;
pub mod wire;

pub use cluster::{Cluster, MachineConfig, RunOutput};
pub use cost::{CacheParams, ComputeRates, CostModel, DiskParams, NetworkParams, OpKind};
pub use counters::{Counters, ProcStats};
pub use evg::{Breakdown, Ev, EventGraph};
pub use export::{
    chrome_trace_json, critical_path, gauges_csv, metrics_csv, metrics_jsonl, CriticalPathReport,
};
pub use fault::{DegradedWindow, DiskFaults, FaultError, FaultPlan, LinkFaults};
pub use gauge::{resolve_series, GaugePoint, GaugeSeries};
pub use group::Group;
pub use hist::{Histogram, HistogramSpec};
pub use metrics::{MetricsRegistry, NameSummary, SpanRow};
pub use proc::{IoTicket, Proc};
pub use replay::{identity_check, replay, CostOverride, CriticalSummary, ReplayOutput};
pub use report::{BuildReport, GaugeStat, Hotspot, LevelReport, NodeReport, RankUtilization};
pub use span::{SpanAttr, SpanRecord, SpanToken};
pub use wire::{decode_varint, encode_varint, varint_len, DecodeError, Wire};
