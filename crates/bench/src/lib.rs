//! # pdc-bench — figure/table harnesses and micro-benchmarks
//!
//! Harness binaries for the paper's tables and figures (see DESIGN.md §5):
//!
//! * `table1_primitives` — collective primitive cost scaling,
//! * `figures` — the pCLOUDS curves of figures 1–3, from one grid pass,
//! * `ablation_strategies`, `ablation_sse`, `ablation_thresholds` —
//!   design-choice ablations,
//!
//! plus the extensions' ablations, `whatif`, `phase_breakdown` and
//! `profile_run`. Workload scale is controlled by `PCLOUDS_SCALE` (unset or
//! `default`, `quick`, `full`); none of the binaries takes a flag except
//! `profile_run`.
//!
//! Each binary prints its tables and writes them through one path rule
//! ([`harness::write_results`]): `results/<name>.<ext>` at default scale,
//! `results/<name>.<scale>.<ext>` otherwise. Every float cell is written
//! once, at full precision ([`harness::num`]). The default-scale files are
//! committed, so regenerating `results/` and running `git diff` is the
//! drift check — bitwise for every number.

#![warn(missing_docs)]

pub mod harness;
